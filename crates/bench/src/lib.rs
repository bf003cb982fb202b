//! # ceres-bench
//!
//! Paper reproduction: the `repro` binary regenerates every table and figure
//! of the paper (see `repro help`). Performance is measured by the
//! repository benchmark (`benchmark/`), whose traced run reports every
//! pipeline stage and layer from the same inputs.

/// Parse `--scale`, `--seed`, `--threads` and the experiment list from CLI
/// args (`--threads 0` = auto: `CERES_THREADS`, then the machine).
pub fn parse_args(args: &[String]) -> (ceres_eval::experiments::ExpConfig, Vec<String>) {
    let mut cfg = ceres_eval::experiments::ExpConfig::default();
    let mut targets = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(cfg.scale);
            }
            "--seed" => {
                i += 1;
                cfg.seed = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(cfg.seed);
            }
            "--threads" => {
                i += 1;
                cfg.threads = args.get(i).and_then(|v| v.parse().ok()).filter(|&t| t > 0);
            }
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    (cfg, targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_targets() {
        let args: Vec<String> =
            ["--scale", "0.05", "table3", "fig6", "--seed", "7", "--threads", "3"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let (cfg, targets) = parse_args(&args);
        assert_eq!(cfg.scale, 0.05);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(targets, vec!["table3", "fig6"]);
    }

    #[test]
    fn threads_zero_means_auto() {
        let args: Vec<String> = ["--threads", "0"].iter().map(|s| s.to_string()).collect();
        let (cfg, _) = parse_args(&args);
        assert_eq!(cfg.threads, None);
    }

    #[test]
    fn default_target_is_all() {
        let (_, targets) = parse_args(&[]);
        assert_eq!(targets, vec!["all"]);
    }
}
