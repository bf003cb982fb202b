//! Command line: `ceres-repo-bench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`, run from the repository root. Prints a
//! human-readable summary on stderr and, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics untraced, per-layer metrics traced). Exits 1 when a check
//! fails, 2 on bad arguments.

use ceres_repo_bench::corpus::Workload;
use ceres_repo_bench::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

/// Where run records and spans are written, relative to the repository
/// root.
const RESULTS_DIR: &str = "benchmark/results";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let mut o =
        Options::new(workload.ok_or("--workload is required")?, seed.ok_or("--seed is required")?);
    o.seconds = seconds.ok_or("--seconds is required")?;
    if !(o.seconds.is_finite() && o.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    o.trace = trace.ok_or("--trace is required")?;
    o.out_dir = Some(PathBuf::from(RESULTS_DIR));
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(rec) => {
            eprintln!(
                "{} seed {} trace {}: {} passes, digest {}, threads {}/{} cores",
                rec.workload,
                rec.seed,
                u8::from(rec.trace),
                rec.passes,
                rec.digest,
                rec.threads,
                rec.host_cores
            );
            for m in &rec.metrics {
                eprintln!(
                    "  {:<28} {:>14.4} {:<10} n={:<6} spread={:.4} {}",
                    m.name, m.value, m.unit, m.samples, m.spread, m.note
                );
            }
            for c in &rec.checks {
                eprintln!(
                    "  check {:<40} {} {}",
                    c.name,
                    if c.ok { "ok" } else { "FAILED" },
                    c.detail
                );
            }
            println!("{}", rec.result_line());
            if rec.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
