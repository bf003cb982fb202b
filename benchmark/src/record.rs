//! The run record: a typed summary of one benchmark invocation that
//! writes itself to JSON and reads itself back.

use crate::json::{self, Json};
use crate::stats;

/// Summary of one metric over the samples a run took.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    pub name: String,
    pub unit: String,
    /// The reported value: the median unless `note` says otherwise.
    pub value: f64,
    pub samples: usize,
    pub median: f64,
    /// Inter-quartile range over the median (0 below two samples).
    pub spread: f64,
    /// How the value was derived, when it is not the plain median.
    pub note: String,
}

impl MetricRecord {
    /// The median of `xs` as the value.
    pub fn from_samples(name: &str, unit: &str, xs: &[f64]) -> MetricRecord {
        let median = stats::median(xs);
        MetricRecord {
            name: name.to_string(),
            unit: unit.to_string(),
            value: median,
            samples: xs.len(),
            median,
            spread: stats::spread(xs),
            note: String::new(),
        }
    }

    /// The mean of the per-pass values `xs` as the value (their median and
    /// spread are kept beside it).
    pub fn mean_over_passes(name: &str, unit: &str, xs: &[f64]) -> MetricRecord {
        MetricRecord {
            value: stats::mean(xs),
            note: "mean over passes".into(),
            ..MetricRecord::from_samples(name, unit, xs)
        }
    }

    /// A single deterministic value (a count or a share).
    pub fn exact(name: &str, unit: &str, value: f64) -> MetricRecord {
        MetricRecord::from_samples(name, unit, &[value])
    }
}

/// One named output check and whether it held.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one invocation reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub scale: f64,
    /// `ceres-synth` seed of the corpus.
    pub corpus_seed: u64,
    pub host_cores: usize,
    pub threads: usize,
    pub commit: String,
    pub toolchain: String,
    pub run_seconds: f64,
    /// Measured passes over the workload.
    pub passes: usize,
    /// Digest of the run's extraction output (hex).
    pub digest: String,
    /// Page operations attempted / operations whose outcome was wrong.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<MetricRecord>,
}

impl RunRecord {
    /// All checks held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn metric(&self, name: &str) -> Option<&MetricRecord> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Json {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::Str(c.name.clone())),
                    ("ok", Json::Bool(c.ok)),
                    ("detail", Json::Str(c.detail.clone())),
                ])
            })
            .collect();
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::Str(m.name.clone())),
                    ("unit", Json::Str(m.unit.clone())),
                    ("value", Json::Num(m.value)),
                    ("samples", Json::Num(m.samples as f64)),
                    ("median", Json::Num(m.median)),
                    ("spread", Json::Num(m.spread)),
                    ("note", Json::Str(m.note.clone())),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Num(1.0)),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Str(self.seed.to_string())),
            ("trace", Json::Bool(self.trace)),
            ("scale", Json::Num(self.scale)),
            ("corpus_seed", Json::Str(self.corpus_seed.to_string())),
            ("host_cores", Json::Num(self.host_cores as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("commit", Json::Str(self.commit.clone())),
            ("toolchain", Json::Str(self.toolchain.clone())),
            ("run_seconds", Json::Num(self.run_seconds)),
            ("passes", Json::Num(self.passes as f64)),
            ("digest", Json::Str(self.digest.clone())),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("checks", Json::Arr(checks)),
            ("metrics", Json::Arr(metrics)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<RunRecord, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record lacks '{k}'"));
        let num = |k: &str| field(k)?.as_f64().ok_or_else(|| format!("'{k}' is not a number"));
        let text = |k: &str| {
            field(k)?.as_str().map(str::to_string).ok_or_else(|| format!("'{k}' is not a string"))
        };
        if num("schema")? != 1.0 {
            return Err("unknown record schema".to_string());
        }
        let mut checks = Vec::new();
        for c in field("checks")?.as_arr().ok_or("'checks' is not an array")? {
            checks.push(Check {
                name: c.get("name").and_then(Json::as_str).ok_or("check name")?.to_string(),
                ok: c.get("ok").and_then(Json::as_bool).ok_or("check ok")?,
                detail: c.get("detail").and_then(Json::as_str).ok_or("check detail")?.to_string(),
            });
        }
        let mut metrics = Vec::new();
        for m in field("metrics")?.as_arr().ok_or("'metrics' is not an array")? {
            let s = |k: &str| {
                m.get(k).and_then(Json::as_str).map(str::to_string).ok_or(format!("metric {k}"))
            };
            // Non-finite values render as null; read them back as NaN.
            let n = |k: &str| match m.get(k) {
                Some(Json::Null) => Ok(f64::NAN),
                Some(x) => x.as_f64().ok_or(format!("metric {k}")),
                None => Err(format!("metric {k}")),
            };
            metrics.push(MetricRecord {
                name: s("name")?,
                unit: s("unit")?,
                value: n("value")?,
                samples: n("samples")? as usize,
                median: n("median")?,
                spread: n("spread")?,
                note: s("note")?,
            });
        }
        Ok(RunRecord {
            workload: text("workload")?,
            seed: text("seed")?.parse().map_err(|_| "seed is not an integer")?,
            trace: field("trace")?.as_bool().ok_or("'trace' is not a bool")?,
            scale: num("scale")?,
            corpus_seed: text("corpus_seed")?
                .parse()
                .map_err(|_| "corpus_seed is not an integer")?,
            host_cores: num("host_cores")? as usize,
            threads: num("threads")? as usize,
            commit: text("commit")?,
            toolchain: text("toolchain")?,
            run_seconds: num("run_seconds")?,
            passes: num("passes")? as usize,
            digest: text("digest")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            checks,
            metrics,
        })
    }

    pub fn render(&self) -> String {
        self.to_json().render()
    }

    pub fn parse(text: &str) -> Result<RunRecord, String> {
        RunRecord::from_json(&json::parse(text)?)
    }

    /// The one-line result: `correct`, `attempted`, `failed`, and each
    /// metric's value and unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.clone()))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            workload: "site_train".into(),
            seed: u64::MAX,
            trace: false,
            scale: 0.2,
            corpus_seed: 42,
            host_cores: 2,
            threads: 2,
            commit: "abc123".into(),
            toolchain: "rustc 1.95.0".into(),
            run_seconds: 15.0,
            passes: 3,
            digest: "00ff".into(),
            attempted: 12_345,
            failed: 0,
            checks: vec![Check { name: "digest".into(), ok: true, detail: "3 passes".into() }],
            metrics: vec![
                MetricRecord::from_samples("wall_s", "s", &[1.25, 1.5, 1.375]),
                MetricRecord::exact("facts", "count", 35393.0),
            ],
        }
    }

    #[test]
    fn record_round_trips_through_its_own_json() {
        let r = sample();
        assert_eq!(RunRecord::parse(&r.render()).unwrap(), r);
    }

    #[test]
    fn a_metric_that_is_not_a_number_renders_the_same_after_a_round_trip() {
        let mut r = sample();
        r.metrics.push(MetricRecord::exact("peak_rss_mb", "MB", f64::NAN));
        let text = r.render();
        let back = RunRecord::parse(&text).unwrap();
        assert!(back.metric("peak_rss_mb").is_some_and(|m| m.value.is_nan()));
        assert_eq!(back.render(), text);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = json::parse(&sample().result_line()).unwrap();
        let Json::Obj(kv) = &line else { panic!("not an object") };
        let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = line.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.375));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn a_failed_check_makes_the_record_incorrect() {
        let mut r = sample();
        assert!(r.correct());
        r.checks.push(Check { name: "x".into(), ok: false, detail: String::new() });
        assert!(!r.correct());
    }
}
