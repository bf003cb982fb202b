//! Tiny-scale smoke of every workload on a second seed, untraced and
//! traced, plus the metric lists against `BENCHMARK.json`.

use ceres_repo_bench::corpus::Workload;
use ceres_repo_bench::json::{self, Json};
use ceres_repo_bench::{run, Options, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Options {
    let mut o = Options::new(workload, 7);
    o.scale = match workload {
        Workload::LongtailCrawl => 0.0005,
        _ => 0.02,
    };
    o.seconds = 0.0;
    o.trace = trace;
    o
}

fn names(rec: &ceres_repo_bench::record::RunRecord) -> Vec<&str> {
    rec.metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn every_workload_runs_and_checks_its_output_at_tiny_scale() {
    for w in Workload::ALL {
        let plain = run(&tiny(w, false)).expect("untraced run");
        assert!(plain.correct(), "{}: {:?}", w.name(), plain.checks);
        assert!(plain.passes >= 2);
        assert_eq!(names(&plain), END_TO_END.map(|(n, _)| n));
        for m in &plain.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
        }

        let traced = run(&tiny(w, true)).expect("traced run");
        assert!(traced.correct(), "{}: {:?}", w.name(), traced.checks);
        assert!(traced.checks.iter().any(|c| c.name == "rebuild_matches_session" && c.ok));
        assert!(traced.checks.iter().any(|c| c.name == "digest_matches_untraced_run" && c.ok));
        assert_eq!(traced.digest, plain.digest, "{}: traced and untraced output differ", w.name());
        assert_eq!(names(&traced), PER_LAYER.map(|(n, _)| n));
        let value = |n: &str| traced.metric(n).map(|m| m.value).unwrap_or(f64::NAN);
        // The fine spans account for the session spans up to the stated
        // residual, and every layer ran.
        let total = value("session.total_ms");
        assert!(
            (value("trace.layers_ms") + value("trace.residual_ms") - total).abs() < 1e-6 * total
        );
        assert!(
            value("trace.residual_share") < 0.1,
            "{}: residual {}",
            w.name(),
            value("trace.residual_share")
        );
        for layer in [
            "dom.parse_ms",
            "kb.match_ms",
            "page.build_ms",
            "ml.train_ms",
            "extract.ms",
            "store.save_ms",
        ] {
            assert!(value(layer) > 0.0, "{}: {layer} not exercised", w.name());
        }
    }
}

#[test]
fn metric_lists_match_the_benchmark_definition() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let def =
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        def.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = def
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}
