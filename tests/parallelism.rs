//! Serial-vs-parallel equivalence suite: `SiteRun` output (extractions,
//! topic/annotation records, stats) must be **byte-identical** across
//! `threads ∈ {1, 2, 8}` — the determinism contract of `ceres-runtime`
//! carried through every pipeline stage's ordered merge.

use ceres::eval::harness::{protocol_pages, run_ceres_on_site, EvalProtocol, SystemKind};
use ceres::prelude::*;
use ceres::synth::swde::{movie_vertical, SwdeConfig};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn assert_identical(serial: &SiteRun, other: &SiteRun, label: &str) {
    assert_eq!(serial.stats, other.stats, "{label}: stats diverged");
    assert_eq!(serial.extractions, other.extractions, "{label}: extractions diverged");
    assert_eq!(serial.topic_records, other.topic_records, "{label}: topic records diverged");
    assert_eq!(
        serial.annotation_records, other.annotation_records,
        "{label}: annotation records diverged"
    );
}

#[test]
fn swde_movie_site_run_is_thread_count_invariant() {
    let (v, _) = movie_vertical(SwdeConfig { seed: 77, scale: 0.02 });
    let site = &v.sites[0];
    let run_at = |threads: usize| {
        let cfg = CeresConfig::new(7).with_threads(threads);
        run_ceres_on_site(&v.kb, site, EvalProtocol::SplitHalves, &cfg, SystemKind::CeresFull)
    };
    let serial = run_at(THREAD_COUNTS[0]);
    assert!(serial.stats.trained, "fixture must train: {:?}", serial.stats);
    assert!(!serial.extractions.is_empty());
    for &threads in &THREAD_COUNTS[1..] {
        assert_identical(&serial, &run_at(threads), &format!("threads={threads}"));
    }
}

#[test]
fn whole_site_protocol_is_thread_count_invariant() {
    // The CommonCrawl protocol (extract from the annotation pages) takes
    // the `ext_idx = ann_idx` path through the extract planner.
    let (v, _) = movie_vertical(SwdeConfig { seed: 77, scale: 0.02 });
    let site = &v.sites[1];
    let run_at = |threads: usize| {
        let cfg = CeresConfig::new(7).with_threads(threads);
        run_ceres_on_site(&v.kb, site, EvalProtocol::WholeSite, &cfg, SystemKind::CeresFull)
    };
    let serial = run_at(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        assert_identical(&serial, &run_at(threads), &format!("threads={threads}"));
    }
}

#[test]
fn annotation_budget_allocation_is_thread_count_invariant() {
    // `max_annotated_pages` is the one knob that used to chain clusters
    // sequentially; the planning pass must allocate the same per-cluster
    // budgets at any thread count.
    let (v, _) = movie_vertical(SwdeConfig { seed: 77, scale: 0.02 });
    let site = &v.sites[0];
    let run_at = |threads: usize| {
        let mut cfg = CeresConfig::new(7).with_threads(threads);
        cfg.max_annotated_pages = Some(4);
        run_ceres_on_site(&v.kb, site, EvalProtocol::SplitHalves, &cfg, SystemKind::CeresFull)
    };
    let serial = run_at(THREAD_COUNTS[0]);
    assert!(serial.stats.n_annotated_pages <= 4);
    for &threads in &THREAD_COUNTS[1..] {
        assert_identical(&serial, &run_at(threads), &format!("threads={threads}"));
    }
}

#[test]
fn baseline_system_is_thread_count_invariant() {
    // CERES-BASELINE shares the parse stage and the frozen feature space
    // with the main pipeline.
    let (v, _) = movie_vertical(SwdeConfig { seed: 77, scale: 0.02 });
    let site = &v.sites[2];
    let run_at = |threads: usize| {
        let cfg = CeresConfig::new(7).with_threads(threads);
        run_ceres_on_site(&v.kb, site, EvalProtocol::SplitHalves, &cfg, SystemKind::CeresBaseline)
    };
    let serial = run_at(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        assert_identical(&serial, &run_at(threads), &format!("threads={threads}"));
    }
}

#[test]
fn two_thread_run_site_counts_train_pool_jobs_in_a_default_build() {
    // The pool's scheduling counters are compiled into every build, so
    // the per-stage profile attributes pool jobs without any cargo
    // feature. The counter is process-global, so pool work from other
    // tests in this binary can only add to the count; a build without the
    // counters would report 0 here.
    let (v, _) = movie_vertical(SwdeConfig { seed: 77, scale: 0.02 });
    let (train, eval) = protocol_pages(&v.sites[0], EvalProtocol::SplitHalves);
    let cfg = CeresConfig::new(7).with_threads(2);
    let run = run_site(&v.kb, &train, eval.as_deref(), &cfg, AnnotationMode::Full);
    assert!(run.stats.trained, "fixture must train: {:?}", run.stats);
    assert!(
        run.profile.train.pool_jobs > 0,
        "train stage reported no pool jobs: {:?}",
        run.profile
    );
}
