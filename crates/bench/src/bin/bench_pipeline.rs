//! Thread-scaling smoke benchmark for the perf trajectory.
//!
//! Runs the CERES pipeline on one SWDE-like movie-vertical site at 1 thread
//! and at N threads, verifies the outputs are identical (the runtime's
//! determinism contract), and writes the wall times to a JSON file so CI
//! accumulates perf data over time. Three variants are timed: the batch
//! `run_site` protocol, the pre-parsed `run_site_views` hot path, and the
//! streaming `SiteSession` path (`run_site_streaming`) where pages are
//! pushed one at a time through the ingest reorder buffer — the overlap
//! win of the train-once/extract-many API.
//!
//! ```text
//! bench_pipeline [--scale S] [--seed N] [--out PATH] [--baseline PATH]
//!                                                  (default out: BENCH_pipeline.json)
//! ```
//!
//! `--baseline` points at a previous run's JSON (e.g. the committed
//! `BENCH_pipeline.json` from the last PR); its single-thread wall times
//! are embedded in the output as `baseline_*` fields together with the
//! before→after ratio, so the perf trajectory is recorded in the artifact
//! itself.
//!
//! The pool's scheduling counters (jobs executed, helper joins, steal
//! misses) are appended to the JSON and printed to stderr.
//!
//! The full-protocol run also records a per-stage wall-time profile
//! (`stages_run_site`: Parse → Cluster → Annotate → Plan → Train →
//! Extract, each with t1/tN ms and the tN/t1 speedup) plus `host_cores`,
//! so a flat speedup on a small machine is distinguishable from a real
//! scheduling regression.

use ceres_core::page::PageView;
use ceres_core::pipeline::{run_site_views, AnnotationMode, SiteRun};
use ceres_core::session::{SiteSession, TrainedSite};
use ceres_core::CeresConfig;
use ceres_eval::harness::{protocol_pages, run_ceres_on_site, EvalProtocol, SystemKind};
use ceres_runtime::Runtime;
use ceres_synth::swde::{movie_vertical, SwdeConfig};
use std::fmt::Write as _;
use std::time::Instant;

const ITERATIONS: usize = 3;

/// Best-of-N wall time in milliseconds.
fn time_ms<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..ITERATIONS {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("at least one iteration"))
}

fn assert_same_run(a: &SiteRun, b: &SiteRun) {
    assert_eq!(a.stats, b.stats, "serial and parallel stats diverged");
    assert_eq!(a.extractions, b.extractions, "serial and parallel extractions diverged");
}

/// Pull `"key": <number>` (possibly nested as `"t1": …` after `key`) out of
/// our own JSON format — two fixed shapes, no general parser needed.
fn json_number_after(json: &str, key: &str) -> Option<f64> {
    let at = json.find(key)? + key.len();
    let rest = &json[at..];
    let start = rest.find(|c: char| c.is_ascii_digit() || c == '-')?;
    let rest = &rest[start..];
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))?;
    rest[..end].parse().ok()
}

/// `(run_site t1, run_site_views t1, run_site_streaming t1)` from a
/// previous run's JSON text. Streaming is `None` for records written
/// before the streaming path existed (PR ≤ 3).
fn baseline_t1(json: &str) -> Option<(f64, f64, Option<f64>)> {
    let site = json_number_after(json, "\"run_site_ms\": {\"t1\":")?;
    let views = json_number_after(json, "\"run_site_views_ms\": {\"t1\":")?;
    let streaming = json_number_after(json, "\"run_site_streaming_ms\": {\"t1\":");
    Some((site, views, streaming))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.02f64;
    let mut seed = 42u64;
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut i = 0;
    // Malformed values fail loudly: a typo'd `--scale 0,05` silently
    // benchmarking the default would poison every baseline comparison
    // downstream.
    fn parse_or_die<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
        let raw = value.unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        });
        raw.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: cannot parse {raw:?}");
            std::process::exit(2);
        })
    }
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = parse_or_die("--scale", args.get(i));
            }
            "--seed" => {
                i += 1;
                seed = parse_or_die("--seed", args.get(i));
            }
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned().unwrap_or(out_path);
            }
            "--baseline" => {
                i += 1;
                baseline_path = args.get(i).cloned();
            }
            other => {
                eprintln!(
                    "unknown arg {other}; usage: \
                     bench_pipeline [--scale S] [--seed N] [--out PATH] [--baseline PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let parallel_threads = Runtime::from_env().threads().max(2);
    eprintln!("# bench_pipeline: scale={scale} seed={seed} threads=1 vs {parallel_threads}");

    let (v, _) = movie_vertical(SwdeConfig { seed, scale });
    let site = &v.sites[0];

    // Full protocol run (parse + cluster + annotate + train + extract).
    let cfg_at = |threads: usize| CeresConfig::new(seed).with_threads(threads);
    let (site_t1, run_a) = time_ms(|| {
        run_ceres_on_site(&v.kb, site, EvalProtocol::SplitHalves, &cfg_at(1), SystemKind::CeresFull)
    });
    let (site_tn, run_b) = time_ms(|| {
        run_ceres_on_site(
            &v.kb,
            site,
            EvalProtocol::SplitHalves,
            &cfg_at(parallel_threads),
            SystemKind::CeresFull,
        )
    });
    assert_same_run(&run_a, &run_b);

    // Pre-parsed run (the `run_site_views` hot path the benches track).
    let (train, _) = protocol_pages(site, EvalProtocol::WholeSite);
    let views: Vec<PageView> =
        train.iter().map(|(id, html)| PageView::build(id, html, &v.kb)).collect();
    // Match-path summary: how far unique-text folding collapses the
    // site's field texts before they reach the KB matcher, and the hit
    // rate of one ingest-sized MatchCache warmed across the whole site's
    // pages.
    let all_norms: Vec<&str> =
        views.iter().flat_map(|view| view.fields.iter().map(|f| f.norm.as_str())).collect();
    let match_total_texts = all_norms.len();
    let match_unique_texts = ceres_text::fold_unique(&all_norms).uniq.len();
    let match_fold_ratio = match_total_texts as f64 / (match_unique_texts as f64).max(1.0);
    eprintln!(
        "# match path: {match_total_texts} field texts -> {match_unique_texts} unique \
         (fold ratio {match_fold_ratio:.3})"
    );
    let match_cache_hit_rate = {
        let mut cache = ceres_kb::MatchCache::new(&v.kb, 1 << 12);
        for (id, html) in &train {
            let _ = PageView::build_with_cache(id, html, &v.kb, &mut cache);
        }
        let stats = cache.stats();
        eprintln!(
            "# match cache: {} hits / {} misses (hit rate {:.3})",
            stats.hits,
            stats.misses,
            stats.hit_rate()
        );
        stats.hit_rate()
    };

    let (views_t1, run_c) =
        time_ms(|| run_site_views(&v.kb, &views, None, &cfg_at(1), AnnotationMode::Full));
    let (views_tn, run_d) = time_ms(|| {
        run_site_views(&v.kb, &views, None, &cfg_at(parallel_threads), AnnotationMode::Full)
    });
    assert_same_run(&run_c, &run_d);

    // Streaming run: pages pushed one at a time through the SiteSession
    // ingest buffer (parse overlaps the push loop), then train + serve.
    // Must be byte-identical to the batch whole-site run above.
    let streaming_run = |threads: usize| {
        let mut session = SiteSession::builder(&v.kb).config(cfg_at(threads)).build();
        for (id, html) in &train {
            session.push_page(id.clone(), html.clone());
        }
        let trained = session.finish_training();
        let n = trained.n_training_pages();
        let extractions = trained.extract_training_pages();
        trained.into_site_run(extractions, n)
    };
    let (stream_t1, run_e) = time_ms(|| streaming_run(1));
    let (stream_tn, run_f) = time_ms(|| streaming_run(parallel_threads));
    assert_same_run(&run_e, &run_f);
    assert_same_run(&run_c, &run_e); // streaming ≡ batch, byte for byte

    // Artifact round trip: the train/serve process split's cost. Size plus
    // save/load wall times go into the JSON; a probe batch pins the loaded
    // site to the in-memory one (full equivalence lives in tests/artifact.rs).
    let trained = {
        let mut session = SiteSession::builder(&v.kb).config(cfg_at(1)).build();
        session.ingest(train.iter().cloned());
        session.finish_training()
    };
    let (artifact_save_ms, artifact) =
        time_ms(|| trained.to_bytes().expect("serialize trained site"));
    let artifact_bytes = artifact.len();
    let (artifact_load_ms, loaded) = time_ms(|| {
        TrainedSite::load_on(&v.kb, Runtime::new(1), &artifact[..]).expect("load trained site")
    });
    let probe: Vec<(String, String)> = train.iter().take(8).cloned().collect();
    assert_eq!(
        loaded.extract_batch(&probe),
        trained.extract_batch(&probe),
        "loaded artifact diverged from the in-memory session"
    );
    eprintln!(
        "# artifact: {artifact_bytes} bytes, save {artifact_save_ms:.2} ms, \
         load {artifact_load_ms:.2} ms"
    );

    // Containment tax: the outcome-typed serve path (guards + per-page
    // panic isolation) vs the fail-fast one, on identical clean pages at
    // one thread. The Ok outcomes must flatten to the fail-fast batch
    // byte-for-byte; the wall-time ratio is the price of isolation on a
    // clean run (target: ≤ 2%). The two paths are timed interleaved
    // (plain, guarded, plain, guarded, …) so a machine-wide slowdown
    // mid-measurement skews both the same way instead of masquerading as
    // containment overhead. More reps than the pipeline timings: the
    // quantity is a ratio of two ~40 ms figures, so best-of needs a few
    // extra shots at a quiet machine before the minimum stabilizes.
    let mut serve_plain_t1 = f64::INFINITY;
    let mut serve_guarded_t1 = f64::INFINITY;
    let mut plain = Vec::new();
    let mut outcomes = Vec::new();
    for _ in 0..ITERATIONS + 4 {
        let t0 = Instant::now();
        plain = trained.extract_batch(&train);
        serve_plain_t1 = serve_plain_t1.min(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        outcomes = trained.try_extract_batch(&train);
        serve_guarded_t1 = serve_guarded_t1.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let flattened: Vec<ceres_core::Extraction> =
        outcomes.iter().filter_map(|o| o.extractions()).flatten().cloned().collect();
    assert_eq!(flattened, plain, "guarded serve diverged from the fail-fast serve");
    let containment_overhead = serve_guarded_t1 / serve_plain_t1.max(f64::EPSILON) - 1.0;
    // The hostile corpus through the same guarded path: every guard
    // violation must land in quarantine, not abort the process.
    let hostile_pages: Vec<(String, String)> =
        ceres_synth::hostile::hostile_corpus(seed).into_iter().map(|p| (p.id, p.html)).collect();
    let quarantined_pages = trained
        .try_extract_batch(&hostile_pages)
        .iter()
        .filter(|o| matches!(o, ceres_core::ExtractOutcome::Failed(_)))
        .count();
    assert!(quarantined_pages >= 3, "hostile corpus must trip the serve guards");
    eprintln!(
        "# guarded serve: {serve_plain_t1:.2} ms plain vs {serve_guarded_t1:.2} ms guarded \
         ({:+.2}% overhead), {quarantined_pages} hostile pages quarantined",
        containment_overhead * 100.0
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"pipeline\",\n  \"scale\": {scale},\n  \"seed\": {seed},\n  \
         \"site\": \"{}\",\n  \"pages\": {},\n  \"threads_parallel\": {parallel_threads},\n  \
         \"run_site_ms\": {{\"t1\": {site_t1:.2}, \"tN\": {site_tn:.2}}},\n  \
         \"run_site_views_ms\": {{\"t1\": {views_t1:.2}, \"tN\": {views_tn:.2}}},\n  \
         \"run_site_streaming_ms\": {{\"t1\": {stream_t1:.2}, \"tN\": {stream_tn:.2}}},\n  \
         \"speedup_run_site\": {:.3},\n  \"speedup_run_site_views\": {:.3},\n  \
         \"speedup_run_site_streaming\": {:.3},\n  \
         \"artifact_bytes\": {artifact_bytes},\n  \
         \"artifact_save_ms\": {artifact_save_ms:.2},\n  \
         \"artifact_load_ms\": {artifact_load_ms:.2},\n  \
         \"serve_batch_ms\": {serve_plain_t1:.2},\n  \
         \"serve_guarded_ms\": {serve_guarded_t1:.2},\n  \
         \"containment_overhead\": {containment_overhead:.4},\n  \
         \"quarantined_pages\": {quarantined_pages}",
        site.name,
        site.pages.len(),
        site_t1 / site_tn,
        views_t1 / views_tn,
        stream_t1 / stream_tn,
    );
    // Per-stage wall-time profile of the full-protocol run at both thread
    // counts (the last iteration's profile — representative, not best-of).
    // `host_cores` is recorded so a reader can tell whether a flat tN/t1
    // is a scheduling problem or just a small machine.
    let _ = write!(
        json,
        ",\n  \"host_cores\": {}",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    );
    json.push_str(",\n  \"stages_run_site\": {");
    eprintln!("# per-stage (run_site): stage t1_ms tN_ms tN/t1");
    for (i, ((name, s1), (_, sn))) in
        run_a.profile.stages().iter().zip(run_b.profile.stages().iter()).enumerate()
    {
        let speedup = if sn.ms > 0.0 { s1.ms / sn.ms } else { 0.0 };
        let _ = write!(
            json,
            "{}\n    \"{name}\": {{\"t1_ms\": {:.2}, \"tN_ms\": {:.2}, \"speedup\": {speedup:.3}, \
             \"tN_pool_jobs\": {}}}",
            if i == 0 { "" } else { "," },
            s1.ms,
            sn.ms,
            sn.pool_jobs,
        );
        eprintln!("#   {name:<9} {:>9.2} {:>9.2} {speedup:>6.3}", s1.ms, sn.ms);
    }
    json.push_str("\n  }");
    // Train-path summary of the single-thread full-protocol run: stage
    // wall time plus the duplicate-folding totals (examples in, unique
    // rows walked, examples-per-unique-row ratio). CI's job summary and
    // the report-only serial-train ratio read these.
    let _ = write!(
        json,
        ",\n  \"train_ms\": {:.2},\n  \"train_examples\": {},\n  \
         \"train_unique_rows\": {},\n  \"train_fold_ratio\": {:.3}",
        run_a.profile.train.ms,
        run_a.fold.n_examples,
        run_a.fold.n_unique_rows,
        run_a.fold.fold_ratio(),
    );
    eprintln!(
        "# train: {:.2} ms t1, {} examples -> {} unique rows (fold ratio {:.3})",
        run_a.profile.train.ms,
        run_a.fold.n_examples,
        run_a.fold.n_unique_rows,
        run_a.fold.fold_ratio(),
    );
    // KB match-path summary (the views-path folding + cache from PR 10).
    let _ = write!(
        json,
        ",\n  \"match_total_texts\": {match_total_texts},\n  \
         \"match_unique_texts\": {match_unique_texts},\n  \
         \"match_fold_ratio\": {match_fold_ratio:.3}"
    );
    let _ = write!(json, ",\n  \"match_cache_hit_rate\": {match_cache_hit_rate:.3}");
    // Before→after trajectory against a previous run (the committed
    // record): < 1.0 means this build's single-thread path is faster.
    if let Some(path) = baseline_path.as_deref() {
        // One read serves both the t1 triple and the artifact fields.
        let baseline_json = std::fs::read_to_string(path).unwrap_or_default();
        match baseline_t1(&baseline_json) {
            Some((base_site, base_views, base_streaming)) => {
                let _ = write!(
                    json,
                    ",\n  \"baseline_run_site_t1_ms\": {base_site:.2},\n  \
                     \"baseline_run_site_views_t1_ms\": {base_views:.2},\n  \
                     \"t1_vs_baseline_run_site\": {:.3},\n  \
                     \"t1_vs_baseline_run_site_views\": {:.3}",
                    site_t1 / base_site,
                    views_t1 / base_views,
                );
                if let Some(base_streaming) = base_streaming {
                    let _ = write!(
                        json,
                        ",\n  \"baseline_run_site_streaming_t1_ms\": {base_streaming:.2},\n  \
                         \"t1_vs_baseline_run_site_streaming\": {:.3}",
                        stream_t1 / base_streaming,
                    );
                }
                // Artifact trajectory (absent from records older than the
                // codec layer — PR ≤ 4).
                if let Some(base_bytes) = json_number_after(&baseline_json, "\"artifact_bytes\":") {
                    let _ = write!(
                        json,
                        ",\n  \"baseline_artifact_bytes\": {base_bytes:.0},\n  \
                         \"artifact_bytes_vs_baseline\": {:.3}",
                        artifact_bytes as f64 / base_bytes,
                    );
                }
            }
            // Loud, not fatal: the record must never silently stop
            // accumulating, but a missing baseline (first run on a fresh
            // clone) shouldn't fail the bench either.
            None => eprintln!(
                "# WARNING: --baseline {path} missing or unparsable; \
                 baseline_* fields omitted from {out_path}"
            ),
        }
    }
    // Pool scheduling counters: how many jobs the pool ran for this whole
    // process, how often idle workers joined them, and how often a woken
    // worker lost the claim race.
    let stats = ceres_runtime::pool_stats();
    let _ = write!(
        json,
        ",\n  \"pool_jobs_executed\": {},\n  \"pool_helper_joins\": {},\n  \
         \"pool_steal_misses\": {}",
        stats.jobs_executed, stats.helper_joins, stats.steal_misses,
    );
    eprintln!(
        "# pool stats: jobs_executed={} helper_joins={} steal_misses={}",
        stats.jobs_executed, stats.helper_joins, stats.steal_misses
    );
    json.push_str("\n}\n");
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("{json}");
    eprintln!("# wrote {out_path}");
}
