//! Invariance suite for the one site-run engine, the streaming
//! train-once/extract-many API: `SiteSession` → `TrainedSite` output is
//! **byte-identical** at threads {1, 2, 8} and at any ingest-ahead cap,
//! whether driven page by page or through its one-call form `run_site`,
//! and out-of-order parse completions inside the ingest reorder buffer
//! never change it.

use ceres::core::page::PageView;
use ceres::eval::harness::{protocol_pages, EvalProtocol};
use ceres::prelude::*;
use ceres::synth::swde::{movie_vertical, SwdeConfig};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn fixture() -> (ceres::synth::swde::SwdeVertical, Site) {
    let (v, _) = movie_vertical(SwdeConfig { seed: 77, scale: 0.02 });
    let site = v.sites[0].clone();
    (v, site)
}

fn assert_identical(a: &SiteRun, b: &SiteRun, label: &str) {
    assert_eq!(a.stats, b.stats, "{label}: stats diverged");
    assert_eq!(a.extractions, b.extractions, "{label}: extractions diverged");
    assert_eq!(a.topic_records, b.topic_records, "{label}: topic records diverged");
    assert_eq!(a.annotation_records, b.annotation_records, "{label}: annotation records diverged");
}

/// Session path for the split-halves protocol: ingest the train half page
/// by page, train once, serve the eval half from the frozen artifact.
fn session_run_split(
    kb: &Kb,
    train: &[(String, String)],
    eval: &[(String, String)],
    cfg: &CeresConfig,
) -> SiteRun {
    let mut session =
        SiteSession::builder(kb).config(cfg.clone()).mode(AnnotationMode::Full).build();
    for (id, html) in train {
        session.push_page(id.clone(), html.clone());
    }
    let trained = session.finish_training();
    let extractions = trained.extract_batch(eval);
    trained.into_site_run(extractions, eval.len())
}

/// Session path for the whole-site protocol (extract from the training
/// pages themselves).
fn session_run_whole(kb: &Kb, pages: &[(String, String)], cfg: &CeresConfig) -> SiteRun {
    let mut session = SiteSession::builder(kb).config(cfg.clone()).build();
    session.ingest(pages.iter().cloned());
    let trained = session.finish_training();
    let n = trained.n_training_pages();
    let extractions = trained.extract_training_pages();
    trained.into_site_run(extractions, n)
}

#[test]
fn session_equals_run_site_on_split_halves_at_every_thread_count() {
    let (v, site) = fixture();
    let (train, eval) = protocol_pages(&site, EvalProtocol::SplitHalves);
    let eval = eval.expect("split protocol has an eval half");

    let cfg1 = CeresConfig::new(7).with_threads(1);
    let reference = run_site(&v.kb, &train, Some(&eval), &cfg1, AnnotationMode::Full);
    assert!(reference.stats.trained, "fixture must train: {:?}", reference.stats);
    assert!(!reference.extractions.is_empty());

    for &threads in &THREAD_COUNTS {
        let cfg = CeresConfig::new(7).with_threads(threads);
        let batch = run_site(&v.kb, &train, Some(&eval), &cfg, AnnotationMode::Full);
        assert_identical(&reference, &batch, &format!("run_site threads={threads}"));
        let session = session_run_split(&v.kb, &train, &eval, &cfg);
        assert_identical(&reference, &session, &format!("session threads={threads}"));
    }
}

#[test]
fn session_equals_run_site_on_whole_site_at_every_thread_count() {
    let (v, site) = fixture();
    let (pages, none) = protocol_pages(&site, EvalProtocol::WholeSite);
    assert!(none.is_none());

    let cfg1 = CeresConfig::new(7).with_threads(1);
    let reference = run_site(&v.kb, &pages, None, &cfg1, AnnotationMode::Full);
    for &threads in &THREAD_COUNTS {
        let cfg = CeresConfig::new(7).with_threads(threads);
        let batch = run_site(&v.kb, &pages, None, &cfg, AnnotationMode::Full);
        assert_identical(&reference, &batch, &format!("run_site threads={threads}"));
        let session = session_run_whole(&v.kb, &pages, &cfg);
        assert_identical(&reference, &session, &format!("session threads={threads}"));
    }
}

#[test]
fn extract_page_serves_unseen_pages_one_at_a_time() {
    // Serving page-at-a-time through TrainedSite::extract_page must equal
    // the batched serve — and the unseen (eval-half) pages must actually
    // land in trained template clusters.
    let (v, site) = fixture();
    let (train, eval) = protocol_pages(&site, EvalProtocol::SplitHalves);
    let eval = eval.expect("split protocol has an eval half");

    let cfg = CeresConfig::new(7).with_threads(2);
    let mut session = SiteSession::builder(&v.kb).config(cfg).build();
    session.ingest(train);
    let trained = session.finish_training();
    assert!(trained.stats().trained);

    let batched = trained.extract_batch(&eval);
    let mut one_at_a_time = Vec::new();
    let mut assigned = 0usize;
    for (id, html) in &eval {
        let view = PageView::build(id, html, &v.kb);
        if let Some(ci) = trained.assign(&view) {
            assigned += 1;
            assert!(
                ci < trained.stats().n_clusters,
                "assignment {ci} out of range ({} clusters)",
                trained.stats().n_clusters
            );
        }
        one_at_a_time.extend(trained.extract_view(&view));
        // extract_page and extract_view agree on the same input.
        assert_eq!(trained.extract_page(id, html), trained.extract_view(&view), "page {id}");
    }
    assert_eq!(batched, one_at_a_time, "batched vs one-at-a-time serve diverged");
    assert!(!batched.is_empty(), "eval half must produce extractions");
    assert!(
        assigned * 2 >= eval.len(),
        "most unseen pages should match a trained template: {assigned}/{}",
        eval.len()
    );
}

#[test]
fn trained_site_is_shared_across_serving_threads() {
    // The serve phase is &self: four OS threads extracting from the same
    // TrainedSite concurrently must each see the single-thread answers.
    let (v, site) = fixture();
    let (train, eval) = protocol_pages(&site, EvalProtocol::SplitHalves);
    let eval = eval.expect("split protocol has an eval half");

    let mut session =
        SiteSession::builder(&v.kb).config(CeresConfig::new(7).with_threads(2)).build();
    session.ingest(train);
    let trained = session.finish_training();
    let reference: Vec<Vec<Extraction>> =
        eval.iter().map(|(id, html)| trained.extract_page(id, html)).collect();

    std::thread::scope(|s| {
        for worker in 0..4 {
            let trained = &trained;
            let eval = &eval;
            let reference = &reference;
            s.spawn(move || {
                // Each worker walks the pages at a different stride so the
                // interleaving differs per thread.
                for k in 0..eval.len() {
                    let i = (k * (worker + 1) + worker) % eval.len();
                    let (id, html) = &eval[i];
                    assert_eq!(&trained.extract_page(id, html), &reference[i], "page {id}");
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reorder buffer never reorders: for any cap, thread count, and
    /// worker completion order (scrambled by item-dependent spin work),
    /// results surface in input order.
    #[test]
    fn stream_map_preserves_input_order(
        items in proptest::collection::vec(0u64..512, 0..48),
        cap in 1usize..9,
        threads in 1usize..9,
    ) {
        let work = |x: u64| -> u64 {
            let mut acc = x;
            for _ in 0..(x % 7) * 150 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            }
            std::hint::black_box(acc);
            x.wrapping_mul(31).wrapping_add(7)
        };
        let expect: Vec<u64> = items.iter().map(|&x| work(x)).collect();
        let rt = Runtime::new(threads);
        let mut sm = rt.stream(cap, work);
        let mut got = Vec::new();
        for &x in &items {
            if let Some(r) = sm.push(x) {
                got.push(r);
            }
        }
        got.extend(sm.finish());
        prop_assert_eq!(got, expect, "cap={} threads={}", cap, threads);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Out-of-order `push_page` parse completions (any thread count × any
    /// ingest-ahead cap) never change what the session trains or extracts:
    /// every configuration reproduces the sequential reference run.
    #[test]
    fn session_output_is_invariant_to_ingest_interleaving(
        cap in 1usize..7,
        threads in 2usize..9,
    ) {
        // Fixture and sequential reference are deterministic: build once,
        // reuse across every generated (cap, threads) case.
        type Shared = (ceres::synth::swde::SwdeVertical, Vec<(String, String)>, SiteRun);
        static SHARED: std::sync::OnceLock<Shared> = std::sync::OnceLock::new();
        let (v, pages, reference) = SHARED.get_or_init(|| {
            let (v, site) = fixture();
            let pages: Vec<(String, String)> =
                site.pages.iter().take(24).map(|p| (p.id.clone(), p.html.clone())).collect();
            let mut s = SiteSession::builder(&v.kb)
                .config(CeresConfig::new(7).with_threads(1))
                .build();
            s.ingest(pages.iter().cloned());
            let t = s.finish_training();
            let n = t.n_training_pages();
            let ex = t.extract_training_pages();
            let reference = t.into_site_run(ex, n);
            (v, pages, reference)
        });

        let mut cfg = CeresConfig::new(7).with_threads(threads);
        cfg.ingest_ahead = Some(cap);
        let mut s = SiteSession::builder(&v.kb).config(cfg).build();
        for (id, html) in pages {
            s.push_page(id.clone(), html.clone());
        }
        let t = s.finish_training();
        let n = t.n_training_pages();
        let ex = t.extract_training_pages();
        let run = t.into_site_run(ex, n);
        prop_assert_eq!(&reference.stats, &run.stats, "cap={} threads={}", cap, threads);
        prop_assert_eq!(&reference.extractions, &run.extractions, "cap={} threads={}", cap, threads);
        prop_assert_eq!(
            &reference.topic_records, &run.topic_records,
            "cap={} threads={}", cap, threads
        );
        prop_assert_eq!(
            &reference.annotation_records, &run.annotation_records,
            "cap={} threads={}", cap, threads
        );
    }
}
