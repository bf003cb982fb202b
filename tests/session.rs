//! Invariance suite for the one site-run engine, the streaming
//! train-once/extract-many API: `SiteSession` → `TrainedSite` output is
//! **byte-identical** at threads {1, 2, 8}, whether driven page by page
//! or through its one-call form `run_site`, and however many pages the
//! ingest blocks parse in parallel.

use ceres::core::page::PageView;
use ceres::core::ExtractOutcome;
use ceres::eval::harness::{protocol_pages, EvalProtocol};
use ceres::prelude::*;
use ceres::synth::swde::{movie_vertical, SwdeConfig, SwdeVertical};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn fixture() -> (SwdeVertical, Site) {
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
        if matches!(trained.try_extract_page(id, html), ExtractOutcome::Ok(_)) {
            assigned += 1;
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

/// The fixture vertical and the first 40 pages of its first site, built
/// once and shared by every generated case.
fn shared_fixture() -> &'static (SwdeVertical, Vec<(String, String)>) {
    static SHARED: std::sync::OnceLock<(SwdeVertical, Vec<(String, String)>)> =
        std::sync::OnceLock::new();
    SHARED.get_or_init(|| {
        let (v, site) = fixture();
        let pages: Vec<(String, String)> =
            site.pages.iter().take(40).map(|p| (p.id.clone(), p.html.clone())).collect();
        assert_eq!(pages.len(), 40, "fixture site must have 40 pages");
        (v, pages)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Block-parsed `push_page` ingest never changes what the session
    /// trains or extracts: for any page count and thread count, the run
    /// reproduces the sequential reference over the same pages. With up to
    /// 40 pages the run crosses one or more block flushes at 2–4 threads
    /// and none at 8.
    #[test]
    fn session_output_is_invariant_to_ingest_interleaving(
        n in 1usize..41,
        threads in 1usize..9,
    ) {
        let (v, pages) = shared_fixture();
        let pages = &pages[..n];
        let reference = session_run_whole(&v.kb, pages, &CeresConfig::new(7).with_threads(1));
        let run = session_run_whole(&v.kb, pages, &CeresConfig::new(7).with_threads(threads));
        assert_identical(&reference, &run, &format!("n={n} threads={threads}"));
    }
}
