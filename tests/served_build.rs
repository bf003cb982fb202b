//! Served-build equivalence. The pages a `TrainedSite` builds for itself
//! skip KB matching (`PageView::build_unmatched` /
//! `PageView::try_build_unmatched`), because extraction reads only the
//! DOM. Every serve entry point — `extract_page`, `extract_batch`,
//! `try_extract_page`, `try_extract_batch` — must return exactly what the
//! same pages give when built through the matched `PageView::try_build` /
//! `PageView::build` and handed to `try_extract_view` / `extract_view`:
//! extractions, `Unassigned { best_sim }` and `Failed` kinds alike, with
//! confidences and similarities compared by bit pattern. Fixtures: the
//! movie vertical with the hostile corpus and a template-drift tail, IMDb
//! pages, and random nested HTML spliced into a served page.

use ceres::core::page::PageView;
use ceres::core::{ExtractOutcome, SiteSession, TrainedSite};
use ceres::kb::Kb;
use ceres::prelude::*;
use ceres::synth::hostile::{self, hostile_corpus};
use ceres::synth::imdb;
use ceres::synth::swde::{movie_vertical, SwdeConfig, SwdeVertical};
use proptest::prelude::*;
use std::sync::OnceLock;

fn extraction_key(e: &Extraction) -> String {
    format!(
        "{}|{:?}|{}|{:?}|{}|{:016x}",
        e.page_id,
        e.gt_id,
        e.subject,
        e.label,
        e.object,
        e.confidence.to_bits()
    )
}

/// An outcome in a canonical form that compares floats by bit pattern.
fn outcome_key(o: &ExtractOutcome) -> String {
    match o {
        ExtractOutcome::Ok(es) => {
            format!("ok[{}]", es.iter().map(extraction_key).collect::<Vec<_>>().join(";"))
        }
        ExtractOutcome::Unassigned { best_sim } => {
            format!("unassigned {:016x}", best_sim.to_bits())
        }
        ExtractOutcome::Failed(e) => format!("failed {} {e:?}", e.kind()),
    }
}

/// How many reference outcomes were served with facts, served empty,
/// unassigned, and failed.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    facts: usize,
    empty: usize,
    unassigned: usize,
    failed: usize,
}

impl Coverage {
    fn add(&mut self, o: &ExtractOutcome) {
        match o {
            ExtractOutcome::Ok(es) if es.is_empty() => self.empty += 1,
            ExtractOutcome::Ok(_) => self.facts += 1,
            ExtractOutcome::Unassigned { .. } => self.unassigned += 1,
            ExtractOutcome::Failed(_) => self.failed += 1,
        }
    }

    fn merge(&mut self, o: Coverage) {
        self.facts += o.facts;
        self.empty += o.empty;
        self.unassigned += o.unassigned;
        self.failed += o.failed;
    }
}

/// Assert every serve entry point of `site` equals the matched-build
/// reference on `pages`.
fn assert_served_equals_matched(
    site: &TrainedSite,
    kb: &Kb,
    pages: &[(String, String)],
) -> Coverage {
    let mut coverage = Coverage::default();
    let reference: Vec<String> = pages
        .iter()
        .map(|(id, html)| {
            let outcome = match PageView::try_build(id, html, kb, site.guards()) {
                Ok(view) => site.try_extract_view(&view),
                Err(why) => ExtractOutcome::Failed(why),
            };
            coverage.add(&outcome);
            outcome_key(&outcome)
        })
        .collect();
    let batch: Vec<String> = site.try_extract_batch(pages).iter().map(outcome_key).collect();
    assert_eq!(batch, reference, "try_extract_batch");
    for ((id, html), want) in pages.iter().zip(&reference) {
        assert_eq!(&outcome_key(&site.try_extract_page(id, html)), want, "try_extract_page {id}");
    }

    // The fail-fast entry points build without guards.
    let flat_reference: Vec<String> = pages
        .iter()
        .flat_map(|(id, html)| site.extract_view(&PageView::build(id, html, kb)))
        .map(|e| extraction_key(&e))
        .collect();
    let singles: Vec<String> = pages
        .iter()
        .flat_map(|(id, html)| site.extract_page(id, html))
        .map(|e| extraction_key(&e))
        .collect();
    assert_eq!(singles, flat_reference, "extract_page");
    let batch: Vec<String> = site.extract_batch(pages).iter().map(extraction_key).collect();
    assert_eq!(batch, flat_reference, "extract_batch");
    coverage
}

fn train<'kb>(kb: &'kb Kb, pages: &[(String, String)]) -> TrainedSite<'kb> {
    let mut cfg = CeresConfig::new(13);
    cfg.threads = Some(2);
    let mut session = SiteSession::builder(kb).config(cfg).build();
    session.ingest(pages.iter().cloned());
    session.finish_training()
}

fn pairs(site: &ceres::synth::dataset::Site) -> Vec<(String, String)> {
    site.pages.iter().map(|p| (p.id.clone(), p.html.clone())).collect()
}

fn vertical() -> &'static SwdeVertical {
    static V: OnceLock<SwdeVertical> = OnceLock::new();
    V.get_or_init(|| movie_vertical(SwdeConfig { seed: 13, scale: 0.02 }).0)
}

#[test]
fn served_builds_equal_matched_builds_on_the_movie_vertical_and_hostile_pages() {
    let v = vertical();
    let mut coverage = Coverage::default();
    for site in v.sites.iter().take(3) {
        let pages = pairs(site);
        let (train_pages, eval) = pages.split_at(pages.len() / 2);
        let trained = train(&v.kb, train_pages);
        let mut served = eval.to_vec();
        served.extend(hostile_corpus(5).into_iter().map(|p| (p.id, p.html)));
        served.extend((0..4).map(hostile::drifted_page));
        coverage.merge(assert_served_equals_matched(&trained, &v.kb, &served));
    }
    let Coverage { facts, unassigned, failed, .. } = coverage;
    assert!(facts > 20 && unassigned > 0 && failed >= 9, "fixture too narrow: {coverage:?}");
}

#[test]
fn served_builds_equal_matched_builds_on_imdb_pages() {
    let d = imdb::generate(5, 0.01);
    let mut coverage = Coverage::default();
    for site in [&d.movie_site, &d.person_site] {
        let pages = pairs(site);
        let (train_pages, eval) = pages.split_at(pages.len() / 2);
        let trained = train(&d.kb, train_pages);
        coverage.merge(assert_served_equals_matched(&trained, &d.kb, eval));
    }
    assert!(coverage.facts > 20, "fixture too narrow: {coverage:?}");
}

/// One movie site trained on its first half; the second half is served.
fn trained_movie_site() -> &'static (TrainedSite<'static>, Vec<(String, String)>) {
    static SITE: OnceLock<(TrainedSite<'static>, Vec<(String, String)>)> = OnceLock::new();
    SITE.get_or_init(|| {
        let v = vertical();
        let pages = pairs(&v.sites[0]);
        let (train_pages, eval) = pages.split_at(pages.len() / 2);
        (train(&v.kb, train_pages), eval.to_vec())
    })
}

const TAGS: [&str; 6] = ["div", "span", "ul", "li", "p", "b"];
const TEXTS: [&str; 4] = ["Director:", "Genre:", "Cast", "x y"];

/// Random nested HTML: each op opens a tag, writes a text, or closes the
/// innermost open tag.
fn nested_html(ops: &[u32]) -> String {
    let mut html = String::new();
    let mut open: Vec<&str> = Vec::new();
    for &op in ops {
        match op {
            0..=5 => {
                let tag = TAGS[op as usize];
                html.push_str(&format!("<{tag}>"));
                open.push(tag);
            }
            6..=9 => html.push_str(TEXTS[op as usize - 6]),
            _ => {
                if let Some(tag) = open.pop() {
                    html.push_str(&format!("</{tag}>"));
                }
            }
        }
    }
    html
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random nested HTML, alone and spliced into a served page at a
    /// random byte offset that falls between tags.
    #[test]
    fn prop_served_builds_equal_matched_builds_on_random_nested_html(
        ops in proptest::collection::vec(0u32..13, 0..60),
        page in 0usize..1000,
        at in 0usize..100_000,
    ) {
        let (trained, eval) = trained_movie_site();
        let (id, html) = &eval[page % eval.len()];
        let cuts: Vec<usize> = html.match_indices('<').map(|(i, _)| i).collect();
        let cut = cuts[at % cuts.len()];
        let nested = nested_html(&ops);
        let spliced = format!("{}{nested}{}", &html[..cut], &html[cut..]);
        let pages = vec![(format!("{id}-spliced"), spliced), ("nested".to_string(), nested)];
        assert_served_equals_matched(trained, &vertical().kb, &pages);
    }
}
