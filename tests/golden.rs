//! Golden output digests: a streaming FNV-1a (`ceres_store::Fnv64`) over
//! the canonical form of fixed runs' extractions and stats, compared against the
//! hex values committed in `tests/golden_digests.txt`.
//!
//! * `movie_vertical_run_site` — [`run_site`] on every site of the movie
//!   vertical at scale 0.02, training on the first half of each site and
//!   extracting from the second; `movie_vertical_run_site_stats` digests
//!   the same runs' encoded `SiteRunStats`;
//! * `hostile_serve` — a session trained on one movie site serves its
//!   held-out half followed by the whole hostile corpus through
//!   `try_extract_batch`, outcome by outcome;
//! * `commoncrawl_run_site` — [`run_site`] under the whole-site protocol
//!   on a handful of long-tail Common Crawl sites whose models train at
//!   class counts other than the movie vertical's 10 (plus one site too
//!   sparse to train), digesting each site's extractions and its encoded
//!   `SiteRunStats`.
//!
//! A change that is meant to keep output byte-identical leaves every value
//! alone. A change that means to alter output updates the file in the same
//! commit and says why.

use ceres::core::{ExtractOutcome, SiteRunStats, SiteSession};
use ceres::prelude::*;
use ceres::store::{Encode, Fnv64, Writer};
use ceres::synth::commoncrawl;
use ceres::synth::hostile::hostile_corpus;
use ceres::synth::swde::{movie_vertical, SwdeConfig};

const GOLDEN: &str = include_str!("golden_digests.txt");

fn expected(name: &str) -> u64 {
    let line = GOLDEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find(|l| l.split_whitespace().next() == Some(name))
        .unwrap_or_else(|| panic!("no golden digest named {name}"));
    let hex = line.split_whitespace().nth(1).expect("digest value");
    u64::from_str_radix(hex, 16).expect("hex digest")
}

fn section(h: &mut Fnv64, tag: &str, index: usize) {
    h.write_str(tag);
    h.write_u64(index as u64);
}

fn extractions(h: &mut Fnv64, es: &[Extraction]) {
    h.write_u64(es.len() as u64);
    for e in es {
        h.write_str(&e.page_id);
        h.write_u64(e.gt_id.map_or(u64::MAX, u64::from));
        h.write_str(&e.subject);
        match &e.label {
            ExtractLabel::Name => h.write_u64(u64::MAX),
            ExtractLabel::Pred(p) => h.write_u64(u64::from(p.0)),
        }
        h.write_str(&e.object);
        h.write_u64(e.confidence.to_bits());
    }
}

fn outcome(h: &mut Fnv64, o: &ExtractOutcome) {
    match o {
        ExtractOutcome::Ok(es) => {
            h.write_str("ok");
            extractions(h, es);
        }
        ExtractOutcome::Unassigned { best_sim } => {
            h.write_str("unassigned");
            h.write_u64(best_sim.to_bits());
        }
        ExtractOutcome::Failed(why) => {
            h.write_str("failed");
            h.write_str(why.kind());
        }
    }
}

fn site_stats(h: &mut Fnv64, stats: &SiteRunStats) {
    let mut w = Writer::new();
    stats.encode(&mut w);
    h.write(&w.into_bytes());
}

fn pages_of(site: &ceres::synth::dataset::Site) -> Vec<(String, String)> {
    site.pages.iter().map(|p| (p.id.clone(), p.html.clone())).collect()
}

fn check(name: &str, got: u64) {
    assert_eq!(
        format!("{got:016x}"),
        format!("{:016x}", expected(name)),
        "{name}: output bytes changed; if intended, update tests/golden_digests.txt and say why"
    );
}

#[test]
fn movie_vertical_run_site_digest_is_golden() {
    let (v, _) = movie_vertical(SwdeConfig { seed: 5, scale: 0.02 });
    let cfg = CeresConfig::new(5);
    let mut h = Fnv64::new();
    let mut h_stats = Fnv64::new();
    let mut n_facts = 0;
    for (i, site) in v.sites.iter().enumerate() {
        let pages = pages_of(site);
        let (train, eval) = pages.split_at(pages.len() / 2);
        let run = run_site(&v.kb, train, Some(eval), &cfg, AnnotationMode::Full);
        section(&mut h, "site", i);
        extractions(&mut h, &run.extractions);
        section(&mut h_stats, "site", i);
        site_stats(&mut h_stats, &run.stats);
        n_facts += run.extractions.len();
    }
    assert!(n_facts > 100, "a digest of near-empty output pins nothing: {n_facts} facts");
    check("movie_vertical_run_site", h.finish());
    check("movie_vertical_run_site_stats", h_stats.finish());
}

#[test]
fn hostile_serve_digest_is_golden() {
    let (v, _) = movie_vertical(SwdeConfig { seed: 5, scale: 0.02 });
    let pages = pages_of(&v.sites[0]);
    let (train, eval) = pages.split_at(pages.len() / 2);
    let mut session = SiteSession::builder(&v.kb).config(CeresConfig::new(5)).build();
    session.ingest(train.iter().cloned());
    let trained = session.finish_training();
    let mut served: Vec<(String, String)> = eval.to_vec();
    served.extend(hostile_corpus(5).into_iter().map(|p| (p.id, p.html)));
    let outcomes = trained.try_extract_batch(&served);
    let n_facts: usize = outcomes.iter().filter_map(|o| o.extractions()).map(<[_]>::len).sum();
    assert!(n_facts > 10, "a digest of near-empty output pins nothing: {n_facts} facts");
    assert!(outcomes.iter().any(|o| matches!(o, ExtractOutcome::Failed(_))));
    let mut h = Fnv64::new();
    for (i, o) in outcomes.iter().enumerate() {
        section(&mut h, "page", i);
        outcome(&mut h, o);
    }
    check("hostile_serve", h.finish());
}

/// The Common Crawl sites the digest runs on, by name: one at the movie
/// vertical's 10 classes, several wider or narrower, and one whose pages
/// are all charts, so nothing trains.
const CC_SITES: [&str; 6] = [
    "moviecrow.com",
    "samdb.co.za",
    "soundtrackcollector.com",
    "filmindonesia.or.id",
    "bcdb.com",
    "boxofficemojo.com",
];

#[test]
fn commoncrawl_run_site_digest_is_golden() {
    let data = commoncrawl::generate(5, 0.002);
    let cfg = CeresConfig::new(5);
    let mut h = Fnv64::new();
    let mut n_facts = 0;
    let mut widths = std::collections::BTreeSet::new();
    let mut untrained = 0;
    for (i, name) in CC_SITES.iter().enumerate() {
        let site = data.sites.iter().find(|s| s.name == *name).expect("Common Crawl site");
        let run = run_site(&data.kb, &pages_of(site), None, &cfg, AnnotationMode::Full);
        section(&mut h, "site", i);
        extractions(&mut h, &run.extractions);
        site_stats(&mut h, &run.stats);
        n_facts += run.extractions.len();
        if run.stats.trained {
            widths.insert(run.stats.n_classes);
        } else {
            untrained += 1;
        }
    }
    assert!(n_facts > 100, "a digest of near-empty output pins nothing: {n_facts} facts");
    assert!(
        widths.iter().filter(|&&k| k != 10).count() >= 2,
        "the fixture must train at two or more class counts besides 10: {widths:?}"
    );
    assert_eq!(untrained, 1, "exactly one site is meant to stay untrained");
    check("commoncrawl_run_site", h.finish());
}
