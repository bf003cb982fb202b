//! The three workloads and their seeded inputs.

use ceres_kb::Kb;
use ceres_synth::hostile::{hostile_corpus, Expect};
use ceres_synth::swde::{movie_vertical, SwdeConfig};
use ceres_synth::{commoncrawl, Site};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SWDE movie vertical, split halves: train each site, then harvest
    /// its evaluation half.
    SiteTrain,
    /// Train-once/extract-many: sites trained and round-tripped through
    /// the artifact codec in set-up; the timed part only serves pages.
    ServeHarvest,
    /// The CommonCrawl-like long tail, whole-site protocol.
    LongtailCrawl,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::SiteTrain, Workload::ServeHarvest, Workload::LongtailCrawl];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SiteTrain => "site_train",
            Workload::ServeHarvest => "serve_harvest",
            Workload::LongtailCrawl => "longtail_crawl",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Corpus scale (1.0 = the paper's page counts). serve_harvest serves
    /// all ten sites at a quarter of site_train's size: averaging over ten
    /// sites keeps its quality figures steady across run seeds while its
    /// set-up (which trains every site) stays short.
    pub fn default_scale(self) -> f64 {
        match self {
            Workload::SiteTrain => 0.2,
            Workload::ServeHarvest => 0.05,
            Workload::LongtailCrawl => 0.005,
        }
    }
}

/// The `ceres-synth` seed of the benchmark corpora (the repro default).
/// Measured over five generator seeds, facts and recall vary by 10–20%
/// (inter-quartile range over median) because per-site quality depends
/// strongly on the generated site style; a pinned corpus keeps that out of
/// the run-to-run spread, as a fixed dataset does.
pub const CORPUS_SEED: u64 = 42;

/// The training workloads serve every `SINGLE_CLIENT_STRIDE`-th harvested
/// page in their single-client phase: enough samples for a p99 without
/// letting serving dominate a workload that exists to measure training.
pub const SINGLE_CLIENT_STRIDE: usize = 2;

/// `(page id, html)` pairs.
pub type PageSet = Vec<(String, String)>;

/// One site's inputs.
pub struct SiteInput {
    /// Index into [`Corpus::sites`] (gold lookup).
    pub site: usize,
    /// Pages the session ingests and trains on.
    pub train: PageSet,
    /// Split-halves evaluation pages harvested in one batch; `None` under
    /// the whole-site protocol (the training pages are harvested by
    /// cluster membership).
    pub eval: Option<PageSet>,
    /// Pages served by the loaded artifact one request at a time — the
    /// single-client phase — and by serve_harvest's batch phase: the
    /// harvested pages (every [`SINGLE_CLIENT_STRIDE`]-th one for the
    /// training workloads), followed on the first site by the seeded
    /// hostile corpus.
    pub served: PageSet,
    /// How many leading `served` pages come from the harvested pages (the
    /// rest are hostile).
    pub n_sampled: usize,
    /// Per served page: the `PageError` kind it must be refused with, or
    /// `None` when it must be served.
    pub expect: Vec<Option<&'static str>>,
    /// Page ids extractions are scored against.
    pub scored_ids: Vec<String>,
}

/// A workload's generated inputs.
pub struct Corpus {
    pub kb: Kb,
    pub sites: Vec<Site>,
    pub inputs: Vec<SiteInput>,
    /// The single-client phase's request order: `(site, served index)`
    /// pairs of every site in a seeded order. serve_harvest follows it
    /// across all sites, so a slow spell of the host is spread over every
    /// site instead of landing on one; the training workloads take each
    /// site's requests in this order right after the site trains.
    pub single_order: Vec<(usize, usize)>,
}

fn pairs<'a>(pages: impl IntoIterator<Item = &'a ceres_synth::Page>) -> PageSet {
    pages.into_iter().map(|p| (p.id.clone(), p.html.clone())).collect()
}

/// The hostile pages with the fate the **serve** path owes each one:
/// guard refusals keep their ingest kind, except `duplicate-id`, which
/// only an ingest session can detect (serving is stateless per page).
pub fn hostile_served(seed: u64) -> (PageSet, Vec<Option<&'static str>>) {
    let pages = hostile_corpus(seed);
    let expect = pages
        .iter()
        .map(|p| match p.expect {
            Expect::Quarantined(kind) if kind != "duplicate-id" => Some(kind),
            _ => None,
        })
        .collect();
    (pages.into_iter().map(|p| (p.id, p.html)).collect(), expect)
}

/// A seeded permutation of `0..n` (Fisher–Yates over splitmix64).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

impl Corpus {
    /// Generate `workload`'s inputs for run seed `seed` at `scale`.
    ///
    /// The sites come from `ceres-synth` with `corpus_seed`; the run seed
    /// draws the order in which each site's pages are ingested and served,
    /// and the hostile corpus.
    pub fn build(workload: Workload, seed: u64, corpus_seed: u64, scale: f64) -> Corpus {
        let (kb, sites, split) = match workload {
            Workload::SiteTrain | Workload::ServeHarvest => {
                let (vertical, _) = movie_vertical(SwdeConfig { seed: corpus_seed, scale });
                (vertical.kb, vertical.sites, true)
            }
            Workload::LongtailCrawl => {
                let data = commoncrawl::generate(corpus_seed, scale);
                (data.kb, data.sites, false)
            }
        };
        let (hostile, hostile_expect) = hostile_served(seed);
        let inputs: Vec<SiteInput> = sites
            .iter()
            .enumerate()
            .map(|(i, site)| {
                let site_seed = seed ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
                let shuffled = |pages: &[&ceres_synth::Page], salt: u64| {
                    let order = permutation(site_seed ^ salt, pages.len());
                    pairs(order.into_iter().map(|k| pages[k]))
                };
                // The split-halves protocol (even pages annotate, odd pages
                // evaluate) or the whole site.
                let (train, eval): (Vec<&ceres_synth::Page>, Option<Vec<&ceres_synth::Page>>) =
                    if split {
                        let (train, eval) = site.split_halves();
                        (train, Some(eval))
                    } else {
                        (site.pages.iter().collect(), None)
                    };
                let harvested = eval.as_deref().unwrap_or(&train);
                let scored = harvested.iter().map(|p| p.id.clone()).collect();
                // The single-client sample is a fixed subset of the harvested
                // pages, so the latency tail covers the same pages whatever
                // the run seed; only the order each list is used in is seeded.
                let stride =
                    if workload == Workload::ServeHarvest { 1 } else { SINGLE_CLIENT_STRIDE };
                let sample: Vec<&ceres_synth::Page> =
                    harvested.iter().step_by(stride).copied().collect();
                let mut served = pairs(sample);
                let (train, eval) = (shuffled(&train, 0), eval.map(|e| shuffled(&e, 1)));
                let n_sampled = served.len();
                let mut expect = vec![None; n_sampled];
                if i == 0 {
                    served.extend(hostile.iter().cloned());
                    expect.extend(hostile_expect.iter().copied());
                }
                SiteInput { site: i, train, eval, served, n_sampled, expect, scored_ids: scored }
            })
            .collect();
        let requests: Vec<(usize, usize)> = inputs
            .iter()
            .enumerate()
            .flat_map(|(si, input): (usize, &SiteInput)| {
                (0..input.served.len()).map(move |j| (si, j))
            })
            .collect();
        let single_order = permutation(seed ^ 0x51_6e67_6c65, requests.len())
            .into_iter()
            .map(|k| requests[k])
            .collect();
        Corpus { kb, sites, inputs, single_order }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn hostile_serve_expectations_skip_the_ingest_only_guard() {
        let (pages, expect) = hostile_served(3);
        assert_eq!(pages.len(), expect.len());
        let refused: Vec<&str> = expect.iter().flatten().copied().collect();
        assert_eq!(refused, ["parse-depth", "oversized", "empty-dom"]);
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = Corpus::build(Workload::ServeHarvest, 5, CORPUS_SEED, 0.01);
        let b = Corpus::build(Workload::ServeHarvest, 5, CORPUS_SEED, 0.01);
        assert_eq!(a.inputs.len(), 10);
        for (x, y) in a.inputs.iter().zip(&b.inputs) {
            assert_eq!(x.train, y.train);
            assert_eq!(x.served, y.served);
        }
        let c = Corpus::build(Workload::ServeHarvest, 6, CORPUS_SEED, 0.01);
        assert_ne!(a.inputs[0].train, c.inputs[0].train, "the run seed draws the page order");
        let ids = |x: &Corpus| {
            let mut ids: Vec<String> = x.inputs[0].train.iter().map(|(id, _)| id.clone()).collect();
            ids.sort();
            ids
        };
        assert_eq!(ids(&a), ids(&c), "the split halves do not depend on the run seed");
    }

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let p = permutation(9, 50);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(p, permutation(9, 50));
        assert_ne!(p, permutation(10, 50));
    }
}
