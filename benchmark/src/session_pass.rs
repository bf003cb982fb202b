//! Untraced passes: each workload driven through the public session API
//! (`SiteSession` → `TrainedSite` → the `ceres-store` artifact codec).

use crate::clock::{ms_since, now};
use crate::corpus::{Corpus, Workload};
use crate::host;
use ceres_core::extract::Extraction;
use ceres_core::pipeline::AnnotationMode;
use ceres_core::{CeresConfig, ExtractOutcome, SiteSession, TrainedSite};
use ceres_kb::Kb;
use ceres_runtime::Runtime;
use std::ops::Range;

/// What one site produced in one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteOutput {
    /// Facts harvested by the site's batch call (split halves: the
    /// evaluation half; whole site: cluster membership; serve: the `Ok`
    /// outcomes of the batch phase).
    pub harvest: Vec<Extraction>,
    /// serve_harvest's batch-phase outcomes, one per served page.
    pub batch: Vec<ExtractOutcome>,
    /// Single-client outcomes, one per served page.
    pub single: Vec<ExtractOutcome>,
}

/// One pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_ms: f64,
    /// Page operations: pages ingested, harvested and served.
    pub ops: u64,
    pub site_ms: Vec<f64>,
    pub page_ms: Vec<f64>,
    pub sites: Vec<SiteOutput>,
}

/// Sites trained and loaded back from their artifacts in serve_harvest's
/// set-up, plus what the in-memory sites served before the round trip.
pub struct Served<'kb> {
    pub loaded: Vec<TrainedSite<'kb>>,
    /// In-memory `try_extract_batch` outcomes per site (the reference the
    /// loaded artifacts must reproduce).
    pub reference: Vec<Vec<ExtractOutcome>>,
}

pub fn config(seed: u64, threads: usize) -> CeresConfig {
    CeresConfig::new(seed).with_threads(threads)
}

fn train_site<'kb>(
    kb: &'kb Kb,
    cfg: &CeresConfig,
    train: crate::corpus::PageSet,
) -> TrainedSite<'kb> {
    let mut session =
        SiteSession::builder(kb).config(cfg.clone()).mode(AnnotationMode::Full).build();
    session.ingest(train);
    session.finish_training()
}

/// Save `site` with the artifact codec and load it back.
pub fn round_trip<'kb>(
    kb: &'kb Kb,
    rt: Runtime,
    site: &TrainedSite<'_>,
) -> Result<TrainedSite<'kb>, String> {
    let bytes = site.to_bytes().map_err(|e| format!("artifact save failed: {e}"))?;
    TrainedSite::load_on(kb, rt, bytes.as_slice()).map_err(|e| format!("artifact load failed: {e}"))
}

/// serve_harvest's set-up: train each site on its annotation half, round
/// trip it through the codec. The in-memory reference outcomes are
/// computed separately by [`serve_reference`] (verification, not set-up).
pub fn serve_setup<'kb>(
    corpus: &'kb Corpus,
    cfg: &CeresConfig,
) -> Result<Vec<(TrainedSite<'kb>, TrainedSite<'kb>)>, String> {
    let rt = Runtime::with_threads(cfg.threads);
    corpus
        .inputs
        .iter()
        .map(|input| {
            let mut trained = train_site(&corpus.kb, cfg, input.train.clone());
            drop(trained.take_training_views());
            let loaded = round_trip(&corpus.kb, rt, &trained)?;
            Ok((trained, loaded))
        })
        .collect()
}

/// Split set-up sites into the loaded artifacts and the in-memory
/// reference outcomes over every served page.
pub fn serve_reference<'kb>(
    corpus: &Corpus,
    sites: Vec<(TrainedSite<'kb>, TrainedSite<'kb>)>,
) -> Served<'kb> {
    let mut loaded = Vec::new();
    let mut reference = Vec::new();
    for ((trained, artifact), input) in sites.into_iter().zip(&corpus.inputs) {
        reference.push(trained.try_extract_batch(&input.served));
        loaded.push(artifact);
    }
    Served { loaded, reference }
}

/// Run `serve` on the served pages of the sites in `sites`, one request
/// at a time, in the corpus's seeded order (interleaving those sites);
/// results come back per site, in served order.
pub fn in_single_order<'a, T: Clone>(
    corpus: &'a Corpus,
    sites: Range<usize>,
    mut serve: impl FnMut(usize, &'a str, &'a str) -> T,
) -> Vec<Vec<T>> {
    let mut slots: Vec<Vec<Option<T>>> =
        corpus.inputs[sites.clone()].iter().map(|i| vec![None; i.served.len()]).collect();
    for &(si, j) in corpus.single_order.iter().filter(|(si, _)| sites.contains(si)) {
        let (id, html) = &corpus.inputs[si].served[j];
        slots[si - sites.start][j] = Some(serve(si, id, html));
    }
    slots.into_iter().map(|s| s.into_iter().flatten().collect()).collect()
}

/// The single-client phase of `sites` (indexes into `loaded`), timing
/// each request.
///
/// With `cpus`, the client serves an equal share of the requests on each
/// of them, pinned to one at a time, and is unpinned after. On a shared
/// host each core slows down on its own, for seconds at a time, and the
/// scheduler leaves a lone thread on one core for seconds too; taking the
/// cores in turn makes a long phase sample all of them alike.
fn single_client(
    corpus: &Corpus,
    sites: Range<usize>,
    loaded: &[TrainedSite<'_>],
    cpus: &[usize],
    page_ms: &mut Vec<f64>,
) -> Vec<Vec<ExtractOutcome>> {
    let all = host::allowed_cpus();
    let requests: usize = corpus.inputs[sites.clone()].iter().map(|i| i.served.len()).sum();
    let mut served = 0;
    let mut pinned = None;
    let out = in_single_order(corpus, sites, |si, id, html| {
        let share = served * cpus.len() / requests.max(1);
        if pinned != Some(share) {
            if let Some(&cpu) = cpus.get(share) {
                host::pin_thread(&[cpu]);
            }
            pinned = Some(share);
        }
        served += 1;
        let t0 = now();
        let out = loaded[si].try_extract_page(id, html);
        page_ms.push(ms_since(t0));
        out
    });
    if !cpus.is_empty() {
        host::pin_thread(&all);
    }
    out
}

/// One pass of a training workload (site_train, longtail_crawl): per site,
/// ingest → train → batch harvest (the site's time), then the artifact
/// round trip and the site's single-client phase on the loaded artifact.
/// Serving each site right after it trains spreads the latency samples
/// over the whole pass, so one slow spell of the host cannot hold them
/// all. With `keep`, the loaded artifacts are returned for the traced
/// pass's store spans.
pub fn train_pass<'kb>(
    corpus: &'kb Corpus,
    cfg: &CeresConfig,
    keep: bool,
) -> Result<(Pass, Vec<TrainedSite<'kb>>), String> {
    let kb = &corpus.kb;
    let rt = Runtime::with_threads(cfg.threads);
    let mut inputs: Vec<crate::corpus::PageSet> =
        corpus.inputs.iter().map(|i| i.train.clone()).collect();
    let mut pass = Pass::default();
    let mut harvests = Vec::with_capacity(corpus.inputs.len());
    let mut singles = Vec::with_capacity(corpus.inputs.len());
    let mut loaded = Vec::with_capacity(corpus.inputs.len());
    let t_pass = now();
    for (si, (input, train)) in corpus.inputs.iter().zip(inputs.iter_mut()).enumerate() {
        let t0 = now();
        let mut trained = train_site(kb, cfg, std::mem::take(train));
        harvests.push(match &input.eval {
            Some(eval) => trained.extract_batch(eval),
            None => trained.extract_training_pages(),
        });
        pass.site_ms.push(ms_since(t0));
        drop(trained.take_training_views());
        loaded.push(round_trip(kb, rt, &trained)?);
        // Each site's phase is short and lies between training runs on
        // every core, so it is left where the scheduler puts it.
        singles.extend(single_client(corpus, si..si + 1, &loaded, &[], &mut pass.page_ms));
        pass.ops += (input.train.len()
            + input.eval.as_ref().map_or(0, Vec::len)
            + input.served.len()) as u64;
    }
    pass.wall_ms = ms_since(t_pass);
    pass.sites = harvests
        .into_iter()
        .zip(singles)
        .map(|(harvest, single)| SiteOutput { harvest, batch: Vec::new(), single })
        .collect();
    Ok((pass, if keep { loaded } else { Vec::new() }))
}

/// One pass of serve_harvest: a batch phase (`try_extract_batch` per
/// site; the site's time) then the single-client phase interleaving all
/// sites, each serving every served page once.
pub fn serve_pass(corpus: &Corpus, served: &Served<'_>) -> Pass {
    let mut pass = Pass::default();
    let t_pass = now();
    let mut batches = Vec::with_capacity(corpus.inputs.len());
    for (site, input) in served.loaded.iter().zip(&corpus.inputs) {
        let t0 = now();
        batches.push(site.try_extract_batch(&input.served));
        pass.site_ms.push(ms_since(t0));
        pass.ops += 2 * input.served.len() as u64;
    }
    let cpus = host::allowed_cpus();
    let singles =
        single_client(corpus, 0..corpus.inputs.len(), &served.loaded, &cpus, &mut pass.page_ms);
    pass.wall_ms = ms_since(t_pass);
    pass.sites = batches
        .into_iter()
        .zip(singles)
        .map(|(batch, single)| {
            let harvest =
                batch.iter().filter_map(ExtractOutcome::extractions).flatten().cloned().collect();
            SiteOutput { harvest, batch, single }
        })
        .collect();
    pass
}

/// Run one untraced pass of `workload`.
pub fn pass<'kb>(
    workload: Workload,
    corpus: &'kb Corpus,
    cfg: &CeresConfig,
    served: Option<&Served<'_>>,
    keep: bool,
) -> Result<(Pass, Vec<TrainedSite<'kb>>), String> {
    match (workload, served) {
        (Workload::ServeHarvest, Some(served)) => Ok((serve_pass(corpus, served), Vec::new())),
        (Workload::ServeHarvest, None) => Err("serve_harvest needs its set-up sites".to_string()),
        _ => train_pass(corpus, cfg, keep),
    }
}
