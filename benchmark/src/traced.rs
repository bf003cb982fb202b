//! Traced passes: the rebuild of each workload with spans at every layer
//! boundary, run sequentially so the spans nest on one thread and add up.

use crate::clock::{ms_since, now};
use crate::corpus::{Corpus, SiteInput};
use crate::rebuild::{self, BuildProbe, Counters, RebuiltSite};
use crate::session_pass::{in_single_order, SiteOutput};
use crate::trace::{Span, Tracer};
use ceres_core::{CeresConfig, ExtractOutcome, GuardConfig, TrainedSite};
use ceres_kb::Kb;
use ceres_runtime::Runtime;
use std::ops::Range;

/// One traced pass.
pub struct TracedPass {
    /// Wall time of the traced path (the out-of-band parse/match probes
    /// excluded).
    pub wall_ms: f64,
    pub spans: Vec<Span>,
    pub counters: Counters,
    pub sites: Vec<SiteOutput>,
}

/// A traced segment that is not a measured pass: serve_harvest's set-up
/// training.
pub struct TracedSetup {
    pub spans: Vec<Span>,
    pub counters: Counters,
    pub sites: Vec<RebuiltSite>,
}

struct Ctx<'a> {
    kb: &'a Kb,
    cfg: &'a CeresConfig,
    rt: Runtime,
    /// Guards of a loaded artifact (its serve path's limits).
    guards: GuardConfig,
}

fn ctx<'a>(kb: &'a Kb, cfg: &'a CeresConfig) -> Ctx<'a> {
    Ctx { kb, cfg, rt: Runtime::sequential(), guards: GuardConfig::default() }
}

fn store_round_trip(
    tr: &mut Tracer,
    c: &mut Counters,
    kb: &Kb,
    site: &TrainedSite<'_>,
) -> Result<(), String> {
    let bytes = tr.leaf("store.save", || site.to_bytes()).map_err(|e| format!("save: {e}"))?;
    c.add("store.artifact_bytes", bytes.len() as f64);
    let loaded =
        tr.leaf("store.load", || TrainedSite::load_on(kb, Runtime::sequential(), bytes.as_slice()));
    loaded.map(drop).map_err(|e| format!("load: {e}"))
}

fn ingest_and_train<'a>(
    tr: &mut Tracer,
    x: &Ctx<'_>,
    input: &'a SiteInput,
    probes: &mut Vec<BuildProbe<'a>>,
    c: &mut Counters,
) -> (Vec<ceres_core::page::PageView>, RebuiltSite) {
    let s = tr.open("session.ingest");
    let views = rebuild::ingest(tr, x.kb, &input.train, probes);
    tr.close(s);
    let s = tr.open("session.train");
    let site = rebuild::train(tr, &x.rt, x.kb, &views, x.cfg, c);
    tr.close(s);
    (views, site)
}

/// The traced single-client phase of `sites` (indexes into `rebuilt`),
/// in the corpus's seeded order. Returns per-site outcomes and the probe
/// time.
fn single_client(
    tr: &mut Tracer,
    x: &Ctx<'_>,
    corpus: &Corpus,
    sites: Range<usize>,
    rebuilt: &[RebuiltSite],
    c: &mut Counters,
) -> (Vec<Vec<ExtractOutcome>>, f64) {
    let mut probes = Vec::new();
    let singles = in_single_order(corpus, sites, |si, id, html| {
        tr.set_site(si);
        let s = tr.open("session.extract");
        let out = rebuild::serve_page(
            tr,
            x.kb,
            &rebuilt[si],
            x.cfg,
            Some(&x.guards),
            id,
            html,
            &mut probes,
            c,
        );
        tr.close(s);
        out
    });
    let probe_ms = rebuild::run_probes(tr, x.kb, probes, c);
    (singles, probe_ms)
}

/// The traced counterpart of `session_pass::train_pass`. `artifacts`
/// are the session-trained sites whose codec round trip the store spans
/// time.
pub fn train_pass(
    corpus: &Corpus,
    cfg: &CeresConfig,
    artifacts: &[TrainedSite<'_>],
) -> Result<TracedPass, String> {
    let x = ctx(&corpus.kb, cfg);
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let mut harvests = Vec::with_capacity(corpus.inputs.len());
    let mut singles = Vec::with_capacity(corpus.inputs.len());
    let mut rebuilt = Vec::with_capacity(corpus.inputs.len());
    let mut probe_ms = 0.0;
    let t_pass = now();
    for (si, input) in corpus.inputs.iter().enumerate() {
        let artifact = artifacts.get(si).ok_or("traced pass lacks a site artifact")?;
        tr.set_site(si);
        let site_span = tr.open("site");
        let mut probes = Vec::new();
        let (views, site) = ingest_and_train(&mut tr, &x, input, &mut probes, &mut c);
        let s = tr.open("session.extract");
        harvests.push(match &input.eval {
            Some(eval) => eval
                .iter()
                .flat_map(|(id, html)| {
                    let out = rebuild::serve_page(
                        &mut tr,
                        x.kb,
                        &site,
                        cfg,
                        None,
                        id,
                        html,
                        &mut probes,
                        &mut c,
                    );
                    match out {
                        ExtractOutcome::Ok(facts) => facts,
                        _ => Vec::new(),
                    }
                })
                .collect(),
            None => rebuild::extract_members(&mut tr, &site, &views, cfg, &mut c),
        });
        tr.close(s);
        drop(views);
        store_round_trip(&mut tr, &mut c, x.kb, artifact)?;
        tr.close(site_span);
        probe_ms += rebuild::run_probes(&mut tr, x.kb, probes, &mut c);
        rebuilt.push(site);
        let (single, single_probe_ms) =
            single_client(&mut tr, &x, corpus, si..si + 1, &rebuilt, &mut c);
        singles.extend(single);
        probe_ms += single_probe_ms;
    }
    let wall_ms = ms_since(t_pass) - probe_ms;
    let sites = harvests
        .into_iter()
        .zip(singles)
        .map(|(harvest, single)| SiteOutput { harvest, batch: Vec::new(), single })
        .collect();
    Ok(TracedPass { wall_ms, spans: tr.into_spans(), counters: c, sites })
}

/// serve_harvest's traced set-up: the rebuild trains every site (the
/// training layers' spans for this workload come from here) and the
/// store spans time the session-trained sites' codec round trip.
pub fn serve_setup(
    corpus: &Corpus,
    cfg: &CeresConfig,
    artifacts: &[TrainedSite<'_>],
) -> Result<TracedSetup, String> {
    let x = ctx(&corpus.kb, cfg);
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let mut sites = Vec::with_capacity(corpus.inputs.len());
    for (si, input) in corpus.inputs.iter().enumerate() {
        let artifact = artifacts.get(si).ok_or("traced set-up lacks a site artifact")?;
        tr.set_site(si);
        let site_span = tr.open("site");
        let mut probes = Vec::new();
        let (views, site) = ingest_and_train(&mut tr, &x, input, &mut probes, &mut c);
        drop(views);
        store_round_trip(&mut tr, &mut c, x.kb, artifact)?;
        tr.close(site_span);
        rebuild::run_probes(&mut tr, x.kb, probes, &mut c);
        sites.push(site);
    }
    Ok(TracedSetup { spans: tr.into_spans(), counters: c, sites })
}

/// The traced counterpart of `session_pass::serve_pass`.
pub fn serve_pass(corpus: &Corpus, cfg: &CeresConfig, setup: &TracedSetup) -> TracedPass {
    let x = ctx(&corpus.kb, cfg);
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let mut probe_ms = 0.0;
    let t_pass = now();
    let mut batches = Vec::with_capacity(corpus.inputs.len());
    for (si, (input, site)) in corpus.inputs.iter().zip(&setup.sites).enumerate() {
        tr.set_site(si);
        let site_span = tr.open("site");
        let mut probes = Vec::new();
        let s = tr.open("session.extract");
        let batch: Vec<ExtractOutcome> = input
            .served
            .iter()
            .map(|(id, html)| {
                rebuild::serve_page(
                    &mut tr,
                    x.kb,
                    site,
                    cfg,
                    Some(&x.guards),
                    id,
                    html,
                    &mut probes,
                    &mut c,
                )
            })
            .collect();
        tr.close(s);
        tr.close(site_span);
        probe_ms += rebuild::run_probes(&mut tr, x.kb, probes, &mut c);
        batches.push(batch);
    }
    let (singles, single_probe_ms) =
        single_client(&mut tr, &x, corpus, 0..corpus.inputs.len(), &setup.sites, &mut c);
    let wall_ms = ms_since(t_pass) - probe_ms - single_probe_ms;
    let sites = batches
        .into_iter()
        .zip(singles)
        .map(|(batch, single)| {
            let harvest =
                batch.iter().filter_map(ExtractOutcome::extractions).flatten().cloned().collect();
            SiteOutput { harvest, batch, single }
        })
        .collect();
    TracedPass { wall_ms, spans: tr.into_spans(), counters: c, sites }
}
