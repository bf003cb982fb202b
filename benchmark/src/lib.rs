//! The CERES repository benchmark.
//!
//! Three seeded workloads (`site_train`, `serve_harvest`,
//! `longtail_crawl`) run as closed loops from one process. An untraced
//! run drives the public session API and reports the end-to-end metrics;
//! a traced run rebuilds the same path from each layer's public functions,
//! records spans, and reports per-layer metrics whose self times add up to
//! the session spans within a stated residual. Both runs check their
//! output. See `README.md` in this directory.

pub mod clock;
pub mod corpus;
pub mod digest;
pub mod host;
pub mod json;
pub mod rebuild;
pub mod record;
pub mod session_pass;
pub mod stats;
pub mod trace;
pub mod traced;

use crate::clock::{ms_since, now};
use crate::corpus::{Corpus, Workload};
use crate::digest::Digest;
use crate::rebuild::Counters;
use crate::record::{Check, MetricRecord, RunRecord};
use crate::session_pass::{Pass, SiteOutput};
use crate::trace::Span;
use ceres_core::extract::Extraction;
use ceres_core::{CeresConfig, ExtractOutcome};
use ceres_eval::{GoldIndex, Prf, TripleScorer};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, reported by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("pages_per_s", "pages/s"),
    ("site_ms_p50", "ms"),
    ("page_ms_p50", "ms"),
    ("page_ms_p99", "ms"),
    ("facts", "count"),
    ("precision", "share"),
    ("recall", "share"),
    ("fail_rate", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("dom.parse_ms", "ms"),
    ("dom.nodes", "count"),
    ("kb.match_ms", "ms"),
    ("kb.texts", "count"),
    ("kb.unique_texts", "count"),
    ("kb.batch_unique_texts", "count"),
    ("kb.matched_share", "share"),
    ("page.build_ms", "ms"),
    ("template.cluster_ms", "ms"),
    ("template.clusters", "count"),
    ("template.assign_ms", "ms"),
    ("template.unassigned_share", "share"),
    ("topic.ms", "ms"),
    ("topic.page_share", "share"),
    ("annotate.ms", "ms"),
    ("annotate.labels", "count"),
    ("annotate.page_share", "share"),
    ("examples.ms", "ms"),
    ("examples.rows", "count"),
    ("examples.nnz", "count"),
    ("features.dict_size", "count"),
    ("ml.train_ms", "ms"),
    ("ml.iterations", "count"),
    ("ml.converged_share", "share"),
    ("extract.ms", "ms"),
    ("extract.pages", "count"),
    ("extract.facts_per_page", "facts/page"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.artifact_bytes", "bytes"),
    ("session.ingest_ms", "ms"),
    ("session.train_ms", "ms"),
    ("session.extract_ms", "ms"),
    ("session.total_ms", "ms"),
    ("trace.layers_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.residual_share", "share"),
    ("trace.overhead", "share"),
    ("runtime.threads", "count"),
    ("runtime.host_cores", "count"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    /// Where the run record and spans are written (`None`: not written).
    pub out_dir: Option<PathBuf>,
}

/// Fewest untraced passes per run: digest stability needs two.
const MIN_PASSES: usize = 2;

impl Options {
    pub fn new(workload: Workload, seed: u64) -> Options {
        Options {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            scale: workload.default_scale(),
            out_dir: None,
        }
    }
}

/// Quality of a pass's harvest, scored against the generator's gold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub facts: usize,
    pub prf: Prf,
    /// Served pages refused (by design: the hostile ones) / operations.
    pub refused: usize,
    pub ops: u64,
}

impl Quality {
    pub fn fail_rate(&self) -> f64 {
        self.refused as f64 / self.ops.max(1) as f64
    }
}

fn score(corpus: &Corpus, sites: &[SiteOutput], ops: u64) -> Quality {
    let mut prf = Prf::default();
    let mut facts = 0;
    let mut refused = 0;
    for (input, out) in corpus.inputs.iter().zip(sites) {
        let site = &corpus.sites[input.site];
        let gold = GoldIndex::new(site);
        let ids: Vec<&str> = input.scored_ids.iter().map(String::as_str).collect();
        prf.add(TripleScorer::score(&corpus.kb, &gold, &ids, &out.harvest, None).overall());
        facts += out.harvest.len();
        refused += out
            .batch
            .iter()
            .chain(&out.single)
            .filter(|o| matches!(o, ExtractOutcome::Failed(_)))
            .count();
    }
    Quality { facts, prf, refused, ops }
}

/// Digest of a pass's output.
pub fn digest(sites: &[SiteOutput]) -> Digest {
    let mut d = Digest::new();
    for (i, s) in sites.iter().enumerate() {
        d.section("site", i);
        d.extractions(&s.harvest);
        d.section("batch", s.batch.len());
        for o in &s.batch {
            d.outcome(o);
        }
        d.section("single", s.single.len());
        for o in &s.single {
            d.outcome(o);
        }
    }
    d
}

/// Served outcomes that contradict their expectation: a page that must
/// be refused under a kind that was not, or a page that must be served
/// that was refused. Returns (count, first few descriptions).
fn unexpected(corpus: &Corpus, sites: &[SiteOutput]) -> (u64, Vec<String>) {
    let mut n = 0;
    let mut why = Vec::new();
    for (input, out) in corpus.inputs.iter().zip(sites) {
        for outcomes in [&out.batch, &out.single] {
            if outcomes.is_empty() {
                continue;
            }
            for ((id, _), (want, got)) in input.served.iter().zip(input.expect.iter().zip(outcomes))
            {
                let got_kind = match got {
                    ExtractOutcome::Failed(e) => Some(e.kind()),
                    _ => None,
                };
                if *want != got_kind {
                    n += 1;
                    if why.len() < 5 {
                        why.push(format!("page {id}: expected {want:?}, got {got_kind:?}"));
                    }
                }
            }
        }
    }
    (n, why)
}

/// Loaded-artifact extractions against the in-memory site's, on every
/// served page the workload can compare.
fn artifact_check(
    workload: Workload,
    corpus: &Corpus,
    sites: &[SiteOutput],
    reference: Option<&[Vec<ExtractOutcome>]>,
) -> Check {
    let mut bad = Vec::new();
    match workload {
        Workload::SiteTrain => {
            // The in-memory batch harvest of the evaluation half must equal
            // the loaded artifact's single-page outcomes on the sampled
            // evaluation pages.
            for (i, (input, out)) in corpus.inputs.iter().zip(sites).enumerate() {
                let mut by_page: BTreeMap<&str, Vec<&Extraction>> = BTreeMap::new();
                for e in &out.harvest {
                    by_page.entry(e.page_id.as_str()).or_default().push(e);
                }
                let agrees = input.served.iter().zip(&out.single).take(input.n_sampled).all(
                    |((id, _), got)| {
                        let served: Vec<&Extraction> =
                            got.extractions().map(|es| es.iter().collect()).unwrap_or_default();
                        !matches!(got, ExtractOutcome::Failed(_))
                            && by_page.get(id.as_str()).cloned().unwrap_or_default() == served
                    },
                );
                if !agrees {
                    bad.push(i);
                }
            }
        }
        Workload::ServeHarvest => {
            let reference = reference.unwrap_or(&[]);
            for (i, out) in sites.iter().enumerate() {
                let want = reference.get(i);
                if want != Some(&out.batch) || want != Some(&out.single) {
                    bad.push(i);
                }
            }
        }
        Workload::LongtailCrawl => {
            return Check {
                name: "artifact_matches_in_memory".into(),
                ok: true,
                detail: "not compared: the whole-site harvest uses cluster membership, not the served path".into(),
            };
        }
    }
    Check {
        name: "artifact_matches_in_memory".into(),
        ok: bad.is_empty(),
        detail: if bad.is_empty() {
            "every served page agrees".into()
        } else {
            format!("sites differ: {bad:?}")
        },
    }
}

/// Per-pass output checks shared by both modes.
#[derive(Default)]
struct PassChecks {
    digests: Vec<u64>,
    qualities: Vec<Quality>,
    unexpected: u64,
    unexpected_why: Vec<String>,
    artifact: Vec<Check>,
    attempted: u64,
}

impl PassChecks {
    fn absorb(
        &mut self,
        workload: Workload,
        corpus: &Corpus,
        pass: &Pass,
        reference: Option<&[Vec<ExtractOutcome>]>,
    ) {
        self.digests.push(digest(&pass.sites).finish());
        self.qualities.push(score(corpus, &pass.sites, pass.ops));
        let (n, why) = unexpected(corpus, &pass.sites);
        self.unexpected += n;
        if self.unexpected_why.is_empty() {
            self.unexpected_why = why;
        }
        self.artifact.push(artifact_check(workload, corpus, &pass.sites, reference));
        self.attempted += pass.ops;
    }

    fn checks(&self) -> Vec<Check> {
        let same_digest = self.digests.windows(2).all(|w| w[0] == w[1]);
        let same_quality = self.qualities.windows(2).all(|w| w[0] == w[1]);
        // Report the first failing pass's comparison, else the first pass's.
        let artifact = self.artifact.iter().find(|c| !c.ok).or(self.artifact.first());
        vec![
            Check {
                name: "digest_stable_across_passes".into(),
                ok: same_digest,
                detail: format!("{} passes", self.digests.len()),
            },
            Check {
                name: "quality_identical_across_passes".into(),
                ok: same_quality,
                detail: "facts, precision, recall and fail_rate".into(),
            },
            Check {
                name: "refusals_are_exactly_the_hostile_pages".into(),
                ok: self.unexpected == 0,
                detail: if self.unexpected == 0 {
                    "all served outcomes as expected".into()
                } else {
                    self.unexpected_why.join("; ")
                },
            },
            artifact.cloned().unwrap_or(Check {
                name: "artifact_matches_in_memory".into(),
                ok: false,
                detail: "no pass ran".into(),
            }),
        ]
    }
}

/// Set-ups are repeated until at least `MIN_SETUP_REPS` ran and together
/// took this long (or `MAX_SETUP_REPS` ran), so a cheap set-up's median
/// still rests on enough samples.
const SETUP_BUDGET_S: f64 = 2.0;
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 15;

/// Set-up timings of all but the last set-up: generate the corpus (and
/// for serve_harvest train and round trip its sites), then drop it. The
/// caller times the last one and keeps it.
fn setup_times(o: &Options, cfg: &CeresConfig) -> Result<Vec<f64>, String> {
    let mut times: Vec<f64> = Vec::new();
    let enough = |times: &[f64]| {
        // The caller's kept set-up is one more rep.
        let reps = times.len() + 1;
        let mean =
            if times.is_empty() { 0.0 } else { times.iter().sum::<f64>() / times.len() as f64 };
        reps >= MAX_SETUP_REPS || (reps >= MIN_SETUP_REPS && mean * reps as f64 >= SETUP_BUDGET_S)
    };
    while !enough(&times) {
        let t0 = now();
        let corpus = Corpus::build(o.workload, o.seed, corpus::CORPUS_SEED, o.scale);
        if o.workload == Workload::ServeHarvest {
            drop(session_pass::serve_setup(&corpus, cfg)?);
        }
        times.push(ms_since(t0) / 1e3);
    }
    Ok(times)
}

fn base_record(o: &Options, threads: usize) -> RunRecord {
    RunRecord {
        workload: o.workload.name().to_string(),
        seed: o.seed,
        trace: o.trace,
        scale: o.scale,
        corpus_seed: corpus::CORPUS_SEED,
        host_cores: host::host_cores(),
        threads,
        commit: host::commit(std::path::Path::new(".")),
        toolchain: host::toolchain().to_string(),
        run_seconds: o.seconds,
        passes: 0,
        digest: String::new(),
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
        metrics: Vec::new(),
    }
}

/// Run the benchmark as `o` says.
pub fn run(o: &Options) -> Result<RunRecord, String> {
    let rec = if o.trace { run_traced(o)? } else { run_untraced(o)? };
    if let Some(dir) = &o.out_dir {
        persist(dir, &rec)?;
    }
    Ok(rec)
}

fn run_untraced(o: &Options) -> Result<RunRecord, String> {
    let threads = host::host_cores();
    let cfg = session_pass::config(o.seed, threads);
    let mut setup_s = setup_times(o, &cfg)?;
    let t0 = now();
    let corpus = Corpus::build(o.workload, o.seed, corpus::CORPUS_SEED, o.scale);
    let served = match o.workload {
        Workload::ServeHarvest => Some(session_pass::serve_setup(&corpus, &cfg)?),
        _ => None,
    };
    setup_s.push(ms_since(t0) / 1e3);
    let served = served.map(|s| session_pass::serve_reference(&corpus, s));

    // Timings are kept per pass and reported as means over the run's
    // passes: on a shared host the program runs at a fast or a slow speed
    // for seconds at a time, and a median over passes snaps to whichever
    // speed held most of the run, where a mean weighs both by their time.
    // The tail is taken over all the run's requests: a burst of slow
    // requests then has to fill 1% of the run, not 1% of one pass.
    let mut pc = PassChecks::default();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut ops = 0;
    let mut site_p50s = Vec::new();
    let mut page_p50s = Vec::new();
    let mut page_ms = Vec::new();
    let t_run = now();
    while more_passes(&walls, ms_since(t_run) / 1e3, o.seconds, MIN_PASSES) {
        let (pass, _) = session_pass::pass(o.workload, &corpus, &cfg, served.as_ref(), false)?;
        walls.push(pass.wall_ms / 1e3);
        rates.push(pass.ops as f64 / (pass.wall_ms / 1e3));
        ops += pass.ops;
        site_p50s.push(stats::median(&pass.site_ms));
        page_p50s.push(stats::median(&pass.page_ms));
        page_ms.extend_from_slice(&pass.page_ms);
        pc.absorb(o.workload, &corpus, &pass, served.as_ref().map(|s| s.reference.as_slice()));
    }

    let q = pc.qualities[0];
    let tail = stats::tail_percentile(&page_ms, 0.99, 10);
    let mut rec = base_record(o, threads);
    rec.passes = walls.len();
    rec.digest = format!("{:016x}", pc.digests[0]);
    rec.attempted = pc.attempted;
    rec.failed = pc.unexpected;
    rec.checks = pc.checks();
    let mut pages_per_s = MetricRecord::from_samples("pages_per_s", "pages/s", &rates);
    pages_per_s.value = ops as f64 / walls.iter().sum::<f64>();
    pages_per_s.note = "page operations over the passes' total wall time".into();
    let mut page_p99 = MetricRecord::from_samples("page_ms_p99", "ms", &page_ms);
    page_p99.value = tail.value;
    if tail.q != 0.99 {
        page_p99.note =
            format!("p{:.2}: the highest percentile with 10 samples beyond it", tail.q * 100.0);
    } else {
        page_p99.note = "p99 of all the run's requests".into();
    }
    rec.metrics = vec![
        MetricRecord::from_samples("setup_s", "s", &setup_s),
        MetricRecord::mean_over_passes("wall_s", "s", &walls),
        pages_per_s,
        MetricRecord::mean_over_passes("site_ms_p50", "ms", &site_p50s),
        MetricRecord::mean_over_passes("page_ms_p50", "ms", &page_p50s),
        page_p99,
        MetricRecord::exact("facts", "count", q.facts as f64),
        MetricRecord::exact("precision", "share", q.prf.precision()),
        MetricRecord::exact("recall", "share", q.prf.recall()),
        MetricRecord::exact("fail_rate", "share", q.fail_rate()),
        MetricRecord::exact("peak_rss_mb", "MB", host::peak_rss_mb()),
    ];
    let missing: Vec<&str> =
        rec.metrics.iter().filter(|m| !m.value.is_finite()).map(|m| m.name.as_str()).collect();
    rec.checks.push(Check {
        name: "end_to_end_metrics_measured".into(),
        ok: missing.is_empty(),
        detail: if missing.is_empty() {
            "every metric is a finite number".into()
        } else {
            format!("not measured: {missing:?}")
        },
    });
    Ok(rec)
}

/// Digest of one pass as the untraced run makes it: set-up and pass at
/// the host's thread count, outside every timing.
fn untraced_digest(o: &Options, corpus: &Corpus) -> Result<u64, String> {
    let cfg = session_pass::config(o.seed, host::host_cores());
    let served = match o.workload {
        Workload::ServeHarvest => {
            Some(session_pass::serve_reference(corpus, session_pass::serve_setup(corpus, &cfg)?))
        }
        _ => None,
    };
    let (pass, _) = session_pass::pass(o.workload, corpus, &cfg, served.as_ref(), false)?;
    Ok(digest(&pass.sites).finish())
}

/// Whether to start another pass: until `min_passes` ran, then while the
/// run would end nearer to `seconds` with one more pass than without.
fn more_passes(walls_s: &[f64], elapsed_s: f64, seconds: f64, min_passes: usize) -> bool {
    if walls_s.len() < min_passes {
        return true;
    }
    let mean = walls_s.iter().sum::<f64>() / walls_s.len() as f64;
    elapsed_s + mean / 2.0 < seconds
}

/// Layer values of one traced segment set (spans and counters summed over
/// the segments).
fn layer_values(segments: &[(&[Span], &Counters)]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    let mut c = Counters::default();
    for (spans, counters) in segments {
        for (name, (self_ms, dur_ms, _)) in trace::totals_by_name(spans) {
            let e = by_name.entry(name).or_insert((0.0, 0.0));
            e.0 += self_ms;
            e.1 += dur_ms;
        }
        c.merge(counters);
    }
    let dur = |n: &str| by_name.get(n).map_or(0.0, |t| t.1);
    let own = |n: &str| by_name.get(n).map_or(0.0, |t| t.0);
    let share = |a: &str, b: &str| if c.get(b) > 0.0 { c.get(a) / c.get(b) } else { 0.0 };
    let coarse = ["session.ingest", "session.train", "session.extract"];
    let total: f64 = coarse.iter().map(|n| dur(n)).sum();
    let residual: f64 = coarse.iter().map(|n| own(n)).sum();
    let mut v = BTreeMap::new();
    v.insert("dom.parse_ms", dur("dom.parse"));
    v.insert("dom.nodes", c.get("dom.nodes"));
    v.insert("kb.match_ms", dur("kb.match"));
    v.insert("kb.texts", c.get("kb.texts"));
    v.insert("kb.unique_texts", c.get("kb.unique_texts"));
    v.insert("kb.batch_unique_texts", c.get("kb.batch_unique_texts"));
    v.insert("kb.matched_share", share("kb.matched_texts", "kb.texts"));
    v.insert("page.build_ms", own("page.build"));
    v.insert("template.cluster_ms", dur("template.cluster"));
    v.insert("template.clusters", c.get("template.clusters"));
    v.insert("template.assign_ms", dur("template.assign"));
    v.insert("template.unassigned_share", share("template.unassigned", "template.assign_calls"));
    v.insert("topic.ms", dur("topic"));
    v.insert("topic.page_share", share("topic.with_topic", "topic.pages"));
    v.insert("annotate.ms", dur("annotate"));
    v.insert("annotate.labels", c.get("annotate.labels"));
    v.insert("annotate.page_share", share("annotate.pages", "topic.pages"));
    v.insert("examples.ms", dur("examples"));
    v.insert("examples.rows", c.get("examples.rows"));
    v.insert("examples.nnz", c.get("examples.nnz"));
    v.insert("features.dict_size", c.get("features.dict_size"));
    v.insert("ml.train_ms", dur("ml.train"));
    v.insert("ml.iterations", c.get("ml.iterations"));
    v.insert("ml.converged_share", share("ml.converged", "ml.models"));
    v.insert("extract.ms", dur("extract"));
    v.insert("extract.pages", c.get("extract.pages"));
    v.insert("extract.facts_per_page", share("extract.facts", "extract.pages"));
    v.insert("store.save_ms", dur("store.save"));
    v.insert("store.load_ms", dur("store.load"));
    v.insert("store.artifact_bytes", c.get("store.artifact_bytes"));
    v.insert("session.ingest_ms", dur("session.ingest"));
    v.insert("session.train_ms", dur("session.train"));
    v.insert("session.extract_ms", dur("session.extract"));
    v.insert("session.total_ms", total);
    v.insert("trace.layers_ms", total - residual);
    v.insert("trace.residual_ms", residual);
    v.insert("trace.residual_share", if total > 0.0 { residual / total } else { 0.0 });
    v
}

fn run_traced(o: &Options) -> Result<RunRecord, String> {
    // The trace runs sequentially so its spans nest on one thread and
    // add up; its untraced reference passes run at the same thread count.
    let cfg = session_pass::config(o.seed, 1);
    let corpus = Corpus::build(o.workload, o.seed, corpus::CORPUS_SEED, o.scale);
    let setup_sites = match o.workload {
        Workload::ServeHarvest => Some(session_pass::serve_setup(&corpus, &cfg)?),
        _ => None,
    };
    let (served, traced_setup) = match setup_sites {
        Some(sites) => {
            let served = session_pass::serve_reference(&corpus, sites);
            let setup = traced::serve_setup(&corpus, &cfg, &served.loaded)?;
            (Some(served), Some(setup))
        }
        None => (None, None),
    };
    let reference = served.as_ref().map(|s| s.reference.as_slice());
    let untraced = untraced_digest(o, &corpus)?;

    let mut pc = PassChecks::default();
    let mut traced_digests = Vec::new();
    let mut traced_unexpected = 0;
    let mut overheads = Vec::new();
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last_spans = Vec::new();
    let t_run = now();
    let mut pair_walls: Vec<f64> = Vec::new();
    while more_passes(&pair_walls, ms_since(t_run) / 1e3, o.seconds, 1) {
        let t_pair = now();
        let (pass, artifacts) =
            session_pass::pass(o.workload, &corpus, &cfg, served.as_ref(), true)?;
        pc.absorb(o.workload, &corpus, &pass, reference);
        let tp = match (&traced_setup, &served) {
            (Some(setup), Some(_)) => traced::serve_pass(&corpus, &cfg, setup),
            _ => traced::train_pass(&corpus, &cfg, &artifacts)?,
        };
        traced_digests.push(digest(&tp.sites).finish());
        traced_unexpected += unexpected(&corpus, &tp.sites).0;
        overheads.push(tp.wall_ms / pass.wall_ms - 1.0);
        let mut segments: Vec<(&[Span], &Counters)> = vec![(&tp.spans, &tp.counters)];
        if let Some(setup) = &traced_setup {
            segments.push((&setup.spans, &setup.counters));
        }
        for (name, value) in layer_values(&segments) {
            values.entry(name).or_default().push(value);
        }
        last_spans = tp.spans;
        pair_walls.push(ms_since(t_pair) / 1e3);
    }

    let session_digest = pc.digests[0];
    let mut rec = base_record(o, 1);
    rec.passes = overheads.len();
    rec.digest = format!("{session_digest:016x}");
    rec.attempted = pc.attempted;
    rec.failed = pc.unexpected + traced_unexpected;
    rec.checks = pc.checks();
    rec.checks.push(Check {
        name: "rebuild_matches_session".into(),
        ok: traced_digests.iter().all(|&d| d == session_digest),
        detail: format!("{} traced passes against the session API", traced_digests.len()),
    });
    rec.checks.push(Check {
        name: "digest_matches_untraced_run".into(),
        ok: untraced == session_digest,
        detail: format!("untraced pass at {} threads: {untraced:016x}", host::host_cores()),
    });
    values.insert("trace.overhead", overheads);
    values.insert("runtime.threads", vec![host::host_cores() as f64]);
    values.insert("runtime.host_cores", vec![host::host_cores() as f64]);
    for (name, unit) in PER_LAYER {
        let xs = values.get(name).cloned().unwrap_or_default();
        rec.metrics.push(MetricRecord::from_samples(name, unit, &xs));
    }
    if let (Some(dir), false) = (&o.out_dir, last_spans.is_empty()) {
        let path = dir.join(format!("{}-seed{}.spans.tsv", o.workload.name(), o.seed));
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::write(&path, trace::to_tsv(&last_spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(rec)
}

/// Write `rec` and read it back; the record must render the same again.
/// (Rendered text is compared, so a metric that is not a number, written
/// as `null` and read back as NaN, still counts as read back.)
fn persist(dir: &std::path::Path, rec: &RunRecord) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path =
        dir.join(format!("{}-seed{}-trace{}.json", rec.workload, rec.seed, u8::from(rec.trace)));
    let written = rec.render();
    std::fs::write(&path, written.clone() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if RunRecord::parse(&text)?.render() != written {
        return Err("the run record does not read back as written".to_string());
    }
    Ok(())
}
