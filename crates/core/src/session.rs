//! The streaming, train-once/extract-many site API.
//!
//! CERES's Figure-3 pipeline is two-phase by nature: distant supervision
//! trains per-template-cluster models once, then extraction applies them
//! to every page of the site. This module makes that split the API:
//!
//! ```text
//!  ingest                      train                      serve
//!  ──────                      ─────                      ─────
//!  SiteSession::push_page ──▶  finish_training()    ──▶   TrainedSite::extract_page
//!  (parse overlaps the         (Cluster ▸ Topic/Annotate  extract_batch / extract_view
//!   caller's fetch loop         ▸ Plan ▸ Train; freezes   (&self, thread-safe: many
//!   via a bounded reorder       models + template          callers extract concurrently,
//!   buffer)                     signatures)                no re-training, ever)
//! ```
//!
//! * **Ingest** — [`SiteSession::push_page`] collects pages into small
//!   parse micro-batches and hands each batch to the runtime's bounded
//!   reorder buffer ([`ceres_runtime::StreamMap`]): parsing runs on pool
//!   workers (one job and one shared KB [`MatchCache`] per batch) while
//!   the caller fetches/decompresses the next page, and parsed views
//!   surface in input order, so the session is byte-identical to batch
//!   parsing at every thread count and batch size.
//! * **Train** — [`SiteSession::finish_training`] runs the training-side
//!   stages once and freezes everything extraction needs: per-cluster
//!   `(LogReg, FeatureSpace, ClassMap)` triples plus the template
//!   signatures ([`Clustering`]) that place *unseen* pages into a cluster.
//! * **Serve** — [`TrainedSite`] is an immutable artifact: every method
//!   takes `&self`, so one trained site can serve many extracting threads
//!   simultaneously and indefinitely.
//!
//! [`run_site`](crate::pipeline::run_site) is this session run
//! back-to-back (ingest, train, extract). `tests/session.rs` pins its
//! output across thread counts and ingest-ahead caps.
//!
//! ## Fault isolation
//!
//! Real crawls contain poison: truncated markup, multi-megabyte attribute
//! blobs, absurd nesting, duplicate captures. The fail-fast paths above
//! (`push_page`, `extract_batch`) treat a panic as a bug and abort the
//! run; the **fault-isolated** siblings treat bad pages as data:
//!
//! * [`SiteSession::try_push_page`] / [`SiteSession::try_ingest`] vet each
//!   page against [`GuardConfig`] and
//!   **quarantine** violators with a typed [`PageError`] instead of
//!   feeding them to training — including pages whose parse *panics*.
//! * [`TrainedSite::try_extract_batch`] returns one [`ExtractOutcome`]
//!   per page, so serve callers distinguish "no facts" (`Ok(vec![])`)
//!   from "no template" ([`ExtractOutcome::Unassigned`]) from "page blew
//!   up" ([`ExtractOutcome::Failed`]).
//! * [`SessionHealth`] is the ledger: pages ok, quarantined-by-reason,
//!   and rolling assign-confidence stats. Like
//!   [`StageProfile`] it lives **beside**
//!   [`SiteRunStats`] — outside the equality contract and the artifact
//!   codec (a loaded site reports an empty ledger).
//! * [`DriftWatchdog`] watches the serve path's template-assignment
//!   outcomes and flips [`DriftSignal::RetrainSuggested`] when the
//!   unassigned rate over a rolling window crosses the configured
//!   threshold — the retrain trigger a mid-crawl site redesign needs.

use crate::annotate::{annotate_relations, AnnotationMode, PageAnnotation};
use crate::config::{CeresConfig, DriftConfig, ExtractConfig, GuardConfig};
use crate::examples::ClassMap;
use crate::extract::{extract_page, Extraction};
use crate::features::FeatureSpace;
use crate::page::PageView;
use crate::pipeline::{
    pool_jobs_now, AnnotationRecord, SiteRun, SiteRunStats, StageProfile, StageTime, StageTimer,
    TopicRecord, TrainFoldStats,
};
use crate::template::{cluster_site, Clustering};
use crate::topic::identify_topics;
use ceres_kb::{Kb, MatchCache};
use ceres_ml::LogReg;
use ceres_runtime::{auto_chunk_coarse, Runtime, StreamMap};
use ceres_store::{
    ArtifactReader, ArtifactWriter, Decode, Encode, Error as StoreError, Fnv64, Reader, Writer,
};
use std::io::{Read, Write};

// --- Fault isolation: the error taxonomy, health ledger, and watchdog ----

/// Why a page was quarantined by the fault-isolated ingest/serve paths
/// instead of being fed to the pipeline. Every variant carries enough to
/// explain the refusal in a log line; [`PageError::kind`] gives the stable
/// slug used for counting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// The raw HTML exceeded [`GuardConfig::max_page_bytes`] — refused
    /// before parsing (a multi-megabyte attribute blob is not worth the
    /// allocation).
    OversizedPage { bytes: usize, limit: usize },
    /// The page parsed to a DOM with no text fields at all: nothing to
    /// match, train on, or extract from.
    EmptyDom,
    /// The parsed DOM nests deeper than [`GuardConfig::max_dom_depth`]
    /// (the tolerant parser accepts any nesting; downstream consumers
    /// should not have to).
    ParseDepthExceeded { depth: usize, limit: usize },
    /// A page with this id was already ingested in the same session.
    DuplicateId { id: String },
    /// The parse/match pipeline panicked on this page; the panic was
    /// contained and its message captured.
    Panicked { message: String },
}

impl PageError {
    /// Stable one-word slug per variant (quarantine counters, CLI output).
    pub fn kind(&self) -> &'static str {
        match self {
            PageError::OversizedPage { .. } => "oversized",
            PageError::EmptyDom => "empty-dom",
            PageError::ParseDepthExceeded { .. } => "parse-depth",
            PageError::DuplicateId { .. } => "duplicate-id",
            PageError::Panicked { .. } => "panicked",
        }
    }

    /// Every slug [`PageError::kind`] can produce, in taxonomy order.
    pub const KINDS: [&'static str; 5] =
        ["oversized", "empty-dom", "parse-depth", "duplicate-id", "panicked"];
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::OversizedPage { bytes, limit } => {
                write!(f, "page is {bytes} bytes (guard limit {limit})")
            }
            PageError::EmptyDom => write!(f, "page parsed to a DOM with no text fields"),
            PageError::ParseDepthExceeded { depth, limit } => {
                write!(f, "DOM nests {depth} deep (guard limit {limit})")
            }
            PageError::DuplicateId { id } => {
                write!(f, "page id {id:?} was already ingested in this session")
            }
            PageError::Panicked { message } => write!(f, "page processing panicked: {message}"),
        }
    }
}

impl std::error::Error for PageError {}

/// Marker honored by the test-only `fault-inject` feature: when a page's
/// HTML contains this string, the guarded build paths panic instead of
/// parsing — letting seeded fault plans prove panic containment
/// end-to-end. Without the feature the marker is inert (generators embed
/// it in an HTML comment, which the parser skips), so the same corpus is
/// valid input for clean builds.
pub const FAULT_PANIC_MARKER: &str = "ceres:fault=panic";

/// Ingest/serve health report: what the fault-isolated paths accepted,
/// what they quarantined and why, and (after
/// [`SessionHealth::absorb_watchdog`]) the serve path's rolling
/// assign-confidence stats.
///
/// Deliberately carried **beside** [`SiteRunStats`] — outside the equality
/// contract the thread-invariance suites compare and outside the artifact
/// codec (like [`StageProfile`]): the
/// ledger describes one process's ingest history, not the trained model,
/// so a [`TrainedSite`] loaded from disk reports an empty ledger.
#[derive(Debug, Clone, Default)]
pub struct SessionHealth {
    /// Pages that survived ingest vetting and reached training.
    pub pages_ok: usize,
    /// Quarantined pages in discovery order: `(page id, why)`.
    pub quarantine: Vec<(String, PageError)>,
    /// Serve-path pages observed by an absorbed [`DriftWatchdog`].
    pub assign_observed: usize,
    /// …of which matched no trained template.
    pub assign_unassigned: usize,
    /// Sum of the near-miss similarities of unassigned pages (mean via
    /// [`SessionHealth::mean_near_miss_sim`]).
    pub assign_near_sim_sum: f64,
}

impl SessionHealth {
    /// Number of quarantined pages.
    pub fn pages_quarantined(&self) -> usize {
        self.quarantine.len()
    }

    /// Quarantine counts per [`PageError::kind`] slug, in taxonomy order
    /// (zero-count kinds included, so output columns are stable).
    pub fn quarantined_by_reason(&self) -> [(&'static str, usize); 5] {
        let mut out = [("", 0usize); 5];
        for (slot, kind) in out.iter_mut().zip(PageError::KINDS) {
            *slot = (kind, self.quarantine.iter().filter(|(_, e)| e.kind() == kind).count());
        }
        out
    }

    /// Fraction of observed serve pages that matched no trained template
    /// (0 when nothing was observed).
    pub fn unassigned_rate(&self) -> f64 {
        if self.assign_observed == 0 {
            0.0
        } else {
            self.assign_unassigned as f64 / self.assign_observed as f64
        }
    }

    /// Mean best-similarity of the unassigned pages — how close the
    /// nearest template was on the misses (0 when there were none).
    pub fn mean_near_miss_sim(&self) -> f64 {
        if self.assign_unassigned == 0 {
            0.0
        } else {
            self.assign_near_sim_sum / self.assign_unassigned as f64
        }
    }

    /// Fold a watchdog's lifetime counters into this report (serve-side
    /// assign-confidence stats accumulate in the caller-owned
    /// [`DriftWatchdog`]; this merges them for one combined report).
    pub fn absorb_watchdog(&mut self, watchdog: &DriftWatchdog) {
        self.assign_observed += watchdog.observed();
        self.assign_unassigned += watchdog.unassigned_total();
        self.assign_near_sim_sum += watchdog.near_sim_sum();
    }

    fn note_quarantined(&mut self, id: String, why: PageError) {
        self.quarantine.push((id, why));
    }
}

/// What the [`DriftWatchdog`] currently advises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftSignal {
    /// The unassigned rate is below the configured threshold (or the
    /// window has too few samples to judge).
    Healthy,
    /// Over the last `window` observed pages, `unassigned_rate` matched no
    /// trained template — the site has likely drifted away from its
    /// training templates; retraining is suggested.
    RetrainSuggested { unassigned_rate: f64, window: usize },
}

impl DriftSignal {
    pub fn retrain_suggested(&self) -> bool {
        matches!(self, DriftSignal::RetrainSuggested { .. })
    }
}

/// Serve-path template-drift watchdog: a rolling window over
/// [`ExtractOutcome`]s (or raw assignment observations) that flips
/// [`DriftSignal::RetrainSuggested`] when the fraction of pages matching
/// no trained template crosses [`DriftConfig::max_unassigned_rate`].
///
/// The watchdog is **caller-owned** — [`TrainedSite`] stays immutable and
/// thread-shareable; each serving loop feeds its own watchdog from the
/// outcomes it receives ([`DriftWatchdog::observe_batch`]) and reacts to
/// the returned signal. [`ExtractOutcome::Failed`] pages are quarantine
/// material, not drift evidence, and are not counted.
#[derive(Debug, Clone)]
pub struct DriftWatchdog {
    cfg: DriftConfig,
    /// Rolling window of "matched no template" flags, oldest first.
    window: std::collections::VecDeque<bool>,
    unassigned_in_window: usize,
    observed: usize,
    unassigned_total: usize,
    near_sim_sum: f64,
}

impl DriftWatchdog {
    /// A watchdog with `cfg`'s thresholds. `window` is clamped to ≥ 1 and
    /// `min_samples` to `1..=window`: the window never holds more than
    /// `window` observations, so a larger `min_samples` could never fire.
    pub fn new(cfg: DriftConfig) -> DriftWatchdog {
        let window = cfg.window.max(1);
        let cfg = DriftConfig { window, min_samples: cfg.min_samples.clamp(1, window), ..cfg };
        DriftWatchdog {
            window: std::collections::VecDeque::with_capacity(cfg.window),
            cfg,
            unassigned_in_window: 0,
            observed: 0,
            unassigned_total: 0,
            near_sim_sum: 0.0,
        }
    }

    /// Record one raw assignment observation: did the page match a trained
    /// template, and (for misses) how close the nearest template was.
    /// Returns the signal after the observation.
    pub fn observe(&mut self, unassigned: bool, near_sim: Option<f64>) -> DriftSignal {
        if self.window.len() == self.cfg.window && self.window.pop_front() == Some(true) {
            self.unassigned_in_window -= 1;
        }
        self.window.push_back(unassigned);
        self.observed += 1;
        if unassigned {
            self.unassigned_in_window += 1;
            self.unassigned_total += 1;
            if let Some(sim) = near_sim {
                if !sim.is_nan() {
                    self.near_sim_sum += sim;
                }
            }
        }
        self.signal()
    }

    /// Record one serve outcome ([`ExtractOutcome::Failed`] is ignored —
    /// quarantine, not drift). Returns the signal afterwards.
    pub fn observe_outcome(&mut self, outcome: &ExtractOutcome) -> DriftSignal {
        match outcome {
            ExtractOutcome::Ok(_) => self.observe(false, None),
            ExtractOutcome::Unassigned { best_sim } => self.observe(true, Some(*best_sim)),
            ExtractOutcome::Failed(_) => self.signal(),
        }
    }

    /// [`DriftWatchdog::observe_outcome`] over a whole batch; returns the
    /// signal after the last outcome.
    pub fn observe_batch(&mut self, outcomes: &[ExtractOutcome]) -> DriftSignal {
        for outcome in outcomes {
            self.observe_outcome(outcome);
        }
        self.signal()
    }

    /// The current advice, judged over the rolling window. Never fires
    /// before [`DriftConfig::min_samples`] observations are in the window,
    /// and never fires on a NaN threshold.
    pub fn signal(&self) -> DriftSignal {
        let n = self.window.len();
        if n >= self.cfg.min_samples {
            let rate = self.unassigned_in_window as f64 / n as f64;
            if rate >= self.cfg.max_unassigned_rate {
                return DriftSignal::RetrainSuggested { unassigned_rate: rate, window: n };
            }
        }
        DriftSignal::Healthy
    }

    /// Unassigned fraction of the current window (0 when empty).
    pub fn window_unassigned_rate(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.unassigned_in_window as f64 / self.window.len() as f64
        }
    }

    /// Lifetime pages observed (not just the window).
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Lifetime pages that matched no trained template.
    pub fn unassigned_total(&self) -> usize {
        self.unassigned_total
    }

    /// Lifetime sum of near-miss similarities (see [`SessionHealth`]).
    pub fn near_sim_sum(&self) -> f64 {
        self.near_sim_sum
    }
}

/// Per-page result of the outcome-typed serve path
/// ([`TrainedSite::try_extract_page`] / [`TrainedSite::try_extract_batch`]):
/// distinguishes "extracted (possibly zero) facts" from "matched no
/// trained template" from "the page itself was refused or blew up".
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractOutcome {
    /// The page matched a trained template; these are its extractions
    /// (possibly empty — a matching page can simply contain no facts).
    /// Byte-identical to what [`TrainedSite::extract_batch`] would have
    /// contributed for this page.
    Ok(Vec<Extraction>),
    /// The page matched no *trained* template (nothing reached the
    /// similarity threshold, or the matched cluster trained no model);
    /// `best_sim` is the closest any template representative came — the
    /// drift watchdog's evidence.
    Unassigned { best_sim: f64 },
    /// The page was refused by a guard or its processing panicked.
    Failed(PageError),
}

impl ExtractOutcome {
    /// The extractions, when the page was served (`None` otherwise).
    pub fn extractions(&self) -> Option<&[Extraction]> {
        match self {
            ExtractOutcome::Ok(ex) => Some(ex),
            _ => None,
        }
    }
}

/// Render a caught panic payload (string payloads verbatim, anything else
/// a placeholder — same contract as `ceres_runtime::JobFault::message`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One cluster's frozen model: everything its extract tasks read.
struct ClusterModel {
    model: LogReg,
    space: FeatureSpace,
    class_map: ClassMap,
    n_train_examples: usize,
    n_features: usize,
    n_classes: usize,
}

/// Run the training side of the pipeline — Cluster → {Topic ▸ Annotate} →
/// Plan → Train — over the parsed training views (same stage order, same
/// ordered merges, so the output is byte-identical at every thread
/// count), and freeze the result into a [`TrainedSite`] that keeps the
/// views for [`TrainedSite::extract_training_pages`]. The caller fills in
/// the parse profile and the health ledger.
fn train_views_on<'kb>(
    rt: &Runtime,
    kb: &'kb Kb,
    views: Vec<PageView>,
    cfg: &CeresConfig,
    mode: AnnotationMode,
) -> TrainedSite<'kb> {
    let mut stats = SiteRunStats { n_annotation_pages: views.len(), ..Default::default() };
    let mut topic_records = Vec::new();
    let mut annotation_records = Vec::new();
    let mut profile = StageProfile::default();

    // --- Cluster stage: template clustering over the training pages
    // (site-wide, sequential). The representative signatures are kept so
    // unseen pages can be assigned to a cluster at serve time. ---
    let stage_t = StageTimer::start();
    let refs: Vec<&PageView> = views.iter().collect();
    let clustering = cluster_site(&refs, &cfg.template);
    stats.n_clusters = clustering.n_clusters();

    // Fix each cluster's work order up front (in cluster order).
    let mut plan_of_cluster: Vec<Option<usize>> = vec![None; clustering.n_clusters()];
    let mut plans: Vec<Vec<usize>> = Vec::new();
    for (ci, cluster) in clustering.clusters.iter().enumerate() {
        if !cluster.is_empty() && cluster.len() >= cfg.template.min_cluster_size {
            plan_of_cluster[ci] = Some(plans.len());
            plans.push(cluster.clone());
        }
    }
    let cluster_pages_of =
        |plan: &Vec<usize>| -> Vec<&PageView> { plan.iter().map(|&i| &views[i]).collect() };
    profile.cluster = stage_t.stop();

    // --- {Topic ▸ Annotate} stage: Algorithms 1 and 2, one concurrent job
    // per cluster (no cross-cluster state) ---
    let stage_t = StageTimer::start();
    struct ClusterAnnotations {
        topic_out: crate::topic::TopicOutcome,
        annotations: Vec<PageAnnotation>,
    }
    let mut annotated: Vec<ClusterAnnotations> = rt.par_map(&plans, |plan| {
        let pages = cluster_pages_of(plan);
        let topic_out = identify_topics(&pages, kb, &cfg.topic);
        let annotations = annotate_relations(&pages, kb, &topic_out, &cfg.annotate, mode);
        ClusterAnnotations { topic_out, annotations }
    });
    profile.annotate = stage_t.stop();

    // --- Plan stage: allocate Figure 5's annotated-pages budget across
    // clusters *before* training. Walking annotation counts in cluster
    // order reproduces exactly what consuming the budget inside a
    // sequential cluster loop produced, while leaving the Train jobs below
    // free of cross-cluster data flow.
    let stage_t = StageTimer::start();
    let mut annotated_budget = cfg.max_annotated_pages.unwrap_or(usize::MAX);
    for ca in &mut annotated {
        let granted = ca.annotations.len().min(annotated_budget);
        ca.annotations.truncate(granted);
        annotated_budget -= granted;
    }

    // Records for the evaluation harness (ordered merge: cluster order,
    // then page order within each cluster).
    for (plan, ca) in plans.iter().zip(&annotated) {
        let pages = cluster_pages_of(plan);
        let survived: std::collections::BTreeSet<usize> =
            ca.annotations.iter().map(|a| a.page_idx).collect();
        stats.n_pages_with_topic += ca.topic_out.assignments.iter().filter(|a| a.is_some()).count();
        for (k, page) in pages.iter().enumerate() {
            let assignment = ca.topic_out.assignments[k];
            topic_records.push(TopicRecord {
                page_id: page.page_id.clone(),
                topic: assignment.map(|(v, _)| kb.canonical(v).to_string()),
                name_gt_id: assignment.and_then(|(_, fi)| page.fields[fi].gt_id),
                survived: survived.contains(&k),
            });
        }
        for ann in &ca.annotations {
            let page = pages[ann.page_idx];
            for &(fi, pred) in &ann.labels {
                annotation_records.push(AnnotationRecord {
                    page_id: page.page_id.clone(),
                    gt_id: page.fields[fi].gt_id,
                    pred: kb.ontology().pred_name(pred).to_string(),
                });
            }
        }
        stats.n_annotated_pages += ca.annotations.len();
        stats.n_annotations += ca.annotations.iter().map(|a| a.labels.len()).sum::<usize>();
    }
    profile.plan = stage_t.stop();

    // --- Train stage: one concurrent job per cluster; budgets are already
    // fixed, so jobs are fully independent ---
    let stage_t = StageTimer::start();
    let cluster_ids: Vec<usize> = (0..plans.len()).collect();
    let trained: Vec<(Option<ClusterModel>, TrainFoldStats)> = rt.par_map(&cluster_ids, |&ci| {
        let ca = &annotated[ci];
        if ca.annotations.len() < 2 {
            return (None, TrainFoldStats::default());
        }
        let class_map = ClassMap::from_annotations(&ca.annotations);
        if class_map.preds().is_empty() {
            return (None, TrainFoldStats::default());
        }
        let pages = cluster_pages_of(&plans[ci]);
        let mut space = FeatureSpace::new(&pages, cfg.features.clone());
        // Nested fan-out: name collection for this cluster's rows runs on
        // the same pool (the caller-participates pool makes the nesting
        // deadlock-free), so a single-cluster site still parallelizes its
        // training feature pass.
        let data = crate::examples::build_training_on(
            rt,
            &pages,
            &ca.annotations,
            &mut space,
            &class_map,
            cfg.negative_ratio,
            cfg.seed,
            cfg.list_exclusion,
        );
        if data.is_empty() {
            return (None, TrainFoldStats::default());
        }
        let (model, train_stats) = LogReg::train_on(rt, &data, &cfg.train);
        space.freeze();
        let fold = TrainFoldStats {
            n_examples: train_stats.n_examples,
            n_unique_rows: train_stats.n_unique_rows,
        };
        let cm = ClusterModel {
            model,
            space,
            class_map,
            n_train_examples: data.len(),
            n_features: data.n_features,
            n_classes: data.n_classes,
        };
        (Some(cm), fold)
    });
    let mut fold = TrainFoldStats::default();
    let mut models: Vec<Option<ClusterModel>> = Vec::with_capacity(trained.len());
    for (cm, f) in trained {
        fold.n_examples += f.n_examples;
        fold.n_unique_rows += f.n_unique_rows;
        models.push(cm);
    }
    for cm in models.iter().flatten() {
        stats.n_train_examples += cm.n_train_examples;
        stats.n_features = stats.n_features.max(cm.n_features);
        stats.n_classes = stats.n_classes.max(cm.n_classes);
        stats.trained = true;
    }
    profile.train = stage_t.stop();

    TrainedSite {
        kb,
        rt: *rt,
        clustering,
        plans,
        plan_of_cluster,
        models,
        stats,
        topic_records,
        annotation_records,
        extract_cfg: cfg.extract.clone(),
        profile,
        fold,
        train_views: views,
        health: SessionHealth::default(),
        guards: cfg.guards.clone(),
        drift: cfg.drift.clone(),
    }
}

impl Encode for ClusterModel {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.model);
        w.put(&self.space);
        w.put(&self.class_map);
        w.put_usize(self.n_train_examples);
        w.put_usize(self.n_features);
        w.put_usize(self.n_classes);
    }
}

impl Decode for ClusterModel {
    fn decode(r: &mut Reader<'_>) -> Result<ClusterModel, StoreError> {
        const CTX: &str = "cluster model";
        Ok(ClusterModel {
            model: r.get()?,
            space: r.get()?,
            class_map: r.get()?,
            n_train_examples: r.get_usize(CTX)?,
            n_features: r.get_usize(CTX)?,
            n_classes: r.get_usize(CTX)?,
        })
    }
}

// --- The on-disk artifact format -----------------------------------------
//
// magic + format version, then checksummed sections in fixed order. The
// section split is the error-message granularity: a flipped bit reports
// *which* part of the artifact is damaged.

/// File magic of a serialized [`TrainedSite`].
pub const ARTIFACT_MAGIC: [u8; 8] = *b"CERES-TS";
/// Newest artifact format this build reads and the version it writes.
pub const ARTIFACT_VERSION: u32 = 1;

const SEC_KB: (u8, &str) = (1, "kb fingerprint");
const SEC_CONFIG: (u8, &str) = (2, "extract config");
const SEC_CLUSTERING: (u8, &str) = (3, "clustering");
const SEC_PLANS: (u8, &str) = (4, "plans");
const SEC_MODELS: (u8, &str) = (5, "models");
const SEC_STATS: (u8, &str) = (6, "stats");
const SEC_RECORDS: (u8, &str) = (7, "records");

/// Identity of the KB a site was trained against: ontology shape (type
/// and predicate names, subject types, multi-valued flags), every value's
/// canonical name, and every triple. Serving against a *different* KB
/// would silently produce garbage — predicate ids and value ids baked
/// into the artifact would point at the wrong things — so
/// [`TrainedSite::load`] refuses on mismatch. One streaming FNV-1a pass,
/// linear in KB size, paid once per save/load.
fn kb_fingerprint(kb: &Kb) -> u64 {
    let mut h = Fnv64::new();
    let o = kb.ontology();
    h.write_u64(o.n_types() as u64);
    for t in 0..o.n_types() {
        h.write_str(o.type_name(ceres_kb::EntityTypeId(t as u16)));
    }
    h.write_u64(o.n_preds() as u64);
    for p in o.pred_ids() {
        let def = o.pred(p);
        h.write_str(&def.name);
        h.write_u64(u64::from(def.subject_type.0));
        h.write_u64(u64::from(def.multi_valued));
    }
    h.write_u64(kb.n_values() as u64);
    for v in 0..kb.n_values() {
        h.write_str(kb.canonical(ceres_kb::ValueId(v as u32)));
    }
    h.write_u64(kb.n_triples() as u64);
    for t in kb.triples() {
        h.write_u64(u64::from(t.subject.0));
        h.write_u64(u64::from(t.pred.0));
        h.write_u64(u64::from(t.object.0));
    }
    h.finish()
}

/// Builds a [`SiteSession`]; obtained from [`SiteSession::builder`].
pub struct SiteSessionBuilder<'kb> {
    kb: &'kb Kb,
    cfg: CeresConfig,
    mode: AnnotationMode,
}

impl<'kb> SiteSessionBuilder<'kb> {
    /// Use `cfg` for every stage (defaults to [`CeresConfig::default`]).
    pub fn config(mut self, cfg: CeresConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Annotation mode for training (defaults to [`AnnotationMode::Full`]).
    pub fn mode(mut self, mode: AnnotationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Open the session.
    pub fn build(self) -> SiteSession<'kb> {
        let rt = Runtime::with_threads(self.cfg.threads);
        let cap = self.cfg.ingest_ahead.unwrap_or_else(|| (rt.threads() * 2).max(1));
        let kb = self.kb;
        let guards = self.cfg.guards.clone();
        // One stream serves both ingest flavors. Each item is a parse
        // micro-batch sharing one read-through MatchCache (field strings
        // repeat heavily across a template site's pages), so one pool job
        // amortizes its dispatch over several pages — the fix for parse's
        // one-job-per-page parallel regression on low-core hosts.
        // Unguarded pages (legacy `push_page`) parse exactly as before —
        // no guards, and a parse panic re-raises fail-fast on the popping
        // thread. Guarded pages (`try_push_page`) are vetted, with panics
        // contained into a typed quarantine entry instead of unwinding the
        // session. A contained panic can only fire before matching (guard
        // checks, the parse itself, the injected fault marker), so the
        // shared cache is never caught mid-mutation — and being
        // read-through over the immutable KB, it cannot change any result
        // either way.
        let parser = move |batch: IngestBatch| -> IngestBatchResult {
            let mut cache = MatchCache::new(kb, INGEST_MATCH_CACHE_CAP);
            batch
                .into_iter()
                .map(|(id, html, guarded)| {
                    if !guarded {
                        return Ok(PageView::build_with_cache(&id, &html, kb, &mut cache));
                    }
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        PageView::try_build_with_cache(&id, &html, kb, &guards, &mut cache)
                    })) {
                        Ok(Ok(view)) => Ok(view),
                        Ok(Err(why)) => Err((id, why)),
                        Err(payload) => Err((
                            id,
                            PageError::Panicked { message: panic_message(payload.as_ref()) },
                        )),
                    }
                })
                .collect()
        };
        SiteSession {
            kb,
            cfg: self.cfg,
            mode: self.mode,
            // The coarse autotuner's asymptote: a stream has no known item
            // count, so size batches as auto_chunk_coarse sizes chunks for
            // an unbounded input. Batch size never affects output (the
            // stream preserves input order and the cache is read-through),
            // only job granularity.
            batch_size: auto_chunk_coarse(usize::MAX, rt.threads()),
            rt,
            stream: StreamMap::new(&rt, cap, parser),
            pending: Vec::new(),
            in_flight_pages: 0,
            views: Vec::new(),
            health: SessionHealth::default(),
            seen_ids: std::collections::HashSet::new(),
            parse_ms: 0.0,
            jobs_at_open: pool_jobs_now(),
        }
    }
}

/// `(page id, html, guarded)` — one page of an ingest micro-batch.
type IngestItem = (String, String, bool);
/// A parse micro-batch: the unit handed to the worker pool (one pool job
/// and one shared [`MatchCache`] per batch).
type IngestBatch = Vec<IngestItem>;
/// Parsed view, or `(page id, why)` for a guarded page that was refused.
type IngestResult = Result<PageView, (String, PageError)>;
/// Per-page outcomes of one micro-batch, in push order.
type IngestBatchResult = Vec<IngestResult>;

/// Capacity of the per-batch ingest [`MatchCache`] (distinct normalized
/// strings). Sized to hold every distinct field string a micro-batch of
/// template pages realistically produces; eviction beyond it is
/// deterministic FIFO and can only cost repeat lookups, never change one.
const INGEST_MATCH_CACHE_CAP: usize = 1 << 12;

/// The ingest/train phase of the streaming pipeline: pages are pushed in
/// as they arrive (parsing overlaps the caller's fetch loop), then
/// [`SiteSession::finish_training`] freezes a [`TrainedSite`].
///
/// Output depends only on the pages and their order: it is byte-identical
/// at every thread count and every [`CeresConfig::ingest_ahead`] cap (see
/// `tests/session.rs`).
pub struct SiteSession<'kb> {
    kb: &'kb Kb,
    cfg: CeresConfig,
    mode: AnnotationMode,
    rt: Runtime,
    stream: StreamMap<'kb, IngestBatch, IngestBatchResult>,
    /// Pages accepted but not yet submitted — the micro-batch being
    /// filled. Flushed every `batch_size` pages and at drain.
    pending: Vec<IngestItem>,
    /// Pages per parse micro-batch (see `SiteSessionBuilder::build`).
    batch_size: usize,
    /// Pages inside submitted, not-yet-absorbed batches (the stream
    /// counts items = batches; ingest accounting needs pages).
    in_flight_pages: usize,
    views: Vec<PageView>,
    /// Quarantine ledger of the fault-isolated ingest path (`pages_ok` is
    /// finalized by `finish_training`).
    health: SessionHealth,
    /// Ids ingested so far (both paths record; only `try_push_page`
    /// rejects duplicates).
    seen_ids: std::collections::HashSet<String>,
    /// Time this session has spent blocked on parsing (inside `push_page`
    /// and the final drain) — the streaming pipeline's visible parse cost;
    /// parse work overlapped with the caller's fetch loop is free and
    /// deliberately not charged here.
    parse_ms: f64,
    /// Pool-job counter at open, so the parse stage can report how many
    /// pool jobs ingest dispatched (ingest fully precedes training).
    jobs_at_open: u64,
}

impl<'kb> SiteSession<'kb> {
    /// Start building a session against `kb`.
    pub fn builder(kb: &Kb) -> SiteSessionBuilder<'_> {
        SiteSessionBuilder { kb, cfg: CeresConfig::default(), mode: AnnotationMode::Full }
    }

    /// Ingest one `(page id, html)` pair. Parsing is handed to the worker
    /// pool and this call returns as soon as the reorder buffer has room —
    /// fetch the next page while this one parses.
    ///
    /// This is the **fail-fast** path: no guards, no quarantine, and a
    /// parse panic unwinds out of the session (it signals a bug, not a bad
    /// page). Use [`SiteSession::try_push_page`] for hostile input.
    pub fn push_page(&mut self, id: impl Into<String>, html: impl Into<String>) {
        let id = id.into();
        self.seen_ids.insert(id.clone());
        self.push_item((id, html.into(), false));
    }

    /// Fault-isolated [`SiteSession::push_page`]: vet the page against the
    /// session's [`GuardConfig`] and **quarantine** it on violation
    /// instead of feeding it to training.
    ///
    /// Synchronously checkable refusals (duplicate id, oversized HTML)
    /// are returned here *and* recorded in the ledger; parse-dependent
    /// ones (empty DOM, excessive depth, a contained parse panic) are
    /// discovered when the page's parse job completes and appear only in
    /// [`SiteSession::health`]. `Ok(())` therefore means "accepted for
    /// parsing", not "will reach training".
    pub fn try_push_page(
        &mut self,
        id: impl Into<String>,
        html: impl Into<String>,
    ) -> Result<(), PageError> {
        let id = id.into();
        let html = html.into();
        if self.seen_ids.contains(&id) {
            let why = PageError::DuplicateId { id: id.clone() };
            self.health.note_quarantined(id, why.clone());
            return Err(why);
        }
        if html.len() > self.cfg.guards.max_page_bytes {
            let why = PageError::OversizedPage {
                bytes: html.len(),
                limit: self.cfg.guards.max_page_bytes,
            };
            self.seen_ids.insert(id.clone());
            self.health.note_quarantined(id, why.clone());
            return Err(why);
        }
        self.seen_ids.insert(id.clone());
        self.push_item((id, html, true));
        Ok(())
    }

    fn push_item(&mut self, item: IngestItem) {
        // lint: allow(CL002) reason="profiling channel only: parse_ms feeds the RunStats display and never touches the byte-identical pipeline output"
        let t0 = std::time::Instant::now();
        self.pending.push(item);
        if self.pending.len() >= self.batch_size {
            self.flush_pending();
        }
        self.parse_ms += t0.elapsed().as_secs_f64() * 1e3;
    }

    /// Submit the micro-batch being filled (no-op when empty). Batches
    /// enter the stream in push order and the stream preserves item
    /// order, so absorption order equals page push order — the byte-
    /// identity contract is untouched by batching.
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending);
        self.in_flight_pages += batch.len();
        if let Some(results) = self.stream.push(batch) {
            self.absorb_batch(results);
        }
    }

    fn absorb_batch(&mut self, results: IngestBatchResult) {
        self.in_flight_pages -= results.len();
        for result in results {
            self.absorb(result);
        }
    }

    fn absorb(&mut self, result: IngestResult) {
        match result {
            Ok(view) => self.views.push(view),
            Err((id, why)) => self.health.note_quarantined(id, why),
        }
    }

    /// Ingest every page of an iterator (a convenience loop over
    /// [`SiteSession::push_page`] — the iterator may be lazy, e.g. a
    /// fetcher or archive reader, and parsing overlaps its `next()`).
    pub fn ingest(&mut self, pages: impl IntoIterator<Item = (String, String)>) {
        for (id, html) in pages {
            self.push_page(id, html);
        }
    }

    /// Fault-isolated [`SiteSession::ingest`]: every page goes through
    /// [`SiteSession::try_push_page`]; bad pages are quarantined (see
    /// [`SiteSession::health`]) and ingest continues — one poison page
    /// never aborts a crawl.
    pub fn try_ingest(&mut self, pages: impl IntoIterator<Item = (String, String)>) {
        for (id, html) in pages {
            let _ = self.try_push_page(id, html);
        }
    }

    /// The session's health ledger so far. `pages_ok` stays 0 until
    /// [`SiteSession::finish_training`] (pages still in flight can yet be
    /// quarantined); the quarantine entries are live.
    pub fn health(&self) -> &SessionHealth {
        &self.health
    }

    /// Pages ingested so far (parsed, in a submitted batch, or waiting in
    /// the batch being filled).
    pub fn pages_ingested(&self) -> usize {
        self.views.len() + self.in_flight_pages + self.pending.len()
    }

    /// The session's resolved runtime (thread count etc.).
    pub fn runtime(&self) -> Runtime {
        self.rt
    }

    /// Close ingest and run the training side of the pipeline — Cluster →
    /// {Topic ▸ Annotate} → Plan → Train — freezing per-cluster models and
    /// the template signatures that let the returned [`TrainedSite`]
    /// place pages it has never seen.
    pub fn finish_training(mut self) -> TrainedSite<'kb> {
        // lint: allow(CL002) reason="profiling channel only: parse_ms feeds the RunStats display and never touches the byte-identical pipeline output"
        let t0 = std::time::Instant::now();
        self.flush_pending();
        let drained = self.stream.drain();
        for results in drained {
            self.absorb_batch(results);
        }
        self.parse_ms += t0.elapsed().as_secs_f64() * 1e3;
        let parse = StageTime {
            ms: self.parse_ms,
            pool_jobs: pool_jobs_now().saturating_sub(self.jobs_at_open),
        };
        self.health.pages_ok = self.views.len();
        let mut site = train_views_on(&self.rt, self.kb, self.views, &self.cfg, self.mode);
        site.profile.parse = parse;
        site.health = self.health;
        site
    }
}

/// The frozen serve-phase artifact: per-cluster models plus template
/// signatures. Every method takes `&self` and all state is immutable, so
/// a `TrainedSite` can be shared by reference across any number of
/// threads, each extracting from new pages concurrently — train once,
/// extract many, no re-training ever.
pub struct TrainedSite<'kb> {
    kb: &'kb Kb,
    rt: Runtime,
    clustering: Clustering,
    /// Trained-eligible clusters' page-index lists (cluster order).
    plans: Vec<Vec<usize>>,
    /// Sorted-cluster index → index into `plans`/`models` (clusters that
    /// failed the size filter map to `None`).
    plan_of_cluster: Vec<Option<usize>>,
    models: Vec<Option<ClusterModel>>,
    stats: SiteRunStats,
    topic_records: Vec<TopicRecord>,
    annotation_records: Vec<AnnotationRecord>,
    extract_cfg: ExtractConfig,
    /// Wall-time profile of the training stages that produced this site
    /// (all-zero when the site was loaded from an artifact — see
    /// [`StageProfile`]).
    profile: StageProfile,
    /// Duplicate-folding totals of the Train stage, summed over clusters
    /// (zeros when loaded from an artifact — see [`TrainFoldStats`]).
    fold: TrainFoldStats,
    /// The parsed training pages (empty after `load` or
    /// [`TrainedSite::take_training_views`]).
    train_views: Vec<PageView>,
    /// Ingest-side health ledger, carried beside the stats — outside the
    /// equality contract and the artifact codec (empty after `load`).
    health: SessionHealth,
    /// Guards the fault-isolated serve path applies (defaults after
    /// `load`; see [`TrainedSite::set_guards`]). Not serialized: limits
    /// describe the serving process, not the trained model.
    guards: GuardConfig,
    /// Drift thresholds [`TrainedSite::drift_watchdog`] hands out
    /// (defaults after `load`). Not serialized, same reason.
    drift: DriftConfig,
}

impl<'kb> TrainedSite<'kb> {
    /// Extract from one page **not seen at train time**: parse it, assign
    /// it to the best-matching template cluster, and apply that cluster's
    /// model. Pages matching no trained template yield no extractions.
    pub fn extract_page(&self, id: &str, html: &str) -> Vec<Extraction> {
        self.extract_view(&PageView::build(id, html, self.kb))
    }

    /// [`TrainedSite::extract_page`] over a pre-built view.
    pub fn extract_view(&self, view: &PageView) -> Vec<Extraction> {
        match self.model_for(view) {
            Some(cm) => extract_page(view, &cm.model, &cm.space, &cm.class_map, &self.extract_cfg),
            None => Vec::new(),
        }
    }

    /// The model serving `view`, via the template-assignment path.
    fn model_for(&self, view: &PageView) -> Option<&ClusterModel> {
        let ci = self.clustering.assign(view)?;
        let pi = self.plan_of_cluster[ci]?;
        self.models[pi].as_ref()
    }

    /// Extract from a batch of unseen pages: parse (borrowing the slice —
    /// no string copies) + assign + extract, one task per page on this
    /// site's runtime, results merged in page order (byte-identical at
    /// every thread count).
    pub fn extract_batch(&self, pages: &[(String, String)]) -> Vec<Extraction> {
        self.rt
            .par_map(pages, |(id, html)| self.extract_view(&PageView::build(id, html, self.kb)))
            .into_iter()
            .flatten()
            .collect()
    }

    /// Outcome-typed [`TrainedSite::extract_page`]: vet the page against
    /// this site's [`GuardConfig`], contain any panic, and report what
    /// happened per page instead of flattening everything into "no
    /// extractions". See [`ExtractOutcome`].
    pub fn try_extract_page(&self, id: &str, html: &str) -> ExtractOutcome {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.vet_and_extract(id, html)
        })) {
            Ok(outcome) => outcome,
            Err(payload) => ExtractOutcome::Failed(PageError::Panicked {
                message: panic_message(payload.as_ref()),
            }),
        }
    }

    /// Outcome-typed [`TrainedSite::extract_batch`]: one
    /// [`ExtractOutcome`] per input page, in input order, at every thread
    /// count. Runs on the runtime's panic-isolated map, so one poison page
    /// becomes [`ExtractOutcome::Failed`]`(`[`PageError::Panicked`]`)` in
    /// its slot while every other page is still served; on clean input the
    /// `Ok` outcomes concatenate to exactly what
    /// [`TrainedSite::extract_batch`] returns.
    ///
    /// Feed the returned outcomes to a [`DriftWatchdog`] to watch for
    /// template drift.
    pub fn try_extract_batch(&self, pages: &[(String, String)]) -> Vec<ExtractOutcome> {
        self.rt
            .par_map_isolated(pages, |(id, html)| self.vet_and_extract(id, html))
            .into_iter()
            .map(|slot| match slot {
                Ok(outcome) => outcome,
                Err(fault) => ExtractOutcome::Failed(PageError::Panicked {
                    message: fault.message().to_string(),
                }),
            })
            .collect()
    }

    fn vet_and_extract(&self, id: &str, html: &str) -> ExtractOutcome {
        match PageView::try_build(id, html, self.kb, &self.guards) {
            Ok(view) => self.try_extract_view(&view),
            Err(why) => ExtractOutcome::Failed(why),
        }
    }

    /// Outcome-typed [`TrainedSite::extract_view`]: the same assignment
    /// walk, but "matched no trained template" is reported as
    /// [`ExtractOutcome::Unassigned`] with the near-miss similarity
    /// instead of being flattened into an empty extraction list. Index
    /// walks use `get` so even a hostile artifact that slipped past load
    /// validation degrades to `Unassigned`, never a panic.
    fn try_extract_view(&self, view: &PageView) -> ExtractOutcome {
        let scored = self.clustering.assign_scored(view);
        let model = scored
            .cluster
            .and_then(|ci| self.plan_of_cluster.get(ci).copied().flatten())
            .and_then(|pi| self.models.get(pi).and_then(|m| m.as_ref()));
        match model {
            Some(cm) => ExtractOutcome::Ok(extract_page(
                view,
                &cm.model,
                &cm.space,
                &cm.class_map,
                &self.extract_cfg,
            )),
            None => ExtractOutcome::Unassigned { best_sim: scored.best_sim },
        }
    }

    /// The ingest-side health ledger of the session that trained this
    /// site (empty on a site loaded from an artifact — health describes a
    /// process, not the model, and never crosses the codec). Serve-side
    /// assign stats merge in via [`SessionHealth::absorb_watchdog`] on
    /// [`TrainedSite::health_mut`].
    pub fn health(&self) -> &SessionHealth {
        &self.health
    }

    /// Mutable access to the health ledger (merging watchdog stats,
    /// resetting between reporting windows).
    pub fn health_mut(&mut self) -> &mut SessionHealth {
        &mut self.health
    }

    /// A fresh [`DriftWatchdog`] configured with this site's
    /// [`DriftConfig`] — one per serving loop; the site itself stays
    /// immutable and thread-shareable.
    pub fn drift_watchdog(&self) -> DriftWatchdog {
        DriftWatchdog::new(self.drift.clone())
    }

    /// The guards [`TrainedSite::try_extract_batch`] applies.
    pub fn guards(&self) -> &GuardConfig {
        &self.guards
    }

    /// Override the serve-path guards (e.g. after [`TrainedSite::load`],
    /// which starts from [`GuardConfig::default`] — guard limits are an
    /// operational choice and deliberately not part of the artifact).
    pub fn set_guards(&mut self, guards: GuardConfig) {
        self.guards = guards;
    }

    /// Override the drift thresholds [`TrainedSite::drift_watchdog`] uses.
    pub fn set_drift(&mut self, drift: DriftConfig) {
        self.drift = drift;
    }

    /// Extract from the training pages themselves (the CommonCrawl
    /// whole-site protocol) using their recorded cluster **membership** —
    /// no re-assignment — one task per (cluster, page), merged in cluster
    /// order then page order. Returns nothing after
    /// [`TrainedSite::take_training_views`].
    pub fn extract_training_pages(&self) -> Vec<Extraction> {
        if self.train_views.is_empty() {
            return Vec::new();
        }
        // Each task carries its cluster's model directly: untrained
        // clusters are filtered out while the task is built, so the hot
        // closure below holds a `&ClusterModel` by construction instead of
        // re-deriving (and `expect`ing) it per page.
        let tasks: Vec<(&ClusterModel, &PageView)> = self
            .plans
            .iter()
            .zip(&self.models)
            .filter_map(|(plan, model)| model.as_ref().map(|cm| (plan, cm)))
            .flat_map(|(plan, cm)| plan.iter().map(move |&i| (cm, &self.train_views[i])))
            .collect();
        let extracted: Vec<Vec<Extraction>> = self.rt.par_map(&tasks, |&(cm, page)| {
            extract_page(page, &cm.model, &cm.space, &cm.class_map, &self.extract_cfg)
        });
        extracted.into_iter().flatten().collect()
    }

    /// Release the parsed training pages, returning them to the caller
    /// (drop the result to free the memory). A long-lived serving
    /// artifact only needs the models and template signatures; the
    /// training views — the whole parsed corpus — are kept solely for
    /// [`TrainedSite::extract_training_pages`], which yields nothing once
    /// they are taken. Serving new pages is unaffected.
    pub fn take_training_views(&mut self) -> Vec<PageView> {
        std::mem::take(&mut self.train_views)
    }

    /// Which template cluster `view` would be served by, if any (an index
    /// into the training clustering, largest cluster first).
    pub fn assign(&self, view: &PageView) -> Option<usize> {
        self.clustering.assign(view)
    }

    /// Training-side statistics (`n_extraction_pages` is 0 until a
    /// [`SiteRun`] is assembled by [`TrainedSite::into_site_run`]).
    pub fn stats(&self) -> &SiteRunStats {
        &self.stats
    }

    /// Per-stage wall times of the training run that produced this site
    /// (`extract` is zero here — extraction happens after training; see
    /// [`SiteRun::profile`]). All-zero on a site loaded from an artifact:
    /// wall times are observations about a past process, not part of the
    /// model, so they are never serialized.
    pub fn profile(&self) -> &StageProfile {
        &self.profile
    }

    /// Duplicate-folding totals of the Train stage that produced this site
    /// (summed over per-cluster models). Zeros on a site loaded from an
    /// artifact: like wall times, folding counts describe a past training
    /// process and are never serialized — see [`TrainFoldStats`].
    pub fn fold_stats(&self) -> &TrainFoldStats {
        &self.fold
    }

    /// Topic decisions recorded during training (Table 7 input).
    pub fn topic_records(&self) -> &[TopicRecord] {
        &self.topic_records
    }

    /// Relation annotations recorded during training (Table 6 input).
    pub fn annotation_records(&self) -> &[AnnotationRecord] {
        &self.annotation_records
    }

    /// Number of pages the site was trained on.
    pub fn n_training_pages(&self) -> usize {
        self.train_views.len()
    }

    /// The KB this site was trained against.
    pub fn kb(&self) -> &'kb Kb {
        self.kb
    }

    /// Assemble a batch-style [`SiteRun`] from this site's training
    /// records plus `extractions` produced by the serve phase. The run
    /// carries this site's ingest/serve health ledger beside the stats.
    pub fn into_site_run(
        mut self,
        extractions: Vec<Extraction>,
        n_extraction_pages: usize,
    ) -> SiteRun {
        self.stats.n_extraction_pages = n_extraction_pages;
        SiteRun {
            extractions,
            topic_records: self.topic_records,
            annotation_records: self.annotation_records,
            stats: self.stats,
            profile: self.profile,
            fold: self.fold,
            health: self.health,
        }
    }

    /// Serialize this trained site into `sink` as a versioned, checksummed
    /// artifact (see [`ARTIFACT_MAGIC`]/[`ARTIFACT_VERSION`]). Everything
    /// the serve phase needs crosses the boundary — per-cluster models,
    /// feature spaces, class maps, template signatures, extract config —
    /// plus the training-side stats and records; the parsed training views
    /// deliberately do **not** (a serving artifact re-parses nothing).
    ///
    /// A site loaded from these bytes extracts **byte-identically** to
    /// `self` on any page, including `f64` confidences (floats are stored
    /// as exact bit patterns).
    pub fn save(&self, sink: &mut impl Write) -> Result<(), StoreError> {
        let mut aw = ArtifactWriter::new(sink, ARTIFACT_MAGIC, ARTIFACT_VERSION)?;
        aw.section(SEC_KB.0, |w| {
            w.put_varint(kb_fingerprint(self.kb));
            w.put_usize(self.kb.n_values());
            w.put_usize(self.kb.n_triples());
        })?;
        aw.section(SEC_CONFIG.0, |w| w.put(&self.extract_cfg))?;
        aw.section(SEC_CLUSTERING.0, |w| w.put(&self.clustering))?;
        aw.section(SEC_PLANS.0, |w| {
            w.put(&self.plans);
            w.put(&self.plan_of_cluster);
        })?;
        aw.section(SEC_MODELS.0, |w| w.put(&self.models))?;
        aw.section(SEC_STATS.0, |w| w.put(&self.stats))?;
        aw.section(SEC_RECORDS.0, |w| {
            w.put(&self.topic_records);
            w.put(&self.annotation_records);
        })?;
        aw.finish()
    }

    /// [`TrainedSite::save`] into a fresh byte vector.
    pub fn to_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let mut bytes = Vec::new();
        self.save(&mut bytes)?;
        Ok(bytes)
    }

    /// Load a trained site saved by [`TrainedSite::save`] — in this
    /// process or any other. The serve runtime is resolved from the
    /// environment ([`Runtime::from_env`]); use [`TrainedSite::load_on`]
    /// to pin it.
    ///
    /// `kb` must be the knowledge base the site was trained against (the
    /// artifact's predicate ids and template signatures only mean anything
    /// relative to it); a fingerprint check refuses mismatches with a
    /// descriptive error. Corrupted, truncated, or future-versioned bytes
    /// fail with a typed [`StoreError`] — never a panic.
    pub fn load(kb: &Kb, source: impl Read) -> Result<TrainedSite<'_>, StoreError> {
        TrainedSite::load_on(kb, Runtime::from_env(), source)
    }

    /// [`TrainedSite::load`] serving on a caller-chosen [`Runtime`].
    pub fn load_on(kb: &Kb, rt: Runtime, source: impl Read) -> Result<TrainedSite<'_>, StoreError> {
        let mut ar = ArtifactReader::new(source, ARTIFACT_MAGIC, ARTIFACT_VERSION)?;

        let payload = ar.section(SEC_KB.0, SEC_KB.1)?;
        let mut r = Reader::new(&payload);
        let fingerprint = r.get_varint(SEC_KB.1)?;
        let n_values = r.get_usize(SEC_KB.1)?;
        let n_triples = r.get_usize(SEC_KB.1)?;
        r.finish(SEC_KB.1)?;
        if fingerprint != kb_fingerprint(kb) {
            return Err(StoreError::Invalid {
                context: "kb fingerprint",
                detail: format!(
                    "artifact was trained against a different KB \
                     ({n_values} values / {n_triples} triples at save time; \
                      this KB has {} / {})",
                    kb.n_values(),
                    kb.n_triples()
                ),
            });
        }

        let payload = ar.section(SEC_CONFIG.0, SEC_CONFIG.1)?;
        let mut r = Reader::new(&payload);
        let extract_cfg: ExtractConfig = r.get()?;
        r.finish(SEC_CONFIG.1)?;

        let payload = ar.section(SEC_CLUSTERING.0, SEC_CLUSTERING.1)?;
        let mut r = Reader::new(&payload);
        let clustering: Clustering = r.get()?;
        r.finish(SEC_CLUSTERING.1)?;

        let payload = ar.section(SEC_PLANS.0, SEC_PLANS.1)?;
        let mut r = Reader::new(&payload);
        let plans: Vec<Vec<usize>> = r.get()?;
        let plan_of_cluster: Vec<Option<usize>> = r.get()?;
        r.finish(SEC_PLANS.1)?;

        let payload = ar.section(SEC_MODELS.0, SEC_MODELS.1)?;
        let mut r = Reader::new(&payload);
        let models: Vec<Option<ClusterModel>> = r.get()?;
        r.finish(SEC_MODELS.1)?;

        let payload = ar.section(SEC_STATS.0, SEC_STATS.1)?;
        let mut r = Reader::new(&payload);
        let stats: SiteRunStats = r.get()?;
        r.finish(SEC_STATS.1)?;

        let payload = ar.section(SEC_RECORDS.0, SEC_RECORDS.1)?;
        let mut r = Reader::new(&payload);
        let topic_records: Vec<TopicRecord> = r.get()?;
        let annotation_records: Vec<AnnotationRecord> = r.get()?;
        r.finish(SEC_RECORDS.1)?;

        // Cross-section consistency: every index the serve path follows
        // (assign → plan_of_cluster → models) must stay in bounds, so a
        // tampered artifact fails here instead of panicking mid-extract.
        if plan_of_cluster.len() != clustering.n_clusters() {
            return Err(StoreError::Invalid {
                context: "plans",
                detail: format!(
                    "plan table covers {} clusters, clustering has {}",
                    plan_of_cluster.len(),
                    clustering.n_clusters()
                ),
            });
        }
        if models.len() != plans.len() {
            return Err(StoreError::Invalid {
                context: "models",
                detail: format!("{} models for {} plans", models.len(), plans.len()),
            });
        }
        if let Some(bad) = plan_of_cluster.iter().flatten().find(|&&pi| pi >= plans.len()) {
            return Err(StoreError::Invalid {
                context: "plans",
                detail: format!("cluster maps to plan {bad} of {}", plans.len()),
            });
        }
        // Predicate ids inside the models only mean anything relative to
        // this KB's ontology — a checksum can be recomputed by a tamperer,
        // so bound them here rather than panicking in `pred_name` later.
        let n_preds = kb.ontology().n_preds();
        for cm in models.iter().flatten() {
            if let Some(bad) = cm.class_map.preds().iter().find(|p| usize::from(p.0) >= n_preds) {
                return Err(StoreError::Invalid {
                    context: "class map",
                    detail: format!("predicate id {bad} out of range (KB has {n_preds})"),
                });
            }
            // Training always sizes the model off the feature space and
            // class map (`Dataset::new(class_map.n_classes(), dict.len())`),
            // so inequality here means a tampered models section — which
            // would otherwise serve silently wrong confidences (a feature
            // index walking into the intercept slot), not an error.
            if cm.space.dict.len() != cm.model.n_features() {
                return Err(StoreError::Invalid {
                    context: "cluster model",
                    detail: format!(
                        "feature dictionary has {} names but the model expects {} features",
                        cm.space.dict.len(),
                        cm.model.n_features()
                    ),
                });
            }
            if cm.class_map.n_classes() != cm.model.n_classes() {
                return Err(StoreError::Invalid {
                    context: "cluster model",
                    detail: format!(
                        "class map has {} classes but the model expects {}",
                        cm.class_map.n_classes(),
                        cm.model.n_classes()
                    ),
                });
            }
        }

        Ok(TrainedSite {
            kb,
            rt,
            clustering,
            plans,
            plan_of_cluster,
            models,
            stats,
            topic_records,
            annotation_records,
            extract_cfg,
            // Training ran in another process; its wall times and
            // folding counts did not cross the artifact boundary
            // (deliberately — see `StageProfile` / `TrainFoldStats`).
            profile: StageProfile::default(),
            fold: TrainFoldStats::default(),
            // The parsed training corpus never crosses the process
            // boundary: extract_training_pages() on a loaded site is empty.
            train_views: Vec::new(),
            // Health describes the training process, guards and drift
            // thresholds the serving process; none are model state, so
            // none cross the artifact boundary (like StageProfile).
            health: SessionHealth::default(),
            guards: GuardConfig::default(),
            drift: DriftConfig::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_kb::{KbBuilder, Ontology};

    type Pages = Vec<(String, String)>;

    /// A two-template site: detail pages (director + cast) and review
    /// pages (three critics), each template backed by its own predicates.
    fn two_template_world() -> (Kb, Pages, Pages) {
        let mut o = Ontology::new();
        let film = o.register_type("Film");
        let person = o.register_type("Person");
        let directed = o.register_pred("directedBy", film, true);
        let cast_p = o.register_pred("cast", film, true);
        let reviewed = o.register_pred("reviewedBy", film, true);
        let mut b = KbBuilder::new(o);
        for i in 0..8 {
            let f = b.entity(film, &format!("Great Movie {i}"));
            let d = b.entity(person, &format!("Director Person {i}"));
            b.triple(f, directed, d);
            for j in 0..3 {
                let a = b.entity(person, &format!("Star {i} {j}"));
                b.triple(f, cast_p, a);
                let r = b.entity(person, &format!("Critic Writer {i} {j}"));
                b.triple(f, reviewed, r);
            }
        }
        let kb = b.build();

        let detail = |i: usize| {
            format!(
                "<html><body><div class=nav><a>Home</a><a>Help</a></div>\
                 <h1 class=title>Great Movie {i}</h1>\
                 <div class=info><div class=row><span class=label>Director:</span>\
                 <span class=val>Director Person {i}</span></div></div>\
                 <div class=cast><h2>Cast</h2><ul>\
                 <li>Star {i} 0</li><li>Star {i} 1</li><li>Star {i} 2</li></ul></div>\
                 <div class=footer><span>terms</span><span>privacy</span><span>contact</span>\
                 <span>about</span><span>jobs</span><span>press</span></div></body></html>"
            )
        };
        let review = |i: usize| {
            format!(
                "<html><body><table class=rev><tr><th class=movie>Great Movie {i}</th></tr>\
                 <tr><td class=who>Critic Writer {i} 0</td><td class=when>2019</td></tr>\
                 <tr><td class=who>Critic Writer {i} 1</td><td class=when>2020</td></tr>\
                 <tr><td class=who>Critic Writer {i} 2</td><td class=when>2021</td></tr>\
                 <tr><td>blurb a</td><td>blurb b</td></tr>\
                 <tr><td>blurb c</td><td>blurb d</td></tr></table></body></html>"
            )
        };
        let details: Vec<(String, String)> =
            (0..8).map(|i| (format!("d-{i}"), detail(i))).collect();
        let reviews: Vec<(String, String)> =
            (0..8).map(|i| (format!("r-{i}"), review(i))).collect();
        (kb, details, reviews)
    }

    #[test]
    fn session_lifecycle_trains_and_serves_unseen_pages() {
        let (kb, details, reviews) = two_template_world();
        let mut session = SiteSession::builder(&kb)
            .config(CeresConfig::new(11))
            .mode(AnnotationMode::Full)
            .build();
        for (id, html) in details.iter().chain(reviews.iter()) {
            session.push_page(id.clone(), html.clone());
        }
        assert_eq!(session.pages_ingested(), 16);
        let trained = session.finish_training();
        assert!(trained.stats().trained, "both templates must train: {:?}", trained.stats());

        // An unseen detail page about a film the KB has never heard of.
        let ex = trained.extract_page(
            "d-new",
            "<html><body><div class=nav><a>Home</a><a>Help</a></div>\
             <h1 class=title>Totally Fresh Film</h1>\
             <div class=info><div class=row><span class=label>Director:</span>\
             <span class=val>Fresh Face</span></div></div>\
             <div class=cast><h2>Cast</h2><ul>\
             <li>New Star 0</li><li>New Star 1</li><li>New Star 2</li></ul></div>\
             <div class=footer><span>terms</span><span>privacy</span><span>contact</span>\
             <span>about</span><span>jobs</span><span>press</span></div></body></html>",
        );
        assert!(
            ex.iter().any(|e| e.object == "Fresh Face"),
            "detail model must extract the director: {ex:?}"
        );
    }

    #[test]
    fn unseen_pages_are_served_by_their_own_templates_model() {
        let (kb, details, reviews) = two_template_world();
        let mut session = SiteSession::builder(&kb).config(CeresConfig::new(11)).build();
        session.ingest(details.iter().cloned());
        session.ingest(reviews.iter().cloned());
        let trained = session.finish_training();

        let detail_view = PageView::build("d-x", &details[3].1, &kb);
        let review_view = PageView::build("r-x", &reviews[3].1, &kb);
        let cd = trained.assign(&detail_view).expect("detail page must match a cluster");
        let cr = trained.assign(&review_view).expect("review page must match a cluster");
        assert_ne!(cd, cr, "the two templates must map to different clusters");
        // Both clusters carry a trained model: the outcome-typed serve path
        // reports `Unassigned` for a cluster without one.
        for (id, html) in [("d-x", &details[3].1), ("r-x", &reviews[3].1)] {
            let outcome = trained.try_extract_page(id, html);
            assert!(matches!(outcome, ExtractOutcome::Ok(_)), "{id}: {outcome:?}");
        }
    }

    #[test]
    fn trained_site_serves_many_threads_concurrently() {
        let (kb, details, reviews) = two_template_world();
        let mut session = SiteSession::builder(&kb).config(CeresConfig::new(11)).build();
        session.ingest(details.iter().cloned());
        session.ingest(reviews.iter().cloned());
        let trained = session.finish_training();

        let reference: Vec<Vec<Extraction>> =
            details.iter().map(|(id, html)| trained.extract_page(id, html)).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for ((id, html), expect) in details.iter().zip(&reference) {
                        assert_eq!(&trained.extract_page(id, html), expect);
                    }
                });
            }
        });
    }

    #[test]
    fn taking_training_views_frees_serving_artifacts_without_breaking_serve() {
        let (kb, details, _) = two_template_world();
        let mut session = SiteSession::builder(&kb).config(CeresConfig::new(11)).build();
        session.ingest(details.iter().cloned());
        let mut trained = session.finish_training();
        let before = trained.extract_page(&details[0].0, &details[0].1);

        let views = trained.take_training_views();
        assert_eq!(views.len(), 8, "all parsed training pages are handed back");
        assert_eq!(trained.n_training_pages(), 0);
        assert!(trained.extract_training_pages().is_empty());
        // Serving unseen pages is unaffected by shedding the views.
        assert_eq!(trained.extract_page(&details[0].0, &details[0].1), before);
    }

    #[test]
    fn saved_and_loaded_site_serves_identically() {
        let (kb, details, reviews) = two_template_world();
        let mut session = SiteSession::builder(&kb).config(CeresConfig::new(11)).build();
        session.ingest(details.iter().cloned());
        session.ingest(reviews.iter().cloned());
        let trained = session.finish_training();

        let bytes = trained.to_bytes().expect("save");
        let loaded = TrainedSite::load(&kb, &bytes[..]).expect("load");

        // Training-side state crossed the boundary…
        assert_eq!(loaded.stats(), trained.stats());
        assert_eq!(loaded.topic_records(), trained.topic_records());
        assert_eq!(loaded.annotation_records(), trained.annotation_records());
        // …the parsed corpus did not.
        assert_eq!(loaded.n_training_pages(), 0);
        assert!(loaded.extract_training_pages().is_empty());

        // Serving is byte-identical, unseen pages and batches alike.
        for (id, html) in details.iter().chain(reviews.iter()) {
            assert_eq!(loaded.extract_page(id, html), trained.extract_page(id, html));
        }
        assert_eq!(loaded.extract_batch(&details), trained.extract_batch(&details));
    }

    #[test]
    fn save_is_deterministic() {
        let (kb, details, _) = two_template_world();
        let mut session = SiteSession::builder(&kb).config(CeresConfig::new(11)).build();
        session.ingest(details.iter().cloned());
        let trained = session.finish_training();
        assert_eq!(trained.to_bytes().unwrap(), trained.to_bytes().unwrap());
    }

    #[test]
    fn load_rejects_the_wrong_kb() {
        let (kb, details, _) = two_template_world();
        let mut session = SiteSession::builder(&kb).config(CeresConfig::new(11)).build();
        session.ingest(details.iter().cloned());
        let bytes = session.finish_training().to_bytes().unwrap();

        let other_kb = {
            let mut o = Ontology::new();
            let film = o.register_type("Film");
            o.register_pred("somethingElse", film, false);
            KbBuilder::new(o).build()
        };
        let Err(err) = TrainedSite::load(&other_kb, &bytes[..]) else {
            panic!("mismatched KB must be refused")
        };
        assert!(err.to_string().contains("different KB"), "{err}");
    }

    #[test]
    fn load_rejects_future_versions_and_corruption_without_panicking() {
        let (kb, details, _) = two_template_world();
        let mut session = SiteSession::builder(&kb).config(CeresConfig::new(11)).build();
        session.ingest(details.iter().cloned());
        let bytes = session.finish_training().to_bytes().unwrap();

        // Bumped format version (byte 8, right after the magic).
        let mut bumped = bytes.clone();
        bumped[8] = (ARTIFACT_VERSION + 1) as u8;
        let Err(err) = TrainedSite::load(&kb, &bumped[..]) else {
            panic!("future version must be refused")
        };
        assert!(
            matches!(err, ceres_store::Error::UnsupportedVersion { .. }),
            "bumped version gave {err}"
        );
        assert!(err.to_string().contains("version"), "{err}");

        // Wrong magic.
        let mut not_ours = bytes.clone();
        not_ours[0] = b'X';
        let Err(err) = TrainedSite::load(&kb, &not_ours[..]) else {
            panic!("wrong magic must be refused")
        };
        assert!(matches!(err, ceres_store::Error::BadMagic { .. }));

        // Every truncation fails cleanly.
        for cut in [0, 5, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(TrainedSite::load(&kb, &bytes[..cut]).is_err(), "cut {cut}");
        }

        // A flipped payload byte deep in the file trips a checksum.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        assert!(TrainedSite::load(&kb, &corrupt[..]).is_err());
    }

    #[test]
    fn tampered_artifact_with_valid_checksums_cannot_smuggle_foreign_pred_ids() {
        // A tamperer can recompute FNV checksums, so section integrity
        // alone cannot stop an out-of-range PredId from reaching
        // `pred_name` (which would panic). Rewrite the models section
        // with a fully re-framed artifact whose class map points past the
        // KB's ontology and demand a typed refusal.
        let (kb, details, _) = two_template_world();
        let mut session = SiteSession::builder(&kb).config(CeresConfig::new(11)).build();
        session.ingest(details.iter().cloned());
        let trained = session.finish_training();
        let bytes = trained.to_bytes().unwrap();

        // Pull every section payload out of the valid artifact.
        let mut ar = ArtifactReader::new(&bytes[..], ARTIFACT_MAGIC, ARTIFACT_VERSION).unwrap();
        let sections =
            [SEC_KB, SEC_CONFIG, SEC_CLUSTERING, SEC_PLANS, SEC_MODELS, SEC_STATS, SEC_RECORDS];
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for (tag, name) in sections {
            payloads.push(ar.section(tag, name).unwrap());
        }

        // Decode the models, swap in a class map whose predicate id is
        // far beyond this KB's ontology, and re-encode the section.
        let mut models: Vec<Option<ClusterModel>> =
            Reader::new(&payloads[4]).get().expect("decode models");
        let cm = models
            .iter_mut()
            .flatten()
            .next()
            .expect("the fixture trains at least one cluster model");
        let mut w = Writer::new();
        w.put_usize(1);
        w.put_varint(60_000); // PredId(60000): valid u16, foreign to the KB
        cm.class_map = Reader::new(w.as_bytes()).get().expect("craft class map");
        let mut w = Writer::new();
        w.put(&models);
        payloads[4] = w.into_bytes();

        // Re-frame the whole artifact — checksums recomputed, all valid.
        let mut tampered = Vec::new();
        let mut aw = ArtifactWriter::new(&mut tampered, ARTIFACT_MAGIC, ARTIFACT_VERSION).unwrap();
        for ((tag, _), payload) in sections.iter().zip(&payloads) {
            aw.section(*tag, |w| w.put_bytes(payload)).unwrap();
        }
        aw.finish().unwrap();

        let Err(err) = TrainedSite::load(&kb, &tampered[..]) else {
            panic!("foreign predicate id must be refused at load time");
        };
        assert!(err.to_string().contains("predicate id"), "{err}");
    }

    #[test]
    fn pages_matching_no_template_extract_nothing() {
        let (kb, details, _) = two_template_world();
        let mut session = SiteSession::builder(&kb).config(CeresConfig::new(11)).build();
        session.ingest(details.iter().cloned());
        let trained = session.finish_training();
        let ex = trained.extract_page(
            "alien",
            "<html><body><form><p>a</p><p>b</p><p>c</p><p>d</p><p>e</p></form></body></html>",
        );
        assert!(ex.is_empty(), "unmatched template must yield nothing: {ex:?}");
    }

    // --- Fault isolation -------------------------------------------------

    #[test]
    fn try_push_page_refuses_duplicates_and_oversized_synchronously() {
        let (kb, _, _) = two_template_world();
        let mut cfg = CeresConfig::new(11);
        cfg.guards.max_page_bytes = 256;
        let mut session = SiteSession::builder(&kb).config(cfg).build();

        assert!(session.try_push_page("a", "<p>Director Person 0</p>").is_ok());
        assert_eq!(
            session.try_push_page("a", "<p>again</p>"),
            Err(PageError::DuplicateId { id: "a".into() })
        );
        let over = session.try_push_page("b", format!("<p>{}</p>", "x".repeat(300)));
        assert!(
            matches!(over, Err(PageError::OversizedPage { bytes, limit: 256 }) if bytes > 256),
            "{over:?}"
        );
        // Oversized ids are recorded too: re-pushing "b" is a duplicate.
        assert_eq!(
            session.try_push_page("b", "<p>tiny</p>"),
            Err(PageError::DuplicateId { id: "b".into() })
        );

        let by = session.health().quarantined_by_reason();
        assert_eq!(by.iter().find(|(k, _)| *k == "duplicate-id").unwrap().1, 2);
        assert_eq!(by.iter().find(|(k, _)| *k == "oversized").unwrap().1, 1);
        assert_eq!(session.health().pages_quarantined(), 3);
    }

    #[test]
    fn parse_dependent_faults_quarantine_at_pop_without_aborting_training() {
        let (kb, details, _) = two_template_world();
        let mut cfg = CeresConfig::new(11);
        cfg.guards.max_dom_depth = 8;
        let mut session = SiteSession::builder(&kb).config(cfg).build();
        session.try_ingest(details.iter().cloned());
        // Both violations only reveal themselves after parsing, so the
        // push succeeds and the quarantine happens at pop.
        let deep = format!("{}deep{}", "<div>".repeat(20), "</div>".repeat(20));
        assert!(session.try_push_page("deep", deep).is_ok());
        assert!(session.try_push_page("blank", "").is_ok());

        let trained = session.finish_training();
        let health = trained.health();
        assert_eq!(health.pages_ok, details.len());
        assert_eq!(health.pages_quarantined(), 2);
        let by = health.quarantined_by_reason();
        assert_eq!(by.iter().find(|(k, _)| *k == "parse-depth").unwrap().1, 1);
        assert_eq!(by.iter().find(|(k, _)| *k == "empty-dom").unwrap().1, 1);
        assert!(trained.stats().trained, "survivors must still train");
    }

    #[test]
    fn quarantine_leaves_surviving_pages_byte_identical_to_a_clean_run() {
        let (kb, details, reviews) = two_template_world();
        let train = |poison: bool| {
            let mut session = SiteSession::builder(&kb).config(CeresConfig::new(11)).build();
            for (i, (id, html)) in details.iter().chain(reviews.iter()).enumerate() {
                assert!(session.try_push_page(id.clone(), html.clone()).is_ok());
                if poison && i % 3 == 0 {
                    assert!(session.try_push_page(format!("poison-{i}"), "").is_ok());
                }
            }
            session.finish_training()
        };
        let clean = train(false);
        let poisoned = train(true);
        assert_eq!(poisoned.health().pages_ok, details.len() + reviews.len());
        assert_eq!(poisoned.health().pages_quarantined(), 6);

        let pages: Vec<(String, String)> =
            (0..4).map(|i| (format!("s-{i}"), details[i].1.clone())).collect();
        assert_eq!(poisoned.extract_batch(&pages), clean.extract_batch(&pages));
    }

    #[test]
    fn try_extract_batch_types_outcomes_and_flattens_to_the_fail_fast_batch() {
        let (kb, details, reviews) = two_template_world();
        for threads in [1usize, 2, 8] {
            let mut cfg = CeresConfig::new(11);
            cfg.threads = Some(threads);
            let mut session = SiteSession::builder(&kb).config(cfg).build();
            session.ingest(details.iter().cloned());
            session.ingest(reviews.iter().cloned());
            let mut trained = session.finish_training();

            // On clean input the Ok outcomes concatenate to exactly the
            // fail-fast batch, at every thread count.
            let pages: Vec<(String, String)> =
                (0..8).map(|i| (format!("s-{i}"), details[i].1.clone())).collect();
            let outcomes = trained.try_extract_batch(&pages);
            assert_eq!(outcomes.len(), pages.len());
            let flattened: Vec<Extraction> =
                outcomes.iter().filter_map(|o| o.extractions()).flatten().cloned().collect();
            assert_eq!(flattened, trained.extract_batch(&pages), "threads={threads}");

            // A template-less page is typed, not silently empty.
            let alien = (
                "alien".to_string(),
                "<html><body><p>nothing like this site</p></body></html>".to_string(),
            );
            match &trained.try_extract_batch(std::slice::from_ref(&alien))[0] {
                ExtractOutcome::Unassigned { best_sim } => {
                    assert!((0.0..1.0).contains(best_sim), "best_sim={best_sim}")
                }
                other => panic!("expected Unassigned, got {other:?}"),
            }

            // A guard violation fails in its own slot; neighbors still serve.
            trained.set_guards(GuardConfig { max_page_bytes: 4096, ..GuardConfig::default() });
            let mixed =
                vec![pages[0].clone(), ("huge".to_string(), "y".repeat(8192)), pages[1].clone()];
            let out = trained.try_extract_batch(&mixed);
            assert!(
                matches!(out[1], ExtractOutcome::Failed(PageError::OversizedPage { .. })),
                "{:?}",
                out[1]
            );
            assert!(matches!(out[0], ExtractOutcome::Ok(_)));
            assert!(matches!(out[2], ExtractOutcome::Ok(_)));
        }
    }

    #[test]
    fn drift_watchdog_fires_on_sustained_unassigned_rate_and_recovers() {
        let cfg = DriftConfig { window: 8, min_samples: 4, max_unassigned_rate: 0.5 };
        let mut dog = DriftWatchdog::new(cfg);
        // Below min_samples nothing fires, however bad the evidence.
        for _ in 0..3 {
            assert_eq!(dog.observe(true, Some(0.4)), DriftSignal::Healthy);
        }
        // Fourth straight miss: the window is judgeable and fully missed.
        match dog.observe(true, Some(0.4)) {
            DriftSignal::RetrainSuggested { unassigned_rate, window } => {
                assert_eq!(unassigned_rate, 1.0);
                assert_eq!(window, 4);
            }
            DriftSignal::Healthy => panic!("watchdog must fire at 4/4 unassigned"),
        }
        // A healthy stretch rolls the misses out of the window.
        for _ in 0..8 {
            dog.observe(false, None);
        }
        assert_eq!(dog.signal(), DriftSignal::Healthy);
        assert_eq!(dog.window_unassigned_rate(), 0.0);
        // Lifetime counters survive the rollover.
        assert_eq!(dog.observed(), 12);
        assert_eq!(dog.unassigned_total(), 4);
        assert!((dog.near_sim_sum() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn drift_watchdog_clamps_min_samples_to_the_window() {
        // The window holds at most 8 flags, so an unclamped min_samples of
        // 32 would keep the watchdog silent forever.
        let cfg = DriftConfig { window: 8, min_samples: 32, max_unassigned_rate: 0.5 };
        let mut dog = DriftWatchdog::new(cfg);
        for _ in 0..8 {
            dog.observe(true, None);
        }
        assert_eq!(dog.signal(), DriftSignal::RetrainSuggested { unassigned_rate: 1.0, window: 8 });
    }

    #[test]
    fn drift_watchdog_counts_outcomes_but_not_failures() {
        let cfg = DriftConfig { window: 4, min_samples: 2, max_unassigned_rate: 0.5 };
        let mut dog = DriftWatchdog::new(cfg);
        let outcomes = vec![
            ExtractOutcome::Ok(Vec::new()),
            ExtractOutcome::Failed(PageError::EmptyDom),
            ExtractOutcome::Unassigned { best_sim: 0.25 },
            ExtractOutcome::Unassigned { best_sim: 0.35 },
        ];
        // Failed is quarantine material, not drift evidence: 2 of the 3
        // counted pages missed, over the 0.5 threshold.
        assert!(dog.observe_batch(&outcomes).retrain_suggested());
        assert_eq!(dog.observed(), 3);
        assert_eq!(dog.unassigned_total(), 2);
        assert!((dog.near_sim_sum() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn session_health_absorbs_watchdog_stats_and_reports_rates() {
        let mut dog = DriftWatchdog::new(DriftConfig::default());
        dog.observe(false, None);
        dog.observe(true, Some(0.5));
        dog.observe(true, Some(0.3));
        let mut health = SessionHealth::default();
        health.absorb_watchdog(&dog);
        assert_eq!(health.assign_observed, 3);
        assert_eq!(health.assign_unassigned, 2);
        assert!((health.unassigned_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((health.mean_near_miss_sim() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn site_run_carries_the_session_health_ledger() {
        let (kb, details, _) = two_template_world();
        let mut session = SiteSession::builder(&kb).config(CeresConfig::new(11)).build();
        session.try_ingest(details.iter().cloned());
        assert!(session.try_push_page("blank", "").is_ok());
        let trained = session.finish_training();
        let run = trained.into_site_run(Vec::new(), 0);
        assert_eq!(run.health.pages_ok, details.len());
        assert_eq!(run.health.pages_quarantined(), 1);
    }

    #[test]
    fn health_never_crosses_the_artifact_boundary() {
        let (kb, details, _) = two_template_world();
        let mut session = SiteSession::builder(&kb).config(CeresConfig::new(11)).build();
        session.try_ingest(details.iter().cloned());
        assert!(session.try_push_page("blank", "").is_ok());
        let trained = session.finish_training();
        assert_eq!(trained.health().pages_quarantined(), 1);
        let bytes = trained.to_bytes().expect("save");
        let loaded = TrainedSite::load(&kb, &bytes[..]).expect("load");
        assert_eq!(loaded.health().pages_ok, 0);
        assert_eq!(loaded.health().pages_quarantined(), 0);
    }
}
