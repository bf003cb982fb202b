//! The end-to-end site extractor (Figure 3): [`run_site`], the one-call
//! form of the streaming train-once/extract-many engine in
//! [`crate::session`], plus the records and profiles a site run produces.
//! The stages run on the deterministic [`ceres_runtime`] executor:
//!
//! ```text
//! Parse ──▶ Cluster ──▶ {Topic ▸ Annotate}   ──▶ Plan ──▶ Train  ──▶ Extract
//! (par,     (seq,       (par, one job per        (seq     (par,      (par, one task per
//!  stream)   site-wide)  template cluster)        budget   cluster)   page / (cluster,
//!                                                 alloc)              page) pair)
//! ```
//!
//! Every parallel stage merges its results in **input order** (cluster
//! order, then page order), so [`SiteRun`] output is byte-identical for
//! every thread count — the serial path at `threads = 1` and the parallel
//! path are the same computation, differently scheduled. The
//! `max_annotated_pages` budget, which would otherwise chain cluster jobs
//! sequentially, is allocated by the Plan stage over annotation *counts*
//! (in cluster order) before any training starts, so cluster jobs stay
//! independent.
//!
//! Training clusters the **annotation pages only**; extraction pages
//! (when given) are placed by the trained template signatures
//! ([`crate::template::Clustering::assign`]) — the same path
//! [`crate::session::TrainedSite::extract_page`] uses for pages that
//! arrive long after training: `run_site` is the streaming API run
//! back-to-back.
//!
//! CERES-FULL and CERES-TOPIC are this same pipeline run with
//! [`AnnotationMode::Full`] vs [`AnnotationMode::TopicOnly`].

pub use crate::annotate::AnnotationMode;
use crate::config::CeresConfig;
use crate::extract::Extraction;
use crate::session::SiteSession;
use ceres_kb::Kb;
use ceres_store::{Decode, Encode, Error as StoreError, Reader, Writer};

/// Topic decision for one annotation-half page (evaluation input for
/// Table 7).
#[derive(Debug, Clone, PartialEq)]
pub struct TopicRecord {
    pub page_id: String,
    /// Canonical name of the identified topic entity, if any.
    pub topic: Option<String>,
    /// Ground-truth id of the name field chosen, if any.
    pub name_gt_id: Option<u32>,
    /// Whether the page survived the informativeness filter.
    pub survived: bool,
}

/// One relation annotation (evaluation input for Table 6).
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationRecord {
    pub page_id: String,
    pub gt_id: Option<u32>,
    /// Predicate name (ontology string).
    pub pred: String,
}

/// Aggregate counters for one site run.
///
/// Counters are either **sums** over clusters (`n_*_pages`, `n_annotations`,
/// `n_train_examples`) or **maxima** (`n_features`, `n_classes`). Both are
/// commutative and associative, so every aggregate is well-defined no
/// matter which order concurrent cluster jobs complete in; the merge
/// additionally runs in fixed cluster order for byte-stable output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteRunStats {
    pub n_annotation_pages: usize,
    pub n_extraction_pages: usize,
    pub n_clusters: usize,
    pub n_pages_with_topic: usize,
    /// Pages that survived the informativeness filter (≥ min annotations).
    pub n_annotated_pages: usize,
    /// Total relation annotations on surviving pages.
    pub n_annotations: usize,
    pub n_train_examples: usize,
    /// Feature-space size of the **largest** per-cluster model (explicitly
    /// a max, not a sum: clusters train independent models over
    /// independent dictionaries, so summing dimensions is meaningless).
    pub n_features: usize,
    /// Class count of the largest per-cluster model (max, like
    /// [`SiteRunStats::n_features`]).
    pub n_classes: usize,
    /// Whether at least one cluster trained a model.
    pub trained: bool,
    /// The pairwise baseline sets this when it exceeds its memory budget
    /// (reproducing the paper's out-of-memory failure).
    pub oom: bool,
}

impl Encode for TopicRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.page_id);
        w.put(&self.topic);
        w.put(&self.name_gt_id);
        w.put_bool(self.survived);
    }
}

impl Decode for TopicRecord {
    fn decode(r: &mut Reader<'_>) -> Result<TopicRecord, StoreError> {
        Ok(TopicRecord {
            page_id: r.get_str("topic record page id")?,
            topic: r.get()?,
            name_gt_id: r.get()?,
            survived: r.get_bool("topic record survived flag")?,
        })
    }
}

impl Encode for AnnotationRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.page_id);
        w.put(&self.gt_id);
        w.put_str(&self.pred);
    }
}

impl Decode for AnnotationRecord {
    fn decode(r: &mut Reader<'_>) -> Result<AnnotationRecord, StoreError> {
        Ok(AnnotationRecord {
            page_id: r.get_str("annotation record page id")?,
            gt_id: r.get()?,
            pred: r.get_str("annotation record predicate")?,
        })
    }
}

impl Encode for SiteRunStats {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.n_annotation_pages);
        w.put_usize(self.n_extraction_pages);
        w.put_usize(self.n_clusters);
        w.put_usize(self.n_pages_with_topic);
        w.put_usize(self.n_annotated_pages);
        w.put_usize(self.n_annotations);
        w.put_usize(self.n_train_examples);
        w.put_usize(self.n_features);
        w.put_usize(self.n_classes);
        w.put_bool(self.trained);
        w.put_bool(self.oom);
    }
}

impl Decode for SiteRunStats {
    fn decode(r: &mut Reader<'_>) -> Result<SiteRunStats, StoreError> {
        const CTX: &str = "site run stats";
        Ok(SiteRunStats {
            n_annotation_pages: r.get_usize(CTX)?,
            n_extraction_pages: r.get_usize(CTX)?,
            n_clusters: r.get_usize(CTX)?,
            n_pages_with_topic: r.get_usize(CTX)?,
            n_annotated_pages: r.get_usize(CTX)?,
            n_annotations: r.get_usize(CTX)?,
            n_train_examples: r.get_usize(CTX)?,
            n_features: r.get_usize(CTX)?,
            n_classes: r.get_usize(CTX)?,
            trained: r.get_bool(CTX)?,
            oom: r.get_bool(CTX)?,
        })
    }
}

/// One stage's slice of the per-run wall-time profile.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTime {
    /// Wall time of the stage.
    pub ms: f64,
    /// Jobs the worker pool executed during the stage (pool utilization),
    /// counted in every build; 0 when the stage ran inline (one thread, or
    /// too little work to split). The counter is process-global, so
    /// concurrent sessions bleed into each other's counts, which is fine
    /// for the single-pipeline `repro --stats` use.
    pub pool_jobs: u64,
}

/// Per-stage wall-time profile of one site run: Parse → Cluster →
/// {Topic ▸ Annotate} → Plan → Train → Extract.
///
/// `parse` is the time the session spent *blocked* on parsing (inside
/// `push_page` and the final drain before training), not the total parse
/// work: parsing that overlapped the caller's page loop is free. For
/// [`run_site`], whose page loop only clones in-memory pages, nearly all
/// of the parse wall time is blocked time.
///
/// Deliberately **not** part of [`SiteRunStats`]: stats are compared for
/// byte-identity across thread counts (`tests/parallelism.rs`) and
/// serialized into the `TrainedSite` artifact, while wall times differ
/// run to run — so the profile lives *beside* the stats, outside both the
/// equality contract and the codec. An artifact loaded from disk reports
/// an all-zero profile (training happened in another process).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageProfile {
    pub parse: StageTime,
    pub cluster: StageTime,
    pub annotate: StageTime,
    pub plan: StageTime,
    pub train: StageTime,
    pub extract: StageTime,
}

impl StageProfile {
    /// The stages in pipeline order, labeled — the iteration every report
    /// (`repro --stats`) renders from.
    pub fn stages(&self) -> [(&'static str, StageTime); 6] {
        [
            ("parse", self.parse),
            ("cluster", self.cluster),
            ("annotate", self.annotate),
            ("plan", self.plan),
            ("train", self.train),
            ("extract", self.extract),
        ]
    }

    /// Wall time across all stages (the profiled fraction of the run).
    pub fn total_ms(&self) -> f64 {
        self.stages().iter().map(|(_, t)| t.ms).sum()
    }
}

/// Duplicate-row folding totals of the Train stage, summed over every
/// per-cluster model: how many training examples went in and how many
/// unique `(row, label)` rows the optimizer actually walked after folding
/// (see `ceres_ml::logreg`).
///
/// Like [`StageProfile`], this is deliberately **not** part of
/// [`SiteRunStats`]: it describes how training was *executed*, not what it
/// produced, so it lives beside the stats — outside the byte-identity
/// contract of `tests/parallelism.rs` and outside the `TrainedSite`
/// artifact codec (a loaded artifact reports zeros; folding happened in
/// the training process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainFoldStats {
    /// Training examples handed to the per-cluster trainers, summed.
    pub n_examples: usize,
    /// Unique rows after duplicate folding, summed over clusters.
    pub n_unique_rows: usize,
}

impl TrainFoldStats {
    /// Examples per unique row (≥ 1.0); 1.0 when nothing trained.
    pub fn fold_ratio(&self) -> f64 {
        if self.n_unique_rows == 0 {
            1.0
        } else {
            self.n_examples as f64 / self.n_unique_rows as f64
        }
    }
}

/// Pool jobs executed so far, process-wide.
pub(crate) fn pool_jobs_now() -> u64 {
    ceres_runtime::pool_stats().jobs_executed
}

/// Scope timer filling one [`StageTime`]: wall clock plus the pool-job
/// delta over the stage.
pub(crate) struct StageTimer {
    t0: std::time::Instant,
    jobs0: u64,
}

impl StageTimer {
    pub(crate) fn start() -> StageTimer {
        // lint: allow(CL002) reason="profiling channel only: StageTime durations feed RunStats display and never touch the byte-identical pipeline output"
        StageTimer { t0: std::time::Instant::now(), jobs0: pool_jobs_now() }
    }

    pub(crate) fn stop(self) -> StageTime {
        StageTime {
            ms: self.t0.elapsed().as_secs_f64() * 1e3,
            pool_jobs: pool_jobs_now().saturating_sub(self.jobs0),
        }
    }
}

/// Everything a site run produces.
#[derive(Debug, Default)]
pub struct SiteRun {
    pub extractions: Vec<Extraction>,
    pub topic_records: Vec<TopicRecord>,
    pub annotation_records: Vec<AnnotationRecord>,
    pub stats: SiteRunStats,
    /// Per-stage wall times of this run (not part of any equality or
    /// serialization contract — see [`StageProfile`]).
    pub profile: StageProfile,
    /// Train-stage duplicate-folding totals (execution detail, outside the
    /// equality and serialization contracts — see [`TrainFoldStats`]).
    pub fold: TrainFoldStats,
    /// Ingest/serve health ledger (quarantine, assign-confidence) of the
    /// session that produced the run — [`run_site`] included, whose ledger
    /// reports every ingested page as ok. Like `profile` and `fold` it
    /// lives beside the stats, outside both the equality contract and the
    /// artifact codec (see [`crate::session::SessionHealth`]).
    pub health: crate::session::SessionHealth,
}

/// Run the CERES pipeline on one website.
///
/// * `annotation_pages`: `(page id, html)` pairs used for distant
///   supervision (the training half).
/// * `extraction_pages`: pages to extract from; `None` extracts from the
///   annotation pages themselves (the CommonCrawl protocol, where the
///   whole site is both annotated and harvested).
///
/// This is the train-once/extract-many [`SiteSession`] run back-to-back:
/// ingest the annotation pages, [`SiteSession::finish_training`], then
/// serve the extraction pages with [`TrainedSite::extract_batch`] (or the
/// training pages with [`TrainedSite::extract_training_pages`]). Threads
/// come from `cfg.threads` (then `CERES_THREADS`, then the machine);
/// output is byte-identical for every thread count. The returned run
/// carries the session's health ledger (`pages_ok` = pages ingested).
///
/// [`TrainedSite::extract_batch`]: crate::session::TrainedSite::extract_batch
/// [`TrainedSite::extract_training_pages`]: crate::session::TrainedSite::extract_training_pages
pub fn run_site(
    kb: &Kb,
    annotation_pages: &[(String, String)],
    extraction_pages: Option<&[(String, String)]>,
    cfg: &CeresConfig,
    mode: AnnotationMode,
) -> SiteRun {
    let mut session = SiteSession::builder(kb).config(cfg.clone()).mode(mode).build();
    session.ingest(annotation_pages.iter().cloned());
    let trained = session.finish_training();
    let extract_t = StageTimer::start();
    let (extractions, n_ext) = match extraction_pages {
        Some(pages) => (trained.extract_batch(pages), pages.len()),
        None => (trained.extract_training_pages(), trained.n_training_pages()),
    };
    let extract = extract_t.stop();
    let mut run = trained.into_site_run(extractions, n_ext);
    run.profile.extract = extract;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_kb::{KbBuilder, Ontology};

    /// Build a small consistent site + KB and run the whole pipeline.
    fn small_site() -> (Kb, Vec<(String, String)>) {
        let mut o = Ontology::new();
        let film = o.register_type("Film");
        let person = o.register_type("Person");
        let directed = o.register_pred("directedBy", film, true);
        let cast_p = o.register_pred("cast", film, true);
        let genre_p = o.register_pred("genre", film, true);
        let mut b = KbBuilder::new(o);
        let genres = ["Drama", "Comedy", "Action"];
        // 12 films in the KB, site has 18 pages (6 about unknown films).
        for i in 0..12 {
            let f = b.entity(film, &format!("Great Movie {i}"));
            let d = b.entity(person, &format!("Director Person {i}"));
            b.triple(f, directed, d);
            let g = b.literal(genres[i % 3]);
            b.triple(f, genre_p, g);
            for j in 0..3 {
                let a = b.entity(person, &format!("Star {i} {j}"));
                b.triple(f, cast_p, a);
            }
        }
        let kb = b.build();

        let html = |i: usize| {
            let genre = genres[i % 3];
            format!(
                "<html><body><div class=nav><a>Home</a><a>Help</a></div>\
                 <h1 class=title>Great Movie {i}</h1>\
                 <div class=info>\
                 <div class=row><span class=label>Director:</span><span class=val>Director Person {i}</span></div>\
                 <div class=row><span class=label>Genre:</span><span class=val>{genre}</span></div>\
                 </div>\
                 <div class=cast><h2>Cast</h2><ul>\
                 <li>Star {i} 0</li><li>Star {i} 1</li><li>Star {i} 2</li></ul></div>\
                 <div class=recs><h3>Also like</h3><span class=rec>{genre}</span></div>\
                 </body></html>"
            )
        };
        let pages: Vec<(String, String)> =
            (0..18).map(|i| (format!("page-{i}"), html(i))).collect();
        (kb, pages)
    }

    #[test]
    fn full_pipeline_extracts_beyond_the_kb() {
        let (kb, pages) = small_site();
        let cfg = CeresConfig::new(11);
        let run = run_site(&kb, &pages, None, &cfg, AnnotationMode::Full);
        assert!(run.stats.trained, "model must train: {:?}", run.stats);
        assert!(run.stats.n_annotated_pages >= 8, "stats: {:?}", run.stats);
        // Extraction must cover films 12..17 (absent from the KB).
        let unknown_extractions = run
            .extractions
            .iter()
            .filter(|e| {
                e.page_id
                    .trim_start_matches("page-")
                    .parse::<usize>()
                    .map(|i| i >= 12)
                    .unwrap_or(false)
            })
            .count();
        assert!(unknown_extractions > 0, "no long-tail extractions");
    }

    #[test]
    fn topic_records_and_annotation_records_are_emitted() {
        let (kb, pages) = small_site();
        let cfg = CeresConfig::new(11);
        let run = run_site(&kb, &pages, None, &cfg, AnnotationMode::Full);
        assert_eq!(run.topic_records.len(), 18);
        assert!(run.annotation_records.len() >= 20);
        assert!(
            run.annotation_records.iter().all(|r| r.gt_id.is_none()),
            "hand-written test pages carry no data-gt; records must reflect that"
        );
    }

    #[test]
    fn split_halves_protocol_extracts_only_eval_pages() {
        let (kb, pages) = small_site();
        let train: Vec<(String, String)> = pages.iter().step_by(2).cloned().collect();
        let eval: Vec<(String, String)> = pages.iter().skip(1).step_by(2).cloned().collect();
        let cfg = CeresConfig::new(11);
        let run = run_site(&kb, &train, Some(&eval), &cfg, AnnotationMode::Full);
        let eval_ids: std::collections::HashSet<&str> =
            eval.iter().map(|(id, _)| id.as_str()).collect();
        assert!(!run.extractions.is_empty());
        assert!(run.extractions.iter().all(|e| eval_ids.contains(e.page_id.as_str())));
    }

    #[test]
    fn annotated_page_cap_limits_training() {
        let (kb, pages) = small_site();
        let mut cfg = CeresConfig::new(11);
        cfg.max_annotated_pages = Some(3);
        let run = run_site(&kb, &pages, None, &cfg, AnnotationMode::Full);
        assert!(run.stats.n_annotated_pages <= 3);
    }

    #[test]
    fn output_is_byte_identical_for_every_thread_count() {
        let (kb, pages) = small_site();
        let run_at = |threads: usize| {
            let cfg = CeresConfig::new(11).with_threads(threads);
            run_site(&kb, &pages, None, &cfg, AnnotationMode::Full)
        };
        let serial = run_at(1);
        assert!(serial.stats.trained);
        for threads in [2, 8] {
            let parallel = run_at(threads);
            assert_eq!(serial.stats, parallel.stats, "stats differ at {threads} threads");
            assert_eq!(serial.extractions, parallel.extractions);
            assert_eq!(serial.topic_records, parallel.topic_records);
            assert_eq!(serial.annotation_records, parallel.annotation_records);
        }
    }

    #[test]
    fn annotated_page_cap_is_thread_count_invariant() {
        // The budget plan must allocate identically whether cluster jobs
        // run sequentially or concurrently.
        let (kb, pages) = small_site();
        let run_at = |threads: usize| {
            let mut cfg = CeresConfig::new(11).with_threads(threads);
            cfg.max_annotated_pages = Some(5);
            run_site(&kb, &pages, None, &cfg, AnnotationMode::Full)
        };
        let serial = run_at(1);
        let parallel = run_at(8);
        assert!(serial.stats.n_annotated_pages <= 5);
        assert_eq!(serial.stats, parallel.stats);
        assert_eq!(serial.extractions, parallel.extractions);
    }

    #[test]
    fn topic_only_mode_produces_more_annotations() {
        let (kb, pages) = small_site();
        let cfg = CeresConfig::new(11);
        let full = run_site(&kb, &pages, None, &cfg, AnnotationMode::Full);
        let naive = run_site(&kb, &pages, None, &cfg, AnnotationMode::TopicOnly);
        assert!(naive.stats.n_annotations >= full.stats.n_annotations);
    }
}
