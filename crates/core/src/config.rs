//! All pipeline knobs, with defaults set "according to our empirical
//! observations … tend\[ing\] to a small value" (paper §3.1.2), matching the
//! concrete examples given in the text wherever one is given.

pub use ceres_ml::TrainConfig;
use ceres_store::{Decode, Encode, Error as StoreError, Reader, Writer};

/// Which Levenshtein distance drives the global XPath clustering
/// (§3.2.2 uses the character-level distance; step-level is an ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XPathDistance {
    /// Character-level Levenshtein over the rendered XPath (the paper's).
    Char,
    /// Step-level Levenshtein (each `tag[i]` is one symbol).
    Step,
}

/// Topic-identification knobs (Algorithm 1).
#[derive(Debug, Clone)]
pub struct TopicConfig {
    /// Uniqueness filter: discard a candidate identified as topic of at
    /// least this many pages (paper example: ≥ 5).
    pub max_pages_per_topic: usize,
    /// Only the most frequent N candidate paths are tried per page when
    /// locating the dominant topic field (performance guard).
    pub max_paths_considered: usize,
}

impl Default for TopicConfig {
    fn default() -> Self {
        TopicConfig { max_pages_per_topic: 5, max_paths_considered: 50 }
    }
}

/// Relation-annotation knobs (Algorithm 2).
#[derive(Debug, Clone)]
pub struct AnnotateConfig {
    /// Informativeness filter: drop pages with fewer relation annotations
    /// (paper example: ≥ 3).
    pub min_annotations_per_page: usize,
    /// A predicate is "frequently duplicated" when at least this fraction
    /// of its (page, object) occurrences have multiple mentions.
    pub freq_dup_threshold: f64,
    /// §3.2.2 case 2: clustering also applies when one object appears as a
    /// value on more than this fraction of annotated pages.
    pub common_object_page_frac: f64,
    pub distance: XPathDistance,
}

impl Default for AnnotateConfig {
    fn default() -> Self {
        AnnotateConfig {
            min_annotations_per_page: 3,
            freq_dup_threshold: 0.3,
            common_object_page_frac: 0.5,
            distance: XPathDistance::Char,
        }
    }
}

/// Feature-extraction knobs (§4.2).
#[derive(Debug, Clone)]
pub struct FeatureConfig {
    /// Sibling window width around ancestors ("up to a width of 5 on either
    /// side").
    pub sibling_width: usize,
    /// How far up the ancestor chain structural features reach.
    pub max_ancestor_levels: usize,
    /// A string is "frequent" if it appears on at least this fraction of
    /// annotated pages.
    pub frequent_string_page_frac: f64,
    /// Cap on the frequent-string lexicon size.
    pub max_frequent_strings: usize,
    /// How many ancestor levels up the nearby-text scan reaches.
    pub text_feature_levels: usize,
    /// Cap on nearby fields examined per node (performance guard).
    pub max_nearby_fields: usize,
    /// Ablation switches.
    pub enable_structural: bool,
    pub enable_text: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            sibling_width: 5,
            max_ancestor_levels: 8,
            frequent_string_page_frac: 0.25,
            max_frequent_strings: 60,
            text_feature_levels: 3,
            max_nearby_fields: 40,
            enable_structural: true,
            enable_text: true,
        }
    }
}

impl Encode for FeatureConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.sibling_width);
        w.put_usize(self.max_ancestor_levels);
        w.put_f64(self.frequent_string_page_frac);
        w.put_usize(self.max_frequent_strings);
        w.put_usize(self.text_feature_levels);
        w.put_usize(self.max_nearby_fields);
        w.put_bool(self.enable_structural);
        w.put_bool(self.enable_text);
    }
}

impl Decode for FeatureConfig {
    fn decode(r: &mut Reader<'_>) -> Result<FeatureConfig, StoreError> {
        const CTX: &str = "feature config";
        Ok(FeatureConfig {
            sibling_width: r.get_usize(CTX)?,
            max_ancestor_levels: r.get_usize(CTX)?,
            frequent_string_page_frac: r.get_f64(CTX)?,
            max_frequent_strings: r.get_usize(CTX)?,
            text_feature_levels: r.get_usize(CTX)?,
            max_nearby_fields: r.get_usize(CTX)?,
            enable_structural: r.get_bool(CTX)?,
            enable_text: r.get_bool(CTX)?,
        })
    }
}

/// Extraction-time knobs (§4.3).
#[derive(Debug, Clone)]
pub struct ExtractConfig {
    /// Confidence threshold for emitting a triple (paper default 0.5).
    pub threshold: f64,
    /// Minimum probability for accepting a name node on a page.
    pub name_threshold: f64,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig { threshold: 0.5, name_threshold: 0.5 }
    }
}

impl Encode for ExtractConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.threshold);
        w.put_f64(self.name_threshold);
    }
}

impl Decode for ExtractConfig {
    fn decode(r: &mut Reader<'_>) -> Result<ExtractConfig, StoreError> {
        const CTX: &str = "extract config";
        Ok(ExtractConfig { threshold: r.get_f64(CTX)?, name_threshold: r.get_f64(CTX)? })
    }
}

/// Template-clustering knobs (§2.1; the Vertex clustering of \[17\]).
#[derive(Debug, Clone)]
pub struct TemplateConfig {
    pub enabled: bool,
    /// Jaccard threshold on structural shingles for joining a cluster.
    pub sim_threshold: f64,
    /// Clusters smaller than this are skipped by the pipeline.
    pub min_cluster_size: usize,
}

impl Default for TemplateConfig {
    fn default() -> Self {
        TemplateConfig { enabled: true, sim_threshold: 0.35, min_cluster_size: 6 }
    }
}

/// Ingest/serve page guards: the structural limits a page must respect
/// before the fault-isolating paths ([`crate::session::SiteSession::try_push_page`],
/// [`crate::session::TrainedSite::try_extract_batch`]) will feed it to the
/// pipeline. Violations quarantine the page with a typed
/// [`crate::session::PageError`] instead of letting hostile markup consume
/// unbounded memory or stack. The legacy fail-fast paths (`push_page`,
/// `extract_batch`) apply no guards — their behavior is unchanged.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Pre-parse cap on a page's HTML byte length
    /// ([`crate::session::PageError::OversizedPage`] beyond it). Real
    /// CommonCrawl captures are overwhelmingly under a megabyte; hostile
    /// multi-megabyte attribute blobs are not worth parsing.
    pub max_page_bytes: usize,
    /// Post-parse cap on DOM nesting depth
    /// ([`crate::session::PageError::ParseDepthExceeded`] beyond it).
    /// The tolerant parser accepts absurd nesting without erroring; the
    /// recursive consumers downstream should never see it.
    pub max_dom_depth: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig { max_page_bytes: 1 << 20, max_dom_depth: 128 }
    }
}

/// Drift-watchdog knobs (see [`crate::session::DriftWatchdog`]): when the
/// fraction of recently served pages that matched **no trained template**
/// crosses `max_unassigned_rate` over a rolling `window`, the watchdog
/// flips [`crate::session::DriftSignal::RetrainSuggested`] — the serve-side
/// hook for detecting a mid-crawl site redesign.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Rolling-window length, in observed pages.
    pub window: usize,
    /// Observations required before the watchdog may fire (a cold window
    /// of two pages should not suggest retraining); clamped to `window`.
    pub min_samples: usize,
    /// Unassigned fraction of the window at which the signal flips.
    pub max_unassigned_rate: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig { window: 64, min_samples: 16, max_unassigned_rate: 0.5 }
    }
}

/// Everything the site pipeline needs.
#[derive(Debug, Clone)]
pub struct CeresConfig {
    pub seed: u64,
    pub topic: TopicConfig,
    pub annotate: AnnotateConfig,
    pub features: FeatureConfig,
    pub train: TrainConfig,
    /// Negatives per positive (§4.1: "Following convention … r = 3").
    pub negative_ratio: usize,
    /// List-index exclusion during negative sampling (§4.1); off = the
    /// ablation where list siblings may become negatives.
    pub list_exclusion: bool,
    pub extract: ExtractConfig,
    pub template: TemplateConfig,
    /// Cap on annotated pages used for learning (Figure 5's sweep);
    /// `None` = use all.
    pub max_annotated_pages: Option<usize>,
    /// Worker threads for the parallel stages (page parse, per-cluster
    /// jobs, per-page extraction). `None` defers to the `CERES_THREADS`
    /// environment variable, then to the machine's available parallelism.
    /// Pipeline output is byte-identical for every value (README:
    /// "Parallelism & determinism").
    pub threads: Option<usize>,
    /// Page guards for the fault-isolating ingest/serve paths (the
    /// fail-fast paths ignore them).
    pub guards: GuardConfig,
    /// Serve-side drift-watchdog thresholds.
    pub drift: DriftConfig,
}

impl Default for CeresConfig {
    fn default() -> Self {
        CeresConfig {
            seed: 42,
            topic: TopicConfig::default(),
            annotate: AnnotateConfig::default(),
            features: FeatureConfig::default(),
            train: TrainConfig::default(),
            negative_ratio: 3,
            list_exclusion: true,
            extract: ExtractConfig::default(),
            template: TemplateConfig::default(),
            max_annotated_pages: None,
            threads: None,
            guards: GuardConfig::default(),
            drift: DriftConfig::default(),
        }
    }
}

impl CeresConfig {
    pub fn new(seed: u64) -> Self {
        CeresConfig { seed, ..Default::default() }
    }

    /// Pin the worker-thread count (builder style; `0` means "unset").
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_examples() {
        let c = CeresConfig::new(1);
        assert_eq!(c.topic.max_pages_per_topic, 5);
        assert_eq!(c.annotate.min_annotations_per_page, 3);
        assert_eq!(c.negative_ratio, 3);
        assert_eq!(c.extract.threshold, 0.5);
        assert_eq!(c.features.sibling_width, 5);
        assert!((c.train.c - 1.0).abs() < f64::EPSILON);
    }
}
