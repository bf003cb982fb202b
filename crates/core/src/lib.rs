//! # ceres-core
//!
//! The CERES system itself (paper §2–§4) plus the baselines of §5.2:
//!
//! * [`page`] — parsed page views with precomputed KB matches;
//! * [`template`] — Vertex-style template clustering of a site's pages
//!   (§2.1, §5.5.1);
//! * [`topic`] — Algorithm 1: page topic identification (local Jaccard
//!   scoring + uniqueness filter + dominant-XPath global step);
//! * [`annotate`] — Algorithm 2: relation annotation with local evidence
//!   (best local mention) and global evidence (XPath clustering);
//! * [`features`] — structural 4-tuple features and node-text features
//!   (§4.2);
//! * [`examples`] — training-set construction with `r = 3` negative
//!   sampling and list-index exclusion (§4.1);
//! * [`extract`] — model application, name-node subject resolution, and
//!   confidence-thresholded extraction (§4.3);
//! * [`pipeline`] — the end-to-end batch site extractor (CERES-FULL and
//!   CERES-TOPIC are the same pipeline with different annotation modes);
//! * [`session`] — the streaming train-once/extract-many API the batch
//!   pipeline wraps: [`session::SiteSession`] ingests pages as they
//!   arrive (parsed in bounded, ordered blocks on the pool), trains once, and
//!   freezes a thread-safe [`session::TrainedSite`] that extracts from
//!   new pages indefinitely — and persists: [`session::TrainedSite::save`]
//!   writes a versioned `ceres-store` artifact that
//!   [`session::TrainedSite::load`] rebuilds in any other process,
//!   byte-identical and panic-free on corrupted input;
//! * [`baseline`] — CERES-BASELINE: the classic pairwise distant-supervision
//!   assumption, with a memory budget that reproduces the paper's
//!   out-of-memory failure on large KBs;
//! * [`vertex`] — VERTEX++: wrapper induction from a handful of
//!   (simulated) manual annotations.

pub mod annotate;
pub mod baseline;
pub mod config;
pub mod examples;
pub mod extract;
pub mod features;
pub mod page;
pub mod pipeline;
pub mod session;
pub mod template;
pub mod topic;
pub mod vertex;

pub use config::{
    AnnotateConfig, CeresConfig, DriftConfig, ExtractConfig, FeatureConfig, GuardConfig,
    TemplateConfig, TopicConfig, XPathDistance,
};
pub use extract::Extraction;
pub use pipeline::{AnnotationMode, SiteRun, SiteRunStats, StageProfile, StageTime};
pub use session::{
    DriftSignal, DriftWatchdog, ExtractOutcome, PageError, SessionHealth, SiteSession,
    SiteSessionBuilder, TrainedSite,
};
