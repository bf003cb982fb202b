//! # CERES — distantly supervised relation extraction from the semi-structured web
//!
//! A from-scratch Rust reproduction of *CERES: Distantly Supervised Relation
//! Extraction from the Semi-Structured Web* (Lockard, Dong, Einolghozati,
//! Shiralkar; VLDB 2018). This umbrella crate re-exports the workspace's
//! public API:
//!
//! * [`text`] — normalization, Levenshtein, Jaccard, fast hashing;
//! * [`dom`] — tolerant HTML parsing, arena DOM, absolute XPaths;
//! * [`kb`] — ontology, triple store, fuzzy entity matching;
//! * [`ml`] — sparse features, softmax regression + L-BFGS, agglomerative
//!   clustering;
//! * [`runtime`] — the deterministic parallel executor every stage fans
//!   out on (`CERES_THREADS`; byte-identical output at any thread count);
//! * [`synth`] — the synthetic semi-structured web (SWDE-like, IMDb-like,
//!   CommonCrawl-like corpora) standing in for the paper's proprietary data;
//! * [`core`] — the CERES pipeline (Algorithms 1 & 2, training, extraction)
//!   and the baselines (CERES-TOPIC, CERES-BASELINE, VERTEX++);
//! * [`eval`] — gold-standard scoring and the per-table/figure experiment
//!   runners;
//! * [`fusion`] — knowledge fusion + entity linkage over extraction results
//!   (the post-processing the paper defers to Knowledge Vault / big-data
//!   integration).
//!
//! ## Quickstart
//!
//! ```
//! use ceres::prelude::*;
//!
//! // A seed KB with a handful of film facts…
//! let mut onto = Ontology::new();
//! let film = onto.register_type("Film");
//! let person = onto.register_type("Person");
//! let directed = onto.register_pred("directedBy", film, true);
//! let cast = onto.register_pred("cast", film, true);
//! let mut kb = KbBuilder::new(onto);
//! for i in 0..8 {
//!     let f = kb.entity(film, &format!("Movie Number {i}"));
//!     let d = kb.entity(person, &format!("Director Number {i}"));
//!     kb.triple(f, directed, d);
//!     for j in 0..3 {
//!         let a = kb.entity(person, &format!("Star {i} {j}"));
//!         kb.triple(f, cast, a);
//!     }
//! }
//! let kb = kb.build();
//!
//! // …and a templated website asserting those facts (plus unknown films).
//! let pages: Vec<(String, String)> = (0..12)
//!     .map(|i| {
//!         (format!("page-{i}"), format!(
//!             "<html><body><h1>Movie Number {i}</h1>\
//!              <div class=info><span class=l>Director:</span>\
//!              <span class=v>Director Number {i}</span></div>\
//!              <ul class=cast><li>Star {i} 0</li><li>Star {i} 1</li>\
//!              <li>Star {i} 2</li></ul>\
//!              <div class=f><span>a</span><span>b</span><span>c</span>\
//!              <span>d</span><span>e</span><span>f</span></div></body></html>"
//!         ))
//!     })
//!     .collect();
//!
//! let cfg = CeresConfig::new(42);
//! let run = run_site(&kb, &pages, None, &cfg, AnnotationMode::Full);
//! assert!(run.stats.trained);
//! // Films 8..11 are not in the KB, yet their facts are extracted.
//! assert!(run.extractions.iter().any(|e| e.page_id == "page-10"));
//! ```
//!
//! `run_site` is the streaming session API run back-to-back. Driven
//! directly, the session ingests pages as they arrive, trains once, then
//! extracts from new pages forever without re-training:
//!
//! ```
//! # use ceres::prelude::*;
//! # let mut onto = Ontology::new();
//! # let film = onto.register_type("Film");
//! # let person = onto.register_type("Person");
//! # let directed = onto.register_pred("directedBy", film, true);
//! # let cast = onto.register_pred("cast", film, true);
//! # let mut kb = KbBuilder::new(onto);
//! # for i in 0..8 {
//! #     let f = kb.entity(film, &format!("Movie Number {i}"));
//! #     let d = kb.entity(person, &format!("Director Number {i}"));
//! #     kb.triple(f, directed, d);
//! #     for j in 0..3 {
//! #         let a = kb.entity(person, &format!("Star {i} {j}"));
//! #         kb.triple(f, cast, a);
//! #     }
//! # }
//! # let kb = kb.build();
//! # let html_of = |i: usize| format!(
//! #     "<html><body><h1>Movie Number {i}</h1>\
//! #      <div class=info><span class=l>Director:</span>\
//! #      <span class=v>Director Number {i}</span></div>\
//! #      <ul class=cast><li>Star {i} 0</li><li>Star {i} 1</li>\
//! #      <li>Star {i} 2</li></ul>\
//! #      <div class=f><span>a</span><span>b</span><span>c</span>\
//! #      <span>d</span><span>e</span><span>f</span></div></body></html>");
//! let mut session = SiteSession::builder(&kb).config(CeresConfig::new(42)).build();
//! for i in 0..12 {
//!     session.push_page(format!("page-{i}"), html_of(i)); // parse overlaps ingest
//! }
//! let trained = session.finish_training(); // freeze models + template signatures
//! assert!(trained.stats().trained);
//! // Serve: thread-safe (&self), works on pages never seen at train time.
//! let late = trained.extract_page("page-99", &html_of(99));
//! assert!(late.iter().any(|e| e.object == "Director Number 99"));
//! ```

pub use ceres_core as core;
pub use ceres_dom as dom;
pub use ceres_eval as eval;
pub use ceres_fusion as fusion;
pub use ceres_kb as kb;
pub use ceres_ml as ml;
pub use ceres_runtime as runtime;
pub use ceres_store as store;
pub use ceres_synth as synth;
pub use ceres_text as text;

/// The most common imports, bundled.
pub mod prelude {
    pub use ceres_core::baseline::{run_baseline, BaselineConfig};
    pub use ceres_core::extract::{ExtractLabel, Extraction};
    pub use ceres_core::pipeline::{run_site, AnnotationMode, SiteRun};
    pub use ceres_core::session::{SiteSession, SiteSessionBuilder, TrainedSite};
    pub use ceres_core::vertex::{apply_rules, learn_rules, LabeledPage};
    pub use ceres_core::CeresConfig;
    pub use ceres_dom::{parse_html, Document, XPath};
    pub use ceres_kb::{Kb, KbBuilder, Ontology, PredId, ValueId};
    pub use ceres_ml::{LogReg, TrainConfig};
    pub use ceres_runtime::{Runtime, StreamMap};
    pub use ceres_synth::{GoldFact, Page, PageGold, Site};
}

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_resolve() {
        let _ = crate::prelude::CeresConfig::new(1);
        let doc = crate::dom::parse_html("<b>x</b>");
        assert_eq!(doc.text_fields().len(), 1);
    }
}
