//! # ceres-kb
//!
//! The seed-knowledge-base substrate of the CERES reproduction (paper §2.1):
//! a typed ontology, an interned value space (entities and literals), a
//! triple store with the indexes the annotation pipeline needs, and the
//! fuzzy string matcher used to find KB values on webpages (§3.1.1).
//!
//! Design notes:
//!
//! * **Unified value space.** Subjects are entities; objects can be entities
//!   (a film's director) or literals (a release date). Both are interned
//!   into one [`ValueId`] space so that the topic-identification Jaccard
//!   (Eq. 1) can compare "values present on this page" with "objects of this
//!   candidate subject" as plain sorted id-sets.
//! * **Matching = canonicalization + two indexes.** A page string matches a
//!   value if their [`ceres_text::normalize()`] forms are equal, or — the
//!   fuzzy fallback — if their token-sorted forms are equal ("Lee, Spike" ≡
//!   "Spike Lee"). Aliases index like canonical names.
//! * **Batched, memoized lookups.** [`Kb::match_batch`] resolves all of a
//!   page's normalized field texts in one call, grouping keys by
//!   [`MatchShards`] hash prefix so each shard is swept once — the request
//!   shape a future remote-shard protocol needs — and [`MatchCache`] is a
//!   bounded, FIFO-evicting read-through memo in front of either entry
//!   point. Both are result-identical to per-field [`Kb::match_norm`].
//! * **Topic-candidate filters.** Following §3.1.1 we precompute *stop
//!   values* (strings appearing in a large fraction of triples) and flag
//!   *low-information* strings (single digits, years, country names, very
//!   short strings); neither may become a page topic.

pub mod cache;
pub mod matcher;
pub mod ontology;
pub mod store;

pub use cache::{MatchCache, MatchCacheStats};
pub use matcher::{is_low_information, MatcherConfig};
pub use ontology::{EntityTypeId, Ontology, PredDef, PredId};
pub use store::{Kb, KbBuilder, KbStats, MatchShards, Triple, TypeStats, ValueId, ValueKind};
