//! Training-set construction (§4.1).
//!
//! Classes: `OTHER` (0), `NAME` (1), then one class per predicate that
//! received at least one annotation on this site. Positives come straight
//! from the annotations; negatives are `r = 3` random unlabeled nodes per
//! positive, excluding nodes that sit in the same template list as a
//! positive (nodes "that differ from these positives only at these
//! indices"), because such nodes are probably unannotated true values.

use crate::annotate::PageAnnotation;
use crate::features::{FeatureSpace, NameArena, NameBuf};
use crate::page::PageView;
use ceres_kb::PredId;
use ceres_ml::Dataset;
use ceres_runtime::Runtime;
use ceres_store::{Decode, Encode, Error as StoreError, Reader, Writer, PREALLOC_CAP};
use ceres_text::{FxHashMap, FxHashSet};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The OTHER (no relation) class id.
pub const CLASS_OTHER: u32 = 0;
/// The topic-name class id.
pub const CLASS_NAME: u32 = 1;

/// Maps predicates to contiguous class ids ≥ 2.
#[derive(Debug, Clone)]
pub struct ClassMap {
    preds: Vec<PredId>,
}

impl ClassMap {
    /// Build from the predicates that actually received annotations.
    pub fn from_annotations(annotations: &[PageAnnotation]) -> ClassMap {
        let mut preds: Vec<PredId> =
            annotations.iter().flat_map(|a| a.labels.iter().map(|&(_, p)| p)).collect();
        preds.sort_unstable();
        preds.dedup();
        ClassMap { preds }
    }

    pub fn n_classes(&self) -> usize {
        self.preds.len() + 2
    }

    pub fn class_of(&self, pred: PredId) -> Option<u32> {
        self.preds.binary_search(&pred).ok().map(|i| (i + 2) as u32)
    }

    pub fn pred_of(&self, class: u32) -> Option<PredId> {
        if class < 2 {
            None
        } else {
            self.preds.get((class - 2) as usize).copied()
        }
    }

    pub fn preds(&self) -> &[PredId] {
        &self.preds
    }
}

impl Encode for ClassMap {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.preds.len());
        for p in &self.preds {
            w.put_varint(u64::from(p.0));
        }
    }
}

impl Decode for ClassMap {
    fn decode(r: &mut Reader<'_>) -> Result<ClassMap, StoreError> {
        const CTX: &str = "class map";
        let len = r.get_usize(CTX)?;
        let mut preds = Vec::with_capacity(len.min(PREALLOC_CAP));
        for _ in 0..len {
            let raw = r.get_varint(CTX)?;
            let id = u16::try_from(raw).map_err(|_| StoreError::Invalid {
                context: CTX,
                detail: format!("predicate id {raw} overflows u16"),
            })?;
            preds.push(PredId(id));
        }
        // class_of binary-searches, so sortedness is load-bearing.
        if !preds.windows(2).all(|w| w[0] < w[1]) {
            return Err(StoreError::Invalid {
                context: CTX,
                detail: "predicate ids must be strictly increasing".to_string(),
            });
        }
        Ok(ClassMap { preds })
    }
}

/// How many training rows one name-collection task covers. Coarse enough
/// that a task's arena amortizes its buffers, fine enough to fan out.
const NAME_ROWS_PER_TASK: usize = 32;

/// Interning shards: the dictionary-building pass splits the name space by
/// the top 4 bits of each name's FxHash, mirroring the KB matcher's
/// [`ceres_kb::MatchShards`] layout.
const INTERN_SHARDS: usize = 16;

/// Shard of a feature name: the top `log2(INTERN_SHARDS)` bits of its
/// FxHash — the same "hash prefix" rule as [`ceres_kb::MatchShards`].
#[inline]
fn intern_shard(name: &str) -> usize {
    use std::hash::BuildHasher;
    (ceres_text::FxBuildHasher::default().hash_one(name) >> 60) as usize
}

/// Build the training dataset, with the feature pass split over `rt`.
/// Feature interning happens here (the space must not be frozen yet);
/// `list_exclusion` switches the list-index exclusion (an ablation).
///
/// The dictionary is the training hot loop's `&mut` bottleneck: interning
/// serializes every example. The split runs **name collection** — all the
/// DOM walking and string assembly, which only needs `&FeatureSpace` — as
/// a parallel pass producing packed [`NameArena`]s, then builds the
/// dictionary by **hash-prefix sharding** instead of a sequential replay:
///
/// 1. a parallel bucketing pass files every collected name (by flat arena
///    index) under its shard — the top 4 bits of the name's FxHash,
///    mirroring `MatchShards`;
/// 2. a parallel pass over the 16 shards walks its buckets in arena order,
///    deduplicating into one name list per shard — shard-local
///    first-occurrence order;
/// 3. the shard lists are appended to the dictionary in shard order (the
///    deterministic index remap: shard 0's names, then shard 1's, …),
///    touching the `&mut` dictionary only once per **unique** name instead
///    of once per occurrence;
/// 4. a parallel pass re-walks the rows streaming each example straight
///    into a per-chunk CSR [`Dataset`] through read-only dictionary
///    lookups; the chunks are concatenated in chunk order.
///
/// Every stage's order is fixed by the data (never the thread count), so
/// feature ids, vectors, and the resulting dataset are byte-identical at
/// every thread count — pinned by `parallel_name_collection_is_thread_count_invariant`.
/// A pre-populated dictionary keeps its ids (new names append after it);
/// a frozen dictionary admits no new names, exactly like the fused loop.
#[allow(clippy::too_many_arguments)]
pub fn build_training_on(
    rt: &Runtime,
    pages: &[&PageView],
    annotations: &[PageAnnotation],
    space: &mut FeatureSpace,
    class_map: &ClassMap,
    negative_ratio: usize,
    seed: u64,
    list_exclusion: bool,
) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7261_696e);
    // Two passes: collect (page, field, class) first so that n_features is
    // known only after interning everything.
    let mut rows: Vec<(usize, usize, u32)> = Vec::new();

    for ann in annotations {
        let page = pages[ann.page_idx];
        let mut labeled: FxHashSet<usize> = FxHashSet::default();
        labeled.insert(ann.name_field);
        rows.push((ann.page_idx, ann.name_field, CLASS_NAME));
        let mut n_pos = 1usize;
        for &(fi, pred) in &ann.labels {
            if let Some(class) = class_map.class_of(pred) {
                rows.push((ann.page_idx, fi, class));
                labeled.insert(fi);
                n_pos += 1;
            }
        }

        // List-index exclusion: positives of the same predicate that share
        // a shape define wildcard positions; unlabeled nodes matching a
        // positive under those wildcards are skipped as negatives.
        let mut excluded: FxHashSet<usize> = labeled.clone();
        let mut by_pred: FxHashMap<PredId, Vec<usize>> = FxHashMap::default();
        if !list_exclusion {
            by_pred.clear();
        }
        if list_exclusion {
            for &(fi, pred) in &ann.labels {
                by_pred.entry(pred).or_default().push(fi);
            }
        }
        for fields in by_pred.values() {
            if fields.len() < 2 {
                continue;
            }
            let mut wildcards: Vec<usize> = Vec::new();
            for w in fields.windows(2) {
                let (a, b) = (&page.fields[w[0]].xpath, &page.fields[w[1]].xpath);
                for pos in a.differing_index_positions(b) {
                    if !wildcards.contains(&pos) {
                        wildcards.push(pos);
                    }
                }
            }
            if wildcards.is_empty() {
                continue;
            }
            let rep = &page.fields[fields[0]].xpath;
            for (fi, f) in page.fields.iter().enumerate() {
                if !excluded.contains(&fi) && rep.matches_with_wildcards(&f.xpath, &wildcards) {
                    excluded.insert(fi);
                }
            }
        }

        // Sample negatives from the remaining unlabeled fields.
        let mut candidates: Vec<usize> =
            (0..page.fields.len()).filter(|fi| !excluded.contains(fi)).collect();
        candidates.shuffle(&mut rng);
        for &fi in candidates.iter().take(negative_ratio * n_pos) {
            rows.push((ann.page_idx, fi, CLASS_OTHER));
        }
    }

    // Feature pass, split in two:
    // 1. parallel name collection (`&FeatureSpace`, one packed arena per
    //    row chunk, no dictionary access);
    let row_chunks: Vec<&[(usize, usize, u32)]> = rows.chunks(NAME_ROWS_PER_TASK).collect();
    let arenas: Vec<NameArena> = rt.par_map(&row_chunks, |chunk| {
        let mut buf = NameBuf::default();
        let mut arena = NameArena::default();
        let space = &*space;
        for &(pi, fi, _) in *chunk {
            space.emit_names(pages[pi], pages[pi].fields[fi].node, &mut buf, &mut arena);
            arena.end_row();
        }
        arena
    });
    // 2. parallel bucketing: file every name under its hash-prefix shard
    //    (flat indexes into the owning arena, emission order preserved);
    let buckets: Vec<Vec<Vec<u32>>> = rt.par_map(&arenas, |arena| {
        let mut b: Vec<Vec<u32>> = vec![Vec::new(); INTERN_SHARDS];
        for k in 0..arena.n_names() {
            b[intern_shard(arena.name(k))].push(k as u32);
        }
        b
    });
    // 3. parallel shard dedup: shard s walks bucket s of every arena in
    //    arena order, keeping first occurrences of names the dictionary
    //    does not already know. Shard-local order is fixed by the data.
    let base_dict = &space.dict;
    let shard_ids: Vec<usize> = (0..INTERN_SHARDS).collect();
    let shard_names: Vec<Vec<String>> = rt.par_map_chunked(&shard_ids, 1, |&s| {
        let mut seen: FxHashSet<&str> = FxHashSet::default();
        let mut names: Vec<String> = Vec::new();
        for (arena, bucket) in arenas.iter().zip(&buckets) {
            for &k in &bucket[s] {
                let name = arena.name(k as usize);
                if base_dict.get(name).is_none() && seen.insert(name) {
                    names.push(name.to_string());
                }
            }
        }
        names
    });
    // 4. sequential merge, once per unique name: append shard lists in
    //    shard order — the deterministic index remap. A frozen dictionary
    //    rejects the appends (intern returns None), matching the fused
    //    loop's behavior of dropping unseen names.
    for names in &shard_names {
        for name in names {
            space.dict.intern(name);
        }
    }
    // 5. parallel CSR build through read-only lookups, rows in order: each
    //    chunk streams its rows straight into a per-chunk `Dataset` (no
    //    per-row SparseVec allocation), and the chunks are concatenated in
    //    chunk order — the same rows, same order, same sorted/deduped
    //    indices as the old per-example build.
    let dict = &space.dict;
    let n_classes = class_map.n_classes();
    let n_features = space.dict.len();
    let chunk_ids: Vec<usize> = (0..arenas.len()).collect();
    let parts: Vec<Dataset> = rt.par_map_chunked(
        &chunk_ids,
        ceres_runtime::auto_chunk_coarse(chunk_ids.len(), rt.threads()),
        |&ci| {
            let arena = &arenas[ci];
            let chunk = row_chunks[ci];
            let mut idx: Vec<u32> = Vec::with_capacity(64);
            let mut part = Dataset::new(n_classes, n_features);
            for (r, &(_, _, class)) in chunk.iter().enumerate() {
                for name in arena.row(r) {
                    if let Some(id) = dict.get(name) {
                        idx.push(id);
                    }
                }
                part.push_indicators_buf(&mut idx, class);
            }
            part
        },
    );
    let mut data = Dataset::new(n_classes, n_features);
    for part in &parts {
        data.append(part);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FeatureConfig;
    use crate::features::FeatureScratch;
    use ceres_kb::{Kb, KbBuilder, Ontology, ValueId};

    fn kb_and_page() -> (Kb, PageView, PredId, ValueId) {
        let mut o = Ontology::new();
        let film = o.register_type("Film");
        let person = o.register_type("Person");
        let cast = o.register_pred("cast", film, true);
        let mut b = KbBuilder::new(o);
        let f = b.entity(film, "The Film");
        for i in 0..3 {
            let p = b.entity(person, &format!("Actor Number {i}"));
            b.triple(f, cast, p);
        }
        let kb = b.build();
        let html = "<html><body><h1>The Film</h1><ul>\
                    <li>Actor Number 0</li><li>Actor Number 1</li><li>Actor Number 2</li>\
                    <li>Unknown Person</li><li>Another Unknown</li></ul>\
                    <div><span>footer a</span><span>footer b</span><span>footer c</span>\
                    <span>footer d</span><span>footer e</span></div></body></html>";
        let page = PageView::build("p", html, &kb);
        let f_id = kb.match_text("The Film")[0];
        (kb, page, cast, f_id)
    }

    fn annotation(page: &PageView, pred: PredId, topic: ValueId) -> PageAnnotation {
        let name_field = page.fields.iter().position(|f| f.text == "The Film").unwrap();
        let labels: Vec<(usize, PredId)> = page
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.text.starts_with("Actor Number"))
            .map(|(fi, _)| (fi, pred))
            .collect();
        PageAnnotation { page_idx: 0, topic, name_field, labels }
    }

    #[test]
    fn class_map_is_dense_and_invertible() {
        let (_, page, pred, topic) = kb_and_page();
        let ann = annotation(&page, pred, topic);
        let cm = ClassMap::from_annotations(std::slice::from_ref(&ann));
        assert_eq!(cm.n_classes(), 3);
        let c = cm.class_of(pred).unwrap();
        assert_eq!(c, 2);
        assert_eq!(cm.pred_of(c), Some(pred));
        assert_eq!(cm.pred_of(CLASS_OTHER), None);
        assert_eq!(cm.pred_of(CLASS_NAME), None);
    }

    #[test]
    fn negatives_exclude_list_siblings() {
        let (_, page, pred, topic) = kb_and_page();
        let ann = annotation(&page, pred, topic);
        let cm = ClassMap::from_annotations(std::slice::from_ref(&ann));
        let pages = vec![&page];
        let mut space = FeatureSpace::new(&pages, FeatureConfig::default());
        let data =
            build_training_on(&Runtime::sequential(), &pages, &[ann], &mut space, &cm, 3, 1, true);

        // Positives: 1 name + 3 cast. Negatives ≤ 3 × 4 = 12 but the two
        // "Unknown" <li>s are excluded (same list shape as positives), so
        // negatives come from the footer spans and h1 only.
        let n_pos = data.labels().iter().filter(|&&y| y != CLASS_OTHER).count();
        assert_eq!(n_pos, 4);
        let negatives: Vec<ceres_ml::SparseVec> = (0..data.len())
            .filter(|&r| data.labels()[r] == CLASS_OTHER)
            .map(|r| data.sparse_row(r))
            .collect();
        assert!(!negatives.is_empty());

        // No negative may be one of the excluded list items: check by
        // rebuilding feature vectors for the unknown <li>s.
        let page = pages[0];
        for (fi, f) in page.fields.iter().enumerate() {
            if f.text.contains("Unknown") {
                let x = space.features_with(page, page.fields[fi].node, &mut FeatureScratch::new());
                assert!(
                    negatives.iter().all(|n| *n != x),
                    "list sibling {fi} must not be a negative"
                );
            }
        }
    }

    #[test]
    fn negative_count_respects_ratio() {
        let (_, page, pred, topic) = kb_and_page();
        let ann = annotation(&page, pred, topic);
        let cm = ClassMap::from_annotations(std::slice::from_ref(&ann));
        let pages = vec![&page];
        let mut space = FeatureSpace::new(&pages, FeatureConfig::default());
        let data = build_training_on(
            &Runtime::sequential(),
            &pages,
            std::slice::from_ref(&ann),
            &mut space,
            &cm,
            2,
            1,
            true,
        );
        let n_pos = data.labels().iter().filter(|&&y| y != CLASS_OTHER).count();
        let n_neg = data.labels().iter().filter(|&&y| y == CLASS_OTHER).count();
        assert!(n_neg <= 2 * n_pos);
    }

    #[test]
    fn parallel_name_collection_is_thread_count_invariant() {
        // The split (parallel collect + sequential intern) must produce a
        // byte-identical dataset — including dictionary ids — at any
        // thread count, against the sequential entry point.
        let (_, page, pred, topic) = kb_and_page();
        let ann = annotation(&page, pred, topic);
        let cm = ClassMap::from_annotations(std::slice::from_ref(&ann));
        let pages = vec![&page];
        let mut s_ref = FeatureSpace::new(&pages, FeatureConfig::default());
        let d_ref = build_training_on(
            &Runtime::sequential(),
            &pages,
            std::slice::from_ref(&ann),
            &mut s_ref,
            &cm,
            3,
            9,
            true,
        );
        for threads in [1, 2, 8] {
            let rt = Runtime::new(threads);
            let mut s = FeatureSpace::new(&pages, FeatureConfig::default());
            let d =
                build_training_on(&rt, &pages, std::slice::from_ref(&ann), &mut s, &cm, 3, 9, true);
            // Dataset's PartialEq covers the CSR arrays, labels, and shape.
            assert_eq!(d, d_ref, "threads={threads}");
            assert_eq!(s.dict.len(), s_ref.dict.len(), "threads={threads}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, page, pred, topic) = kb_and_page();
        let ann = annotation(&page, pred, topic);
        let cm = ClassMap::from_annotations(std::slice::from_ref(&ann));
        let pages = vec![&page];
        let mut s1 = FeatureSpace::new(&pages, FeatureConfig::default());
        let d1 = build_training_on(
            &Runtime::sequential(),
            &pages,
            std::slice::from_ref(&ann),
            &mut s1,
            &cm,
            3,
            9,
            true,
        );
        let mut s2 = FeatureSpace::new(&pages, FeatureConfig::default());
        let d2 =
            build_training_on(&Runtime::sequential(), &pages, &[ann], &mut s2, &cm, 3, 9, true);
        assert_eq!(d1.labels(), d2.labels());
        assert_eq!(d1, d2);
    }
}
