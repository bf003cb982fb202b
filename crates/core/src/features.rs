//! Feature extraction (§4.2).
//!
//! **Structural features** follow the Vertex feature scheme: for the node
//! itself, its ancestors, and siblings of those ancestors (window ±5), emit
//! 4-tuples of (attribute name, attribute value, levels of ancestry,
//! sibling offset) over `tag`, `class`, `id`, `itemprop`, `itemtype`, and
//! `property`.
//!
//! **Node-text features**: strings frequent across the site ("Director:",
//! "Žánr:") found near the node produce features of (string, tree-path to
//! the string's node).
//!
//! ## Feature sinks
//!
//! Vectorizing a node used to materialize a `Vec<String>` of feature names
//! (one heap string per feature per node, re-`format!`ed with a role prefix
//! for pairs). The hot paths now **stream** names instead: every name is
//! assembled in a reusable [`NameBuf`] and handed to a [`FeatureSink`] as a
//! `&str` that is valid only for the duration of the call. The sinks are:
//!
//! * an *interning* sink (training: `&mut FeatureDict`),
//! * a *lookup* sink (frozen extraction: `&FeatureDict`),
//! * a [`NameArena`] (the parallel name-collection pass of
//!   `build_training_on`, which packs names end-to-end for the sequential
//!   interning pass),
//! * a plain `Vec<String>` collector ([`FeatureSpace::collect_names`]),
//!   kept as the reference path the equivalence suite pins the sinks to.
//!
//! Node-text paths are read off the nearby field's stored absolute XPath
//! rather than walked in the DOM, and numbers are written by a small
//! decimal writer on [`NameBuf`] rather than through `core::fmt`, so with a
//! warm [`FeatureScratch`] name emission performs no transient
//! allocations; the interning sink allocates only to store a name it has
//! not seen.
//!
//! ## One pass per page when serving
//!
//! A structural *segment* — a chain node's tag/attribute features, its
//! sibling number and (above the leaf) its sibling window — depends only
//! on the (chain node, level) pair, and a page's fields share most of
//! their ancestor chains. A node-text name depends only on the nearby
//! field, the depth of its lowest common ancestor with the featurized node
//! and the levels `up` to it, and a page's fields share most of those
//! too. [`FeatureSpace::frozen_page`] returns a [`FrozenPage`] that tests
//! each field against the frequent-string lexicon once, emits each segment
//! and looks up each node-text name once per page, keeps the frozen ids
//! (and the node-text misses), and reuses them for every later field. Both
//! paths run the same nearby-field scan and the same name grammar. Once
//! its memos hold a row's segments and names, [`FrozenPage::row`]
//! allocates only the exact-size output `SparseVec` (pinned by
//! `tests/frozen_row_alloc.rs`).
//!
//! Ground-truth hygiene: all `data-*` attributes — in particular the
//! generator's `data-gt` — are excluded from features (unit-tested below).

use crate::config::FeatureConfig;
use crate::page::{FieldInfo, PageView};
use ceres_dom::{NodeId, Step};
use ceres_ml::{FeatureDict, SparseVec};
use ceres_store::{Decode, Encode, Error as StoreError, Reader, Writer};
use ceres_text::{FxHashMap, FxHashSet};
use std::collections::hash_map::Entry;

/// Attributes used for structural features (paper list).
const FEATURE_ATTRS: &[&str] = &["class", "id", "itemprop", "itemtype", "property"];

/// Receives streamed feature names. The `&str` lives in the caller's
/// [`NameBuf`] and is only valid for the duration of the call — sinks that
/// keep names (arena, collector) must copy the bytes out.
pub trait FeatureSink {
    fn accept(&mut self, name: &str);
}

/// Reusable assembly state for streaming feature names: the name buffer
/// (with an optional role prefix for pair features) plus the node-chain
/// and sibling-window scratch vectors the emitters need.
#[derive(Debug, Default)]
pub struct NameBuf {
    s: String,
    prefix: usize,
    chain: Vec<NodeId>,
    sibs: Vec<(isize, NodeId)>,
}

impl NameBuf {
    /// Prefix subsequent names with `p` (pair features: `"S|"` / `"O|"`).
    fn set_prefix(&mut self, p: &str) {
        self.s.clear();
        self.s.push_str(p);
        self.prefix = self.s.len();
    }

    fn clear_prefix(&mut self) {
        self.s.clear();
        self.prefix = 0;
    }

    /// Start assembling a fresh name: truncate back to the role prefix.
    #[inline]
    fn begin(&mut self) {
        self.s.truncate(self.prefix);
    }

    /// Append `v` in decimal: the bytes `write!(s, "{v}")` would append,
    /// without a trip through `core::fmt`.
    fn push_uint(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.s.extend(digits[i..].iter().map(|&d| char::from(d)));
    }

    /// Signed twin of [`NameBuf::push_uint`].
    fn push_int(&mut self, v: i64) {
        if v < 0 {
            self.s.push('-');
        }
        self.push_uint(v.unsigned_abs());
    }

    /// `s:{key}={val}@l{level}o{off}` (the tag shape is `key = "tag"`).
    fn attr_name(&mut self, key: &str, val: &str, level: usize, off: isize) -> &str {
        self.begin();
        self.s.push_str("s:");
        self.s.push_str(key);
        self.s.push('=');
        self.s.push_str(val);
        self.s.push_str("@l");
        self.push_uint(level as u64);
        self.s.push('o');
        self.push_int(off as i64);
        &self.s
    }

    /// `s:sib={sib}@l{level}`.
    fn sib_name(&mut self, sib: usize, level: usize) -> &str {
        self.begin();
        self.s.push_str("s:sib=");
        self.push_uint(sib as u64);
        self.s.push_str("@l");
        self.push_uint(level as u64);
        &self.s
    }

    /// `t:{label}@^{up}/tag[i]…`, the label cut to at most 30 bytes on a
    /// character boundary.
    fn text_name(&mut self, norm: &str, up: usize, steps: &[Step]) -> &str {
        self.begin();
        self.s.push_str("t:");
        self.s.push_str(&norm[..norm.floor_char_boundary(30)]);
        self.s.push_str("@^");
        self.push_uint(up as u64);
        for step in steps {
            self.s.push('/');
            self.s.push_str(&step.tag);
            self.s.push('[');
            self.push_uint(u64::from(step.index));
            self.s.push(']');
        }
        &self.s
    }
}

/// Reusable buffers for allocation-free vectorization: the [`NameBuf`]
/// plus the feature-index buffer the dict sinks collect into. One scratch
/// per worker/loop; `Default::default()` is a valid fresh scratch.
#[derive(Debug, Default)]
pub struct FeatureScratch {
    buf: NameBuf,
    idx: Vec<u32>,
}

impl FeatureScratch {
    pub fn new() -> FeatureScratch {
        FeatureScratch::default()
    }
}

/// Feature names packed end-to-end — one backing `String`, name ends, and
/// row boundaries. The parallel name-collection pass of training fills one
/// arena per row chunk through `&FeatureSpace`; the sequential interning
/// pass replays rows in order against the `&mut` dictionary. Two small
/// buffers per *chunk* replace one `String` per *feature*.
#[derive(Debug, Default)]
pub struct NameArena {
    text: String,
    ends: Vec<u32>,
    rows: Vec<u32>,
}

impl NameArena {
    /// Close the current row (a row = one training example's names).
    pub fn end_row(&mut self) {
        self.rows.push(self.ends.len() as u32);
    }

    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total names across all rows (the flat index space of
    /// [`NameArena::name`]).
    pub fn n_names(&self) -> usize {
        self.ends.len()
    }

    /// The `k`-th name in emission order, across row boundaries — the flat
    /// view the sharded interning pass of
    /// [`crate::examples::build_training_on`] buckets by hash prefix.
    pub fn name(&self, k: usize) -> &str {
        let start = if k == 0 { 0 } else { self.ends[k - 1] as usize };
        &self.text[start..self.ends[k] as usize]
    }

    /// Names of row `r`, in emission order.
    pub fn row(&self, r: usize) -> impl Iterator<Item = &str> + '_ {
        let lo = if r == 0 { 0 } else { self.rows[r - 1] as usize };
        let hi = self.rows[r] as usize;
        (lo..hi).map(move |k| {
            let start = if k == 0 { 0 } else { self.ends[k - 1] as usize };
            &self.text[start..self.ends[k] as usize]
        })
    }
}

impl FeatureSink for NameArena {
    fn accept(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(self.text.len() as u32);
    }
}

/// Training sink: intern through the mutable dictionary.
struct DictSink<'a> {
    dict: &'a mut FeatureDict,
    idx: &'a mut Vec<u32>,
}

impl FeatureSink for DictSink<'_> {
    fn accept(&mut self, name: &str) {
        if let Some(i) = self.dict.intern(name) {
            self.idx.push(i);
        }
    }
}

/// Extraction sink: lookup-only against a frozen dictionary.
struct FrozenSink<'a> {
    dict: &'a FeatureDict,
    idx: &'a mut Vec<u32>,
}

impl FeatureSink for FrozenSink<'_> {
    fn accept(&mut self, name: &str) {
        if let Some(i) = self.dict.get(name) {
            self.idx.push(i);
        }
    }
}

/// Reference sink: copy every name out (the old `Vec<String>` path).
struct CollectSink(Vec<String>);

impl FeatureSink for CollectSink {
    fn accept(&mut self, name: &str) {
        self.0.push(name.to_string());
    }
}

/// Site-level feature state: the dictionary and the frequent-string
/// lexicon, built during training and frozen for extraction.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    pub dict: FeatureDict,
    /// Normalized frequent strings (labels etc.).
    pub frequent: Vec<String>,
    /// Set view of `frequent` for the per-field membership test.
    frequent_set: FxHashSet<String>,
    pub cfg: FeatureConfig,
}

impl FeatureSpace {
    /// Build the frequent-string lexicon from the annotated pages.
    pub fn new(pages: &[&PageView], cfg: FeatureConfig) -> FeatureSpace {
        let mut page_counts: FxHashMap<&str, usize> = FxHashMap::default();
        for page in pages.iter().copied() {
            let mut seen: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
            for f in &page.fields {
                if !f.norm.is_empty() && f.norm.len() <= 40 {
                    seen.insert(f.norm.as_str());
                }
            }
            for s in seen {
                *page_counts.entry(s).or_default() += 1;
            }
        }
        let min_pages =
            ((pages.len() as f64) * cfg.frequent_string_page_frac).ceil().max(2.0) as usize;
        let mut frequent: Vec<(String, usize)> = page_counts
            .into_iter()
            .filter(|&(_, n)| n >= min_pages)
            .map(|(s, n)| (s.to_string(), n))
            .collect();
        frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        frequent.truncate(cfg.max_frequent_strings);
        let frequent: Vec<String> = frequent.into_iter().map(|(s, _)| s).collect();
        let frequent_set = frequent.iter().cloned().collect();
        FeatureSpace { dict: FeatureDict::new(), frequent, frequent_set, cfg }
    }

    /// Freeze the dictionary: extraction-time features not seen in training
    /// are dropped. After freezing, [`FeatureSpace::frozen_page`] and
    /// [`FeatureSpace::pair_features_frozen_with`] look names up through
    /// `&self`, so the parallel extract stage shares one space across
    /// threads without cloning.
    pub fn freeze(&mut self) {
        self.dict.freeze();
    }

    pub fn is_frozen(&self) -> bool {
        self.dict.is_frozen()
    }

    /// Stream the feature names of `node` into `sink` (no dictionary
    /// involved — `&self`). Every vectorization path, [`FrozenPage::row`]
    /// included, runs the same segment and node-text emitters in this
    /// order, so name bytes and order are identical for all sinks.
    pub fn emit_names(
        &self,
        page: &PageView,
        node: NodeId,
        buf: &mut NameBuf,
        sink: &mut dyn FeatureSink,
    ) {
        emit_names(&self.frequent_set, &self.cfg, page, node, buf, sink);
    }

    /// Pair twin of [`FeatureSpace::emit_names`]: subject's names under
    /// `S|`, then object's under `O|` (§5.2 concatenation).
    pub fn emit_pair_names(
        &self,
        page: &PageView,
        subject_node: NodeId,
        object_node: NodeId,
        buf: &mut NameBuf,
        sink: &mut dyn FeatureSink,
    ) {
        for (prefix, node) in [("S|", subject_node), ("O|", object_node)] {
            buf.set_prefix(prefix);
            emit_names(&self.frequent_set, &self.cfg, page, node, buf, sink);
        }
        buf.clear_prefix();
    }

    /// Compute the feature vector of one node, interning new feature names
    /// (the training path; requires an unfrozen space), through
    /// caller-owned reusable buffers.
    pub fn features_with(
        &mut self,
        page: &PageView,
        node: NodeId,
        scratch: &mut FeatureScratch,
    ) -> SparseVec {
        let FeatureScratch { buf, idx } = scratch;
        let mut sink = DictSink { dict: &mut self.dict, idx };
        emit_names(&self.frequent_set, &self.cfg, page, node, buf, &mut sink);
        SparseVec::from_indices_buf(idx)
    }

    /// The frozen featurizer of one page: [`FrozenPage::row`] returns the
    /// same vector `features_with` would on a frozen space, emitting each
    /// structural segment and each node-text name once per page instead of
    /// once per field. The memo borrows `page`, so it cannot outlive it or
    /// serve another page.
    pub fn frozen_page<'a>(&'a self, page: &'a PageView) -> FrozenPage<'a> {
        debug_assert!(self.dict.is_frozen(), "freeze the feature space before extraction");
        // One lexicon hash per field, instead of one per (field, nearby
        // field) pair; left empty when node-text features are off.
        let mut frequent = Vec::new();
        if self.cfg.enable_text && !self.frequent_set.is_empty() {
            frequent.extend(page.fields.iter().map(|f| self.frequent_set.contains(&f.norm)));
        }
        FrozenPage {
            space: self,
            page,
            ids: Vec::new(),
            segments: FxHashMap::default(),
            frequent,
            text: FxHashMap::default(),
        }
    }

    /// Feature vector for a *pair* of nodes: each node's features prefixed
    /// by its role and concatenated — the representation CERES-BASELINE
    /// uses ("to produce features for the pair, we concatenate the features
    /// for each node", §5.2).
    pub fn pair_features_with(
        &mut self,
        page: &PageView,
        subject_node: NodeId,
        object_node: NodeId,
        scratch: &mut FeatureScratch,
    ) -> SparseVec {
        let FeatureScratch { buf, idx } = scratch;
        let mut sink = DictSink { dict: &mut self.dict, idx };
        for (prefix, node) in [("S|", subject_node), ("O|", object_node)] {
            buf.set_prefix(prefix);
            emit_names(&self.frequent_set, &self.cfg, page, node, buf, &mut sink);
        }
        buf.clear_prefix();
        SparseVec::from_indices_buf(idx)
    }

    /// Lookup-only twin of [`FeatureSpace::pair_features_with`] for a
    /// frozen space (the baseline's extraction path).
    pub fn pair_features_frozen_with(
        &self,
        page: &PageView,
        subject_node: NodeId,
        object_node: NodeId,
        scratch: &mut FeatureScratch,
    ) -> SparseVec {
        debug_assert!(self.dict.is_frozen(), "freeze the feature space before extraction");
        let FeatureScratch { buf, idx } = scratch;
        let mut sink = FrozenSink { dict: &self.dict, idx };
        for (prefix, node) in [("S|", subject_node), ("O|", object_node)] {
            buf.set_prefix(prefix);
            emit_names(&self.frequent_set, &self.cfg, page, node, buf, &mut sink);
        }
        buf.clear_prefix();
        SparseVec::from_indices_buf(idx)
    }

    /// The reference `Vec<String>` path: every feature name of `node`,
    /// owned, in emission order. The equivalence suite pins the streaming
    /// sinks to this output; hot paths never call it.
    pub fn collect_names(&self, page: &PageView, node: NodeId) -> Vec<String> {
        let mut sink = CollectSink(Vec::with_capacity(64));
        self.emit_names(page, node, &mut NameBuf::default(), &mut sink);
        sink.0
    }

    /// Reference pair path (role-prefixed concatenation), owned.
    pub fn collect_pair_names(
        &self,
        page: &PageView,
        subject_node: NodeId,
        object_node: NodeId,
    ) -> Vec<String> {
        let mut sink = CollectSink(Vec::with_capacity(128));
        self.emit_pair_names(page, subject_node, object_node, &mut NameBuf::default(), &mut sink);
        sink.0
    }
}

/// One page's frozen featurizer (see [`FeatureSpace::frozen_page`]): the
/// frozen ids of every structural segment emitted so far, end to end, and
/// a `(chain node, level) → range` map into them; which of the page's
/// fields are frequent strings, and the frozen id (or miss) of every
/// node-text name looked up so far, under its (nearby field, LCA depth,
/// `up`) key.
#[derive(Debug)]
pub struct FrozenPage<'a> {
    space: &'a FeatureSpace,
    page: &'a PageView,
    ids: Vec<u32>,
    segments: FxHashMap<(NodeId, usize), (u32, u32)>,
    frequent: Vec<bool>,
    text: FxHashMap<TextKey, Option<u32>>,
}

impl FrozenPage<'_> {
    /// The frozen feature vector of `node` — identical to what
    /// [`FeatureSpace::features_with`] returns on the frozen space.
    /// Structural segments already emitted for an earlier field are copied
    /// from the memo. Node-text features run the same nearby-field scan as
    /// the streaming emitter, but each name is assembled and looked up only
    /// the first time its (nearby field, LCA depth, `up`) key occurs on the
    /// page; later fields read the frozen id, or the cached miss, from the
    /// memo.
    pub fn row(&mut self, node: NodeId, scratch: &mut FeatureScratch) -> SparseVec {
        let FrozenPage { space, page, ids, segments, frequent, text } = self;
        let (space, page) = (*space, *page);
        let FeatureScratch { buf, idx } = scratch;
        let cfg = &space.cfg;
        if cfg.enable_structural {
            let mut chain = std::mem::take(&mut buf.chain);
            fill_chain(page, node, cfg.max_ancestor_levels, &mut chain);
            for (level, &n) in chain.iter().enumerate() {
                let (lo, hi) = match segments.entry((n, level)) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let lo = ids.len() as u32;
                        let mut sink = FrozenSink { dict: &space.dict, idx: ids };
                        structural_segment(cfg, page, n, level, buf, &mut sink);
                        *e.insert((lo, ids.len() as u32))
                    }
                };
                if let Some(seg) = ids.get(lo as usize..hi as usize) {
                    idx.extend_from_slice(seg);
                }
            }
            buf.chain = chain;
        }
        if !frequent.is_empty() {
            let mut chain = std::mem::take(&mut buf.chain);
            scan_nearby_text(
                cfg,
                page,
                node,
                &mut chain,
                |field, _| frequent[field],
                |key, f, steps| {
                    let id = *text
                        .entry(key)
                        .or_insert_with(|| space.dict.get(buf.text_name(&f.norm, key.up, steps)));
                    idx.extend(id);
                },
            );
            buf.chain = chain;
        }
        SparseVec::from_indices_buf(idx)
    }
}

/// Serializable parts: the dictionary, the frequent-string lexicon, and
/// the config. `frequent_set` is derived state, rebuilt on decode.
impl Encode for FeatureSpace {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.dict);
        w.put_str_table(&self.frequent);
        w.put(&self.cfg);
    }
}

impl Decode for FeatureSpace {
    fn decode(r: &mut Reader<'_>) -> Result<FeatureSpace, StoreError> {
        let dict = FeatureDict::decode(r)?;
        let frequent = r.get_str_table("frequent-string lexicon")?;
        let cfg = FeatureConfig::decode(r)?;
        let frequent_set = frequent.iter().cloned().collect();
        Ok(FeatureSpace { dict, frequent, frequent_set, cfg })
    }
}

/// The emitter: structural then text features, every name assembled in
/// `buf` and streamed to `sink`. [`FrozenPage::row`] composes the same
/// two parts around its segment memo.
fn emit_names(
    frequent_set: &FxHashSet<String>,
    cfg: &FeatureConfig,
    page: &PageView,
    node: NodeId,
    buf: &mut NameBuf,
    sink: &mut dyn FeatureSink,
) {
    if cfg.enable_structural {
        structural_features(cfg, page, node, buf, sink);
    }
    if cfg.enable_text {
        text_features(frequent_set, cfg, page, node, buf, sink);
    }
}

/// The node itself (level 0) and its first `levels` ancestors, into
/// `chain` (index = level).
fn fill_chain(page: &PageView, node: NodeId, levels: usize, chain: &mut Vec<NodeId>) {
    chain.clear();
    chain.push(node);
    chain.extend(page.doc.ancestors(node).take(levels));
}

fn structural_features(
    cfg: &FeatureConfig,
    page: &PageView,
    node: NodeId,
    buf: &mut NameBuf,
    sink: &mut dyn FeatureSink,
) {
    // The chain vector is borrowed out of the scratch for the loop (it
    // cannot be used while `buf` assembles names).
    let mut chain = std::mem::take(&mut buf.chain);
    fill_chain(page, node, cfg.max_ancestor_levels, &mut chain);
    for (level, &n) in chain.iter().enumerate() {
        structural_segment(cfg, page, n, level, buf, sink);
    }
    buf.chain = chain;
}

/// The structural features one chain node contributes at `level`: its own
/// tag and attributes, its sibling number and, for ancestors, its sibling
/// window. A pure function of `(n, level)` on a page, which is what lets
/// [`FrozenPage`] emit it once per page.
fn structural_segment(
    cfg: &FeatureConfig,
    page: &PageView,
    n: NodeId,
    level: usize,
    buf: &mut NameBuf,
    sink: &mut dyn FeatureSink,
) {
    let doc = &page.doc;
    if !doc.node(n).is_element() || n == doc.root() {
        return;
    }
    emit_node_features(page, n, level, 0, buf, sink);
    // Sibling number of the chain node itself (4th tuple slot).
    let sib = doc.element_sibling_number(n).min(9);
    sink.accept(buf.sib_name(sib, level));
    // Siblings of ancestors (not of the leaf node itself — the paper
    // examines "ancestors of the node, and siblings of those ancestors").
    if level >= 1 {
        let mut sibs = std::mem::take(&mut buf.sibs);
        doc.sibling_window_into(n, cfg.sibling_width, &mut sibs);
        for &(off, sib_node) in &sibs {
            emit_node_features(page, sib_node, level, off, buf, sink);
        }
        buf.sibs = sibs;
    }
}

/// Node-text features: `t:{string}@^{up}/tag[i]…` for every frequent
/// string among the fields near `node`, streamed to `sink`.
fn text_features(
    frequent_set: &FxHashSet<String>,
    cfg: &FeatureConfig,
    page: &PageView,
    node: NodeId,
    buf: &mut NameBuf,
    sink: &mut dyn FeatureSink,
) {
    if frequent_set.is_empty() {
        return;
    }
    let mut chain = std::mem::take(&mut buf.chain);
    scan_nearby_text(
        cfg,
        page,
        node,
        &mut chain,
        |_, f| frequent_set.contains(&f.norm),
        |key, f, steps| sink.accept(buf.text_name(&f.norm, key.up, steps)),
    );
    buf.chain = chain;
}

/// What a node-text name is a function of: the nearby field (its index in
/// `page.fields`), the depth of its lowest common ancestor with the
/// featurized node, and the `up` levels from that node to the ancestor.
/// The name is `t:{label}@^{up}` followed by the field's XPath steps below
/// `lca_depth`, so [`FrozenPage`] memoizes its frozen id under this key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TextKey {
    field: usize,
    lca_depth: usize,
    up: usize,
}

/// The one nearby-field scan behind node-text features: every field in the
/// subtree of `node`'s `text_feature_levels`-th ancestor (at most
/// `max_nearby_fields` of them, `node` itself excluded) that `is_frequent`
/// admits is passed to `visit` with its [`TextKey`] and the XPath steps
/// from the lowest common ancestor down to it. The tree path climbs `up`
/// levels, then descends the field's own absolute XPath — no DOM walk per
/// feature. `chain` is scratch for the ancestor-or-self chain.
fn scan_nearby_text(
    cfg: &FeatureConfig,
    page: &PageView,
    node: NodeId,
    chain: &mut Vec<NodeId>,
    is_frequent: impl Fn(usize, &FieldInfo) -> bool,
    mut visit: impl FnMut(TextKey, &FieldInfo, &[Step]),
) {
    // `chain[k]` is the k-th ancestor-or-self; its last entry is the
    // scope whose subtree is scanned for nearby frequent strings.
    fill_chain(page, node, cfg.text_feature_levels, chain);
    let scope = chain.last().copied().unwrap_or(node);
    let depth = page.doc.depth(node);
    let mut scanned = 0usize;
    for (field, f) in page.fields.iter().enumerate() {
        if f.node == node {
            continue;
        }
        // O(1) Euler-interval test, ≡ `f.node == scope || is_ancestor(…)`.
        if !page.in_subtree(scope, f.node) {
            continue;
        }
        if scanned >= cfg.max_nearby_fields {
            break;
        }
        scanned += 1;
        if !is_frequent(field, f) {
            continue;
        }
        // The lowest common ancestor is the first chain node whose subtree
        // holds the field; it sits at depth `depth - up`, so the field's
        // XPath steps from there on lead down to it.
        let Some(up) = chain.iter().position(|&a| page.in_subtree(a, f.node)) else { continue };
        let Some(lca_depth) = depth.checked_sub(up) else { continue };
        let Some(steps) = f.xpath.0.get(lca_depth..) else { continue };
        visit(TextKey { field, lca_depth, up }, f, steps);
    }
}

fn emit_node_features(
    page: &PageView,
    n: NodeId,
    level: usize,
    off: isize,
    buf: &mut NameBuf,
    sink: &mut dyn FeatureSink,
) {
    let doc = &page.doc;
    let Some(tag) = doc.node(n).tag() else { return };
    sink.accept(buf.attr_name("tag", tag, level, off));
    for (k, v) in doc.node(n).attrs() {
        // Never leak generator ground truth (or any data-* payload) into
        // the model.
        if k.starts_with("data-") {
            continue;
        }
        if FEATURE_ATTRS.contains(&k.as_str()) {
            sink.accept(buf.attr_name(k, v, level, off));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_kb::{Kb, KbBuilder, Ontology};

    fn empty_kb() -> Kb {
        KbBuilder::new(Ontology::new()).build()
    }

    fn page(html: &str) -> PageView {
        PageView::build("p", html, &empty_kb())
    }

    fn feats_of(space: &mut FeatureSpace, pv: &PageView, i: usize) -> Vec<String> {
        let v = space.features_with(pv, pv.fields[i].node, &mut FeatureScratch::new());
        v.iter().map(|(id, _)| space.dict.name(id).to_string()).collect()
    }

    #[test]
    fn structural_features_cover_self_ancestors_siblings() {
        let pv = page(
            r#"<html><body><div class="info"><span class="label">Director:</span><span class="value">Spike Lee</span></div></body></html>"#,
        );
        let mut space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let names = feats_of(&mut space, &pv, 1); // the value span
        assert!(names.iter().any(|n| n == "s:tag=span@l0o0"), "self tag: {names:?}");
        assert!(names.iter().any(|n| n == "s:class=value@l0o0"), "self class");
        assert!(names.iter().any(|n| n == "s:class=info@l1o0"), "parent class");
        // The label span is a sibling of the value span's... the value
        // span's parent (div) has no element siblings, but the label span
        // appears as a sibling of the leaf's ancestor chain? No — the label
        // is the leaf's own sibling; siblings of the *node itself* are not
        // scanned, only of ancestors. The label is reachable as a sibling
        // of nothing here, but its class appears via text features instead.
        assert!(names.iter().any(|n| n.starts_with("s:tag=div@l1")));
    }

    #[test]
    fn sibling_window_features_present_for_ancestor_siblings() {
        let pv = page(
            r#"<div class="a">x</div><div class="b"><span>y</span></div><div class="c">z</div>"#,
        );
        // Feature target: the span inside div.b; its parent's siblings are
        // div.a (off -1) and div.c (off +1).
        let mut space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let span_idx = pv.fields.iter().position(|f| f.text == "y").unwrap();
        let names = feats_of(&mut space, &pv, span_idx);
        assert!(names.iter().any(|n| n == "s:class=a@l1o-1"), "{names:?}");
        assert!(names.iter().any(|n| n == "s:class=c@l1o1"));
    }

    #[test]
    fn data_attributes_never_become_features() {
        let pv = page(r#"<div data-gt="7" data-secret="x" class="ok">text</div>"#);
        let mut space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let names = feats_of(&mut space, &pv, 0);
        assert!(
            names.iter().all(|n| !n.contains("data-") && !n.contains("secret")),
            "gold leaked into features: {names:?}"
        );
        assert!(names.iter().any(|n| n.contains("class=ok")));
    }

    #[test]
    fn frequent_strings_become_text_features() {
        let htmls: Vec<String> = (0..4)
            .map(|i| {
                format!(
                    "<div class=row><span class=l>Director:</span><span class=v>Person {i}</span></div>"
                )
            })
            .collect();
        let kb = empty_kb();
        let pages: Vec<PageView> = htmls
            .iter()
            .enumerate()
            .map(|(i, h)| PageView::build(&format!("p{i}"), h, &kb))
            .collect();
        let refs: Vec<&PageView> = pages.iter().collect();
        let mut space = FeatureSpace::new(&refs, FeatureConfig::default());
        assert!(space.frequent.iter().any(|s| s == "director"), "{:?}", space.frequent);
        let v = space.features_with(&pages[0], pages[0].fields[1].node, &mut FeatureScratch::new());
        let names: Vec<String> = v.iter().map(|(id, _)| space.dict.name(id).to_string()).collect();
        assert!(
            names.iter().any(|n| n.starts_with("t:director@")),
            "text feature missing: {names:?}"
        );
    }

    #[test]
    fn frozen_twins_match_the_interning_path() {
        let pv = page(
            r#"<div class="info"><span class="l">Director:</span><span class="v">Someone</span></div>"#,
        );
        let mut space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let mut scratch = FeatureScratch::new();
        let trained = space.features_with(&pv, pv.fields[1].node, &mut scratch);
        space.freeze();
        // Same page: identical vectors through &self and &mut self, and
        // again once the page memo is warm.
        let mut frozen = space.frozen_page(&pv);
        assert_eq!(frozen.row(pv.fields[1].node, &mut scratch), trained);
        assert_eq!(frozen.row(pv.fields[1].node, &mut scratch), trained);
        assert_eq!(space.features_with(&pv, pv.fields[1].node, &mut scratch), trained);
        // Unseen page: unknown names dropped identically by both paths.
        let pv2 = page(r#"<div class="fresh"><span class="l">Director:</span></div>"#);
        let a = space.frozen_page(&pv2).row(pv2.fields[0].node, &mut scratch);
        let b = space.features_with(&pv2, pv2.fields[0].node, &mut scratch);
        assert_eq!(a, b);
        let (s, o) = (pv.fields[0].node, pv.fields[1].node);
        let p = space.pair_features_frozen_with(&pv, s, o, &mut scratch);
        let q = space.pair_features_with(&pv, s, o, &mut scratch);
        assert_eq!(p, q);
    }

    #[test]
    fn sinks_match_the_reference_vec_string_path() {
        // Interning sink vs interning collect_names output by hand, with a
        // *reused* scratch across nodes (buffer-reuse bugs would show as
        // name bleed between nodes).
        let pv = page(
            r#"<div class="info"><span class="l">Director:</span><span class="v">Someone</span></div><ul><li class=x>A</li><li>B</li></ul>"#,
        );
        let mut by_sink = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let mut by_ref = by_sink.clone();
        let mut scratch = FeatureScratch::new();
        for f in &pv.fields {
            let a = by_sink.features_with(&pv, f.node, &mut scratch);
            let names = by_ref.collect_names(&pv, f.node);
            let idx: Vec<u32> = names.iter().filter_map(|n| by_ref.dict.intern(n)).collect();
            let b = SparseVec::from_indices(idx);
            assert_eq!(a, b, "node {:?}", f.node);
        }
        // The dictionaries grew identically → frozen lookups agree too.
        by_sink.freeze();
        by_ref.freeze();
        let mut frozen = by_sink.frozen_page(&pv);
        for f in &pv.fields {
            let a = frozen.row(f.node, &mut scratch);
            let names = by_ref.collect_names(&pv, f.node);
            let idx: Vec<u32> = names.iter().filter_map(|n| by_ref.dict.get(n)).collect();
            assert_eq!(a, SparseVec::from_indices(idx));
        }
    }

    #[test]
    fn pair_sinks_match_reference_and_reset_prefix() {
        let pv = page(r#"<div class="a"><b>S</b></div><div class="b"><i>O</i></div>"#);
        let mut space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let s = pv.fields[0].node;
        let o = pv.fields[1].node;
        let mut scratch = FeatureScratch::new();
        let v = space.pair_features_with(&pv, s, o, &mut scratch);
        let names = space.collect_pair_names(&pv, s, o);
        assert!(names.iter().any(|n| n.starts_with("S|")));
        assert!(names.iter().any(|n| n.starts_with("O|")));
        let idx: Vec<u32> = names.iter().filter_map(|n| space.dict.get(n)).collect();
        assert_eq!(v, SparseVec::from_indices(idx));
        // After a pair call, the same scratch must produce unprefixed
        // single-node names (prefix fully cleared).
        let single = space.features_with(&pv, s, &mut scratch);
        let single_names: Vec<String> =
            single.iter().map(|(i, _)| space.dict.name(i).to_string()).collect();
        assert!(single_names.iter().all(|n| !n.starts_with("S|") && !n.starts_with("O|")));
    }

    #[test]
    fn name_arena_round_trips_rows() {
        let pv = page(r#"<div class="q"><span>A</span><span>B</span></div>"#);
        let space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let mut arena = NameArena::default();
        let mut buf = NameBuf::default();
        for f in &pv.fields {
            space.emit_names(&pv, f.node, &mut buf, &mut arena);
            arena.end_row();
        }
        assert_eq!(arena.n_rows(), pv.fields.len());
        for (r, f) in pv.fields.iter().enumerate() {
            let from_arena: Vec<&str> = arena.row(r).collect();
            let reference = space.collect_names(&pv, f.node);
            assert_eq!(from_arena, reference, "row {r}");
        }
    }

    #[test]
    fn frozen_space_drops_new_features() {
        let pv = page("<div class=x>a</div>");
        let mut space = FeatureSpace::new(&[&pv], FeatureConfig::default());
        let v1 = space.features_with(&pv, pv.fields[0].node, &mut FeatureScratch::new());
        space.freeze();
        let pv2 = page("<div class=never-seen>b</div>");
        let v2 = space.features_with(&pv2, pv2.fields[0].node, &mut FeatureScratch::new());
        assert!(v2.nnz() < v1.nnz() + 5);
        assert!(space.dict.get("s:class=never-seen@l0o0").is_none());
    }

    #[test]
    fn ablation_switches_disable_feature_families() {
        let pv = page(r#"<div class="info"><span class="l">Director:</span><span>V</span></div>"#);
        let mut cfg = FeatureConfig { enable_text: false, ..FeatureConfig::default() };
        let mut s1 = FeatureSpace::new(&[&pv], cfg.clone());
        let v = s1.features_with(&pv, pv.fields[1].node, &mut FeatureScratch::new());
        let names: Vec<String> = v.iter().map(|(i, _)| s1.dict.name(i).to_string()).collect();
        assert!(names.iter().all(|n| n.starts_with("s:")));

        cfg.enable_text = true;
        cfg.enable_structural = false;
        cfg.frequent_string_page_frac = 0.0;
        let mut s2 = FeatureSpace::new(&[&pv], cfg);
        let v = s2.features_with(&pv, pv.fields[1].node, &mut FeatureScratch::new());
        let names: Vec<String> = v.iter().map(|(i, _)| s2.dict.name(i).to_string()).collect();
        assert!(names.iter().all(|n| n.starts_with("t:")), "{names:?}");
    }

    mod name_grammar {
        use super::*;
        use proptest::prelude::*;

        /// Role prefixes a name is assembled under: none, then the pair
        /// roles.
        const PREFIXES: [&str; 3] = ["", "S|", "O|"];

        proptest! {
            /// The fmt-free assembly appends exactly the bytes the old
            /// `write!` sites appended, for every name shape, at the
            /// integer extremes and under every role prefix.
            #[test]
            fn prop_names_equal_the_format_output(
                key in "[a-z]{1,8}",
                val in ".{0,12}",
                tag in "[a-z]{1,6}",
                level in 0usize..40,
                off in -12isize..12,
                wide_level in 0usize..usize::MAX,
                wide_off in isize::MIN..isize::MAX,
                norm in ".{0,40}",
                long_norm in "[a-zéж日]{28,40}",
                up in 0usize..8,
                raw_steps in proptest::collection::vec(("[a-z]{1,6}", 0u32..u32::MAX), 0..6),
            ) {
                let mut steps: Vec<Step> =
                    raw_steps.into_iter().map(|(tag, index)| Step { tag, index }).collect();
                steps.push(Step { tag: "li".to_string(), index: u32::MAX });
                let path: String = steps.iter().map(|s| format!("/{}[{}]", s.tag, s.index)).collect();
                let numbers = [
                    (level, off),
                    (wide_level, wide_off),
                    (0, isize::MIN),
                    (usize::MAX, isize::MAX),
                    (level, -1),
                ];
                let mut buf = NameBuf::default();
                for p in PREFIXES {
                    buf.set_prefix(p);
                    for (level, off) in numbers {
                        prop_assert_eq!(
                            buf.attr_name("tag", &tag, level, off),
                            format!("{p}s:tag={tag}@l{level}o{off}")
                        );
                        prop_assert_eq!(
                            buf.attr_name(&key, &val, level, off),
                            format!("{p}s:{key}={val}@l{level}o{off}")
                        );
                        prop_assert_eq!(
                            buf.sib_name(level, level / 3),
                            format!("{p}s:sib={level}@l{}", level / 3)
                        );
                    }
                    for (norm, up) in [(&norm, up), (&long_norm, usize::MAX)] {
                        let label = &norm[..norm.floor_char_boundary(30)];
                        prop_assert_eq!(
                            buf.text_name(norm, up, &steps),
                            format!("{p}t:{label}@^{up}{path}")
                        );
                        prop_assert_eq!(buf.text_name(norm, up, &[]), format!("{p}t:{label}@^{up}"));
                    }
                }
            }
        }
    }

    mod codec {
        use super::*;
        use proptest::prelude::*;

        fn roundtrip(space: &FeatureSpace) -> FeatureSpace {
            let mut w = ceres_store::Writer::new();
            space.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ceres_store::Reader::new(&bytes);
            let back = FeatureSpace::decode(&mut r).expect("decode");
            assert!(r.is_empty(), "decode must consume the whole encoding");
            back
        }

        proptest! {
            #[test]
            fn prop_feature_space_round_trips(
                names in proptest::collection::vec("[a-z:=@]{1,12}", 0..48),
                frequent in proptest::collection::vec(".{0,20}", 0..16),
                // Drawn from 0..2 and compared to 1: the shim has no bool
                // strategy.
                frozen in 0u32..2,
                enable_structural in 0u32..2,
                enable_text in 0u32..2,
                sibling_width in 0usize..9,
                frac in 0.0f64..1.0,
            ) {
                let mut dict = FeatureDict::new();
                for n in &names {
                    dict.intern(n);
                }
                if frozen == 1 {
                    dict.freeze();
                }
                let cfg = FeatureConfig {
                    sibling_width,
                    frequent_string_page_frac: frac,
                    enable_structural: enable_structural == 1,
                    enable_text: enable_text == 1,
                    ..FeatureConfig::default()
                };
                let frequent_set: FxHashSet<String> = frequent.iter().cloned().collect();
                let space = FeatureSpace { dict, frequent: frequent.clone(), frequent_set, cfg };

                let back = roundtrip(&space);
                prop_assert_eq!(back.dict.names(), space.dict.names());
                prop_assert_eq!(back.dict.is_frozen(), space.dict.is_frozen());
                prop_assert_eq!(&back.frequent, &space.frequent);
                // Derived state is rebuilt, not stored: membership agrees.
                for s in &frequent {
                    prop_assert!(back.frequent_set.contains(s));
                }
                prop_assert_eq!(back.cfg.sibling_width, space.cfg.sibling_width);
                prop_assert_eq!(back.cfg.enable_structural, space.cfg.enable_structural);
                prop_assert_eq!(back.cfg.enable_text, space.cfg.enable_text);
                prop_assert_eq!(
                    back.cfg.frequent_string_page_frac.to_bits(),
                    space.cfg.frequent_string_page_frac.to_bits()
                );
            }

            #[test]
            fn prop_feature_space_decode_of_random_bytes_never_panics(
                raw in proptest::collection::vec(0u32..256, 0..96)
            ) {
                let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
                let _ = FeatureSpace::decode(&mut ceres_store::Reader::new(&bytes));
            }
        }
    }
}
