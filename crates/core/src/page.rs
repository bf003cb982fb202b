//! Parsed page views with precomputed KB matches.
//!
//! The pipeline touches each text field many times (topic scoring, relation
//! annotation, feature extraction, extraction); [`PageView`] computes the
//! expensive per-field facts — normalized text, KB matches, XPath — exactly
//! once. Served pages skip the KB matches: extraction never reads them
//! ([`PageView::build_unmatched`]).

use crate::config::GuardConfig;
use crate::session::PageError;
use ceres_dom::{parse_html, Document, NodeId, XPath};
use ceres_kb::{Kb, MatchCache, ValueId};
use ceres_text::{fold_unique, normalize, FxHashMap};

/// One text field of a page.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    pub node: NodeId,
    /// Whitespace-normalized visible text.
    pub text: String,
    /// [`ceres_text::normalize`](fn@ceres_text::normalize)d form of `text`.
    pub norm: String,
    /// KB values this field's text matches (possibly several: ambiguity).
    pub matches: Vec<ValueId>,
    pub xpath: XPath,
    /// The generator's ground-truth id (`data-gt`), carried for evaluation
    /// only. The feature extractor never reads it (tested).
    pub gt_id: Option<u32>,
}

/// A parsed page plus its per-field index.
#[derive(Debug)]
pub struct PageView {
    pub page_id: String,
    pub doc: Document,
    pub fields: Vec<FieldInfo>,
    /// `NodeId → fields index`, built once so [`PageView::field_of_node`]
    /// is O(1) instead of a linear scan per call.
    field_by_node: FxHashMap<NodeId, usize>,
    /// Euler-tour entry/exit clocks per node, built once so
    /// [`PageView::in_subtree`] is O(1) instead of an ancestor walk (the
    /// feature extractor's nearby-text scan tests subtree membership for
    /// every (node, field) pair).
    enter: Vec<u32>,
    exit: Vec<u32>,
}

/// Where a build looks up its fields' KB matches.
enum Matcher<'a, 'kb> {
    Kb(&'a Kb),
    /// Read-through over the cache's KB (see [`PageView::build_with_cache`]).
    Cache(&'a mut MatchCache<'kb>),
}

impl PageView {
    /// Parse `html` and match every text field against `kb`.
    pub fn build(page_id: &str, html: &str, kb: &Kb) -> PageView {
        PageView::build_inner(page_id, html, Some(Matcher::Kb(kb)))
    }

    /// [`PageView::build`] matching through a shared [`MatchCache`] — the
    /// streaming ingest path hands each parse micro-batch one cache so
    /// field strings repeated *across* a batch's pages resolve once.
    /// Byte-identical to [`PageView::build`] (the cache is read-through
    /// over the immutable KB index; it can only change timing).
    pub fn build_with_cache(
        page_id: &str,
        html: &str,
        kb: &Kb,
        cache: &mut MatchCache<'_>,
    ) -> PageView {
        debug_assert!(std::ptr::eq(kb, cache.kb()), "cache over a different KB");
        PageView::build_inner(page_id, html, Some(Matcher::Cache(cache)))
    }

    /// Parse `html` without matching it against any KB: every field's
    /// `matches` is empty, and everything else equals [`PageView::build`].
    /// Extraction (§4.3) reads only the DOM, field texts and XPaths, so the
    /// pages a [`TrainedSite`](crate::session::TrainedSite) serves are
    /// built this way; the KB only makes training labels.
    pub fn build_unmatched(page_id: &str, html: &str) -> PageView {
        PageView::build_inner(page_id, html, None)
    }

    /// Shared core of the build paths. Every step index of every field's
    /// XPath comes from one per-page table ([`Document::xpath_indices`]).
    /// With a `matcher`, matching is batched: identical normalized field
    /// strings are folded to one lookup ([`fold_unique`] — template pages
    /// repeat labels and shared values heavily), the distinct strings go
    /// through one shard-grouped [`Kb::match_batch`] call (optionally
    /// memoized by a cache), and the answers fan back out per field.
    /// `match_batch(uniq)[slot[i]]` is exactly `match_norm(norm[i])`, so the
    /// produced `FieldInfo`s are byte-identical to the old per-field loop
    /// (pinned in `tests/match_path.rs`). Without one, no field is matched.
    fn build_inner(page_id: &str, html: &str, matcher: Option<Matcher<'_, '_>>) -> PageView {
        let doc = parse_html(html);
        let indices = doc.xpath_indices();
        let nodes = doc.text_fields();
        let mut fields = Vec::with_capacity(nodes.len());
        let mut field_by_node =
            FxHashMap::with_capacity_and_hasher(nodes.len(), Default::default());
        for node in nodes {
            let text = doc.own_text(node);
            let gt_id = doc.node(node).attr("data-gt").and_then(|v| v.parse().ok());
            field_by_node.insert(node, fields.len());
            fields.push(FieldInfo {
                node,
                // Normalize once; `match_batch` consumes the canonical form
                // directly.
                norm: normalize(&text),
                text,
                matches: Vec::new(),
                xpath: doc.xpath_from(node, &indices),
                gt_id,
            });
        }
        if let Some(matcher) = matcher {
            let (matched, slots) = {
                let norms: Vec<&str> = fields.iter().map(|f| f.norm.as_str()).collect();
                let fold = fold_unique(&norms);
                let matched = match matcher {
                    Matcher::Kb(kb) => kb.match_batch(&fold.uniq),
                    Matcher::Cache(cache) => cache.match_batch(&fold.uniq),
                };
                (matched, fold.slots)
            };
            for (f, slot) in fields.iter_mut().zip(slots) {
                f.matches = matched[slot as usize].to_vec();
            }
        }
        let (enter, exit) = euler_intervals(&doc);
        PageView { page_id: page_id.to_string(), doc, fields, field_by_node, enter, exit }
    }

    /// Guarded [`PageView::build`] for the fault-isolated ingest/serve
    /// paths: applies `guards`' pre-parse size cap and post-parse
    /// structure checks, returning a typed [`PageError`] instead of
    /// feeding a hostile page downstream. [`PageView::build`] itself stays
    /// infallible and guard-free (the fail-fast paths are unchanged).
    ///
    /// With the test-only `fault-inject` feature, a page whose HTML
    /// contains [`crate::session::FAULT_PANIC_MARKER`] panics here —
    /// the hook seeded fault plans use to prove panic containment.
    pub fn try_build(
        page_id: &str,
        html: &str,
        kb: &Kb,
        guards: &GuardConfig,
    ) -> Result<PageView, PageError> {
        PageView::try_build_inner(page_id, html, Some(Matcher::Kb(kb)), guards)
    }

    /// [`PageView::try_build`] matching through a shared [`MatchCache`]
    /// (see [`PageView::build_with_cache`] — same contract, guarded path).
    pub fn try_build_with_cache(
        page_id: &str,
        html: &str,
        kb: &Kb,
        guards: &GuardConfig,
        cache: &mut MatchCache<'_>,
    ) -> Result<PageView, PageError> {
        debug_assert!(std::ptr::eq(kb, cache.kb()), "cache over a different KB");
        PageView::try_build_inner(page_id, html, Some(Matcher::Cache(cache)), guards)
    }

    /// [`PageView::try_build`] without KB matching (see
    /// [`PageView::build_unmatched`]): the same guards, the same
    /// `fault-inject` hook, the same outcome on every page.
    pub fn try_build_unmatched(
        page_id: &str,
        html: &str,
        guards: &GuardConfig,
    ) -> Result<PageView, PageError> {
        PageView::try_build_inner(page_id, html, None, guards)
    }

    /// The single guarded build core: the `fault-inject` hook, the size
    /// cap, then [`PageView::build_inner`] and the structure checks.
    fn try_build_inner(
        page_id: &str,
        html: &str,
        matcher: Option<Matcher<'_, '_>>,
        guards: &GuardConfig,
    ) -> Result<PageView, PageError> {
        #[cfg(feature = "fault-inject")]
        if html.contains(crate::session::FAULT_PANIC_MARKER) {
            // lint: allow(CL003) reason="test-only fault-inject feature: this panic IS the seeded fault the containment suite detonates to prove isolation"
            panic!("injected fault: page {page_id}");
        }
        if html.len() > guards.max_page_bytes {
            return Err(PageError::OversizedPage {
                bytes: html.len(),
                limit: guards.max_page_bytes,
            });
        }
        let view = PageView::build_inner(page_id, html, matcher);
        let depth = view.doc.max_depth();
        if depth > guards.max_dom_depth {
            return Err(PageError::ParseDepthExceeded { depth, limit: guards.max_dom_depth });
        }
        if view.fields.is_empty() {
            return Err(PageError::EmptyDom);
        }
        Ok(view)
    }

    /// Index of the field at `node`, if it is a text field.
    pub fn field_of_node(&self, node: NodeId) -> Option<usize> {
        self.field_by_node.get(&node).copied()
    }

    /// True if `node` lies in the subtree rooted at `ancestor` (including
    /// `node == ancestor`). O(1) via the precomputed Euler intervals;
    /// equivalent to `node == ancestor || doc.is_ancestor(ancestor, node)`.
    #[inline]
    pub fn in_subtree(&self, ancestor: NodeId, node: NodeId) -> bool {
        self.enter[ancestor.index()] <= self.enter[node.index()]
            && self.exit[node.index()] <= self.exit[ancestor.index()]
    }

    /// All distinct KB values mentioned on the page (the `pageSet` of
    /// Algorithm 1), sorted for Jaccard computation.
    pub fn page_value_set(&self) -> Vec<ValueId> {
        let mut v: Vec<ValueId> =
            self.fields.iter().flat_map(|f| f.matches.iter().copied()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Fields whose matches contain `value` (all mentions of a KB value).
    pub fn mentions_of(&self, value: ValueId) -> Vec<usize> {
        self.fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.matches.contains(&value))
            .map(|(i, _)| i)
            .collect()
    }
}

/// One iterative DFS assigning entry/exit clocks to every node.
fn euler_intervals(doc: &Document) -> (Vec<u32>, Vec<u32>) {
    let n = doc.len();
    let mut enter = vec![0u32; n];
    let mut exit = vec![0u32; n];
    let mut clock = 0u32;
    let root = doc.root();
    enter[root.index()] = clock;
    clock += 1;
    let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
    while let Some(top) = stack.last_mut() {
        let (id, ci) = *top;
        let children = &doc.node(id).children;
        if ci < children.len() {
            top.1 += 1;
            let c = children[ci];
            enter[c.index()] = clock;
            clock += 1;
            stack.push((c, 0));
        } else {
            exit[id.index()] = clock;
            clock += 1;
            stack.pop();
        }
    }
    (enter, exit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_kb::{KbBuilder, Ontology};

    fn kb() -> Kb {
        let mut o = Ontology::new();
        let film = o.register_type("Film");
        let person = o.register_type("Person");
        let directed = o.register_pred("directedBy", film, true);
        let mut b = KbBuilder::new(o);
        let f = b.entity(film, "Do the Right Thing");
        let p = b.entity(person, "Spike Lee");
        b.triple(f, directed, p);
        b.build()
    }

    #[test]
    fn builds_fields_with_matches() {
        let kb = kb();
        let html = r#"<html><body><h1 data-gt="0">Do the Right Thing</h1><div><span data-gt="1">Spike Lee</span><span data-gt="2">Nobody Known</span></div></body></html>"#;
        let pv = PageView::build("p1", html, &kb);
        assert_eq!(pv.fields.len(), 3);
        assert_eq!(pv.fields[0].matches.len(), 1);
        assert_eq!(pv.fields[1].matches.len(), 1);
        assert!(pv.fields[2].matches.is_empty());
        assert_eq!(pv.fields[1].gt_id, Some(1));
        assert_eq!(pv.page_value_set().len(), 2);
    }

    #[test]
    fn mentions_of_finds_all_occurrences() {
        let kb = kb();
        let lee = kb.match_text("Spike Lee")[0];
        let html = "<div><b>Spike Lee</b></div><ul><li>Spike Lee</li><li>Other</li></ul>";
        let pv = PageView::build("p", html, &kb);
        assert_eq!(pv.mentions_of(lee).len(), 2);
    }

    #[test]
    fn field_of_node_maps_every_field_and_only_fields() {
        let kb = kb();
        let html = "<div><b>Spike Lee</b></div><ul><li>A</li><li>B</li></ul>";
        let pv = PageView::build("p", html, &kb);
        for (i, f) in pv.fields.iter().enumerate() {
            assert_eq!(pv.field_of_node(f.node), Some(i));
        }
        // A non-field node (the root) maps to nothing.
        assert_eq!(pv.field_of_node(pv.doc.root()), None);
    }

    #[test]
    fn in_subtree_matches_the_ancestor_walk() {
        let kb = kb();
        let html = "<div><b>a</b><i><u>b</u></i></div><p>c</p>";
        let pv = PageView::build("p", html, &kb);
        for a in pv.doc.all_nodes() {
            for n in pv.doc.all_nodes() {
                let reference = n == a || pv.doc.is_ancestor(a, n);
                assert_eq!(pv.in_subtree(a, n), reference, "a={a:?} n={n:?}");
            }
        }
    }

    #[test]
    fn empty_page_is_fine() {
        let kb = kb();
        let pv = PageView::build("empty", "", &kb);
        assert!(pv.fields.is_empty());
        assert!(pv.page_value_set().is_empty());
    }

    #[test]
    fn try_build_types_each_guard_violation() {
        let kb = kb();
        let guards = GuardConfig { max_page_bytes: 128, max_dom_depth: 4 };
        let over = "x".repeat(129);
        assert!(matches!(
            PageView::try_build("big", &over, &kb, &guards),
            Err(PageError::OversizedPage { bytes: 129, limit: 128 })
        ));
        let deep = format!("{}t{}", "<div>".repeat(6), "</div>".repeat(6));
        assert!(matches!(
            PageView::try_build("deep", &deep, &kb, &guards),
            Err(PageError::ParseDepthExceeded { limit: 4, .. })
        ));
        assert!(matches!(
            PageView::try_build("hollow", "<div></div>", &kb, &guards),
            Err(PageError::EmptyDom)
        ));
        let ok = PageView::try_build("fine", "<p>Spike Lee</p>", &kb, &guards).unwrap();
        assert_eq!(ok.fields.len(), 1);
    }

    /// The unmatched build is the matched build with every `matches` list
    /// empty: same document, fields, XPaths, node index and Euler clocks.
    fn assert_unmatched_equals_matched(html: &str, kb: &Kb) {
        let matched = PageView::build("p", html, kb);
        let unmatched = PageView::build_unmatched("p", html);
        assert_eq!(unmatched.page_id, matched.page_id);
        assert_eq!(unmatched.doc.to_html(), matched.doc.to_html());
        assert_eq!(unmatched.fields.len(), matched.fields.len());
        for (u, m) in unmatched.fields.iter().zip(&matched.fields) {
            assert_eq!((u.node, &u.text, &u.norm), (m.node, &m.text, &m.norm));
            assert_eq!((&u.xpath, u.gt_id), (&m.xpath, m.gt_id));
            assert!(u.matches.is_empty());
        }
        assert_eq!(unmatched.field_by_node, matched.field_by_node);
        assert_eq!((&unmatched.enter, &unmatched.exit), (&matched.enter, &matched.exit));
        let guards = GuardConfig { max_page_bytes: 256, max_dom_depth: 6 };
        let tried = |r: Result<PageView, PageError>| r.map(|v| v.fields.len());
        assert_eq!(
            tried(PageView::try_build_unmatched("p", html, &guards)),
            tried(PageView::try_build("p", html, kb, &guards))
        );
    }

    #[test]
    fn unmatched_build_is_the_matched_build_without_matches() {
        let kb = kb();
        let html = r#"<html><body><h1 data-gt="0">Do the Right Thing</h1><div><span data-gt="1">Spike Lee</span><span>Spike Lee</span><b>Other</b></div></body></html>"#;
        assert!(PageView::build("p", html, &kb).fields.iter().any(|f| !f.matches.is_empty()));
        assert_unmatched_equals_matched(html, &kb);
    }

    mod hostile_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Arbitrary input — byte soup, stray brackets, anything — is
            /// either built or refused with a typed [`PageError`]; neither
            /// path panics and the arena stays consistent.
            #[test]
            fn build_and_try_build_survive_arbitrary_input(s in ".*") {
                let kb = kb();
                let pv = PageView::build("fuzz", &s, &kb);
                pv.doc.check_consistency().unwrap();
                let guards = GuardConfig::default();
                match PageView::try_build("fuzz", &s, &kb, &guards) {
                    Ok(view) => {
                        view.doc.check_consistency().unwrap();
                        prop_assert!(!view.fields.is_empty());
                        prop_assert!(view.doc.max_depth() <= guards.max_dom_depth);
                        prop_assert!(s.len() <= guards.max_page_bytes);
                    }
                    Err(e) => prop_assert!(PageError::KINDS.contains(&e.kind())),
                }
            }

            /// The unmatched build agrees with the matched one on any input.
            #[test]
            fn unmatched_build_agrees_on_taggy_input(
                s in "(<(div|p|b|h1)>|</(div|p|b|h1)>|Spike Lee|[a-z &;<>]{0,6}){0,30}",
            ) {
                assert_unmatched_equals_matched(&s, &kb());
            }

            /// Under adversarially tight guards every outcome is still a
            /// typed refusal or a view that satisfies both limits.
            #[test]
            fn tight_guards_always_hold_on_taggy_input(
                s in "(<(div|p|b)>|</(div|p|b)>|[a-z &;<>]{0,6}){0,30}",
                max_bytes in 8usize..200,
                max_depth in 1usize..8,
            ) {
                let kb = kb();
                let guards = GuardConfig { max_page_bytes: max_bytes, max_dom_depth: max_depth };
                match PageView::try_build("fuzz", &s, &kb, &guards) {
                    Ok(view) => {
                        prop_assert!(s.len() <= max_bytes);
                        prop_assert!(view.doc.max_depth() <= max_depth);
                        prop_assert!(!view.fields.is_empty());
                    }
                    Err(PageError::OversizedPage { bytes, limit }) => {
                        prop_assert_eq!(bytes, s.len());
                        prop_assert!(bytes > limit);
                    }
                    Err(PageError::ParseDepthExceeded { depth, limit }) => {
                        prop_assert!(depth > limit);
                    }
                    Err(PageError::EmptyDom) => {}
                    Err(other) => prop_assert!(false, "unexpected {other:?}"),
                }
            }
        }
    }
}
