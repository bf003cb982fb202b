//! Arena-backed DOM tree and the tree queries CERES needs.
//!
//! All nodes of a page live in one `Vec`; [`NodeId`] is a `u32` index. This
//! keeps per-page allocation low (important when processing hundreds of
//! thousands of pages) and makes node identity trivially copyable, which the
//! annotation bookkeeping (sets of mention nodes, ancestor maps) leans on.

use crate::xpath::{Step, XPath};
use ceres_text::{FxHashMap, FxHashSet};
use std::fmt::Write as _;

/// Distinct sibling tags [`Document::xpath_indices`] counts in a linear
/// list before it spills to a hash map.
const XPATH_TALLY_LINEAR: usize = 8;

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Payload of a DOM node: an element with attributes, or a text run.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// An element such as `<div class="cast">`. Attribute names are
    /// lowercased; values are entity-decoded. Order of attributes is the
    /// source order.
    Element { tag: String, attrs: Vec<(String, String)> },
    /// A text run (entity-decoded, whitespace preserved as in source).
    Text(String),
}

/// A single DOM node.
#[derive(Debug, Clone)]
pub struct Node {
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
    pub kind: NodeKind,
}

impl Node {
    pub fn is_element(&self) -> bool {
        matches!(self.kind, NodeKind::Element { .. })
    }

    pub fn tag(&self) -> Option<&str> {
        match &self.kind {
            NodeKind::Element { tag, .. } => Some(tag),
            NodeKind::Text(_) => None,
        }
    }

    /// Look up an attribute value by (lowercased) name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        match &self.kind {
            NodeKind::Element { attrs, .. } => {
                attrs.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
            }
            NodeKind::Text(_) => None,
        }
    }

    pub fn attrs(&self) -> &[(String, String)] {
        match &self.kind {
            NodeKind::Element { attrs, .. } => attrs,
            NodeKind::Text(_) => &[],
        }
    }
}

/// A parsed page: an arena of nodes under a synthetic `#document` root.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    root: NodeId,
}

impl Document {
    /// Create an empty document containing only the synthetic root.
    pub fn new() -> Self {
        let root = Node {
            parent: None,
            children: Vec::new(),
            kind: NodeKind::Element { tag: "#document".to_string(), attrs: Vec::new() },
        };
        Document { nodes: vec![root], root: NodeId(0) }
    }

    /// The synthetic `#document` root (never included in XPaths).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Append a new element under `parent`; returns its id.
    pub fn push_element(
        &mut self,
        parent: NodeId,
        tag: String,
        attrs: Vec<(String, String)>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            parent: Some(parent),
            children: Vec::new(),
            kind: NodeKind::Element { tag, attrs },
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Append a text node under `parent`; returns its id.
    pub fn push_text(&mut self, parent: NodeId, text: String) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            parent: Some(parent),
            children: Vec::new(),
            kind: NodeKind::Text(text),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// All node ids in arena (= document) order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over the subtree rooted at `id` (preorder, including `id`).
    pub fn subtree(&self, id: NodeId) -> SubtreeIter<'_> {
        SubtreeIter { doc: self, stack: vec![id] }
    }

    /// Ancestor chain starting at the parent of `id`, ending at the synthetic
    /// root (inclusive).
    pub fn ancestors(&self, id: NodeId) -> AncestorIter<'_> {
        AncestorIter { doc: self, next: self.node(id).parent }
    }

    /// Depth of a node (root children are depth 1; the root itself 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count()
    }

    /// Deepest node depth in the document (0 when only the root exists).
    /// One forward pass: nodes are arena-appended parent-before-child, so
    /// every parent's depth is known by the time its children are visited.
    pub fn max_depth(&self) -> usize {
        let mut depth = vec![0u32; self.nodes.len()];
        let mut max = 0u32;
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                depth[i] = depth[p.index()] + 1;
                max = max.max(depth[i]);
            }
        }
        max as usize
    }

    /// True if `ancestor` is a proper ancestor of `id`.
    pub fn is_ancestor(&self, ancestor: NodeId, id: NodeId) -> bool {
        self.ancestors(id).any(|a| a == ancestor)
    }

    /// The text directly owned by an element: its direct text children
    /// concatenated, whitespace collapsed and trimmed. Empty for text nodes
    /// (use the parent element) and for elements without direct text.
    pub fn own_text(&self, id: NodeId) -> String {
        let mut out = String::new();
        for &child in &self.node(id).children {
            if let NodeKind::Text(t) = &self.node(child).kind {
                for token in t.split_whitespace() {
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(token);
                }
            }
        }
        out
    }

    /// All text in the subtree of `id`, whitespace-normalized.
    pub fn deep_text(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.subtree(id) {
            if let NodeKind::Text(t) = &self.node(n).kind {
                for token in t.split_whitespace() {
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(token);
                }
            }
        }
        out
    }

    /// The *text fields* of the page: element nodes with non-empty
    /// [`own_text`](Self::own_text), in document order. These are the units
    /// CERES annotates, classifies, and extracts (paper §2.1: "most entity
    /// names correspond to full texts in a DOM tree node").
    pub fn text_fields(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for id in self.all_nodes() {
            if self.node(id).is_element() && id != self.root && self.has_own_text(id) {
                out.push(id);
            }
        }
        out
    }

    /// `!self.own_text(id).is_empty()` without building the string: some
    /// direct text child holds a whitespace-separated token.
    pub fn has_own_text(&self, id: NodeId) -> bool {
        self.node(id).children.iter().any(|&child| match &self.node(child).kind {
            NodeKind::Text(t) => t.split_whitespace().next().is_some(),
            NodeKind::Element { .. } => false,
        })
    }

    /// 1-based position of `id` among its same-tag element siblings — the
    /// index used in absolute XPath steps.
    pub fn xpath_index(&self, id: NodeId) -> u32 {
        let Some(parent) = self.node(id).parent else { return 1 };
        let tag = self.node(id).tag();
        let mut index = 0;
        for &sib in &self.nodes[parent.index()].children {
            if self.node(sib).tag() == tag {
                index += 1;
                if sib == id {
                    return index;
                }
            }
        }
        debug_assert!(false, "node not found among its parent's children");
        1
    }

    /// Every node's [`xpath_index`](Self::xpath_index), indexed by
    /// [`NodeId::index`], from one pass over each parent's children: a
    /// running per-tag count replaces the whole-sibling walk `xpath_index`
    /// makes for every step of every path. The counts live in a short list
    /// (a parent's children carry few distinct tags) that spills to a hash
    /// map past `XPATH_TALLY_LINEAR` tags, so a hostile page with
    /// thousands of distinct sibling tags stays linear. Read by
    /// [`Document::xpath_from`].
    pub fn xpath_indices(&self) -> Vec<u32> {
        let mut indices = vec![1u32; self.nodes.len()];
        let mut small: Vec<(Option<&str>, u32)> = Vec::with_capacity(XPATH_TALLY_LINEAR);
        let mut spill: FxHashMap<Option<&str>, u32> = FxHashMap::default();
        for node in &self.nodes {
            if node.children.len() < 2 {
                continue;
            }
            small.clear();
            spill.clear();
            for &child in &node.children {
                let tag = self.node(child).tag();
                indices[child.index()] = match small.iter().position(|(t, _)| *t == tag) {
                    Some(p) => {
                        small[p].1 += 1;
                        small[p].1
                    }
                    None if small.len() < XPATH_TALLY_LINEAR => {
                        small.push((tag, 1));
                        1
                    }
                    None => {
                        let n = spill.entry(tag).or_insert(0);
                        *n += 1;
                        *n
                    }
                };
            }
        }
        indices
    }

    /// 0-based position of `id` among *all element* siblings (the "sibling
    /// number" of the structural feature 4-tuples, §4.2).
    pub fn element_sibling_number(&self, id: NodeId) -> usize {
        let Some(parent) = self.node(id).parent else { return 0 };
        let mut n = 0;
        for &sib in &self.nodes[parent.index()].children {
            if sib == id {
                return n;
            }
            if self.node(sib).is_element() {
                n += 1;
            }
        }
        0
    }

    /// Element siblings of `id` within `width` positions on either side,
    /// excluding `id` itself. Returns `(offset, node)` pairs where `offset`
    /// is negative for preceding siblings.
    pub fn sibling_window(&self, id: NodeId, width: usize) -> Vec<(isize, NodeId)> {
        let mut out = Vec::new();
        self.sibling_window_into(id, width, &mut out);
        out
    }

    /// Allocation-reusing [`Document::sibling_window`]: clears `out` and
    /// fills it with the same `(offset, node)` pairs. The feature extractor
    /// calls this once per ancestor level of every node on every page —
    /// the buffer lives in its scratch state instead of being reallocated.
    pub fn sibling_window_into(&self, id: NodeId, width: usize, out: &mut Vec<(isize, NodeId)>) {
        out.clear();
        let Some(parent) = self.node(id).parent else { return };
        let children = &self.nodes[parent.index()].children;
        // Pass 1: position of `id` among its element siblings.
        let mut pos = None;
        let mut i = 0usize;
        for &c in children {
            if self.node(c).is_element() {
                if c == id {
                    pos = Some(i);
                }
                i += 1;
            }
        }
        let Some(pos) = pos else { return };
        let lo = pos.saturating_sub(width);
        let hi = pos + width;
        // Pass 2: emit the window, excluding `id` itself.
        let mut i = 0usize;
        for &c in children {
            if self.node(c).is_element() {
                if (lo..=hi).contains(&i) && c != id {
                    out.push((i as isize - pos as isize, c));
                }
                i += 1;
            }
        }
    }

    /// The absolute XPath of an element node, e.g.
    /// `/html[1]/body[1]/div[3]/span[2]`. Text nodes are addressed through
    /// their parent element (CERES classifies elements, not text runs).
    pub fn xpath(&self, id: NodeId) -> XPath {
        self.xpath_by(id, |n| self.xpath_index(n))
    }

    /// [`Document::xpath`] with every step index read from `indices`, the
    /// table [`Document::xpath_indices`] built for this document.
    pub fn xpath_from(&self, id: NodeId, indices: &[u32]) -> XPath {
        self.xpath_by(id, |n| indices[n.index()])
    }

    fn xpath_by(&self, id: NodeId, index: impl Fn(NodeId) -> u32) -> XPath {
        let target =
            if self.node(id).is_element() { id } else { self.node(id).parent.unwrap_or(self.root) };
        // One step per node from `target` up to, not including, the root.
        let mut steps = Vec::with_capacity(self.depth(target));
        let mut cur = target;
        while cur != self.root {
            let tag = self.node(cur).tag().unwrap_or("#text").to_string();
            steps.push(Step { tag, index: index(cur) });
            match self.node(cur).parent {
                Some(p) => cur = p,
                None => break,
            }
        }
        steps.reverse();
        XPath(steps)
    }

    /// Resolve an absolute XPath back to a node, if it exists on this page.
    pub fn resolve_xpath(&self, path: &XPath) -> Option<NodeId> {
        let mut cur = self.root;
        for step in &path.0 {
            let mut seen = 0u32;
            let mut found = None;
            for &child in &self.nodes[cur.index()].children {
                if self.node(child).tag() == Some(step.tag.as_str()) {
                    seen += 1;
                    if seen == step.index {
                        found = Some(child);
                        break;
                    }
                }
            }
            cur = found?;
        }
        Some(cur)
    }

    /// Algorithm 2, line 5: the **highest-level** ancestor of `mention` whose
    /// subtree contains no node from `others`. "Highest level" means closest
    /// to the root; we walk up from `mention` and stop just below the first
    /// ancestor that would pull in another mention.
    pub fn highest_exclusive_ancestor(&self, mention: NodeId, others: &[NodeId]) -> NodeId {
        let other_set: FxHashSet<NodeId> =
            others.iter().copied().filter(|&o| o != mention).collect();
        if other_set.is_empty() {
            // No competing mention: the whole page is exclusive; use the
            // topmost real element under the document root.
            return self.ancestors(mention).filter(|&a| a != self.root).last().unwrap_or(mention);
        }
        let mut best = mention;
        for anc in self.ancestors(mention) {
            if anc == self.root {
                break;
            }
            let contains_other = self.subtree(anc).any(|n| other_set.contains(&n));
            if contains_other {
                break;
            }
            best = anc;
        }
        best
    }

    /// Serialize back to HTML (used in tests for parse/serialize roundtrips
    /// and by examples to show pages).
    pub fn to_html(&self) -> String {
        let mut out = String::new();
        for &child in &self.nodes[self.root.index()].children {
            self.write_node(child, &mut out);
        }
        out
    }

    fn write_node(&self, id: NodeId, out: &mut String) {
        match &self.node(id).kind {
            NodeKind::Text(t) => out.push_str(&crate::escape::escape_text(t)),
            NodeKind::Element { tag, attrs } => {
                out.push('<');
                out.push_str(tag);
                for (k, v) in attrs {
                    let _ = write!(out, " {}=\"{}\"", k, crate::escape::escape_attr(v));
                }
                out.push('>');
                for &child in &self.node(id).children {
                    self.write_node(child, out);
                }
                let _ = write!(out, "</{tag}>");
            }
        }
    }

    /// Structural sanity check used by tests: every child's parent pointer
    /// matches, and every non-root node is reachable from the root.
    pub fn check_consistency(&self) -> Result<(), String> {
        for id in self.all_nodes() {
            for &child in &self.node(id).children {
                if self.node(child).parent != Some(id) {
                    return Err(format!("child {child:?} of {id:?} has wrong parent"));
                }
            }
        }
        let reachable: usize = self.subtree(self.root).count();
        if reachable != self.nodes.len() {
            return Err(format!("{} nodes, {} reachable from root", self.nodes.len(), reachable));
        }
        Ok(())
    }
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

/// Preorder subtree iterator.
pub struct SubtreeIter<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for SubtreeIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let children = &self.doc.node(id).children;
        self.stack.extend(children.iter().rev().copied());
        Some(id)
    }
}

/// Iterator over ancestors, nearest first, ending at the synthetic root.
pub struct AncestorIter<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for AncestorIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.node(id).parent;
        Some(id)
    }
}
