//! Name-level reference for node-text features (§4.2).
//!
//! The emitter builds each `t:{string}@^{up}/tag[i]…` name from the nearby
//! field's stored XPath. The reference below builds the same name the
//! straightforward way: both root-to-node chains, the lowest common
//! ancestor found by set membership, and `xpath_index` re-walked per step.
//! Every `t:` name the emitter produces must equal the reference-built
//! name, in order — on movie-vertical pages, IMDb pages, and random nested
//! HTML. (Sink-vs-`collect_names` suites cannot catch a changed name:
//! both sides run the same emitter.)
//!
//! The serve path reads node-text ids from a per-page memo instead of
//! streaming names, so the same fixtures also pin `FrozenPage::row` to
//! `features_with` on the frozen space: every field visited in a seeded
//! shuffled order while the memo fills, then again once it is warm, on
//! trained pages (dictionary hits) and unseen ones (cached misses). Each
//! served page is also built the way `TrainedSite` builds it, without KB
//! matching (`PageView::build_unmatched`), and its frozen rows must equal
//! the matched build's reference rows.

use ceres::core::config::FeatureConfig;
use ceres::core::features::{FeatureScratch, FeatureSpace};
use ceres::core::page::PageView;
use ceres::dom::{parse_html, Document, NodeId};
use ceres::kb::{Kb, KbBuilder, Ontology};
use ceres::ml::SparseVec;
use ceres::synth::imdb;
use ceres::synth::swde::{movie_vertical, SwdeConfig};
use proptest::prelude::*;
use std::collections::HashSet;

/// Relative tree path from `from` to `to`: `^k/tag[i]/tag[j]` (up `k`
/// levels to the lowest common ancestor, then down the given steps).
fn reference_relative_path(doc: &Document, from: NodeId, to: NodeId) -> String {
    let chain = |mut n: NodeId| -> Vec<NodeId> {
        let mut v = vec![n];
        while let Some(p) = doc.node(n).parent {
            v.push(p);
            n = p;
        }
        v
    };
    let from_chain = chain(from);
    let to_chain = chain(to);
    let from_set: HashSet<NodeId> = from_chain.iter().copied().collect();
    let lca = *to_chain.iter().find(|n| from_set.contains(n)).unwrap_or(&doc.root());
    let up = from_chain.iter().position(|&n| n == lca).unwrap_or(0);
    let mut out = format!("^{up}");
    let lca_pos = to_chain.iter().position(|&n| n == lca).unwrap_or(0);
    for &n in to_chain[..lca_pos].iter().rev() {
        let tag = doc.node(n).tag().unwrap_or("#text");
        out.push_str(&format!("/{}[{}]", tag, doc.xpath_index(n)));
    }
    out
}

/// The node-text names of `node`, built with the reference path and a DOM
/// ancestor walk for the scope test.
fn reference_text_names(space: &FeatureSpace, page: &PageView, node: NodeId) -> Vec<String> {
    let cfg = &space.cfg;
    let frequent: HashSet<&str> = space.frequent.iter().map(String::as_str).collect();
    if !cfg.enable_text || frequent.is_empty() {
        return Vec::new();
    }
    let doc = &page.doc;
    let scope = doc.ancestors(node).take(cfg.text_feature_levels).last().unwrap_or(node);
    let mut scanned = 0;
    let mut out = Vec::new();
    for f in &page.fields {
        if f.node == node || !(f.node == scope || doc.is_ancestor(scope, f.node)) {
            continue;
        }
        if scanned >= cfg.max_nearby_fields {
            break;
        }
        scanned += 1;
        if frequent.contains(f.norm.as_str()) {
            let label = &f.norm[..f.norm.floor_char_boundary(30)];
            out.push(format!("t:{label}@{}", reference_relative_path(doc, node, f.node)));
        }
    }
    out
}

/// Assert emitter == reference for every field of `pages`; returns how
/// many `t:` names were compared.
fn check_pages(space: &FeatureSpace, pages: &[PageView]) -> usize {
    let mut compared = 0;
    for pv in pages {
        for f in &pv.fields {
            let emitted: Vec<String> = space
                .collect_names(pv, f.node)
                .into_iter()
                .filter(|n| n.starts_with("t:"))
                .collect();
            let reference = reference_text_names(space, pv, f.node);
            assert_eq!(emitted, reference, "page {} node {:?}", pv.page_id, f.node);
            compared += emitted.len();
        }
    }
    compared
}

/// `0..n` in a seeded Fisher–Yates order (xorshift64*).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let j = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Train `space` on every field of `train`, freeze it, and assert that
/// `FrozenPage::row` equals `features_with` for every field of `served`:
/// first in a seeded shuffled order while the page memo fills, then in a
/// second shuffled order once it is warm. The rows of each page's served
/// build (`unmatched[p]`, the same HTML built without KB matching) must
/// equal the same references. Returns how many `t:` ids the rows carried
/// and how many `t:` names they dropped as dictionary misses.
fn check_frozen_rows(
    mut space: FeatureSpace,
    train: &[PageView],
    served: &[PageView],
    unmatched: &[PageView],
    seed: u64,
) -> (usize, usize) {
    assert_eq!(served.len(), unmatched.len());
    let mut scratch = FeatureScratch::new();
    for pv in train {
        for f in &pv.fields {
            space.features_with(pv, f.node, &mut scratch);
        }
    }
    space.freeze();
    let (mut hits, mut misses) = (0, 0);
    for (p, pv) in served.iter().enumerate() {
        let expected: Vec<SparseVec> =
            pv.fields.iter().map(|f| space.features_with(pv, f.node, &mut scratch)).collect();
        for (build, view) in [("matched", pv), ("unmatched", &unmatched[p])] {
            assert_eq!(view.fields.len(), pv.fields.len(), "page {} {build}", pv.page_id);
            let mut frozen = space.frozen_page(view);
            for pass in 0..2u64 {
                for fi in shuffled(pv.fields.len(), seed ^ ((p as u64) << 1) ^ pass) {
                    let node = view.fields[fi].node;
                    let row = frozen.row(node, &mut scratch);
                    assert_eq!(
                        row, expected[fi],
                        "page {} node {node:?} pass {pass} {build}",
                        pv.page_id
                    );
                }
            }
        }
        for (f, x) in pv.fields.iter().zip(&expected) {
            let ids = x.iter().filter(|&(id, _)| space.dict.name(id).starts_with("t:")).count();
            let names =
                space.collect_names(pv, f.node).iter().filter(|n| n.starts_with("t:")).count();
            hits += ids;
            misses += names - ids;
        }
    }
    (hits, misses)
}

fn views(site: &ceres::synth::dataset::Site, kb: &Kb, n: usize) -> Vec<PageView> {
    site.pages.iter().take(n).map(|p| PageView::build(&p.id, &p.html, kb)).collect()
}

/// The first `n` pages of `site` built as a `TrainedSite` serves them.
fn served_views(site: &ceres::synth::dataset::Site, n: usize) -> Vec<PageView> {
    site.pages.iter().take(n).map(|p| PageView::build_unmatched(&p.id, &p.html)).collect()
}

fn space_over(pages: &[PageView], cfg: FeatureConfig) -> FeatureSpace {
    let refs: Vec<&PageView> = pages.iter().collect();
    FeatureSpace::new(&refs, cfg)
}

#[test]
fn relative_path_format() {
    let doc = parse_html("<div><span>label</span><ul><li>value</li></ul></div>");
    let fields = doc.text_fields();
    let (label, value) = (fields[0], fields[1]);
    // From the li up to div (2 levels), down into span.
    assert_eq!(reference_relative_path(&doc, value, label), "^2/span[1]");
    assert_eq!(reference_relative_path(&doc, label, value), "^1/ul[1]/li[1]");
    assert_eq!(reference_relative_path(&doc, value, value), "^0");
}

#[test]
fn text_names_equal_the_reference_on_movie_vertical_pages() {
    let (v, _) = movie_vertical(SwdeConfig { seed: 13, scale: 0.02 });
    let mut compared = 0;
    for site in v.sites.iter().take(4) {
        let pages = views(site, &v.kb, 10);
        compared += check_pages(&space_over(&pages, FeatureConfig::default()), &pages);
    }
    assert!(compared > 500, "fixture too small: {compared} text names");
}

#[test]
fn text_names_equal_the_reference_on_imdb_pages() {
    let d = imdb::generate(5, 0.01);
    let mut compared = 0;
    for site in [&d.movie_site, &d.person_site] {
        let pages = views(site, &d.kb, 8);
        compared += check_pages(&space_over(&pages, FeatureConfig::default()), &pages);
    }
    assert!(compared > 200, "fixture too small: {compared} text names");
}

#[test]
fn frozen_rows_equal_features_with_on_movie_vertical_pages() {
    let (v, _) = movie_vertical(SwdeConfig { seed: 13, scale: 0.02 });
    let (mut hits, mut misses) = (0, 0);
    for (s, site) in v.sites.iter().take(4).enumerate() {
        let pages = views(site, &v.kb, 10);
        let (train, _) = pages.split_at(6);
        let space = space_over(train, FeatureConfig::default());
        let (h, m) = check_frozen_rows(space, train, &pages, &served_views(site, 10), s as u64 + 1);
        hits += h;
        misses += m;
    }
    assert!(hits > 500 && misses > 0, "fixture too small: {hits} t: ids, {misses} misses");
}

#[test]
fn frozen_rows_equal_features_with_on_imdb_pages() {
    let d = imdb::generate(5, 0.01);
    let (mut hits, mut misses) = (0, 0);
    for (s, site) in [&d.movie_site, &d.person_site].into_iter().enumerate() {
        let pages = views(site, &d.kb, 8);
        let (train, _) = pages.split_at(5);
        let space = space_over(train, FeatureConfig::default());
        let (h, m) = check_frozen_rows(space, train, &pages, &served_views(site, 8), s as u64 + 7);
        hits += h;
        misses += m;
    }
    assert!(hits > 200 && misses > 0, "fixture too small: {hits} t: ids, {misses} misses");
}

const TAGS: [&str; 6] = ["div", "span", "ul", "li", "p", "b"];
/// Includes a 33-byte string whose 30th byte falls inside a character.
const TEXTS: [&str; 5] = ["Director:", "Genre:", "Cast", "x y", "aéééééééééééééééé"];

/// Random nested HTML: each op opens a tag, writes a text, or closes the
/// innermost open tag.
fn nested_html(ops: &[u32]) -> String {
    let mut html = String::new();
    let mut open: Vec<&str> = Vec::new();
    for &op in ops {
        match op {
            0..=5 => {
                let tag = TAGS[op as usize];
                html.push_str(&format!("<{tag} class=c{}>", open.len() % 3));
                open.push(tag);
            }
            6..=10 => html.push_str(TEXTS[op as usize - 6]),
            _ => {
                if let Some(tag) = open.pop() {
                    html.push_str(&format!("</{tag}>"));
                }
            }
        }
    }
    html
}

fn empty_kb() -> Kb {
    KbBuilder::new(Ontology::new()).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_text_names_equal_the_reference_on_random_nested_html(
        ops in proptest::collection::vec(0u32..14, 1..80),
        levels in 0usize..6,
        nearby in 1usize..12,
    ) {
        let pv = PageView::build("p", &nested_html(&ops), &empty_kb());
        let cfg = FeatureConfig {
            text_feature_levels: levels,
            max_nearby_fields: nearby,
            frequent_string_page_frac: 0.0,
            ..FeatureConfig::default()
        };
        // Counting the page twice makes every short field text frequent.
        let space = FeatureSpace::new(&[&pv, &pv], cfg);
        check_pages(&space, std::slice::from_ref(&pv));
    }

    #[test]
    fn prop_frozen_rows_equal_features_with_on_random_nested_html(
        trained_ops in proptest::collection::vec(0u32..14, 1..80),
        unseen_ops in proptest::collection::vec(0u32..14, 1..80),
        levels in 0usize..6,
        nearby in 1usize..12,
        seed in 0u64..u64::MAX,
    ) {
        // Every page opens with the long label twice, so a frequent label
        // is always cut inside a multibyte character.
        let long = TEXTS[4];
        let html =
            |ops: &[u32]| format!("<div><b>{long}</b><i>{long}</i></div>{}", nested_html(ops));
        let htmls = [html(&trained_ops), html(&unseen_ops)];
        let pages = htmls.clone().map(|h| PageView::build("p", &h, &empty_kb()));
        let unmatched = htmls.map(|h| PageView::build_unmatched("p", &h));
        let cfg = FeatureConfig {
            text_feature_levels: levels,
            max_nearby_fields: nearby,
            frequent_string_page_frac: 0.0,
            ..FeatureConfig::default()
        };
        let space = FeatureSpace::new(&[&pages[0], &pages[0]], cfg);
        prop_assert!(space.frequent.iter().any(|s| s.len() > 30 && !s.is_char_boundary(30)));
        check_frozen_rows(space, &pages[..1], &pages, &unmatched, seed);
    }
}
