//! Unit tests for the DOM substrate: tolerant parsing of unclosed tags and
//! XPath round-trips through the arena.

use ceres_dom::{parse_html, XPath};

#[test]
fn unclosed_tags_still_yield_their_text() {
    // <li> and <p> are routinely left unclosed on real sites.
    let doc = parse_html("<ul><li>First<li>Second<li>Third</ul><p>after");
    let texts: Vec<String> = doc.text_fields().into_iter().map(|f| doc.own_text(f)).collect();
    for want in ["First", "Second", "Third", "after"] {
        assert!(texts.iter().any(|t| t == want), "text {want:?} lost; got {texts:?}");
    }
}

#[test]
fn unclosed_nested_blocks_keep_document_well_formed() {
    let doc = parse_html("<div><b>bold<div><i>italic</div>tail");
    // Every node's parent/children links must be mutually consistent.
    for id in doc.all_nodes() {
        if let Some(parent) = doc.node(id).parent {
            assert!(
                doc.node(parent).children.contains(&id),
                "node {id:?} missing from its parent's child list"
            );
        }
        for &child in &doc.node(id).children {
            assert_eq!(doc.node(child).parent, Some(id));
        }
    }
    let all: String =
        doc.text_fields().into_iter().map(|f| doc.own_text(f)).collect::<Vec<_>>().join(" ");
    assert!(all.contains("bold") && all.contains("italic") && all.contains("tail"));
}

#[test]
fn parser_tolerates_garbage_without_panicking() {
    for html in [
        "",
        "<",
        "<<<>>>",
        "</closes-nothing>",
        "<a href=>unterminated",
        "<div class=\"never closed",
        "text & <b>only</b> &amp; entities &#65;",
        "<DIV><Span>case</SPAN></div>",
    ] {
        let _ = parse_html(html); // must not panic
    }
}

#[test]
fn xpath_roundtrip_through_arena() {
    let doc = parse_html(
        "<html><body><div><span>a</span><span>b</span></div>\
         <div><ul><li>x</li><li>y</li><li>z</li></ul></div></body></html>",
    );
    // Every text field's absolute XPath must resolve back to the same node.
    let fields = doc.text_fields();
    assert!(!fields.is_empty());
    for f in fields {
        let path = doc.xpath(f);
        let resolved = doc.resolve_xpath(&path);
        assert_eq!(resolved, Some(f), "xpath {path} did not round-trip");
    }
}

#[test]
fn xpath_string_roundtrip() {
    let doc = parse_html("<html><body><div><ul><li>x</li><li>y</li></ul></div></body></html>");
    for f in doc.text_fields() {
        let path = doc.xpath(f);
        let reparsed: XPath = path.to_string().parse().expect("display form must parse");
        assert_eq!(
            doc.resolve_xpath(&reparsed),
            Some(f),
            "string round-trip broke resolution for {path}"
        );
    }
}

#[test]
fn sibling_indices_distinguish_repeated_tags() {
    let doc = parse_html("<body><div>one</div><div>two</div><div>three</div></body>");
    let fields = doc.text_fields();
    let paths: Vec<String> = fields.iter().map(|&f| doc.xpath(f).to_string()).collect();
    // All three divs must get distinct indexed paths.
    let unique: std::collections::BTreeSet<&String> = paths.iter().collect();
    assert_eq!(unique.len(), 3, "expected distinct paths, got {paths:?}");
}

/// The table-built XPaths and the allocation-free own-text test, checked
/// node by node against the per-node references they replace.
fn assert_helpers_match_the_references(doc: &ceres_dom::Document) {
    let indices = doc.xpath_indices();
    assert_eq!(indices.len(), doc.len());
    for id in doc.all_nodes() {
        assert_eq!(indices[id.index()], doc.xpath_index(id), "node {id:?}");
        assert_eq!(doc.xpath_from(id, &indices), doc.xpath(id), "node {id:?}");
        assert_eq!(doc.has_own_text(id), !doc.own_text(id).is_empty(), "node {id:?}");
    }
}

#[test]
fn xpath_table_counts_past_the_linear_tally() {
    // Twenty distinct sibling tags, each repeated, interleaved with text
    // runs: the per-parent tally spills to its hash map and keeps counting.
    let mut html = String::from("<div>");
    for round in 0..3 {
        for t in 0..20 {
            html.push_str(&format!("<t{t}>{round}</t{t}> "));
        }
    }
    html.push_str("</div>");
    let doc = parse_html(&html);
    assert!(doc.text_fields().len() == 60);
    assert_helpers_match_the_references(&doc);
}

#[test]
fn own_text_test_sees_whitespace_as_no_text() {
    let doc = parse_html("<p> \t\n</p><p>&nbsp;</p><p><b>x</b> </p><p> y </p>");
    let fields: Vec<String> = doc.text_fields().into_iter().map(|f| doc.own_text(f)).collect();
    assert_eq!(fields, ["x", "y"]);
    assert_helpers_match_the_references(&doc);
}

mod helper_props {
    use super::*;
    use proptest::prelude::*;

    const TAGS: [&str; 12] =
        ["div", "span", "ul", "li", "p", "b", "i", "td", "tr", "table", "a", "em"];
    const TEXTS: [&str; 5] = ["Director:", " ", "x y", "\t&nbsp;\n", "é"];

    /// Random nested HTML: each op opens a tag, writes a text (some of them
    /// whitespace only), or closes the innermost open tag.
    fn nested_html(ops: &[u32]) -> String {
        let mut html = String::new();
        let mut open: Vec<&str> = Vec::new();
        for &op in ops {
            let op = op as usize;
            if op < TAGS.len() {
                html.push_str(&format!("<{}>", TAGS[op]));
                open.push(TAGS[op]);
            } else if op < TAGS.len() + TEXTS.len() {
                html.push_str(TEXTS[op - TAGS.len()]);
            } else if let Some(tag) = open.pop() {
                html.push_str(&format!("</{tag}>"));
            }
        }
        html
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn helpers_equal_the_references_on_random_nested_html(
            ops in proptest::collection::vec(0u32..20, 0..120),
        ) {
            assert_helpers_match_the_references(&parse_html(&nested_html(&ops)));
        }

        #[test]
        fn helpers_equal_the_references_on_taggy_input(
            s in "(<[a-k]{1,2}>|</[a-k]{1,2}>|[a-z &;]{0,6}){0,60}"
        ) {
            assert_helpers_match_the_references(&parse_html(&s));
        }
    }
}
