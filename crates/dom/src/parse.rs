//! A tolerant HTML parser.
//!
//! Real semi-structured websites (and the CommonCrawl long tail especially)
//! serve malformed markup: unclosed tags, stray `</div>`s, unquoted
//! attributes, raw `<` in text. The parser never fails — it produces the
//! best-effort tree a browser roughly would — and is property-tested to
//! never panic and to always produce a structurally consistent arena.
//!
//! Deliberate simplifications relative to the WHATWG algorithm (documented
//! trade-offs for a research reproduction):
//!
//! * no implicit `<html>/<head>/<body>` synthesis — the tree mirrors source
//!   structure (our corpus generator always emits them; foreign input simply
//!   yields whatever it contains);
//! * no active-formatting-element reconstruction (`<b><i></b></i>` style
//!   misnesting closes conservatively);
//! * `<script>`/`<style>` contents are skipped entirely — CERES never
//!   extracts from them and dropping them avoids matching KB entities inside
//!   JavaScript.

use crate::arena::{Document, NodeId};
use crate::escape::unescape;

/// Elements that never have children (void elements, HTML spec §13.1.2).
const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Elements whose raw text content runs to the matching close tag.
const RAW_TEXT_ELEMENTS: &[&str] = &["script", "style"];

fn is_void(tag: &str) -> bool {
    VOID_ELEMENTS.contains(&tag)
}

fn is_raw_text(tag: &str) -> bool {
    RAW_TEXT_ELEMENTS.contains(&tag)
}

/// Parse an HTML string into a [`Document`]. Infallible; tolerant of
/// malformed input.
pub fn parse_html(html: &str) -> Document {
    Parser::new(html).run()
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    doc: Document,
    /// Stack of currently-open elements; the synthetic root sits at the
    /// bottom and is never popped.
    stack: Vec<(NodeId, String)>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let doc = Document::new();
        let root = doc.root();
        Parser { input, pos: 0, doc, stack: vec![(root, "#document".to_string())] }
    }

    fn run(mut self) -> Document {
        while self.pos < self.input.len() {
            if self.input[self.pos..].starts_with('<') {
                self.consume_markup();
            } else {
                self.consume_text();
            }
        }
        self.doc
    }

    fn current_parent(&self) -> NodeId {
        self.stack.last().expect("stack never empty").0
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// Consume a text run up to the next `<` and append it (entity-decoded)
    /// unless it is pure whitespace.
    fn consume_text(&mut self) {
        let rest = self.rest();
        let end = rest.find('<').unwrap_or(rest.len());
        let raw = &rest[..end];
        self.pos += end;
        if !raw.trim().is_empty() {
            let decoded = unescape(raw);
            let parent = self.current_parent();
            self.doc.push_text(parent, decoded);
        }
    }

    /// Consume something starting with `<`.
    fn consume_markup(&mut self) {
        let rest = self.rest();
        debug_assert!(rest.starts_with('<'));
        if rest.starts_with("<!--") {
            // Comment: skip to `-->` (or EOF).
            match rest.find("-->") {
                Some(end) => self.pos += end + 3,
                None => self.pos = self.input.len(),
            }
        } else if rest.starts_with("<!") || rest.starts_with("<?") {
            // Doctype or processing instruction: skip to `>`.
            match rest.find('>') {
                Some(end) => self.pos += end + 1,
                None => self.pos = self.input.len(),
            }
        } else if rest.starts_with("</") {
            self.consume_close_tag();
        } else if rest.len() > 1 && rest.as_bytes()[1].is_ascii_alphabetic() {
            self.consume_open_tag();
        } else {
            // A stray '<' (e.g. "a < b"): treat as text.
            let parent = self.current_parent();
            self.doc.push_text(parent, "<".to_string());
            self.pos += 1;
        }
    }

    fn consume_close_tag(&mut self) {
        let rest = self.rest();
        let end = match rest.find('>') {
            Some(e) => e,
            None => {
                self.pos = self.input.len();
                return;
            }
        };
        let name = rest[2..end].trim().to_ascii_lowercase();
        self.pos += end + 1;
        // Pop to the matching open element, if any; otherwise ignore the
        // stray close tag (tolerant behaviour).
        if let Some(depth) = self.stack.iter().rposition(|(_, tag)| *tag == name) {
            if depth > 0 {
                self.stack.truncate(depth);
            }
        }
    }

    fn consume_open_tag(&mut self) {
        let rest = self.rest();
        let bytes = rest.as_bytes();
        // Find the end of the tag, respecting quoted attribute values.
        let mut i = 1;
        let mut quote: Option<u8> = None;
        while i < bytes.len() {
            let b = bytes[i];
            match quote {
                Some(q) => {
                    if b == q {
                        quote = None;
                    }
                }
                None => match b {
                    b'"' | b'\'' => quote = Some(b),
                    b'>' => break,
                    _ => {}
                },
            }
            i += 1;
        }
        if i >= bytes.len() {
            // Unterminated tag at EOF: drop it.
            self.pos = self.input.len();
            return;
        }
        let inner = &rest[1..i]; // without '<' and '>'
        self.pos += i + 1;

        let (inner, self_closing) = match inner.strip_suffix('/') {
            Some(stripped) => (stripped, true),
            None => (inner, false),
        };

        let mut chars = inner.char_indices();
        let name_end =
            chars.find(|(_, c)| c.is_whitespace()).map(|(idx, _)| idx).unwrap_or(inner.len());
        let tag = inner[..name_end].to_ascii_lowercase();
        if tag.is_empty() {
            return;
        }
        let attrs = parse_attrs(&inner[name_end..]);

        let parent = self.current_parent();
        let id = self.doc.push_element(parent, tag.clone(), attrs);

        if is_raw_text(&tag) && !self_closing {
            // Skip raw content up to the matching close tag.
            let close = format!("</{tag}");
            let rest = self.rest();
            let lower = rest.to_ascii_lowercase();
            match lower.find(&close) {
                Some(start) => {
                    let after = &rest[start..];
                    let skip = after.find('>').map(|e| start + e + 1).unwrap_or(rest.len());
                    self.pos += skip;
                }
                None => self.pos = self.input.len(),
            }
            return;
        }

        if !self_closing && !is_void(&tag) {
            self.stack.push((id, tag));
        }
    }
}

/// Parse the attribute list of a tag body (everything after the tag name).
fn parse_attrs(s: &str) -> Vec<(String, String)> {
    let mut attrs = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Skip whitespace.
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        // Attribute name: up to '=', whitespace, or end.
        let name_start = i;
        while i < bytes.len() && bytes[i] != b'=' && !bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let name = s[name_start..i].to_ascii_lowercase();
        if name.is_empty() {
            i += 1;
            continue;
        }
        // Skip whitespace before a possible '='.
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let mut value = String::new();
        if i < bytes.len() && bytes[i] == b'=' {
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                let q = bytes[i];
                i += 1;
                let val_start = i;
                while i < bytes.len() && bytes[i] != q {
                    i += 1;
                }
                value = unescape(&s[val_start..i]);
                i += 1; // past the closing quote (or EOF)
            } else {
                let val_start = i;
                while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                value = unescape(&s[val_start..i]);
            }
        }
        attrs.push((name, value));
    }
    attrs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_simple_page() {
        let doc = parse_html("<html><body><div class=\"a\">Hello <b>world</b></div></body></html>");
        doc.check_consistency().unwrap();
        let fields = doc.text_fields();
        assert_eq!(fields.len(), 2);
        assert_eq!(doc.own_text(fields[0]), "Hello");
        assert_eq!(doc.own_text(fields[1]), "world");
        assert_eq!(doc.xpath(fields[1]).to_string(), "/html[1]/body[1]/div[1]/b[1]");
    }

    #[test]
    fn xpath_indices_count_same_tag_siblings() {
        let doc = parse_html("<ul><li>a</li><li>b</li><span>x</span><li>c</li></ul>");
        let fields = doc.text_fields();
        let paths: Vec<String> = fields.iter().map(|&f| doc.xpath(f).to_string()).collect();
        assert_eq!(paths, vec!["/ul[1]/li[1]", "/ul[1]/li[2]", "/ul[1]/span[1]", "/ul[1]/li[3]"]);
    }

    #[test]
    fn void_elements_do_not_nest() {
        let doc = parse_html("<div>a<br>b<img src=\"x.png\">c</div>");
        doc.check_consistency().unwrap();
        assert_eq!(doc.own_text(doc.text_fields()[0]), "a b c");
    }

    #[test]
    fn unclosed_tags_are_tolerated() {
        let doc = parse_html("<div><p>one<p>two</div><span>after</span>");
        doc.check_consistency().unwrap();
        let texts: Vec<String> = doc.text_fields().iter().map(|&f| doc.own_text(f)).collect();
        assert!(texts.contains(&"after".to_string()));
    }

    #[test]
    fn stray_close_tags_ignored() {
        let doc = parse_html("</div></p><b>ok</b>");
        doc.check_consistency().unwrap();
        assert_eq!(doc.own_text(doc.text_fields()[0]), "ok");
    }

    #[test]
    fn script_and_style_are_skipped() {
        let doc = parse_html(
            "<script>var x = '<div>Spike Lee</div>';</script><style>b{}</style><b>real</b>",
        );
        let texts: Vec<String> = doc.text_fields().iter().map(|&f| doc.own_text(f)).collect();
        assert_eq!(texts, vec!["real".to_string()]);
    }

    #[test]
    fn attributes_parse_in_all_quote_styles() {
        let doc = parse_html(r#"<div id=main class="a b" data-x='y' hidden>t</div>"#);
        let n = doc.text_fields()[0];
        assert_eq!(doc.node(n).attr("id"), Some("main"));
        assert_eq!(doc.node(n).attr("class"), Some("a b"));
        assert_eq!(doc.node(n).attr("data-x"), Some("y"));
        assert_eq!(doc.node(n).attr("hidden"), Some(""));
    }

    #[test]
    fn entities_decode_in_text_and_attrs() {
        let doc = parse_html(r#"<div title="AT&amp;T">Tom &amp; Jerry&nbsp;Show</div>"#);
        let n = doc.text_fields()[0];
        assert_eq!(doc.own_text(n), "Tom & Jerry Show");
        assert_eq!(doc.node(n).attr("title"), Some("AT&T"));
    }

    #[test]
    fn comments_and_doctype_skipped() {
        let doc = parse_html("<!DOCTYPE html><!-- hidden <div>no</div> --><p>yes</p>");
        let texts: Vec<String> = doc.text_fields().iter().map(|&f| doc.own_text(f)).collect();
        assert_eq!(texts, vec!["yes".to_string()]);
    }

    #[test]
    fn stray_lt_is_text() {
        let doc = parse_html("<p>a < b</p>");
        assert_eq!(doc.own_text(doc.text_fields()[0]), "a < b");
    }

    #[test]
    fn serialize_reparse_is_stable() {
        let src = r#"<html><body><div class="x"><span itemprop="name">Do the Right Thing</span><ul><li>a</li><li>b</li></ul></div></body></html>"#;
        let doc = parse_html(src);
        let html = doc.to_html();
        let doc2 = parse_html(&html);
        assert_eq!(doc.to_html(), doc2.to_html());
        assert_eq!(doc.len(), doc2.len());
    }

    #[test]
    fn resolve_xpath_inverts_xpath() {
        let doc = parse_html("<html><body><div>a</div><div><b>x</b><b>y</b></div></body></html>");
        for field in doc.text_fields() {
            let path = doc.xpath(field);
            assert_eq!(doc.resolve_xpath(&path), Some(field), "path {path}");
        }
    }

    #[test]
    fn highest_exclusive_ancestor_stops_below_shared_section() {
        // Two mentions in one section, a third elsewhere.
        let doc = parse_html(
            "<html><body><div id=cast><span>Lee</span><span>Aiello</span></div><div id=other><span>Lee</span></div></body></html>",
        );
        let fields = doc.text_fields();
        let (lee_cast, aiello, lee_other) = (fields[0], fields[1], fields[2]);
        // From the cast mention of Lee, excluding the other Lee mention:
        // climbs to the cast div (its subtree has no other Lee mention) but
        // not to body.
        let anc = doc.highest_exclusive_ancestor(lee_cast, &[lee_other]);
        assert_eq!(doc.node(anc).attr("id"), Some("cast"));
        let _ = aiello;
    }

    #[test]
    fn deep_text_collects_descendants() {
        let doc = parse_html("<div>a<span>b<i>c</i></span>d</div>");
        let root_div = doc.text_fields()[0];
        assert_eq!(doc.deep_text(root_div), "a b c d");
    }

    #[test]
    fn max_depth_counts_the_deepest_chain() {
        assert_eq!(parse_html("").max_depth(), 0);
        // <div> at 1, its text child at 2; the 30-deep spine wins over
        // the shallow sibling.
        assert_eq!(parse_html("<div>t</div>").max_depth(), 2);
        let deep = format!("{}bottom{}", "<div>".repeat(30), "</div>".repeat(30));
        let doc = parse_html(&format!("<p>shallow</p>{deep}"));
        assert_eq!(doc.max_depth(), 31); // 30 divs + the text node
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn parser_never_panics(s in ".*") {
            let doc = parse_html(&s);
            doc.check_consistency().unwrap();
        }

        #[test]
        fn parser_never_panics_on_taggy_input(
            s in "(<[a-z]{1,4}( [a-z]+=\"[a-z<>&]*\")?>|</[a-z]{1,4}>|[a-z &;]{0,6}){0,30}"
        ) {
            let doc = parse_html(&s);
            doc.check_consistency().unwrap();
        }

        #[test]
        fn serialize_reparse_fixpoint(
            s in "(<(div|p|b|ul|li)( class=\"[a-z]{1,5}\")?>|</(div|p|b|ul|li)>|[a-zA-Z ]{0,8}){0,40}"
        ) {
            let d1 = parse_html(&s);
            let h1 = d1.to_html();
            let d2 = parse_html(&h1);
            let h2 = d2.to_html();
            // After one serialize/parse cycle the representation is stable.
            prop_assert_eq!(h1, h2);
        }

        #[test]
        fn all_text_fields_resolve(
            s in "(<(div|span|ul|li)>|</(div|span|ul|li)>|[a-z]{0,4}){0,30}"
        ) {
            let doc = parse_html(&s);
            for f in doc.text_fields() {
                let p = doc.xpath(f);
                prop_assert_eq!(doc.resolve_xpath(&p), Some(f));
            }
        }

        #[test]
        fn max_depth_agrees_with_the_per_node_walk(
            s in "(<(div|span|ul|li)>|</(div|span|ul|li)>|[a-z]{0,4}){0,30}"
        ) {
            // The one-pass `max_depth` (the serve guards' depth check) must
            // equal the brute-force maximum of the ancestor-walk `depth`.
            let doc = parse_html(&s);
            let brute = doc.all_nodes().map(|n| doc.depth(n)).max().unwrap_or(0);
            prop_assert_eq!(doc.max_depth(), brute);
        }
    }
}
