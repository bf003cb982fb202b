//! The rule set.
//!
//! | Code  | Invariant |
//! |-------|-----------|
//! | CL000 | pragma syntax: `lint:` comments must parse and carry a reason |
//! | CL001 | determinism: no hash-map/set iteration without an order-restoring consumer |
//! | CL002 | determinism: no wall-clock / thread identity in equality-contract modules |
//! | CL003 | panic-freedom: no `unwrap`/`expect`/`panic!`-family in serve-path modules |
//! | CL004 | panic-freedom: no slice indexing in totality modules (hostile-input decode) |
//! | CL005 | float discipline: no `partial_cmp` — use `nan_lowest`/`nan_greatest`/`total_cmp` |
//! | CL006 | unsafe hygiene: every `unsafe` needs a `// SAFETY:` comment |
//! | CL007 | hygiene: pragmas must suppress something |
//!
//! Everything is a line-oriented check over the lexer's blanked code
//! channel, so string literals and comments can never false-positive.
//! The checks are deliberately *under*-approximate (e.g. CL001 only tracks
//! identifiers it can syntactically tie to a hash container) — a linter
//! that cries wolf gets pragma'd into silence, which is worse than missing
//! the odd exotic site.

use crate::lexer::{self, Line, Tok};
use crate::pragma::{scan_comment, PragmaScan};

/// All valid rule codes (CL000/CL007 are emitted by the linter itself and
/// cannot be suppressed by pragma).
pub const RULE_CODES: &[&str] =
    &["CL000", "CL001", "CL002", "CL003", "CL004", "CL005", "CL006", "CL007"];

/// Modules on the serve path: they run inside `par_map_isolated` fault
/// containment on operator-facing requests, where a panic means a
/// quarantined page or a dead session. CL003 denies the panic family here.
const SERVE_PATH_SUFFIXES: &[&str] = &[
    "crates/core/src/extract.rs",
    "crates/core/src/features.rs",
    "crates/core/src/page.rs",
    "crates/core/src/session.rs",
    "crates/dom/src/arena.rs",
    "crates/ml/src/logreg.rs",
    "crates/ml/src/sparse.rs",
    "crates/store/src/lib.rs",
    "crates/runtime/src/pool.rs",
];

/// Modules that must be *total* over hostile bytes (artifact decode):
/// CL004 additionally denies slice indexing here.
const TOTALITY_PREFIXES: &[&str] = &["crates/store/src/"];

/// Crates exempt from the equality contract (byte-identical output at any
/// thread count): the bench harness and examples print wall-clock numbers
/// by design, and the linter itself never feeds pipeline output.
const EQUALITY_EXEMPT_PREFIXES: &[&str] = &["crates/bench/", "crates/lint/", "examples/"];

/// Iterator-producing methods on hash containers whose order is
/// implementation-defined.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Hash container type heads (std and the workspace's deterministic Fx
/// variants — Fx fixes the *hash*, not the dependence of iteration order
/// on insertion history, so both are flagged).
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Chain fragments that make consuming a hash iterator order-free.
const ORDER_FREE_CHAIN: &[&str] =
    &[".count(", ".len(", ".is_empty(", ".any(", ".all(", ".sum(", ".sum::", ".product("];

/// One diagnostic, 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

/// What the file's path says about which rules apply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    pub serve_path: bool,
    pub totality: bool,
    pub equality_contract: bool,
}

/// Classify a path *relative to the lint root*, `/`-separated.
pub fn classify(rel: &str) -> FileClass {
    FileClass {
        serve_path: SERVE_PATH_SUFFIXES.iter().any(|s| rel.ends_with(s) || rel == *s),
        totality: TOTALITY_PREFIXES.iter().any(|p| rel.starts_with(p) || rel.contains(p)),
        equality_contract: !EQUALITY_EXEMPT_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p) || rel.contains(p)),
    }
}

/// Lint one file. `rel` is the `/`-separated path relative to the root.
pub fn run_file(rel: &str, src: &str) -> Vec<Violation> {
    let class = classify(rel);
    let lines = lexer::scan(src);
    let test_mask = lexer::test_mask(&lines);
    let mut out: Vec<Violation> = Vec::new();

    // --- Pragmas: parse every comment, resolve each to its target line ---
    // (the same line when it trails code, else the next line with code).
    struct Slot {
        target: usize,
        code: String,
        used: bool,
        line: usize,
    }
    let mut slots: Vec<Slot> = Vec::new();
    for (li, line) in lines.iter().enumerate() {
        match scan_comment(li, &line.comment) {
            PragmaScan::None => {}
            PragmaScan::Malformed(why) => {
                out.push(Violation { line: li + 1, rule: "CL000", message: why });
            }
            PragmaScan::Ok(p) => {
                let target = if !line.code.trim().is_empty() {
                    Some(li)
                } else {
                    (li + 1..lines.len().min(li + 16)).find(|&j| !lines[j].code.trim().is_empty())
                };
                match target {
                    Some(t) => slots.push(Slot { target: t, code: p.code, used: false, line: li }),
                    None => out.push(Violation {
                        line: li + 1,
                        rule: "CL000",
                        message: "pragma attaches to no code line".to_string(),
                    }),
                }
            }
        }
    }

    // --- Raw rule passes ---
    let mut raw: Vec<Violation> = Vec::new();
    let hash_idents = collect_hash_idents(&lines);
    for (li, line) in lines.iter().enumerate() {
        let in_test = test_mask[li];
        let toks = lexer::tokens(&line.code);

        // CL006 applies everywhere, including tests: unsafe is unsafe.
        if toks.iter().any(|t| t.ident() == Some("unsafe")) && !safety_comment_nearby(&lines, li) {
            raw.push(Violation {
                line: li + 1,
                rule: "CL006",
                message: "`unsafe` without a `// SAFETY:` comment on or above it".to_string(),
            });
        }
        if in_test {
            continue;
        }

        check_hash_iteration(li, &toks, &lines, &hash_idents, &mut raw);

        if class.equality_contract {
            for needle in ["Instant::now", "SystemTime", "thread::current", "process::id"] {
                if line.code.replace(' ', "").contains(needle) {
                    raw.push(Violation {
                        line: li + 1,
                        rule: "CL002",
                        message: format!(
                            "`{needle}` in an equality-contract module: wall-clock and \
                             identity values must never influence reproducible output"
                        ),
                    });
                }
            }
        }

        if class.serve_path {
            check_panic_family(li, &toks, &mut raw);
        }
        if class.totality {
            check_indexing(li, &line.code, &mut raw);
        }
        if toks.iter().any(|t| t.ident() == Some("partial_cmp")) {
            raw.push(Violation {
                line: li + 1,
                rule: "CL005",
                message: "`partial_cmp` is not a total order over floats; use \
                          `ceres_text::nan_lowest`/`nan_greatest` (or `f64::total_cmp`)"
                    .to_string(),
            });
        }
    }

    // --- Apply pragmas, collect unused ones ---
    raw.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    raw.dedup();
    for v in raw {
        let suppressed = slots
            .iter_mut()
            .find(|s| !s.used && s.target + 1 == v.line && s.code == v.rule && v.rule != "CL000");
        match suppressed {
            Some(s) => s.used = true,
            None => out.push(v),
        }
    }
    for s in &slots {
        if !s.used && !test_mask[s.target] {
            out.push(Violation {
                line: s.line + 1,
                rule: "CL007",
                message: format!(
                    "pragma allow({}) suppresses nothing on line {}",
                    s.code,
                    s.target + 1
                ),
            });
        }
    }

    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

/// Pass A of CL001: names syntactically bound to a hash container — `let`
/// bindings, struct fields, and fn params whose *outermost* type is one of
/// [`HASH_TYPES`], plus `name = FxHashMap::default()`-style inits.
fn collect_hash_idents(lines: &[Line]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (li, line) in lines.iter().enumerate() {
        if !HASH_TYPES.iter().any(|t| line.code.contains(t)) {
            continue;
        }
        // rustfmt may split `name: Type` across lines; join a short window.
        let lo = li.saturating_sub(2);
        let window: String =
            lines[lo..=li].iter().map(|l| l.code.as_str()).collect::<Vec<_>>().join(" ");
        let toks = lexer::tokens(&window);
        for h in 0..toks.len() {
            let Some(id) = toks[h].ident() else { continue };
            if !HASH_TYPES.contains(&id) {
                continue;
            }
            if let Some(name) = binding_name_before(&toks, h) {
                if !names.iter().any(|n| n == &name) {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// Walk backwards from a hash-type token to the identifier it is bound to.
/// Returns `None` when the container is nested inside another generic
/// (`Vec<FxHashMap<…>>` — the binding is a Vec, iteration over it is fine).
fn binding_name_before(toks: &[Tok<'_>], h: usize) -> Option<String> {
    let mut k = h;
    while k > 0 {
        k -= 1;
        match toks[k] {
            Tok::Punct(';')
            | Tok::Punct('{')
            | Tok::Punct('}')
            | Tok::Punct('<')
            | Tok::Punct('(')
            | Tok::Punct(',') => return None,
            Tok::Punct('=') => {
                // `let [mut] name = FxHashMap::default()`
                return match toks.get(k.checked_sub(1)?)? {
                    Tok::Ident(name) if valid_name(name) => Some((*name).to_string()),
                    _ => None,
                };
            }
            Tok::Punct(':') => {
                // Skip `::` path separators (`ceres_text::FxHashMap`).
                let prev = k.checked_sub(1).map(|j| toks[j]);
                if matches!(prev, Some(Tok::Punct(':')))
                    || matches!(toks.get(k + 1), Some(Tok::Punct(':')))
                {
                    continue;
                }
                return match prev? {
                    Tok::Ident(name) if valid_name(name) => Some(name.to_string()),
                    _ => None,
                };
            }
            Tok::Punct('&') | Tok::Ident("mut") | Tok::Ident("pub") => {}
            Tok::Ident(_) => {} // path segments, e.g. `ceres_text`
            _ => {}
        }
    }
    None
}

fn valid_name(name: &str) -> bool {
    !matches!(
        name,
        "let"
            | "mut"
            | "ref"
            | "in"
            | "if"
            | "else"
            | "match"
            | "return"
            | "as"
            | "pub"
            | "where"
            | "impl"
            | "fn"
            | "self"
            | "Self"
            | "type"
            | "const"
            | "static"
    )
}

/// Pass B of CL001: flag `name.iter()`-family calls and `for … in name`
/// loops when `name` is a known hash binding, unless the consuming chain is
/// order-free or feeds the collect-then-sort idiom.
fn check_hash_iteration(
    li: usize,
    toks: &[Tok<'_>],
    lines: &[Line],
    hash_idents: &[String],
    raw: &mut Vec<Violation>,
) {
    let mut hit: Option<&str> = None;
    for k in 2..toks.len() {
        let Some(m) = toks[k].ident() else { continue };
        if HASH_ITER_METHODS.contains(&m)
            && matches!(toks.get(k + 1), Some(Tok::Punct('(')))
            && toks[k - 1].is('.')
        {
            if let Some(Tok::Ident(recv)) = toks.get(k - 2) {
                if hash_idents.iter().any(|n| n == recv) {
                    hit = Some(recv);
                    break;
                }
            }
        }
    }
    if hit.is_none() {
        // `for pat in [&[mut]] name {`
        if let Some(fi) = toks.iter().position(|t| t.ident() == Some("for")) {
            if let Some(ii) = toks[fi..].iter().position(|t| t.ident() == Some("in")) {
                let expr: Vec<Tok> = toks[fi + ii + 1..]
                    .iter()
                    .take_while(|t| !t.is('{'))
                    .copied()
                    .filter(|t| !t.is('&') && t.ident() != Some("mut"))
                    .collect();
                if let [Tok::Ident(name)] = expr.as_slice() {
                    if hash_idents.iter().any(|n| n == name) {
                        hit = Some(name);
                    }
                }
            }
        }
    }
    let Some(name) = hit else { return };
    // Exemption: the statement's chain (this line plus a short lookahead
    // for rustfmt-wrapped chains) is order-free, or lands in the
    // collect-then-sort idiom. The lookahead counts *code-bearing* lines so
    // an explanatory comment between the collect and the sort doesn't
    // defeat it.
    let window: String = lines[li..]
        .iter()
        .map(|l| l.code.as_str())
        .filter(|c| !c.trim().is_empty())
        .take(6)
        .collect::<Vec<_>>()
        .join(" ");
    if ORDER_FREE_CHAIN.iter().any(|f| window.contains(f))
        || (window.contains(".collect") && window.contains(".sort"))
    {
        return;
    }
    raw.push(Violation {
        line: li + 1,
        rule: "CL001",
        message: format!(
            "iteration over hash container `{name}`: order is insertion-history-dependent; \
             collect and sort, consume order-free, or pragma with the order-safety argument"
        ),
    });
}

/// CL003: the panic family in serve-path modules.
fn check_panic_family(li: usize, toks: &[Tok<'_>], raw: &mut Vec<Violation>) {
    for k in 0..toks.len() {
        let Some(id) = toks[k].ident() else { continue };
        let bang = matches!(toks.get(k + 1), Some(Tok::Punct('!')));
        let call = matches!(toks.get(k + 1), Some(Tok::Punct('(')));
        let method = k > 0 && toks[k - 1].is('.');
        let flagged = match id {
            "unwrap" | "expect" => method && call,
            "panic" | "unreachable" | "todo" | "unimplemented" => bang,
            _ => false,
        };
        if flagged {
            raw.push(Violation {
                line: li + 1,
                rule: "CL003",
                message: format!(
                    "`{id}` on the serve path: return a typed error (PageError taxonomy) or \
                     pragma with the infallibility proof"
                ),
            });
        }
    }
}

/// CL004: slice indexing in totality modules. An `[` counts as indexing
/// when it directly follows an identifier char, `)`, or `]` (so `#[attr]`,
/// `vec![…]`, and array types stay clean).
fn check_indexing(li: usize, code: &str, raw: &mut Vec<Violation>) {
    let b: Vec<char> = code.chars().collect();
    for i in 1..b.len() {
        if b[i] == '['
            && (b[i - 1].is_alphanumeric() || b[i - 1] == '_' || b[i - 1] == ')' || b[i - 1] == ']')
        {
            raw.push(Violation {
                line: li + 1,
                rule: "CL004",
                message: "slice indexing in a totality module: hostile input must decode \
                          via `get()`; pragma only with a bounds proof"
                    .to_string(),
            });
            return; // one per line is enough signal
        }
    }
}

/// CL006 helper: a `SAFETY:` comment (or rustdoc `# Safety` section) on the
/// same line or within the 8 lines above.
fn safety_comment_nearby(lines: &[Line], li: usize) -> bool {
    let lo = li.saturating_sub(8);
    lines[lo..=li].iter().any(|l| l.comment.contains("SAFETY:") || l.comment.contains("# Safety"))
}
