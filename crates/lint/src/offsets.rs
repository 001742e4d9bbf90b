//! Unchecked-offset auditing for the columnar snapshot decoders
//! (`unchecked-offset` rule, DESIGN.md §14).
//!
//! The v4 snapshot opener slices sections out of an untrusted byte
//! buffer using directory-supplied offsets and lengths, and decodes
//! every row, span and varint run of them. Inside the decoder functions
//! of `columnar.rs` / `varint.rs` — everything reachable from
//! `open_index` / `inspect` / `get_varint`, which
//! includes the per-section decoders — raw `+`/`*` arithmetic on
//! offset-like values and direct `[…]` indexing are banned: a corrupted
//! directory must route through `checked_add`/`checked_mul`/`.get(…)`
//! into the typed `SnapshotCorrupt` error, never wrap around or panic.
//! The build-time writers in the same files keep ordinary arithmetic
//! (they compute offsets from data they just produced).

use std::collections::HashSet;

use crate::callgraph::Graph;
use crate::lexer::TokKind;
use crate::rules::Violation;

/// Files audited and the decoder roots inside them.
const DECODERS: &[(&str, &[&str], &[&str])] = &[
    (
        "index",
        &["columnar"],
        &["open_index", "inspect"],
    ),
    ("index", &["varint"], &["get_varint"]),
];

/// Identifier fragments that mark a value as an offset/length in the
/// decoder code (`off`, `base`, … as substrings; `at`, `end`, … exact).
const OFFSET_SUBSTRINGS: &[&str] = &["off", "base", "len", "pos"];
const OFFSET_EXACT: &[&str] = &["at", "start", "end", "total", "idx", "i", "j", "n"];

fn is_offset_ident(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    OFFSET_EXACT.contains(&lower.as_str()) || OFFSET_SUBSTRINGS.iter().any(|s| lower.contains(s))
}

/// Run the analysis over a built call graph.
pub fn check(graph: &Graph) -> Vec<Violation> {
    // Decoder roots, then restrict reachability to fns in the audited
    // files (arithmetic elsewhere is out of scope for this rule).
    let mut audited_files: HashSet<usize> = HashSet::new();
    let mut roots = Vec::new();
    for (krate, module, fns) in DECODERS {
        for idx in graph.find_fns(krate, module, fns) {
            audited_files.insert(graph.fns[idx].file);
            roots.push(idx);
        }
    }
    // Also audit helper fns in the same modules even when the root list
    // missed a file (e.g. a fixture with only helpers): map module → file.
    for (krate, module, _) in DECODERS {
        for idx in graph.find_fns(krate, module, &[]) {
            audited_files.insert(graph.fns[idx].file);
        }
    }

    let reach = graph.reach_from(&roots);
    let mut targets: Vec<usize> = reach
        .keys()
        .copied()
        .filter(|&f| audited_files.contains(&graph.fns[f].file))
        .collect();
    targets.sort_unstable();

    let mut out = Vec::new();
    for f in targets {
        audit_fn(graph, f, &mut out);
    }
    out
}

/// Scan one decoder fn body for raw offset `+`/`*` and `[…]` indexing.
fn audit_fn(graph: &Graph, f: usize, out: &mut Vec<Violation>) {
    let node = &graph.fns[f];
    let file = &graph.files[node.file];
    let toks = &file.toks;
    let Some((open, close)) = node.def.body else {
        return;
    };

    let mut push = |line: u32, col: u32, message: String| {
        out.push(Violation {
            rule: "unchecked-offset",
            path: file.path.clone(),
            line,
            col,
            message,
            excerpt: graph.excerpt(node.file, line),
            trace: Vec::new(),
        });
    };

    let mut j = open + 1;
    while j < close {
        match &toks[j].kind {
            // Direct indexing: flagged by position (the panic-path rule
            // also sees it; this rule explains the decoder-local fix).
            TokKind::Punct("[") if j > 0 => {
                let prev_ends_value = matches!(
                    &toks[j - 1].kind,
                    TokKind::Ident(_)
                        | TokKind::Int
                        | TokKind::Punct(")")
                        | TokKind::Punct("]")
                        | TokKind::Punct("?")
                ) && !matches!(&toks[j - 1].kind, TokKind::Ident(s) if crate::parser::EXPR_KEYWORDS.contains(&s.as_str()));
                if prev_ends_value {
                    push(
                        toks[j].line,
                        toks[j].col,
                        "direct `[…]` indexing in decoder code — use `.get(…)` and route misses to SnapshotCorrupt".into(),
                    );
                }
            }
            // Raw offset arithmetic: binary `+` / `*` with an offset-like
            // operand. Unary deref/positive forms don't match because the
            // previous token must end a value expression.
            TokKind::Punct(op @ ("+" | "*")) if j > 0 => {
                let binary = matches!(
                    &toks[j - 1].kind,
                    TokKind::Ident(_) | TokKind::Int | TokKind::Punct(")") | TokKind::Punct("]")
                ) && !matches!(&toks[j - 1].kind, TokKind::Ident(s) if crate::parser::EXPR_KEYWORDS.contains(&s.as_str()));
                if binary {
                    let mut operands: Vec<String> = Vec::new();
                    // Left: the field/variable chain just before the op.
                    let mut k = j;
                    while k > open {
                        match &toks[k - 1].kind {
                            TokKind::Ident(s) => {
                                operands.push(s.clone());
                                k -= 1;
                            }
                            TokKind::Punct(".") => k -= 1,
                            _ => break,
                        }
                    }
                    // Right: idents up to the end of the operand.
                    let mut k = j + 1;
                    let mut depth = 0usize;
                    while k < close {
                        match &toks[k].kind {
                            TokKind::Punct("(") | TokKind::Punct("[") => depth += 1,
                            TokKind::Punct(")") | TokKind::Punct("]") if depth == 0 => break,
                            TokKind::Punct(")") | TokKind::Punct("]") => depth -= 1,
                            TokKind::Punct(",") | TokKind::Punct(";") | TokKind::Punct("{")
                                if depth == 0 =>
                            {
                                break
                            }
                            TokKind::Punct(p)
                                if depth == 0
                                    && matches!(
                                        *p,
                                        "+" | "-"
                                            | "*"
                                            | "/"
                                            | ".."
                                            | "..="
                                            | "=="
                                            | "!="
                                            | "<"
                                            | ">"
                                            | "<="
                                            | ">="
                                            | "&&"
                                            | "||"
                                    ) =>
                            {
                                break
                            }
                            TokKind::Ident(s) => {
                                operands.push(s.clone());
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if operands.iter().any(|o| is_offset_ident(o)) {
                        let verb = if *op == "+" {
                            "checked_add"
                        } else {
                            "checked_mul"
                        };
                        push(
                            toks[j].line,
                            toks[j].col,
                            format!(
                                "raw `{op}` on offset-like value(s) {} in decoder code — use `{verb}` and route overflow to SnapshotCorrupt",
                                operands
                                    .iter()
                                    .filter(|o| is_offset_ident(o))
                                    .map(|o| format!("`{o}`"))
                                    .collect::<Vec<_>>()
                                    .join(", "),
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    // One finding per (line, col) even when several patterns overlap.
    out.dedup_by(|a, b| a.line == b.line && a.col == b.col && a.path == b.path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(src: &str) -> Vec<Violation> {
        let sources = vec![("crates/index/src/varint.rs".to_string(), src.to_string())];
        let graph = Graph::build(Path::new("/nonexistent-lint-fixture"), &sources);
        check(&graph)
    }

    #[test]
    fn raw_offset_add_in_a_decoder_is_flagged() {
        let v = run("pub fn get_varint(buf: &[u8], off: usize) -> Option<u64> { let end = off + 9; buf.get(off..end).map(|_| 0) }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unchecked-offset");
        assert!(v[0].message.contains("checked_add"), "{v:?}");
    }

    #[test]
    fn checked_arithmetic_and_get_are_clean() {
        let v = run("pub fn get_varint(buf: &[u8], off: usize) -> Option<u64> { let end = off.checked_add(9)?; buf.get(off..end).map(|_| 0) }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn indexing_in_a_decoder_is_flagged() {
        let v = run("pub fn get_varint(buf: &[u8], i: usize) -> u8 { buf[i] }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains(".get"), "{v:?}");
    }

    #[test]
    fn writer_fns_in_the_same_file_are_exempt() {
        let v = run(
            "pub fn get_varint(buf: &[u8]) -> u64 { 0 }\n\
             pub fn put_varint(buf: &mut Vec<u8>, total: usize) { let cap = total * 2; buf.reserve(cap); }",
        );
        assert!(
            v.is_empty(),
            "writers are unreachable from decoder roots: {v:?}"
        );
    }

    #[test]
    fn helpers_called_from_decoders_are_audited() {
        let v = run(
            "pub fn get_varint(buf: &[u8], off: usize) -> u64 { tail(buf, off) }\n\
             fn tail(buf: &[u8], off: usize) -> u64 { (off + 1) as u64 }",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].path.ends_with("varint.rs"));
    }

    #[test]
    fn non_offset_arithmetic_is_allowed() {
        let v = run("pub fn get_varint(shift: u32, b: u8) -> u64 { ((b & 0x7f) as u64) * 2 + 3 }");
        assert!(v.is_empty(), "{v:?}");
    }
}
