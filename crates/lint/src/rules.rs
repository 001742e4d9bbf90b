//! The PIMENTO-specific invariant rules, applied to the token stream of
//! one source file (see DESIGN.md §9 for the catalog and the failure each
//! rule prevents).
//!
//! | rule               | invariant                                                        |
//! |--------------------|------------------------------------------------------------------|
//! | `float-cmp`        | score ordering goes through `rank::cmp_f64_desc` only            |
//! | `hot-path-panic`   | no `unwrap`/`expect`/`panic!` family in hot-path modules (incl. the serve request path) |
//! | `hot-path-str-cmp` | answer-comparison modules compare interned ids, not strings      |
//! | `thread-spawn`     | all parallelism passes the `effective_workers` clamp             |
//! | `static-mut`       | no `static mut` anywhere                                         |
//! | `forbid-unsafe`    | every crate root carries `#![forbid(unsafe_code)]`               |
//! | `lock-poison`      | no `unwrap`/`expect` on lock results — recover poisoned guards   |
//!
//! Rules are token-level and skip `#[cfg(test)]` items (and files under
//! `tests/`, `benches/`, `examples/`), so test scaffolding can use
//! `unwrap()` freely while product code cannot.

use crate::lexer::{lex, Tok, TokKind};
use crate::parser::cfg_test_mask;

/// One rule violation, with enough provenance to locate and allowlist it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (stable; used by the allowlist).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed (allowlist entries match on it).
    pub excerpt: String,
    /// Root→site call chain, for the call-graph analyses (`panic-path`);
    /// empty for single-site rules.
    pub trace: Vec<String>,
}

/// Score fields whose raw comparison the `float-cmp` rule rejects: the
/// `S`/`K` components of answers and the per-rule weights/bounds that feed
/// them. Merges must be bit-identical across plans and shards, so every
/// ordering decision on these goes through `rank::cmp_f64_desc`.
const SCORE_FIELDS: &[&str] = &["s", "k", "weight", "bound"];

/// Comparison operators the `float-cmp` rule watches.
const CMP_OPS: &[&str] = &["==", "!=", "<", ">", "<=", ">="];

/// Hot-path modules where panicking is banned (every answer-flow operator
/// plus the whole index layer, plus the serve request path: everything
/// between `accept` and the response frame must degrade to a typed
/// protocol error, never a worker-thread panic). The serve CLI bin is
/// excluded — process startup may exit loudly.
pub fn is_hot_path(path: &str) -> bool {
    path.starts_with("crates/index/src/")
        || (path.starts_with("crates/serve/src/") && !path.starts_with("crates/serve/src/bin/"))
        || matches!(
            path,
            "crates/algebra/src/ops.rs"
                | "crates/algebra/src/par.rs"
                | "crates/algebra/src/topk.rs"
                | "crates/algebra/src/plan.rs"
        )
}

/// Per-answer comparison modules where string equality is banned: tag
/// tests and `≺_V` value equality run once per answer (or per answer
/// pair), so they must go through interned symbols / compiled VOR keys
/// (DESIGN.md §10) — name comparisons belong at plan build.
pub fn is_answer_cmp_module(path: &str) -> bool {
    matches!(
        path,
        "crates/algebra/src/eval.rs"
            | "crates/algebra/src/ops.rs"
            | "crates/algebra/src/rank.rs"
            | "crates/algebra/src/topk.rs"
    )
}

/// Modules allowed to spawn threads: the query lanes (`par.rs` holds the
/// one `thread::scope` of query execution), the parallel ingest, and the
/// serve worker pool / per-connection readers all sit behind the
/// `resolve_threads` + `effective_workers` clamp; the ingest
/// writer spawns exactly one named background merger, not a pool, and
/// the scrubber spawns exactly one named `pimento-scrub` thread.
pub fn may_spawn_threads(path: &str) -> bool {
    matches!(
        path,
        "crates/algebra/src/par.rs"
            | "crates/index/src/parallel.rs"
            | "crates/serve/src/server.rs"
            | "crates/serve/src/scrub.rs"
            | "crates/ingest/src/writer.rs"
    )
}

/// The one module allowed to compare score floats directly.
pub fn is_rank_module(path: &str) -> bool {
    path == "crates/algebra/src/rank.rs"
}

/// Files that are test scaffolding wholesale (integration tests, benches,
/// examples): exempt from every rule except `static-mut`.
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`.
pub fn needs_forbid_unsafe(path: &str) -> bool {
    path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"))
}

/// Scan one file. `path` is workspace-relative with forward slashes.
pub fn scan_source(path: &str, source: &str) -> Vec<Violation> {
    let toks = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let excerpt = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
            .unwrap_or_default()
    };
    let mut out = Vec::new();
    let test_mask = cfg_test_mask(&toks);
    let file_is_test = is_test_path(path);

    let mut push = |rule: &'static str, line: u32, col: u32, message: String| {
        out.push(Violation {
            rule,
            path: path.to_string(),
            line,
            col,
            message,
            excerpt: excerpt(line),
            trace: Vec::new(),
        });
    };

    for (i, t) in toks.iter().enumerate() {
        let in_test = file_is_test || test_mask[i];

        // static-mut: banned everywhere, tests included (a mutable global
        // breaks the determinism argument no matter who owns it).
        if t.is_ident("static") && toks.get(i + 1).map(|n| n.is_ident("mut")).unwrap_or(false) {
            push(
                "static-mut",
                t.line,
                t.col,
                "`static mut` is banned (shared-state mutation outside the clamped worker model)"
                    .into(),
            );
        }

        if in_test {
            continue;
        }

        // float-cmp (a): `.partial_cmp(` / `.total_cmp(` outside rank.rs.
        if !is_rank_module(path)
            && t.is_punct(".")
            && toks
                .get(i + 1)
                .map(|n| n.is_ident("partial_cmp") || n.is_ident("total_cmp"))
                .unwrap_or(false)
        {
            push(
                "float-cmp",
                toks[i + 1].line,
                toks[i + 1].col,
                "raw f64 ordering outside algebra::rank — route through rank::cmp_f64_desc so parallel merges stay bit-identical".into(),
            );
        }

        // float-cmp (b): `.<score-field> <cmp-op>` — e.g. `a.s < b.s`.
        if !is_rank_module(path) && t.is_punct(".") {
            if let (Some(TokKind::Ident(field)), Some(TokKind::Punct(op))) = (
                toks.get(i + 1).map(|t| &t.kind),
                toks.get(i + 2).map(|t| &t.kind),
            ) {
                // Comparing against an integer literal proves the field is
                // an integer (e.g. `opts.k == 0` counts results, not KOR
                // score) — f64 comparisons need a float literal.
                let rhs_int = matches!(toks.get(i + 3).map(|t| &t.kind), Some(TokKind::Int));
                if SCORE_FIELDS.contains(&field.as_str()) && CMP_OPS.contains(op) && !rhs_int {
                    push(
                        "float-cmp",
                        toks[i + 1].line,
                        toks[i + 1].col,
                        format!(
                            "raw comparison on score field `.{field}` — use rank::cmp_f64_desc"
                        ),
                    );
                }
            }
        }

        // float-cmp (c): `<cmp-op> <ident>.<score-field>` with the field
        // access terminating the operand — e.g. `x < a.k`.
        if !is_rank_module(path) {
            if let TokKind::Punct(op) = &t.kind {
                let lhs_int =
                    i > 0 && matches!(toks.get(i - 1).map(|t| &t.kind), Some(TokKind::Int));
                if CMP_OPS.contains(op)
                    && !lhs_int
                    && matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Ident(_)))
                    && toks.get(i + 2).map(|n| n.is_punct(".")).unwrap_or(false)
                {
                    if let Some(TokKind::Ident(field)) = toks.get(i + 3).map(|t| &t.kind) {
                        let call_or_path = toks
                            .get(i + 4)
                            .map(|n| n.is_punct("(") || n.is_punct("."))
                            .unwrap_or(false);
                        if SCORE_FIELDS.contains(&field.as_str()) && !call_or_path {
                            push(
                                "float-cmp",
                                toks[i + 3].line,
                                toks[i + 3].col,
                                format!("raw comparison on score field `.{field}` — use rank::cmp_f64_desc"),
                            );
                        }
                    }
                }
            }
        }

        // hot-path-panic: `.unwrap()` / `.expect(` / panic-family macros.
        if is_hot_path(path) {
            if t.is_punct(".")
                && toks
                    .get(i + 1)
                    .map(|n| n.is_ident("unwrap") || n.is_ident("expect"))
                    .unwrap_or(false)
                && toks.get(i + 2).map(|n| n.is_punct("(")).unwrap_or(false)
            {
                let name = match &toks[i + 1].kind {
                    TokKind::Ident(s) => s.clone(),
                    _ => String::new(),
                };
                push(
                    "hot-path-panic",
                    toks[i + 1].line,
                    toks[i + 1].col,
                    format!("`.{name}()` in a hot-path module — convert to the module's typed error enum"),
                );
            }
            if let TokKind::Ident(name) = &t.kind {
                if matches!(
                    name.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && toks.get(i + 1).map(|n| n.is_punct("!")).unwrap_or(false)
                {
                    push(
                        "hot-path-panic",
                        t.line,
                        t.col,
                        format!("`{name}!` in a hot-path module — hot paths must not abort"),
                    );
                }
            }
        }

        // hot-path-str-cmp (a): `.eq_ignore_ascii_case(` in an
        // answer-comparison module.
        if is_answer_cmp_module(path)
            && t.is_punct(".")
            && toks
                .get(i + 1)
                .map(|n| n.is_ident("eq_ignore_ascii_case"))
                .unwrap_or(false)
            && toks.get(i + 2).map(|n| n.is_punct("(")).unwrap_or(false)
        {
            push(
                "hot-path-str-cmp",
                toks[i + 1].line,
                toks[i + 1].col,
                "case-insensitive string comparison in an answer-comparison module — resolve names to interned symbols / compiled VOR ids at plan build".into(),
            );
        }

        // hot-path-str-cmp (b): `==` / `!=` against a string literal.
        if is_answer_cmp_module(path) {
            if let TokKind::Punct(op) = &t.kind {
                let str_operand = (i > 0 && matches!(toks[i - 1].kind, TokKind::Str))
                    || matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Str));
                if matches!(*op, "==" | "!=") && str_operand {
                    push(
                        "hot-path-str-cmp",
                        t.line,
                        t.col,
                        format!("string-literal `{op}` comparison in an answer-comparison module — intern the name and compare ids"),
                    );
                }
            }
        }

        // lock-poison: `.lock().unwrap()` / `.read().expect(…)` /
        // `.write().unwrap()` anywhere in product code. A poisoned lock
        // only means another thread panicked while holding it; every
        // critical section in this workspace leaves its structure
        // consistent, so the guard must be recovered
        // (`poisoned.into_inner()`), not used as a panic amplifier that
        // turns one bad request into a dead server.
        if t.is_punct(".") {
            if let Some(TokKind::Ident(acq)) = toks.get(i + 1).map(|t| &t.kind) {
                if matches!(acq.as_str(), "lock" | "read" | "write")
                    && toks.get(i + 2).map(|n| n.is_punct("(")).unwrap_or(false)
                    && toks.get(i + 3).map(|n| n.is_punct(")")).unwrap_or(false)
                    && toks.get(i + 4).map(|n| n.is_punct(".")).unwrap_or(false)
                    && toks
                        .get(i + 5)
                        .map(|n| n.is_ident("unwrap") || n.is_ident("expect"))
                        .unwrap_or(false)
                    && toks.get(i + 6).map(|n| n.is_punct("(")).unwrap_or(false)
                {
                    push(
                        "lock-poison",
                        toks[i + 5].line,
                        toks[i + 5].col,
                        format!("`.{acq}().unwrap()`-style lock acquisition — recover the poisoned guard with `into_inner()` instead of propagating panics across threads"),
                    );
                }
            }
        }

        // thread-spawn: `thread::spawn` / `thread::scope` / `thread::Builder`
        // outside the two clamped parallelism modules.
        if !may_spawn_threads(path)
            && t.is_ident("thread")
            && toks.get(i + 1).map(|n| n.is_punct("::")).unwrap_or(false)
            && toks
                .get(i + 2)
                .map(|n| n.is_ident("spawn") || n.is_ident("scope") || n.is_ident("Builder"))
                .unwrap_or(false)
        {
            push(
                "thread-spawn",
                t.line,
                t.col,
                "thread creation outside algebra::par / index::parallel — all parallelism must pass the effective_workers clamp".into(),
            );
        }
    }

    // forbid-unsafe: crate roots must carry the attribute.
    if needs_forbid_unsafe(path) && !has_forbid_unsafe(&toks) {
        push(
            "forbid-unsafe",
            1,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".into(),
        );
    }

    // One finding per (rule, line): an expression like `a.s == b.s` trips
    // both sides of the float-cmp patterns but is a single defect.
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    out
}

/// Does the token stream contain `#![forbid(unsafe_code)]` (possibly with
/// several lints in the list)?
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(4).any(|w| {
        w[0].is_ident("forbid")
            && w[1].is_punct("(")
            && w[2..].iter().any(|t| t.is_ident("unsafe_code"))
    }) && toks.windows(8).any(|w| {
        w[0].is_punct("#")
            && w[1].is_punct("!")
            && w[2].is_punct("[")
            && w[3].is_ident("forbid")
            && w.iter().any(|t| t.is_ident("unsafe_code"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        scan_source(path, src).into_iter().map(|v| v.rule).collect()
    }

    const HOT: &str = "crates/index/src/store.rs";

    #[test]
    fn seeded_float_compare_is_caught() {
        // `a.s < b.s` matches both the `.s <` and `< b.s` patterns, but a
        // single comparison is a single finding.
        let src = "fn f(a: &Answer, b: &Answer) -> bool { a.s < b.s }";
        assert_eq!(
            rules_hit("crates/core/src/engine.rs", src),
            vec!["float-cmp"]
        );
        let src2 = "fn f() { xs.sort_by(|a, b| a.weight.partial_cmp(&b.weight).unwrap()); }";
        assert!(rules_hit("crates/core/src/engine.rs", src2).contains(&"float-cmp"));
    }

    #[test]
    fn rank_module_is_exempt_from_float_compare() {
        let src = "pub fn cmp_f64_desc(a: f64, b: f64) -> Ordering { b.partial_cmp(&a).unwrap_or(Ordering::Equal) }";
        assert!(rules_hit("crates/algebra/src/rank.rs", src).is_empty());
    }

    #[test]
    fn non_score_fields_pass() {
        let src = "fn f(a: &X) -> bool { a.start < a.end && a.len() < a.cap }";
        assert!(rules_hit("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn integer_comparands_exempt_the_field() {
        // `k` is also the top-k result count (usize) on config structs; a
        // comparison against an integer literal cannot be an f64 compare.
        let src = "fn f(opts: &SearchOptions) -> bool { opts.k == 0 || 10 < opts.k }";
        assert!(rules_hit("crates/core/src/engine.rs", src).is_empty());
        // …but float literals still trip the rule.
        let src2 = "fn f(a: &Answer) -> bool { a.k == 0.0 }";
        assert_eq!(
            rules_hit("crates/core/src/engine.rs", src2),
            vec!["float-cmp"]
        );
    }

    #[test]
    fn method_calls_on_score_named_fields_pass() {
        // `.k.max(…)` is a call, not a comparison operand.
        let src = "fn f(a: &Answer, x: f64) -> bool { x < a.k.max(0.0) }";
        assert!(rules_hit("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn seeded_hot_path_unwrap_is_caught() {
        let src = "pub fn g(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(rules_hit(HOT, src), vec!["hot-path-panic"]);
        let src2 = "pub fn g() { panic!(\"boom\"); }";
        assert_eq!(rules_hit(HOT, src2), vec!["hot-path-panic"]);
        let src3 = "pub fn g(x: Option<u32>) -> u32 { x.expect(\"set\") }";
        assert_eq!(rules_hit(HOT, src3), vec!["hot-path-panic"]);
    }

    #[test]
    fn unwrap_outside_hot_path_passes() {
        let src = "pub fn g(x: Option<u32>) -> u32 { x.unwrap() }";
        assert!(rules_hit("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_module_passes() {
        let src = r#"
            pub fn fine() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); panic!("test code may abort"); }
            }
        "#;
        assert!(rules_hit(HOT, src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_skipped() {
        let src = "#[cfg(not(test))] pub fn g(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(rules_hit(HOT, src), vec!["hot-path-panic"]);
    }

    #[test]
    fn seeded_hot_path_str_cmp_is_caught() {
        let src = r#"fn f(have: &str, want: &str) -> bool { have.eq_ignore_ascii_case(want) }"#;
        assert_eq!(
            rules_hit("crates/algebra/src/eval.rs", src),
            vec!["hot-path-str-cmp"]
        );
        let src2 = r#"fn f(tag: &str) -> bool { tag == "*" }"#;
        assert_eq!(
            rules_hit("crates/algebra/src/ops.rs", src2),
            vec!["hot-path-str-cmp"]
        );
        let src3 = r#"fn f(tag: &str) -> bool { "car" != tag }"#;
        assert_eq!(
            rules_hit("crates/algebra/src/topk.rs", src3),
            vec!["hot-path-str-cmp"]
        );
    }

    #[test]
    fn str_cmp_outside_answer_modules_passes() {
        let src = r#"fn f(tag: &str) -> bool { tag == "*" || tag.eq_ignore_ascii_case("car") }"#;
        assert!(rules_hit("crates/core/src/engine.rs", src).is_empty());
        assert!(rules_hit("crates/profile/src/vor.rs", src).is_empty());
    }

    #[test]
    fn symbol_id_comparison_passes_in_answer_modules() {
        let src = "fn f(want: SymbolId, have: SymbolId) -> bool { want == have }";
        assert!(rules_hit("crates/algebra/src/eval.rs", src).is_empty());
    }

    #[test]
    fn str_cmp_in_answer_module_tests_passes() {
        let src = r#"
            pub fn fine() {}
            #[cfg(test)]
            mod tests {
                fn t(key: &Key) { assert!(key.tag() == "car"); }
            }
        "#;
        assert!(rules_hit("crates/algebra/src/ops.rs", src).is_empty());
    }

    #[test]
    fn seeded_thread_spawn_is_caught() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(
            rules_hit("crates/core/src/engine.rs", src),
            vec!["thread-spawn"]
        );
        let src2 = "fn f() { std::thread::scope(|s| {}); }";
        assert_eq!(
            rules_hit("crates/index/src/inverted.rs", src2),
            vec!["thread-spawn"]
        );
    }

    #[test]
    fn serve_request_path_is_hot() {
        // Everything between accept and the response frame is hot-path
        // covered: an unwrap in the server is a worker-thread panic that
        // silently drops a request.
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(
            rules_hit("crates/serve/src/server.rs", src),
            vec!["hot-path-panic"]
        );
        assert_eq!(
            rules_hit("crates/serve/src/json.rs", src),
            vec!["hot-path-panic"]
        );
        assert_eq!(
            rules_hit("crates/serve/src/registry.rs", src),
            vec!["hot-path-panic"]
        );
        // The CLI bin may exit loudly at startup; benches/tests are exempt.
        assert!(rules_hit("crates/serve/src/bin/pimento.rs", src).is_empty());
        assert!(rules_hit("crates/serve/tests/serve_integration.rs", src).is_empty());
        // The worker pool / reader spawns live in server.rs only.
        let spawn = "fn f() { std::thread::Builder::new() }";
        assert!(rules_hit("crates/serve/src/server.rs", spawn).is_empty());
        assert_eq!(
            rules_hit("crates/serve/src/client.rs", spawn),
            vec!["thread-spawn"]
        );
    }

    #[test]
    fn thread_spawn_allowed_in_par_modules() {
        let src = "fn f() { std::thread::scope(|s| {}); }";
        assert!(rules_hit("crates/algebra/src/par.rs", src).is_empty());
        assert!(rules_hit("crates/index/src/parallel.rs", src).is_empty());
    }

    #[test]
    fn available_parallelism_is_not_spawning() {
        let src = "fn f() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }";
        assert!(rules_hit("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn seeded_lock_unwrap_is_caught_workspace_wide() {
        // Mutex, RwLock read side, RwLock write side; expect too.
        let src = "fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }";
        assert_eq!(
            rules_hit("crates/core/src/engine.rs", src),
            vec!["lock-poison"]
        );
        let src2 = "fn f(l: &RwLock<u32>) -> u32 { *l.read().expect(\"poisoned\") }";
        assert_eq!(
            rules_hit("crates/profile/src/vor.rs", src2),
            vec!["lock-poison"]
        );
        let src3 = "fn f(l: &RwLock<u32>) { *l.write().unwrap() = 1; }";
        assert_eq!(
            rules_hit("crates/tpq/src/parse.rs", src3),
            vec!["lock-poison"]
        );
    }

    #[test]
    fn recovered_lock_acquisition_passes() {
        let src = "fn f(m: &Mutex<u32>) -> u32 { match m.lock() { Ok(g) => *g, Err(p) => *p.into_inner() } }";
        assert!(rules_hit("crates/core/src/engine.rs", src).is_empty());
        // `read()` on a file (no `()`-then-unwrap chain shape) passes.
        let io = "fn f(mut r: impl Read, buf: &mut [u8]) { let n = r.read(buf).unwrap(); }";
        assert!(rules_hit("crates/core/src/engine.rs", io).is_empty());
        // Tests may unwrap locks freely.
        let test_src = "#[cfg(test)] mod tests { fn t(m: &Mutex<u32>) { m.lock().unwrap(); } }";
        assert!(rules_hit("crates/core/src/engine.rs", test_src).is_empty());
        assert!(rules_hit(
            "tests/end_to_end.rs",
            "fn t(m: &Mutex<u32>) { m.lock().unwrap(); }"
        )
        .is_empty());
    }

    #[test]
    fn seeded_static_mut_is_caught_even_in_tests() {
        let src = "static mut COUNTER: u32 = 0;";
        assert_eq!(
            rules_hit("crates/core/src/engine.rs", src),
            vec!["static-mut"]
        );
        let test_src = "#[cfg(test)] mod tests { static mut X: u8 = 0; }";
        assert_eq!(
            rules_hit("crates/core/src/engine.rs", test_src),
            vec!["static-mut"]
        );
    }

    #[test]
    fn forbid_unsafe_presence_is_enforced_on_crate_roots() {
        assert_eq!(
            rules_hit("crates/xml/src/lib.rs", "pub mod a;"),
            vec!["forbid-unsafe"]
        );
        assert!(rules_hit(
            "crates/xml/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod a;"
        )
        .is_empty());
        // Non-root files don't need it.
        assert!(rules_hit("crates/xml/src/parser.rs", "pub fn f() {}").is_empty());
    }

    #[test]
    fn test_directories_are_exempt_except_static_mut() {
        let src = "fn f(a: &A, b: &A) { assert!(a.s < b.s); Some(1).unwrap(); }";
        assert!(rules_hit("tests/end_to_end.rs", src).is_empty());
        assert_eq!(
            rules_hit("tests/end_to_end.rs", "static mut X: u8 = 0;"),
            vec!["static-mut"]
        );
    }

    #[test]
    fn violations_carry_provenance() {
        let v = scan_source(
            HOT,
            "\n\nfn g(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
        assert_eq!(v[0].excerpt, "x.unwrap()");
        assert_eq!(v[0].path, HOT);
    }
}
