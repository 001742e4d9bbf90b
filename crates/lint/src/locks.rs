//! Lock-order analysis over `crates/serve` (`lock-order` rule,
//! DESIGN.md §14).
//!
//! The serve layer holds a handful of named locks (`inner`, `writer`,
//! `sessions`, `health`). This pass tracks the *held-lock set* through
//! each function body — acquisitions are either calls to the serve
//! guard-returning wrappers (`lock`, `read_guard`, `write_guard`;
//! detected by their `…Guard` return type) or direct zero-arg
//! `.lock()`/`.read()`/`.write()` method calls — and propagates
//! acquisitions through the serve-internal call graph. Every ordered
//! pair `A held → B acquired` becomes an edge; a cycle in that graph is
//! a potential deadlock, reported with both acquisition sites.
//!
//! Guard lifetimes follow the workspace idiom: a guard consumed by a
//! chained call (`lock(&m).get(…)`) is a statement-scoped temporary; a
//! `let g = …` binding lives to the end of its block or an explicit
//! `drop(g)`; anything else is conservatively block-scoped.

use std::collections::{HashMap, HashSet};

use crate::callgraph::{scan_call_args, Graph};
use crate::lexer::TokKind;
use crate::rules::Violation;

/// One `A held while B acquired` observation.
#[derive(Debug, Clone)]
struct Edge {
    held: String,
    held_path: String,
    held_line: u32,
    held_col: u32,
    acq: String,
    acq_path: String,
    acq_line: u32,
    acq_col: u32,
    /// `Some(callee path)` when the acquisition is inside a callee.
    via: Option<String>,
}

/// Run the analysis over a built call graph.
pub fn check(graph: &Graph) -> Vec<Violation> {
    // Serve functions, and the guard-returning wrappers among them.
    let mut serve_fns: Vec<usize> = Vec::new();
    let mut wrappers: HashSet<usize> = HashSet::new();
    let mut wrapper_names: HashSet<&str> = HashSet::new();
    for (i, n) in graph.fns.iter().enumerate() {
        let file = &graph.files[n.file];
        if file.crate_name != "serve" || file.is_test || n.def.in_test {
            continue;
        }
        serve_fns.push(i);
        if n.def.returns_guard {
            wrappers.insert(i);
            wrapper_names.insert(n.def.name.as_str());
        }
    }

    // ACQ*: lock names each serve fn may acquire, transitively (wrapper
    // bodies excluded — their acquisition is attributed to the caller).
    let direct: HashMap<usize, Vec<Acq>> = serve_fns
        .iter()
        .filter(|i| !wrappers.contains(i))
        .map(|&i| (i, acquisitions(graph, i, &wrapper_names)))
        .collect();
    let mut acq_star: HashMap<usize, HashSet<String>> = direct
        .iter()
        .map(|(&i, acqs)| (i, acqs.iter().map(|a| a.lock.clone()).collect()))
        .collect();
    loop {
        let mut changed = false;
        for &f in &serve_fns {
            if wrappers.contains(&f) {
                continue;
            }
            let mut add: Vec<String> = Vec::new();
            for site in &graph.calls[f] {
                if let Some(set) = acq_star.get(&site.callee) {
                    add.extend(set.iter().cloned());
                }
            }
            let set = acq_star.entry(f).or_default();
            for l in add {
                changed |= set.insert(l);
            }
        }
        if !changed {
            break;
        }
    }

    // Walk each body with the held-set simulation, collecting edges.
    let mut edges: Vec<Edge> = Vec::new();
    for &f in &serve_fns {
        if wrappers.contains(&f) {
            continue;
        }
        walk_fn(graph, f, &direct[&f], &wrappers, &acq_star, &mut edges);
    }

    report_cycles(&edges)
}

/// One acquisition site inside a body.
#[derive(Debug, Clone)]
struct Acq {
    lock: String,
    line: u32,
    col: u32,
    /// Token index of the acquisition's first token.
    at: usize,
    /// Token index just past the call's closing `)`.
    after: usize,
}

/// Find every acquisition in fn `f`'s body: wrapper calls (lock name =
/// terminal field of the argument) and direct zero-arg
/// `.lock()`/`.read()`/`.write()` (lock name = terminal receiver field).
fn acquisitions(graph: &Graph, f: usize, wrapper_names: &HashSet<&str>) -> Vec<Acq> {
    let node = &graph.fns[f];
    let toks = &graph.files[node.file].toks;
    let Some((open, close)) = node.def.body else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut j = open + 1;
    while j < close {
        // Wrapper call: `lock(&self.inner)` — not preceded by `.`.
        if let TokKind::Ident(name) = &toks[j].kind {
            let is_method = j > 0 && toks[j - 1].is_punct(".");
            if !is_method
                && wrapper_names.contains(name.as_str())
                && toks.get(j + 1).map(|t| t.is_punct("(")).unwrap_or(false)
            {
                let (_, close_paren) = scan_call_args(toks, j + 1);
                // Terminal field ident of the argument names the lock.
                let lock = (j + 2..close_paren)
                    .rev()
                    .find_map(|k| match &toks[k].kind {
                        TokKind::Ident(s) if s != "self" => Some(s.clone()),
                        _ => None,
                    })
                    .unwrap_or_else(|| "?".to_string());
                out.push(Acq {
                    lock,
                    line: toks[j].line,
                    col: toks[j].col,
                    at: j,
                    after: close_paren + 1,
                });
                j += 2; // walk into the args (nested acquisitions count)
                continue;
            }
            // Direct method acquisition: `recv.lock()` zero-arg.
            if is_method
                && matches!(name.as_str(), "lock" | "read" | "write")
                && toks.get(j + 1).map(|t| t.is_punct("(")).unwrap_or(false)
            {
                let (argc, close_paren) = scan_call_args(toks, j + 1);
                if argc == 0 {
                    let lock = match toks.get(j.wrapping_sub(2)).map(|t| &t.kind) {
                        Some(TokKind::Ident(s)) if s != "self" => s.clone(),
                        _ => "?".to_string(),
                    };
                    out.push(Acq {
                        lock,
                        line: toks[j].line,
                        col: toks[j].col,
                        at: j,
                        after: close_paren + 1,
                    });
                }
            }
        }
        j += 1;
    }
    out
}

/// How long a guard lives.
#[derive(Debug, Clone)]
enum GuardScope {
    /// Temporary: dies at the next `;` at `depth`.
    Stmt { depth: usize },
    /// Lives until the block at `depth` closes.
    Block { depth: usize },
    /// `let name = …`: block-scoped, or an explicit `drop(name)`.
    Named { name: String, depth: usize },
}

/// Simulate the held-lock set through fn `f`'s body, appending edges.
fn walk_fn(
    graph: &Graph,
    f: usize,
    acqs: &[Acq],
    wrappers: &HashSet<usize>,
    acq_star: &HashMap<usize, HashSet<String>>,
    edges: &mut Vec<Edge>,
) {
    let node = &graph.fns[f];
    let file = &graph.files[node.file];
    let toks = &file.toks;
    let Some((open, close)) = node.def.body else {
        return;
    };

    let acq_at: HashMap<usize, &Acq> = acqs.iter().map(|a| (a.at, a)).collect();
    // Resolved calls by (line, col) of the call token.
    let mut calls_at: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    for site in &graph.calls[f] {
        calls_at
            .entry((site.line, site.col))
            .or_default()
            .push(site.callee);
    }

    struct Held {
        lock: String,
        line: u32,
        col: u32,
        scope: GuardScope,
    }
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 1usize; // inside the body braces
    let mut j = open + 1;
    while j < close {
        match &toks[j].kind {
            TokKind::Punct("{") => depth += 1,
            TokKind::Punct("}") => {
                depth = depth.saturating_sub(1);
                held.retain(|h| match &h.scope {
                    GuardScope::Block { depth: d } | GuardScope::Named { depth: d, .. } => {
                        *d <= depth
                    }
                    GuardScope::Stmt { .. } => true,
                });
            }
            TokKind::Punct(";") => {
                held.retain(|h| !matches!(&h.scope, GuardScope::Stmt { depth: d } if *d >= depth));
            }
            _ => {}
        }

        // `drop(g)` releases a named guard early.
        if toks[j].is_ident("drop") && toks.get(j + 1).map(|t| t.is_punct("(")).unwrap_or(false) {
            if let Some(TokKind::Ident(v)) = toks.get(j + 2).map(|t| &t.kind) {
                if toks.get(j + 3).map(|t| t.is_punct(")")).unwrap_or(false) {
                    held.retain(
                        |h| !matches!(&h.scope, GuardScope::Named { name, .. } if name == v),
                    );
                }
            }
        }

        if let Some(acq) = acq_at.get(&j) {
            // Edges from everything currently held to the new lock.
            for h in &held {
                edges.push(Edge {
                    held: h.lock.clone(),
                    held_path: file.path.clone(),
                    held_line: h.line,
                    held_col: h.col,
                    acq: acq.lock.clone(),
                    acq_path: file.path.clone(),
                    acq_line: acq.line,
                    acq_col: acq.col,
                    via: None,
                });
            }
            let scope = guard_scope(toks, open, acq, depth);
            held.push(Held {
                lock: acq.lock.clone(),
                line: acq.line,
                col: acq.col,
                scope,
            });
        } else if let TokKind::Ident(_) = &toks[j].kind {
            // A resolved call executed while locks are held: everything the
            // callee may acquire conflicts with the held set.
            if !held.is_empty() {
                // A method chained on an acquisition (`lock(&m).len()`)
                // runs on the guarded data, which is not the type whose
                // impl holds the lock: name resolution alone would wire
                // `HashMap::len` under `ProfileRegistry::len`'s guard back
                // to `ProfileRegistry::len` itself.
                let on_guard = j > 0
                    && toks[j - 1].is_punct(".")
                    && acqs.iter().any(|a| a.after == j - 1);
                if let Some(callees) = calls_at.get(&(toks[j].line, toks[j].col)) {
                    for &callee in callees {
                        if wrappers.contains(&callee) {
                            continue;
                        }
                        let callee_ty = &graph.fns[callee].def.self_ty;
                        if on_guard && callee_ty.is_some() && *callee_ty == node.def.self_ty {
                            continue;
                        }
                        if let Some(set) = acq_star.get(&callee) {
                            let mut locks: Vec<&String> = set.iter().collect();
                            locks.sort();
                            for lock in locks {
                                for h in &held {
                                    edges.push(Edge {
                                        held: h.lock.clone(),
                                        held_path: file.path.clone(),
                                        held_line: h.line,
                                        held_col: h.col,
                                        acq: lock.clone(),
                                        acq_path: file.path.clone(),
                                        acq_line: toks[j].line,
                                        acq_col: toks[j].col,
                                        via: Some(graph.fn_path(callee)),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        j += 1;
    }
}

/// Decide a fresh guard's lifetime from the surrounding tokens.
fn guard_scope(
    toks: &[crate::lexer::Tok],
    body_open: usize,
    acq: &Acq,
    depth: usize,
) -> GuardScope {
    // Chained consumption comes first: in `let v = lock(&m).lookup(&k);`
    // the binding captures the *result* of the chain, not the guard — the
    // guard is a statement temporary that dies at the `;`.
    if toks
        .get(acq.after)
        .map(|t| t.is_punct("."))
        .unwrap_or(false)
    {
        return GuardScope::Stmt { depth };
    }
    // `let [mut] name = <acquisition>;` — scan back to the statement start.
    let mut k = acq.at;
    while k > body_open {
        match &toks[k - 1].kind {
            TokKind::Punct(";") | TokKind::Punct("{") | TokKind::Punct("}") => break,
            _ => k -= 1,
        }
    }
    if toks.get(k).map(|t| t.is_ident("let")).unwrap_or(false) {
        let mut n = k + 1;
        if toks.get(n).map(|t| t.is_ident("mut")).unwrap_or(false) {
            n += 1;
        }
        if let Some(TokKind::Ident(name)) = toks.get(n).map(|t| &t.kind) {
            if toks.get(n + 1).map(|t| t.is_punct("=")).unwrap_or(false) {
                return GuardScope::Named {
                    name: name.clone(),
                    depth,
                };
            }
        }
    }
    // Deref-assign (`*lock(&m) = v`) and other temporaries die at the
    // statement too; `match`/`if let` scrutinee guards live for the whole
    // construct — conservatively block-scoped.
    if toks
        .get(acq.after)
        .map(|t| t.is_punct("=") || t.is_punct(";"))
        .unwrap_or(false)
    {
        return GuardScope::Stmt { depth };
    }
    GuardScope::Block { depth }
}

/// Turn the edge set into at most one violation per lock cycle.
fn report_cycles(edges: &[Edge]) -> Vec<Violation> {
    // Adjacency on lock names, keeping the first edge per ordered pair.
    let mut first: HashMap<(String, String), &Edge> = HashMap::new();
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    for e in edges {
        let key = (e.held.clone(), e.acq.clone());
        first.entry(key).or_insert(e);
        adj.entry(e.held.as_str()).or_default().push(e.acq.as_str());
    }

    let mut out = Vec::new();
    let mut reported: HashSet<Vec<String>> = HashSet::new();
    let mut pairs: Vec<(&(String, String), &&Edge)> = first.iter().collect();
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    for ((a, b), e) in pairs {
        // Self-deadlock: the lock is re-acquired while already held.
        if a == b {
            let key = vec![a.clone()];
            if reported.insert(key) {
                out.push(cycle_violation(
                    e,
                    format!(
                        "lock `{}` acquired at {}:{}:{} while already held (acquired at {}:{}:{}){} — non-reentrant locks self-deadlock",
                        a, e.acq_path, e.acq_line, e.acq_col, e.held_path, e.held_line, e.held_col,
                        via_suffix(e),
                    ),
                ));
            }
            continue;
        }
        // Two-lock (or longer) cycle: any path b → … → a closes it.
        if let Some(back) = find_path(&adj, b, a) {
            let mut key: Vec<String> = vec![a.clone(), b.clone()];
            key.sort();
            if reported.insert(key) {
                let back_edge = first.get(&back).copied();
                let back_txt = match back_edge {
                    Some(be) => format!(
                        "; the reverse order `{}` → `{}` is taken at {}:{}:{}{}",
                        be.held,
                        be.acq,
                        be.acq_path,
                        be.acq_line,
                        be.acq_col,
                        via_suffix(be)
                    ),
                    None => String::new(),
                };
                out.push(cycle_violation(
                    e,
                    format!(
                        "lock-order cycle: `{}` (held since {}:{}:{}) then `{}` acquired at {}:{}:{}{}{}",
                        a, e.held_path, e.held_line, e.held_col, b, e.acq_path, e.acq_line,
                        e.acq_col, via_suffix(e), back_txt,
                    ),
                ));
            }
        }
    }
    out
}

fn via_suffix(e: &Edge) -> String {
    match &e.via {
        Some(callee) => format!(" (inside callee `{callee}`)"),
        None => String::new(),
    }
}

fn cycle_violation(e: &Edge, message: String) -> Violation {
    Violation {
        rule: "lock-order",
        path: e.acq_path.clone(),
        line: e.acq_line,
        col: e.acq_col,
        message,
        excerpt: String::new(),
        trace: Vec::new(),
    }
}

/// Is there a lock-name path `from → … → to`? Returns the first edge key
/// on that path for site reporting.
fn find_path<'a>(
    adj: &HashMap<&'a str, Vec<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<(String, String)> {
    let mut stack = vec![from];
    let mut seen: HashSet<&str> = HashSet::new();
    seen.insert(from);
    while let Some(cur) = stack.pop() {
        if let Some(nexts) = adj.get(cur) {
            for &n in nexts {
                if n == to {
                    return Some((cur.to_string(), n.to_string()));
                }
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const WRAP: &str = "pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { match m.lock() { Ok(g) => g, Err(p) => p.into_inner() } }\n";

    fn run(body: &str) -> Vec<Violation> {
        let src = format!("{WRAP}{body}");
        let sources = vec![("crates/serve/src/server.rs".to_string(), src)];
        let graph = Graph::build(Path::new("/nonexistent-lint-fixture"), &sources);
        check(&graph)
    }

    #[test]
    fn opposite_order_in_two_fns_is_a_cycle() {
        let v = run(
            "pub fn ab(s: &St) { let a = lock(&s.cache); let b = lock(&s.writer); }\n\
             pub fn ba(s: &St) { let b = lock(&s.writer); let a = lock(&s.cache); }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "lock-order");
        assert!(v[0].message.contains("cache") && v[0].message.contains("writer"));
    }

    #[test]
    fn cycle_through_a_callee_names_the_callee() {
        let v = run(
            "pub fn outer(s: &St) { let a = lock(&s.cache); helper(s); }\n\
             pub fn helper(s: &St) { let b = lock(&s.writer); inner2(s); }\n\
             pub fn inner2(s: &St) { let a = lock(&s.cache); }\n",
        );
        // cache → writer (via helper's own body after the call edge) and
        // cache reachable again under writer: self/cycle findings exist.
        assert!(!v.is_empty(), "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("callee")), "{v:?}");
    }

    #[test]
    fn statement_temporaries_do_not_nest() {
        let v = run("pub fn get(s: &St) -> u32 { lock(&s.cache).peek(); lock(&s.cache).take() }\n");
        assert!(v.is_empty(), "chained guards die at the `;`: {v:?}");
    }

    #[test]
    fn a_method_on_the_guarded_data_is_not_the_enclosing_method() {
        // `.len()` here is the map's, not a recursive `Reg::len`.
        let v = run("impl Reg { pub fn len(&self) -> usize { lock(&self.sessions).len() } }\n");
        assert!(v.is_empty(), "{v:?}");
        // A call of the enclosing type's method with the guard held is
        // still followed.
        let v = run(
            "impl Reg { pub fn len(&self) -> usize { lock(&self.sessions).len() }\n\
             pub fn f(&self) -> usize { let g = lock(&self.sessions); self.len() } }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("already held"), "{v:?}");
    }

    #[test]
    fn dropped_guards_release_the_lock() {
        let v = run(
            "pub fn f(s: &St) { let q = lock(&s.inner); let job = q.pop(); drop(q); let w = lock(&s.inner); }\n",
        );
        assert!(v.is_empty(), "drop(q) releases before re-acquire: {v:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let v = run(
            "pub fn a(s: &St) { let x = lock(&s.cache); let y = lock(&s.writer); }\n\
             pub fn b(s: &St) { let x = lock(&s.cache); let y = lock(&s.writer); }\n",
        );
        assert!(v.is_empty(), "same order everywhere: {v:?}");
    }

    #[test]
    fn direct_method_acquisitions_count() {
        let v = run("pub fn f(s: &St) { let a = s.cache.lock(); let b = s.cache.lock(); }\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("already held"), "{v:?}");
    }
}
