//! Panic-reachability analysis (`panic-path` rule, DESIGN.md §14).
//!
//! From the declared hot-path roots — the per-answer algebra operators,
//! the snapshot decoders, and the serve request dispatch — every
//! transitively reachable function must be panic-free: no `panic!`-family
//! macro, no `.unwrap()` / one-arg `.expect(…)`, no slice-index sugar.
//! Each finding is anchored at the panic *site* and carries the full
//! root→site call chain so the reader can see exactly how a request
//! reaches the abort.
//!
//! This subsumes the token-level `hot-path-panic` rule for calls *out of*
//! the hot modules: a helper two crates away is now just as visible as an
//! inline `unwrap`.

use crate::callgraph::Graph;
use crate::rules::Violation;

/// Which functions of a module are hot-path roots.
enum RootFns {
    /// Every non-test function in the module.
    All,
    /// Only the named functions (decoder entry points; writers excluded).
    Only(&'static [&'static str]),
}

/// Declared hot-path roots: `(crate, module path, fns)`.
const ROOTS: &[(&str, &[&str], RootFns)] = &[
    // The per-answer algebra: evaluation, operators, ranking, top-k.
    ("algebra", &["eval"], RootFns::All),
    ("algebra", &["ops"], RootFns::All),
    ("algebra", &["rank"], RootFns::All),
    ("algebra", &["topk"], RootFns::All),
    // The columnar/varint *decoders* — `open_index` reaches every
    // section decoder (`decode_rowed`, `decode_inv`, `decode_run`, the
    // `*_at` readers) through the call graph; the writers run at build
    // time and may assert — and the phrase scan.
    (
        "index",
        &["columnar"],
        RootFns::Only(&["open_index", "inspect"]),
    ),
    ("index", &["varint"], RootFns::Only(&["get_varint"])),
    ("index", &["phrase"], RootFns::All),
    // The one seek over the sorted tag and posting lists, and the region
    // lookup on the tag list: every join of the per-answer path runs
    // through them.
    ("index", &["seek"], RootFns::All),
    (
        "index",
        &["tags"],
        RootFns::Only(&["within", "elements_within"]),
    ),
    // Sharded-snapshot manifest decoding: parses untrusted on-disk text.
    ("index", &["segment"], RootFns::Only(&["parse"])),
    // The lane executor (`execute_lanes` and everything beside it): runs
    // on the serving path for every query.
    ("core", &["segment"], RootFns::All),
    // Serve request dispatch: everything a worker or reader thread runs
    // between accept and the response frame.
    (
        "serve",
        &["server"],
        RootFns::Only(&["worker_loop", "reader_loop", "handle_request"]),
    ),
    // Online ingestion: the live swap cell sits on every query's path,
    // and the write verbs run on worker threads where a stray panic would
    // poison the single-writer lock. The merger loop must never die to a
    // panic either — a dead merger silently stops compaction.
    ("ingest", &["live"], RootFns::All),
    (
        "ingest",
        &["writer"],
        RootFns::Only(&["add_documents", "delete_documents", "merger_loop"]),
    ),
    // Crash recovery and scrubbing (DESIGN.md §17): everything that runs
    // between "the disk holds whatever a crash left" and "the engine is
    // serving" must degrade to typed errors — a panic during recovery or
    // on the scrubber thread turns a survivable fault into an outage. The
    // segment directory verifier (`store::verify`, behind the scrubber and
    // `snapshot inspect`) decodes the same untrusted bytes, and so does the
    // profile registry's startup recovery and its one directory walk
    // (`registry::verify`, behind recovery, the scrubber and `pimento
    // scrub`).
    ("serve", &["scrub"], RootFns::All),
    (
        "serve",
        &["registry"],
        RootFns::Only(&["recover", "verify"]),
    ),
    (
        "core",
        &["engine"],
        RootFns::Only(&["from_sharded_dir", "from_sharded_dir_vfs"]),
    ),
    (
        "ingest",
        &["store"],
        RootFns::Only(&["recover", "manifest", "quarantine_corrupt", "verify"]),
    ),
    (
        "faults",
        &["vfs"],
        RootFns::Only(&[
            "write_durable",
            "quarantine_file",
            "quarantine_stats",
            "enforce_quarantine_cap",
        ]),
    ),
];

/// Run the analysis over a built call graph.
pub fn check(graph: &Graph) -> Vec<Violation> {
    let mut roots = Vec::new();
    for (krate, module, fns) in ROOTS {
        let names: &[&str] = match fns {
            RootFns::All => &[],
            RootFns::Only(list) => list,
        };
        roots.extend(graph.find_fns(krate, module, names));
    }
    roots.sort_unstable();
    roots.dedup();

    let reach = graph.reach_from(&roots);
    let mut out = Vec::new();
    let mut hit: Vec<usize> = reach.keys().copied().collect();
    hit.sort_unstable(); // deterministic order independent of hash seeds
    for f in hit {
        if graph.panics[f].is_empty() {
            continue;
        }
        let mut trace = graph.trace_to(&reach, f);
        let (fpath, fline) = graph.fn_site(f);
        trace.push(format!("{} ({}:{})", graph.fn_path(f), fpath, fline));
        let root_path = if trace.len() > 1 {
            trace[0].split(' ').next().unwrap_or("").to_string()
        } else {
            graph.fn_path(f)
        };
        let file = graph.fns[f].file;
        for p in &graph.panics[f] {
            out.push(Violation {
                rule: "panic-path",
                path: graph.files[file].path.clone(),
                line: p.line,
                col: p.col,
                message: format!(
                    "{} reachable from hot-path root `{}` through {} call(s) — degrade to the typed error path",
                    p.kind.describe(),
                    root_path,
                    trace.len() - 1,
                ),
                excerpt: graph.excerpt(file, p.line),
                trace: trace.clone(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let graph = Graph::build(Path::new("/nonexistent-lint-fixture"), &sources);
        check(&graph)
    }

    #[test]
    fn direct_panic_in_a_root_is_found() {
        let v = run(&[(
            "crates/algebra/src/eval.rs",
            "pub fn step(x: Option<u32>) -> u32 { x.unwrap() }",
        )]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "panic-path");
        assert!(v[0].message.contains("algebra::eval::step"));
    }

    #[test]
    fn panic_two_calls_deep_carries_the_chain() {
        let v = run(&[
            (
                "crates/algebra/src/eval.rs",
                "pub fn step(p: &[u32]) -> u32 { crate::util::helper(p) }",
            ),
            (
                "crates/algebra/src/util.rs",
                "pub fn helper(p: &[u32]) -> u32 { deep(p) } fn deep(p: &[u32]) -> u32 { *p.last().expect(\"nonempty\") }",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].path, "crates/algebra/src/util.rs");
        assert_eq!(v[0].trace.len(), 3, "root, helper, deep: {:?}", v[0].trace);
        assert!(v[0].trace[0].starts_with("algebra::eval::step"));
        assert!(v[0].trace[2].starts_with("algebra::util::deep"));
    }

    #[test]
    fn cold_modules_do_not_root_the_search() {
        let v = run(&[(
            "crates/index/src/writer.rs",
            "pub fn save(x: Option<u32>) -> u32 { x.unwrap() }",
        )]);
        assert!(v.is_empty(), "writers are not roots: {v:?}");
    }

    #[test]
    fn unreached_helpers_may_panic() {
        let v = run(&[
            ("crates/algebra/src/eval.rs", "pub fn step() -> u32 { 1 }"),
            (
                "crates/algebra/src/util.rs",
                "pub fn build_time_only(x: Option<u32>) -> u32 { x.unwrap() }",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }
}
