//! Parallel collection building: parse many documents on worker threads,
//! then merge their symbol tables into one shared interner.
//!
//! Parsing dominates ingest cost and is embarrassingly parallel *except*
//! for the shared symbol table. Each worker therefore parses against its
//! own local table; the merge step interns every local name into the
//! shared table once and rewrites the documents' symbol ids through the
//! resulting mapping — an O(total names + total nodes) fix-up that is tiny
//! next to parsing.

use crate::store::Collection;
use pimento_xml::{parse_content, Document, SymbolId, SymbolTable, XmlError};
use std::sync::OnceLock;

/// The machine's parallelism, read once: `available_parallelism` reads
/// the cgroup files on every call (≈ 19 µs here), which a request that
/// leaves `threads == 0` must not pay each time.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The worker count actually used for `requested` threads over `jobs`
/// units of work: at least one, at most the machine's parallelism, and
/// never more workers than jobs. The single clamp shared by ingest and
/// query execution (`0` means "one worker", i.e. inline).
pub fn effective_workers(requested: usize, jobs: usize) -> usize {
    // More workers than cores only adds scheduling overhead; clamp to the
    // machine (and never spawn more workers than units of work).
    requested.max(1).min(cores()).min(jobs.max(1))
}

/// Resolve a user-facing thread-count knob: `0` means "use the machine's
/// available parallelism", anything else is taken literally. This is the
/// single place the `0` convention is interpreted — callers then clamp
/// the resolved count with [`effective_workers`], so the two compose as
/// `effective_workers(resolve_threads(requested), jobs)`. (`--threads`
/// on the search CLI, `SearchOptions::threads`, and `pimento serve
/// --threads` all route through here; precedence is per-request override
/// → server/CLI flag → `0` = machine parallelism.)
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        cores()
    } else {
        requested
    }
}

/// Parse `xmls` into a collection using up to `threads` worker threads
/// (`0` or `1` parses inline). Document order is preserved. The first
/// parse error (by document index) is reported.
pub fn build_collection_parallel<S: AsRef<str> + Sync>(
    xmls: &[S],
    threads: usize,
) -> Result<Collection, XmlError> {
    build_with_workers(xmls, effective_workers(threads, xmls.len()))
}

/// The unclamped worker path (tests exercise multi-worker merging even on
/// single-core machines). Workers beyond `xmls.len()` are never spawned
/// (the chunking caps them); `0` parses inline.
fn build_with_workers<S: AsRef<str> + Sync>(
    xmls: &[S],
    threads: usize,
) -> Result<Collection, XmlError> {
    if threads <= 1 || xmls.len() <= 1 {
        let mut coll = Collection::new();
        for x in xmls {
            coll.add_xml(x.as_ref())?;
        }
        return Ok(coll);
    }

    // Parse in parallel, one chunk of documents per worker (std scoped
    // threads: parsing shares nothing, so no synchronization is needed
    // beyond the disjoint output slots).
    let chunk = xmls.len().div_ceil(threads);
    // Each worker owns one output vec and pushes exactly one result per
    // input, so the flattened merge below sees every document in order
    // without any "slot not filled" case to handle.
    let mut parsed: Vec<Vec<Result<(Document, SymbolTable), XmlError>>> = xmls
        .chunks(chunk)
        .map(|c| Vec::with_capacity(c.len()))
        .collect();
    std::thread::scope(|scope| {
        for (inputs, outputs) in xmls.chunks(chunk).zip(parsed.iter_mut()) {
            scope.spawn(move || {
                for x in inputs {
                    let mut local = SymbolTable::new();
                    outputs.push(parse_content(x.as_ref(), &mut local).map(|d| (d, local)));
                }
            });
        }
    });

    // Merge sequentially, preserving document order: intern each worker's
    // names once, then rewrite symbol ids in place (no node copies).
    let mut coll = Collection::new();
    for slot in parsed.into_iter().flatten() {
        let (mut doc, local) = slot?;
        let mapping: Vec<SymbolId> = (0..local.len() as u32)
            .map(|i| coll.symbols_mut().intern(local.name(SymbolId(i))))
            .collect();
        doc.remap_symbols(&mapping);
        coll.add_document(doc);
    }
    Ok(coll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::InvertedIndex;

    #[test]
    fn resolve_then_clamp_is_the_canonical_pipeline() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(
            resolve_threads(0),
            cores,
            "0 resolves to machine parallelism"
        );
        assert_eq!(
            resolve_threads(3),
            3,
            "explicit counts pass through unclamped"
        );
        // The composition clamps exactly once: resolve interprets the `0`
        // convention, effective_workers applies the core/job bounds.
        assert_eq!(effective_workers(resolve_threads(0), usize::MAX), cores);
        assert_eq!(effective_workers(resolve_threads(1), usize::MAX), 1);
        assert_eq!(
            effective_workers(resolve_threads(cores + 64), 2),
            2.min(cores)
        );
    }
    use crate::tokenize::Tokenizer;
    use pimento_xml::to_string;

    fn docs(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                format!(
                    "<dealer id=\"d{i}\"><car><price>{}</price><color>c{}</color></car></dealer>",
                    100 * i,
                    i % 3
                )
            })
            .collect()
    }

    #[test]
    fn parallel_equals_sequential() {
        let xmls = docs(17);
        let seq = build_with_workers(&xmls, 1).unwrap();
        let par = build_with_workers(&xmls, 4).unwrap();
        assert_eq!(seq.len(), par.len());
        for ((_, a), (_, b)) in seq.iter().zip(par.iter()) {
            assert_eq!(to_string(a, seq.symbols()), to_string(b, par.symbols()));
        }
        // Indexes built over both behave identically.
        let ia = InvertedIndex::build(&seq, Tokenizer::plain());
        let ib = InvertedIndex::build(&par, Tokenizer::plain());
        assert_eq!(ia.vocabulary_size(), ib.vocabulary_size());
        assert_eq!(ia.postings("c1").len(), ib.postings("c1").len());
    }

    #[test]
    fn symbols_are_deduplicated_across_workers() {
        let xmls = docs(8);
        let par = build_with_workers(&xmls, 4).unwrap();
        // "dealer", "car", "price", "color", "id" — one entry each.
        assert_eq!(par.symbols().len(), 5);
    }

    #[test]
    fn parse_error_is_reported() {
        let xmls = vec!["<ok/>".to_string(), "<broken>".to_string()];
        assert!(build_with_workers(&xmls, 2).is_err());
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<String> = Vec::new();
        assert!(build_collection_parallel(&empty, 8).unwrap().is_empty());
        let one = vec!["<a/>".to_string()];
        assert_eq!(build_collection_parallel(&one, 8).unwrap().len(), 1);
    }

    #[test]
    fn effective_workers_clamps() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // 0 requested means one inline worker, regardless of jobs.
        assert_eq!(effective_workers(0, 0), 1);
        assert_eq!(effective_workers(0, 100), 1);
        // 1 requested stays 1.
        assert_eq!(effective_workers(1, 100), 1);
        // Never more workers than jobs.
        assert_eq!(effective_workers(8, 1), 1);
        assert_eq!(effective_workers(8, 3), 3.min(cores));
        // Zero jobs still yields one worker (the caller's loop is empty).
        assert_eq!(effective_workers(8, 0), 1);
        // Huge requests clamp to the machine.
        assert_eq!(effective_workers(usize::MAX, usize::MAX), cores);
    }

    #[test]
    fn more_threads_than_documents() {
        let xmls = docs(3);
        let c = build_with_workers(&xmls, 64).unwrap();
        assert_eq!(c.len(), 3);
        // The public entry clamps to the machine but stays correct.
        let c2 = build_collection_parallel(&xmls, 64).unwrap();
        assert_eq!(c2.len(), 3);
    }
}
