//! Search options and results.

use crate::segment::LaneStats;
use pimento_algebra::{Answer, Database, ExecStats, KorOrder, PlanStrategy};
use pimento_index::ElemRef;
use pimento_xml::subtree_to_string;

/// Knobs for one search call.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// How many answers to return (must be ≥ 1).
    pub k: usize,
    /// Skip this many top answers before returning `k` (pagination).
    /// The plan computes the top `offset + k` internally, so pruning
    /// bounds stay exact.
    pub offset: usize,
    /// Plan strategy; [`PlanStrategy::Push`] (the paper's best) by default.
    pub strategy: PlanStrategy,
    /// KOR application order.
    pub kor_order: KorOrder,
    /// Collect a per-operator `EXPLAIN ANALYZE` trace into
    /// `SearchResults::trace`.
    pub trace: bool,
    /// The one lane knob: how many threads execute the query's tasks
    /// (one per segment; candidate chunks when there are more lanes than
    /// segments). `0` (the default) uses the machine's available
    /// parallelism, larger values are clamped to it like ingest, and `1`
    /// runs every task on the calling thread. For a weak-order `≺_V` the
    /// results are bit-identical at every value (DESIGN.md §8).
    pub threads: usize,
}

impl SearchOptions {
    /// The `k` of a search whose caller names none: the CLI's `--k`, a
    /// `search` frame's `k`, `pimento lint --k`.
    pub const DEFAULT_K: usize = 10;

    /// Top-`k` with the default (PushTopkPrune) strategy.
    pub fn top(k: usize) -> Self {
        SearchOptions {
            k,
            offset: 0,
            strategy: PlanStrategy::Push,
            kor_order: KorOrder::HighestWeightFirst,
            trace: false,
            threads: 0,
        }
    }

    /// Builder: skip the first `offset` answers (pagination).
    pub fn with_offset(mut self, offset: usize) -> Self {
        self.offset = offset;
        self
    }

    /// Builder: pick a plan strategy.
    pub fn with_strategy(mut self, strategy: PlanStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder: set the lane count (`0` = machine parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// One ranked hit.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// 1-based rank.
    pub rank: usize,
    /// Where the answer element lives.
    pub elem: ElemRef,
    /// Query score `S`.
    pub s: f64,
    /// KOR score `K`.
    pub k: f64,
    /// Ids of the keyword ordering rules this hit satisfies (why `K` is
    /// what it is).
    pub satisfied_kors: Vec<String>,
    /// Display text of the SR-contributed optional predicates this hit
    /// matches (why personalization boosted it).
    pub satisfied_optional: Vec<String>,
    /// The element's text content (snippet-style, capped).
    pub text: String,
    /// The element serialized back to XML (capped).
    pub xml: String,
}

impl SearchResult {
    const SNIPPET_CAP: usize = 400;

    /// Materialize display fields from an engine answer.
    pub fn from_answer(db: &Database, rank: usize, a: Answer) -> Self {
        let elem = a.elem.elem_ref();
        let mut text = db.coll.text_content(elem);
        truncate_chars(&mut text, Self::SNIPPET_CAP);
        let mut xml = subtree_to_string(db.coll.doc(elem.doc), db.coll.symbols(), elem.node);
        truncate_chars(&mut xml, Self::SNIPPET_CAP);
        SearchResult {
            rank,
            elem,
            s: a.s,
            k: a.k,
            satisfied_kors: Vec::new(),
            satisfied_optional: Vec::new(),
            text,
            xml,
        }
    }
}

fn truncate_chars(s: &mut String, cap: usize) {
    if s.chars().count() > cap {
        let cut: String = s.chars().take(cap).collect();
        *s = cut + "…";
    }
}

/// The full result of a search call.
#[derive(Debug, Clone)]
pub struct SearchResults {
    /// Ranked hits, best first.
    pub hits: Vec<SearchResult>,
    /// Execution counters, summed over the lane tasks.
    pub stats: ExecStats,
    /// Per-task counters and wall time (µs), in task order: one entry
    /// per segment, or per candidate chunk when there were more lanes
    /// than segments; a single entry when one task did everything.
    pub lanes: Vec<LaneStats>,
    /// What ran: the operator tree, under the task layout when several
    /// tasks ran it (equals [`crate::Engine::explain_prepared`]).
    pub explain: String,
    /// Per-operator row/time trace (empty unless `SearchOptions::trace`).
    pub trace: String,
    /// Scoping rules that fired, in application order.
    pub applied_rules: Vec<String>,
    /// Scoping rules skipped by conflicts.
    pub skipped_rules: Vec<String>,
    /// Number of queries in the (conceptual) flock.
    pub flock_size: usize,
}

impl SearchResults {
    /// Convenience: the element refs in rank order.
    pub fn elem_refs(&self) -> Vec<ElemRef> {
        self.hits.iter().map(|h| h.elem).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builders() {
        let o = SearchOptions::top(5).with_strategy(PlanStrategy::Naive);
        assert_eq!(o.k, 5);
        assert_eq!(o.strategy, PlanStrategy::Naive);
    }

    #[test]
    fn truncation() {
        let mut s = "x".repeat(500);
        truncate_chars(&mut s, 10);
        assert!(s.chars().count() <= 11);
        let mut short = "ok".to_string();
        truncate_chars(&mut short, 10);
        assert_eq!(short, "ok");
    }
}
