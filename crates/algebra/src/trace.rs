//! Execution tracing: per-operator row counts and wall time, the
//! `EXPLAIN ANALYZE` view of a plan. Enabled per [`crate::plan::PlanSpec`]
//! (`trace: true`); the overhead of an untraced plan is zero (operators
//! are only wrapped when tracing is on).

use crate::answer::Answer;
use crate::context::{Database, ExecStats};
use crate::ops::{BoxedOp, Operator};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Measurements of one traced operator.
#[derive(Debug, Clone, Default)]
pub struct TraceEntry {
    /// Short operator label (`kor[pi4]`, `topkPrune#2`, …).
    pub label: String,
    /// Answers the operator produced.
    pub rows_out: u64,
    /// Time spent inside this operator *and everything below it* — the
    /// cumulative pull time, like `EXPLAIN ANALYZE`'s actual time.
    pub cumulative: Duration,
    /// Number of `next()` calls served.
    pub calls: u64,
}

/// Shared registry the plan builder hands each traced wrapper.
pub type TraceRegistry = Rc<RefCell<Vec<Rc<RefCell<TraceEntry>>>>>;

/// New, empty registry.
pub fn new_registry() -> TraceRegistry {
    Rc::new(RefCell::new(Vec::new()))
}

/// Wrap `inner` with a tracing shim registered under `label`.
pub fn traced(inner: BoxedOp, label: impl Into<String>, registry: &TraceRegistry) -> BoxedOp {
    let entry = Rc::new(RefCell::new(TraceEntry {
        label: label.into(),
        ..Default::default()
    }));
    registry.borrow_mut().push(Rc::clone(&entry));
    Box::new(Traced { inner, entry })
}

struct Traced {
    inner: BoxedOp,
    entry: Rc<RefCell<TraceEntry>>,
}

impl Operator for Traced {
    fn next(&mut self, db: &Database, stats: &mut ExecStats) -> Option<Answer> {
        let t0 = Instant::now();
        let out = self.inner.next(db, stats);
        let dt = t0.elapsed();
        let mut e = self.entry.borrow_mut();
        e.cumulative += dt;
        e.calls += 1;
        if out.is_some() {
            e.rows_out += 1;
        }
        out
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Render a registry bottom-up (build order) as an analyze report.
pub fn render(registry: &TraceRegistry) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>10} {:>10} {:>12}\n",
        "operator", "rows out", "calls", "cum time(ms)"
    ));
    for entry in registry.borrow().iter() {
        let e = entry.borrow();
        out.push_str(&format!(
            "{:<28} {:>10} {:>10} {:>12.3}\n",
            e.label,
            e.rows_out,
            e.calls,
            e.cumulative.as_secs_f64() * 1e3
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Matcher;
    use crate::ops::QueryEval;
    use pimento_index::Collection;
    use pimento_profile::PersonalizedQuery;
    use pimento_tpq::parse_tpq;

    #[test]
    fn traced_wrapper_counts_rows_and_calls() {
        let mut coll = Collection::new();
        coll.add_xml("<a><b/><b/><b/></a>").unwrap();
        let db = Database::index_plain(coll);
        let m = std::sync::Arc::new(Matcher::new(
            &db,
            PersonalizedQuery::unpersonalized(parse_tpq("//b").unwrap()),
            &[&db.inverted],
        ));
        let registry = new_registry();
        let mut op = traced(Box::new(QueryEval::new(m)), "scan", &registry);
        let mut stats = ExecStats::default();
        while op.next(&db, &mut stats).is_some() {}
        let entries = registry.borrow();
        let e = entries[0].borrow();
        assert_eq!(e.rows_out, 3);
        assert_eq!(e.calls, 4, "three rows plus the exhausting call");
        assert_eq!(e.label, "scan");
    }

    #[test]
    fn render_contains_labels() {
        let registry = new_registry();
        registry.borrow_mut().push(Rc::new(RefCell::new(TraceEntry {
            label: "kor[pi4]".into(),
            ..Default::default()
        })));
        let text = render(&registry);
        assert!(text.contains("kor[pi4]"));
        assert!(text.contains("rows out"));
    }
}
