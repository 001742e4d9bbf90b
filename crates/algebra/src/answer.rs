//! The tuple flowing through query plans: an answer candidate with its
//! three ranking components (paper §3.3) — query score `S`, KOR score `K`,
//! and the compiled VOR key backing the `≺_V` comparison.

use pimento_index::ElemEntry;
use std::sync::Arc;

/// VOR-relevant attribute values of an answer, compiled once by the `vor`
/// operator into an id-based key and shared (answers are cloned into top-k
/// lists). Build with [`crate::rank::RankContext::make_key`]; pairwise
/// `≺_V` over two keys is array lookups and integer/float compares — see
/// [`pimento_profile::CompiledVors`].
pub use pimento_profile::CompiledKey as VorKey;

/// One intermediate or final answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The binding of the query's distinguished node.
    pub elem: ElemEntry,
    /// Query score `S`: sum of keyword-predicate contributions, each in
    /// [0, 1].
    pub s: f64,
    /// KOR score `K`: sum of the weights of satisfied keyword ordering
    /// rules.
    pub k: f64,
    /// Compiled VOR key; `None` until the `vor` operator has run.
    pub vor: Option<Arc<VorKey>>,
}

impl Answer {
    /// Fresh answer with base score `s`.
    pub fn new(elem: ElemEntry, s: f64) -> Self {
        Answer {
            elem,
            s,
            k: 0.0,
            vor: None,
        }
    }

    /// Deterministic identity tiebreak: document order.
    pub fn tiebreak(&self) -> (u32, u32) {
        (self.elem.doc.0, self.elem.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::RankContext;
    use pimento_index::DocId;
    use pimento_profile::{AttrValue, RankOrder, ValueOrderingRule};
    use pimento_xml::NodeId;

    fn entry(doc: u32, start: u32) -> ElemEntry {
        ElemEntry {
            doc: DocId(doc),
            node: NodeId(0),
            tag: pimento_xml::SymbolId(0),
            start,
            end: start + 10,
            level: 1,
        }
    }

    #[test]
    fn answer_construction() {
        let a = Answer::new(entry(0, 5), 0.7);
        assert_eq!(a.s, 0.7);
        assert_eq!(a.k, 0.0);
        assert!(a.vor.is_none());
        assert_eq!(a.tiebreak(), (0, 5));
    }

    #[test]
    fn vor_key_compilation() {
        let ctx = RankContext::new(
            vec![ValueOrderingRule::prefer_value(
                "pi1", "car", "color", "red",
            )],
            RankOrder::Kvs,
        );
        let key = ctx.make_key("car", |_, attr| {
            (attr == "color").then(|| AttrValue::Str("red".into()))
        });
        assert_eq!(key.tag(), "car");
        assert!(ctx.key_has(&key, "color"));
        assert!(!ctx.key_has(&key, "missing"));
    }

    #[test]
    fn tiebreak_orders_document_first() {
        let a = Answer::new(entry(0, 100), 0.0);
        let b = Answer::new(entry(1, 5), 0.0);
        assert!(a.tiebreak() < b.tiebreak());
    }
}
