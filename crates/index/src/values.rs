//! Numeric value index: range scans for constraint predicates.
//!
//! Constraint predicates like `price < 2000` otherwise evaluate by parsing
//! an element's text content per candidate. This index records, per tag,
//! every *leaf* element (single text child) whose content parses as a
//! number, sorted by value — so `content relOp c` becomes a binary-searched
//! slice. The structural-join pre-filter consumes it to seed pattern nodes
//! that carry numeric constraints.
//!
//! Like [`crate::tags::TagIndex`], the index is produced exactly once —
//! [`ValueIndex::build`], or [`crate::columnar::open_index`] decoding the
//! `vals` section of a `PIMCOL4` snapshot into the same map — and never
//! mutated afterwards.

use crate::fields::FieldValue;
use crate::store::Collection;
use crate::tags::ElemEntry;
use pimento_xml::{NodeKind, SymbolId};
use std::collections::HashMap;

/// Per-tag numeric entries sorted by value (ties in document order). Tags
/// with no numeric leaf have no entry; NaN is never indexed.
#[derive(Debug, Default, PartialEq)]
pub struct ValueIndex {
    pub(crate) by_tag: HashMap<SymbolId, Vec<(f64, ElemEntry)>>,
}

/// Comparison operators the range scan answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
}

impl ValueIndex {
    /// Index every numeric leaf element of `coll`.
    pub fn build(coll: &Collection) -> Self {
        let mut index = ValueIndex::default();
        for (doc_id, doc) in coll.iter() {
            for node_id in doc.node_ids() {
                let node = doc.node(node_id);
                let NodeKind::Element { tag, .. } = &node.kind else {
                    continue;
                };
                // Leaf field: exactly one child, and it is a text node.
                let [only_child] = node.children.as_slice() else {
                    continue;
                };
                let Some(text) = doc.node(*only_child).text() else {
                    continue;
                };
                let FieldValue::Num(v) = FieldValue::parse(text) else {
                    continue;
                };
                if v.is_nan() {
                    continue;
                }
                let entry = ElemEntry::of_node(doc_id, node_id, node);
                index.by_tag.entry(*tag).or_default().push((v, entry));
            }
        }
        for list in index.by_tag.values_mut() {
            list.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        index
    }

    /// Elements with tag `tag` whose numeric content satisfies `op c`,
    /// sorted by value. Returns owned entries (the matching slice is
    /// usually small).
    pub fn range(&self, tag: SymbolId, op: RangeOp, c: f64) -> Vec<ElemEntry> {
        let list = self.by_tag.get(&tag).map(Vec::as_slice).unwrap_or(&[]);
        let lo = list.partition_point(|(v, _)| *v < c);
        let hi = list.partition_point(|(v, _)| *v <= c);
        let slice = match op {
            RangeOp::Lt => &list[..lo],
            RangeOp::Le => &list[..hi],
            RangeOp::Gt => &list[hi..],
            RangeOp::Ge => &list[lo..],
            RangeOp::Eq => &list[lo..hi],
        };
        slice.iter().map(|(_, e)| *e).collect()
    }

    /// Number of indexed entries for `tag`.
    pub fn count(&self, tag: SymbolId) -> usize {
        self.by_tag.get(&tag).map(Vec::len).unwrap_or(0)
    }

    /// Is anything indexed at all?
    pub fn is_empty(&self) -> bool {
        self.by_tag.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Collection, ValueIndex) {
        let mut c = Collection::new();
        c.add_xml(
            "<dealer><car><price>500</price></car><car><price>2500</price></car>\
             <car><price>1500</price><note>not a number</note></car></dealer>",
        )
        .unwrap();
        let v = ValueIndex::build(&c);
        (c, v)
    }

    #[test]
    fn range_scans() {
        let (c, v) = setup();
        let price = c.tag("price").unwrap();
        assert_eq!(v.count(price), 3);
        assert_eq!(v.range(price, RangeOp::Lt, 2000.0).len(), 2);
        assert_eq!(v.range(price, RangeOp::Le, 1500.0).len(), 2);
        assert_eq!(v.range(price, RangeOp::Gt, 1500.0).len(), 1);
        assert_eq!(v.range(price, RangeOp::Ge, 500.0).len(), 3);
        assert_eq!(v.range(price, RangeOp::Eq, 1500.0).len(), 1);
        assert_eq!(v.range(price, RangeOp::Eq, 999.0).len(), 0);
    }

    #[test]
    fn non_numeric_and_non_leaf_elements_skipped() {
        let (c, v) = setup();
        let note = c.tag("note").unwrap();
        assert_eq!(v.count(note), 0);
        let car = c.tag("car").unwrap();
        assert_eq!(
            v.count(car),
            0,
            "cars have element children, not a single text leaf"
        );
    }

    #[test]
    fn unknown_tag_empty() {
        let (_, v) = setup();
        assert_eq!(v.range(SymbolId(999), RangeOp::Lt, 1.0).len(), 0);
        assert!(!v.is_empty());
    }

    #[test]
    fn currency_and_thousands_values_indexed() {
        let mut c = Collection::new();
        c.add_xml("<a><price>$500</price><mileage>50.000</mileage></a>")
            .unwrap();
        let v = ValueIndex::build(&c);
        let price = c.tag("price").unwrap();
        let mileage = c.tag("mileage").unwrap();
        assert_eq!(v.range(price, RangeOp::Eq, 500.0).len(), 1);
        assert_eq!(v.range(mileage, RangeOp::Eq, 50_000.0).len(), 1);
    }
}
