//! Per-tag element index: "an index per distinct tag" (paper §6.4).
//!
//! [`TagIndex`] maps each tag to its elements in `(doc, start)` order —
//! the candidate list of the bottom scan, and the lists the matcher
//! [`seek`]s through by document and region to bind a pattern node below
//! a candidate. It is produced exactly once, by
//! [`TagIndex::build`] or by [`crate::columnar::open_index`] decoding the
//! `tags` section of a `PIMCOL4` snapshot into the same map, and never
//! mutated afterwards.

use crate::seek::seek;
use crate::store::{Collection, DocId, ElemRef};
use pimento_xml::{NodeId, NodeKind, SymbolId};
use std::collections::HashMap;

/// An element occurrence with its tag and region label, the unit the
/// candidate scan and the matcher in `pimento-algebra` operate on: enough
/// to test a tag and a containment without reading the node arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElemEntry {
    /// Owning document.
    pub doc: DocId,
    /// The element node.
    pub node: NodeId,
    /// The element's tag.
    pub tag: SymbolId,
    /// Region start label.
    pub start: u32,
    /// Region end label.
    pub end: u32,
    /// Depth (root element = 1).
    pub level: u16,
}

impl ElemEntry {
    /// Collection-wide address of this element.
    pub fn elem_ref(&self) -> ElemRef {
        ElemRef {
            doc: self.doc,
            node: self.node,
        }
    }
}

/// tag → all elements with that tag, sorted by `(doc, start)`. Tags with
/// no elements have no entry.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TagIndex {
    pub(crate) by_tag: HashMap<SymbolId, Vec<ElemEntry>>,
}

impl TagIndex {
    /// Scan every document of `coll` and index its elements.
    pub fn build(coll: &Collection) -> Self {
        let mut index = TagIndex::default();
        // Documents arrive in id order and nodes in document order, which
        // keeps every per-tag list `(doc, start)`-sorted.
        for (doc_id, doc) in coll.iter() {
            for node_id in doc.node_ids() {
                let node = doc.node(node_id);
                if let NodeKind::Element { tag, .. } = &node.kind {
                    index.by_tag.entry(*tag).or_default().push(ElemEntry {
                        doc: doc_id,
                        node: node_id,
                        tag: *tag,
                        start: node.start,
                        end: node.end,
                        level: node.level,
                    });
                }
            }
        }
        index
    }

    /// All elements with tag `tag`, sorted by `(doc, start)`.
    pub fn elements(&self, tag: SymbolId) -> &[ElemEntry] {
        self.by_tag.get(&tag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Elements with tag `tag` whose region lies strictly inside
    /// `(doc, start, end)` — the descendant step of the matcher.
    pub fn elements_within(&self, tag: SymbolId, doc: DocId, start: u32, end: u32) -> &[ElemEntry] {
        within(self.elements(tag), &mut 0, doc, start, end)
    }
    /// Total element count for `tag` (0 when absent).
    pub fn count(&self, tag: SymbolId) -> usize {
        self.elements(tag).len()
    }
}

/// The entries of the `(doc, start)`-sorted `list` whose region lies
/// strictly inside `(doc, start, end)`, found by [`seek`]ing from `*at`,
/// which is left on the first of them — where the next region of a
/// caller walking in document order starts its search.
pub fn within<'a>(
    list: &'a [ElemEntry],
    at: &mut usize,
    doc: DocId,
    start: u32,
    end: u32,
) -> &'a [ElemEntry] {
    let lo = seek(list, *at, |e| (e.doc, e.start) <= (doc, start));
    // Entries from `lo` on start after the region does, so the ones that
    // start before it ends are inside it: regions are well nested.
    let hi = seek(list, lo, |e| (e.doc, e.start) < (doc, end));
    *at = lo;
    list.get(lo..hi).unwrap_or(&[])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Collection, TagIndex) {
        let mut c = Collection::new();
        c.add_xml("<dealer><car><price>1</price></car><car><price>2</price></car></dealer>")
            .unwrap();
        c.add_xml("<dealer><car/></dealer>").unwrap();
        let t = TagIndex::build(&c);
        (c, t)
    }

    #[test]
    fn counts_per_tag() {
        let (c, t) = setup();
        assert_eq!(t.count(c.tag("car").unwrap()), 3);
        assert_eq!(t.count(c.tag("price").unwrap()), 2);
        assert_eq!(t.count(c.tag("dealer").unwrap()), 2);
        assert_eq!(t.by_tag.len(), 3);
    }

    #[test]
    fn entries_carry_their_tag() {
        let (c, t) = setup();
        for name in ["car", "price", "dealer"] {
            let sym = c.tag(name).unwrap();
            assert!(t.elements(sym).iter().all(|e| e.tag == sym));
        }
    }

    #[test]
    fn elements_within_region() {
        let (c, t) = setup();
        let car = c.tag("car").unwrap();
        let price = c.tag("price").unwrap();
        let dealer = c.tag("dealer").unwrap();
        let second_dealer = t.elements(dealer)[1];
        let cars = t.elements_within(car, DocId(1), second_dealer.start, second_dealer.end);
        assert_eq!(cars.len(), 1);
        assert_eq!(cars[0].doc, DocId(1));
        let first_car = t.elements(car)[0];
        let prices = t.elements_within(price, DocId(0), first_car.start, first_car.end);
        assert_eq!(prices.len(), 1);
        assert!(first_car.start < prices[0].start && prices[0].end < first_car.end);
        assert_eq!(prices[0].level, first_car.level + 1);
    }

    #[test]
    fn within_moves_a_held_position_both_ways() {
        let (c, t) = setup();
        let car = c.tag("car").unwrap();
        let cars = t.elements(car);
        let dealers = t.elements(c.tag("dealer").unwrap());
        let mut at = 0;
        // Forward to the second document, then back to the first.
        for (d, want) in [(1, 1), (0, 2), (1, 1)] {
            let r = dealers[d];
            let got = within(cars, &mut at, r.doc, r.start, r.end);
            assert_eq!(got.len(), want);
            assert_eq!(got, t.elements_within(car, r.doc, r.start, r.end));
            assert_eq!(at, cars.iter().position(|e| e.doc == r.doc).unwrap());
        }
    }

    #[test]
    fn unknown_tag_is_empty() {
        let (_, t) = setup();
        assert!(t.elements(SymbolId(999)).is_empty());
    }
}
