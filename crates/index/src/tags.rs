//! Per-tag element index: "an index per distinct tag" (paper §6.4).
//!
//! [`TagIndex`] maps each tag to its elements in `(doc, start)` order —
//! the input streams of the structural joins, which binary-search them by
//! document and region. It is produced exactly once, by
//! [`TagIndex::build`] or by [`crate::columnar::open_index`] decoding the
//! `tags` section of a `PIMCOL4` snapshot into the same map, and never
//! mutated afterwards.

use crate::store::{Collection, DocId, ElemRef};
use pimento_xml::{NodeId, NodeKind, SymbolId};
use std::collections::HashMap;

/// An element occurrence with its region label, the unit the structural
/// joins in `pimento-algebra` operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElemEntry {
    /// Owning document.
    pub doc: DocId,
    /// The element node.
    pub node: NodeId,
    /// Region start label.
    pub start: u32,
    /// Region end label.
    pub end: u32,
    /// Depth (root element = 1).
    pub level: u16,
}

impl ElemEntry {
    /// The entry of element node `node_id` (`node`) of document `doc`.
    pub(crate) fn of_node(doc: DocId, node_id: NodeId, node: &pimento_xml::Node) -> Self {
        ElemEntry {
            doc,
            node: node_id,
            start: node.start,
            end: node.end,
            level: node.level,
        }
    }

    /// Collection-wide address of this element.
    pub fn elem_ref(&self) -> ElemRef {
        ElemRef {
            doc: self.doc,
            node: self.node,
        }
    }

    /// True iff `self` is a proper ancestor of `other` (same document).
    pub fn is_ancestor_of(&self, other: &ElemEntry) -> bool {
        self.doc == other.doc && self.start < other.start && other.end < self.end
    }

    /// True iff `self` is the parent of `other` (ancestor one level up).
    pub fn is_parent_of(&self, other: &ElemEntry) -> bool {
        self.is_ancestor_of(other) && self.level + 1 == other.level
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
                    let entry = ElemEntry::of_node(doc_id, node_id, node);
                    index.by_tag.entry(*tag).or_default().push(entry);
                }
            }
        }
        index
    }

    /// All elements with tag `tag`, sorted by `(doc, start)`.
    pub fn elements(&self, tag: SymbolId) -> &[ElemEntry] {
        self.by_tag.get(&tag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Elements with tag `tag` inside document `doc`.
    pub fn doc_elements(&self, tag: SymbolId, doc: DocId) -> &[ElemEntry] {
        let all = self.elements(tag);
        let lo = all.partition_point(|e| e.doc < doc);
        let hi = all.partition_point(|e| e.doc <= doc);
        all.get(lo..hi).unwrap_or(&[])
    }

    /// Elements with tag `tag` whose region lies strictly inside
    /// `(doc, start, end)` — the descendants step of a structural join.
    pub fn elements_within(&self, tag: SymbolId, doc: DocId, start: u32, end: u32) -> &[ElemEntry] {
        let in_doc = self.doc_elements(tag, doc);
        let lo = in_doc.partition_point(|e| e.start <= start);
        let hi = in_doc.partition_point(|e| e.start < end);
        // Entries in [lo, hi) start inside the region; starting inside a
        // well-nested region implies ending inside it.
        in_doc.get(lo..hi).unwrap_or(&[])
    }

    /// Number of distinct tags.
    pub fn num_tags(&self) -> usize {
        self.by_tag.len()
    }

    /// Total element count for `tag` (0 when absent).
    pub fn count(&self, tag: SymbolId) -> usize {
        self.elements(tag).len()
    }
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
        assert_eq!(t.num_tags(), 3);
    }

    #[test]
    fn doc_elements_slice() {
        let (c, t) = setup();
        let car = c.tag("car").unwrap();
        assert_eq!(t.doc_elements(car, DocId(0)).len(), 2);
        assert_eq!(t.doc_elements(car, DocId(1)).len(), 1);
    }

    #[test]
    fn elements_within_region() {
        let (c, t) = setup();
        let car = c.tag("car").unwrap();
        let price = c.tag("price").unwrap();
        let first_car = t.doc_elements(car, DocId(0))[0];
        let prices = t.elements_within(price, DocId(0), first_car.start, first_car.end);
        assert_eq!(prices.len(), 1);
        assert!(first_car.is_ancestor_of(&prices[0]));
        assert!(first_car.is_parent_of(&prices[0]));
    }

    #[test]
    fn ancestor_parent_predicates() {
        let (c, t) = setup();
        let dealer = c.tag("dealer").unwrap();
        let price = c.tag("price").unwrap();
        let d = t.doc_elements(dealer, DocId(0))[0];
        let p = t.doc_elements(price, DocId(0))[0];
        assert!(d.is_ancestor_of(&p));
        assert!(!d.is_parent_of(&p)); // two levels apart
        assert!(!p.is_ancestor_of(&d));
        // cross-document never related
        let d1 = t.doc_elements(dealer, DocId(1))[0];
        assert!(!d1.is_ancestor_of(&p));
    }

    #[test]
    fn unknown_tag_is_empty() {
        let (_, t) = setup();
        assert!(t.elements(SymbolId(999)).is_empty());
    }
}
