//! Per-tag element index: "an index per distinct tag" (paper §6.4).
//!
//! [`TagIndex`] maps each tag to its elements in `(doc, start)` order —
//! the candidate list of the bottom scan, and the lists the matcher
//! binary-searches by document and region to bind a pattern node below a
//! candidate. It is produced exactly once, by
//! [`TagIndex::build`] or by [`crate::columnar::open_index`] decoding the
//! `tags` section of a `PIMCOL4` snapshot into the same map, and never
//! mutated afterwards.

use crate::store::{Collection, DocId, ElemRef};
use pimento_xml::{NodeId, NodeKind, SymbolId};
use std::collections::HashMap;

/// An element occurrence with its region label, the unit the candidate
/// scan and the matcher in `pimento-algebra` operate on.
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

    /// Elements with tag `tag` inside document `doc`.
    pub fn doc_elements(&self, tag: SymbolId, doc: DocId) -> &[ElemEntry] {
        let all = self.elements(tag);
        let lo = all.partition_point(|e| e.doc < doc);
        let hi = all.partition_point(|e| e.doc <= doc);
        all.get(lo..hi).unwrap_or(&[])
    }

    /// Elements with tag `tag` whose region lies strictly inside
    /// `(doc, start, end)` — the descendant step of the matcher.
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
        assert!(first_car.start < prices[0].start && prices[0].end < first_car.end);
        assert_eq!(prices[0].level, first_car.level + 1);
    }

    #[test]
    fn unknown_tag_is_empty() {
        let (_, t) = setup();
        assert!(t.elements(SymbolId(999)).is_empty());
    }
}
