//! Axis navigation helpers over a [`Document`].
//!
//! These are thin iterators used by tests, the field resolver, and the data
//! generators; the query engine itself goes through the indexes in
//! `pimento-index` instead.

use crate::tree::{Document, NodeId, NodeKind, SymbolId};

/// Child elements of `id`, in document order.
pub fn child_elements<'d>(doc: &'d Document, id: NodeId) -> impl Iterator<Item = NodeId> + 'd {
    doc.node(id)
        .children
        .iter()
        .copied()
        .filter(move |&c| matches!(doc.node(c).kind, NodeKind::Element { .. }))
}

/// Child elements of `id` with tag `tag`.
pub fn children_with_tag<'d>(
    doc: &'d Document,
    id: NodeId,
    tag: SymbolId,
) -> impl Iterator<Item = NodeId> + 'd {
    child_elements(doc, id).filter(move |&c| doc.node(c).tag() == Some(tag))
}

/// Proper ancestors of `id`, nearest first.
pub fn ancestors<'d>(doc: &'d Document, id: NodeId) -> impl Iterator<Item = NodeId> + 'd {
    std::iter::successors(doc.node(id).parent, move |&p| doc.node(p).parent)
}

/// The nearest ancestor (or self) of `id` with tag `tag`.
pub fn ancestor_or_self_with_tag(doc: &Document, id: NodeId, tag: SymbolId) -> Option<NodeId> {
    if doc.node(id).tag() == Some(tag) {
        return Some(id);
    }
    ancestors(doc, id).find(|&a| doc.node(a).tag() == Some(tag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_with;
    use crate::tree::SymbolTable;

    fn doc() -> (Document, SymbolTable) {
        let mut st = SymbolTable::new();
        let d = parse_with(
            "<dealer><car><price>1</price><color>red</color></car><car><price>2</price></car></dealer>",
            &mut st,
        )
        .unwrap();
        (d, st)
    }

    /// The first descendant element of the root with tag `name`.
    fn first(d: &Document, st: &SymbolTable, name: &str) -> NodeId {
        let tag = st.get(name).unwrap();
        d.descendant_elements(d.root())
            .into_iter()
            .find(|&n| d.node(n).tag() == Some(tag))
            .unwrap()
    }

    #[test]
    fn children_with_tag_filters() {
        let (d, st) = doc();
        let car = st.get("car").unwrap();
        assert_eq!(children_with_tag(&d, d.root(), car).count(), 2);
        let price = st.get("price").unwrap();
        assert_eq!(children_with_tag(&d, d.root(), price).count(), 0);
    }

    #[test]
    fn ancestors_walk_to_root() {
        let (d, st) = doc();
        let p = first(&d, &st, "price");
        let chain: Vec<NodeId> = ancestors(&d, p).collect();
        assert_eq!(chain.len(), 2); // car, dealer
        assert_eq!(chain[1], d.root());
    }

    #[test]
    fn ancestor_or_self_with_tag_works() {
        let (d, st) = doc();
        let car = st.get("car").unwrap();
        let color = st.get("color").unwrap();
        let c = first(&d, &st, "color");
        let found = ancestor_or_self_with_tag(&d, c, car).unwrap();
        assert_eq!(d.node(found).tag(), Some(car));
        // self case
        assert_eq!(ancestor_or_self_with_tag(&d, c, color), Some(c));
    }
}
