//! Arena-backed document tree with region/level labeling.
//!
//! Every node carries a `(start, end, level)` **region label** assigned in
//! document order: an element spans the labels of everything inside it, so
//! structural relationships reduce to integer comparisons —
//! `a` is an ancestor of `b` iff `a.start < b.start && b.end < a.end`, and
//! parent/child additionally requires `a.level + 1 == b.level`. This is the
//! classical region encoding used by structural join algorithms, and it is
//! what makes `ftcontains` containment checks and the descendant steps of
//! the matcher in `pimento-algebra` cheap.

use std::fmt;

// The interner lives in `pimento-sym` so non-XML layers (profiles, the
// query algebra) can depend on symbols without pulling in the XML
// substrate; re-exported here because documents are where ids originate.
pub use pimento_sym::{SymbolId, SymbolTable};

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What kind of node this is.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// An element with a tag name and attributes.
    Element {
        /// Interned tag name.
        tag: SymbolId,
        /// Attributes in source order.
        attrs: Box<[(SymbolId, String)]>,
    },
    /// A text node.
    Text(String),
    /// A comment (kept so serialization can round-trip).
    Comment(String),
}

/// One node of the arena.
#[derive(Debug, Clone)]
pub struct Node {
    /// Payload.
    pub kind: NodeKind,
    /// Parent node, `None` for the root element.
    pub parent: Option<NodeId>,
    /// Children in document order (empty for text/comment nodes).
    pub children: Vec<NodeId>,
    /// Region start label.
    pub start: u32,
    /// Region end label (== `start` for text/comment nodes).
    pub end: u32,
    /// Depth; the root element has level 1.
    pub level: u16,
}

impl Node {
    /// Tag symbol if this is an element.
    pub fn tag(&self) -> Option<SymbolId> {
        match &self.kind {
            NodeKind::Element { tag, .. } => Some(*tag),
            _ => None,
        }
    }

    /// Attribute value by symbol, if this is an element carrying it.
    pub fn attr(&self, name: SymbolId) -> Option<&str> {
        match &self.kind {
            NodeKind::Element { attrs, .. } => attrs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.as_str()),
            _ => None,
        }
    }

    /// Text payload if this is a text node.
    pub fn text(&self) -> Option<&str> {
        match &self.kind {
            NodeKind::Text(t) => Some(t),
            _ => None,
        }
    }

    /// True when `self`'s region strictly contains `other`'s.
    pub fn contains(&self, other: &Node) -> bool {
        self.start < other.start && other.end < self.end
    }
}

/// A parsed XML document: an arena of nodes rooted at [`Document::root`].
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    root: NodeId,
}

impl Document {
    /// Construct from a prebuilt arena. `root` must index into `nodes`.
    pub(crate) fn from_arena(nodes: Vec<Node>, root: NodeId) -> Self {
        debug_assert!((root.0 as usize) < nodes.len());
        Document { nodes, root }
    }

    /// Reconstruct a document from raw parts (deserialization). Validates
    /// basic arena invariants: ids in range, children consistent with
    /// parents, root has no parent.
    pub fn from_parts(nodes: Vec<Node>, root: NodeId) -> Result<Self, &'static str> {
        if nodes.is_empty() {
            return Err("empty arena");
        }
        let n = nodes.len() as u32;
        if root.0 >= n {
            return Err("root out of range");
        }
        if nodes[root.0 as usize].parent.is_some() {
            return Err("root must have no parent");
        }
        for (i, node) in nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                if p.0 >= n {
                    return Err("parent out of range");
                }
                if !nodes[p.0 as usize].children.contains(&NodeId(i as u32)) {
                    return Err("parent/children inconsistent");
                }
            }
            for &c in &node.children {
                if c.0 >= n {
                    return Err("child out of range");
                }
                if nodes[c.0 as usize].parent != Some(NodeId(i as u32)) {
                    return Err("child parent mismatch");
                }
            }
            if node.start > node.end {
                return Err("inverted region");
            }
        }
        Ok(Document { nodes, root })
    }

    /// Borrow the raw arena (serialization).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Rewrite every symbol id through `map` (index = old id) — used when
    /// merging documents parsed against different symbol tables. The map
    /// must cover every id the document uses.
    pub fn remap_symbols(&mut self, map: &[SymbolId]) {
        for node in &mut self.nodes {
            if let NodeKind::Element { tag, attrs } = &mut node.kind {
                *tag = map[tag.0 as usize];
                for (a, _) in attrs.iter_mut() {
                    *a = map[a.0 as usize];
                }
            }
        }
    }

    /// The root element.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document is empty (never true for parsed documents).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate over all node ids in arena (document) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Concatenated text content of the subtree rooted at `id`, with single
    /// spaces joining adjacent text nodes.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        let n = self.node(id);
        match &n.kind {
            NodeKind::Text(t) => {
                let trimmed = t.trim();
                if !trimmed.is_empty() {
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(trimmed);
                }
            }
            NodeKind::Element { .. } => {
                for &c in &n.children {
                    self.collect_text(c, out);
                }
            }
            NodeKind::Comment(_) => {}
        }
    }

    /// First child element of `id` with tag `tag`.
    pub fn child_element(&self, id: NodeId, tag: SymbolId) -> Option<NodeId> {
        self.node(id)
            .children
            .iter()
            .copied()
            .find(|&c| self.node(c).tag() == Some(tag))
    }

    /// All element descendants of `id` (not including `id`), document order.
    pub fn descendant_elements(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.node(id).children.iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            if matches!(self.node(n).kind, NodeKind::Element { .. }) {
                out.push(n);
            }
            for &c in self.node(n).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_with;

    #[test]
    fn symbol_table_interning_is_stable() {
        let mut st = SymbolTable::new();
        let a = st.intern("car");
        let b = st.intern("price");
        let a2 = st.intern("car");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(st.name(a), "car");
        assert_eq!(st.get("price"), Some(b));
        assert_eq!(st.get("absent"), None);
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn region_labels_nest() {
        let mut st = SymbolTable::new();
        let doc = parse_with("<a><b><c/></b><d/></a>", &mut st).unwrap();
        let a = doc.root();
        let b = doc.node(a).children[0];
        let c = doc.node(b).children[0];
        let d = doc.node(a).children[1];
        let inside = |anc: NodeId, desc: NodeId| doc.node(anc).contains(doc.node(desc));
        assert!(inside(a, b));
        assert!(inside(a, c));
        assert!(inside(b, c));
        assert!(!inside(b, d));
        assert!(!inside(c, a));
        assert_eq!(doc.node(b).parent, Some(a));
        assert_eq!(doc.node(c).parent, Some(b));
        assert_eq!(doc.node(a).level, 1);
        assert_eq!(doc.node(b).level, 2);
        assert_eq!(doc.node(c).level, 3);
    }

    #[test]
    fn text_content_joins_and_trims() {
        let mut st = SymbolTable::new();
        let doc = parse_with("<a> hello <b>brave</b> world </a>", &mut st).unwrap();
        assert_eq!(doc.text_content(doc.root()), "hello brave world");
    }

    #[test]
    fn child_element_lookup() {
        let mut st = SymbolTable::new();
        let doc = parse_with("<car><color>red</color><price>500</price></car>", &mut st).unwrap();
        let color = st.get("color").unwrap();
        let price = st.get("price").unwrap();
        let c = doc.child_element(doc.root(), color).unwrap();
        assert_eq!(doc.text_content(c), "red");
        assert!(doc.child_element(doc.root(), price).is_some());
    }

    #[test]
    fn descendant_elements_document_order() {
        let mut st = SymbolTable::new();
        let doc = parse_with("<a><b><c/></b><d/></a>", &mut st).unwrap();
        let descs = doc.descendant_elements(doc.root());
        let tags: Vec<&str> = descs
            .iter()
            .map(|&n| st.name(doc.node(n).tag().unwrap()))
            .collect();
        assert_eq!(tags, ["b", "c", "d"]);
    }

    #[test]
    fn attr_access() {
        let mut st = SymbolTable::new();
        let doc = parse_with(r#"<car color="red"/>"#, &mut st).unwrap();
        let color = st.get("color").unwrap();
        assert_eq!(doc.node(doc.root()).attr(color), Some("red"));
    }
}

#[cfg(test)]
mod remap_tests {
    use super::*;
    use crate::parser::parse_with;
    use crate::writer::to_string;

    #[test]
    fn remap_symbols_rewrites_tags_and_attrs() {
        let mut local = SymbolTable::new();
        let mut doc = parse_with(r#"<car color="red"><price>5</price></car>"#, &mut local).unwrap();
        // Shared table with different id assignment.
        let mut shared = SymbolTable::new();
        shared.intern("unrelated");
        let mapping: Vec<SymbolId> = (0..local.len() as u32)
            .map(|i| shared.intern(local.name(SymbolId(i))))
            .collect();
        doc.remap_symbols(&mapping);
        assert_eq!(
            to_string(&doc, &shared),
            r#"<car color="red"><price>5</price></car>"#
        );
        let car = shared.get("car").unwrap();
        assert_eq!(doc.node(doc.root()).tag(), Some(car));
    }
}
