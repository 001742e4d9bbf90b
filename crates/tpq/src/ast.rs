//! Extended tree pattern queries (TPQs), the paper's query abstraction
//! (§3): a rooted tree whose nodes are labeled with tags, whose edges are
//! parent-child (`pc`) or ancestor-descendant (`ad`) structural predicates,
//! with a distinguished answer node, and with each node optionally carrying
//! constraint predicates (`content relOp const`) and keyword predicates
//! (`ftcontains(., "k")`).

use std::fmt;

/// Index of a node within a [`Tpq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TpqNodeId(pub u32);

/// Structural edge kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `pc`: the child must be a direct child.
    Child,
    /// `ad`: the child must be a proper descendant.
    Descendant,
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::Child => write!(f, "/"),
            Axis::Descendant => write!(f, "//"),
        }
    }
}

/// Tag test on a pattern node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TagTest {
    /// Must equal this tag.
    Name(String),
    /// Wildcard `*`.
    Star,
}

impl TagTest {
    /// The concrete name, if any.
    pub fn name(&self) -> Option<&str> {
        match self {
            TagTest::Name(n) => Some(n),
            TagTest::Star => None,
        }
    }
}

impl fmt::Display for TagTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagTest::Name(n) => write!(f, "{n}"),
            TagTest::Star => write!(f, "*"),
        }
    }
}

/// Comparison operators allowed in constraint predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelOp {
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
    /// `!=`
    Ne,
}

impl RelOp {
    /// Evaluate `lhs op rhs` over floats.
    pub fn eval_num(self, lhs: f64, rhs: f64) -> bool {
        match self {
            RelOp::Lt => lhs < rhs,
            RelOp::Le => lhs <= rhs,
            RelOp::Gt => lhs > rhs,
            RelOp::Ge => lhs >= rhs,
            RelOp::Eq => lhs == rhs,
            RelOp::Ne => lhs != rhs,
        }
    }

    /// The operator with operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> RelOp {
        match self {
            RelOp::Lt => RelOp::Gt,
            RelOp::Le => RelOp::Ge,
            RelOp::Gt => RelOp::Lt,
            RelOp::Ge => RelOp::Le,
            RelOp::Eq => RelOp::Eq,
            RelOp::Ne => RelOp::Ne,
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RelOp::Lt => "<",
            RelOp::Le => "<=",
            RelOp::Gt => ">",
            RelOp::Ge => ">=",
            RelOp::Eq => "=",
            RelOp::Ne => "!=",
        };
        write!(f, "{s}")
    }
}

/// Constant compared against in a constraint predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Numeric constant.
    Num(f64),
    /// String constant.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// A condition attached to a TPQ node (paper §3: constraint predicates on
/// leaf content and keyword predicates at any depth).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `content relOp value` — a hard constraint on the node's own content.
    Compare {
        /// Comparison operator.
        op: RelOp,
        /// Right-hand constant.
        value: Value,
    },
    /// `ftcontains(., "phrase")` — the node's subtree contains the phrase.
    FtContains {
        /// Raw phrase as written in the query.
        phrase: String,
    },
    /// `ftall(., "t1", "t2", … [window N] [ordered])` — the node's subtree
    /// contains an occurrence of **every** term, optionally within a token
    /// window and optionally in the listed order. These are the proximity
    /// and order full-text predicates of XQuery Full-Text that the paper's
    /// query class includes (§3).
    FtAll {
        /// The terms (each itself a word or phrase).
        terms: Vec<String>,
        /// Maximum token span covering one occurrence of each term.
        window: Option<u32>,
        /// Occurrences must appear in the listed order.
        ordered: bool,
    },
}

impl Predicate {
    /// Convenience constructor for keyword predicates.
    pub fn ft(phrase: impl Into<String>) -> Predicate {
        Predicate::FtContains {
            phrase: phrase.into(),
        }
    }

    /// Convenience constructor for numeric comparisons.
    pub fn cmp_num(op: RelOp, n: f64) -> Predicate {
        Predicate::Compare {
            op,
            value: Value::Num(n),
        }
    }

    /// Convenience constructor for string comparisons.
    pub fn cmp_str(op: RelOp, s: impl Into<String>) -> Predicate {
        Predicate::Compare {
            op,
            value: Value::Str(s.into()),
        }
    }

    /// Convenience constructor for proximity/order predicates.
    pub fn ft_all(terms: &[&str], window: Option<u32>, ordered: bool) -> Predicate {
        Predicate::FtAll {
            terms: terms.iter().map(|t| t.to_string()).collect(),
            window,
            ordered,
        }
    }

    /// Is this a keyword predicate (a score contributor)?
    pub fn is_keyword(&self) -> bool {
        matches!(self, Predicate::FtContains { .. } | Predicate::FtAll { .. })
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Compare { op, value } => write!(f, ". {op} {value}"),
            Predicate::FtContains { phrase } => write!(f, "ftcontains(., {phrase:?})"),
            Predicate::FtAll {
                terms,
                window,
                ordered,
            } => {
                write!(f, "ftall(.")?;
                for t in terms {
                    write!(f, ", {t:?}")?;
                }
                if let Some(w) = window {
                    write!(f, " window {w}")?;
                }
                if *ordered {
                    write!(f, " ordered")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// One node of a tree pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct TpqNode {
    /// Tag test.
    pub tag: TagTest,
    /// Axis of the edge from this node's parent (ignored on the root, where
    /// it describes how the root anchors to the document: `Child` = must be
    /// the document root element, `Descendant` = anywhere).
    pub axis: Axis,
    /// Parent node, `None` for the root.
    pub parent: Option<TpqNodeId>,
    /// Children in insertion order.
    pub children: Vec<TpqNodeId>,
    /// Conjunction of predicates on this node.
    pub predicates: Vec<Predicate>,
}

/// An extended tree pattern query.
#[derive(Debug, Clone, PartialEq)]
pub struct Tpq {
    nodes: Vec<TpqNode>,
    distinguished: TpqNodeId,
}

impl Tpq {
    /// Create a single-node pattern. `axis` anchors the root to the
    /// document (`Descendant` for the common `//tag` form).
    pub fn new(tag: impl Into<String>, axis: Axis) -> Self {
        let root = TpqNode {
            tag: TagTest::Name(tag.into()),
            axis,
            parent: None,
            children: Vec::new(),
            predicates: Vec::new(),
        };
        Tpq {
            nodes: vec![root],
            distinguished: TpqNodeId(0),
        }
    }

    /// Create a single-node star pattern.
    pub fn star(axis: Axis) -> Self {
        let mut t = Tpq::new("*", axis);
        t.nodes[0].tag = TagTest::Star;
        t
    }

    /// Root node id (always 0).
    pub fn root(&self) -> TpqNodeId {
        TpqNodeId(0)
    }

    /// The distinguished (answer) node.
    pub fn distinguished(&self) -> TpqNodeId {
        self.distinguished
    }

    /// Mark `id` as the distinguished node.
    pub fn set_distinguished(&mut self, id: TpqNodeId) {
        assert!((id.0 as usize) < self.nodes.len(), "node out of range");
        self.distinguished = id;
    }

    /// Borrow a node.
    pub fn node(&self, id: TpqNodeId) -> &TpqNode {
        &self.nodes[id.0 as usize]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, id: TpqNodeId) -> &mut TpqNode {
        &mut self.nodes[id.0 as usize]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A pattern always has at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate all node ids (root first, insertion order).
    pub fn node_ids(&self) -> impl Iterator<Item = TpqNodeId> {
        (0..self.nodes.len() as u32).map(TpqNodeId)
    }

    /// Add a child with the given tag under `parent`, returning its id.
    /// The tag `"*"` creates a wildcard node.
    pub fn add_child(
        &mut self,
        parent: TpqNodeId,
        axis: Axis,
        tag: impl Into<String>,
    ) -> TpqNodeId {
        let id = TpqNodeId(self.nodes.len() as u32);
        let tag = tag.into();
        let tag = if tag == "*" {
            TagTest::Star
        } else {
            TagTest::Name(tag)
        };
        self.nodes.push(TpqNode {
            tag,
            axis,
            parent: Some(parent),
            children: Vec::new(),
            predicates: Vec::new(),
        });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Attach a predicate to `node`.
    pub fn add_predicate(&mut self, node: TpqNodeId, pred: Predicate) {
        self.nodes[node.0 as usize].predicates.push(pred);
    }

    /// First node (in id order) whose tag test equals `tag`, if any.
    pub fn find_by_tag(&self, tag: &str) -> Option<TpqNodeId> {
        self.node_ids()
            .find(|&id| self.node(id).tag.name() == Some(tag))
    }

    /// All nodes whose tag test equals `tag`.
    pub fn find_all_by_tag(&self, tag: &str) -> Vec<TpqNodeId> {
        self.node_ids()
            .filter(|&id| self.node(id).tag.name() == Some(tag))
            .collect()
    }

    /// Remove the predicate at `index` on `node`, returning it.
    pub fn remove_predicate(&mut self, node: TpqNodeId, index: usize) -> Predicate {
        self.nodes[node.0 as usize].predicates.remove(index)
    }

    /// Remove a leaf node (panics if `id` has children or is the root).
    /// The distinguished node is re-pointed at the parent if it was `id`.
    /// Node ids of remaining nodes are preserved via tombstoning-free
    /// compaction: ids after `id` shift down by one.
    pub fn remove_leaf(&mut self, id: TpqNodeId) {
        assert!(id.0 != 0, "cannot remove the root");
        assert!(self.node(id).children.is_empty(), "can only remove leaves");
        let parent = self.node(id).parent.expect("non-root has a parent");
        if self.distinguished == id {
            self.distinguished = parent;
        }
        let pkids = &mut self.nodes[parent.0 as usize].children;
        pkids.retain(|&k| k != id);
        self.nodes.remove(id.0 as usize);
        // Compact ids: every id greater than the removed one shifts down.
        let shift = |x: &mut TpqNodeId| {
            if x.0 > id.0 {
                x.0 -= 1;
            }
        };
        for n in &mut self.nodes {
            if let Some(p) = &mut n.parent {
                shift(p);
            }
            for c in &mut n.children {
                shift(c);
            }
        }
        shift(&mut self.distinguished);
    }

    /// Proper descendants of `id` in the pattern tree.
    pub fn descendants(&self, id: TpqNodeId) -> Vec<TpqNodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<TpqNodeId> = self.node(id).children.clone();
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.node(n).children.iter().copied());
        }
        out
    }

    /// A canonical string key: children sorted recursively, predicates
    /// sorted textually. Two patterns with the same key are syntactically
    /// identical up to sibling order — used to deduplicate query flocks.
    pub fn canonical_key(&self) -> String {
        fn rec(t: &Tpq, id: TpqNodeId, out: &mut String) {
            let n = t.node(id);
            out.push_str(&n.axis.to_string());
            out.push_str(&n.tag.to_string());
            if id == t.distinguished() {
                out.push('!');
            }
            let mut preds: Vec<String> = n.predicates.iter().map(|p| p.to_string()).collect();
            preds.sort();
            for p in preds {
                out.push('[');
                out.push_str(&p);
                out.push(']');
            }
            let mut kids: Vec<String> = n
                .children
                .iter()
                .map(|&c| {
                    let mut s = String::new();
                    rec(t, c, &mut s);
                    s
                })
                .collect();
            kids.sort();
            if !kids.is_empty() {
                out.push('(');
                out.push_str(&kids.join(","));
                out.push(')');
            }
        }
        let mut s = String::new();
        rec(self, self.root(), &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn car_query() -> Tpq {
        // //car[description[ftcontains "good condition" and "low mileage"] and price < 2000]
        let mut q = Tpq::new("car", Axis::Descendant);
        let d = q.add_child(q.root(), Axis::Child, "description");
        q.add_predicate(d, Predicate::ft("good condition"));
        q.add_predicate(d, Predicate::ft("low mileage"));
        let p = q.add_child(q.root(), Axis::Child, "price");
        q.add_predicate(p, Predicate::cmp_num(RelOp::Lt, 2000.0));
        q
    }

    #[test]
    fn build_running_example() {
        let q = car_query();
        assert_eq!(q.len(), 3);
        assert_eq!(q.distinguished(), q.root());
        let d = q.find_by_tag("description").unwrap();
        assert_eq!(q.node(d).predicates.len(), 2);
        assert_eq!(q.node(d).axis, Axis::Child);
    }

    #[test]
    fn remove_leaf_compacts_ids() {
        let mut q = car_query();
        let d = q.find_by_tag("description").unwrap();
        q.remove_leaf(d);
        assert_eq!(q.len(), 2);
        let p = q.find_by_tag("price").unwrap();
        assert_eq!(q.node(p).parent, Some(q.root()));
        assert_eq!(q.node(q.root()).children, vec![p]);
    }

    #[test]
    fn remove_leaf_repoints_distinguished() {
        let mut q = Tpq::new("a", Axis::Descendant);
        let b = q.add_child(q.root(), Axis::Child, "b");
        q.set_distinguished(b);
        q.remove_leaf(b);
        assert_eq!(q.distinguished(), q.root());
    }

    #[test]
    #[should_panic(expected = "root")]
    fn cannot_remove_root() {
        let mut q = Tpq::new("a", Axis::Descendant);
        q.remove_leaf(q.root());
    }

    #[test]
    #[should_panic(expected = "leaves")]
    fn cannot_remove_internal_node() {
        let mut q = Tpq::new("a", Axis::Descendant);
        let b = q.add_child(q.root(), Axis::Child, "b");
        q.add_child(b, Axis::Child, "c");
        q.remove_leaf(b);
    }

    #[test]
    fn canonical_key_ignores_sibling_order() {
        let mut q1 = Tpq::new("a", Axis::Descendant);
        q1.add_child(q1.root(), Axis::Child, "b");
        q1.add_child(q1.root(), Axis::Child, "c");
        let mut q2 = Tpq::new("a", Axis::Descendant);
        q2.add_child(q2.root(), Axis::Child, "c");
        q2.add_child(q2.root(), Axis::Child, "b");
        assert_eq!(q1.canonical_key(), q2.canonical_key());
    }

    #[test]
    fn canonical_key_distinguishes_axis_and_preds() {
        let mut q1 = Tpq::new("a", Axis::Descendant);
        q1.add_child(q1.root(), Axis::Child, "b");
        let mut q2 = Tpq::new("a", Axis::Descendant);
        q2.add_child(q2.root(), Axis::Descendant, "b");
        assert_ne!(q1.canonical_key(), q2.canonical_key());
        let mut q3 = q1.clone();
        let b = q3.find_by_tag("b").unwrap();
        q3.add_predicate(b, Predicate::ft("x"));
        assert_ne!(q1.canonical_key(), q3.canonical_key());
    }

    #[test]
    fn canonical_key_tracks_distinguished() {
        let mut q1 = Tpq::new("a", Axis::Descendant);
        let b1 = q1.add_child(q1.root(), Axis::Child, "b");
        let mut q2 = q1.clone();
        q2.set_distinguished(b1);
        assert_ne!(q1.canonical_key(), q2.canonical_key());
    }

    #[test]
    fn relop_eval_and_flip() {
        assert!(RelOp::Lt.eval_num(1.0, 2.0));
        assert!(!RelOp::Lt.eval_num(2.0, 2.0));
        assert!(RelOp::Le.eval_num(2.0, 2.0));
        assert!(RelOp::Ne.eval_num(1.0, 2.0));
        assert_eq!(RelOp::Lt.flip(), RelOp::Gt);
    }

    #[test]
    fn descendants_listing() {
        let mut q = Tpq::new("a", Axis::Descendant);
        let b = q.add_child(q.root(), Axis::Child, "b");
        let c = q.add_child(b, Axis::Descendant, "c");
        let d = q.add_child(q.root(), Axis::Child, "d");
        let mut descs = q.descendants(q.root());
        descs.sort();
        assert_eq!(descs, vec![b, c, d]);
        assert_eq!(q.descendants(c), vec![]);
    }
}
