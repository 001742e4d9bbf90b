//! Scoping rules (SRs), paper §3.1: `add` / `delete` / `replace` rewritings
//! guarded by a condition the query must subsume.
//!
//! Conditions and conclusions are conjunctions of **atoms** over element
//! tags — exactly the vocabulary of the paper's Fig. 2 rules:
//! `pc(car, description)`, `ftcontains(description, "low mileage")`,
//! `cmp(price, <, 2000)`. The condition is *subsumed by* the query when the
//! query's pattern satisfies each atom (its structure and predicates imply
//! them); applying a rule grafts or prunes the corresponding pieces of the
//! pattern.

use pimento_tpq::implies as pred_implies;
use pimento_tpq::{Axis, Predicate, Tpq, TpqNodeId};

/// One atom of a rule condition or conclusion.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// `pc(parent, child)` — a parent-child structural predicate.
    Pc {
        /// Parent tag.
        parent: String,
        /// Child tag.
        child: String,
    },
    /// `ad(anc, desc)` — an ancestor-descendant structural predicate.
    Ad {
        /// Ancestor tag.
        anc: String,
        /// Descendant tag.
        desc: String,
    },
    /// `ftcontains(tag, "phrase")`.
    Ft {
        /// The tag of the node carrying the predicate.
        tag: String,
        /// The phrase.
        phrase: String,
    },
    /// `cmp(tag, op, value)` — constraint predicate on node content.
    Cmp {
        /// The tag of the node carrying the predicate.
        tag: String,
        /// The predicate (operator + constant).
        pred: Predicate,
    },
}

impl Atom {
    /// `pc(parent, child)`.
    pub fn pc(parent: &str, child: &str) -> Atom {
        Atom::Pc {
            parent: parent.to_string(),
            child: child.to_string(),
        }
    }

    /// `ad(anc, desc)`.
    pub fn ad(anc: &str, desc: &str) -> Atom {
        Atom::Ad {
            anc: anc.to_string(),
            desc: desc.to_string(),
        }
    }

    /// `ftcontains(tag, phrase)`.
    pub fn ft(tag: &str, phrase: &str) -> Atom {
        Atom::Ft {
            tag: tag.to_string(),
            phrase: phrase.to_string(),
        }
    }

    /// `cmp(tag, op, value)`.
    pub fn cmp(tag: &str, pred: Predicate) -> Atom {
        Atom::Cmp {
            tag: tag.to_string(),
            pred,
        }
    }
}

/// What a rule does once its condition fires.
#[derive(Debug, Clone, PartialEq)]
pub enum SrAction {
    /// Narrow the query by adding predicates.
    Add(Vec<Atom>),
    /// Broaden the query by removing predicates.
    Delete(Vec<Atom>),
    /// Replace predicates `from` with (typically weaker) `with`.
    Replace {
        /// Atoms removed.
        from: Vec<Atom>,
        /// Atoms added.
        with: Vec<Atom>,
    },
    /// Broaden the query structurally: relax `pc(parent, child)` edges to
    /// `ad(parent, child)` — the FleXPath-style relaxation the paper lists
    /// first among scoping-rule effects (§3: "a parent-child relationship
    /// may be relaxed to ancestor-descendant").
    RelaxEdge {
        /// Parent tag of the edges to relax.
        parent: String,
        /// Child tag of the edges to relax.
        child: String,
    },
}

/// One scoping rule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopingRule {
    /// Identifier for diagnostics (ρ1, ρ2, …).
    pub id: String,
    /// Condition atoms; empty = `true` (always applicable).
    pub condition: Vec<Atom>,
    /// The rewriting.
    pub action: SrAction,
    /// Optional user priority; **smaller applies earlier**. Needed when
    /// conflicts are cyclic (§5.1).
    pub priority: Option<u32>,
    /// Weight scaling the score contribution of this rule's optional
    /// predicates — the paper's §8 future-work extension ("using weights
    /// to perform a fine-tuning of the application of the SRs"). 1.0 by
    /// default.
    pub weight: f64,
}

impl ScopingRule {
    /// An `add` rule.
    pub fn add(id: &str, condition: Vec<Atom>, conclusion: Vec<Atom>) -> Self {
        ScopingRule {
            id: id.to_string(),
            condition,
            action: SrAction::Add(conclusion),
            priority: None,
            weight: 1.0,
        }
    }

    /// A `delete` rule.
    pub fn delete(id: &str, condition: Vec<Atom>, conclusion: Vec<Atom>) -> Self {
        ScopingRule {
            id: id.to_string(),
            condition,
            action: SrAction::Delete(conclusion),
            priority: None,
            weight: 1.0,
        }
    }

    /// A `replace` rule.
    pub fn replace(id: &str, condition: Vec<Atom>, from: Vec<Atom>, with: Vec<Atom>) -> Self {
        ScopingRule {
            id: id.to_string(),
            condition,
            action: SrAction::Replace { from, with },
            priority: None,
            weight: 1.0,
        }
    }

    /// A `relax` rule: `pc(parent, child)` edges become `ad` edges.
    pub fn relax_edge(id: &str, condition: Vec<Atom>, parent: &str, child: &str) -> Self {
        ScopingRule {
            id: id.to_string(),
            condition,
            action: SrAction::RelaxEdge {
                parent: parent.to_string(),
                child: child.to_string(),
            },
            priority: None,
            weight: 1.0,
        }
    }

    /// Builder: set a priority (smaller applies earlier).
    pub fn with_priority(mut self, p: u32) -> Self {
        self.priority = Some(p);
        self
    }

    /// Builder: set the weight of this rule's optional score contribution
    /// (must be positive).
    pub fn with_weight(mut self, w: f64) -> Self {
        assert!(w > 0.0, "scoping rule weight must be positive");
        self.weight = w;
        self
    }

    /// Is the rule applicable to `query` (condition subsumed by the query)?
    pub fn applicable(&self, query: &Tpq) -> bool {
        self.condition.iter().all(|a| atom_satisfied(query, a))
    }

    /// Apply the rule to `query` (does **not** re-check applicability).
    /// Returns the list of concrete edits for diagnostics.
    pub fn apply(&self, query: &mut Tpq) -> Vec<Edit> {
        let mut edits = Vec::new();
        match &self.action {
            SrAction::Add(atoms) => {
                for a in atoms {
                    edits.extend(add_atom(query, a));
                }
            }
            SrAction::Delete(atoms) => {
                for a in atoms {
                    edits.extend(delete_atom(query, a));
                }
            }
            SrAction::Replace { from, with } => {
                for a in from {
                    edits.extend(delete_atom(query, a));
                }
                for a in with {
                    edits.extend(add_atom(query, a));
                }
            }
            SrAction::RelaxEdge { parent, child } => {
                edits.extend(relax_edges(query, parent, child));
            }
        }
        edits
    }

    /// Apply to a clone, returning the rewritten query (the paper's `ρ(Q)`).
    pub fn applied(&self, query: &Tpq) -> Tpq {
        let mut out = query.clone();
        self.apply(&mut out);
        out
    }
}

/// A concrete edit performed by a rule application (for explain output).
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// A structural node was added.
    AddedNode {
        /// Tag of the new node.
        tag: String,
        /// Tag of the node it was attached under.
        under: String,
        /// The edge axis used.
        axis: Axis,
    },
    /// A predicate was added to a node.
    AddedPredicate {
        /// Tag of the node.
        tag: String,
        /// The predicate.
        pred: Predicate,
    },
    /// A predicate was removed from a node.
    RemovedPredicate {
        /// Tag of the node.
        tag: String,
        /// The predicate.
        pred: Predicate,
    },
    /// A leaf node was removed.
    RemovedNode {
        /// Tag of the removed node.
        tag: String,
    },
    /// A `pc` edge was relaxed to `ad`.
    RelaxedEdge {
        /// Parent tag.
        parent: String,
        /// Child tag.
        child: String,
    },
}

/// Does the query's pattern satisfy (imply) the atom? Every tag an atom
/// names must be a query node's own name: a `*` node satisfies no named
/// atom, since it also binds elements with other names.
pub fn atom_satisfied(query: &Tpq, atom: &Atom) -> bool {
    match atom {
        Atom::Pc { parent, child } => query.node_ids().any(|id| {
            tag_is(query, id, parent)
                && query
                    .node(id)
                    .children
                    .iter()
                    .any(|&c| query.node(c).axis == Axis::Child && tag_is(query, c, child))
        }),
        Atom::Ad { anc, desc } => query.node_ids().any(|id| {
            tag_is(query, id, anc)
                && query
                    .descendants(id)
                    .iter()
                    .any(|&d| tag_is(query, d, desc))
        }),
        Atom::Ft { tag, phrase } => {
            let want = Predicate::ft(phrase.clone());
            nodes_with_tag(query, tag).iter().any(|&id| {
                query
                    .node(id)
                    .predicates
                    .iter()
                    .any(|p| pred_implies(p, &want))
            })
        }
        Atom::Cmp { tag, pred } => nodes_with_tag(query, tag).iter().any(|&id| {
            query
                .node(id)
                .predicates
                .iter()
                .any(|p| pred_implies(p, pred))
        }),
    }
}

fn tag_is(query: &Tpq, id: TpqNodeId, tag: &str) -> bool {
    query.node(id).tag.name() == Some(tag)
}

fn nodes_with_tag(query: &Tpq, tag: &str) -> Vec<TpqNodeId> {
    query.find_all_by_tag(tag)
}

/// Add an atom to the query. Structural atoms attach a new child under the
/// *first* node with the parent tag (creating it under the distinguished
/// node if the parent tag itself is absent — keeping the result a connected
/// TPQ, as §3.1 requires). Predicate atoms attach to the first node with
/// the tag, creating a child of the distinguished node when absent.
pub fn add_atom(query: &mut Tpq, atom: &Atom) -> Vec<Edit> {
    let mut edits = Vec::new();
    match atom {
        Atom::Pc { parent, child }
        | Atom::Ad {
            anc: parent,
            desc: child,
        } => {
            let axis = if matches!(atom, Atom::Pc { .. }) {
                Axis::Child
            } else {
                Axis::Descendant
            };
            if atom_satisfied(query, atom) {
                return edits; // already present — adding is a no-op
            }
            let anchor = match query.find_by_tag(parent) {
                Some(id) => id,
                None => {
                    let id = query.add_child(query.distinguished(), Axis::Descendant, parent);
                    edits.push(Edit::AddedNode {
                        tag: parent.clone(),
                        under: tag_name(query, query.node(id).parent.expect("child")),
                        axis: Axis::Descendant,
                    });
                    id
                }
            };
            query.add_child(anchor, axis, child);
            edits.push(Edit::AddedNode {
                tag: child.clone(),
                under: parent.clone(),
                axis,
            });
        }
        Atom::Ft { tag, phrase } => {
            let pred = Predicate::ft(phrase.clone());
            let target = ensure_node(query, tag, &mut edits);
            if !query.node(target).predicates.contains(&pred) {
                query.add_predicate(target, pred.clone());
                edits.push(Edit::AddedPredicate {
                    tag: tag.clone(),
                    pred,
                });
            }
        }
        Atom::Cmp { tag, pred } => {
            let target = ensure_node(query, tag, &mut edits);
            if !query.node(target).predicates.contains(pred) {
                query.add_predicate(target, pred.clone());
                edits.push(Edit::AddedPredicate {
                    tag: tag.clone(),
                    pred: pred.clone(),
                });
            }
        }
    }
    edits
}

fn ensure_node(query: &mut Tpq, tag: &str, edits: &mut Vec<Edit>) -> TpqNodeId {
    match query.find_by_tag(tag) {
        Some(id) => id,
        None => {
            let under = tag_name(query, query.distinguished());
            let id = query.add_child(query.distinguished(), Axis::Descendant, tag);
            edits.push(Edit::AddedNode {
                tag: tag.to_string(),
                under,
                axis: Axis::Descendant,
            });
            id
        }
    }
}

fn tag_name(query: &Tpq, id: TpqNodeId) -> String {
    query.node(id).tag.to_string()
}

/// Delete an atom from the query: predicate atoms remove **all** matching
/// predicate occurrences on nodes with the tag; structural atoms remove
/// **every** matching child that is a bare leaf (no predicates, no
/// children, not distinguished). `pc` matches only a child edge; `ad`
/// matches either axis, since both imply it.
pub fn delete_atom(query: &mut Tpq, atom: &Atom) -> Vec<Edit> {
    let mut edits = Vec::new();
    match atom {
        Atom::Ft { tag, phrase } => {
            let want = Predicate::ft(phrase.clone());
            remove_matching_preds(query, tag, &want, &mut edits);
        }
        Atom::Cmp { tag, pred } => {
            remove_matching_preds(query, tag, pred, &mut edits);
        }
        Atom::Pc { parent, child }
        | Atom::Ad {
            anc: parent,
            desc: child,
        } => {
            // Remove every bare leaf `child` attached under a `parent`
            // node. Highest id first: `remove_leaf` renumbers only the
            // ids above the one it removes.
            let child_edge_only = matches!(atom, Atom::Pc { .. });
            let victims: Vec<TpqNodeId> = query
                .node_ids()
                .filter(|&id| {
                    tag_is(query, id, child)
                        && id != query.root()
                        && id != query.distinguished()
                        && (!child_edge_only || query.node(id).axis == Axis::Child)
                        && query.node(id).children.is_empty()
                        && query.node(id).predicates.is_empty()
                        && query
                            .node(id)
                            .parent
                            .is_some_and(|p| tag_is(query, p, parent))
                })
                .collect();
            for id in victims.into_iter().rev() {
                query.remove_leaf(id);
                edits.push(Edit::RemovedNode { tag: child.clone() });
            }
        }
    }
    edits
}

fn remove_matching_preds(query: &mut Tpq, tag: &str, want: &Predicate, edits: &mut Vec<Edit>) {
    for id in nodes_with_tag(query, tag) {
        loop {
            let pos = query
                .node(id)
                .predicates
                .iter()
                .position(|p| p == want || pred_implies(p, want));
            match pos {
                Some(i) => {
                    let removed = query.remove_predicate(id, i);
                    edits.push(Edit::RemovedPredicate {
                        tag: tag.to_string(),
                        pred: removed,
                    });
                }
                None => break,
            }
        }
    }
}

/// Relax every `pc(parent, child)` edge in the query to `ad`.
pub fn relax_edges(query: &mut Tpq, parent: &str, child: &str) -> Vec<Edit> {
    let mut edits = Vec::new();
    let targets: Vec<TpqNodeId> = query
        .node_ids()
        .filter(|&id| {
            query.node(id).axis == Axis::Child
                && tag_is(query, id, child)
                && query
                    .node(id)
                    .parent
                    .is_some_and(|p| tag_is(query, p, parent))
        })
        .collect();
    for id in targets {
        query.node_mut(id).axis = Axis::Descendant;
        edits.push(Edit::RelaxedEdge {
            parent: parent.to_string(),
            child: child.to_string(),
        });
    }
    edits
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_tpq::{parse_tpq, RelOp};

    /// The running example query Q (Fig. 2).
    fn query_q() -> Tpq {
        parse_tpq(
            r#"//car[./description[ftcontains(., "good condition") and ftcontains(., "low mileage")] and ./price < 2000]"#,
        )
        .unwrap()
    }

    /// ρ1: if pc(car, description) & ftcontains(description, "low mileage")
    /// then remove ftcontains(description, "good condition").
    fn rho1() -> ScopingRule {
        ScopingRule::delete(
            "rho1",
            vec![
                Atom::pc("car", "description"),
                Atom::ft("description", "low mileage"),
            ],
            vec![Atom::ft("description", "good condition")],
        )
    }

    /// ρ2: if pc(car, description) & ftcontains(description, "good
    /// condition") then add ftcontains(description, "american").
    fn rho2() -> ScopingRule {
        ScopingRule::add(
            "rho2",
            vec![
                Atom::pc("car", "description"),
                Atom::ft("description", "good condition"),
            ],
            vec![Atom::ft("description", "american")],
        )
    }

    /// ρ3: if pc(car, description) & ftcontains(description, "good
    /// condition") then remove ftcontains(description, "low mileage").
    fn rho3() -> ScopingRule {
        ScopingRule::delete(
            "rho3",
            vec![
                Atom::pc("car", "description"),
                Atom::ft("description", "good condition"),
            ],
            vec![Atom::ft("description", "low mileage")],
        )
    }

    #[test]
    fn applicability_of_paper_rules() {
        let q = query_q();
        assert!(rho1().applicable(&q));
        assert!(rho2().applicable(&q));
        assert!(rho3().applicable(&q));
    }

    #[test]
    fn rho1_conflicts_with_rho2_result() {
        // Applying ρ1 removes "good condition", making ρ2 inapplicable —
        // the paper's motivating conflict.
        let q = query_q();
        let q1 = rho1().applied(&q);
        assert!(!rho2().applicable(&q1));
        // Applying ρ2 first leaves ρ1 applicable.
        let q2 = rho2().applied(&q);
        assert!(rho1().applicable(&q2));
    }

    #[test]
    fn add_rule_grafts_predicate() {
        let q = query_q();
        let q2 = rho2().applied(&q);
        let d = q2.find_by_tag("description").unwrap();
        assert_eq!(q2.node(d).predicates.len(), 3);
        assert!(q2.node(d).predicates.contains(&Predicate::ft("american")));
    }

    #[test]
    fn delete_rule_removes_predicate() {
        let q = query_q();
        let q1 = rho3().applied(&q);
        let d = q1.find_by_tag("description").unwrap();
        assert_eq!(q1.node(d).predicates.len(), 1);
        assert!(!q1
            .node(d)
            .predicates
            .contains(&Predicate::ft("low mileage")));
    }

    #[test]
    fn replace_rule_swaps_predicates() {
        // Replace price < 2000 with price < 5000 (weaker).
        let r = ScopingRule::replace(
            "loosen",
            vec![Atom::cmp("price", Predicate::cmp_num(RelOp::Lt, 2000.0))],
            vec![Atom::cmp("price", Predicate::cmp_num(RelOp::Lt, 2000.0))],
            vec![Atom::cmp("price", Predicate::cmp_num(RelOp::Lt, 5000.0))],
        );
        let q = query_q();
        assert!(r.applicable(&q));
        let q2 = r.applied(&q);
        let p = q2.find_by_tag("price").unwrap();
        assert_eq!(
            q2.node(p).predicates,
            vec![Predicate::cmp_num(RelOp::Lt, 5000.0)]
        );
    }

    #[test]
    fn condition_true_always_applies() {
        let r = ScopingRule::add("always", vec![], vec![Atom::ft("car", "clean")]);
        assert!(r.applicable(&query_q()));
        assert!(r.applicable(&parse_tpq("//anything").unwrap()));
    }

    #[test]
    fn condition_with_implied_predicate() {
        // Condition requires ftcontains(description, "condition"); the
        // query's "good condition" implies it.
        let r = ScopingRule::add(
            "implied",
            vec![Atom::ft("description", "condition")],
            vec![Atom::ft("description", "x")],
        );
        assert!(r.applicable(&query_q()));
        // But not the other way around.
        let r2 = ScopingRule::add(
            "notimplied",
            vec![Atom::ft("description", "excellent condition")],
            vec![],
        );
        assert!(!r2.applicable(&query_q()));
    }

    #[test]
    fn ad_condition_satisfied_by_pc_edge() {
        let q = query_q(); // car/description is a pc edge
        assert!(atom_satisfied(&q, &Atom::ad("car", "description")));
        assert!(atom_satisfied(&q, &Atom::pc("car", "description")));
        assert!(!atom_satisfied(&q, &Atom::pc("car", "owner")));
    }

    #[test]
    fn cmp_condition_uses_implication() {
        let q = query_q(); // price < 2000
        assert!(atom_satisfied(
            &q,
            &Atom::cmp("price", Predicate::cmp_num(RelOp::Lt, 3000.0))
        ));
        assert!(!atom_satisfied(
            &q,
            &Atom::cmp("price", Predicate::cmp_num(RelOp::Lt, 1000.0))
        ));
    }

    #[test]
    fn add_structural_atom_creates_node() {
        let r = ScopingRule::add(
            "loc",
            vec![],
            vec![Atom::pc("car", "location"), Atom::ft("location", "NYC")],
        );
        let q = r.applied(&query_q());
        let l = q.find_by_tag("location").unwrap();
        assert_eq!(q.node(l).axis, Axis::Child);
        assert!(q.node(l).predicates.contains(&Predicate::ft("NYC")));
    }

    #[test]
    fn add_existing_structure_is_noop() {
        let r = ScopingRule::add("dup", vec![], vec![Atom::pc("car", "price")]);
        let q = query_q();
        let q2 = r.applied(&q);
        assert_eq!(q2.len(), q.len());
    }

    #[test]
    fn delete_structural_atom_removes_bare_leaf() {
        let mut q = parse_tpq("//car[./owner and ./price < 100]").unwrap();
        let r = ScopingRule::delete("noowner", vec![], vec![Atom::pc("car", "owner")]);
        r.apply(&mut q);
        assert!(q.find_by_tag("owner").is_none());
        // price is kept (it has a predicate, not a bare leaf)
        let r2 = ScopingRule::delete("noprice", vec![], vec![Atom::pc("car", "price")]);
        r2.apply(&mut q);
        assert!(q.find_by_tag("price").is_some());
    }

    #[test]
    fn delete_structural_atom_removes_every_bare_leaf() {
        let mut q = parse_tpq("//car[./price and ./price]").unwrap();
        let r = ScopingRule::delete("noprice", vec![], vec![Atom::pc("car", "price")]);
        let edits = r.apply(&mut q);
        assert_eq!(q, parse_tpq("//car").unwrap(), "{q}");
        assert_eq!(edits.len(), 2);
    }

    #[test]
    fn delete_pc_atom_keeps_a_descendant_edge() {
        // `pc(car, price)` does not name `//car[.//price]`'s edge; `ad`
        // names both edges.
        let mut q = parse_tpq("//car[.//price and ./price]").unwrap();
        ScopingRule::delete("nopc", vec![], vec![Atom::pc("car", "price")]).apply(&mut q);
        assert_eq!(q, parse_tpq("//car[.//price]").unwrap(), "{q}");
        ScopingRule::delete("noad", vec![], vec![Atom::ad("car", "price")]).apply(&mut q);
        assert_eq!(q, parse_tpq("//car").unwrap(), "{q}");
    }

    #[test]
    fn wildcard_node_satisfies_no_named_atom() {
        let r = ScopingRule::add(
            "nyc",
            vec![Atom::pc("car", "description")],
            vec![Atom::ft("description", "NYC")],
        );
        assert!(r.applicable(&parse_tpq("//car[./description]").unwrap()));
        for q in [
            "//*[./description]",
            "//boat[./description]",
            "//*[.//description]",
        ] {
            assert!(!r.applicable(&parse_tpq(q).unwrap()), "{q}");
        }
        // Nor does a `*` node take part in a delete or a relaxation.
        let mut q = parse_tpq("//*[./description]").unwrap();
        ScopingRule::delete("d", vec![], vec![Atom::pc("car", "description")]).apply(&mut q);
        assert_eq!(q, parse_tpq("//*[./description]").unwrap(), "{q}");
        assert!(relax_edges(&mut q, "car", "description").is_empty());
    }

    #[test]
    fn edits_are_reported() {
        let edits = rho2().apply(&mut query_q());
        assert_eq!(edits.len(), 1);
        assert!(matches!(&edits[0], Edit::AddedPredicate { tag, .. } if tag == "description"));
        let edits = rho3().apply(&mut query_q());
        assert!(matches!(&edits[0], Edit::RemovedPredicate { tag, .. } if tag == "description"));
    }

    #[test]
    fn missing_anchor_attaches_under_distinguished() {
        let mut q = parse_tpq("//person").unwrap();
        add_atom(&mut q, &Atom::ft("address", "Phoenix"));
        let a = q.find_by_tag("address").unwrap();
        assert_eq!(q.node(a).parent, Some(q.distinguished()));
        assert!(q.node(a).predicates.contains(&Predicate::ft("Phoenix")));
    }
}

#[cfg(test)]
mod relax_tests {
    use super::*;
    use pimento_tpq::parse_tpq;

    #[test]
    fn relax_edge_changes_pc_to_ad() {
        let mut q = parse_tpq("//car/price[. < 100]").unwrap();
        let r = ScopingRule::relax_edge("rel", vec![Atom::pc("car", "price")], "car", "price");
        assert!(r.applicable(&q));
        let edits = r.apply(&mut q);
        assert_eq!(
            edits,
            vec![Edit::RelaxedEdge {
                parent: "car".into(),
                child: "price".into()
            }]
        );
        let p = q.find_by_tag("price").unwrap();
        assert_eq!(q.node(p).axis, Axis::Descendant);
    }

    #[test]
    fn relax_edge_is_idempotent() {
        let mut q = parse_tpq("//car//price").unwrap();
        let r = ScopingRule::relax_edge("rel", vec![], "car", "price");
        assert!(r.apply(&mut q).is_empty(), "already ad: nothing to relax");
    }

    #[test]
    fn relax_edge_only_touches_named_pair() {
        let mut q = parse_tpq("//car[./price and ./color]").unwrap();
        ScopingRule::relax_edge("rel", vec![], "car", "price").apply(&mut q);
        let p = q.find_by_tag("price").unwrap();
        let c = q.find_by_tag("color").unwrap();
        assert_eq!(q.node(p).axis, Axis::Descendant);
        assert_eq!(q.node(c).axis, Axis::Child);
    }

    #[test]
    fn relaxed_query_is_a_broadening() {
        use pimento_tpq::contains;
        let q = parse_tpq("//car/price").unwrap();
        let relaxed = ScopingRule::relax_edge("rel", vec![], "car", "price").applied(&q);
        assert!(
            contains(&relaxed, &q),
            "relaxation must contain the original"
        );
        assert!(!contains(&q, &relaxed));
    }
}
