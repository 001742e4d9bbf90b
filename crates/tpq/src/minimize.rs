//! TPQ minimization: removing redundant pattern nodes.
//!
//! The paper cites "Minimization of Tree Pattern Queries" (Amer-Yahia et
//! al., SIGMOD 2001, reference \[2\]) as background machinery. Query
//! personalization makes queries *grow* — every applied `add` scoping rule
//! grafts predicates and branches — so minimizing each flock member before
//! evaluation removes work the matcher would otherwise repeat.
//!
//! The algorithm is the classical leaf-pruning fixpoint: a pattern is
//! minimal iff no leaf can be dropped without changing its meaning, and
//! testing a drop is one containment check (`P ⊆ P∖{leaf}` always holds;
//! redundancy is `P∖{leaf} ⊆ P`).

use crate::ast::{Tpq, TpqNodeId};
use crate::containment::contains;

/// Minimize `q` in place; returns the number of nodes removed.
///
/// Never removes the root, the distinguished node, an ancestor of the
/// distinguished node, or a node carrying keyword predicates (keyword
/// predicates contribute to scores, so two structurally redundant keyword
/// nodes are still not interchangeable).
pub fn minimize(q: &mut Tpq) -> usize {
    let mut removed = 0;
    while let Some(leaf) = find_redundant_leaf(q) {
        q.remove_leaf(leaf);
        removed += 1;
    }
    removed
}

/// Return a minimized clone, leaving `q` untouched.
pub fn minimized(q: &Tpq) -> Tpq {
    let mut out = q.clone();
    minimize(&mut out);
    out
}

fn find_redundant_leaf(q: &Tpq) -> Option<TpqNodeId> {
    for id in q.node_ids() {
        if id == q.root() || id == q.distinguished() {
            continue;
        }
        let n = q.node(id);
        if !n.children.is_empty() {
            continue;
        }
        if n.predicates.iter().any(|p| p.is_keyword()) {
            continue;
        }
        let mut candidate = q.clone();
        candidate.remove_leaf(id);
        // Dropping constraints can only widen: q ⊆ candidate always.
        // Redundant iff candidate ⊆ q, i.e. q's structure is still implied.
        if contains(q, &candidate) {
            return Some(id);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::equivalent;
    use crate::parse::parse_tpq;

    #[test]
    fn duplicate_branch_is_removed() {
        let mut q = parse_tpq("//car[./price and ./price]").unwrap();
        let before = q.clone();
        let removed = minimize(&mut q);
        assert_eq!(removed, 1);
        assert_eq!(q.len(), 2);
        assert!(equivalent(&before, &q));
    }

    #[test]
    fn ad_branch_subsumed_by_pc_branch() {
        // .//price is implied by ./price
        let mut q = parse_tpq("//car[./price and .//price]").unwrap();
        minimize(&mut q);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn constrained_branch_subsumes_unconstrained() {
        let mut q = parse_tpq("//car[./price < 100 and ./price]").unwrap();
        let before = q.clone();
        minimize(&mut q);
        assert_eq!(q.len(), 2);
        assert!(equivalent(&before, &q));
        // The surviving node keeps the constraint.
        let p = q.find_by_tag("price").unwrap();
        assert_eq!(q.node(p).predicates.len(), 1);
    }

    #[test]
    fn non_redundant_pattern_untouched() {
        let mut q = parse_tpq("//car[./price < 100 and ./color]").unwrap();
        assert_eq!(minimize(&mut q), 0);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn keyword_nodes_never_removed() {
        // Structurally redundant, but both carry score-contributing
        // keyword predicates.
        let mut q =
            parse_tpq(r#"//car[./d[ftcontains(., "x")] and ./d[ftcontains(., "x")]]"#).unwrap();
        assert_eq!(minimize(&mut q), 0);
    }

    #[test]
    fn distinguished_node_never_removed() {
        let mut q = parse_tpq("//car/price").unwrap();
        // price is distinguished; a duplicate sibling would fold into it,
        // but the distinguished node itself must survive.
        assert_eq!(minimize(&mut q), 0);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn minimized_clone_leaves_original() {
        let q = parse_tpq("//car[./price and ./price]").unwrap();
        let m = minimized(&q);
        assert_eq!(q.len(), 3);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn chain_of_redundancy_resolves_fully() {
        let mut q = parse_tpq("//a[./b and ./b and .//b]").unwrap();
        minimize(&mut q);
        assert_eq!(q.len(), 2);
    }
}

/// Predicate-level simplification: within each node, drop any predicate
/// implied by another predicate on the same node (`price < 3000` is
/// implied by `price < 2000`; `ftcontains "condition"` by
/// `ftcontains "good condition"`). Complements the node-level leaf
/// pruning; returns the number of predicates removed.
///
/// Keyword predicates are *score contributors*, so dropping an implied
/// keyword changes `S`; this pass therefore only drops implied
/// **comparison** predicates by default. Pass `drop_keywords = true` for
/// pure boolean-matching contexts (e.g. rule conditions).
pub fn simplify_predicates(q: &mut Tpq, drop_keywords: bool) -> usize {
    let mut removed = 0;
    for id in q.node_ids().collect::<Vec<_>>() {
        loop {
            let preds = &q.node(id).predicates;
            let redundant = preds.iter().enumerate().position(|(i, p)| {
                if !drop_keywords && p.is_keyword() {
                    return false;
                }
                preds.iter().enumerate().any(|(j, other)| {
                    i != j
                        && contains_pred_implies(other, p)
                        // Symmetric implication (equivalent predicates):
                        // keep the first occurrence only.
                        && (!contains_pred_implies(p, other) || j < i)
                })
            });
            match redundant {
                Some(i) => {
                    q.remove_predicate(id, i);
                    removed += 1;
                }
                None => break,
            }
        }
    }
    removed
}

use crate::containment::implies as contains_pred_implies;

#[cfg(test)]
mod simplify_tests {
    use super::*;
    use crate::ast::{Predicate, RelOp};
    use crate::containment::equivalent;
    use crate::parse::parse_tpq;

    #[test]
    fn implied_comparisons_dropped() {
        let mut q = parse_tpq("//car[./price[. < 2000 and . < 3000 and . > 10]]").unwrap();
        let before = q.clone();
        let removed = simplify_predicates(&mut q, false);
        assert_eq!(removed, 1);
        let p = q.find_by_tag("price").unwrap();
        assert_eq!(q.node(p).predicates.len(), 2);
        assert!(q
            .node(p)
            .predicates
            .contains(&Predicate::cmp_num(RelOp::Lt, 2000.0)));
        assert!(equivalent(&before, &q));
    }

    #[test]
    fn keyword_predicates_kept_by_default() {
        let mut q =
            parse_tpq(r#"//car[ftcontains(., "good condition") and ftcontains(., "condition")]"#)
                .unwrap();
        assert_eq!(simplify_predicates(&mut q, false), 0);
        assert_eq!(simplify_predicates(&mut q, true), 1);
        assert!(matches!(
            &q.node(q.root()).predicates[0],
            Predicate::FtContains { phrase } if phrase == "good condition"
        ));
    }

    #[test]
    fn equivalent_duplicates_keep_one() {
        let mut q = parse_tpq("//car[./price[. < 2000 and . < 2000]]").unwrap();
        assert_eq!(simplify_predicates(&mut q, false), 1);
        let p = q.find_by_tag("price").unwrap();
        assert_eq!(q.node(p).predicates.len(), 1);
    }

    #[test]
    fn unrelated_predicates_untouched() {
        let mut q = parse_tpq("//car[./price[. < 2000 and . > 100]]").unwrap();
        assert_eq!(simplify_predicates(&mut q, false), 0);
    }
}
