//! Ambiguity analysis for value-based ordering rules (paper §5.2).
//!
//! A set of VORs is **ambiguous** when some database instance contains a
//! pair of elements each preferred to the other — e.g. π1 (prefer red cars)
//! and π2 (prefer lower mileage) clash on a red car with high mileage vs a
//! non-red car with low mileage.
//!
//! Detection follows the paper's Lemma 5.1: build the **constraint graph**
//! whose nodes are rule variables (renamed apart), with a directed `≺` arc
//! `x_i → y_i` per rule and an undirected `=` edge between *compatible*
//! variables of different rules (`local*(u) & local*(v) & u = v`
//! consistent); the set is ambiguous iff the graph has an **alternating
//! cycle** (`≺`, `=`, `≺`, `=`, …).
//!
//! We detect alternating cycles on the quotient digraph `H` over rules:
//! `H` has an arc `i → j` iff `y_i` is compatible with `x_j` — a cycle in
//! `H` is exactly an alternating cycle. On top of the lemma we add one
//! refinement: the comparison constraints collected along the cycle must be
//! jointly satisfiable (otherwise no single database can instantiate the
//! cycle — e.g. two copies of "prefer lower mileage" alternate-cycle
//! through `a.m < b.m ∧ b.m < a.m`, which no data satisfies). Priorities
//! resolve ambiguity by splitting rules into classes that are compared
//! lexicographically, so only same-priority rules can clash.

use crate::constraints::DiffGraph;
use crate::vor::{PrefOp, ValueOrderingRule, VorForm};

/// One alternating cycle witnessing ambiguity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmbiguityCycle {
    /// Rule ids along the cycle, in order.
    pub rule_ids: Vec<String>,
}

/// Result of the analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AmbiguityReport {
    /// All satisfiable alternating cycles found (empty = unambiguous).
    pub cycles: Vec<AmbiguityCycle>,
}

impl AmbiguityReport {
    /// Is the rule set ambiguous?
    pub fn is_ambiguous(&self) -> bool {
        !self.cycles.is_empty()
    }
}

/// Detect ambiguity ignoring priorities (the raw Lemma 5.1 check plus the
/// satisfiability refinement).
pub fn detect_ambiguity(rules: &[ValueOrderingRule]) -> AmbiguityReport {
    let n = rules.len();
    // H-arc i → j ⇔ y_i compatible with x_j (i ≠ j: "=" edges join
    // variables of different rules).
    let locals_x: Vec<_> = rules.iter().map(ValueOrderingRule::local_x).collect();
    let locals_y: Vec<_> = rules.iter().map(ValueOrderingRule::local_y).collect();
    let mut arcs = vec![Vec::new(); n];
    for i in 0..n {
        for (j, x_local) in locals_x.iter().enumerate() {
            if i != j && locals_y[i].compatible(x_local) {
                arcs[i].push(j);
            }
        }
    }
    let mut report = AmbiguityReport::default();
    for cycle in enumerate_simple_cycles(&arcs, 1_000) {
        if cycle_satisfiable(rules, &cycle) {
            report.cycles.push(AmbiguityCycle {
                rule_ids: cycle.iter().map(|&i| rules[i].id.clone()).collect(),
            });
        }
    }
    report
}

/// Detect ambiguity honoring priorities: rules in distinct priority classes
/// are compared lexicographically and cannot clash, so each class is
/// analyzed separately.
pub fn detect_ambiguity_with_priorities(rules: &[ValueOrderingRule]) -> AmbiguityReport {
    let mut classes: Vec<u32> = rules.iter().map(|r| r.priority).collect();
    classes.sort_unstable();
    classes.dedup();
    let mut report = AmbiguityReport::default();
    for class in classes {
        let group: Vec<ValueOrderingRule> = rules
            .iter()
            .filter(|r| r.priority == class)
            .cloned()
            .collect();
        report.cycles.extend(detect_ambiguity(&group).cycles);
    }
    report
}

/// Enumerate simple cycles of a small digraph (Johnson-style DFS restricted
/// to cycles whose smallest node is the DFS root), capped at `max`.
fn enumerate_simple_cycles(arcs: &[Vec<usize>], max: usize) -> Vec<Vec<usize>> {
    let n = arcs.len();
    let mut cycles = Vec::new();
    let mut path: Vec<usize> = Vec::new();
    let mut on_path = vec![false; n];

    fn dfs(
        v: usize,
        root: usize,
        arcs: &[Vec<usize>],
        path: &mut Vec<usize>,
        on_path: &mut [bool],
        cycles: &mut Vec<Vec<usize>>,
        max: usize,
    ) {
        if cycles.len() >= max {
            return;
        }
        path.push(v);
        on_path[v] = true;
        for &w in &arcs[v] {
            if w == root {
                cycles.push(path.clone());
                if cycles.len() >= max {
                    break;
                }
            } else if w > root && !on_path[w] {
                dfs(w, root, arcs, path, on_path, cycles, max);
            }
        }
        on_path[v] = false;
        path.pop();
    }

    for root in 0..n {
        dfs(root, root, arcs, &mut path, &mut on_path, &mut cycles, max);
    }
    cycles
}

/// Are the comparison constraints collected along the cycle jointly
/// satisfiable? The cycle `i_0 → i_1 → … → i_{k-1} → i_0` merges variables
/// into classes: class `m` holds `y_{i_m} = x_{i_{m+1 mod k}}`; rule `i_m`
/// then relates class `m-1` (its `x`) to class `m` (its `y`).
fn cycle_satisfiable(rules: &[ValueOrderingRule], cycle: &[usize]) -> bool {
    let k = cycle.len();
    let mut graph = DiffGraph::new();
    for (m, &ri) in cycle.iter().enumerate() {
        let x_class = ((m + k - 1) % k) as u32;
        let y_class = m as u32;
        match &rules[ri].form {
            VorForm::AttrCompare { attr, op } => {
                // x.attr < y.attr (Lt) or x.attr > y.attr (Gt), strict.
                match op {
                    PrefOp::Lt => graph.add_less((x_class, attr), (y_class, attr), true),
                    PrefOp::Gt => graph.add_less((y_class, attr), (x_class, attr), true),
                }
            }
            VorForm::Preference { attr, order } => {
                // prefRel(x.attr, y.attr): a strict partial order. Edges
                // from *the same* relation share a namespace (so duplicate
                // rules cannot instantiate a cycle), while distinct
                // relations are independent (opposite orders from two rules
                // genuinely clash on data).
                let repr = rules
                    .iter()
                    .position(|r| {
                        matches!(&r.form, VorForm::Preference { attr: a2, order: o2 }
                            if a2 == attr && o2 == order)
                    })
                    .unwrap_or(ri);
                let key = format!("{attr}\u{1}pref{repr}");
                graph.add_less((y_class, &key), (x_class, &key), true);
            }
            VorForm::EqConst { .. } => {
                // Contributes only local constraints, already enforced by
                // the compatibility edges.
            }
        }
    }
    graph.satisfiable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefrel::PrefRel;

    fn pi1() -> ValueOrderingRule {
        ValueOrderingRule::prefer_value("pi1", "car", "color", "red")
    }

    fn pi2() -> ValueOrderingRule {
        ValueOrderingRule::prefer_smaller("pi2", "car", "mileage")
    }

    #[test]
    fn paper_pi1_pi2_is_ambiguous() {
        let report = detect_ambiguity(&[pi1(), pi2()]);
        assert!(report.is_ambiguous());
        let ids: Vec<&str> = report.cycles[0]
            .rule_ids
            .iter()
            .map(String::as_str)
            .collect();
        assert!(ids.contains(&"pi1") && ids.contains(&"pi2"));
    }

    #[test]
    fn single_rule_is_unambiguous() {
        assert!(!detect_ambiguity(&[pi1()]).is_ambiguous());
        assert!(!detect_ambiguity(&[pi2()]).is_ambiguous());
        assert!(!detect_ambiguity(&[]).is_ambiguous());
    }

    #[test]
    fn duplicate_comparison_rules_are_not_ambiguous() {
        // Two "prefer lower mileage" rules alternate-cycle structurally,
        // but the cycle needs a.m < b.m ∧ b.m < a.m — unsatisfiable.
        let dup = ValueOrderingRule::prefer_smaller("pi2b", "car", "mileage");
        assert!(!detect_ambiguity(&[pi2(), dup]).is_ambiguous());
    }

    #[test]
    fn opposite_comparison_rules_are_ambiguous() {
        // Prefer lower mileage AND prefer higher mileage.
        let lo = ValueOrderingRule::prefer_smaller("lo", "car", "mileage");
        let hi = ValueOrderingRule::prefer_larger("hi", "car", "mileage");
        assert!(detect_ambiguity(&[lo, hi]).is_ambiguous());
    }

    #[test]
    fn different_tags_cannot_clash() {
        let cars = pi2();
        let trucks = ValueOrderingRule::prefer_larger("t", "truck", "mileage");
        assert!(!detect_ambiguity(&[cars, trucks]).is_ambiguous());
    }

    #[test]
    fn two_eqconst_rules_on_different_values_are_ambiguous() {
        // Prefer red; prefer cheap-colored... two EqConst on *different*
        // attributes clash: a red/expensive vs blue/cheap pair.
        let red = ValueOrderingRule::prefer_value("red", "car", "color", "red");
        let auto = ValueOrderingRule::prefer_value("auto", "car", "transmission", "automatic");
        assert!(detect_ambiguity(&[red, auto]).is_ambiguous());
    }

    #[test]
    fn same_attr_eqconst_rules_are_ambiguous() {
        // Prefer red and prefer blue on the same attribute: x of one is
        // color=red which is incompatible with x of the other (color=blue)?
        // Compatibility is between y (≠red) and x (=blue) — consistent —
        // and y (≠blue) with x (=red) — consistent. A red/blue pair indeed
        // gets contradictory preferences: genuinely ambiguous.
        let red = ValueOrderingRule::prefer_value("red", "car", "color", "red");
        let blue = ValueOrderingRule::prefer_value("blue", "car", "color", "blue");
        assert!(detect_ambiguity(&[red, blue]).is_ambiguous());
    }

    #[test]
    fn guards_can_separate_rules() {
        // Prefer lower mileage among cheap cars; prefer higher mileage
        // among expensive cars — guards make the variable sets
        // incompatible, so no ambiguity.
        use crate::vor::AttrValue;
        use pimento_tpq::RelOp;
        let cheap = ValueOrderingRule::prefer_smaller("cheap", "car", "mileage").with_guard(
            "price",
            RelOp::Lt,
            AttrValue::Num(1000.0),
        );
        let pricey = ValueOrderingRule::prefer_larger("pricey", "car", "mileage").with_guard(
            "price",
            RelOp::Gt,
            AttrValue::Num(5000.0),
        );
        assert!(!detect_ambiguity(&[cheap, pricey]).is_ambiguous());
    }

    #[test]
    fn priorities_resolve_paper_example() {
        let rules = [pi1().with_priority(2), pi2().with_priority(1)];
        assert!(!detect_ambiguity_with_priorities(&rules).is_ambiguous());
        // Without priority separation it is ambiguous.
        assert!(detect_ambiguity_with_priorities(&[pi1(), pi2()]).is_ambiguous());
    }

    #[test]
    fn prefrel_cycle_through_two_rules() {
        // Rule A prefers red>blue on color; rule B prefers blue>red.
        let a = ValueOrderingRule::prefer_order(
            "a",
            "car",
            "color",
            PrefRel::new([("red", "blue")]).unwrap(),
        );
        let b = ValueOrderingRule::prefer_order(
            "b",
            "car",
            "color",
            PrefRel::new([("blue", "red")]).unwrap(),
        );
        // Distinct relations: a red/blue pair is preferred both ways —
        // genuinely ambiguous.
        let report = detect_ambiguity(&[a, b]);
        assert!(report.is_ambiguous());
    }

    #[test]
    fn duplicate_prefrel_rules_not_ambiguous() {
        let order = PrefRel::new([("red", "blue")]).unwrap();
        let a = ValueOrderingRule::prefer_order("a", "car", "color", order.clone());
        let b = ValueOrderingRule::prefer_order("b", "car", "color", order);
        // Same relation twice: instantiating the alternating cycle would
        // need red ≻ blue ≻ red in one strict order — unsatisfiable.
        assert!(!detect_ambiguity(&[a, b]).is_ambiguous());
    }

    #[test]
    fn three_rule_cycle() {
        // a: prefer color=red; b: prefer mileage lower; c: prefer hp higher
        // — pairwise compatible, cycle of length 2 already exists among
        // any two, and length-3 cycles too.
        let a = pi1();
        let b = pi2();
        let c = ValueOrderingRule::prefer_larger("hp", "car", "hp");
        let report = detect_ambiguity(&[a, b, c]);
        assert!(report.is_ambiguous());
        assert!(report.cycles.iter().any(|c| c.rule_ids.len() >= 3) || report.cycles.len() >= 3);
    }
}
