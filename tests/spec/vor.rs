//! `≺_V` by definition (paper §3.2, §5.2): each value-based ordering rule
//! compares two answers on their attribute values as strings and numbers,
//! and priority classes combine the rules.
//!
//! The engine ranks with `pimento_profile::CompiledVors`, which hoists
//! case folding, number parsing and `prefRel` lookups to key construction
//! time. Nothing here is hoisted: every comparison re-reads the raw
//! values, so the two paths share no logic beyond `AttrValue`'s coercions.

use pimento::profile::vor::LocalGuard;
use pimento::profile::{AttrValue, PrefOp, RuleCmp, ValueOrderingRule, VorForm, VorOutcome};
use pimento::tpq::RelOp;

/// Compare two answers under one rule. `a_fields`/`b_fields` resolve
/// attribute names to values for each answer; `a_tag`/`b_tag` are the
/// answers' element tags.
pub fn compare(
    rule: &ValueOrderingRule,
    a_tag: &str,
    b_tag: &str,
    a_fields: &dyn Fn(&str) -> Option<AttrValue>,
    b_fields: &dyn Fn(&str) -> Option<AttrValue>,
) -> RuleCmp {
    // Common conditions: same required tag on both sides.
    if !a_tag.eq_ignore_ascii_case(&rule.tag) || !b_tag.eq_ignore_ascii_case(&rule.tag) {
        return RuleCmp::NoInfo;
    }
    for attr in &rule.equal_attrs {
        match (a_fields(attr), b_fields(attr)) {
            (Some(va), Some(vb)) if va.same(&vb) => {}
            _ => return RuleCmp::NoInfo,
        }
    }
    for g in &rule.guards {
        if !guard_holds(g, a_fields) || !guard_holds(g, b_fields) {
            return RuleCmp::NoInfo;
        }
    }
    match &rule.form {
        VorForm::EqConst { attr, value } => {
            let target = AttrValue::Str(value.clone());
            let a_has = a_fields(attr).map(|v| v.same(&target)).unwrap_or(false);
            let b_has = b_fields(attr).map(|v| v.same(&target)).unwrap_or(false);
            match (a_has, b_has) {
                (true, false) => RuleCmp::PreferA,
                (false, true) => RuleCmp::PreferB,
                (true, true) | (false, false) => RuleCmp::Equal,
            }
        }
        VorForm::AttrCompare { attr, op } => {
            let (Some(va), Some(vb)) = (a_fields(attr), b_fields(attr)) else {
                return RuleCmp::NoInfo;
            };
            let (Some(na), Some(nb)) = (va.as_num(), vb.as_num()) else {
                return RuleCmp::NoInfo;
            };
            if na == nb {
                return RuleCmp::Equal;
            }
            let a_wins = match op {
                PrefOp::Lt => na < nb,
                PrefOp::Gt => na > nb,
            };
            if a_wins {
                RuleCmp::PreferA
            } else {
                RuleCmp::PreferB
            }
        }
        VorForm::Preference { attr, order } => {
            let (Some(va), Some(vb)) = (a_fields(attr), b_fields(attr)) else {
                return RuleCmp::NoInfo;
            };
            let (sa, sb) = (va.as_text(), vb.as_text());
            if sa.eq_ignore_ascii_case(&sb) {
                RuleCmp::Equal
            } else if order.prefers(&sa, &sb) {
                RuleCmp::PreferA
            } else if order.prefers(&sb, &sa) {
                RuleCmp::PreferB
            } else {
                RuleCmp::NoInfo
            }
        }
    }
}

fn guard_holds(g: &LocalGuard, fields: &dyn Fn(&str) -> Option<AttrValue>) -> bool {
    let Some(v) = fields(&g.attr) else {
        return false;
    };
    match g.op {
        RelOp::Eq => v.same(&g.value),
        RelOp::Ne => !v.same(&g.value),
        op => match (v.as_num(), g.value.as_num()) {
            (Some(a), Some(b)) => op.eval_num(a, b),
            _ => false,
        },
    }
}

/// Compare two answers under a whole rule set, honoring priority classes:
/// classes are consulted in ascending priority number; within a class
/// (which static analysis guarantees unambiguous), any strict preference
/// decides; a class where every rule says `Equal` falls through to the
/// next; anything else renders the pair incomparable unless a later class
/// decides — matching the paper's "assign priorities to break alternating
/// cycles" semantics (§5.2).
pub fn compare_all(
    rules: &[ValueOrderingRule],
    a_tag: &str,
    b_tag: &str,
    a_fields: &dyn Fn(&str) -> Option<AttrValue>,
    b_fields: &dyn Fn(&str) -> Option<AttrValue>,
) -> VorOutcome {
    if rules.is_empty() {
        return VorOutcome::Equal;
    }
    let mut classes: Vec<u32> = rules.iter().map(|r| r.priority).collect();
    classes.sort_unstable();
    classes.dedup();
    let mut saw_noinfo = false;
    for class in classes {
        let mut prefer_a = false;
        let mut prefer_b = false;
        for rule in rules.iter().filter(|r| r.priority == class) {
            match compare(rule, a_tag, b_tag, a_fields, b_fields) {
                RuleCmp::PreferA => prefer_a = true,
                RuleCmp::PreferB => prefer_b = true,
                RuleCmp::Equal => {}
                RuleCmp::NoInfo => saw_noinfo = true,
            }
        }
        match (prefer_a, prefer_b) {
            (true, false) => return VorOutcome::PreferA,
            (false, true) => return VorOutcome::PreferB,
            // Within an unambiguous class this cannot happen on real data;
            // if it does (user skipped static analysis), the pair is
            // incomparable rather than arbitrarily ordered.
            (true, true) => return VorOutcome::Incomparable,
            (false, false) => {}
        }
    }
    if saw_noinfo {
        VorOutcome::Incomparable
    } else {
        VorOutcome::Equal
    }
}
