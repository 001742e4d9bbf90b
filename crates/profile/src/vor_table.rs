//! Compiled `≺_V` evaluation over interned per-answer keys.
//!
//! Comparing two answers' raw attribute values rule by rule (the reference
//! definition, kept in the test suite's `tests/spec/vor.rs`) re-folds
//! case, re-parses numbers, and re-normalizes `prefRel` operands on every
//! pairwise comparison — exactly the per-answer work Algorithms 1–3 try to
//! minimize. This module hoists all of that to *key construction time*:
//!
//! * a [`CompiledVors`] precompiles the rule set once per prepared query —
//!   lowered tags, attribute slot indexes, guard constants, and each
//!   form-(3) `prefRel` as a dense id-indexed [`PrefTable`];
//! * a [`CompiledKey`] is built once per answer — attribute values are
//!   case-folded/parsed into [`CVal`]s, guards and tag applicability are
//!   pre-evaluated per rule, and `prefRel` operands are resolved to dense
//!   domain ids;
//! * a pairwise [`CompiledVors::compare`] is then allocation-free: integer
//!   and float compares, memcmp on pre-lowered bytes, and `PrefTable` bit
//!   lookups.
//!
//! The outcome is **bit-identical** to the reference by construction (see
//! the equivalence notes on each step, and `tests/vor_spec.rs`, which
//! checks every pair of a car-sale domain): ASCII-lowered memcmp ⇔
//! `eq_ignore_ascii_case`, the `same`/`as_num` coercions are precomputed
//! with the identical trim-and-parse, and every early-`NoInfo` path
//! commutes, so hoisting the guard checks into per-key applicability
//! cannot change the result.

use crate::prefrel::PrefTable;
use crate::vor::{format_num, AttrValue, PrefOp, RuleCmp, ValueOrderingRule, VorForm, VorOutcome};
use pimento_tpq::RelOp;
use std::collections::HashMap;

/// An attribute value compiled for pairwise comparison: case folding and
/// numeric parsing happen once, here, instead of per comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum CVal {
    /// Numeric value.
    Num(f64),
    /// String value with its comparison views precomputed.
    Str {
        /// ASCII-lowered bytes: memcmp equality ⇔ `eq_ignore_ascii_case`.
        lower: Box<str>,
        /// `s.trim().parse::<f64>()`, the `as_num`/mixed-`same` view.
        parsed: Option<f64>,
    },
}

impl CVal {
    /// Compile an [`AttrValue`].
    pub fn from_attr(v: &AttrValue) -> CVal {
        match v {
            AttrValue::Num(n) => CVal::Num(*n),
            AttrValue::Str(s) => CVal::Str {
                lower: s.to_ascii_lowercase().into_boxed_str(),
                parsed: s.trim().parse().ok(),
            },
        }
    }

    /// Precomputed [`AttrValue::same`]: Num/Num compares floats, Str/Str
    /// compares pre-lowered bytes, mixed compares the pre-parsed view.
    fn same(&self, other: &CVal) -> bool {
        match (self, other) {
            (CVal::Num(a), CVal::Num(b)) => a == b,
            (CVal::Str { lower: a, .. }, CVal::Str { lower: b, .. }) => a == b,
            (CVal::Num(n), CVal::Str { parsed, .. }) | (CVal::Str { parsed, .. }, CVal::Num(n)) => {
                parsed.map(|x| x == *n).unwrap_or(false)
            }
        }
    }

    /// Precomputed [`AttrValue::as_num`].
    fn as_num(&self) -> Option<f64> {
        match self {
            CVal::Num(n) => Some(*n),
            CVal::Str { parsed, .. } => *parsed,
        }
    }

    /// ASCII-lowered [`AttrValue::as_text`] (the form-(3) equality view).
    fn text_lower(&self) -> Box<str> {
        match self {
            CVal::Num(n) => format_num(*n).to_ascii_lowercase().into_boxed_str(),
            CVal::Str { lower, .. } => lower.clone(),
        }
    }
}

/// A symmetric local guard with its constant precompiled.
#[derive(Debug, Clone)]
struct CompiledGuard {
    slot: usize,
    op: RelOp,
    value: CVal,
}

/// The preference head of one compiled rule.
#[derive(Debug, Clone)]
enum CompiledHead {
    /// Form (1): `x.attr = c` preferred. `target` is the compiled constant
    /// (always a string constant, like the reference path's
    /// `AttrValue::Str(value)`).
    EqConst { slot: usize, target: CVal },
    /// Form (2): numeric comparison.
    AttrCompare { slot: usize, op: PrefOp },
    /// Form (3): dense `prefRel` table; `pref_index` names the per-key
    /// slot carrying this rule's resolved operand.
    Preference {
        slot: usize,
        pref_index: usize,
        table: PrefTable,
    },
}

#[derive(Debug, Clone)]
struct CompiledRule {
    /// ASCII-lowered rule tag: memcmp vs. the key's lowered tag replaces
    /// `eq_ignore_ascii_case` on both sides.
    tag_lower: Box<str>,
    equal_slots: Box<[usize]>,
    guards: Box<[CompiledGuard]>,
    head: CompiledHead,
}

/// A VOR set compiled for id-based pairwise evaluation. Build once per
/// prepared query with [`CompiledVors::compile`]; build one
/// [`CompiledKey`] per answer; compare pairs with
/// [`CompiledVors::compare`].
#[derive(Debug, Clone, Default)]
pub struct CompiledVors {
    rules: Box<[CompiledRule]>,
    /// Rule indexes grouped by priority class, classes ascending, input
    /// order within a class — the reference iteration order.
    class_order: Box<[Box<[usize]>]>,
    /// Sorted, deduplicated attribute names across all rules; slot `i` of
    /// every key holds the value of `attrs[i]`.
    attrs: Box<[String]>,
    attr_index: HashMap<String, usize>,
    /// Number of form-(3) rules (= per-key `prefs` slots).
    pref_count: usize,
}

/// A per-answer `≺_V` key: the answer's rule-relevant attribute values
/// compiled into slot order, with per-rule applicability and `prefRel`
/// domain ids resolved up front.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKey {
    tag_lower: Box<str>,
    slots: Box<[Option<CVal>]>,
    /// Per rule: tag matches and every guard holds on this answer.
    applicable: Box<[bool]>,
    /// Per form-(3) rule: the head attribute's resolved operand.
    prefs: Box<[Option<PrefVal>]>,
}

/// A form-(3) operand resolved at key-construction time.
#[derive(Debug, Clone, PartialEq)]
struct PrefVal {
    /// ASCII-lowered `as_text` — the `==_V` equality view.
    text_lower: Box<str>,
    /// Dense id in the rule's [`PrefTable`] domain, `None` when outside
    /// it (an out-of-domain value is never preferred).
    dom: Option<u32>,
}

impl CompiledKey {
    /// The answer's element tag, ASCII-lowered.
    pub fn tag(&self) -> &str {
        &self.tag_lower
    }
}

/// A key viewed under **class** equality: two keys are in one class when
/// every field is identical, floats compared by bit pattern (so `0.0` and
/// `-0.0` are different classes and a `NaN` equals itself, which makes
/// this a true equivalence, unlike the derived `PartialEq`).
/// [`CompiledVors::compare`] is a pure function of the two keys' contents,
/// so keys of one class are interchangeable in either argument position —
/// which is what lets ranking decide `≺_V` once per class instead of once
/// per answer.
#[derive(Debug, Clone, Copy)]
pub struct KeyClass<'a>(pub &'a CompiledKey);

/// A slot as class equality sees it: the lowered text of a string value,
/// and the bit pattern of the float a value is or parses to. Equality and
/// hash both go through this view, so they agree by construction.
fn class_view(slot: &Option<CVal>) -> Option<(Option<&str>, Option<u64>)> {
    slot.as_ref().map(|v| match v {
        CVal::Num(n) => (None, Some(n.to_bits())),
        CVal::Str { lower, parsed } => (Some(&**lower), parsed.map(f64::to_bits)),
    })
}

impl PartialEq for KeyClass<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.0, other.0);
        // `PrefVal` holds no float, so the derived equality is already
        // bitwise on `prefs`.
        a.tag_lower == b.tag_lower
            && a.applicable == b.applicable
            && a.prefs == b.prefs
            && a.slots
                .iter()
                .map(class_view)
                .eq(b.slots.iter().map(class_view))
    }
}

impl Eq for KeyClass<'_> {}

impl std::hash::Hash for KeyClass<'_> {
    /// Hashes the tag and the slot values only: `applicable` and `prefs`
    /// are derived from them at key construction, and a coarser hash is
    /// still consistent with `eq`.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.tag_lower.hash(state);
        for slot in self.0.slots.iter() {
            class_view(slot).hash(state);
        }
    }
}

impl CompiledVors {
    /// Compile a rule set. The rules' input order and priority classes are
    /// preserved exactly (they are semantically significant: within a
    /// class, rules are consulted in input order).
    pub fn compile(rules: &[ValueOrderingRule]) -> CompiledVors {
        let mut attrs: Vec<String> = rules
            .iter()
            .flat_map(|r| r.attrs())
            .map(str::to_string)
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        let attr_index: HashMap<String, usize> = attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), i))
            .collect();
        let slot = |attr: &str| attr_index[attr];

        let mut pref_count = 0usize;
        let compiled: Vec<CompiledRule> = rules
            .iter()
            .map(|r| CompiledRule {
                tag_lower: r.tag.to_ascii_lowercase().into_boxed_str(),
                equal_slots: r.equal_attrs.iter().map(|a| slot(a)).collect(),
                guards: r
                    .guards
                    .iter()
                    .map(|g| CompiledGuard {
                        slot: slot(&g.attr),
                        op: g.op,
                        value: CVal::from_attr(&g.value),
                    })
                    .collect(),
                head: match &r.form {
                    VorForm::EqConst { attr, value } => CompiledHead::EqConst {
                        slot: slot(attr),
                        target: CVal::from_attr(&AttrValue::Str(value.clone())),
                    },
                    VorForm::AttrCompare { attr, op } => CompiledHead::AttrCompare {
                        slot: slot(attr),
                        op: *op,
                    },
                    VorForm::Preference { attr, order } => {
                        let pref_index = pref_count;
                        pref_count += 1;
                        CompiledHead::Preference {
                            slot: slot(attr),
                            pref_index,
                            table: order.compile(),
                        }
                    }
                },
            })
            .collect();

        let mut classes: Vec<u32> = rules.iter().map(|r| r.priority).collect();
        classes.sort_unstable();
        classes.dedup();
        let class_order: Box<[Box<[usize]>]> = classes
            .iter()
            .map(|&class| {
                rules
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.priority == class)
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();

        CompiledVors {
            rules: compiled.into_boxed_slice(),
            class_order,
            attrs: attrs.into_boxed_slice(),
            attr_index,
            pref_count,
        }
    }

    /// The attributes keys of this rule set carry, in slot order (sorted,
    /// deduplicated). The runtime fetches exactly these per answer.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Does `key` carry a value for `attr`? (Introspection for tests and
    /// diagnostics; the hot path goes through slot indexes.)
    pub fn key_has(&self, key: &CompiledKey, attr: &str) -> bool {
        self.attr_index
            .get(attr)
            .is_some_and(|&i| key.slots[i].is_some())
    }

    /// Build an answer's key. `get` resolves attribute names to values;
    /// it is called once per attribute in [`CompiledVors::attrs`] order
    /// (slot order), which lets callers pre-resolve by index.
    pub fn make_key(
        &self,
        tag: &str,
        mut get: impl FnMut(usize, &str) -> Option<AttrValue>,
    ) -> CompiledKey {
        let slots: Box<[Option<CVal>]> = self
            .attrs
            .iter()
            .enumerate()
            .map(|(i, attr)| get(i, attr).map(|v| CVal::from_attr(&v)))
            .collect();
        let tag_lower = tag.to_ascii_lowercase().into_boxed_str();
        let applicable: Box<[bool]> = self
            .rules
            .iter()
            .map(|r| r.tag_lower == tag_lower && r.guards.iter().all(|g| guard_holds(g, &slots)))
            .collect();
        let mut prefs = vec![None; self.pref_count].into_boxed_slice();
        for r in self.rules.iter() {
            if let CompiledHead::Preference {
                slot,
                pref_index,
                table,
            } = &r.head
            {
                prefs[*pref_index] = slots[*slot].as_ref().map(|v| {
                    let text_lower = v.text_lower();
                    let dom = table.id(&text_lower);
                    PrefVal { text_lower, dom }
                });
            }
        }
        CompiledKey {
            tag_lower,
            slots,
            applicable,
            prefs,
        }
    }

    /// One rule on a pair of keys — the compiled [`ValueOrderingRule::compare`].
    fn rule_cmp(&self, ri: usize, a: &CompiledKey, b: &CompiledKey) -> RuleCmp {
        // Common conditions: tag + symmetric guards were pre-evaluated per
        // key; every failing branch returns NoInfo in the reference too,
        // so checking them first cannot change the outcome.
        if !a.applicable[ri] || !b.applicable[ri] {
            return RuleCmp::NoInfo;
        }
        let r = &self.rules[ri];
        for &slot in r.equal_slots.iter() {
            match (&a.slots[slot], &b.slots[slot]) {
                (Some(va), Some(vb)) if va.same(vb) => {}
                _ => return RuleCmp::NoInfo,
            }
        }
        match &r.head {
            CompiledHead::EqConst { slot, target } => {
                let a_has = a.slots[*slot]
                    .as_ref()
                    .map(|v| v.same(target))
                    .unwrap_or(false);
                let b_has = b.slots[*slot]
                    .as_ref()
                    .map(|v| v.same(target))
                    .unwrap_or(false);
                match (a_has, b_has) {
                    (true, false) => RuleCmp::PreferA,
                    (false, true) => RuleCmp::PreferB,
                    (true, true) | (false, false) => RuleCmp::Equal,
                }
            }
            CompiledHead::AttrCompare { slot, op } => {
                let (Some(va), Some(vb)) = (&a.slots[*slot], &b.slots[*slot]) else {
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
            CompiledHead::Preference {
                pref_index, table, ..
            } => {
                let (Some(pa), Some(pb)) = (&a.prefs[*pref_index], &b.prefs[*pref_index]) else {
                    return RuleCmp::NoInfo;
                };
                if pa.text_lower == pb.text_lower {
                    return RuleCmp::Equal;
                }
                match (pa.dom, pb.dom) {
                    (Some(ia), Some(ib)) if table.prefers_ids(ia, ib) => RuleCmp::PreferA,
                    (Some(ia), Some(ib)) if table.prefers_ids(ib, ia) => RuleCmp::PreferB,
                    _ => RuleCmp::NoInfo,
                }
            }
        }
    }

    /// Pairwise `≺_V` over the whole set — the compiled form of the
    /// reference `≺_V` in `tests/spec/vor.rs`, with identical
    /// priority-class and aggregation semantics.
    pub fn compare(&self, a: &CompiledKey, b: &CompiledKey) -> VorOutcome {
        if self.rules.is_empty() {
            return VorOutcome::Equal;
        }
        let mut saw_noinfo = false;
        for class in self.class_order.iter() {
            let mut prefer_a = false;
            let mut prefer_b = false;
            for &ri in class.iter() {
                match self.rule_cmp(ri, a, b) {
                    RuleCmp::PreferA => prefer_a = true,
                    RuleCmp::PreferB => prefer_b = true,
                    RuleCmp::Equal => {}
                    RuleCmp::NoInfo => saw_noinfo = true,
                }
            }
            match (prefer_a, prefer_b) {
                (true, false) => return VorOutcome::PreferA,
                (false, true) => return VorOutcome::PreferB,
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
}

fn guard_holds(g: &CompiledGuard, slots: &[Option<CVal>]) -> bool {
    let Some(v) = &slots[g.slot] else {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rule_set_is_equal() {
        let compiled = CompiledVors::compile(&[]);
        let k = compiled.make_key("car", |_, _| None);
        assert_eq!(compiled.compare(&k, &k), VorOutcome::Equal);
        assert!(compiled.attrs().is_empty());
    }

    #[test]
    fn key_introspection() {
        let rules = vec![ValueOrderingRule::prefer_value(
            "pi1", "car", "color", "red",
        )];
        let compiled = CompiledVors::compile(&rules);
        let k = compiled.make_key("Car", |_, attr| {
            (attr == "color").then(|| AttrValue::Str("red".into()))
        });
        assert_eq!(k.tag(), "car");
        assert!(compiled.key_has(&k, "color"));
        assert!(!compiled.key_has(&k, "mileage"));
    }
}
