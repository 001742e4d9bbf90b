//! Compiled `≺_V` evaluation over interned per-answer keys.
//!
//! The string-based reference path ([`crate::vor::compare_all`]) re-folds
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
//! The outcome is **bit-identical** to [`crate::vor::compare_all`] by
//! construction (see the equivalence notes on each step and the
//! `agreement` tests below): ASCII-lowered memcmp ⇔ `eq_ignore_ascii_case`,
//! the `same`/`as_num` coercions are precomputed with the identical
//! trim-and-parse, and every early-`NoInfo` path commutes, so hoisting the
//! guard checks into per-key applicability cannot change the result.

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

    /// Pairwise `≺_V` over the whole set — the compiled
    /// [`crate::vor::compare_all`], with identical priority-class and
    /// aggregation semantics.
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
mod agreement {
    //! The compiled path must agree with the string-based reference on
    //! every pair — exercised over the paper's car-sale scenario with all
    //! three rule forms, guards, equal-attrs, priorities, and missing,
    //! mixed-type, and out-of-domain values.

    use super::*;
    use crate::prefrel::PrefRel;
    use crate::vor::compare_all;
    use std::collections::HashMap;

    fn rules() -> Vec<ValueOrderingRule> {
        vec![
            // π1: prefer red cars (form 1).
            ValueOrderingRule::prefer_value("pi1", "car", "color", "red").with_priority(0),
            // π2: prefer lower mileage (form 2), same make only.
            ValueOrderingRule::prefer_smaller("pi2", "car", "mileage")
                .with_equal_attr("make")
                .with_priority(1),
            // π3: prefer along the paper's color partial order (form 3).
            ValueOrderingRule::prefer_order(
                "pi3",
                "car",
                "color",
                PrefRel::new([("red", "black"), ("black", "white"), ("red", "silver")]).unwrap(),
            )
            .with_priority(2),
            // π4: among cheap cars, prefer higher horsepower (guarded form 2).
            ValueOrderingRule::prefer_larger("pi4", "car", "hp")
                .with_guard("price", RelOp::Lt, AttrValue::Num(1000.0))
                .with_priority(2),
        ]
    }

    /// The car-sale answer domain: every combination of color (incl.
    /// out-of-domain and missing), make, mileage (incl. string-typed
    /// numerics), hp, and price.
    fn answers() -> Vec<(String, HashMap<String, AttrValue>)> {
        let colors: [Option<AttrValue>; 6] = [
            Some(AttrValue::Str("red".into())),
            Some(AttrValue::Str("Black".into())),
            Some(AttrValue::Str("white".into())),
            Some(AttrValue::Str("silver".into())),
            Some(AttrValue::Str("green".into())), // outside the prefRel domain
            None,
        ];
        let mileages: [Option<AttrValue>; 4] = [
            Some(AttrValue::Num(10_000.0)),
            Some(AttrValue::Str(" 50000 ".into())), // string-typed numeric
            Some(AttrValue::Num(90_000.0)),
            None,
        ];
        let mut out = Vec::new();
        for (ci, color) in colors.iter().enumerate() {
            for (mi, mileage) in mileages.iter().enumerate() {
                let mut fields = HashMap::new();
                if let Some(c) = color {
                    fields.insert("color".to_string(), c.clone());
                }
                if let Some(m) = mileage {
                    fields.insert("mileage".to_string(), m.clone());
                }
                fields.insert(
                    "make".to_string(),
                    AttrValue::Str(if ci % 2 == 0 {
                        "Honda".into()
                    } else {
                        "honda".into()
                    }),
                );
                fields.insert(
                    "hp".to_string(),
                    AttrValue::Num(100.0 + (ci * 4 + mi) as f64),
                );
                fields.insert(
                    "price".to_string(),
                    AttrValue::Num(if mi % 2 == 0 { 500.0 } else { 1500.0 }),
                );
                let tag = if ci == 5 { "truck" } else { "car" };
                out.push((tag.to_string(), fields));
            }
        }
        out
    }

    #[test]
    fn compiled_agrees_with_reference_on_full_domain() {
        let rules = rules();
        let compiled = CompiledVors::compile(&rules);
        let answers = answers();
        let keys: Vec<CompiledKey> = answers
            .iter()
            .map(|(tag, fields)| compiled.make_key(tag, |_, attr| fields.get(attr).cloned()))
            .collect();
        let mut checked = 0usize;
        for (i, (ta, fa)) in answers.iter().enumerate() {
            for (j, (tb, fb)) in answers.iter().enumerate() {
                let want = compare_all(&rules, ta, tb, &|k| fa.get(k).cloned(), &|k| {
                    fb.get(k).cloned()
                });
                let got = compiled.compare(&keys[i], &keys[j]);
                assert_eq!(got, want, "pair {i}/{j}: {ta:?} vs {tb:?}");
                checked += 1;
            }
        }
        assert_eq!(checked, answers.len() * answers.len());
    }

    fn class_hash(k: &CompiledKey) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        KeyClass(k).hash(&mut h);
        h.finish()
    }

    #[test]
    fn keys_of_one_class_are_interchangeable() {
        // The class laws ranking relies on: same class ⇒ same hash and
        // the same `compare` outcome against every third key, in both
        // argument positions; and a key is never preferred to itself.
        // Each domain answer is keyed twice, and the float corner cases
        // get keys of their own.
        let rules = rules();
        let compiled = CompiledVors::compile(&rules);
        let mut keys: Vec<CompiledKey> = answers()
            .iter()
            .chain(answers().iter())
            .map(|(tag, fields)| compiled.make_key(tag, |_, attr| fields.get(attr).cloned()))
            .collect();
        let corner = |mileage: AttrValue| {
            compiled.make_key("car", |_, attr| match attr {
                "mileage" => Some(mileage.clone()),
                "make" => Some(AttrValue::Str("honda".into())),
                _ => None,
            })
        };
        for m in [0.0, -0.0, f64::NAN, 10_000.0] {
            keys.push(corner(AttrValue::Num(m)));
            keys.push(corner(AttrValue::Num(m)));
        }
        keys.push(corner(AttrValue::Str("NaN".into())));
        keys.push(corner(AttrValue::Str("10000".into())));

        let mut same_class_pairs = 0usize;
        for (i, a) in keys.iter().enumerate() {
            assert!(
                KeyClass(a) == KeyClass(a),
                "key {i}: reflexive, NaN included"
            );
            // Members of one class never dominate one another.
            assert_ne!(compiled.compare(a, a), VorOutcome::PreferA, "key {i}");
            for (j, b) in keys.iter().enumerate() {
                if i == j || KeyClass(a) != KeyClass(b) {
                    continue;
                }
                same_class_pairs += 1;
                assert_eq!(class_hash(a), class_hash(b), "keys {i}/{j}");
                for (t, c) in keys.iter().enumerate() {
                    assert_eq!(
                        compiled.compare(a, c),
                        compiled.compare(b, c),
                        "{i}/{j} vs {t}"
                    );
                    assert_eq!(
                        compiled.compare(c, a),
                        compiled.compare(c, b),
                        "{t} vs {i}/{j}"
                    );
                }
            }
        }
        assert!(same_class_pairs >= 2 * answers().len() + 8);
        // Bitwise, not numeric: the zeros differ, and a number is not the
        // string that parses to it, although `compare` treats both alike.
        let class_eq = |a: AttrValue, b: AttrValue| KeyClass(&corner(a)) == KeyClass(&corner(b));
        assert!(!class_eq(AttrValue::Num(0.0), AttrValue::Num(-0.0)));
        assert!(!class_eq(
            AttrValue::Num(10_000.0),
            AttrValue::Str("10000".into())
        ));
        assert!(!class_eq(
            AttrValue::Num(f64::NAN),
            AttrValue::Str("NaN".into())
        ));
    }

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
