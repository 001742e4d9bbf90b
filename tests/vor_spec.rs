//! `≺_V` as the specification states it (`spec::vor`), and the compiled
//! comparator the engine ranks with held to it.
//!
//! * Rule-level cases: each of the paper's three VOR forms, missing
//!   values, tag mismatch, equal-attrs and guards.
//! * Priority classes: lexicographic order across classes, ties, and a
//!   conflict inside one class.
//! * Laws: antisymmetry, transitivity under full priorities, reflexive
//!   equality.
//! * Agreement: `CompiledVors::compare` equals `spec::vor::compare_all` on
//!   every ordered pair of a 24-answer car-sale domain, and keys of one
//!   `KeyClass` are interchangeable under it.

mod spec;

use pimento::profile::{
    AttrValue, CompiledKey, CompiledVors, KeyClass, PrefRel, RuleCmp, ValueOrderingRule, VorOutcome,
};
use pimento::tpq::RelOp;
use proptest::prelude::*;
use spec::vor::{compare, compare_all};
use std::collections::HashMap;

fn fields(pairs: &[(&str, AttrValue)]) -> HashMap<String, AttrValue> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

fn getter(m: &HashMap<String, AttrValue>) -> impl Fn(&str) -> Option<AttrValue> + '_ {
    move |k| m.get(k).cloned()
}

fn s(v: &str) -> AttrValue {
    AttrValue::Str(v.to_string())
}

fn n(v: f64) -> AttrValue {
    AttrValue::Num(v)
}

/// One rule on two `car` answers.
fn car_cmp(
    rule: &ValueOrderingRule,
    a: &HashMap<String, AttrValue>,
    b: &HashMap<String, AttrValue>,
) -> RuleCmp {
    compare(rule, "car", "car", &getter(a), &getter(b))
}

#[test]
fn pi1_red_cars_preferred() {
    let pi1 = ValueOrderingRule::prefer_value("pi1", "car", "color", "red");
    let red = fields(&[("color", s("red"))]);
    let blue = fields(&[("color", s("blue"))]);
    assert_eq!(car_cmp(&pi1, &red, &blue), RuleCmp::PreferA);
    assert_eq!(car_cmp(&pi1, &blue, &red), RuleCmp::PreferB);
    assert_eq!(car_cmp(&pi1, &red, &red), RuleCmp::Equal);
    assert_eq!(car_cmp(&pi1, &blue, &blue), RuleCmp::Equal);
}

#[test]
fn missing_attr_counts_as_not_preferred_in_form1() {
    let pi1 = ValueOrderingRule::prefer_value("pi1", "car", "color", "red");
    let red = fields(&[("color", s("red"))]);
    let none = fields(&[]);
    assert_eq!(car_cmp(&pi1, &red, &none), RuleCmp::PreferA);
    assert_eq!(car_cmp(&pi1, &none, &none), RuleCmp::Equal);
}

#[test]
fn pi2_lower_mileage_preferred() {
    let pi2 = ValueOrderingRule::prefer_smaller("pi2", "car", "mileage");
    let lo = fields(&[("mileage", n(10_000.0))]);
    let hi = fields(&[("mileage", n(90_000.0))]);
    assert_eq!(car_cmp(&pi2, &lo, &hi), RuleCmp::PreferA);
    assert_eq!(car_cmp(&pi2, &hi, &lo), RuleCmp::PreferB);
    assert_eq!(car_cmp(&pi2, &lo, &lo), RuleCmp::Equal);
    let missing = fields(&[]);
    assert_eq!(car_cmp(&pi2, &lo, &missing), RuleCmp::NoInfo);
}

#[test]
fn pi3_same_make_higher_hp() {
    let pi3 = ValueOrderingRule::prefer_larger("pi3", "car", "hp").with_equal_attr("make");
    let strong = fields(&[("make", s("Honda")), ("hp", n(200.0))]);
    let weak = fields(&[("make", s("honda")), ("hp", n(120.0))]);
    let other = fields(&[("make", s("Ford")), ("hp", n(500.0))]);
    assert_eq!(car_cmp(&pi3, &strong, &weak), RuleCmp::PreferA);
    // different make: common conditions fail
    assert_eq!(car_cmp(&pi3, &strong, &other), RuleCmp::NoInfo);
}

#[test]
fn tag_mismatch_is_noinfo() {
    let pi1 = ValueOrderingRule::prefer_value("pi1", "car", "color", "red");
    let red = fields(&[("color", s("red"))]);
    assert_eq!(
        compare(&pi1, "truck", "car", &getter(&red), &getter(&red)),
        RuleCmp::NoInfo
    );
}

#[test]
fn preference_order_form() {
    let order = PrefRel::chain(&["red", "black", "white"]);
    let r = ValueOrderingRule::prefer_order("po", "car", "color", order);
    let red = fields(&[("color", s("red"))]);
    let black = fields(&[("color", s("black"))]);
    let green = fields(&[("color", s("green"))]);
    assert_eq!(car_cmp(&r, &red, &black), RuleCmp::PreferA);
    assert_eq!(car_cmp(&r, &black, &red), RuleCmp::PreferB);
    assert_eq!(car_cmp(&r, &red, &green), RuleCmp::NoInfo);
    assert_eq!(car_cmp(&r, &red, &red), RuleCmp::Equal);
}

#[test]
fn guards_must_hold_on_both() {
    let r = ValueOrderingRule::prefer_smaller("g", "car", "mileage").with_guard(
        "price",
        RelOp::Lt,
        n(1000.0),
    );
    let cheap_lo = fields(&[("price", n(500.0)), ("mileage", n(10.0))]);
    let cheap_hi = fields(&[("price", n(900.0)), ("mileage", n(90.0))]);
    let pricey = fields(&[("price", n(5000.0)), ("mileage", n(1.0))]);
    assert_eq!(car_cmp(&r, &cheap_lo, &cheap_hi), RuleCmp::PreferA);
    assert_eq!(car_cmp(&r, &cheap_lo, &pricey), RuleCmp::NoInfo);
}

#[test]
fn compare_all_priority_lexicographic() {
    // priority 0: lower mileage; priority 1: red color.
    let pi2 = ValueOrderingRule::prefer_smaller("pi2", "car", "mileage").with_priority(0);
    let pi1 = ValueOrderingRule::prefer_value("pi1", "car", "color", "red").with_priority(1);
    let rules = vec![pi1, pi2];
    let red_hi = fields(&[("color", s("red")), ("mileage", n(90.0))]);
    let blue_lo = fields(&[("color", s("blue")), ("mileage", n(10.0))]);
    // mileage (higher priority class) decides against the red car
    assert_eq!(
        compare_all(&rules, "car", "car", &getter(&red_hi), &getter(&blue_lo)),
        VorOutcome::PreferB
    );
    // equal mileage: color breaks the tie
    let red_eq = fields(&[("color", s("red")), ("mileage", n(10.0))]);
    assert_eq!(
        compare_all(&rules, "car", "car", &getter(&red_eq), &getter(&blue_lo)),
        VorOutcome::PreferA
    );
}

#[test]
fn compare_all_equal_and_incomparable() {
    let pi2 = ValueOrderingRule::prefer_smaller("pi2", "car", "mileage");
    let rules = vec![pi2];
    let a = fields(&[("mileage", n(10.0))]);
    let b = fields(&[("mileage", n(10.0))]);
    assert_eq!(
        compare_all(&rules, "car", "car", &getter(&a), &getter(&b)),
        VorOutcome::Equal
    );
    let missing = fields(&[]);
    assert_eq!(
        compare_all(&rules, "car", "car", &getter(&a), &getter(&missing)),
        VorOutcome::Incomparable
    );
    assert_eq!(
        compare_all(&[], "car", "car", &getter(&a), &getter(&b)),
        VorOutcome::Equal
    );
}

#[test]
fn compare_all_same_class_conflict_is_incomparable() {
    // Ambiguous pair evaluated without priority separation: red car
    // with high mileage vs non-red with low mileage.
    let pi1 = ValueOrderingRule::prefer_value("pi1", "car", "color", "red");
    let pi2 = ValueOrderingRule::prefer_smaller("pi2", "car", "mileage");
    let rules = vec![pi1, pi2];
    let red_hi = fields(&[("color", s("red")), ("mileage", n(90.0))]);
    let blue_lo = fields(&[("color", s("blue")), ("mileage", n(10.0))]);
    assert_eq!(
        compare_all(&rules, "car", "car", &getter(&red_hi), &getter(&blue_lo)),
        VorOutcome::Incomparable
    );
}

/// Three rules in three priority classes: a total preference on cars
/// whose attributes are all present.
fn law_rules() -> Vec<ValueOrderingRule> {
    vec![
        ValueOrderingRule::prefer_smaller("m", "car", "mileage").with_priority(0),
        ValueOrderingRule::prefer_value("c", "car", "color", "red").with_priority(1),
        ValueOrderingRule::prefer_larger("h", "car", "hp").with_priority(2),
    ]
}

fn car(mileage: u32, red: bool, hp: u32) -> HashMap<String, AttrValue> {
    fields(&[
        ("mileage", n(mileage as f64)),
        ("color", s(if red { "red" } else { "blue" })),
        ("hp", n(hp as f64)),
    ])
}

fn law_cmp(a: &HashMap<String, AttrValue>, b: &HashMap<String, AttrValue>) -> VorOutcome {
    compare_all(&law_rules(), "car", "car", &getter(a), &getter(b))
}

proptest! {
    /// ≺_V under full priorities is antisymmetric.
    #[test]
    fn vor_antisymmetric(m1 in 0u32..5, r1 in any::<bool>(), h1 in 0u32..5,
                         m2 in 0u32..5, r2 in any::<bool>(), h2 in 0u32..5) {
        let a = car(m1, r1, h1);
        let b = car(m2, r2, h2);
        let ab = law_cmp(&a, &b);
        let ba = law_cmp(&b, &a);
        match ab {
            VorOutcome::PreferA => prop_assert_eq!(ba, VorOutcome::PreferB),
            VorOutcome::PreferB => prop_assert_eq!(ba, VorOutcome::PreferA),
            VorOutcome::Equal => prop_assert_eq!(ba, VorOutcome::Equal),
            VorOutcome::Incomparable => prop_assert_eq!(ba, VorOutcome::Incomparable),
        }
    }

    /// ≺_V under full (totally ordering) priorities on totally-valued
    /// data is transitive.
    #[test]
    fn vor_transitive(cars in proptest::collection::vec((0u32..4, any::<bool>(), 0u32..4), 3)) {
        let a = car(cars[0].0, cars[0].1, cars[0].2);
        let b = car(cars[1].0, cars[1].1, cars[1].2);
        let c = car(cars[2].0, cars[2].1, cars[2].2);
        if law_cmp(&a, &b) == VorOutcome::PreferA && law_cmp(&b, &c) == VorOutcome::PreferA {
            prop_assert_eq!(law_cmp(&a, &c), VorOutcome::PreferA);
        }
    }

    /// Reflexivity: every answer ties with itself.
    #[test]
    fn vor_reflexive_equal(m in 0u32..10, r in any::<bool>(), h in 0u32..10) {
        let a = car(m, r, h);
        prop_assert_eq!(law_cmp(&a, &a), VorOutcome::Equal);
    }
}

/// The paper's car-sale scenario with all three rule forms, guards,
/// equal-attrs and priorities.
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
            let want = compare_all(&rules, ta, tb, &getter(fa), &getter(fb));
            let got = compiled.compare(&keys[i], &keys[j]);
            assert_eq!(got, want, "pair {i}/{j}: {ta:?} vs {tb:?}");
            checked += 1;
        }
    }
    assert_eq!(checked, 24 * 24);
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
