//! Answer ranking: the `K, V, S` / `V, K, S` orders of paper §3.3.
//!
//! `K` and `S` are numeric (descending). `V` is the strict partial order
//! `≺_V` induced by the value-based ordering rules; inside a ranking it is
//! realized by **dominance layering**: within a tie group, answers no
//! other remaining answer is preferred to form layer 0, then layer 1, and
//! so on — a deterministic linear extension of `≺_V`. Ties and
//! incomparabilities fall through to the next component, and `(doc,
//! start)` breaks final ties so every plan produces the same output.
//!
//! Layers are computed over the pool's distinct *key classes*, not over
//! its answers (see [`RankContext`]'s `layer` and DESIGN.md §8): the cost
//! follows the number of distinct VOR keys, which a tie group of
//! thousands of answers typically has a few dozen of.

use crate::answer::{Answer, VorKey};
use crate::context::ExecStats;
use pimento_profile::{
    AttrValue, CompiledVors, KeyClass, RankOrder, ValueOrderingRule, VorOutcome,
};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Shared ranking context: the VOR set (both as source rules and compiled
/// into id-based tables) and the configured rank order.
#[derive(Debug, Clone, Default)]
pub struct RankContext {
    /// Value-based ordering rules (with priorities) — the source form,
    /// kept for plan explanation and result annotation.
    pub vors: Vec<ValueOrderingRule>,
    /// `K,V,S` or `V,K,S`.
    pub order: RankOrder,
    /// The rules compiled for slot/id-based `≺_V` — see
    /// [`pimento_profile::CompiledVors`].
    compiled: CompiledVors,
}

impl RankContext {
    /// Context with no VORs (V compares Equal everywhere).
    pub fn new(vors: Vec<ValueOrderingRule>, order: RankOrder) -> Arc<Self> {
        let compiled = CompiledVors::compile(&vors);
        Arc::new(RankContext {
            vors,
            order,
            compiled,
        })
    }

    /// Sorted, deduplicated attribute names the VOR set reads; slot `i`
    /// of a [`VorKey`] holds the value of `vor_attrs()[i]`.
    pub fn vor_attrs(&self) -> &[String] {
        self.compiled.attrs()
    }

    /// Compile an answer's `≺_V` key. `get(slot, attr)` supplies the
    /// answer's value for each attribute in [`Self::vor_attrs`] order.
    pub fn make_key(&self, tag: &str, get: impl FnMut(usize, &str) -> Option<AttrValue>) -> VorKey {
        self.compiled.make_key(tag, get)
    }

    /// Does `key` carry a value for `attr`?
    pub fn key_has(&self, key: &VorKey, attr: &str) -> bool {
        self.compiled.key_has(key, attr)
    }

    /// `≺_V` on two answers. Answers whose VOR key has not been fetched
    /// yet compare Equal when there are no rules, Incomparable otherwise.
    pub fn vor_compare(&self, a: &Answer, b: &Answer, stats: &mut ExecStats) -> VorOutcome {
        if self.vors.is_empty() {
            return VorOutcome::Equal;
        }
        stats.vor_comparisons += 1;
        match (&a.vor, &b.vor) {
            (Some(ka), Some(kb)) => self.compiled.compare(ka, kb),
            _ => VorOutcome::Incomparable,
        }
    }

    /// Full-materialization ranking: order `answers` by the configured
    /// order, deterministically.
    pub fn rank(&self, answers: &mut Vec<Answer>, stats: &mut ExecStats) {
        match self.order {
            RankOrder::Kvs => {
                sort_numeric_desc(answers, |a| a.k);
                // Layer V within K-tie groups, then S within layers.
                let mut out = Vec::with_capacity(answers.len());
                for group in split_groups(std::mem::take(answers), |a| a.k) {
                    out.extend(self.layer_and_sort_s(group, stats));
                }
                *answers = out;
            }
            RankOrder::Vks => {
                // Layer V over everything, then K desc, then S desc.
                let layered = self.layer(std::mem::take(answers), stats);
                let mut out = Vec::new();
                for mut layer in layered {
                    layer.sort_by(|a, b| {
                        cmp_f64_desc(a.k, b.k)
                            .then_with(|| cmp_f64_desc(a.s, b.s))
                            .then_with(|| a.tiebreak().cmp(&b.tiebreak()))
                    });
                    out.extend(layer);
                }
                *answers = out;
            }
        }
    }

    fn layer_and_sort_s(&self, group: Vec<Answer>, stats: &mut ExecStats) -> Vec<Answer> {
        let mut out = Vec::with_capacity(group.len());
        for mut layer in self.layer(group, stats) {
            layer.sort_by(|a, b| {
                cmp_f64_desc(a.s, b.s).then_with(|| a.tiebreak().cmp(&b.tiebreak()))
            });
            out.extend(layer);
        }
        out
    }

    /// Dominance layering: repeatedly peel off the answers that no
    /// remaining answer is strictly preferred to.
    ///
    /// `≺_V` reads only the keys, and keys of one [`KeyClass`] are
    /// interchangeable in either argument position, so dominance is
    /// decided between the `D` distinct classes of the pool and every
    /// answer lands in its class's layer — the layers the all-pairs
    /// definition yields, in the same pool order within a layer.
    ///
    /// A class is still dominated while its *witness* — the dominator its
    /// last scan stopped at — is unpeeled. Classes before the witness were
    /// found not to dominate it, so when the witness is peeled the scan
    /// resumes behind it instead of restarting: each ordered pair of
    /// classes is compared at most once, `D(D-1)` comparisons however
    /// many layers there are, and the state is one index per class — no
    /// dominance matrix, no edge lists. Answers without a key are
    /// incomparable to everything and form one class that is never
    /// compared.
    fn layer(&self, pool: Vec<Answer>, stats: &mut ExecStats) -> Vec<Vec<Answer>> {
        if self.vors.is_empty() || pool.len() <= 1 {
            return vec![pool];
        }
        let mut prefers = |a: Option<&VorKey>, b: Option<&VorKey>| match (a, b) {
            (Some(a), Some(b)) => {
                stats.vor_comparisons += 1;
                self.compiled.compare(a, b) == VorOutcome::PreferA
            }
            _ => false,
        };
        // Classes are numbered by first appearance in the pool.
        let mut keys: Vec<Option<&VorKey>> = Vec::new();
        let mut ids: HashMap<Option<KeyClass<'_>>, usize> = HashMap::new();
        let class_of: Vec<usize> = pool
            .iter()
            .map(|a| {
                let key = a.vor.as_deref();
                *ids.entry(key.map(KeyClass)).or_insert_with(|| {
                    keys.push(key);
                    keys.len() - 1
                })
            })
            .collect();
        let mut layer_of: Vec<Option<usize>> = vec![None; keys.len()];
        let mut witness: Vec<Option<usize>> = vec![None; keys.len()];
        let mut remaining: Vec<usize> = (0..keys.len()).collect();
        let mut depth = 0;
        while !remaining.is_empty() {
            let mut maximal = Vec::new();
            remaining.retain(|&x| {
                let (Some(&key), Some(seen)) = (keys.get(x), witness.get_mut(x)) else {
                    return false;
                };
                let resume = match *seen {
                    Some(w) if matches!(layer_of.get(w), Some(None)) => return true,
                    Some(w) => w + 1,
                    None => 0,
                };
                *seen = layer_of
                    .iter()
                    .zip(&keys)
                    .enumerate()
                    .skip(resume)
                    .find(|&(j, (peeled, &other))| {
                        j != x && peeled.is_none() && prefers(other, key)
                    })
                    .map(|(j, _)| j);
                if seen.is_none() {
                    maximal.push(x);
                }
                seen.is_some()
            });
            if maximal.is_empty() {
                // Defensive: a preference cycle (only possible if static
                // analysis was skipped on an ambiguous profile) — emit the
                // remainder as one layer rather than looping forever.
                maximal.append(&mut remaining);
            }
            for x in maximal {
                if let Some(layer) = layer_of.get_mut(x) {
                    *layer = Some(depth);
                }
            }
            depth += 1;
        }
        let mut layers: Vec<Vec<Answer>> = (0..depth).map(|_| Vec::new()).collect();
        for (a, class) in pool.into_iter().zip(class_of) {
            let l = layer_of.get(class).copied().flatten().unwrap_or(0);
            if let Some(layer) = layers.get_mut(l) {
                layer.push(a);
            }
        }
        layers
    }
}

/// Descending f64 comparison with total order semantics (NaN never occurs:
/// scores are sums of bounded non-negative terms).
pub fn cmp_f64_desc(a: f64, b: f64) -> Ordering {
    b.partial_cmp(&a).unwrap_or(Ordering::Equal)
}

fn sort_numeric_desc(answers: &mut [Answer], key: impl Fn(&Answer) -> f64) {
    answers
        .sort_by(|a, b| cmp_f64_desc(key(a), key(b)).then_with(|| a.tiebreak().cmp(&b.tiebreak())));
}

/// Split a sorted-by-key vector into maximal runs of equal key.
fn split_groups(answers: Vec<Answer>, key: impl Fn(&Answer) -> f64) -> Vec<Vec<Answer>> {
    let mut groups: Vec<Vec<Answer>> = Vec::new();
    for a in answers {
        match groups.last_mut() {
            Some(g) if g.last().is_some_and(|last| key(last) == key(&a)) => g.push(a),
            _ => groups.push(vec![a]),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_index::{DocId, ElemEntry};
    use pimento_xml::NodeId;
    use std::collections::HashMap;

    fn mk(
        ctx: &RankContext,
        start: u32,
        s: f64,
        k: f64,
        color: Option<&str>,
        mileage: Option<f64>,
    ) -> Answer {
        let elem = ElemEntry {
            doc: DocId(0),
            node: NodeId(start),
            tag: pimento_xml::SymbolId(0),
            start,
            end: start + 1,
            level: 1,
        };
        let mut fields = HashMap::new();
        if let Some(c) = color {
            fields.insert("color".to_string(), AttrValue::Str(c.to_string()));
        }
        if let Some(m) = mileage {
            fields.insert("mileage".to_string(), AttrValue::Num(m));
        }
        let key = ctx.make_key("car", |_, attr| fields.get(attr).cloned());
        Answer {
            elem,
            s,
            k,
            vor: Some(Arc::new(key)),
        }
    }

    fn red_rule() -> ValueOrderingRule {
        ValueOrderingRule::prefer_value("pi1", "car", "color", "red")
    }

    #[test]
    fn kvs_orders_k_first() {
        let ctx = RankContext::new(vec![], RankOrder::Kvs);
        let mut ans = vec![
            mk(&ctx, 1, 0.9, 0.0, None, None),
            mk(&ctx, 2, 0.1, 1.0, None, None),
        ];
        let mut st = ExecStats::default();
        ctx.rank(&mut ans, &mut st);
        assert_eq!(ans[0].elem.start, 2, "higher K wins despite lower S");
    }

    #[test]
    fn kvs_v_breaks_k_ties() {
        let ctx = RankContext::new(vec![red_rule()], RankOrder::Kvs);
        let mut ans = vec![
            mk(&ctx, 1, 0.9, 1.0, Some("blue"), None),
            mk(&ctx, 2, 0.1, 1.0, Some("red"), None),
        ];
        let mut st = ExecStats::default();
        ctx.rank(&mut ans, &mut st);
        assert_eq!(ans[0].elem.start, 2, "red preferred at equal K");
        assert!(st.vor_comparisons > 0);
    }

    #[test]
    fn s_breaks_remaining_ties() {
        let ctx = RankContext::new(vec![red_rule()], RankOrder::Kvs);
        let mut ans = vec![
            mk(&ctx, 1, 0.2, 0.0, Some("red"), None),
            mk(&ctx, 2, 0.8, 0.0, Some("red"), None),
        ];
        let mut st = ExecStats::default();
        ctx.rank(&mut ans, &mut st);
        assert_eq!(ans[0].elem.start, 2);
    }

    #[test]
    fn vks_orders_v_before_k() {
        let ctx = RankContext::new(vec![red_rule()], RankOrder::Vks);
        let mut ans = vec![
            mk(&ctx, 1, 0.0, 5.0, Some("blue"), None),
            mk(&ctx, 2, 0.0, 0.0, Some("red"), None),
        ];
        let mut st = ExecStats::default();
        ctx.rank(&mut ans, &mut st);
        assert_eq!(ans[0].elem.start, 2, "V precedes K in V,K,S");
        // And under K,V,S the blue car with K=5 wins.
        let ctx2 = RankContext::new(vec![red_rule()], RankOrder::Kvs);
        ctx2.rank(&mut ans, &mut st);
        assert_eq!(ans[0].elem.start, 1);
    }

    #[test]
    fn layering_handles_incomparables() {
        // red preferred; two non-red incomparable answers fall in layer 0
        // together with... no: red dominates nothing? π1: red ≺ non-red,
        // so red answers dominate non-red ones.
        let ctx = RankContext::new(vec![red_rule()], RankOrder::Kvs);
        let mut ans = vec![
            mk(&ctx, 1, 0.9, 0.0, Some("blue"), None),
            mk(&ctx, 2, 0.5, 0.0, Some("red"), None),
            mk(&ctx, 3, 0.7, 0.0, Some("green"), None),
        ];
        let mut st = ExecStats::default();
        ctx.rank(&mut ans, &mut st);
        assert_eq!(ans[0].elem.start, 2, "red in layer 0");
        assert_eq!(ans[1].elem.start, 1, "non-red ordered by S within layer 1");
        assert_eq!(ans[2].elem.start, 3);
    }

    #[test]
    fn deterministic_tiebreak() {
        let ctx = RankContext::new(vec![], RankOrder::Kvs);
        let mut ans = vec![
            mk(&ctx, 2, 0.5, 0.0, None, None),
            mk(&ctx, 1, 0.5, 0.0, None, None),
        ];
        let mut st = ExecStats::default();
        ctx.rank(&mut ans, &mut st);
        assert_eq!(ans[0].elem.start, 1, "document order breaks exact ties");
    }

    #[test]
    fn multi_priority_layering() {
        // priority 0: lower mileage; priority 1: red.
        let r1 = ValueOrderingRule::prefer_smaller("m", "car", "mileage").with_priority(0);
        let r2 = red_rule().with_priority(1);
        let ctx = RankContext::new(vec![r1, r2], RankOrder::Kvs);
        let mut ans = vec![
            mk(&ctx, 1, 0.0, 0.0, Some("red"), Some(90.0)),
            mk(&ctx, 2, 0.0, 0.0, Some("blue"), Some(10.0)),
            mk(&ctx, 3, 0.0, 0.0, Some("red"), Some(10.0)),
        ];
        let mut st = ExecStats::default();
        ctx.rank(&mut ans, &mut st);
        assert_eq!(ans[0].elem.start, 3, "low mileage + red");
        assert_eq!(ans[1].elem.start, 2, "low mileage blue");
        assert_eq!(ans[2].elem.start, 1, "high mileage last");
    }

    #[test]
    fn unfetched_vor_keys_are_incomparable() {
        let ctx = RankContext::new(vec![red_rule()], RankOrder::Kvs);
        let mut a = mk(&ctx, 1, 0.0, 0.0, Some("red"), None);
        a.vor = None;
        let b = mk(&ctx, 2, 0.0, 0.0, Some("blue"), None);
        let mut st = ExecStats::default();
        assert_eq!(ctx.vor_compare(&a, &b, &mut st), VorOutcome::Incomparable);
    }
}

#[cfg(test)]
mod class_layering {
    //! `layer` decides dominance between key classes. The all-pairs
    //! definition it replaced is kept here, unchanged, as the oracle:
    //! both must produce the same layers, element for element, on every
    //! pool — partial orders, preference cycles, missing and mixed-type
    //! values, signed zeros, `NaN`, and answers without a key included.

    use super::*;
    use pimento_index::{DocId, ElemEntry};
    use pimento_profile::PrefRel;
    use pimento_tpq::RelOp;
    use pimento_xml::NodeId;
    use proptest::prelude::*;

    /// Dominance layering over answer pairs, one full pass per layer.
    fn layer_pairwise(
        ctx: &RankContext,
        mut pool: Vec<Answer>,
        stats: &mut ExecStats,
    ) -> Vec<Vec<Answer>> {
        if ctx.vors.is_empty() || pool.len() <= 1 {
            return vec![pool];
        }
        let mut layers = Vec::new();
        while !pool.is_empty() {
            let dominated: Vec<bool> = pool
                .iter()
                .enumerate()
                .map(|(i, pi)| {
                    pool.iter().enumerate().any(|(j, pj)| {
                        i != j && ctx.vor_compare(pj, pi, stats) == VorOutcome::PreferA
                    })
                })
                .collect();
            let (rest, maximal): (Vec<_>, Vec<_>) =
                pool.into_iter().zip(dominated).partition(|(_, dom)| *dom);
            let rest: Vec<Answer> = rest.into_iter().map(|(a, _)| a).collect();
            if maximal.is_empty() {
                // A preference cycle: the remainder is one last layer.
                layers.push(rest);
                break;
            }
            layers.push(maximal.into_iter().map(|(a, _)| a).collect());
            pool = rest;
        }
        layers
    }

    /// Rule sets over all three VOR forms.
    fn rules(family: u8) -> Vec<ValueOrderingRule> {
        let colors = PrefRel::new([("red", "black"), ("black", "white"), ("red", "silver")])
            .expect("acyclic");
        match family % 4 {
            // One weak order.
            0 => vec![ValueOrderingRule::prefer_smaller("m", "car", "mileage")],
            // Prioritized forms 1–3 with `equal_attr` and a guard; `same`
            // is not transitive on mixed-type makes, so the last rule can
            // close a preference cycle.
            1 => vec![
                ValueOrderingRule::prefer_value("p1", "car", "color", "red").with_priority(0),
                ValueOrderingRule::prefer_smaller("p2", "car", "mileage")
                    .with_equal_attr("make")
                    .with_priority(1),
                ValueOrderingRule::prefer_order("p3", "car", "color", colors).with_priority(2),
                ValueOrderingRule::prefer_larger("p4", "car", "hp")
                    .with_guard("price", RelOp::Lt, AttrValue::Num(1000.0))
                    .with_priority(2),
                ValueOrderingRule::prefer_larger("p5", "car", "mileage").with_priority(3),
            ],
            // A genuinely partial `prefRel` and nothing else.
            2 => vec![ValueOrderingRule::prefer_order(
                "p3", "car", "color", colors,
            )],
            // One priority class whose rules can disagree: incomparable
            // pairs everywhere.
            _ => vec![
                ValueOrderingRule::prefer_value("p1", "car", "color", "red"),
                ValueOrderingRule::prefer_smaller("p2", "car", "mileage").with_equal_attr("make"),
                ValueOrderingRule::prefer_order("p3", "car", "color", colors),
            ],
        }
    }

    fn text(v: &str) -> Option<AttrValue> {
        Some(AttrValue::Str(v.to_string()))
    }

    /// One answer from six small draws; `distinct` gives every answer its
    /// own mileage, so every key is its own class.
    fn answer(
        ctx: &RankContext,
        i: usize,
        (color, mileage, make, misc, k, s): (u8, u8, u8, u8, u8, u8),
        distinct: bool,
    ) -> Answer {
        let color = match color {
            0 => text("red"),
            1 => text("Black"),
            2 => text("white"),
            3 => text("silver"),
            4 => text("green"), // outside the prefRel domain
            _ => None,
        };
        let mileage = match mileage {
            _ if distinct => Some(AttrValue::Num(i as f64)),
            0 => Some(AttrValue::Num(0.0)),
            1 => Some(AttrValue::Num(-0.0)),
            2 => Some(AttrValue::Num(10.0)),
            3 => text(" 10 "), // string-typed numeric
            4 => text("n/a"),
            5 => text("NaN"), // parses to a float that equals nothing
            6 => Some(AttrValue::Num(90_000.0)),
            _ => None,
        };
        let make = match make {
            0 => text("10"),
            1 => Some(AttrValue::Num(10.0)),
            2 => text("10.0"),
            3 => text("Honda"),
            _ => text("honda"),
        };
        let elem = ElemEntry {
            doc: DocId(0),
            node: NodeId(i as u32),
            tag: pimento_xml::SymbolId(0),
            start: i as u32,
            end: i as u32 + 1,
            level: 1,
        };
        let tag = if misc == 0 { "truck" } else { "car" };
        let key = ctx.make_key(tag, |_, attr| match attr {
            "color" => color.clone(),
            "mileage" => mileage.clone(),
            "make" => make.clone(),
            "hp" => Some(AttrValue::Num(100.0 + f64::from(misc % 3))),
            "price" => Some(AttrValue::Num(if misc % 2 == 0 { 500.0 } else { 1500.0 })),
            _ => None,
        });
        Answer {
            elem,
            s: f64::from(s) / 4.0,
            k: f64::from(k),
            vor: (misc != 1).then(|| Arc::new(key)),
        }
    }

    fn ids(layers: &[Vec<Answer>]) -> Vec<Vec<(u32, u32)>> {
        layers
            .iter()
            .map(|l| l.iter().map(Answer::tiebreak).collect())
            .collect()
    }

    /// The `K,V,S` / `V,K,S` order spelled out over oracle layers.
    fn rank_pairwise(ctx: &RankContext, mut pool: Vec<Answer>) -> Vec<(u32, u32, u64, u64)> {
        let mut stats = ExecStats::default();
        let by_s = |a: &Answer, b: &Answer| {
            cmp_f64_desc(a.s, b.s).then_with(|| a.tiebreak().cmp(&b.tiebreak()))
        };
        let mut out = Vec::new();
        match ctx.order {
            RankOrder::Kvs => {
                pool.sort_by(|a, b| cmp_f64_desc(a.k, b.k));
                while let Some(first) = pool.first() {
                    let k = first.k;
                    let (group, rest) = pool.into_iter().partition(|a| a.k == k);
                    pool = rest;
                    for mut layer in layer_pairwise(ctx, group, &mut stats) {
                        layer.sort_by(by_s);
                        out.extend(layer);
                    }
                }
            }
            RankOrder::Vks => {
                for mut layer in layer_pairwise(ctx, pool, &mut stats) {
                    layer.sort_by(|a, b| cmp_f64_desc(a.k, b.k).then_with(|| by_s(a, b)));
                    out.extend(layer);
                }
            }
        }
        bits(&out)
    }

    /// Identity and exact scores of a ranking.
    fn bits(answers: &[Answer]) -> Vec<(u32, u32, u64, u64)> {
        answers
            .iter()
            .map(|a| (a.elem.doc.0, a.elem.start, a.k.to_bits(), a.s.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn class_layers_equal_pairwise_layers(
            draws in proptest::collection::vec(
                (0u8..7, 0u8..8, 0u8..5, 0u8..6, 0u8..3, 0u8..4),
                0..48,
            ),
            family in 0u8..4,
            distinct in any::<bool>(),
            vks in any::<bool>(),
        ) {
            let order = if vks { RankOrder::Vks } else { RankOrder::Kvs };
            let ctx = RankContext::new(rules(family), order);
            let pool: Vec<Answer> = draws
                .iter()
                .enumerate()
                .map(|(i, &d)| answer(&ctx, i, d, distinct))
                .collect();
            let mut stats = ExecStats::default();
            let got = ctx.layer(pool.clone(), &mut stats);
            let want = layer_pairwise(&ctx, pool.clone(), &mut ExecStats::default());
            prop_assert_eq!(ids(&got), ids(&want));
            // Each ordered pair of classes at most once.
            let classes: std::collections::HashSet<_> =
                pool.iter().filter_map(|a| a.vor.as_deref().map(KeyClass)).collect();
            let d = classes.len() as u64;
            prop_assert!(stats.vor_comparisons <= d * d.saturating_sub(1), "D = {d}: {stats:?}");

            let mut ranked = pool.clone();
            ctx.rank(&mut ranked, &mut stats);
            prop_assert_eq!(bits(&ranked), rank_pairwise(&ctx, pool));
        }
    }

    #[test]
    fn preference_cycle_ends_in_one_last_layer() {
        // a ≺ b ≺ c by p2 (pairwise-equal makes), c ≺ a by p5 (the makes
        // of a and c differ, so p2 is silent): no class is maximal. The
        // keyless answer is still layer 0 on its own.
        let ctx = RankContext::new(rules(1), RankOrder::Kvs);
        let pool: Vec<Answer> = [(5, 0, 0), (5, 2, 1), (5, 6, 2)]
            .iter()
            .enumerate()
            .map(|(i, &(color, mileage, make))| {
                answer(&ctx, i, (color, mileage, make, 3, 0, 0), false)
            })
            .chain([answer(&ctx, 3, (5, 7, 3, 1, 0, 0), false)])
            .collect();
        let mut stats = ExecStats::default();
        let got = ctx.layer(pool.clone(), &mut stats);
        assert_eq!(ids(&got), vec![vec![(0, 3)], vec![(0, 0), (0, 1), (0, 2)]]);
        assert_eq!(ids(&got), ids(&layer_pairwise(&ctx, pool, &mut stats)));
    }

    #[test]
    fn comparisons_scale_with_classes_not_answers() {
        // 600 answers in 3 classes: one comparison per ordered pair of
        // classes, where all pairs of answers cost hundreds of thousands.
        let ctx = RankContext::new(rules(0), RankOrder::Kvs);
        let pool: Vec<Answer> = (0..600)
            .map(|i| answer(&ctx, i, (5, [0, 2, 6][i % 3], 3, 3, 0, 0), false))
            .collect();
        let mut stats = ExecStats::default();
        let layers = ctx.layer(pool.clone(), &mut stats);
        assert_eq!(layers.iter().map(Vec::len).collect::<Vec<_>>(), [200; 3]);
        assert_eq!(stats.vor_comparisons, 6);
        let mut oracle_stats = ExecStats::default();
        assert_eq!(
            ids(&layers),
            ids(&layer_pairwise(&ctx, pool, &mut oracle_stats))
        );
        assert!(oracle_stats.vor_comparisons > 100_000);
    }
}
