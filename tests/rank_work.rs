//! Work gate for `≺_V` ranking (ROADMAP item 2: exact, independent of the
//! hardware).
//!
//! The Fig. 5 XMark query under "1 KOR + π5" is the shape that hid a
//! quadratic sort: one KOR gives `K` two values, so hundreds of `person`
//! answers tie on `K` and the final sort decides them on `≺_V` — yet π5
//! reads only `age`, which takes a few dozen values. Ranking must cost
//! what the `D` distinct keys cost, not what the `n` answers cost:
//!
//! * layering a pool compares each ordered pair of its key classes at
//!   most once (`< D²`), and the plan ranks at most one pool per value of
//!   `K` per lane, and one more in the lane merge;
//! * every `topkPrune` that reads `≺_V` compares an incoming answer with
//!   at most `k` list members, twice (prune test, list insert).
//!
//! All-pairs layering over answers costs `n²/4` or more here (127 k to
//! 288 k comparisons at the commit before class layering) — 2 to 20 times
//! the allowance below, which the class-based ranker meets with `C = 1`.

use pimento::profile::{parse_profile, PrefRelRegistry};
use pimento::{Engine, PlanStrategy, SearchOptions, SearchResults};
use std::collections::HashSet;

/// perfbench's `FIG5_QUERY` and its "1 KOR + π5" profile.
const FIG5_QUERY: &str = r#"//person[ftcontains(.//business, "Yes")]"#;
const RULES: &str = r#"pi1: x.tag = person & y.tag = person & ftcontains(x, "male") -> x < y {weight 0.7}
pi5: x.tag = person & y.tag = person & x.age = 33 & y.age != 33 -> x < y
"#;

/// Allowed `≺_V` comparisons per unit of `k·n + D²`.
const C: u64 = 1;

fn full_key(results: &SearchResults) -> Vec<(u32, u32, u64, u64)> {
    results
        .hits
        .iter()
        .map(|h| (h.elem.doc.0, h.elem.node.0, h.k.to_bits(), h.s.to_bits()))
        .collect()
}

#[test]
fn vor_comparisons_follow_distinct_keys_not_answers() {
    let xml = pimento_datagen::xmark::generate(1, 1024 * 1024);
    let engine = Engine::from_xml_docs(&[xml]).expect("corpus parses");
    let profile = parse_profile(RULES, &PrefRelRegistry::new()).expect("rules parse");
    let prepared = engine
        .prepare(FIG5_QUERY, &profile)
        .expect("query prepares");

    // Every answer, to observe n and the D distinct π5 keys (π5 reads the
    // tag, the same on every answer, and `age`).
    let naive = |k: usize| SearchOptions::top(k).with_strategy(PlanStrategy::Naive);
    let all = engine
        .run_prepared_lanes(&prepared, &naive(usize::MAX / 2), 1)
        .expect("query runs");
    let n = all.stats.base_answers;
    assert_eq!(all.hits.len() as u64, n);
    let ages: HashSet<Option<String>> = all
        .hits
        .iter()
        .map(|h| {
            pimento_index::field_value(&engine.db().coll, h.elem, "age").map(|v| format!("{v:?}"))
        })
        .collect();
    let d = ages.len() as u64;
    assert!(
        n > 500 && d < n / 8,
        "n = {n}, D = {d}: the corpus lost its shape"
    );

    for k in [10usize, 100] {
        let reference = engine
            .run_prepared_lanes(&prepared, &naive(k), 1)
            .expect("query runs");
        let allowance = C * (k as u64 * n + d * d);
        assert!(
            allowance < n * n / 4,
            "k = {k}: the allowance must stay below all-pairs layering"
        );
        for lanes in [1usize, 2] {
            let run = engine
                .run_prepared_lanes(&prepared, &SearchOptions::top(k), lanes)
                .expect("query runs");
            assert_eq!(
                full_key(&run),
                full_key(&reference),
                "k = {k}, lanes = {lanes}"
            );
            assert_eq!(run.stats.base_answers, n);
            assert!(
                run.stats.vor_comparisons <= allowance,
                "k = {k}, lanes = {lanes}: {} comparisons, allowance {allowance} \
                 (n = {n}, D = {d})",
                run.stats.vor_comparisons
            );
        }
        assert!(
            reference.stats.vor_comparisons <= allowance,
            "k = {k}, Naive: {} comparisons, allowance {allowance}",
            reference.stats.vor_comparisons
        );
    }
}
