//! The partial-order reproducer (ROADMAP item 2).
//!
//! Under `tests/fixtures/partial_order_pi3.rules`, `≺_V` is a strict
//! partial order that is not a weak order (π3 compares horsepower only
//! within one make and carries no priority). What holds — and is asserted
//! here — is that the one-task plans agree with each other bit for bit.
//! What does not hold yet is independence from the lane count and the
//! segment layout: the merge re-layers a pruned set, and layering is
//! set-dependent. That assertion is committed `#[ignore]`d so the gap has
//! one executable statement for ROADMAP item 2 to close.

use pimento::profile::{parse_profile, PrefRelRegistry, UserProfile};
use pimento::{Engine, PlanStrategy, SearchOptions, SearchResults};

const RULES: &str = include_str!("fixtures/partial_order_pi3.rules");

/// perfbench's `CAR_QUERIES` (perfbench/src/inputs.rs).
const CAR_QUERIES: [&str; 8] = [
    r#"//car[ftcontains(., "good condition")]"#,
    r#"//car[ftcontains(., "good condition") and ./price < 2000]"#,
    r#"//car[./price < 1000]"#,
    r#"//car[ftcontains(., "low mileage")]"#,
    r#"//car[ftcontains(./description, "good condition") and ftcontains(./description, "low mileage")]"#,
    r#"//car[ftcontains(., "american") and ./mileage < 100000]"#,
    r#"//car[ftcontains(., "best bid")]"#,
    r#"//car[./mileage < 50000 and ftcontains(., "good condition")]"#,
];

const K: usize = 10;

/// perfbench's serve corpus at seed 1: 16 dealers of 25 cars.
fn engine() -> Engine {
    let docs: Vec<String> = (0..16u64)
        .map(|i| pimento_datagen::generate_dealer(1_000_003 + i, 25))
        .collect();
    Engine::from_xml_docs(&docs).expect("corpus parses")
}

fn profile(rules: &str) -> UserProfile {
    parse_profile(rules, &PrefRelRegistry::new()).expect("fixture parses")
}

/// The fixture with π3 prioritized below π1 and π2: a lexicographic
/// chain, under which every layout agrees.
fn prioritized_rules() -> String {
    let pi3 = "x.horsepower > y.horsepower -> x < y";
    assert!(RULES.contains(pi3));
    RULES.replace(pi3, &format!("{pi3} {{priority 3}}"))
}

fn full_key(results: &SearchResults) -> Vec<(u32, u32, u64, u64)> {
    results
        .hits
        .iter()
        .map(|h| (h.elem.doc.0, h.elem.node.0, h.k.to_bits(), h.s.to_bits()))
        .collect()
}

fn run(
    engine: &Engine,
    rules: &str,
    query: &str,
    strategy: PlanStrategy,
    lanes: usize,
) -> SearchResults {
    let prepared = engine
        .prepare(query, &profile(rules))
        .expect("query prepares");
    engine
        .run_prepared_lanes(
            &prepared,
            &SearchOptions::top(K).with_strategy(strategy),
            lanes,
        )
        .expect("query runs")
}

#[test]
fn one_task_push_equals_one_task_naive() {
    let engine = engine();
    for query in CAR_QUERIES {
        let push = run(&engine, RULES, query, PlanStrategy::Push, 1);
        let naive = run(&engine, RULES, query, PlanStrategy::Naive, 1);
        assert_eq!(push.lanes.len(), 1, "{query}");
        assert!(!push.hits.is_empty(), "{query}");
        assert_eq!(full_key(&push), full_key(&naive), "{query}");
    }
}

/// Every (segments, lanes) layout against the one-task Push ranking.
fn assert_layout_independent(rules: &str) {
    let engine = engine();
    for query in CAR_QUERIES {
        let one_task = full_key(&run(&engine, rules, query, PlanStrategy::Push, 1));
        for segments in [1usize, 2, 4] {
            let sharded = engine.reshard(segments).expect("reshard");
            for lanes in [1usize, 2, 4] {
                assert_eq!(
                    one_task,
                    full_key(&run(&sharded, rules, query, PlanStrategy::Push, lanes)),
                    "{query}: {segments} segments, {lanes} lanes"
                );
            }
        }
    }
}

#[test]
fn prioritized_pi3_ranks_the_same_under_every_layout() {
    assert_layout_independent(&prioritized_rules());
}

#[test]
#[ignore = "ROADMAP item 2: merge re-layers a pruned set under partial ≺_V"]
fn ranking_is_independent_of_lanes_and_segments() {
    assert_layout_independent(RULES);
}
