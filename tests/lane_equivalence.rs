//! Lane-executor equivalence: whatever the segment layout and the lane
//! count, the one executor must return hits, scores, and order
//! **bit-identical** to the one-task plan (monolithic corpus, one lane:
//! the plain plan with the positional final cut) — for every plan
//! strategy, KOR application order, and rank order, on the paper's
//! running example and on XMark-like corpora.
//!
//! The matrix drives [`Engine::run_prepared_lanes`], the executor's one
//! explicit-lane-count entry point, so real multi-lane merging is
//! exercised even on single-core CI machines (the public `threads` knob
//! clamps to the machine). A property test additionally drives
//! `reshard_at` with random segment boundaries: no partition of the
//! corpus may change the survivor set.
//!
//! Every profile here yields the same ranking under every partition; the
//! genuinely partial-order case that does not is `tests/partial_order.rs`.

use pimento::profile::{
    Atom, KeywordOrderingRule, RankOrder, ScopingRule, UserProfile, ValueOrderingRule,
};
use pimento::{Engine, KorOrder, PlanStrategy, SearchOptions, SearchResults};
use pimento_ingest::SegmentStore;
use proptest::prelude::*;

/// The paper's dealer corpus, one car per document so doc-range splits
/// have something to split.
fn cars_docs() -> Vec<String> {
    [
        "<car><description>Powerful car. I am selling my 2001 car at the best bid. It is in good condition as I was the only driver. I used it to go to work in NYC.</description><date>2001</date><price>500</price><owner>John Smith</owner><horsepower>200</horsepower></car>",
        "<car><description>Low mileage. Bought on 11/2005. Eager seller. good condition</description><color>red</color><horsepower>120</horsepower><mileage>50.000</mileage><price>500</price><location>NYC</location></car>",
        "<car><description>american classic in good condition</description><price>1500</price><color>blue</color><mileage>90000</mileage></car>",
        "<car><description>rusty</description><price>200</price></car>",
        "<car><description>good condition, best bid accepted, garaged in NYC</description><price>900</price><color>red</color></car>",
        "<car><description>fixer-upper, low mileage</description><price>300</price><color>red</color></car>",
    ]
    .iter()
    .map(|car| format!("<dealer>{car}</dealer>"))
    .collect()
}

const CARS_QUERY: &str = r#"//car[./description[ftcontains(., "good condition") and ftcontains(., "low mileage")] and ./price < 2000]"#;

/// The paper's running-example profile: ρ2/ρ3 scoping, π1 VOR, π4/π5 KORs.
fn paper_profile() -> UserProfile {
    UserProfile::new()
        .with_scoping(ScopingRule::add(
            "rho2",
            vec![
                Atom::pc("car", "description"),
                Atom::ft("description", "good condition"),
            ],
            vec![Atom::ft("description", "american")],
        ))
        .with_scoping(ScopingRule::delete(
            "rho3",
            vec![
                Atom::pc("car", "description"),
                Atom::ft("description", "good condition"),
            ],
            vec![Atom::ft("description", "low mileage")],
        ))
        .with_vor(ValueOrderingRule::prefer_value(
            "pi1", "car", "color", "red",
        ))
        .with_kor(KeywordOrderingRule::weighted("pi4", "car", "best bid", 2.0))
        .with_kor(KeywordOrderingRule::weighted("pi5", "car", "NYC", 1.0))
}

fn xmark_docs() -> Vec<String> {
    (0..12)
        .map(|seed| pimento_datagen::xmark::generate(seed, 24 * 1024))
        .collect()
}

const XMARK_QUERY: &str = r#"//person[ftcontains(./profile/business, "Yes")]"#;

fn xmark_profile() -> UserProfile {
    UserProfile::new()
        .with_kor(KeywordOrderingRule::weighted("g", "person", "male", 1.0))
        .with_kor(KeywordOrderingRule::weighted(
            "c",
            "person",
            "United States",
            2.0,
        ))
        .with_kor(KeywordOrderingRule::weighted("e", "person", "College", 0.5))
        .with_kor(KeywordOrderingRule::weighted("t", "person", "Phoenix", 1.5))
        .with_vor(ValueOrderingRule::prefer_value("a", "person", "age", "33"))
}

/// Everything the equivalence claim covers: identity, both scores (as
/// bits — "close" is not "equal"), and position.
fn full_key(results: &SearchResults) -> Vec<(u32, u32, u64, u64)> {
    results
        .hits
        .iter()
        .map(|h| (h.elem.doc.0, h.elem.node.0, h.k.to_bits(), h.s.to_bits()))
        .collect()
}

/// The matrix: 4 strategies × 3 KOR orders × both rank orders × segments
/// {1, 2, 4, 8} × lanes {1, 2, 4, 8}, each cell against the one-task run.
fn assert_lane_equivalent(docs: &[String], query: &str, profile: &UserProfile, k: usize) {
    let engine = Engine::from_xml_docs(docs).unwrap();
    let layouts: Vec<Engine> = [1usize, 2, 4, 8]
        .iter()
        .map(|&segments| engine.reshard(segments).unwrap())
        .collect();
    for order in [RankOrder::Kvs, RankOrder::Vks] {
        let profile = profile.clone().with_rank_order(order);
        let prepared = engine.prepare(query, &profile).unwrap();
        for strategy in PlanStrategy::all() {
            for kor_order in [
                KorOrder::AsGiven,
                KorOrder::HighestWeightFirst,
                KorOrder::LowestWeightFirst,
            ] {
                let opts = SearchOptions {
                    kor_order,
                    ..SearchOptions::top(k).with_strategy(strategy)
                };
                let one_task = engine.run_prepared_lanes(&prepared, &opts, 1).unwrap();
                assert_eq!(one_task.lanes.len(), 1);
                assert!(
                    !one_task.explain.starts_with("lanes("),
                    "{}",
                    one_task.explain
                );
                for sharded in &layouts {
                    let segments = sharded.shard_count();
                    let prepared = sharded.prepare(query, &profile).unwrap();
                    for lanes in [1usize, 2, 4, 8] {
                        let res = sharded.run_prepared_lanes(&prepared, &opts, lanes).unwrap();
                        let label = format!(
                            "{} / {kor_order:?} / {order:?} / {segments} segments / {lanes} lanes",
                            strategy.paper_name()
                        );
                        assert_eq!(full_key(&one_task), full_key(&res), "{label}");
                        assert_eq!(one_task.stats.emitted, res.stats.emitted, "{label}");
                        // The per-lane breakdown is a genuine partition of the
                        // candidate scan: base answers sum to the one-task count.
                        let base: u64 = res.lanes.iter().map(|l| l.stats.base_answers).sum();
                        assert_eq!(one_task.stats.base_answers, base, "{label}");
                        assert_eq!(res.stats.base_answers, base, "{label}");
                        let tasks = res.lanes.len();
                        if lanes <= segments {
                            // One task per segment, in segment order.
                            let order: Vec<usize> = res.lanes.iter().map(|l| l.segment).collect();
                            assert_eq!(order, (0..segments).collect::<Vec<_>>(), "{label}");
                        } else {
                            // Candidate chunks: every segment scanned, about
                            // `lanes` tasks, never fewer than segments.
                            assert!((segments..lanes + segments).contains(&tasks), "{label}");
                            assert!(res.lanes.windows(2).all(|w| w[0].segment <= w[1].segment));
                        }
                        let header = format!("lanes(segments={segments}, tasks={tasks}, ");
                        assert_eq!(
                            res.explain.starts_with(&header),
                            tasks > 1,
                            "{label}: explain = {}",
                            res.explain
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn running_example_is_lane_and_segment_independent() {
    assert_lane_equivalent(&cars_docs(), CARS_QUERY, &paper_profile(), 3);
}

#[test]
fn xmark_is_lane_and_segment_independent() {
    assert_lane_equivalent(&xmark_docs(), XMARK_QUERY, &xmark_profile(), 10);
}

/// Multiple same-priority VORs make many answers `≺_V`-incomparable; the
/// merge must not prune across incomparability.
#[test]
fn incomparable_vor_frontier_survives_the_merge() {
    let profile = UserProfile::new()
        .with_kor(KeywordOrderingRule::weighted("g", "person", "male", 1.0))
        .with_vor(ValueOrderingRule::prefer_value(
            "a33", "person", "age", "33",
        ))
        .with_vor(ValueOrderingRule::prefer_smaller(
            "inc", "profile", "income",
        ));
    assert_lane_equivalent(&xmark_docs(), "//person", &profile, 8);
}

/// Tracing observes the plan that runs, it does not pick another one: a
/// traced request is cut into the same tasks on the same lanes as an
/// untraced one, returns the same hits by bits and the same counters, and
/// carries one labelled trace block per task.
#[test]
fn tracing_changes_neither_the_plan_nor_the_answer() {
    let engine = Engine::from_xml_docs(&xmark_docs()).unwrap();
    let profile = xmark_profile();
    for segments in [1usize, 4] {
        let sharded = engine.reshard(segments).unwrap();
        let prepared = sharded.prepare(XMARK_QUERY, &profile).unwrap();
        for strategy in PlanStrategy::all() {
            for lanes in [1usize, 2, 8] {
                let label = format!("{} / {segments} segments / {lanes} lanes", strategy.paper_name());
                let untraced = SearchOptions::top(10).with_strategy(strategy);
                let traced = SearchOptions {
                    trace: true,
                    ..untraced
                };
                let off = sharded.run_prepared_lanes(&prepared, &untraced, lanes).unwrap();
                let on = sharded.run_prepared_lanes(&prepared, &traced, lanes).unwrap();
                assert_eq!(full_key(&off), full_key(&on), "{label}");
                assert_eq!(off.stats, on.stats, "{label}");
                assert_eq!(off.explain, on.explain, "{label}");
                let per_task = |r: &SearchResults| -> Vec<_> {
                    r.lanes.iter().map(|l| (l.segment, l.stats)).collect()
                };
                assert_eq!(per_task(&off), per_task(&on), "{label}");
                assert!(off.trace.is_empty(), "{label}");
                let tasks = on.lanes.len();
                assert_eq!(tasks > 1, lanes > 1 || segments > 1, "{label}");
                if tasks > 1 {
                    assert_eq!(on.trace.matches("segment(base=").count(), tasks, "{label}");
                } else {
                    assert!(on.trace.contains("QueryEval"), "{label}: {}", on.trace);
                }
            }
        }
    }
}

/// The public `threads` knob (clamped to the machine) through the whole
/// engine stack: any setting returns the same hits as one lane.
fn assert_threads_transparent(engine: &Engine) {
    let profile = xmark_profile();
    let one_lane = engine
        .search(
            XMARK_QUERY,
            &profile,
            &SearchOptions::top(10).with_threads(1),
        )
        .unwrap();
    assert_eq!(one_lane.lanes.len(), engine.shard_count());
    for threads in [0usize, 2, 4, 8] {
        let opts = SearchOptions::top(10).with_threads(threads);
        let res = engine.search(XMARK_QUERY, &profile, &opts).unwrap();
        assert_eq!(full_key(&one_lane), full_key(&res), "threads={threads}");
        // The aggregate is the sum of the per-lane breakdown.
        let base: u64 = res.lanes.iter().map(|l| l.stats.base_answers).sum();
        assert_eq!(res.stats.base_answers, base);
    }
}

#[test]
fn threads_option_is_transparent_on_one_document() {
    let xml = pimento_datagen::xmark::generate(3, 150 * 1024);
    assert_threads_transparent(&Engine::from_xml_docs(&[xml]).unwrap());
}

#[test]
fn threads_option_is_transparent_on_four_segments() {
    let engine = Engine::from_xml_docs(&xmark_docs()).unwrap();
    assert_threads_transparent(&engine.reshard(4).unwrap());
}

/// A sharded snapshot directory round-trips: save, reopen with
/// [`Engine::from_sharded_dir`], and get bit-identical answers (the
/// reopened engine rebuilds corpus-global scoring stats from the
/// per-segment indexes).
#[test]
fn sharded_snapshot_roundtrip_is_bit_identical() {
    let engine = Engine::from_xml_docs(&xmark_docs()).unwrap();
    let dir = std::env::temp_dir().join(format!("pimento-shard-roundtrip-{}", std::process::id()));
    let sharded = engine.reshard(4).unwrap();
    SegmentStore::open(&dir).unwrap().save(&sharded).unwrap();
    let reopened = Engine::from_sharded_dir(&dir).unwrap();
    assert_eq!(reopened.shard_count(), sharded.shard_count());
    assert_eq!(reopened.num_docs(), engine.num_docs());
    let profile = xmark_profile();
    let opts = SearchOptions::top(10);
    let mono = engine.search(XMARK_QUERY, &profile, &opts).unwrap();
    let reloaded = reopened.search(XMARK_QUERY, &profile, &opts).unwrap();
    assert_eq!(full_key(&mono), full_key(&reloaded));
    std::fs::remove_dir_all(&dir).ok();
}

/// Forced lanes compose with pagination: an offset never changes answers,
/// whether the lanes run whole segments or candidate chunks.
#[test]
fn forced_lanes_and_offset_are_transparent() {
    let engine = Engine::from_xml_docs(&xmark_docs()).unwrap();
    let sharded = engine.reshard(4).unwrap();
    let profile = xmark_profile().with_rank_order(RankOrder::Vks);
    let opts = SearchOptions::top(5).with_offset(3);
    let base = engine.search(XMARK_QUERY, &profile, &opts).unwrap();
    let prepared = sharded.prepare(XMARK_QUERY, &profile).unwrap();
    for lanes in [0usize, 1, 2, 7] {
        let res = sharded.run_prepared_lanes(&prepared, &opts, lanes).unwrap();
        assert_eq!(full_key(&base), full_key(&res), "lanes={lanes}");
    }
}

/// Documents of `sec` elements nested up to four deep, each with a `p`
/// of two words and a numeric `n` attribute: every `sec` candidate but
/// the outermost lies inside another, so the joins below consecutive
/// candidates seek backward as well as forward.
fn nested_docs() -> Vec<String> {
    const WORDS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "alpha beta"];
    fn sec(seed: u32, depth: u32, out: &mut String) {
        let word = |shift: u32| WORDS[(seed >> shift) as usize % WORDS.len()];
        out.push_str(&format!(
            r#"<sec n="{}"><p>{} {}</p>"#,
            seed % 4,
            word(3),
            word(7)
        ));
        if depth < 4 {
            for child in 0..(seed >> 11) % 4 {
                let seed = seed
                    .wrapping_mul(2_654_435_761)
                    .wrapping_add(child * 97 + 1)
                    >> 3;
                sec(seed, depth + 1, out);
            }
        }
        out.push_str("</sec>");
    }
    (0..12u32)
        .map(|d| {
            let mut xml = String::from("<doc>");
            for top in 0..3 {
                sec(d * 7919 + top * 104_729 + 12_345, 1, &mut xml);
            }
            xml.push_str("</doc>");
            xml
        })
        .collect()
}

const NESTED_QUERY: &str = r#"//sec[ftcontains(.//sec, "alpha") and ftcontains(./p, "beta")]"#;

/// Nested candidates of one tag: `sec` answers inside `sec` answers,
/// matched through a descendant and a child step of the same kind of
/// element, with a multi-token KOR — lane- and segment-independent like
/// every other query.
#[test]
fn nested_same_tag_candidates_are_lane_and_segment_independent() {
    let docs = nested_docs();
    let profile = UserProfile::new()
        .with_kor(KeywordOrderingRule::weighted(
            "ab",
            "sec",
            "alpha beta",
            1.5,
        ))
        .with_kor(KeywordOrderingRule::weighted("g", "sec", "gamma", 1.0))
        .with_vor(ValueOrderingRule::prefer_value("n", "sec", "n", "2"));
    let engine = Engine::from_xml_docs(&docs).unwrap();
    let all = engine
        .search(NESTED_QUERY, &profile, &SearchOptions::top(1000))
        .unwrap();
    // The fixture does what it is for: many answers, some inside others.
    assert!(all.hits.len() > 20, "{} answers", all.hits.len());
    let region = |elem| {
        let node = engine.db().coll.node(elem);
        (node.start, node.end)
    };
    let nested = all.hits.iter().any(|outer| {
        all.hits.iter().any(|inner| {
            let (o, i) = (region(outer.elem), region(inner.elem));
            outer.elem.doc == inner.elem.doc && o.0 < i.0 && i.1 < o.1
        })
    });
    assert!(nested, "no answer lies inside another");
    assert_lane_equivalent(&docs, NESTED_QUERY, &profile, 10);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No partition of the corpus changes the survivor set: random
    /// interior boundaries (including duplicates and out-of-range cuts,
    /// which `reshard_at` filters) and a random lane count yield
    /// bit-identical top-k.
    #[test]
    fn random_doc_range_splits_never_change_survivors(
        cuts in proptest::collection::vec(0usize..16, 0..6),
        lanes in 1usize..10,
        order in prop_oneof![Just(RankOrder::Kvs), Just(RankOrder::Vks)],
    ) {
        let engine = Engine::from_xml_docs(&cars_docs()).unwrap();
        let query = r#"//car[ftcontains(., "good condition") and ./price < 2000]"#;
        let profile = paper_profile().with_rank_order(order);
        let opts = SearchOptions::top(4);
        let prepared = engine.prepare(query, &profile).unwrap();
        let mono = engine.run_prepared_lanes(&prepared, &opts, 1).unwrap();
        let sharded = engine.reshard_at(&cuts).unwrap();
        let prepared = sharded.prepare(query, &profile).unwrap();
        let res = sharded.run_prepared_lanes(&prepared, &opts, lanes).unwrap();
        prop_assert_eq!(
            full_key(&mono),
            full_key(&res),
            "cuts {:?} -> {} segments, {} lanes",
            cuts,
            sharded.shard_count(),
            lanes
        );
    }
}
