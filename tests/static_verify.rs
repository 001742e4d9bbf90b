//! The static soundness verifiers, end to end: `Profile::verify` on the
//! paper's car-sale conflict and ambiguity fixtures (with provenance),
//! and `PlanShape::verify` on hand-built malformed shapes as well as on
//! every plan the engine actually assembles.

use pimento::profile::{parse_profile, FindingKind, PrefRelRegistry, Severity, UserProfile};
use pimento::tpq::parse_tpq;
use pimento::{Engine, PlanStrategy, SearchOptions};
use pimento_algebra::{PlanShape, PlanVerifyError, Stage, TopkConfig};

fn fixture(name: &str) -> UserProfile {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_profile(&text, &PrefRelRegistry::new()).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// The paper's query Q asking for both "good condition" and "low mileage".
fn query_q() -> pimento::tpq::Tpq {
    parse_tpq(
        r#"//car[./description[ftcontains(., "good condition") and ftcontains(., "low mileage")] and ./price < 2000]"#,
    )
    .unwrap()
}

const CARS: &str = r#"<dealer>
    <car><description>Low mileage, good condition</description><color>red</color><mileage>50000</mileage><price>500</price><location>NYC</location></car>
    <car><description>american classic in good condition</description><price>1500</price><color>blue</color><mileage>90000</mileage></car>
    <car><description>rusty</description><price>200</price></car>
</dealer>"#;

// ---------------------------------------------------------------------
// Profile::verify
// ---------------------------------------------------------------------

#[test]
fn sr_conflict_cycle_reported_with_provenance() {
    let profile = fixture("sr_conflict_cycle.rules");
    let report = profile.verify(&query_q());

    assert!(report.has_errors());
    assert!(report.has_sr_cycle());
    // The cycle error names both members.
    let cycle = report
        .findings
        .iter()
        .find_map(|f| match &f.kind {
            FindingKind::SrConflictCycle { cycle } => Some(cycle.clone()),
            _ => None,
        })
        .expect("cycle finding");
    assert!(
        cycle.contains(&"rho1".to_string()) && cycle.contains(&"rho3".to_string()),
        "{cycle:?}"
    );
    // Edge provenance: both conflict arcs appear as info findings.
    let arcs: Vec<(String, String)> = report
        .findings
        .iter()
        .filter_map(|f| match &f.kind {
            FindingKind::SrConflictArc { from, to } => Some((from.clone(), to.clone())),
            _ => None,
        })
        .collect();
    assert!(arcs.contains(&("rho1".into(), "rho3".into())), "{arcs:?}");
    assert!(arcs.contains(&("rho3".into(), "rho1".into())), "{arcs:?}");
    // Errors sort first.
    assert_eq!(report.findings[0].severity, Severity::Error);
    // The engine agrees: preparation refuses the profile.
    let engine = Engine::from_xml_docs(&[CARS]).unwrap();
    assert!(engine
        .search(
            r#"//car[./description[ftcontains(., "good condition") and ftcontains(., "low mileage")] and ./price < 2000]"#,
            &profile,
            &SearchOptions::top(2),
        )
        .is_err());
}

#[test]
fn vor_alternating_cycle_reported_with_provenance() {
    let profile = fixture("vor_ambiguous.rules");
    let report = profile.verify(&query_q());

    assert!(report.has_errors());
    assert!(!report.has_sr_cycle());
    let cycle = report
        .findings
        .iter()
        .find_map(|f| match &f.kind {
            FindingKind::VorAlternatingCycle { cycle } => Some(cycle.clone()),
            _ => None,
        })
        .expect("alternating-cycle finding");
    assert!(
        cycle.contains(&"pi1".to_string()) && cycle.contains(&"pi2".to_string()),
        "{cycle:?}"
    );
    let text = report.to_string();
    assert!(text.contains("error"), "{text}");
    assert!(text.contains("priority"), "{text}");
}

#[test]
fn clean_profile_verifies_without_errors() {
    let profile = fixture("clean_profile.rules");
    let report = profile.verify(&query_q());
    assert!(!report.has_errors(), "{report}");
    // Prioritized rho1/rho3 still conflict on Q — the arcs stay visible as
    // provenance, but resolution succeeds so there is no error.
    assert!(report
        .findings
        .iter()
        .any(|f| matches!(f.kind, FindingKind::SrConflictArc { .. })));
}

// ---------------------------------------------------------------------
// PlanShape::verify on hand-built shapes
// ---------------------------------------------------------------------

fn survivor(k: usize) -> TopkConfig {
    TopkConfig {
        k,
        query_scorebound: 0.0,
        kor_scorebound: 0.0,
        use_v: true,
        sorted_input: true,
        last: false,
    }
}

fn worker_shape(k: usize, top: TopkConfig) -> PlanShape {
    PlanShape {
        stages: vec![
            Stage::Scan,
            Stage::VorFetch,
            Stage::KorJoin { weight: 1.0 },
            Stage::Sort,
            Stage::Prune(top),
        ],
        k,
        merge_safe: true,
        vors: 2,
        vks: false,
    }
}

#[test]
fn worker_plan_missing_survivor_prune_rejected() {
    // A worker sub-plan that ends in a positional cut (`last`) instead of
    // the ≺_V-sound survivor prune: a shard-local cut can drop answers
    // that belong to the global top-k (DESIGN.md §8).
    let bad = worker_shape(3, TopkConfig::final_prune(3));
    assert_eq!(bad.verify(), Err(PlanVerifyError::MissingSurvivorPrune));

    // Same defect, other axis: the cut keeps `last` unset but ignores ≺_V.
    let bad = worker_shape(
        3,
        TopkConfig {
            use_v: false,
            ..survivor(3)
        },
    );
    assert_eq!(bad.verify(), Err(PlanVerifyError::MissingSurvivorPrune));

    // The correct survivor prune verifies.
    assert_eq!(worker_shape(3, survivor(3)).verify(), Ok(()));
}

#[test]
fn malformed_shapes_rejected() {
    let ok = worker_shape(3, survivor(3));

    assert_eq!(
        PlanShape {
            stages: vec![],
            ..ok.clone()
        }
        .verify(),
        Err(PlanVerifyError::Empty)
    );

    // Scan missing / not at the bottom.
    let mut no_scan = ok.clone();
    no_scan.stages[0] = Stage::Sort;
    assert_eq!(no_scan.verify(), Err(PlanVerifyError::ScanNotAtBottom));

    // Top stage is not a prune.
    let mut no_prune = ok.clone();
    no_prune.stages.pop();
    assert_eq!(no_prune.verify(), Err(PlanVerifyError::MissingFinalPrune));

    // A prune cutting at the wrong k.
    let wrong_k = worker_shape(3, survivor(4));
    assert_eq!(
        wrong_k.verify(),
        Err(PlanVerifyError::WrongK {
            index: 4,
            found: 4,
            expected: 3
        })
    );

    // A mid-plan prune whose kor_scorebound claims all K is known while a
    // KOR join above still adds weight (Algorithm-3 placement).
    let mut early_k = ok.clone();
    early_k.stages.insert(
        2,
        Stage::Prune(TopkConfig {
            sorted_input: false,
            ..survivor(3)
        }),
    );
    assert_eq!(
        early_k.verify(),
        Err(PlanVerifyError::KPruneBeforeAllKors { index: 2 })
    );

    // Same position, correct kor bound but understated query bound.
    let mut low_bound = ok.clone();
    low_bound.stages.insert(3, Stage::SrJoin { bound: 2.5 });
    low_bound.stages.insert(
        3,
        Stage::Prune(TopkConfig {
            query_scorebound: 1.0,
            kor_scorebound: 1.0,
            sorted_input: false,
            ..survivor(3)
        }),
    );
    assert_eq!(
        low_bound.verify(),
        Err(PlanVerifyError::BoundTooLow {
            index: 3,
            which: "query_scorebound",
            have: 1.0,
            need: 2.5
        })
    );

    // A prune claiming sorted input without a sort below it.
    let mut unsorted = ok.clone();
    unsorted.stages.remove(3); // drop the Sort
    assert_eq!(
        unsorted.verify(),
        Err(PlanVerifyError::SortedClaimWithoutSort { index: 3 })
    );

    // A prune comparing ≺_V with no vor fetch below it.
    let mut no_fetch = ok.clone();
    no_fetch.stages.remove(1);
    assert_eq!(
        no_fetch.verify(),
        Err(PlanVerifyError::VorFetchCount {
            expected: 1,
            found: 0
        })
    );
}

// ---------------------------------------------------------------------
// Plan::verify on engine-assembled plans
// ---------------------------------------------------------------------

#[test]
fn every_assembled_plan_verifies() {
    let engine = Engine::from_xml_docs(&[CARS]).unwrap();
    let profile = fixture("clean_profile.rules");
    let prepared = engine
        .prepare(r#"//car[ftcontains(., "good condition")]"#, &profile)
        .unwrap();
    for (strategy, outcome) in engine.verify_plans(&prepared, 2) {
        assert_eq!(outcome, Ok(()), "strategy {}", strategy.paper_name());
    }
    // And execution still works under the debug assertions.
    let results = engine
        .run_prepared(&prepared, &SearchOptions::top(2))
        .unwrap();
    assert!(!results.hits.is_empty());
}

#[test]
fn all_strategies_verify_across_rank_orders() {
    use pimento::algebra::{build_plan, Matcher, PlanSpec, RankContext};
    use pimento::profile::{KeywordOrderingRule, PersonalizedQuery, RankOrder, ValueOrderingRule};
    use std::sync::Arc;

    let engine = Engine::from_xml_docs(&[CARS]).unwrap();
    let db = engine.db();
    let query = parse_tpq("//car").unwrap();
    let kors = vec![
        KeywordOrderingRule::weighted("nyc", "car", "NYC", 2.0),
        KeywordOrderingRule::new("classic", "car", "classic"),
    ];
    let vors = vec![
        ValueOrderingRule::prefer_value("pi1", "car", "color", "red").with_priority(0),
        ValueOrderingRule::prefer_smaller("pi2", "car", "mileage").with_priority(1),
    ];
    for order in [RankOrder::Kvs, RankOrder::Vks] {
        for strategy in PlanStrategy::all() {
            let matcher = Arc::new(Matcher::new(
                db,
                PersonalizedQuery::unpersonalized(query.clone()),
                &[&db.inverted],
            ));
            let rank = RankContext::new(vors.clone(), order);
            let plan = build_plan(db, matcher, &kors, rank, PlanSpec::new(3, strategy));
            assert_eq!(
                plan.verify(),
                Ok(()),
                "{} under {order:?}",
                strategy.paper_name()
            );
            assert!(plan.shape().stages.len() >= 2);
        }
    }
}
