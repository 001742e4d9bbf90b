//! Differential semantics of the flock encoding: the single-plan
//! (annotated) query must accept every answer of every literal flock
//! member, and coincide with the literal union for deletion-only and
//! addition-only profiles.

use pimento::algebra::{Database, Matcher};
use pimento::index::Collection;
use pimento::profile::{personalize, Atom, PersonalizedQuery, ScopingRule};
use pimento::tpq::parse_tpq;
use pimento_datagen::carsale;
use proptest::prelude::*;
use std::collections::BTreeSet;

const QUERY: &str = r#"//car[./description[ftcontains(., "good condition") and ftcontains(., "low mileage")] and ./price < 4000]"#;

const PHRASES: &[&str] = &[
    "good condition",
    "low mileage",
    "best bid",
    "american",
    "NYC",
];

fn rule(i: usize, is_add: bool, cond_phrase: usize, target_phrase: usize) -> ScopingRule {
    let cond = vec![Atom::ft(
        "description",
        PHRASES[cond_phrase % PHRASES.len()],
    )];
    let concl = vec![Atom::ft(
        "description",
        PHRASES[target_phrase % PHRASES.len()],
    )];
    if is_add {
        ScopingRule::add(&format!("r{i}"), cond, concl)
    } else {
        ScopingRule::delete(&format!("r{i}"), cond, concl)
    }
}

/// All matches of the required part of `pq` over `db`, as (doc, start).
fn matches_of(db: &Database, pq: PersonalizedQuery) -> BTreeSet<(u32, u32)> {
    let m = Matcher::new(db, pq, &[&db.inverted]);
    let Some(sym) = m.distinguished_tag().and_then(|t| db.coll.tag(t)) else {
        return BTreeSet::new();
    };
    let mut probes = 0;
    db.tags
        .elements(sym)
        .iter()
        .filter(|e| m.match_answer(db, e, &mut probes).is_some())
        .map(|e| (e.doc.0, e.start))
        .collect()
}

fn union_of_members(db: &Database, pq: &PersonalizedQuery) -> BTreeSet<(u32, u32)> {
    let mut union = BTreeSet::new();
    for member in &pq.flock.members {
        union.extend(matches_of(
            db,
            PersonalizedQuery::unpersonalized(member.clone()),
        ));
    }
    union
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The encoding accepts every literal flock member's answers.
    #[test]
    fn encoding_contains_literal_flock_union(
        seed in 0u64..500,
        recipes in proptest::collection::vec((any::<bool>(), 0usize..5, 0usize..5), 0..4),
    ) {
        let mut coll = Collection::new();
        coll.add_xml(&carsale::generate_dealer(seed, 40)).unwrap();
        let db = Database::index_plain(coll);
        let rules: Vec<ScopingRule> = recipes
            .iter()
            .enumerate()
            .map(|(i, &(is_add, c, t))| rule(i, is_add, c, t))
            .collect();
        let query = parse_tpq(QUERY).unwrap();
        let Ok(pq) = personalize(&query, &rules) else {
            // Cyclic conflicts without priorities: nothing to check.
            return Ok(());
        };
        let union = union_of_members(&db, &pq);
        let encoded = matches_of(&db, pq);
        prop_assert!(
            union.is_subset(&encoded),
            "encoding must not lose flock answers: union {} vs encoded {}",
            union.len(),
            encoded.len()
        );
    }

    /// For deletion-only profiles the encoding equals the literal union
    /// (the weakest member dominates).
    #[test]
    fn deletion_only_encoding_is_exact(
        seed in 0u64..500,
        recipes in proptest::collection::vec((0usize..5, 0usize..5), 1..4),
    ) {
        let mut coll = Collection::new();
        coll.add_xml(&carsale::generate_dealer(seed, 40)).unwrap();
        let db = Database::index_plain(coll);
        let rules: Vec<ScopingRule> = recipes
            .iter()
            .enumerate()
            .map(|(i, &(c, t))| rule(i, false, c, t))
            .collect();
        let query = parse_tpq(QUERY).unwrap();
        let Ok(pq) = personalize(&query, &rules) else { return Ok(()) };
        let union = union_of_members(&db, &pq);
        let encoded = matches_of(&db, pq);
        prop_assert_eq!(union, encoded);
    }

    /// For addition-only profiles the encoding equals the original query's
    /// answers (additions never filter).
    #[test]
    fn addition_only_encoding_preserves_original(
        seed in 0u64..500,
        recipes in proptest::collection::vec((0usize..5, 0usize..5), 1..4),
    ) {
        let mut coll = Collection::new();
        coll.add_xml(&carsale::generate_dealer(seed, 40)).unwrap();
        let db = Database::index_plain(coll);
        let rules: Vec<ScopingRule> = recipes
            .iter()
            .enumerate()
            .map(|(i, &(c, t))| rule(i, true, c, t))
            .collect();
        let query = parse_tpq(QUERY).unwrap();
        let Ok(pq) = personalize(&query, &rules) else { return Ok(()) };
        let original = matches_of(&db, PersonalizedQuery::unpersonalized(query));
        let encoded = matches_of(&db, pq);
        prop_assert_eq!(original, encoded);
    }
}
