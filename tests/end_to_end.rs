//! Cross-crate integration: the full engine pipeline on the car-sale
//! corpus — parsing, indexing, profile enforcement, planning, ranking.

use pimento::profile::{
    Atom, KeywordOrderingRule, PrefRel, RankOrder, ScopingRule, UserProfile, ValueOrderingRule,
};
use pimento::{Engine, PlanStrategy, SearchOptions};
use pimento_datagen::carsale;

fn engine() -> Engine {
    Engine::from_xml_docs(&[
        carsale::paper_figure1().to_string(),
        carsale::generate_dealer(99, 120),
    ])
    .expect("corpus parses")
}

const QUERY_Q: &str = r#"//car[./description[ftcontains(., "good condition") and ftcontains(., "low mileage")] and ./price < 2000]"#;

#[test]
fn personalization_expands_the_answer_set() {
    let e = engine();
    let plain = e
        .search(QUERY_Q, &UserProfile::new(), &SearchOptions::top(20))
        .unwrap();
    let profile = UserProfile::new().with_scoping(ScopingRule::delete(
        "rho3",
        vec![Atom::ft("description", "good condition")],
        vec![Atom::ft("description", "low mileage")],
    ));
    let personalized = e
        .search(QUERY_Q, &profile, &SearchOptions::top(20))
        .unwrap();
    assert!(
        personalized.hits.len() > plain.hits.len(),
        "dropping the low-mileage requirement must widen the result: {} vs {}",
        personalized.hits.len(),
        plain.hits.len()
    );
    // Every plain answer is still an answer after broadening (the paper's
    // "user should not be penalized" guarantee), within the larger k.
    let p_set: std::collections::HashSet<_> = personalized.hits.iter().map(|h| h.elem).collect();
    let widened = e
        .search(QUERY_Q, &profile, &SearchOptions::top(200))
        .unwrap();
    let w_set: std::collections::HashSet<_> = widened.hits.iter().map(|h| h.elem).collect();
    for h in &plain.hits {
        assert!(
            w_set.contains(&h.elem),
            "original answer lost by personalization"
        );
    }
    let _ = p_set;
}

#[test]
fn narrowing_rule_only_reranks_never_filters() {
    let e = engine();
    let profile = UserProfile::new().with_scoping(ScopingRule::add(
        "rho2",
        vec![Atom::ft("description", "good condition")],
        vec![Atom::ft("description", "american")],
    ));
    let plain = e
        .search(QUERY_Q, &UserProfile::new(), &SearchOptions::top(100))
        .unwrap();
    let narrowed = e
        .search(QUERY_Q, &profile, &SearchOptions::top(100))
        .unwrap();
    assert_eq!(
        plain.hits.len(),
        narrowed.hits.len(),
        "added predicates are optional — the answer set is unchanged"
    );
    // But american cars must gain score.
    let american: Vec<_> = narrowed
        .hits
        .iter()
        .filter(|h| h.text.contains("american"))
        .collect();
    if let Some(a) = american.first() {
        let plain_s = plain.hits.iter().find(|h| h.elem == a.elem).unwrap().s;
        assert!(
            a.s > plain_s,
            "american car gains score: {} vs {}",
            a.s,
            plain_s
        );
    }
}

#[test]
fn kor_dominates_s_in_kvs_order() {
    let e = engine();
    let profile = UserProfile::new().with_kor(KeywordOrderingRule::new("nyc", "car", "NYC"));
    let res = e
        .search(
            r#"//car[ftcontains(., "good condition")]"#,
            &profile,
            &SearchOptions::top(10),
        )
        .unwrap();
    // All NYC answers must precede all non-NYC answers.
    let ks: Vec<f64> = res.hits.iter().map(|h| h.k).collect();
    let mut sorted = ks.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    assert_eq!(ks, sorted, "answers must be K-sorted: {ks:?}");
}

#[test]
fn vks_rank_order_puts_vor_first() {
    let e = engine();
    let order = PrefRel::chain(&["red", "black", "silver", "blue", "white", "green"]);
    let base = UserProfile::new()
        .with_kor(KeywordOrderingRule::new("nyc", "car", "NYC"))
        .with_vor(ValueOrderingRule::prefer_order(
            "col", "car", "color", order,
        ));
    let kvs = base.clone().with_rank_order(RankOrder::Kvs);
    let vks = base.with_rank_order(RankOrder::Vks);
    let q = "//car[./color]";
    let res_kvs = e.search(q, &kvs, &SearchOptions::top(10)).unwrap();
    let res_vks = e.search(q, &vks, &SearchOptions::top(10)).unwrap();
    // Under V,K,S the top answer must be from the best color layer
    // present; under K,V,S it must have the max K.
    let max_k = res_kvs.hits.iter().map(|h| h.k).fold(f64::MIN, f64::max);
    assert_eq!(res_kvs.hits[0].k, max_k);
    let top_vks_color = &res_vks.hits[0];
    assert!(
        top_vks_color.xml.contains("red")
            || !res_vks.hits.iter().any(|h| h.xml.contains("<color>red")),
        "V,K,S must surface a red car first when one exists"
    );
}

#[test]
fn all_strategies_agree_on_dealer_corpus() {
    let e = engine();
    let profile = UserProfile::new()
        .with_kor(KeywordOrderingRule::new("nyc", "car", "NYC"))
        .with_kor(KeywordOrderingRule::weighted("bid", "car", "best bid", 2.0))
        .with_vor(ValueOrderingRule::prefer_value(
            "red", "car", "color", "red",
        ));
    let mut reference: Option<Vec<_>> = None;
    for strategy in PlanStrategy::all() {
        let res = e
            .search(
                r#"//car[ftcontains(., "good condition")]"#,
                &profile,
                &SearchOptions::top(7).with_strategy(strategy),
            )
            .unwrap();
        let key: Vec<_> = res.hits.iter().map(|h| h.elem).collect();
        match &reference {
            Some(r) => assert_eq!(&key, r, "{}", strategy.paper_name()),
            None => reference = Some(key),
        }
    }
}

#[test]
fn multi_document_collection_search() {
    let docs: Vec<String> = (0..5).map(|i| carsale::generate_dealer(i, 20)).collect();
    let e = Engine::from_xml_docs(&docs).unwrap();
    let res = e
        .search(
            r#"//car[./price < 1000]"#,
            &UserProfile::new(),
            &SearchOptions::top(50),
        )
        .unwrap();
    assert!(!res.hits.is_empty());
    let distinct_docs: std::collections::HashSet<_> = res.hits.iter().map(|h| h.elem.doc).collect();
    assert!(
        distinct_docs.len() > 1,
        "answers should come from several documents"
    );
}

#[test]
fn k_larger_than_answer_count() {
    let e = Engine::from_xml_docs(&[carsale::paper_figure1()]).unwrap();
    let res = e
        .search("//car", &UserProfile::new(), &SearchOptions::top(100))
        .unwrap();
    assert_eq!(res.hits.len(), 3);
}

#[test]
fn no_matches_is_empty_not_error() {
    let e = Engine::from_xml_docs(&[carsale::paper_figure1()]).unwrap();
    let res = e
        .search(
            r#"//car[ftcontains(., "nonexistent-keyword")]"#,
            &UserProfile::new(),
            &SearchOptions::top(5),
        )
        .unwrap();
    assert!(res.hits.is_empty());
}

#[test]
fn weighted_sr_extension_scales_scores() {
    let e = engine();
    let light = UserProfile::new().with_scoping(
        ScopingRule::add("a", vec![], vec![Atom::ft("description", "american")]).with_weight(0.5),
    );
    let heavy = UserProfile::new().with_scoping(
        ScopingRule::add("a", vec![], vec![Atom::ft("description", "american")]).with_weight(3.0),
    );
    let q = r#"//car[ftcontains(., "good condition")]"#;
    let res_l = e.search(q, &light, &SearchOptions::top(50)).unwrap();
    let res_h = e.search(q, &heavy, &SearchOptions::top(50)).unwrap();
    let s_l: f64 = res_l
        .hits
        .iter()
        .filter(|h| h.text.contains("american"))
        .map(|h| h.s)
        .sum();
    let s_h: f64 = res_h
        .hits
        .iter()
        .filter(|h| h.text.contains("american"))
        .map(|h| h.s)
        .sum();
    assert!(
        s_h > s_l,
        "heavier SR weight must contribute more score: {s_h} vs {s_l}"
    );
}

#[test]
fn ftall_proximity_and_order_predicates() {
    let e = Engine::from_xml_docs(&[r#"<dealer>
        <car><description>good cheap car</description></car>
        <car><description>cheap paint but good engine overall a really long description here</description></car>
        <car><description>good engine</description></car>
    </dealer>"#])
    .unwrap();
    // Unordered, windowless: both cars with both words.
    let both = e
        .search(
            r#"//car[ftall(., "good", "cheap")]"#,
            &UserProfile::new(),
            &SearchOptions::top(10),
        )
        .unwrap();
    assert_eq!(both.hits.len(), 2);
    // Tight window: only the first car has them adjacent.
    let tight = e
        .search(
            r#"//car[ftall(., "good", "cheap" window 2)]"#,
            &UserProfile::new(),
            &SearchOptions::top(10),
        )
        .unwrap();
    assert_eq!(tight.hits.len(), 1);
    assert!(tight.hits[0].text.starts_with("good cheap"));
    // Ordered: "good" before "cheap" — only the first car again.
    let ordered = e
        .search(
            r#"//car[ftall(., "good", "cheap" ordered)]"#,
            &UserProfile::new(),
            &SearchOptions::top(10),
        )
        .unwrap();
    assert_eq!(ordered.hits.len(), 1);
    // ftall predicates contribute to S.
    assert!(ordered.hits[0].s > 0.0);
}

#[test]
fn thesaurus_expansion_recovers_synonym_matches() {
    use pimento::profile::Thesaurus;
    let e = Engine::from_xml_docs(&[r#"<dealer>
        <car><description>good condition sedan</description></car>
        <car><description>well maintained sedan</description></car>
        <car><description>rusty sedan</description></car>
    </dealer>"#])
    .unwrap();
    let query = r#"//car[ftcontains(./description, "good condition")]"#;
    // Raw query: one answer.
    let plain = e
        .search(query, &UserProfile::new(), &SearchOptions::top(10))
        .unwrap();
    assert_eq!(plain.hits.len(), 1);
    // With thesaurus expansion the synonym match surfaces, ranked below
    // the exact match... with a relaxing rule. Expansion alone only adds
    // optional predicates; combine with a relax-style delete to broaden.
    let mut thesaurus = Thesaurus::new();
    thesaurus.add("good condition", &["well maintained"]);
    let tpq = pimento::tpq::parse_tpq(query).unwrap();
    let mut profile = UserProfile::new().with_scoping(ScopingRule::delete(
        "relax",
        vec![Atom::ft("description", "good condition")],
        vec![Atom::ft("description", "good condition")],
    ));
    for r in thesaurus.expansion_rules(&tpq) {
        profile = profile.with_scoping(r);
    }
    let expanded = e.search(query, &profile, &SearchOptions::top(10)).unwrap();
    assert_eq!(expanded.hits.len(), 3, "broadened: all cars are candidates");
    assert!(
        expanded.hits[0].text.contains("good condition"),
        "exact match first"
    );
    assert!(
        expanded.hits[1].text.contains("well maintained"),
        "synonym second"
    );
    assert!(expanded.hits[1].s > expanded.hits[2].s);
}

#[test]
fn pagination_pages_are_consistent() {
    let e = engine();
    let q = r#"//car[ftcontains(., "good condition")]"#;
    let all = e
        .search(q, &UserProfile::new(), &SearchOptions::top(9))
        .unwrap();
    let page1 = e
        .search(q, &UserProfile::new(), &SearchOptions::top(3))
        .unwrap();
    let page2 = e
        .search(
            q,
            &UserProfile::new(),
            &SearchOptions::top(3).with_offset(3),
        )
        .unwrap();
    let page3 = e
        .search(
            q,
            &UserProfile::new(),
            &SearchOptions::top(3).with_offset(6),
        )
        .unwrap();
    let paged: Vec<_> = page1
        .hits
        .iter()
        .chain(&page2.hits)
        .chain(&page3.hits)
        .map(|h| h.elem)
        .collect();
    assert_eq!(
        paged,
        all.elem_refs(),
        "pages concatenate to the full top-9"
    );
    // Ranks continue across pages.
    assert_eq!(page2.hits[0].rank, 4);
    assert_eq!(page3.hits[2].rank, 9);
}

#[test]
fn shipped_profile_files_parse_and_run() {
    use pimento::profile::{parse_profile, PrefRelRegistry};
    let fig2 = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/profiles/fig2.rules"))
        .expect("profiles/fig2.rules exists");
    let profile = parse_profile(&fig2, &PrefRelRegistry::new()).expect("fig2.rules parses");
    assert_eq!(profile.scoping.len(), 3);
    assert_eq!(profile.vors.len(), 3);
    assert_eq!(profile.kors.len(), 2);
    assert!(
        !profile.check_ambiguity().is_ambiguous(),
        "priorities separate pi1/pi2"
    );
    assert!(pimento::profile::validate(&profile).is_empty());
    let e = engine();
    let res = e
        .search(QUERY_Q, &profile, &SearchOptions::top(5))
        .expect("fig2 profile executes");
    assert!(!res.hits.is_empty());
    let fig5 = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/profiles/fig5.rules"))
        .expect("profiles/fig5.rules exists");
    let p5 = parse_profile(&fig5, &PrefRelRegistry::new()).expect("fig5.rules parses");
    assert_eq!(p5.kors.len(), 4);
    assert_eq!(p5.vors.len(), 1);
}

#[test]
fn engine_is_shareable_across_threads() {
    // All index structures are immutable after build, so one engine can
    // serve concurrent queries.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();

    let e = engine();
    let profile = UserProfile::new().with_kor(KeywordOrderingRule::new("nyc", "car", "NYC"));
    let reference = e
        .search(QUERY_Q, &profile, &SearchOptions::top(5))
        .unwrap()
        .elem_refs();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let e = &e;
            let profile = &profile;
            let reference = reference.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    let res = e.search(QUERY_Q, profile, &SearchOptions::top(5)).unwrap();
                    assert_eq!(res.elem_refs(), reference);
                }
            });
        }
    });
}

#[test]
fn with_ingested_extends_a_live_engine() {
    let e = Engine::from_xml_docs(&[
        "<dealer><car><d>good condition</d><price>100</price></car></dealer>",
    ])
    .unwrap();
    let q = r#"//car[ftcontains(., "good condition")]"#;
    assert_eq!(
        e.search(q, &UserProfile::new(), &SearchOptions::top(10))
            .unwrap()
            .hits
            .len(),
        1
    );
    let e = e
        .with_ingested(&["<dealer><car><d>also good condition</d><price>300</price></car></dealer>"])
        .unwrap();
    let res = e
        .search(q, &UserProfile::new(), &SearchOptions::top(10))
        .unwrap();
    assert_eq!(res.hits.len(), 2);
    // Snapshots taken after the add round-trip everything.
    let restored = Engine::from_snapshot(&e.save_snapshot()).unwrap();
    assert_eq!(
        restored
            .search(q, &UserProfile::new(), &SearchOptions::top(10))
            .unwrap()
            .hits
            .len(),
        2
    );
}
