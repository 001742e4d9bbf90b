//! Micro-benchmarks of the building blocks: XML parsing + index build,
//! TPQ containment, SR conflict analysis, VOR ambiguity detection, and a
//! personalized end-to-end query over the dealer corpus.

use criterion::{criterion_group, criterion_main, Criterion};
use pimento::algebra::Database;
use pimento::index::Collection;
use pimento::profile::{analyze_conflicts, detect_ambiguity, Atom, ScopingRule, ValueOrderingRule};
use pimento::tpq::{contains, parse_tpq};
use pimento_datagen::{carsale, xmark};

fn bench_parse_index(c: &mut Criterion) {
    let xml = xmark::generate(7, 256 * 1024);
    c.bench_function("parse_and_index_256K", |b| {
        b.iter(|| {
            let mut coll = Collection::new();
            coll.add_xml(&xml).expect("parses");
            let db = Database::index_plain(coll);
            assert!(db.inverted.num_docs() == 1);
        })
    });
}

fn bench_containment(c: &mut Criterion) {
    let wide = parse_tpq(r#"//car[.//description and ./price < 2000]"#).unwrap();
    let narrow = parse_tpq(
        r#"//car[./description[ftcontains(., "good condition") and ftcontains(., "low mileage")] and ./price < 1500 and ./owner]"#,
    )
    .unwrap();
    c.bench_function("tpq_containment", |b| {
        b.iter(|| {
            assert!(contains(&wide, &narrow));
            assert!(!contains(&narrow, &wide));
        })
    });
}

fn bench_static_analysis(c: &mut Criterion) {
    let query = parse_tpq(
        r#"//car[./description[ftcontains(., "good condition") and ftcontains(., "low mileage")] and ./price < 2000]"#,
    )
    .unwrap();
    let rules = vec![
        ScopingRule::delete(
            "rho1",
            vec![
                Atom::pc("car", "description"),
                Atom::ft("description", "low mileage"),
            ],
            vec![Atom::ft("description", "good condition")],
        )
        .with_priority(2),
        ScopingRule::add(
            "rho2",
            vec![
                Atom::pc("car", "description"),
                Atom::ft("description", "good condition"),
            ],
            vec![Atom::ft("description", "american")],
        )
        .with_priority(1),
        ScopingRule::delete(
            "rho3",
            vec![
                Atom::pc("car", "description"),
                Atom::ft("description", "good condition"),
            ],
            vec![Atom::ft("description", "low mileage")],
        )
        .with_priority(3),
    ];
    c.bench_function("sr_conflict_analysis", |b| {
        b.iter(|| {
            let a = analyze_conflicts(&rules, &query).expect("priorities resolve");
            assert_eq!(a.order.len(), 3);
        })
    });

    let vors: Vec<ValueOrderingRule> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                ValueOrderingRule::prefer_value(&format!("v{i}"), "car", &format!("a{i}"), "x")
            } else {
                ValueOrderingRule::prefer_smaller(&format!("v{i}"), "car", &format!("a{i}"))
            }
        })
        .collect();
    c.bench_function("vor_ambiguity_detection", |b| {
        b.iter(|| {
            let r = detect_ambiguity(&vors);
            assert!(r.is_ambiguous());
        })
    });
}

fn bench_end_to_end_dealer(c: &mut Criterion) {
    let xml = carsale::generate_dealer(3, 2000);
    let engine = pimento::Engine::from_xml_docs(&[&xml]).expect("parses");
    let profile = pimento::profile::UserProfile::new()
        .with_vor(ValueOrderingRule::prefer_value(
            "pi1", "car", "color", "red",
        ))
        .with_kor(pimento::profile::KeywordOrderingRule::new(
            "pi5", "car", "NYC",
        ));
    c.bench_function("dealer_personalized_top10", |b| {
        b.iter(|| {
            let res = engine
                .search(
                    r#"//car[ftcontains(., "good condition") and ./price < 3000]"#,
                    &profile,
                    &pimento::SearchOptions::top(10),
                )
                .expect("runs");
            assert!(!res.hits.is_empty());
        })
    });
}

fn bench_profile_io(c: &mut Criterion) {
    let registry = pimento::profile::PrefRelRegistry::new();
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../profiles/fig2.rules"
    ))
    .expect("fig2.rules exists");
    c.bench_function("rule_language_parse_fig2", |b| {
        b.iter(|| {
            let p = pimento::profile::parse_profile(&text, &registry).expect("parses");
            assert_eq!(p.kors.len(), 2);
        })
    });
}

fn bench_parallel_ingest(c: &mut Criterion) {
    let docs: Vec<String> = (0..16).map(|i| xmark::generate(i, 64 * 1024)).collect();
    let mut group = c.benchmark_group("parallel_ingest_16x64K");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(format!("threads{threads}"), |b| {
            b.iter(|| {
                let coll =
                    pimento::index::build_collection_parallel(&docs, threads).expect("parses");
                assert_eq!(coll.len(), 16);
            })
        });
    }
    group.finish();
}

fn bench_par_scan(c: &mut Criterion) {
    use pimento::{Engine, SearchOptions};
    use pimento_bench::workloads::{fig5_profile, FIG5_QUERY};

    let xml = xmark::generate(42, 512 * 1024);
    let engine = Engine::from_xml_docs(&[&xml]).expect("xmark parses");
    let prepared = engine
        .prepare(FIG5_QUERY, &fig5_profile(4, true))
        .expect("valid query");
    let opts = SearchOptions::top(10);
    let mut group = c.benchmark_group("par_scan_512K");
    group.sample_size(10);
    for lanes in [1usize, 2, 4] {
        group.bench_function(format!("lanes{lanes}"), |b| {
            b.iter(|| {
                let res = engine
                    .run_prepared_lanes(&prepared, &opts, lanes)
                    .expect("query runs");
                assert_eq!(res.hits.len(), 10);
            })
        });
    }
    group.finish();
}

fn bench_reopened_query(c: &mut Criterion) {
    // An engine reopened from its own snapshot against the engine that
    // wrote it, same query. The decoded indexes are structurally the built
    // ones, so the two must stay within noise: a gap here means a restarted
    // server is slower than the one that built the corpus (numbers in
    // EXPERIMENTS.md).
    use pimento::profile::UserProfile;
    use pimento::{Engine, SearchOptions};
    use pimento_bench::workloads::{fig5_profile, FIG5_QUERY};

    let xmark_doc = [xmark::generate(42, 1024 * 1024)];
    let dealers: Vec<String> = (0..32).map(|i| carsale::generate_dealer(i, 100)).collect();
    let cases = [
        ("xmark_1M_fig5", &xmark_doc[..], FIG5_QUERY, fig5_profile(4, true)),
        (
            "dealers_32x100",
            &dealers[..],
            r#"//car[ftcontains(., "good condition")]"#,
            UserProfile::new(),
        ),
    ];
    let opts = SearchOptions::top(10);
    let mut group = c.benchmark_group("reopened_query");
    group.sample_size(10);
    for (corpus, docs, query, profile) in &cases {
        let built = Engine::from_xml_docs(docs).expect("corpus parses");
        let reopened = Engine::from_snapshot_bytes(built.save_snapshot()).expect("snapshot opens");
        for (how, engine) in [("built", &built), ("reopened", &reopened)] {
            let prepared = engine.prepare(query, profile).expect("valid query");
            group.bench_function(format!("{corpus}/{how}"), |b| {
                b.iter(|| {
                    let res = engine.run_prepared(&prepared, &opts).expect("query runs");
                    assert_eq!(res.hits.len(), 10);
                })
            });
        }
    }
    group.finish();
}

fn bench_topk_prune(c: &mut Criterion) {
    // §6.3 ablation: the three pruning regimes over a synthetic stream of
    // 10k answers (Algorithm 1: S only; Algorithm 3: K bound; Algorithm 2:
    // V comparisons on K ties).
    use pimento::algebra::{
        Answer, Database, ExecStats, Operator, RankContext, TopkConfig, TopkPrune,
    };
    use pimento::index::{DocId, ElemEntry};
    use pimento::profile::{AttrValue, RankOrder, ValueOrderingRule};
    use std::sync::Arc;

    struct Stub(Vec<Answer>, usize);
    impl Operator for Stub {
        fn next(&mut self, _db: &Database, _s: &mut ExecStats) -> Option<Answer> {
            let a = self.0.get(self.1).cloned();
            self.1 += 1;
            a
        }
        fn describe(&self) -> String {
            "stub".into()
        }
    }

    let mut coll = Collection::new();
    coll.add_xml("<x/>").unwrap();
    let db = Database::index_plain(coll);
    // Compile the VOR keys against the rule set the V-aware regime uses
    // (contexts with no rules never inspect the keys).
    let key_ctx = RankContext::new(
        vec![ValueOrderingRule::prefer_value(
            "red", "car", "color", "red",
        )],
        RankOrder::Kvs,
    );
    let answers: Vec<Answer> = (0..10_000u32)
        .map(|i| {
            let elem = ElemEntry {
                doc: DocId(0),
                node: pimento::xml::NodeId(0),
                tag: pimento::xml::SymbolId(0),
                start: i,
                end: i + 1,
                level: 1,
            };
            let mut a = Answer::new(elem, ((i * 7919) % 1000) as f64 / 1000.0);
            a.k = (i % 5) as f64;
            let key = key_ctx.make_key("car", |_, attr| {
                (attr == "color")
                    .then(|| AttrValue::Str(if i % 3 == 0 { "red" } else { "blue" }.into()))
            });
            a.vor = Some(Arc::new(key));
            a
        })
        .collect();

    let mut group = c.benchmark_group("topk_prune_10k");
    group.sample_size(20);
    for (label, kor_bound, use_v, vors) in [
        ("alg1_s_only", 0.0, false, vec![]),
        ("alg3_k_bound", 2.0, false, vec![]),
        (
            "alg2_v_aware",
            0.0,
            true,
            vec![ValueOrderingRule::prefer_value(
                "red", "car", "color", "red",
            )],
        ),
    ] {
        let rank = RankContext::new(vors.clone(), RankOrder::Kvs);
        group.bench_function(label, |b| {
            b.iter(|| {
                let cfg = TopkConfig {
                    k: 10,
                    query_scorebound: 0.0,
                    kor_scorebound: kor_bound,
                    use_v,
                    sorted_input: false,
                    last: false,
                };
                let mut op =
                    TopkPrune::new(Box::new(Stub(answers.clone(), 0)), Arc::clone(&rank), cfg);
                let mut stats = ExecStats::default();
                let mut survivors = 0u32;
                while op.next(&db, &mut stats).is_some() {
                    survivors += 1;
                }
                assert!(survivors >= 10);
            })
        });
    }
    group.finish();
}

fn bench_rank_layering(c: &mut Criterion) {
    // `≺_V` dominance layering inside `RankContext::rank`: n answers that
    // tie on K and S, their mileage taking D distinct values under one
    // "smaller mileage first" rule (D layers). D = 2 and 52 are the
    // duplicate-heavy shapes a VOR on `color` or `age` gives; D = n is
    // the all-distinct shape, ranked under V,K,S (one pool, n layers).
    use pimento::algebra::{Answer, ExecStats, RankContext};
    use pimento::index::{DocId, ElemEntry};
    use pimento::profile::{AttrValue, RankOrder, ValueOrderingRule};
    use std::sync::Arc;

    let rule = ValueOrderingRule::prefer_smaller("m", "car", "mileage");
    let mut group = c.benchmark_group("rank_layering");
    group.sample_size(10);
    for n in [1_000u32, 4_000] {
        for d in [2, 52, n] {
            let order = if d == n {
                RankOrder::Vks
            } else {
                RankOrder::Kvs
            };
            let rank = RankContext::new(vec![rule.clone()], order);
            let answers: Vec<Answer> = (0..n)
                .map(|i| {
                    let elem = ElemEntry {
                        doc: DocId(0),
                        node: pimento::xml::NodeId(0),
                        tag: pimento::xml::SymbolId(0),
                        start: i,
                        end: i + 1,
                        level: 1,
                    };
                    let mut a = Answer::new(elem, 0.5);
                    // 7919 is coprime to every D here: the values arrive
                    // shuffled, each class equally often.
                    let mileage = f64::from((i * 7919) % d);
                    let key = rank.make_key("car", |_, _| Some(AttrValue::Num(mileage)));
                    a.vor = Some(Arc::new(key));
                    a
                })
                .collect();
            group.bench_function(format!("n{n}_d{d}"), |b| {
                b.iter(|| {
                    let mut pool = answers.clone();
                    let mut stats = ExecStats::default();
                    rank.rank(&mut pool, &mut stats);
                    assert_eq!(pool.len(), n as usize);
                    stats.vor_comparisons
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parse_index,
    bench_containment,
    bench_static_analysis,
    bench_end_to_end_dealer,
    bench_profile_io,
    bench_parallel_ingest,
    bench_par_scan,
    bench_reopened_query,
    bench_topk_prune,
    bench_rank_layering
);
criterion_main!(benches);
