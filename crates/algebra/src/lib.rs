//! # pimento-algebra
//!
//! The query algebra and evaluation engine of the PIMENTO reproduction
//! (paper §6): pull-based operators ([`ops`]), the pattern-matching
//! [`eval`]uator over the tag/keyword indexes, answer [`rank`]ing
//! (`K,V,S` / `V,K,S`), the OR-aware [`topk`]Prune operator implementing
//! Algorithms 1–3, and the [`plan`] builder assembling the paper's four
//! strategies (NtpkP, NS-ILtpkP, S-ILtpkP, PtpkP).
//!
//! ```
//! use pimento_algebra::{Database, Matcher, RankContext, build_plan, PlanSpec, PlanStrategy};
//! use pimento_index::Collection;
//! use pimento_profile::{KeywordOrderingRule, PersonalizedQuery, RankOrder};
//! use pimento_tpq::parse_tpq;
//! use std::sync::Arc;
//!
//! let mut coll = Collection::new();
//! coll.add_xml("<cars><car><d>red NYC</d></car><car><d>blue</d></car></cars>").unwrap();
//! let db = Database::index_plain(coll);
//! let query = parse_tpq("//car").unwrap();
//! // One database is the whole corpus here, so its index is the statistics source.
//! let pq = PersonalizedQuery::unpersonalized(query);
//! let matcher = Arc::new(Matcher::new(&db, pq, &[&db.inverted]));
//! let rank = RankContext::new(vec![], RankOrder::Kvs);
//! let kors = vec![KeywordOrderingRule::new("nyc", "car", "NYC")];
//! let plan = build_plan(&db, matcher, &kors, rank, PlanSpec::new(1, PlanStrategy::Push));
//! let (top, _stats) = plan.execute(&db);
//! assert_eq!(top.len(), 1);
//! assert_eq!(top[0].k, 1.0); // the NYC car wins on the KOR score
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer;
pub mod context;
pub mod eval;
pub mod ops;
pub mod par;
pub mod plan;
pub mod rank;
pub mod topk;
pub mod trace;

pub use answer::{Answer, VorKey};
pub use context::{Database, ExecStats, Indexes};
pub use eval::{compare_content, entry_of, Matcher, PreparedKind, PreparedPhrase};
pub use ops::{
    cut_candidates, live_candidates, BoxedOp, KorJoin, Operator, QueryEval, Sort, SrPredJoin,
    VorFetch,
};
pub use par::{merge_survivors, run_in_lanes};
pub use plan::{
    build_plan, build_task_plan, KorOrder, Plan, PlanShape, PlanSpec, PlanStrategy,
    PlanVerifyError, Stage,
};
pub use rank::RankContext;
pub use topk::{TopkConfig, TopkPrune};
pub use trace::{render as render_trace, TraceEntry};

#[cfg(test)]
mod oracle_tests {
    //! Soundness: every plan strategy must return exactly what a
    //! no-pruning oracle (materialize everything, rank, cut) returns —
    //! on randomized documents, profiles, and k.

    use crate::answer::Answer;
    use crate::context::Database;
    use crate::eval::Matcher;
    use crate::plan::{build_plan, PlanSpec, PlanStrategy};
    use crate::rank::RankContext;
    use pimento_index::Collection;
    use pimento_profile::{KeywordOrderingRule, PersonalizedQuery, RankOrder, ValueOrderingRule};
    use pimento_tpq::parse_tpq;
    use proptest::prelude::*;
    use std::sync::Arc;

    const WORDS: &[&str] = &["alpha", "beta", "gamma", "delta", "epsilon"];
    const COLORS: &[&str] = &["red", "blue", "green"];

    /// Build a small synthetic document from a recipe.
    fn build_doc(recipe: &[(u8, u8, u8)]) -> Database {
        let mut xml = String::from("<items>");
        for &(w1, w2, color) in recipe {
            xml.push_str(&format!(
                "<item><color>{}</color><text>{} {}</text><num>{}</num></item>",
                COLORS[color as usize % COLORS.len()],
                WORDS[w1 as usize % WORDS.len()],
                WORDS[w2 as usize % WORDS.len()],
                w1 as u32 + w2 as u32,
            ));
        }
        xml.push_str("</items>");
        let mut coll = Collection::new();
        coll.add_xml(&xml).unwrap();
        Database::index_plain(coll)
    }

    /// Independent oracle: match everything with the Matcher directly,
    /// apply KOR scores and VOR keys by hand, rank, cut at k.
    fn oracle(
        db: &Database,
        matcher: &Matcher,
        kors: &[KeywordOrderingRule],
        rank: &RankContext,
        k: usize,
    ) -> Vec<(u32, u32)> {
        use pimento_index::{field_value, ft_contains, FieldValue};
        use pimento_profile::AttrValue;
        let sym = db.coll.tag("item").expect("items exist");
        let mut probes = 0u64;
        let mut answers: Vec<Answer> = Vec::new();
        for e in db.tags.elements(sym) {
            let Some(mut s) = matcher.match_answer(db, e, &mut probes) else {
                continue;
            };
            for p in matcher.optional_keywords() {
                s += matcher.eval_pred_near(db, &p, e, &mut probes);
            }
            let mut a = Answer::new(*e, s);
            for kor in kors {
                let tokens = db.inverted.analyze(&kor.phrase);
                if ft_contains(&db.inverted, e, &tokens) {
                    a.k += kor.weight;
                }
            }
            let key = rank.make_key("item", |_, attr| {
                field_value(&db.coll, e.elem_ref(), attr).map(|v| match v {
                    FieldValue::Num(n) => AttrValue::Num(n),
                    FieldValue::Str(s) => AttrValue::Str(s),
                })
            });
            a.vor = Some(Arc::new(key));
            answers.push(a);
        }
        let mut stats = Default::default();
        rank.rank(&mut answers, &mut stats);
        answers.into_iter().take(k).map(|a| a.tiebreak()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn strategies_match_oracle(
            recipe in proptest::collection::vec((0u8..5, 0u8..5, 0u8..3), 1..25),
            k in 1usize..8,
            use_vor in any::<bool>(),
            n_kors in 0usize..3,
            with_s in any::<bool>(),
            vks in any::<bool>(),
        ) {
            let db = build_doc(&recipe);
            // Optionally give answers a real S spread via a required
            // keyword predicate ("alpha" is planted in most items).
            let query = if with_s {
                parse_tpq(r#"//item[ftcontains(., "alpha")]"#).unwrap()
            } else {
                parse_tpq("//item").unwrap()
            };
            let pq = PersonalizedQuery::unpersonalized(query);
            let matcher = Arc::new(Matcher::new(&db, pq, &[&db.inverted]));
            let kors: Vec<KeywordOrderingRule> = WORDS[..n_kors]
                .iter()
                .enumerate()
                .map(|(i, w)| KeywordOrderingRule::weighted(w, "item", w, 1.0 + i as f64))
                .collect();
            let vors = if use_vor {
                vec![
                    ValueOrderingRule::prefer_value("c", "item", "color", "red").with_priority(0),
                    ValueOrderingRule::prefer_smaller("n", "item", "num").with_priority(1),
                ]
            } else {
                vec![]
            };
            let order = if vks { RankOrder::Vks } else { RankOrder::Kvs };
            let rank = RankContext::new(vors, order);
            let expect = oracle(&db, &matcher, &kors, &rank, k);
            for strategy in PlanStrategy::all() {
                let plan = build_plan(
                    &db,
                    Arc::clone(&matcher),
                    &kors,
                    Arc::clone(&rank),
                    PlanSpec::new(k, strategy),
                );
                let (out, _) = plan.execute(&db);
                let got: Vec<(u32, u32)> = out.iter().map(|a| a.tiebreak()).collect();
                prop_assert_eq!(&got, &expect, "strategy {}", strategy.paper_name());
            }
        }
    }
}
