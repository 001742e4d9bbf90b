//! # pimento-tpq
//!
//! Extended tree pattern queries, the query abstraction of the PIMENTO
//! paper (§3): rooted patterns with `pc`/`ad` edges, a distinguished answer
//! node, constraint predicates on node content, and `ftcontains` keyword
//! predicates. This crate provides:
//!
//! * the [`ast`] itself with structural editing (what scoping rules need),
//! * a [`parse`]r for an XPath/NEXI-like textual syntax,
//! * sound homomorphism-based [`containment`] between patterns, and the
//!   predicate implication ([`implies`]) that scoping rules' atom tests
//!   use (rule applicability is decided atom by atom in `pimento-profile`,
//!   not by containment),
//! * a [`std::fmt::Display`] renderer that round-trips through the parser.
//!
//! ```
//! use pimento_tpq::{parse_tpq, contains};
//!
//! let query = parse_tpq(
//!     r#"//car[.//description[ftcontains(., "good condition")] and ./price < 2000]"#,
//! ).unwrap();
//! let wider = parse_tpq(r#"//car[.//description]"#).unwrap();
//! // Every answer of the query is an answer of the wider pattern.
//! assert!(contains(&wider, &query));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod containment;
pub mod display;
pub mod parse;

pub use ast::{Axis, Predicate, RelOp, TagTest, Tpq, TpqNode, TpqNodeId, Value};
pub use containment::{contains, equivalent, implies};
pub use parse::{parse_tpq, ParseError};

#[cfg(test)]
mod proptests {
    use crate::ast::{Axis, Predicate, RelOp, Tpq};
    use crate::containment::{contains, equivalent};
    use crate::parse::parse_tpq;
    use proptest::prelude::*;

    const TAGS: &[&str] = &["a", "b", "c", "car", "price"];
    const WORDS: &[&str] = &["good", "condition", "low", "mileage", "red"];

    /// (parent index, ad axis?, tag index, optional (keyword?, value)).
    type NodeRecipe = (usize, bool, usize, Option<(bool, usize)>);

    /// Build an arbitrary small pattern from a recipe of (parent index,
    /// axis flag, tag index, optional predicate).
    fn build(recipe: &[NodeRecipe]) -> Tpq {
        let mut q = Tpq::new(TAGS[0], Axis::Descendant);
        for &(parent, ad, tag, pred) in recipe {
            let ids: Vec<_> = q.node_ids().collect();
            let p = ids[parent % ids.len()];
            let axis = if ad { Axis::Descendant } else { Axis::Child };
            let id = q.add_child(p, axis, TAGS[tag % TAGS.len()]);
            if let Some((kw, w)) = pred {
                if kw {
                    q.add_predicate(id, Predicate::ft(WORDS[w % WORDS.len()]));
                } else {
                    q.add_predicate(id, Predicate::cmp_num(RelOp::Lt, (w % 10) as f64 * 100.0));
                }
            }
        }
        q
    }

    fn recipe_strategy() -> impl Strategy<Value = Vec<NodeRecipe>> {
        proptest::collection::vec(
            (
                0usize..8,
                any::<bool>(),
                0usize..TAGS.len(),
                proptest::option::of((any::<bool>(), 0usize..8)),
            ),
            0..6,
        )
    }

    proptest! {
        /// Containment is reflexive.
        #[test]
        fn containment_reflexive(r in recipe_strategy()) {
            let q = build(&r);
            prop_assert!(contains(&q, &q));
        }

        /// Adding a constraint to a pattern keeps it contained in the
        /// original (specialization narrows).
        #[test]
        fn specialization_is_contained(r in recipe_strategy(), tag in 0usize..TAGS.len()) {
            let q = build(&r);
            let mut specialized = q.clone();
            specialized.add_child(specialized.root(), Axis::Child, TAGS[tag]);
            prop_assert!(contains(&q, &specialized));
        }

        /// Display → parse round-trips to an equivalent pattern.
        #[test]
        fn display_parse_roundtrip(r in recipe_strategy()) {
            let q = build(&r);
            let rendered = q.to_string();
            let parsed = parse_tpq(&rendered).unwrap();
            prop_assert!(equivalent(&q, &parsed), "{rendered}");
        }

        /// Specialization chains stay contained (transitivity witness).
        #[test]
        fn containment_transitive(r in recipe_strategy()) {
            let c = build(&r);
            // b = c plus a branch; a = b plus a branch. a ⊆ b ⊆ c.
            let mut b = c.clone();
            b.add_child(b.root(), Axis::Child, "extra1");
            let mut a = b.clone();
            a.add_child(a.root(), Axis::Descendant, "extra2");
            prop_assert!(contains(&c, &b));
            prop_assert!(contains(&b, &a));
            prop_assert!(contains(&c, &a));
        }
    }
}
