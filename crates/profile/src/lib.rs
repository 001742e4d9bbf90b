//! # pimento-profile
//!
//! User profiles for the PIMENTO reproduction — the paper's central
//! formalization (§3–§5): a profile `Π = (Σ, O_v, O_k)` of scoping rules,
//! value-based ordering rules, and keyword-based ordering rules, together
//! with the static analyses the paper defines over them:
//!
//! * [`scoping`] — `add`/`delete`/`replace` rules, subsumption-guarded;
//! * [`conflict`] — the conflict graph over SRs, cycle detection, and
//!   priority-based resolution (§5.1);
//! * [`flock`] — query flocks `Q, ρ1(Q), ρ2(ρ1(Q)), …` and their
//!   single-plan encoding with optional (outer-joined) SR deltas (§6.1);
//! * [`vor`] — the three VOR forms and the runtime `≺_V` comparator;
//! * [`prefrel`] — strict partial orders over attribute domains;
//! * [`ambiguity`] — alternating-cycle detection in the constraint graph
//!   (Lemma 5.1) with a satisfiability refinement;
//! * [`kor`] — keyword ordering rules with weights (`K` scores);
//! * [`profile`] — the assembled [`UserProfile`].
//!
//! ```
//! use pimento_profile::{UserProfile, ValueOrderingRule, KeywordOrderingRule};
//!
//! let profile = UserProfile::new()
//!     .with_vor(ValueOrderingRule::prefer_value("pi1", "car", "color", "red"))
//!     .with_vor(ValueOrderingRule::prefer_smaller("pi2", "car", "mileage"))
//!     .with_kor(KeywordOrderingRule::new("pi5", "car", "NYC"));
//! // π1/π2 clash on a red, high-mileage car vs a non-red, low-mileage one:
//! assert!(profile.check_ambiguity().is_ambiguous());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ambiguity;
pub mod conflict;
pub mod constraints;
pub mod flock;
pub mod kor;
pub mod parse;
pub mod prefrel;
pub mod profile;
pub mod render;
pub mod scoping;
pub mod thesaurus;
pub mod validate;
pub mod vor;
pub mod vor_table;

pub use ambiguity::{detect_ambiguity, detect_ambiguity_with_priorities, AmbiguityReport};
pub use conflict::{analyze as analyze_conflicts, conflicts, ConflictAnalysis, ConflictError};
pub use flock::{personalize, personalize_ordered, PersonalizedQuery, QueryFlock};
pub use kor::KeywordOrderingRule;
pub use parse::{parse_profile, parse_rule, ParsedRule, PrefRelRegistry, RuleParseError};
pub use prefrel::{PrefRel, PrefTable};
pub use profile::{RankOrder, UserProfile};
pub use render::{render_kor, render_profile, render_scoping, render_vor, RenderError};
pub use scoping::{Atom, Edit, ScopingRule, SrAction};
pub use thesaurus::Thesaurus;
pub use validate::{validate, Finding, FindingKind, Severity, VerifyReport, Warning};
pub use vor::{compare_all, AttrValue, PrefOp, RuleCmp, ValueOrderingRule, VorForm, VorOutcome};
pub use vor_table::{CompiledKey, CompiledVors, KeyClass};

#[cfg(test)]
mod proptests {
    use crate::vor::{compare_all, AttrValue, ValueOrderingRule, VorOutcome};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn rules() -> Vec<ValueOrderingRule> {
        vec![
            ValueOrderingRule::prefer_smaller("m", "car", "mileage").with_priority(0),
            ValueOrderingRule::prefer_value("c", "car", "color", "red").with_priority(1),
            ValueOrderingRule::prefer_larger("h", "car", "hp").with_priority(2),
        ]
    }

    fn car(mileage: u32, red: bool, hp: u32) -> HashMap<String, AttrValue> {
        let mut m = HashMap::new();
        m.insert("mileage".to_string(), AttrValue::Num(mileage as f64));
        m.insert(
            "color".to_string(),
            AttrValue::Str(if red { "red" } else { "blue" }.into()),
        );
        m.insert("hp".to_string(), AttrValue::Num(hp as f64));
        m
    }

    fn cmp(a: &HashMap<String, AttrValue>, b: &HashMap<String, AttrValue>) -> VorOutcome {
        compare_all(&rules(), "car", "car", &|k| a.get(k).cloned(), &|k| {
            b.get(k).cloned()
        })
    }

    proptest! {
        /// ≺_V under full priorities is antisymmetric.
        #[test]
        fn vor_antisymmetric(m1 in 0u32..5, r1 in any::<bool>(), h1 in 0u32..5,
                             m2 in 0u32..5, r2 in any::<bool>(), h2 in 0u32..5) {
            let a = car(m1, r1, h1);
            let b = car(m2, r2, h2);
            let ab = cmp(&a, &b);
            let ba = cmp(&b, &a);
            match ab {
                VorOutcome::PreferA => prop_assert_eq!(ba, VorOutcome::PreferB),
                VorOutcome::PreferB => prop_assert_eq!(ba, VorOutcome::PreferA),
                VorOutcome::Equal => prop_assert_eq!(ba, VorOutcome::Equal),
                VorOutcome::Incomparable => prop_assert_eq!(ba, VorOutcome::Incomparable),
            }
        }

        /// ≺_V under full (totally ordering) priorities on totally-valued
        /// data is transitive.
        #[test]
        fn vor_transitive(cars in proptest::collection::vec((0u32..4, any::<bool>(), 0u32..4), 3)) {
            let a = car(cars[0].0, cars[0].1, cars[0].2);
            let b = car(cars[1].0, cars[1].1, cars[1].2);
            let c = car(cars[2].0, cars[2].1, cars[2].2);
            if cmp(&a, &b) == VorOutcome::PreferA && cmp(&b, &c) == VorOutcome::PreferA {
                prop_assert_eq!(cmp(&a, &c), VorOutcome::PreferA);
            }
        }

        /// Reflexivity: every answer ties with itself.
        #[test]
        fn vor_reflexive_equal(m in 0u32..10, r in any::<bool>(), h in 0u32..10) {
            let a = car(m, r, h);
            prop_assert_eq!(cmp(&a, &a), VorOutcome::Equal);
        }
    }
}
