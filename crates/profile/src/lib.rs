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
//! * [`vor`] — the three VOR forms;
//! * [`vor_table`] — the compiled `≺_V` comparator the engine ranks with;
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
pub use scoping::{Atom, Edit, ScopingRule, SrAction};
pub use thesaurus::Thesaurus;
pub use validate::{validate, Finding, FindingKind, Severity, VerifyReport, Warning};
pub use vor::{AttrValue, PrefOp, RuleCmp, ValueOrderingRule, VorForm, VorOutcome};
pub use vor_table::{CompiledKey, CompiledVors, KeyClass};
