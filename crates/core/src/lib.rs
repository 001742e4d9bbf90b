//! # pimento
//!
//! A Rust reproduction of **PIMENTO** — *Personalizing XML Search*
//! (Amer-Yahia, Fundulaki, Lakshmanan; ICDE 2007).
//!
//! PIMENTO personalizes XML full-text search with user profiles made of
//! **scoping rules** (query rewritings that broaden or narrow the search,
//! evaluated as a *query flock* encoded into a single plan) and **ordering
//! rules** (value-based pairwise preferences `≺_V` and keyword-based
//! additive scores `K`), enforced efficiently by **OR-aware top-k
//! pruning**.
//!
//! ```
//! use pimento::{Engine, SearchOptions};
//! use pimento::profile::{UserProfile, ValueOrderingRule, KeywordOrderingRule};
//!
//! let engine = Engine::from_xml_docs(&[r#"<dealer>
//!   <car><description>good condition, best bid, in NYC</description><price>500</price></car>
//!   <car><description>good condition, garaged</description><price>900</price><color>red</color></car>
//! </dealer>"#]).unwrap();
//!
//! let profile = UserProfile::new()
//!     .with_vor(ValueOrderingRule::prefer_value("pi1", "car", "color", "red"))
//!     .with_kor(KeywordOrderingRule::new("pi5", "car", "NYC"));
//!
//! let results = engine.search(
//!     r#"//car[ftcontains(., "good condition") and ./price < 2000]"#,
//!     &profile,
//!     &SearchOptions::top(2),
//! ).unwrap();
//! assert_eq!(results.hits.len(), 2);
//! // The NYC car satisfies the keyword ordering rule and ranks first.
//! assert!(results.hits[0].text.contains("NYC"));
//! ```
//!
//! The substrate crates are re-exported for direct use:
//! [`xml`] (parser/tree), [`index`] (inverted + tag indexes),
//! [`tpq`] (tree pattern queries), [`profile`] (rules + static analysis),
//! [`algebra`] (operators, plans, top-k pruning).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod explain;
pub mod result;
pub mod segment;

pub use engine::{Engine, PreparedSearch};
pub use error::Error;
pub use explain::{analyze, AnalysisReport};
pub use result::{SearchOptions, SearchResult, SearchResults};
pub use segment::Segment;

pub use pimento_algebra as algebra;
pub use pimento_index as index;
pub use pimento_profile as profile;
pub use pimento_tpq as tpq;
pub use pimento_xml as xml;

pub use pimento_algebra::{KorOrder, PlanStrategy};
