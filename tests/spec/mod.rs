//! The executable specification the integration tests compare the engine
//! against: plain, unoptimized restatements of the paper's definitions
//! over public API only.
//!
//! * [`vor`] — `≺_V`, the value-based preference of paper §3.2 and §5.2,
//!   evaluated rule by rule on string attribute values.

pub mod vor;
