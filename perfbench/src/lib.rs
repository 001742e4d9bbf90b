//! # pimento-perfbench
//!
//! The one benchmark of the PIMENTO reproduction (see `README.md` in this
//! directory): four named workloads, end-to-end metrics with regression
//! bounds, per-layer metrics and a traced run, all measured from outside
//! the program through its public API and its wire protocol.
//!
//! The benchmark sets **no knob**: searches run under
//! `SearchOptions::top(k)` and servers under `ServeConfig::default()`
//! (plus `addr`, and `data_dir` on `serve.ingest`), so a better default
//! shows as a gain and a deleted knob does not edit this crate.

#![forbid(unsafe_code)]

pub mod check;
pub mod inputs;
pub mod replay;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
