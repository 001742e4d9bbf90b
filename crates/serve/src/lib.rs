//! # pimento-serve
//!
//! A resident, concurrent query service over a [`pimento::Engine`]
//! (DESIGN.md §11). PIMENTO's cost model assumes profiles are long-lived
//! state reused across many queries; a per-process CLI re-parses the
//! corpus and the rule file on every invocation. This crate keeps the
//! engine and every user's parsed profile resident behind a TCP
//! endpoint and compiles each (profile, query) pair per request
//! (DESIGN.md §11.2).
//!
//! Dependency-free by design: `std::net` sockets, a vendored JSON module
//! ([`json`]), and a 4-byte length-delimited frame protocol
//! ([`protocol`]). Layers:
//!
//! * [`registry`] — per-user profile sessions and, with `--profile-dir`,
//!   their crash-safe durable copy (write-temp + fsync + atomic rename,
//!   checksummed, quarantine-on-corrupt) with the one verify walk behind
//!   startup recovery, the scrubber and `pimento scrub`;
//! * [`metrics`] — lock-cheap counters + latency histograms;
//! * [`server`] — acceptor / reader / worker-pool topology with bounded
//!   queueing, deadlines, per-request panic isolation, and draining
//!   shutdown;
//! * [`scrub`] — online integrity scrubber: periodic re-verification of
//!   every durable artifact with quarantine-and-repair and the `health`
//!   verb (DESIGN.md §17);
//! * [`client`] — a small blocking client for tests and tooling.
//!
//! The failure model — which fault can fire where, and what typed error
//! or degradation each one maps to — is cataloged in DESIGN.md §12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod scrub;
pub mod server;

/// The deterministic fault-injection registry, re-exported so the chaos
/// suite can install seeded [`pimento_faults::FaultPlan`]s against the
/// named fault points this crate compiles in.
#[cfg(feature = "fault-injection")]
pub use pimento_faults as faults;

pub use client::{Client, ClientError};
pub use json::Value;
pub use metrics::Metrics;
pub use protocol::{err_kind, Request};
pub use registry::ProfileRegistry;
pub use scrub::{
    spawn_scrubber, ComponentHealth, HealthLevel, HealthReport, PassSummary, Scrubber,
    ScrubberHandle,
};
pub use server::{ServeConfig, ServeError, Server};
