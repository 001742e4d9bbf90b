//! # pimento-bench
//!
//! The harness regenerating every table and figure of the PIMENTO
//! paper's evaluation (§7). Each bin prints its table and writes no file:
//!
//! * [`table1`] — INEX effectiveness (Table 1):
//!   `cargo run -p pimento-bench --release --bin table1`
//! * [`perf`]::run_fig6 — PushTopkPrune scaling (Fig. 6):
//!   `cargo run -p pimento-bench --release --bin fig6`
//! * [`perf`]::run_fig7 — plan comparison (Fig. 7) and the §7.2 KOR-order
//!   ablation: `cargo run -p pimento-bench --release --bin fig7 [-- --ablation]`
//! * Criterion micro benches of the building blocks:
//!   `cargo bench -p pimento-bench --bench micro`.
//!
//! The benchmark of the running system (library, server, write path) is
//! the separate `perfbench/` package declared by `BENCHMARK.json`.

#![forbid(unsafe_code)]

pub mod perf;
pub mod table1;
pub mod workloads;
