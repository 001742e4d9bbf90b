//! # pimento-faults
//!
//! A deterministic, seed-driven fault-injection registry (DESIGN.md §12).
//!
//! Production code marks **fault points** — named places where an I/O
//! error, a corrupt snapshot, or a panic could occur — by asking
//! [`should_fire`] whether an installed [`FaultPlan`] schedules a fault
//! there. With no plan installed (the default, and the only state
//! reachable unless a chaos test calls [`install`]) every query answers
//! `false`, so the instrumented code takes its normal path.
//!
//! The registry is compiled into consumers behind their `fault-injection`
//! cargo feature; release binaries built without the feature contain no
//! fault-point code at all.
//!
//! ## Determinism
//!
//! Every decision is a pure function of `(seed, point name, hit index)`:
//! the *n*-th arrival at a given point fires or not independently of
//! thread interleaving, so a chaos schedule is reproducible from its seed
//! alone — the set of fired hit indices is fixed even when the requests
//! that draw those indices race. Schedules compose three primitives:
//!
//! * [`FaultPlan::every`] — fire ~1-in-`n` of hits, seed-hashed so
//!   different seeds select different (but fixed) subsets;
//! * [`FaultPlan::at`] — fire on exactly the `k`-th hit;
//! * [`FaultPlan::always`] — fire on every hit.
//!
//! [`hits`] and [`fired`] expose per-point counters so tests can assert
//! exactly how many faults a run injected.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod vfs;

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// How one fault point fires within a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Fire when `mix(seed, point, hit) % n == 0` — a fixed ~1-in-`n`
    /// subset of hit indices, selected by the seed.
    EveryNth(u64),
    /// Fire on exactly the `k`-th hit (1-based), never again.
    At(u64),
    /// Fire on every hit.
    Always,
}

/// A reproducible fault schedule: a seed plus per-point firing rules.
/// Build with the `every`/`at`/`always` combinators, then [`install`] it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<(String, Mode)>,
}

impl FaultPlan {
    /// An empty plan under `seed` (no point fires until rules are added).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Fire `point` on a seed-selected ~1-in-`n` subset of its hits.
    /// `n == 1` fires always; `n == 0` is treated as never.
    pub fn every(mut self, point: &str, n: u64) -> FaultPlan {
        self.rules.push((point.to_string(), Mode::EveryNth(n)));
        self
    }

    /// Fire `point` on exactly its `k`-th hit (1-based).
    pub fn at(mut self, point: &str, k: u64) -> FaultPlan {
        self.rules.push((point.to_string(), Mode::At(k)));
        self
    }

    /// Fire `point` on every hit.
    pub fn always(mut self, point: &str) -> FaultPlan {
        self.rules.push((point.to_string(), Mode::Always));
        self
    }

    fn mode(&self, point: &str) -> Option<Mode> {
        self.rules.iter().find(|(p, _)| p == point).map(|(_, m)| *m)
    }
}

/// The installed plan plus per-point hit/fired counters.
#[derive(Debug, Default)]
struct Active {
    plan: FaultPlan,
    hits: HashMap<String, u64>,
    fired: HashMap<String, u64>,
}

static REGISTRY: OnceLock<Mutex<Option<Active>>> = OnceLock::new();

// A panicking thread is the *expected* client of this registry (that is
// what it injects), so a poisoned mutex must not cascade: the state is a
// plan plus counters, both valid at every instruction boundary.
fn registry() -> MutexGuard<'static, Option<Active>> {
    let m = REGISTRY.get_or_init(|| Mutex::new(None));
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Install `plan`, replacing any previous one and zeroing all counters.
pub fn install(plan: FaultPlan) {
    *registry() = Some(Active {
        plan,
        ..Active::default()
    });
}

/// Remove the installed plan; every point stops firing.
pub fn clear() {
    *registry() = None;
}

/// Record one arrival at `point` and decide whether it fires under the
/// installed plan. Always `false` when no plan is installed.
pub fn should_fire(point: &str) -> bool {
    let mut guard = registry();
    let Some(active) = guard.as_mut() else {
        return false;
    };
    let hit = active.hits.entry(point.to_string()).or_insert(0);
    *hit += 1;
    let hit = *hit;
    let fire = match active.plan.mode(point) {
        None => false,
        Some(Mode::Always) => true,
        Some(Mode::At(k)) => hit == k,
        Some(Mode::EveryNth(0)) => false,
        Some(Mode::EveryNth(n)) => mix(active.plan.seed, point, hit).is_multiple_of(n),
    };
    if fire {
        *active.fired.entry(point.to_string()).or_insert(0) += 1;
    }
    fire
}

/// How many times `point` has been hit since the plan was installed.
pub fn hits(point: &str) -> u64 {
    registry()
        .as_ref()
        .and_then(|a| a.hits.get(point).copied())
        .unwrap_or(0)
}

/// How many of those hits actually fired.
pub fn fired(point: &str) -> u64 {
    registry()
        .as_ref()
        .and_then(|a| a.fired.get(point).copied())
        .unwrap_or(0)
}

/// splitmix64 over `(seed, fnv1a(point), hit)` — the per-hit decision
/// stream. Pure, so a schedule replays identically from its seed.
fn mix(seed: u64, point: &str, hit: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in point.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let mut z = seed ^ h ^ hit.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests that install plans must not
    // interleave.
    fn serialized() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        match GATE.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn no_plan_never_fires() {
        let _g = serialized();
        clear();
        assert!(registry().is_none());
        assert!(!should_fire("io.read"));
        assert_eq!(hits("io.read"), 0);
        assert_eq!(fired("io.read"), 0);
    }

    #[test]
    fn at_fires_exactly_once() {
        let _g = serialized();
        install(FaultPlan::new(7).at("persist.load", 3));
        let fired_seq: Vec<bool> = (0..6).map(|_| should_fire("persist.load")).collect();
        assert_eq!(fired_seq, [false, false, true, false, false, false]);
        assert_eq!(hits("persist.load"), 6);
        assert_eq!(fired("persist.load"), 1);
        clear();
    }

    #[test]
    fn always_fires_and_unlisted_points_do_not() {
        let _g = serialized();
        install(FaultPlan::new(1).always("store.fsync"));
        assert!(should_fire("store.fsync"));
        assert!(should_fire("store.fsync"));
        assert!(!should_fire("store.rename"));
        assert_eq!(hits("store.rename"), 1, "misses still count as hits");
        clear();
    }

    #[test]
    fn every_nth_is_deterministic_and_near_rate() {
        let _g = serialized();
        let run = |seed: u64| -> Vec<bool> {
            install(FaultPlan::new(seed).every("worker.job", 8));
            let v = (0..512).map(|_| should_fire("worker.job")).collect();
            clear();
            v
        };
        let a = run(0xC0FFEE);
        let b = run(0xC0FFEE);
        assert_eq!(a, b, "same seed, same schedule");
        let c = run(0xBEEF);
        assert_ne!(a, c, "different seeds select different subsets");
        let rate = a.iter().filter(|&&f| f).count();
        // ~1 in 8 of 512 = 64 expected; allow a generous band (the subset
        // is hash-selected, not strictly periodic).
        assert!((20..=120).contains(&rate), "fired {rate}/512");
    }

    #[test]
    fn every_one_always_fires_and_every_zero_never() {
        let _g = serialized();
        install(FaultPlan::new(3).every("a", 1).every("b", 0));
        assert!(should_fire("a") && should_fire("a"));
        assert!(!should_fire("b") && !should_fire("b"));
        clear();
    }

    #[test]
    fn install_resets_counters() {
        let _g = serialized();
        install(FaultPlan::new(1).always("p"));
        assert!(should_fire("p"));
        install(FaultPlan::new(1).always("p"));
        assert_eq!(hits("p"), 0);
        clear();
    }
}
