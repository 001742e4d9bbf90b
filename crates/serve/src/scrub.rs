//! The online integrity scrubber (DESIGN.md §17).
//!
//! A background pass over every durable artifact the server owns: the
//! segment-store manifest, each live segment's v4 section checksums,
//! tombstone sidecars, and every stored profile. Damage is never served
//! and never fatal — a corrupt artifact is **quarantined** (renamed
//! aside under the bounded `*.quarantined` policy) and **repaired** from
//! the last good generation: the in-memory engine for corpus artifacts
//! (publishes swap it in only after a durable commit, so it *is* the
//! last good generation), the in-memory profile registry for profiles.
//!
//! Health is recomputed from scratch on every pass, so the reported
//! level follows the disk: `ok` → `degraded` when damage is found and
//! repaired, back to `ok` once a clean pass confirms the repair, and
//! `corrupt` only when a repair itself failed — the one state that
//! needs an operator.
//!
//! [`Scrubber::run_pass`] is public and synchronous so tests (and the
//! `pimento scrub` one-shot subcommand) can drive passes
//! deterministically; [`spawn_scrubber`] wraps it in the periodic
//! thread the server runs under `--scrub-interval-ms`.

use crate::json::{obj, Value};
use crate::metrics::Metrics;
use crate::registry::ProfileRegistry;
use pimento_faults::vfs::{
    enforce_quarantine_cap, quarantine_file, quarantine_stats, QuarantineCap,
};
use pimento_ingest::store::verify;
use pimento_ingest::Ingestor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Component health, worst-first ordering: `Ok < Degraded < Corrupt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthLevel {
    /// Every artifact verified on the last pass.
    Ok,
    /// Damage was found but quarantined and repaired; answers were never
    /// served from the damaged artifact. Clears on the next clean pass.
    Degraded,
    /// A repair failed: durability is impaired until an operator (or a
    /// later successful pass) restores it. Serving continues from the
    /// intact in-memory state.
    Corrupt,
}

impl HealthLevel {
    /// Protocol string (`health` verb).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthLevel::Ok => "ok",
            HealthLevel::Degraded => "degraded",
            HealthLevel::Corrupt => "corrupt",
        }
    }

    /// Numeric gauge encoding (`0`/`1`/`2`) for the stats snapshot.
    pub fn as_gauge(self) -> u64 {
        match self {
            HealthLevel::Ok => 0,
            HealthLevel::Degraded => 1,
            HealthLevel::Corrupt => 2,
        }
    }
}

/// One component's verdict plus a human-readable reason.
#[derive(Debug, Clone)]
pub struct ComponentHealth {
    /// The level.
    pub level: HealthLevel,
    /// What the last pass saw, for the `health` response.
    pub detail: String,
}

impl ComponentHealth {
    fn ok(detail: &str) -> ComponentHealth {
        ComponentHealth {
            level: HealthLevel::Ok,
            detail: detail.to_string(),
        }
    }
}

/// The scrubber's current verdict, refreshed on every pass.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Segment store: manifest, segment sections, tombstone sidecars.
    pub corpus: ComponentHealth,
    /// Durable profile store.
    pub profiles: ComponentHealth,
    /// Completed scrub passes.
    pub passes: u64,
    /// Counters from the most recent pass.
    pub last_pass: PassSummary,
}

impl HealthReport {
    fn initial() -> HealthReport {
        HealthReport {
            corpus: ComponentHealth::ok("not yet scrubbed"),
            profiles: ComponentHealth::ok("not yet scrubbed"),
            passes: 0,
            last_pass: PassSummary::default(),
        }
    }

    /// The worst component level.
    pub fn overall(&self) -> HealthLevel {
        self.corpus.level.max(self.profiles.level)
    }
}

/// What one scrub pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassSummary {
    /// Checksummed units that verified: manifest, v4 sections, tombstone
    /// sidecars, profile files.
    pub sections_verified: u64,
    /// Artifacts found damaged (checksum mismatch, unreadable, unparsable).
    pub corrupt_artifacts: u64,
    /// Damaged artifacts successfully renamed aside.
    pub quarantined: u64,
    /// Successful repairs (corpus re-publish counts once; each
    /// re-persisted profile counts once).
    pub repairs: u64,
    /// Repairs that failed (drives the `corrupt` level).
    pub repair_failures: u64,
}

/// The scrubber: owns handles to the two owners of durable state — the
/// ingest pipeline (segment directory) and the profile registry
/// (profile directory). See the module docs for the pass algorithm and
/// health semantics.
pub struct Scrubber {
    ingest: Arc<Ingestor>,
    profiles: Arc<ProfileRegistry>,
    metrics: Arc<Metrics>,
    health: Mutex<HealthReport>,
}

impl Scrubber {
    /// Wire a scrubber over the server's durable state. Each side is
    /// skipped automatically when its owner has no directory.
    pub fn new(
        ingest: Arc<Ingestor>,
        profiles: Arc<ProfileRegistry>,
        metrics: Arc<Metrics>,
    ) -> Scrubber {
        Scrubber {
            ingest,
            profiles,
            metrics,
            health: Mutex::new(HealthReport::initial()),
        }
    }

    /// One full scrub pass: verify → quarantine → repair → refresh
    /// health and metrics. Synchronous; the periodic thread and the
    /// one-shot CLI both call this.
    pub fn run_pass(&self) -> PassSummary {
        let started = Instant::now();
        let mut pass = PassSummary::default();
        let corpus = self.scrub_corpus(&mut pass);
        let profiles = self.scrub_profiles(&mut pass);
        self.refresh_quarantine_gauges();

        let m = &self.metrics;
        m.inc(&m.scrub_passes);
        m.add(&m.scrub_sections, pass.sections_verified);
        m.add(&m.scrub_corruptions, pass.corrupt_artifacts);
        m.add(&m.scrub_repairs, pass.repairs);
        m.add(&m.scrub_repair_failures, pass.repair_failures);
        m.scrub_last_pass_us
            .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        m.health_corpus
            .store(corpus.level.as_gauge(), Ordering::Relaxed);
        m.health_profiles
            .store(profiles.level.as_gauge(), Ordering::Relaxed);

        let mut health = lock(&self.health);
        health.corpus = corpus;
        health.profiles = profiles;
        health.passes += 1;
        health.last_pass = pass.clone();
        pass
    }

    /// The current health report (a clone; the scrubber keeps running).
    pub fn health(&self) -> HealthReport {
        lock(&self.health).clone()
    }

    /// The `health` verb's response body.
    pub fn health_body(&self) -> Value {
        let h = self.health();
        let component = |c: &ComponentHealth| {
            obj([
                ("status", c.level.as_str().into()),
                ("detail", c.detail.as_str().into()),
            ])
        };
        obj([
            ("status", h.overall().as_str().into()),
            ("corpus", component(&h.corpus)),
            ("profiles", component(&h.profiles)),
            ("passes", h.passes.into()),
            (
                "last_pass",
                obj([
                    ("sections_verified", h.last_pass.sections_verified.into()),
                    ("corrupt_artifacts", h.last_pass.corrupt_artifacts.into()),
                    ("quarantined", h.last_pass.quarantined.into()),
                    ("repairs", h.last_pass.repairs.into()),
                    ("repair_failures", h.last_pass.repair_failures.into()),
                ]),
            ),
        ])
    }

    /// Verify the segment store with the one directory verifier
    /// ([`pimento_ingest::store::verify`]: the loader's rules). Any
    /// damage quarantines the artifact and re-publishes the whole
    /// generation from the live engine (`Ingestor::repair_persist`).
    fn scrub_corpus(&self, pass: &mut PassSummary) -> ComponentHealth {
        let Some(store) = self.ingest.store() else {
            return ComponentHealth::ok("corpus is memory-only (no data dir)");
        };
        let vfs = store.vfs();
        let mut details: Vec<String> = Vec::new();
        for verdict in verify(&**vfs, store.dir()) {
            pass.sections_verified += verdict.verified;
            let Err(why) = verdict.outcome else {
                continue;
            };
            pass.corrupt_artifacts += 1;
            let path = store.dir().join(&verdict.file);
            if quarantine_file(&**vfs, &path, QuarantineCap::default()).is_ok() {
                pass.quarantined += 1;
            }
            details.push(format!("{}: {why}", verdict.file));
        }
        if details.is_empty() {
            return ComponentHealth::ok("all segment sections, tombstones and the manifest verified");
        }
        // The live engine is the last good generation — publishes only
        // swap it in after a durable commit — so one re-publish restores
        // everything the quarantine removed.
        match self.ingest.repair_persist() {
            Ok(_) => {
                pass.repairs += 1;
                ComponentHealth {
                    level: HealthLevel::Degraded,
                    detail: format!(
                        "quarantined and re-published from the live generation: {}",
                        details.join("; ")
                    ),
                }
            }
            Err(e) => {
                pass.repair_failures += 1;
                ComponentHealth {
                    level: HealthLevel::Corrupt,
                    detail: format!(
                        "repair failed ({e}) after quarantining: {}",
                        details.join("; ")
                    ),
                }
            }
        }
    }

    /// Verify every stored profile file through the registry's one walk
    /// ([`ProfileRegistry::verify`]), quarantine damage, then let the
    /// registry re-persist any session whose file is missing (covers both
    /// just-quarantined files and files lost earlier).
    fn scrub_profiles(&self, pass: &mut PassSummary) -> ComponentHealth {
        let Some((dir, vfs)) = self.profiles.dir() else {
            return ComponentHealth::ok("profiles are memory-only (no profile dir)");
        };
        let mut details: Vec<String> = Vec::new();
        let mut corrupt = 0u64;
        for verdict in self.profiles.verify().unwrap_or_default() {
            let Err(damage) = verdict.outcome else {
                pass.sections_verified += 1;
                continue;
            };
            corrupt += 1;
            pass.corrupt_artifacts += 1;
            let path = dir.join(&verdict.file);
            if quarantine_file(&**vfs, &path, QuarantineCap::default()).is_ok() {
                pass.quarantined += 1;
            }
            details.push(format!("{}: {}", verdict.file, damage.why));
        }
        let mut repaired = 0u64;
        let mut failures = 0u64;
        for (user, outcome) in self.profiles.repair() {
            match outcome {
                Ok(()) => repaired += 1,
                Err(e) => {
                    failures += 1;
                    details.push(format!("re-persist `{user}`: {e}"));
                }
            }
        }
        pass.repairs += repaired;
        pass.repair_failures += failures;
        if failures > 0 {
            ComponentHealth {
                level: HealthLevel::Corrupt,
                detail: format!("profile repair failed: {}", details.join("; ")),
            }
        } else if corrupt > 0 || repaired > 0 {
            ComponentHealth {
                level: HealthLevel::Degraded,
                detail: format!(
                    "quarantined {corrupt}, re-persisted {repaired}: {}",
                    details.join("; ")
                ),
            }
        } else {
            ComponentHealth::ok("all stored profiles verified")
        }
    }

    /// Age out quarantined wreckage beyond the retention cap and refresh
    /// the `store.quarantined_*` gauges across both stores.
    fn refresh_quarantine_gauges(&self) {
        let mut files = 0u64;
        let mut bytes = 0u64;
        let corpus = self.ingest.store().map(|store| (store.dir(), store.vfs()));
        for (dir, vfs) in corpus.into_iter().chain(self.profiles.dir()) {
            enforce_quarantine_cap(&**vfs, dir, QuarantineCap::default());
            let q = quarantine_stats(&**vfs, dir);
            files += q.len() as u64;
            bytes += q.iter().map(|f| f.len).sum::<u64>();
        }
        self.metrics
            .quarantined_files
            .store(files, Ordering::Relaxed);
        self.metrics
            .quarantined_bytes
            .store(bytes, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Scrubber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scrubber")
            .field("health", &self.health())
            .finish_non_exhaustive()
    }
}

/// Handle to a running scrubber thread; [`ScrubberHandle::stop`] wakes
/// and joins it.
pub struct ScrubberHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: thread::JoinHandle<()>,
}

impl ScrubberHandle {
    /// Signal the thread to exit and wait for it.
    pub fn stop(self) {
        let (flag, wake) = &*self.stop;
        *lock(flag) = true;
        wake.notify_all();
        let _ = self.handle.join();
    }
}

/// Spawn the periodic scrub thread: one pass immediately, then one per
/// `interval` until stopped. A panic inside a pass is isolated (counted
/// as `panics`) — the scrubber must never take the server down.
pub fn spawn_scrubber(
    scrubber: &Arc<Scrubber>,
    interval: Duration,
) -> std::io::Result<ScrubberHandle> {
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let flag = Arc::clone(&stop);
    let s = Arc::clone(scrubber);
    let handle = thread::Builder::new()
        .name("pimento-scrub".to_string())
        .spawn(move || loop {
            if catch_unwind(AssertUnwindSafe(|| s.run_pass())).is_err() {
                s.metrics.inc(&s.metrics.panics);
            }
            let deadline = Instant::now() + interval;
            let (stopped, wake) = &*flag;
            let mut g = lock(stopped);
            loop {
                if *g {
                    return;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                g = match wake.wait_timeout(g, deadline - now) {
                    Ok((g, _)) => g,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        })?;
    Ok(ScrubberHandle { stop, handle })
}

// The stop flag and health report are plain data: recover poisoned
// guards instead of cascading a panic into the server.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_levels_order_and_encode() {
        assert!(HealthLevel::Ok < HealthLevel::Degraded);
        assert!(HealthLevel::Degraded < HealthLevel::Corrupt);
        assert_eq!(HealthLevel::Ok.as_str(), "ok");
        assert_eq!(HealthLevel::Degraded.as_gauge(), 1);
        assert_eq!(HealthLevel::Corrupt.as_gauge(), 2);
        let report = HealthReport {
            corpus: ComponentHealth::ok("fine"),
            profiles: ComponentHealth {
                level: HealthLevel::Degraded,
                detail: "repaired".to_string(),
            },
            passes: 3,
            last_pass: PassSummary::default(),
        };
        assert_eq!(report.overall(), HealthLevel::Degraded);
    }
}
