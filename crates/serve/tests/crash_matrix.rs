//! Exhaustive crash-point enumeration for profile persistence
//! (DESIGN.md §17): the serve-side twin of the ingest crash matrix.
//!
//! A reference run of a fixed registration script (alice v1 → alice v2
//! → bob) on a clean `SimVfs` counts every mutating filesystem
//! operation; then, for every crash point and every reboot style, the
//! script re-runs with that operation failing, reboots, and recovery
//! must see exactly one of the committed checkpoints — never a torn
//! profile, never a lost committed write, never a panic.

#![cfg(feature = "fault-injection")]

use pimento::profile::{parse_profile, PrefRelRegistry};
use pimento::Error;
use pimento_serve::faults::vfs::{CrashStyle, SimVfs, Vfs};
use pimento_serve::{Metrics, ProfileRegistry};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

const STEPS: usize = 3;

const ALICE_V1: &str = "pi1: x.tag = car & y.tag = car & ftcontains(x, \"red\") -> x < y\n";
const ALICE_V2: &str = "pi1: x.tag = car & y.tag = car & ftcontains(x, \"red\") -> x < y\n\
                        pi2: x.tag = car & y.tag = car & x.mileage < y.mileage -> x < y\n";
const BOB: &str = "pi9: x.tag = flat & y.tag = flat & ftcontains(x, \"garden\") -> x < y\n";

/// Register `rules` for `user` (parsed here, as `register_profile`
/// does) and return the persist outcome.
fn register(registry: &ProfileRegistry, user: &str, rules: &str) -> Result<(), Error> {
    let profile = parse_profile(rules, &PrefRelRegistry::new()).expect("rules parse");
    registry
        .register(user, profile, rules)
        .expect("registry has a profile dir")
}

/// What a restart recovers from `dir`, as a canonical, comparable value.
/// Honest-fsync crashes must never surface a corrupt file, so any
/// quarantine or degraded session fails the harness on the spot.
fn recovered_state(vfs: &Arc<SimVfs>, dir: &Path) -> Vec<(String, String)> {
    let registry = ProfileRegistry::open_with(vfs.clone() as Arc<dyn Vfs>, dir).expect("open");
    let metrics = Metrics::new();
    registry.recover(&metrics).expect("recover scans");
    assert_eq!(
        metrics.profiles_quarantined.load(Ordering::Relaxed),
        0,
        "honest fsyncs produced a torn profile: {:?}",
        registry.verify()
    );
    let state = registry.persisted_rules();
    assert_eq!(state.len(), registry.len(), "no degraded session");
    state
}

/// One full run of the registration script, stopping at the first
/// failed persist. Returns how many persists committed (0..=STEPS);
/// every failure must be a typed error.
fn run_script(vfs: &Arc<SimVfs>, dir: &Path, mut on_ok: impl FnMut(usize)) -> usize {
    let Ok(registry) = ProfileRegistry::open_with(vfs.clone() as Arc<dyn Vfs>, dir) else {
        return 0;
    };
    let script: [(&str, &str); STEPS] = [("alice", ALICE_V1), ("alice", ALICE_V2), ("bob", BOB)];
    for (i, (user, rules)) in script.iter().enumerate() {
        match register(&registry, user, rules) {
            Ok(()) => on_ok(i + 1),
            Err(e @ Error::DiskFull(_)) => panic!("crash harness injected no ENOSPC: {e}"),
            Err(_) => return i,
        }
    }
    STEPS
}

#[test]
fn crash_at_every_point_recovers_a_committed_profile_set() {
    let dir = PathBuf::from("/sim/profiles");

    // Counting pass: a clean run with the exact op sequence the crash
    // runs will replay — nothing extra may touch the vfs here.
    let vfs = Arc::new(SimVfs::new(13));
    let m = run_script(&vfs, &dir, |_| {});
    assert_eq!(m, STEPS, "clean run must commit every persist");
    let total = vfs.mutations();
    assert!(
        total > 10,
        "script too small to be interesting: {total} ops"
    );

    // Checkpoint pass (op numbering is irrelevant on a run that never
    // crashes): C[0] (empty) .. C[3], each read by a fresh registry's
    // recovery, which is read-only on a clean directory.
    let vfs = Arc::new(SimVfs::new(13));
    let mut checkpoints: Vec<Vec<(String, String)>> = vec![Vec::new()];
    let m = run_script(&vfs, &dir, |_| {
        checkpoints.push(recovered_state(&vfs, &dir));
    });
    assert_eq!(m, STEPS);
    assert_eq!(checkpoints[STEPS].len(), 2, "alice + bob");

    for style in [CrashStyle::Lose, CrashStyle::Keep, CrashStyle::Torn] {
        for k in 1..=total {
            let vfs = Arc::new(SimVfs::new(13));
            vfs.set_crash_at(Some(k));
            let m = run_script(&vfs, &dir, |_| {});
            assert!(vfs.crashed(), "{style:?}/{k}: crash point never fired");

            vfs.reboot(style);
            let state = recovered_state(&vfs, &dir);
            let at_prev = state == checkpoints[m];
            let at_next = m < STEPS && state == checkpoints[m + 1];
            assert!(
                at_prev || at_next,
                "{style:?}/{k}: recovered a third state after {m} committed \
                 persists:\n{state:#?}"
            );

            // Stale temp files from the interrupted persist must be
            // invisible to recovery (asserted above) and flagged for
            // cleanup only — never promoted to profiles.
            for path in vfs.list(&dir).expect("list") {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                assert!(
                    name.ends_with(".profile") || name.ends_with(".tmp"),
                    "{style:?}/{k}: unexpected artifact {name}"
                );
            }
        }
    }
}

/// ENOSPC survival for profiles: typed error, temp cleaned up, every
/// previously committed profile still recoverable, retry succeeds.
#[test]
fn disk_full_profile_persist_is_retryable() {
    let dir = PathBuf::from("/sim/profiles-enospc");
    let vfs = Arc::new(SimVfs::new(17));
    let registry = ProfileRegistry::open_with(vfs.clone() as Arc<dyn Vfs>, &dir).expect("open");
    register(&registry, "alice", ALICE_V1).expect("first persist");
    let committed = recovered_state(&vfs, &dir);

    vfs.set_budget(Some(4));
    let err = register(&registry, "bob", BOB).expect_err("disk is full");
    assert!(matches!(err, Error::DiskFull(_)), "typed: {err}");
    assert!(registry.get("bob").is_some(), "the session is live anyway");
    assert_eq!(recovered_state(&vfs, &dir), committed, "alice survives");
    let tmps = vfs
        .list(&dir)
        .expect("list")
        .into_iter()
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("tmp"))
        .count();
    assert_eq!(tmps, 0, "temp cleaned up on a full disk");

    vfs.set_budget(None);
    register(&registry, "bob", BOB).expect("retry succeeds");
    assert_eq!(recovered_state(&vfs, &dir).len(), 2);
}

/// A [`Vfs`] over a [`SimVfs`] that parks the first profile temp-file
/// write until the test releases it.
#[derive(Debug)]
struct GateVfs {
    inner: Arc<SimVfs>,
    /// `(armed, parked, released)`.
    state: Mutex<(bool, bool, bool)>,
    wake: Condvar,
}

impl GateVfs {
    fn new(inner: Arc<SimVfs>) -> GateVfs {
        GateVfs {
            inner,
            state: Mutex::new((true, false, false)),
            wake: Condvar::new(),
        }
    }

    /// Block until a writer is parked in the gate.
    fn wait_parked(&self) {
        let s = self.state.lock().expect("gate");
        let (s, _) = self
            .wake
            .wait_timeout_while(s, Duration::from_secs(10), |s| !s.1)
            .expect("gate");
        assert!(s.1, "no registration reached the profile write");
    }

    fn release(&self) {
        self.state.lock().expect("gate").2 = true;
        self.wake.notify_all();
    }
}

impl Vfs for GateVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if path.to_string_lossy().ends_with(".profile.tmp") {
            let mut s = self.state.lock().expect("gate");
            if s.0 {
                s.0 = false;
                s.1 = true;
                self.wake.notify_all();
                while !s.2 {
                    s = self.wake.wait(s).expect("gate");
                }
            }
        }
        self.inner.write_file(path, bytes)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.inner.fsync(path)
    }
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.fsync_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }
}

/// Two registrations of one user race: A installs r1 and parks inside
/// its persist, B registers r2, then A finishes. Whatever order the
/// writer lock imposes, the profile a restart recovers is the one the
/// registry serves — never A's older rules under B's acknowledged
/// `persisted: true`.
#[test]
fn concurrent_registrations_of_one_user_persist_what_is_served() {
    let dir = PathBuf::from("/sim/profiles-race");
    let sim = Arc::new(SimVfs::new(19));
    let gate = Arc::new(GateVfs::new(Arc::clone(&sim)));
    let registry =
        Arc::new(ProfileRegistry::open_with(gate.clone() as Arc<dyn Vfs>, &dir).expect("open"));

    let r = Arc::clone(&registry);
    let a = thread::spawn(move || register(&r, "alice", ALICE_V1));
    gate.wait_parked();
    let r = Arc::clone(&registry);
    let b = thread::spawn(move || register(&r, "alice", ALICE_V2));
    thread::sleep(Duration::from_millis(100));
    gate.release();
    a.join().expect("thread A").expect("A persists");
    b.join().expect("thread B").expect("B persists");

    let served = registry.persisted_rules();
    assert_eq!(served.len(), 1, "{served:?}");
    assert_eq!(
        recovered_state(&sim, &dir),
        served,
        "disk disagrees with memory"
    );
}
