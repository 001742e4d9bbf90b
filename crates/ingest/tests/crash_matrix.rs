//! Exhaustive crash-point enumeration for the ingest commit protocol
//! (DESIGN.md §17).
//!
//! A reference run of a fixed ingest script (bootstrap → add → delete →
//! add → compact) on a clean `SimVfs` counts every mutating filesystem
//! operation — each one is a crash point — and records the recovery
//! fingerprint after every committed step. Then, for every crash point
//! `k` and every reboot style (power loss, clean kill, torn unsynced
//! content), the script re-runs with the `k`-th operation failing,
//! reboots, and recovery must land **bit-identically** on either the
//! last committed checkpoint or the next one (a commit that landed but
//! was never acked). Zero third states, zero panics.

#![cfg(feature = "fault-injection")]

use pimento::profile::UserProfile;
use pimento::{Engine, Error, SearchOptions};
use pimento_faults::vfs::{CrashStyle, SimVfs, Vfs};
use pimento_index::Collection;
use pimento_ingest::{IngestConfig, Ingestor, LiveEngine, SegmentStore};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Steps in the ingest script (bootstrap counts as step 1).
const STEPS: usize = 5;

fn doc(i: usize) -> String {
    format!("<doc><t>word{i} shared</t></doc>")
}

/// The corpus the script boots from (3 documents, generation 0).
fn boot_engine() -> Engine {
    let mut coll = Collection::new();
    for i in 0..3 {
        coll.add_xml(&doc(i)).expect("boot doc");
    }
    Engine::new(coll)
}

/// Bit-exact fingerprint of an engine: generation, doc count, and the
/// full ranked answer of a canonical query with scores as raw `f64`
/// bits. Two engines with equal fingerprints are indistinguishable to
/// a caller.
fn fingerprint(engine: &Engine) -> Vec<String> {
    let mut out = vec![
        format!("generation {}", engine.generation()),
        format!("docs {}", engine.num_docs()),
    ];
    let results = engine
        .search("//doc", &UserProfile::new(), &SearchOptions::top(64))
        .expect("fingerprint query");
    for hit in &results.hits {
        out.push(format!(
            "{:?} s={:016x} k={:016x} {}",
            hit.elem,
            hit.s.to_bits(),
            hit.k.to_bits(),
            hit.text
        ));
    }
    out
}

/// What a restart would recover right now: read-only, so it never
/// perturbs the crash-point numbering.
fn recovery_fingerprint(vfs: &Arc<SimVfs>, dir: &Path) -> Result<Vec<String>, Error> {
    Ok(fingerprint(&Engine::from_sharded_dir_vfs(&**vfs, dir)?))
}

/// One full execution of the ingest script, stopping at the first
/// failed step. `on_ok(step)` runs after each committed step (the
/// reference run records checkpoints there). Returns how many steps
/// committed (0..=STEPS). Every failure must be a typed `Err` — a
/// panic anywhere fails the whole harness.
fn run_script(vfs: &Arc<SimVfs>, dir: &Path, mut on_ok: impl FnMut(usize)) -> usize {
    let cfg = IngestConfig {
        data_dir: Some(dir.to_path_buf()),
        merge_threshold: 0,
        compact_shards: 2,
        vfs: Some(vfs.clone() as Arc<dyn Vfs>),
    };
    let live = Arc::new(LiveEngine::new(boot_engine()));
    let Ok(ing) = Ingestor::new(live, cfg) else {
        return 0;
    };
    on_ok(1);
    if ing.add_documents(&[doc(3), doc(4)]).is_err() {
        return 1;
    }
    on_ok(2);
    if ing.delete_documents(&[1]).is_err() {
        return 2;
    }
    on_ok(3);
    if ing.add_documents(&[doc(5)]).is_err() {
        return 3;
    }
    on_ok(4);
    if !matches!(ing.merge_now(), Ok(Some(_))) {
        return 4;
    }
    on_ok(5);
    STEPS
}

#[test]
fn crash_at_every_point_recovers_a_committed_generation() {
    let dir = PathBuf::from("/sim/corpus");

    // Reference run: count crash points, record checkpoint C[i] after
    // step i (C[0] is "nothing committed yet").
    let vfs = Arc::new(SimVfs::new(7));
    let mut checkpoints: Vec<Vec<String>> = Vec::new();
    let m = run_script(&vfs, &dir, |_| {
        checkpoints.push(recovery_fingerprint(&vfs, &dir).expect("clean checkpoint"));
    });
    assert_eq!(m, STEPS, "clean run must commit every step");
    assert_eq!(checkpoints.len(), STEPS);
    let total = vfs.mutations();
    assert!(total > 20, "script too small to be interesting: {total} ops");

    for style in [CrashStyle::Lose, CrashStyle::Keep, CrashStyle::Torn] {
        for k in 1..=total {
            let vfs = Arc::new(SimVfs::new(7));
            vfs.set_crash_at(Some(k));
            let m = run_script(&vfs, &dir, |_| {});
            assert!(vfs.crashed(), "{style:?}/{k}: crash point never fired");

            vfs.reboot(style);
            let store = SegmentStore::open_with(vfs.clone() as Arc<dyn Vfs>, dir.clone())
                .expect("reopen after reboot");
            match store.recover() {
                Ok(engine) => {
                    let fp = fingerprint(&engine);
                    // Allowed states: the last committed checkpoint, or
                    // the next one (commit landed, ack lost).
                    let at_prev = m >= 1 && fp == checkpoints[m - 1];
                    let at_next = m < STEPS && fp == checkpoints[m];
                    assert!(
                        at_prev || at_next,
                        "{style:?}/{k}: recovered a third state after {m} committed \
                         steps:\n{fp:#?}"
                    );
                }
                Err(err) => {
                    // Only legal before the very first commit — and only
                    // as a typed error with no manifest left behind.
                    assert_eq!(m, 0, "{style:?}/{k}: lost committed data: {err}");
                    assert!(
                        !store.has_manifest(),
                        "{style:?}/{k}: manifest present but unrecoverable: {err}"
                    );
                }
            }
        }
    }
}

/// Bootstrap a 3-document corpus A, then a 4-document corpus B into the
/// same directory — both at generation 0, so the naive names collide.
/// Returns how many of the two bootstraps committed.
fn run_rebootstrap(vfs: &Arc<SimVfs>, dir: &Path) -> usize {
    for (committed, docs) in [3usize, 4].into_iter().enumerate() {
        let cfg = IngestConfig {
            data_dir: Some(dir.to_path_buf()),
            vfs: Some(vfs.clone() as Arc<dyn Vfs>),
            ..IngestConfig::default()
        };
        let corpus =
            Engine::from_xml_docs(&(0..docs).map(doc).collect::<Vec<_>>()).expect("corpus");
        if Ingestor::new(Arc::new(LiveEngine::new(corpus)), cfg).is_err() {
            return committed;
        }
    }
    2
}

/// A bootstrap over a committed directory never replaces a file the
/// committed manifest references: at every crash point, in every
/// reboot style, a restart recovers corpus A or corpus B bit for bit.
#[test]
fn crash_while_bootstrapping_over_a_committed_corpus_recovers_a_or_b() {
    let dir = PathBuf::from("/sim/rebootstrap");
    let vfs = Arc::new(SimVfs::new(13));
    let mut corpora: Vec<Vec<String>> = Vec::new();
    for docs in [3usize, 4] {
        let xml: Vec<String> = (0..docs).map(doc).collect();
        corpora.push(fingerprint(&Engine::from_xml_docs(&xml).expect("corpus")));
    }
    assert_eq!(run_rebootstrap(&vfs, &dir), 2);
    assert_eq!(
        recovery_fingerprint(&vfs, &dir).expect("B recovers"),
        corpora[1]
    );
    let total = vfs.mutations();

    for style in [CrashStyle::Lose, CrashStyle::Keep, CrashStyle::Torn] {
        for k in 1..=total {
            let vfs = Arc::new(SimVfs::new(13));
            vfs.set_crash_at(Some(k));
            let m = run_rebootstrap(&vfs, &dir);
            assert!(vfs.crashed(), "{style:?}/{k}: crash point never fired");
            vfs.reboot(style);
            match recovery_fingerprint(&vfs, &dir) {
                Ok(fp) => assert!(
                    corpora.contains(&fp),
                    "{style:?}/{k}: recovered neither A nor B after {m} bootstraps:\n{fp:#?}"
                ),
                Err(err) => {
                    assert_eq!(m, 0, "{style:?}/{k}: committed corpus A lost: {err}");
                    assert!(!vfs.exists(&dir.join("MANIFEST")), "{style:?}/{k}: {err}");
                }
            }
        }
    }
}

/// A device that acknowledges fsyncs it never performs (or in-flight
/// unsynced content at power-cut) must never panic recovery: torn
/// artifacts surface as typed errors, quarantine clears the wreckage,
/// and a fresh bootstrap brings the directory back to life.
#[test]
fn lying_disk_quarantines_instead_of_crashing() {
    let mut saw_corruption = false;
    for seed in 0..6u64 {
        let dir = PathBuf::from(format!("/sim/lying-disk-{seed}"));
        let vfs = Arc::new(SimVfs::new(seed));
        vfs.set_drop_fsyncs(true);
        let m = run_script(&vfs, &dir, |_| {});
        assert_eq!(m, STEPS, "the lying device reports success");

        vfs.reboot(CrashStyle::Torn);
        let store = SegmentStore::open_with(vfs.clone() as Arc<dyn Vfs>, dir.clone())
            .expect("reopen after reboot");
        match store.recover() {
            // Every tear happened to land on a full-length prefix —
            // indistinguishable from an honest disk.
            Ok(_) => {}
            Err(err) => {
                assert!(
                    matches!(err, Error::Snapshot(_) | Error::Io(_)),
                    "typed error required, got {err:?}"
                );
                saw_corruption = true;
                let moved = store.quarantine_corrupt();
                assert!(moved > 0, "seed {seed}: nothing quarantined");
                assert!(!store.has_manifest(), "seed {seed}: manifest left behind");

                // The directory is usable again: bootstrap, then verify
                // a restart recovers the bootstrapped corpus.
                let cfg = IngestConfig {
                    data_dir: Some(dir.clone()),
                    vfs: Some(vfs.clone() as Arc<dyn Vfs>),
                    ..IngestConfig::default()
                };
                let live = Arc::new(LiveEngine::new(boot_engine()));
                let ing = Ingestor::new(Arc::clone(&live), cfg)
                    .expect("bootstrap after quarantine");
                let disk = recovery_fingerprint(&vfs, &dir).expect("recover bootstrap");
                assert_eq!(disk, fingerprint(&live.load()));
                drop(ing);
            }
        }
    }
    assert!(saw_corruption, "no seed produced a torn artifact");
}

/// ENOSPC survival (disk-full satellite): a full disk surfaces as the
/// typed `Error::DiskFull`, the previous generation keeps serving from
/// memory *and* disk, no temp file is left to burden the full disk,
/// and the same write succeeds once space frees.
#[test]
fn disk_full_keeps_previous_generation_and_retry_succeeds() {
    let dir = PathBuf::from("/sim/enospc");
    let vfs = Arc::new(SimVfs::new(11));
    let cfg = IngestConfig {
        data_dir: Some(dir.clone()),
        merge_threshold: 0,
        compact_shards: 0,
        vfs: Some(vfs.clone() as Arc<dyn Vfs>),
    };
    let live = Arc::new(LiveEngine::new(boot_engine()));
    let ing = Ingestor::new(Arc::clone(&live), cfg).expect("bootstrap");
    let served = fingerprint(&live.load());
    let durable = recovery_fingerprint(&vfs, &dir).expect("bootstrap recovers");
    assert_eq!(served, durable);

    // 16 bytes of headroom: the segment write short-writes and fails.
    vfs.set_budget(Some(16));
    let err = ing.add_documents(&[doc(3)]).expect_err("disk is full");
    assert!(matches!(err, Error::DiskFull(_)), "typed: {err:?}");

    // The previous generation is untouched in memory and on disk.
    assert_eq!(fingerprint(&live.load()), served);
    assert_eq!(recovery_fingerprint(&vfs, &dir).expect("recover"), durable);
    let leftovers: Vec<PathBuf> = vfs
        .list(&dir)
        .expect("list")
        .into_iter()
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp turds on a full disk: {leftovers:?}");

    // Space frees; the retried write commits and is recoverable.
    vfs.set_budget(None);
    let receipt = ing.add_documents(&[doc(3)]).expect("retry");
    assert_eq!(receipt.docs, 1);
    assert_eq!(
        recovery_fingerprint(&vfs, &dir).expect("recover"),
        fingerprint(&live.load())
    );
}
