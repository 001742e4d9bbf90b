//! Crash-point enumeration for the add that follows a failed commit
//! (DESIGN.md §16.1, §17).
//!
//! `ingest.publish.crash` fires once, on the commit of add A: A's
//! `MANIFEST` rename has landed, so generation 1 (boot + A) is committed
//! on disk, but the live engine stays at generation 0. Add B follows. A
//! reference run counts B's mutating filesystem operations; then, for
//! every one of them and every reboot style, B re-runs with that
//! operation failing, and a restart must recover either the committed
//! generation (boot + A) or the new add (boot + B) — never a manifest
//! naming a file B replaced.
//!
//! The fault registry is process-global, so this script lives in its
//! own test binary: no other test can draw the armed fault.

#![cfg(feature = "fault-injection")]

use pimento::profile::UserProfile;
use pimento::{Engine, SearchOptions};
use pimento_faults::vfs::{CrashStyle, SimVfs, Vfs};
use pimento_faults::FaultPlan;
use pimento_index::Collection;
use pimento_ingest::{IngestConfig, Ingestor, LiveEngine};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn doc(i: usize) -> String {
    format!("<doc><t>word{i} shared</t></doc>")
}

/// Bit-exact fingerprint of an engine: generation, doc count, and the
/// full ranked answer of a canonical query with raw score bits.
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

/// Bootstrap three documents, then add A (two documents) with
/// `ingest.publish.crash` firing on its commit. Returns the writer,
/// whose live engine is still the boot corpus.
fn boot_and_fail_add_a(vfs: &Arc<SimVfs>, dir: &Path) -> Ingestor {
    pimento_faults::install(FaultPlan::new(3).at("ingest.publish.crash", 1));
    let mut coll = Collection::new();
    for i in 0..3 {
        coll.add_xml(&doc(i)).expect("boot doc");
    }
    let live = Arc::new(LiveEngine::new(Engine::new(coll)));
    let cfg = IngestConfig {
        data_dir: Some(dir.to_path_buf()),
        merge_threshold: 0,
        compact_shards: 0,
        vfs: Some(vfs.clone() as Arc<dyn Vfs>),
    };
    let ing = Ingestor::new(Arc::clone(&live), cfg).expect("bootstrap");
    let err = ing
        .add_documents(&[doc(3), doc(4)])
        .expect_err("publish crash fires");
    assert!(err.to_string().contains("ingest.publish.crash"), "{err}");
    assert_eq!(pimento_faults::fired("ingest.publish.crash"), 1);
    assert_eq!(live.load().generation(), 0, "A was never published");
    ing
}

/// Add B: one document, so its delta differs from A's in length too.
fn add_b(ing: &Ingestor) -> bool {
    ing.add_documents(&[doc(5)]).is_ok()
}

fn recovery(vfs: &SimVfs, dir: &Path) -> Vec<String> {
    fingerprint(&Engine::from_sharded_dir_vfs(vfs, dir).unwrap_or_else(|e| {
        panic!("a restart refuses the directory: {e}");
    }))
}

#[test]
fn crash_in_the_add_after_a_failed_commit_recovers_a_committed_generation() {
    let dir = PathBuf::from("/sim/after-publish-crash");

    // Reference run: the committed generation after A, the new add
    // after B, and how many crash points B has.
    let vfs = Arc::new(SimVfs::new(23));
    let ing = boot_and_fail_add_a(&vfs, &dir);
    let committed = recovery(&vfs, &dir);
    assert_eq!(
        committed[..2],
        ["generation 1", "docs 5"],
        "boot + A committed"
    );
    let before = vfs.mutations();
    assert!(add_b(&ing), "clean add B commits");
    let added = recovery(&vfs, &dir);
    assert_eq!(added, fingerprint(&ing.live().load()), "restart = served");
    let total = vfs.mutations() - before;
    assert!(total >= 8, "add B too small to be interesting: {total} ops");

    for style in [CrashStyle::Lose, CrashStyle::Keep, CrashStyle::Torn] {
        for k in 1..=total {
            let vfs = Arc::new(SimVfs::new(23));
            let ing = boot_and_fail_add_a(&vfs, &dir);
            assert_eq!(vfs.mutations(), before, "set-up replays identically");
            vfs.set_crash_at(Some(before + k));
            let acked = add_b(&ing);
            assert!(vfs.crashed(), "{style:?}/{k}: crash point never fired");
            drop(ing);

            vfs.reboot(style);
            let state = recovery(&vfs, &dir);
            assert!(
                state == committed || state == added,
                "{style:?}/{k}: recovered a third state (B acked: {acked}):\n{state:#?}"
            );
            if acked {
                assert_eq!(state, added, "{style:?}/{k}: acked add B lost");
            }
        }
    }
    pimento_faults::clear();
}
