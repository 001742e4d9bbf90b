//! Online-scrubber chaos suite (DESIGN.md §17): every durable artifact
//! the server owns is damaged with a single bit flip, and the scrubber
//! must *detect* it (CRC32 catches all single-bit errors), *quarantine*
//! the artifact, *repair* from the last good state, and walk health
//! through `ok → degraded → ok` — all without a panic and without the
//! damaged bytes ever being served.

#![cfg(feature = "fault-injection")]

use pimento::profile::UserProfile;
use pimento::profile::{parse_profile, PrefRelRegistry};
use pimento::{Engine, SearchOptions};
use pimento_index::{inspect, Collection, DocId, TombstoneSet};
use pimento_ingest::{IngestConfig, Ingestor, LiveEngine};
use pimento_serve::faults::vfs::{QuarantineCap, SimVfs, Vfs};
use pimento_serve::{HealthLevel, Metrics, ProfileRegistry, Scrubber};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn doc(i: usize) -> String {
    format!("<doc><t>word{i} shared</t></doc>")
}

/// Bit-exact fingerprint (same discipline as the crash matrix): two
/// engines with equal fingerprints are indistinguishable to a caller.
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

/// A two-segment corpus with a tombstone sidecar, persisted through the
/// given simulated filesystem.
fn boot_corpus(vfs: &Arc<SimVfs>, dir: &Path) -> (Arc<LiveEngine>, Arc<Ingestor>) {
    let mut coll = Collection::new();
    for i in 0..3 {
        coll.add_xml(&doc(i)).expect("boot doc");
    }
    let live = Arc::new(LiveEngine::new(Engine::new(coll)));
    let ing = Arc::new(
        Ingestor::new(
            Arc::clone(&live),
            IngestConfig {
                data_dir: Some(dir.to_path_buf()),
                merge_threshold: 0,
                compact_shards: 0,
                vfs: Some(vfs.clone() as Arc<dyn Vfs>),
            },
        )
        .expect("bootstrap"),
    );
    ing.add_documents(&[doc(3), doc(4)]).expect("delta segment");
    ing.delete_documents(&[1]).expect("tombstone sidecar");
    (live, ing)
}

fn scrubber_for(ing: &Arc<Ingestor>) -> Scrubber {
    Scrubber::new(
        Arc::clone(ing),
        Arc::new(ProfileRegistry::new()),
        Arc::new(Metrics::new()),
    )
}

/// A registry over `dir` with alice registered (and persisted), beside a
/// memory-only ingestor, and the scrubber over both.
fn profile_scrubber(
    vfs: &Arc<SimVfs>,
    dir: &Path,
) -> (Arc<ProfileRegistry>, Arc<Metrics>, Scrubber) {
    let registry = Arc::new(
        ProfileRegistry::open_with(vfs.clone() as Arc<dyn Vfs>, dir).expect("open registry"),
    );
    let profile = parse_profile(ALICE, &PrefRelRegistry::new()).expect("parse");
    registry
        .register("alice", profile, ALICE)
        .expect("durable")
        .expect("persist");
    // An ingestor with no data dir: the corpus side reports memory-only.
    let live = Arc::new(LiveEngine::new(Engine::new(Collection::new())));
    let ing =
        Arc::new(Ingestor::new(Arc::clone(&live), IngestConfig::default()).expect("memory-only"));
    let metrics = Arc::new(Metrics::new());
    let scrubber = Scrubber::new(ing, Arc::clone(&registry), Arc::clone(&metrics));
    (registry, metrics, scrubber)
}

const ALICE: &str = "pi1: x.tag = car & y.tag = car & ftcontains(x, \"red\") -> x < y\n";

fn flip_bit(vfs: &SimVfs, path: &Path, offset: u64) {
    let mut bytes = vfs.read(path).expect("read artifact");
    let i = offset as usize;
    assert!(i < bytes.len(), "flip target outside {}", path.display());
    bytes[i] ^= 0x01;
    vfs.write_file(path, &bytes).expect("write damaged artifact");
}

#[test]
fn clean_pass_reports_ok_and_verifies_sections() {
    let dir = PathBuf::from("/sim/scrub-clean");
    let vfs = Arc::new(SimVfs::new(1));
    let (_live, ing) = boot_corpus(&vfs, &dir);
    let scrubber = scrubber_for(&ing);
    let pass = scrubber.run_pass();
    assert!(pass.sections_verified > 4, "pass saw {pass:?}");
    assert_eq!(pass.corrupt_artifacts, 0);
    assert_eq!(pass.quarantined, 0);
    assert_eq!(pass.repairs, 0);
    let health = scrubber.health();
    assert_eq!(health.overall(), HealthLevel::Ok);
    assert_eq!(health.passes, 1);
    // The health verb body renders as valid JSON with the right status.
    let body = scrubber.health_body();
    assert_eq!(body.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert!(pimento_serve::Value::parse(&body.render()).is_ok());
}

/// The tentpole assertion: a single flipped bit in ANY v4 section of
/// ANY live segment is detected, quarantined, repaired bit-identically
/// from the live engine, and health walks ok → degraded → ok.
#[test]
fn single_bit_flip_in_every_section_is_detected_and_repaired() {
    let dir = PathBuf::from("/sim/scrub-flips");
    let vfs = Arc::new(SimVfs::new(2));
    let (live, ing) = boot_corpus(&vfs, &dir);
    let scrubber = scrubber_for(&ing);
    let reference = fingerprint(&live.load());

    // Enumerate every (segment file, section) target up front; repair
    // re-publishes under the same file names with identical bytes, so
    // offsets stay valid across iterations.
    let manifest = ing.store().expect("store").manifest().expect("manifest");
    let mut targets: Vec<(PathBuf, String, u64)> = Vec::new();
    for entry in &manifest.segments {
        let path = dir.join(&entry.file);
        let report = inspect(&vfs.read(&path).expect("read")).expect("inspect");
        assert!(report.directory_ok);
        for s in &report.sections {
            if s.len > 0 {
                targets.push((path.clone(), s.name.clone(), s.offset + s.len / 2));
            }
        }
    }
    let names: Vec<&str> = targets.iter().map(|(_, n, _)| n.as_str()).collect();
    assert!(
        targets.len() >= 8,
        "expected sections across 2 segments, got {names:?}"
    );

    for (path, section, offset) in &targets {
        flip_bit(&vfs, path, *offset);
        let pass = scrubber.run_pass();
        assert!(
            pass.corrupt_artifacts >= 1,
            "flip in section `{section}` of {} went undetected",
            path.display()
        );
        assert!(pass.quarantined >= 1, "`{section}`: nothing quarantined");
        assert_eq!(pass.repairs, 1, "`{section}`: no repair");
        assert_eq!(pass.repair_failures, 0);
        assert_eq!(scrubber.health().overall(), HealthLevel::Degraded);

        // The repair restored a bit-identical on-disk generation: a
        // restart recovers exactly what the live engine serves.
        let recovered = Engine::from_sharded_dir_vfs(&*vfs, &dir)
            .unwrap_or_else(|e| panic!("`{section}`: recovery after repair failed: {e}"));
        assert_eq!(fingerprint(&recovered), reference);

        // Clean follow-up pass: degraded clears back to ok.
        let pass = scrubber.run_pass();
        assert_eq!(pass.corrupt_artifacts, 0, "`{section}`: repair left damage");
        assert_eq!(scrubber.health().overall(), HealthLevel::Ok);
    }
}

#[test]
fn manifest_and_tombstone_flips_are_detected_and_repaired() {
    let dir = PathBuf::from("/sim/scrub-meta");
    let vfs = Arc::new(SimVfs::new(3));
    let (live, ing) = boot_corpus(&vfs, &dir);
    let scrubber = scrubber_for(&ing);
    let reference = fingerprint(&live.load());
    let manifest = ing.store().expect("store").manifest().expect("manifest");
    let tomb = manifest
        .segments
        .iter()
        .find_map(|e| e.tombstones.clone())
        .expect("a tombstone sidecar exists");

    for name in ["MANIFEST".to_string(), tomb] {
        let path = dir.join(&name);
        let len = vfs.read(&path).expect("read").len() as u64;
        flip_bit(&vfs, &path, len / 2);
        let pass = scrubber.run_pass();
        assert!(pass.corrupt_artifacts >= 1, "{name}: flip undetected");
        assert_eq!(pass.repairs, 1, "{name}: no repair");
        assert_eq!(scrubber.health().overall(), HealthLevel::Degraded);
        let recovered = Engine::from_sharded_dir_vfs(&*vfs, &dir).expect("recover");
        assert_eq!(fingerprint(&recovered), reference);
        let pass = scrubber.run_pass();
        assert_eq!(pass.corrupt_artifacts, 0, "{name}: repair left damage");
        assert_eq!(scrubber.health().overall(), HealthLevel::Ok);
    }
}

/// A sidecar can carry a valid CRC and still be unloadable: an id at or
/// past its segment's document count. A restart refuses such a
/// directory, so the scrubber must not pass it — both apply the same
/// rule (`ManifestEntry::parse_tombstones`).
#[test]
fn checksummed_sidecar_with_an_out_of_range_id_is_detected_and_repaired() {
    let dir = PathBuf::from("/sim/scrub-sidecar-range");
    let vfs = Arc::new(SimVfs::new(6));
    let (live, ing) = boot_corpus(&vfs, &dir);
    let scrubber = scrubber_for(&ing);
    let reference = fingerprint(&live.load());
    let manifest = ing.store().expect("store").manifest().expect("manifest");
    let entry = manifest
        .segments
        .iter()
        .find(|e| e.tombstones.is_some())
        .expect("a tombstone sidecar exists");
    let path = dir.join(entry.tombstones.as_deref().expect("sidecar name"));

    let mut forged = TombstoneSet::new();
    forged.insert(DocId(entry.docs));
    let text = forged.render();
    assert!(TombstoneSet::parse(&text).is_ok(), "forged sidecar is well-formed");
    vfs.write_file(&path, text.as_bytes()).expect("plant sidecar");
    assert!(
        Engine::from_sharded_dir_vfs(&*vfs, &dir).is_err(),
        "a restart refuses the directory"
    );

    let pass = scrubber.run_pass();
    assert_eq!(pass.corrupt_artifacts, 1, "{pass:?}");
    assert_eq!(pass.quarantined, 1, "{pass:?}");
    assert_eq!(pass.repairs, 1, "{pass:?}");
    assert_eq!(scrubber.health().overall(), HealthLevel::Degraded);
    let recovered = Engine::from_sharded_dir_vfs(&*vfs, &dir).expect("recover");
    assert_eq!(fingerprint(&recovered), reference);
    let pass = scrubber.run_pass();
    assert_eq!(pass.corrupt_artifacts, 0, "repair left damage");
    assert_eq!(scrubber.health().overall(), HealthLevel::Ok);
}

/// A segment file can carry valid checksums and still be unloadable: a
/// copy of another segment whose document count disagrees with the
/// manifest entry. A restart refuses such a directory, so the scrubber
/// must not pass it either.
#[test]
fn segment_copied_over_another_is_detected_and_repaired() {
    let dir = PathBuf::from("/sim/scrub-segment-swap");
    let vfs = Arc::new(SimVfs::new(7));
    let (live, ing) = boot_corpus(&vfs, &dir);
    let scrubber = scrubber_for(&ing);
    let reference = fingerprint(&live.load());
    let manifest = ing.store().expect("store").manifest().expect("manifest");
    let (to, from) = (&manifest.segments[0], &manifest.segments[1]);
    assert_ne!(to.docs, from.docs);
    let bytes = vfs.read(&dir.join(&from.file)).expect("read segment");
    vfs.write_file(&dir.join(&to.file), &bytes)
        .expect("copy segment");
    assert!(
        Engine::from_sharded_dir_vfs(&*vfs, &dir).is_err(),
        "a restart refuses the directory"
    );

    let pass = scrubber.run_pass();
    assert_eq!(pass.corrupt_artifacts, 1, "{pass:?}");
    assert_eq!(pass.quarantined, 1, "{pass:?}");
    assert_eq!(pass.repairs, 1, "{pass:?}");
    assert_eq!(scrubber.health().overall(), HealthLevel::Degraded);
    let recovered = Engine::from_sharded_dir_vfs(&*vfs, &dir).expect("recover");
    assert_eq!(fingerprint(&recovered), reference);
    let pass = scrubber.run_pass();
    assert_eq!(pass.corrupt_artifacts, 0, "repair left damage");
    assert_eq!(scrubber.health().overall(), HealthLevel::Ok);
}

/// A flipped profile file is quarantined and re-persisted from the
/// in-memory registry (the durable copy's source of truth for repair).
#[test]
fn profile_flip_is_quarantined_and_repersisted_from_the_registry() {
    let dir = PathBuf::from("/sim/scrub-profiles");
    let vfs = Arc::new(SimVfs::new(4));
    let (registry, metrics, scrubber) = profile_scrubber(&vfs, &dir);

    let path = dir.join(ProfileRegistry::file_name("alice"));
    let len = vfs.read(&path).expect("read").len() as u64;
    flip_bit(&vfs, &path, len / 2);
    let pass = scrubber.run_pass();
    assert_eq!(pass.corrupt_artifacts, 1, "flip undetected: {pass:?}");
    assert_eq!(pass.quarantined, 1);
    assert_eq!(pass.repairs, 1, "profile not re-persisted");
    assert_eq!(scrubber.health().overall(), HealthLevel::Degraded);
    assert!(metrics.quarantined_files.load(Ordering::Relaxed) >= 1);

    // The re-persisted file verifies and carries the original rules.
    let verdicts = registry.verify().expect("walk");
    let decoded: Vec<_> = verdicts.into_iter().map(|v| v.outcome).collect();
    assert_eq!(decoded, [Ok(("alice".to_string(), ALICE.to_string()))]);
    let pass = scrubber.run_pass();
    assert_eq!(pass.corrupt_artifacts, 0);
    assert_eq!(scrubber.health().overall(), HealthLevel::Ok);
}

/// Quarantine retention stays bounded: one more round of damage than
/// the default cap keeps ages out the oldest `*.quarantined` file
/// instead of accumulating forever.
#[test]
fn quarantine_retention_is_bounded_oldest_first() {
    let dir = PathBuf::from("/sim/scrub-cap");
    let vfs = Arc::new(SimVfs::new(5));
    let (_registry, metrics, scrubber) = profile_scrubber(&vfs, &dir);
    let cap = QuarantineCap::default();

    let path = dir.join(ProfileRegistry::file_name("alice"));
    for round in 0..=cap.max_files {
        let len = vfs.read(&path).expect("read").len() as u64;
        flip_bit(&vfs, &path, len / 2);
        let pass = scrubber.run_pass();
        assert_eq!(pass.corrupt_artifacts, 1, "round {round}: {pass:?}");
        assert_eq!(pass.repairs, 1, "round {round}: not re-persisted");
    }
    let mut quarantined: Vec<String> = vfs
        .list(&dir)
        .expect("list")
        .into_iter()
        .map(|p| p.to_string_lossy().into_owned())
        .filter(|p| p.ends_with(".quarantined"))
        .collect();
    quarantined.sort();
    assert_eq!(
        quarantined.len(),
        cap.max_files,
        "retention cap not enforced: {} quarantined files",
        quarantined.len()
    );
    assert!(
        quarantined[0].ends_with(".q000002.quarantined"),
        "the oldest file was evicted first: {}",
        quarantined[0]
    );
    assert_eq!(metrics.quarantined_files.load(Ordering::Relaxed), quarantined.len() as u64);
}
