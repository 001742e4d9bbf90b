//! Durable segment store: the one owner of a segment directory
//! (DESIGN.md §13.5, §16).
//!
//! Everything that writes, names, garbage-collects or verifies a
//! directory of `MANIFEST` + v4 segment files + tombstone sidecars lives
//! here; core only reads one ([`Engine::from_sharded_dir_vfs`]).
//!
//! Every publish persists **before** the in-memory swap: each file is
//! written to a `.tmp` sibling, fsynced, atomically renamed into place
//! and the directory fsynced; the `MANIFEST` rename comes last and is
//! the commit point. File names are generation-stamped (`delta_file`,
//! `fresh_files`, generation-suffixed tombstone sidecars), and a
//! whole-engine write steps its stamp past any name the committed
//! manifest lists, so no publish ever replaces a file the committed
//! manifest references with different bytes — whatever manifest a
//! restart finds, every file it names is exactly as it was when that
//! manifest was committed. Superseded files are garbage-collected only
//! *after* a successful commit.
//!
//! [`verify`] is the one check of a directory, by the loader's own rules,
//! for the scrubber and `pimento snapshot inspect`.
//!
//! All I/O goes through a [`Vfs`] handle (DESIGN.md §17): [`StdVfs`]
//! in production, `SimVfs` in the crash-enumeration harness. `ENOSPC`
//! surfaces as the typed [`Error::DiskFull`] with the temp file
//! cleaned up, so the old generation keeps serving and a retry after
//! space frees can succeed.

use pimento::engine::read_manifest;
use pimento::error::classify_io;
use pimento::{Engine, Error};
use pimento_faults::vfs::{self, StdVfs, Vfs};
use pimento_index::segment::{ManifestEntry, ShardManifest, MANIFEST_FILE};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A snapshot directory owned by the ingest pipeline.
#[derive(Debug, Clone)]
pub struct SegmentStore {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
}

/// Whether a file named `name` is a store artifact: the manifest, a
/// segment file, a tombstone sidecar or a temp file. Anything else in
/// the directory is foreign and never touched.
fn is_artifact(name: &str) -> bool {
    name == MANIFEST_FILE
        || name.ends_with(".snap")
        || name.ends_with(".tomb")
        || name.ends_with(".tmp")
}

/// File name of the delta segment an add publishes at `generation`.
pub(crate) fn delta_file(generation: u64) -> String {
    format!("delta-{generation:06}.v4.snap")
}

/// File names for every segment of a whole-engine write (bootstrap,
/// compaction, `snapshot build`): stamped with the engine's generation,
/// or with the first later stamp none of whose names `committed` (the
/// committed manifest's segment files) lists.
pub(crate) fn fresh_files(engine: &Engine, committed: &[String]) -> Vec<String> {
    let mut stamp = engine.generation();
    loop {
        let files: Vec<String> = (0..engine.shard_count())
            .map(|i| format!("segment-g{stamp:06}-{i:03}.v4.snap"))
            .collect();
        if !files.iter().any(|f| committed.contains(f)) {
            return files;
        }
        stamp += 1;
    }
}

/// The manifest of `engine` stored under `files` (one per segment).
/// Sidecar names carry the generation too, so publishing new deletes
/// never rewrites a sidecar an older manifest references.
fn manifest_of(engine: &Engine, files: &[String]) -> Result<ShardManifest, Error> {
    if files.len() != engine.shard_count() {
        return Err(Error::Shard("one file name per segment required"));
    }
    let generation = engine.generation();
    let segments = engine
        .segments()
        .iter()
        .zip(files)
        .map(|(seg, file)| ManifestEntry {
            file: file.clone(),
            doc_base: seg.doc_base(),
            docs: seg.doc_count() as u32,
            tombstones: seg
                .db()
                .tombstones()
                .filter(|t| !t.is_empty())
                .map(|_| format!("{file}.g{generation:06}.tomb")),
        })
        .collect();
    Ok(ShardManifest {
        segments,
        generation,
    })
}

impl SegmentStore {
    /// Open (creating if needed) the store directory on the real
    /// filesystem.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SegmentStore, Error> {
        SegmentStore::open_with(Arc::new(StdVfs), dir)
    }

    /// Open the store against an explicit [`Vfs`] — the entry point the
    /// crash harness uses to run the whole commit protocol on `SimVfs`.
    pub fn open_with(vfs: Arc<dyn Vfs>, dir: impl Into<PathBuf>) -> Result<SegmentStore, Error> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)
            .map_err(|e| classify_io(&dir, &e))?;
        Ok(SegmentStore { dir, vfs })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The filesystem this store talks to.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Whether a committed manifest exists (i.e. recovery has something
    /// to recover).
    pub fn has_manifest(&self) -> bool {
        self.vfs.exists(&self.dir.join(MANIFEST_FILE))
    }

    /// Parse the committed manifest.
    pub fn manifest(&self) -> Result<ShardManifest, Error> {
        read_manifest(&*self.vfs, &self.dir)
    }

    /// Reopen the last committed generation. Torn or truncated
    /// artifacts surface as typed errors — never a panic — so callers
    /// can quarantine and fall back (see
    /// [`SegmentStore::quarantine_corrupt`]).
    pub fn recover(&self) -> Result<Engine, Error> {
        Engine::from_sharded_dir_vfs(&*self.vfs, &self.dir)
    }

    /// After [`SegmentStore::recover`] fails, move every artifact of
    /// the damaged generation (`MANIFEST`, segment files, sidecars)
    /// aside as `*.quarantined` so a fresh bootstrap can proceed and an
    /// operator can still inspect the wreckage, under the default
    /// retention cap. Quarantine-not-crash: this is best-effort and never
    /// fails — it returns how many artifacts were moved.
    pub fn quarantine_corrupt(&self) -> usize {
        let Ok(files) = self.vfs.list(&self.dir) else {
            return 0;
        };
        let mut moved = 0;
        for path in files {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let cap = vfs::QuarantineCap::default();
            if is_artifact(name) && vfs::quarantine_file(&*self.vfs, &path, cap).is_ok() {
                moved += 1;
            }
        }
        moved
    }

    /// Durably write one file: temp → fsync → atomic rename → directory
    /// fsync, with the temp removed on failure. Under the
    /// `fault-injection` feature the three I/O steps are named fault
    /// points (`ingest.persist.write` / `.fsync` / `.rename`).
    fn write_durable(&self, name: &str, bytes: &[u8]) -> Result<(), Error> {
        #[cfg(feature = "fault-injection")]
        for step in ["write", "fsync", "rename"] {
            if pimento_faults::should_fire(&format!("ingest.persist.{step}")) {
                return Err(Error::Io(format!(
                    "fault injected: ingest.persist.{step} ({name})"
                )));
            }
        }
        vfs::write_durable(&*self.vfs, &self.dir, name, bytes)
            .map_err(|e| classify_io(&self.dir.join(name), &e))
    }

    /// Durably persist `engine` under the given per-segment `files`.
    /// Only the segments in the `write_segments` range have their columnar
    /// files written (the rest are already on disk under the same
    /// names); tombstone sidecars and the manifest are always
    /// rewritten. Write order is the commit protocol: segment files,
    /// then sidecars, then `MANIFEST` last — an interruption anywhere
    /// leaves the previous manifest (and every file it names) intact.
    pub fn publish(
        &self,
        engine: &Engine,
        files: &[String],
        write_segments: Range<usize>,
    ) -> Result<ShardManifest, Error> {
        let manifest = manifest_of(engine, files)?;
        for i in write_segments {
            let entry = manifest
                .segments
                .get(i)
                .ok_or(Error::Shard("segment index out of range"))?;
            let data = engine.segment_bytes(i)?;
            self.write_durable(&entry.file, &data)?;
        }
        for (entry, seg) in manifest.segments.iter().zip(engine.segments()) {
            if let (Some(name), Some(tombs)) = (&entry.tombstones, seg.db().tombstones()) {
                self.write_durable(name, tombs.render().as_bytes())?;
            }
        }
        self.write_durable(MANIFEST_FILE, manifest.render().as_bytes())?;
        Ok(manifest)
    }

    /// Write all of `engine` — every segment under fresh names stamped
    /// past the committed manifest's, its sidecars, then the manifest —
    /// and sweep what the old generation left behind. The bootstrap of a
    /// data directory and `pimento snapshot build --shards` both write
    /// through this; [`Engine::from_sharded_dir`] reopens the result.
    pub fn save(&self, engine: &Engine) -> Result<ShardManifest, Error> {
        let committed: Vec<String> = self
            .manifest()
            .map(|m| m.segments.into_iter().map(|e| e.file).collect())
            .unwrap_or_default();
        let files = fresh_files(engine, &committed);
        let manifest = self.publish(engine, &files, 0..engine.shard_count())?;
        self.gc(&manifest);
        Ok(manifest)
    }

    /// Best-effort removal of snapshot artifacts no longer referenced
    /// by `manifest` (superseded segments, old tombstone sidecars,
    /// stale `.tmp` leftovers). Returns how many files were removed.
    /// Errors are swallowed: gc must never compromise a committed
    /// generation, and an unreferenced file left behind is only wasted
    /// space. `*.quarantined` files are not gc'd here; they age out
    /// under the quarantine cap instead.
    pub fn gc(&self, manifest: &ShardManifest) -> usize {
        let mut keep: Vec<&str> = vec![MANIFEST_FILE];
        for entry in &manifest.segments {
            keep.push(&entry.file);
            if let Some(t) = &entry.tombstones {
                keep.push(t);
            }
        }
        let Ok(entries) = self.vfs.list(&self.dir) else {
            return 0;
        };
        let mut removed = 0;
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if is_artifact(name) && !keep.contains(&name) && self.vfs.remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }
}

/// What [`verify`] found about one artifact of a segment directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The artifact's file name inside the directory.
    pub file: String,
    /// Checksummed units of it that verified: the manifest, each v4
    /// section of a segment file, a sidecar.
    pub verified: u64,
    /// A one-line summary, or why a restart would refuse the artifact.
    pub outcome: Result<String, String>,
}

/// Verify the segment directory `dir` by the loader's own rules: the
/// manifest, then each segment file (section directory and section
/// CRCs, a full decode, and its document count against the manifest
/// entry) followed by its tombstone sidecar
/// ([`ManifestEntry::parse_tombstones`]). One verdict per artifact; an
/// unreadable manifest is the only verdict. When every verdict is `Ok`,
/// [`Engine::from_sharded_dir_vfs`] opens the directory. Reads only, and
/// damaged bytes are verdicts, never panics.
pub fn verify(vfs: &dyn Vfs, dir: &Path) -> Vec<Verdict> {
    let verdict = |file: &str, verified, outcome| Verdict {
        file: file.to_string(),
        verified,
        outcome,
    };
    let manifest = match read_manifest(vfs, dir) {
        Ok(m) => m,
        Err(e) => return vec![verdict(MANIFEST_FILE, 0, Err(e.to_string()))],
    };
    let summary = format!(
        "generation {}, {} segments, {} docs",
        manifest.generation,
        manifest.segments.len(),
        manifest.num_docs()
    );
    let mut out = vec![verdict(MANIFEST_FILE, 1, Ok(summary))];
    let read = |name: &str| {
        vfs.read(&dir.join(name))
            .map_err(|e| format!("unreadable: {e}"))
    };
    for entry in &manifest.segments {
        let (verified, outcome) = match read(&entry.file) {
            Ok(data) => verify_segment(entry, &data),
            Err(e) => (0, Err(e)),
        };
        out.push(verdict(&entry.file, verified, outcome));
        if let Some(tomb) = &entry.tombstones {
            let outcome = read(tomb).and_then(|raw| {
                entry
                    .parse_tombstones(&raw)
                    .map(|t| format!("{} deleted", t.deleted_count()))
                    .map_err(|e| e.to_string())
            });
            out.push(verdict(tomb, u64::from(outcome.is_ok()), outcome));
        }
    }
    out
}

/// One segment file's verified section count and outcome (see [`verify`]).
fn verify_segment(entry: &ManifestEntry, data: &[u8]) -> (u64, Result<String, String>) {
    let report = match pimento_index::inspect(data) {
        Ok(r) => r,
        Err(e) => return (0, Err(e.to_string())),
    };
    let mut bad: Vec<&str> = report
        .sections
        .iter()
        .filter(|s| !s.crc_ok)
        .map(|s| s.name.as_str())
        .collect();
    let verified = (report.sections.len() - bad.len()) as u64;
    if !report.directory_ok {
        bad.insert(0, "section directory");
    }
    if !bad.is_empty() {
        return (
            verified,
            Err(format!("checksum mismatch in {}", bad.join(", "))),
        );
    }
    let outcome = match pimento_index::open_index(data) {
        Err(e) => Err(e.to_string()),
        Ok(opened) if opened.collection.len() as u32 != entry.docs => Err(format!(
            "segment document count disagrees with its file ({} in the file, {} in the manifest)",
            opened.collection.len(),
            entry.docs
        )),
        Ok(_) => Ok(format!(
            "v{}, {} bytes, {} docs",
            report.version, report.file_len, entry.docs
        )),
    };
    (verified, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_index::Collection;
    use std::fs;

    fn engine(n: usize) -> Engine {
        let mut coll = Collection::new();
        for i in 0..n {
            coll.add_xml(&format!("<doc><t>word{i} shared</t></doc>"))
                .unwrap();
        }
        Engine::new(coll)
    }

    fn bits(engine: &Engine) -> Vec<(u32, u64)> {
        let results = engine
            .search(
                r#"//doc[ftcontains(., "shared")]"#,
                &pimento::profile::UserProfile::default(),
                &pimento::SearchOptions::top(64),
            )
            .unwrap();
        results
            .hits
            .iter()
            .map(|h| (h.elem.doc.0, h.s.to_bits()))
            .collect()
    }

    fn tmp_store(tag: &str) -> (PathBuf, SegmentStore) {
        let dir = std::env::temp_dir().join(format!("pimento-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SegmentStore::open(&dir).unwrap();
        (dir, store)
    }

    /// A saved engine reopens with its generation, segments, tombstones
    /// and answers — one doc-range segment, or a delta segment with a
    /// deletion (a tombstone sidecar).
    #[test]
    fn publish_then_recover_roundtrips() {
        let (dir, store) = tmp_store("roundtrip");
        assert!(!store.has_manifest());
        let (deleted, _) = engine(4)
            .with_ingested(&["<doc><t>word4 shared</t></doc>"])
            .unwrap()
            .with_deletes(&[2])
            .unwrap();
        for eng in [engine(4).at_generation(3), deleted] {
            let manifest = store.save(&eng).unwrap();
            assert!(store.has_manifest());
            assert_eq!(store.manifest().unwrap(), manifest);
            let back = store.recover().unwrap();
            assert_eq!(back.generation(), eng.generation());
            assert_eq!(back.shard_count(), eng.shard_count());
            assert_eq!(back.num_docs(), eng.num_docs());
            assert_eq!(back.deleted_docs(), eng.deleted_docs());
            assert_eq!(bits(&back), bits(&eng));
            assert!(verify(&StdVfs, &dir).iter().all(|v| v.outcome.is_ok()));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Saving a second corpus at the same generation steps its names past
    /// the committed ones instead of replacing files the old manifest
    /// references.
    #[test]
    fn save_never_reuses_a_committed_name() {
        let (dir, store) = tmp_store("fresh");
        let a = store.save(&engine(3)).unwrap();
        let b = store.save(&engine(4)).unwrap();
        assert_eq!(a.generation, b.generation);
        assert!(a
            .segments
            .iter()
            .all(|e| b.segments.iter().all(|f| f.file != e.file)));
        assert!(!dir.join(&a.segments[0].file).exists(), "gc swept A");
        assert_eq!(store.recover().unwrap().num_docs(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_only_unreferenced_artifacts() {
        let (dir, store) = tmp_store("gc");
        let manifest = store.save(&engine(2)).unwrap();
        fs::write(dir.join("delta-000009.v4.snap"), b"stale").unwrap();
        fs::write(dir.join("something.tmp"), b"stale").unwrap();
        fs::write(dir.join("notes.txt"), b"not ours").unwrap();
        assert_eq!(store.gc(&manifest), 2);
        assert!(dir.join("notes.txt").exists(), "foreign files untouched");
        assert!(dir.join(&manifest.segments[0].file).exists());
        assert!(store.has_manifest());
        let _ = fs::remove_dir_all(&dir);
    }

    /// `verify` refuses what the loader refuses: a segment file swapped
    /// for another whose checksums are fine but whose document count
    /// disagrees with the manifest, and a damaged manifest.
    #[test]
    fn verify_applies_the_loaders_rules() {
        let (dir, store) = tmp_store("verify");
        let manifest = store.save(&engine(3).reshard(2).unwrap()).unwrap();
        let verdicts = verify(&StdVfs, &dir);
        assert_eq!(verdicts.len(), 3, "{verdicts:?}");
        assert!(verdicts.iter().all(|v| v.outcome.is_ok() && v.verified > 0));
        let (two, one) = (&manifest.segments[0].file, &manifest.segments[1].file);
        fs::copy(dir.join(one), dir.join(two)).unwrap();
        assert!(store.recover().is_err());
        let bad: Vec<String> = verify(&StdVfs, &dir)
            .into_iter()
            .filter(|v| v.outcome.is_err())
            .map(|v| v.file)
            .collect();
        assert_eq!(bad, [two.as_str()]);
        fs::write(dir.join(MANIFEST_FILE), b"pimento-shards v2\ngarbage").unwrap();
        let verdicts = verify(&StdVfs, &dir);
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].outcome.is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_typed_and_quarantinable() {
        let (dir, store) = tmp_store("qc");
        store.save(&engine(2)).unwrap();
        fs::write(dir.join(MANIFEST_FILE), b"pimento-shards v9\ngarbage").unwrap();
        let err = store.recover().unwrap_err();
        assert!(matches!(err, Error::Snapshot(_)), "typed: {err:?}");
        let moved = store.quarantine_corrupt();
        assert!(moved >= 2, "manifest + segment moved aside: {moved}");
        assert!(!store.has_manifest(), "dir ready for a fresh bootstrap");
        let _ = fs::remove_dir_all(&dir);
    }
}
