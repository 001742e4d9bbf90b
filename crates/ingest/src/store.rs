//! Durable segment store: the crash-safety half of the write path
//! (DESIGN.md §16).
//!
//! Every publish persists **before** the in-memory swap, with the same
//! discipline as the profile store: write each file to a `.tmp`
//! sibling, fsync, atomically rename into place, fsync the directory;
//! the `MANIFEST` rename comes last and is the commit point. File
//! names are generation-stamped ([`ShardManifest::delta_file_name`],
//! [`ShardManifest::generation_file_name`], generation-suffixed
//! tombstone sidecars), so no publish ever rewrites a file the
//! previous manifest references — whatever manifest a restart finds,
//! every file it names is exactly as it was when that manifest was
//! committed. Superseded files are garbage-collected only *after* a
//! successful swap.
//!
//! All I/O goes through a [`Vfs`] handle (DESIGN.md §17): [`StdVfs`]
//! in production, `SimVfs` in the crash-enumeration harness. `ENOSPC`
//! surfaces as the typed [`Error::DiskFull`] with the temp file
//! cleaned up, so the old generation keeps serving and a retry after
//! space frees can succeed.

use pimento::error::classify_io;
use pimento::{Engine, Error};
use pimento_faults::vfs::{self, StdVfs, Vfs};
use pimento_index::segment::{ShardManifest, MANIFEST_FILE};
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
        pimento::engine::read_manifest(&*self.vfs, &self.dir)
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
    /// operator can still inspect the wreckage. Quarantine-not-crash:
    /// this is best-effort and never fails — it returns how many
    /// artifacts were moved.
    pub fn quarantine_corrupt(&self, cap: vfs::QuarantineCap) -> usize {
        let Ok(files) = self.vfs.list(&self.dir) else {
            return 0;
        };
        let mut moved = 0;
        for path in files {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
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
        let manifest = engine.manifest_for(files)?;
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

    #[test]
    fn publish_then_recover_roundtrips() {
        let dir = std::env::temp_dir().join(format!("pimento-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SegmentStore::open(&dir).unwrap();
        assert!(!store.has_manifest());
        let eng = engine(4).at_generation(3);
        let files = vec![ShardManifest::generation_file_name(3, 0)];
        let manifest = store.publish(&eng, &files, 0..1).unwrap();
        assert!(store.has_manifest());
        assert_eq!(store.manifest().unwrap(), manifest);
        let back = store.recover().unwrap();
        assert_eq!(back.generation(), 3);
        assert_eq!(back.num_docs(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_only_unreferenced_artifacts() {
        let dir = std::env::temp_dir().join(format!("pimento-store-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SegmentStore::open(&dir).unwrap();
        let eng = engine(2);
        let files = vec![ShardManifest::generation_file_name(0, 0)];
        let manifest = store.publish(&eng, &files, 0..1).unwrap();
        fs::write(dir.join("delta-000009.v4.snap"), b"stale").unwrap();
        fs::write(dir.join("something.tmp"), b"stale").unwrap();
        fs::write(dir.join("notes.txt"), b"not ours").unwrap();
        assert_eq!(store.gc(&manifest), 2);
        assert!(dir.join("notes.txt").exists(), "foreign files untouched");
        assert!(dir.join(&files[0]).exists());
        assert!(store.has_manifest());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_typed_and_quarantinable() {
        let dir = std::env::temp_dir().join(format!("pimento-store-qc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SegmentStore::open(&dir).unwrap();
        let eng = engine(2);
        let files = vec![ShardManifest::generation_file_name(0, 0)];
        store.publish(&eng, &files, 0..1).unwrap();
        fs::write(dir.join(MANIFEST_FILE), b"pimento-shards v9\ngarbage").unwrap();
        let err = store.recover().unwrap_err();
        assert!(matches!(err, Error::Snapshot(_)), "typed: {err:?}");
        let moved = store.quarantine_corrupt(vfs::QuarantineCap::default());
        assert!(moved >= 2, "manifest + segment moved aside: {moved}");
        assert!(!store.has_manifest(), "dir ready for a fresh bootstrap");
        let _ = fs::remove_dir_all(&dir);
    }
}
