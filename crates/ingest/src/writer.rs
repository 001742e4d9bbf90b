//! The single-writer ingest pipeline (DESIGN.md §16).
//!
//! One [`Ingestor`] owns the write path for a [`LiveEngine`]: every
//! mutation — add batch, delete batch, compaction — runs under one
//! writer mutex, builds the next generation as a pure transform of the
//! current engine ([`pimento::Engine::with_ingested`] /
//! [`pimento::Engine::with_deletes`] / [`pimento::Engine::compacted`]),
//! and hands it to the one commit routine, `Ingestor::commit`: durably
//! persist (when a data directory is configured), only then publish with
//! an atomic swap, sweep orphans. The transforms
//! differ only in which segments are new — an add appends one segment
//! and shares the rest with the previous generation, so it writes one
//! file — and the scrubber's repair is the same commit of the generation
//! already live. Readers never wait on the writer; the writer never
//! blocks a query.
//!
//! Crash matrix (persist-then-publish):
//!
//! | interrupted at            | disk state on restart                |
//! |---------------------------|--------------------------------------|
//! | building the next engine  | previous generation, fully intact    |
//! | writing segments/sidecars | previous manifest + orphan new files |
//! | `MANIFEST` rename         | previous manifest + orphan new files |
//! | after commit, before swap | **new** generation (never acked —    |
//! |                           | recovering it is a completed write)  |
//!
//! Orphans are swept by [`SegmentStore::gc`] after the next successful
//! publish; recovery itself never deletes anything.
//!
//! A commit that fails *after* its `MANIFEST` rename (the
//! `ingest.publish.crash` point, or a directory fsync error) leaves a
//! generation on disk that is never served. Until the next commit lands,
//! every new name steps past that manifest: the next generation is
//! numbered above it, so its delta and sidecar names are new, and a
//! compaction's segment names avoid its files ([`store::fresh_files`]).
//! No write ever replaces a file the manifest on disk lists.

use crate::live::LiveEngine;
use crate::store::{self, SegmentStore};
use pimento::{Engine, Error};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Configuration for an [`Ingestor`].
#[derive(Debug, Clone, Default)]
pub struct IngestConfig {
    /// Where to durably persist published generations. `None` keeps the
    /// corpus memory-only (a restart reverts to the boot-time corpus).
    pub data_dir: Option<PathBuf>,
    /// Compact once this many delta segments have accumulated
    /// (0 disables automatic merging; [`Ingestor::merge_now`] still
    /// works).
    pub merge_threshold: usize,
    /// How many doc-range segments a compaction rebuilds into
    /// (0 or 1 → monolithic).
    pub compact_shards: usize,
    /// Filesystem the store talks to. `None` uses the real filesystem;
    /// the crash-enumeration harness points this at a `SimVfs`.
    pub vfs: Option<Arc<dyn pimento_faults::vfs::Vfs>>,
}

/// What a successful write published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// The corpus generation this write created.
    pub generation: u64,
    /// Documents added (for adds), newly deleted (for deletes — ids
    /// already deleted or repeated in the batch don't count), or live
    /// documents (for compactions).
    pub docs: usize,
}

/// Writer-side bookkeeping, guarded by the single writer mutex.
#[derive(Debug)]
struct WriterState {
    /// Per-segment file names aligned with the live engine's segments.
    /// Maintained only when a [`SegmentStore`] is configured.
    files: Vec<String>,
    /// Delta segments published since the last compaction.
    deltas: usize,
    /// The generation and segment files of a manifest a failed commit
    /// left on disk ahead of the served generation (see the module
    /// docs); `None` once a commit lands.
    ahead: Option<(u64, Vec<String>)>,
    /// Tells the background merger to exit.
    shutdown: bool,
}

impl WriterState {
    /// `next`, numbered past the manifest a failed commit left ahead on
    /// disk, so none of its generation-stamped names can replace a file
    /// that manifest lists.
    fn past_ahead(&self, next: Engine) -> Engine {
        match &self.ahead {
            Some((generation, _)) if next.generation() <= *generation => {
                next.at_generation(generation + 1)
            }
            _ => next,
        }
    }
}

/// The single-writer back office: serializes all mutations, persists
/// before publishing, and wakes the background merger when enough
/// deltas accumulate.
pub struct Ingestor {
    live: Arc<LiveEngine>,
    store: Option<SegmentStore>,
    merge_threshold: usize,
    compact_shards: usize,
    state: Mutex<WriterState>,
    wake: Condvar,
    merges: AtomicU64,
    merge_failures: AtomicU64,
}

impl std::fmt::Debug for Ingestor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ingestor")
            .field("store", &self.store)
            .field("merge_threshold", &self.merge_threshold)
            .field("compact_shards", &self.compact_shards)
            .finish_non_exhaustive()
    }
}

impl Ingestor {
    /// Attach a writer to a live engine. With a data directory
    /// configured this also brings the disk in line with the live
    /// engine: the committed manifest is adopted as-is only when the
    /// engine was opened from it, in this directory (the recovery path,
    /// [`Engine::opened_from`]); anything else (a fresh directory, or a
    /// boot that ignored the directory's contents) gets a full bootstrap
    /// ([`SegmentStore::save`]) so a restart recovers what is being
    /// served.
    pub fn new(live: Arc<LiveEngine>, cfg: IngestConfig) -> Result<Ingestor, Error> {
        let store = cfg
            .data_dir
            .map(|dir| match cfg.vfs {
                Some(vfs) => SegmentStore::open_with(vfs, dir),
                None => SegmentStore::open(dir),
            })
            .transpose()?;
        let mut files = Vec::new();
        if let Some(store) = &store {
            let engine = live.load();
            let manifest = match store.manifest() {
                Ok(m) if engine.opened_from() == Some((store.dir(), &m)) => m,
                _ => store.save(&engine)?,
            };
            files = manifest.segments.into_iter().map(|e| e.file).collect();
        }
        Ok(Ingestor {
            live,
            store,
            merge_threshold: cfg.merge_threshold,
            compact_shards: cfg.compact_shards,
            state: Mutex::new(WriterState {
                files,
                deltas: 0,
                ahead: None,
                shutdown: false,
            }),
            wake: Condvar::new(),
            merges: AtomicU64::new(0),
            merge_failures: AtomicU64::new(0),
        })
    }

    /// The engine cell this writer publishes to.
    pub fn live(&self) -> &Arc<LiveEngine> {
        &self.live
    }

    /// The durable store, when persistence is configured. The scrubber
    /// reads (and quarantines) on-disk artifacts through this.
    pub fn store(&self) -> Option<&SegmentStore> {
        self.store.as_ref()
    }

    /// Re-persist the entire live generation to disk — the scrubber's
    /// repair path after quarantining a damaged artifact. Takes the
    /// writer lock so it cannot interleave with a publish, then commits
    /// the in-memory engine (which *is* the last good generation:
    /// publishes swap it in only after a durable commit) with every
    /// segment file, sidecar and the manifest rewritten. Returns `false`
    /// when no store is configured.
    pub fn repair_persist(&self) -> Result<bool, Error> {
        if self.store.is_none() {
            return Ok(false);
        }
        let mut state = self.lock_state();
        let engine = self.live.load();
        let files = state.files.clone();
        self.commit(&mut state, &engine, files, 0..engine.shard_count())?;
        Ok(true)
    }

    /// Compactions performed (including by the background merger).
    pub fn merges(&self) -> u64 {
        self.merges.load(Ordering::Relaxed)
    }

    /// Background compactions that failed (retried on the next wake).
    pub fn merge_failures(&self) -> u64 {
        self.merge_failures.load(Ordering::Relaxed)
    }

    /// Take the writer lock. Poisoning is recovered: a writer panic can
    /// only happen before any state mutation (the transform + persist
    /// phases), so the state is still the last published one.
    fn lock_state(&self) -> MutexGuard<'_, WriterState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Named panic fault point for the chaos suite: dies *inside* the
    /// writer, after taking the lock, to prove writer panics neither
    /// corrupt the served corpus nor wedge later writes.
    fn fault_panic_point(&self) {
        #[cfg(feature = "fault-injection")]
        if pimento_faults::should_fire("ingest.writer.panic") {
            panic!("fault injected: ingest.writer.panic");
        }
    }

    /// Named crash fault point between durable commit and in-memory
    /// publish: the generation is on disk but was never acked or
    /// served. Restart recovers it — a completed durable write.
    fn fault_crash_point(&self) -> Result<(), Error> {
        #[cfg(feature = "fault-injection")]
        if pimento_faults::should_fire("ingest.publish.crash") {
            return Err(Error::Io(
                "fault injected: ingest.publish.crash (committed but not published)".into(),
            ));
        }
        Ok(())
    }

    /// The one way a generation becomes the served one: persist `next`
    /// under `files` (writing the segment files in the `write` range;
    /// sidecars and the manifest always), pass the crash point, swap it in, record
    /// its file names, sweep what the new manifest no longer references.
    /// Nothing before the swap touches the live cell, so an error leaves
    /// the previous generation served and — if the manifest rename
    /// already happened — the new one recoverable from disk, recorded in
    /// `state.ahead` so later names step past it.
    /// Committing the generation that is already live (repair) is
    /// idempotent: the swap sees what it saw before.
    fn commit(
        &self,
        state: &mut WriterState,
        next: &Arc<Engine>,
        files: Vec<String>,
        write: Range<usize>,
    ) -> Result<(), Error> {
        let published = match &self.store {
            Some(store) => store.publish(next, &files, write).map(Some),
            None => Ok(None),
        };
        let manifest = match published.and_then(|m| self.fault_crash_point().map(|()| m)) {
            Ok(m) => m,
            Err(e) => {
                // The `MANIFEST` rename may have landed. If the manifest
                // on disk is now ahead of the served generation, new
                // names step past it; an unreadable one is taken to be
                // this attempt's. Reads only, and only on failure.
                if let Some(store) = &self.store {
                    let on_disk = store.manifest().map_or((next.generation(), files), |m| {
                        (
                            m.generation,
                            m.segments.into_iter().map(|e| e.file).collect(),
                        )
                    });
                    if on_disk.0 > self.live.load().generation() {
                        state.ahead = Some(on_disk);
                    }
                }
                return Err(e);
            }
        };
        self.live.swap(Arc::clone(next));
        state.files = files;
        state.ahead = None;
        if let (Some(store), Some(m)) = (&self.store, &manifest) {
            store.gc(m);
        }
        Ok(())
    }

    /// Parse, index, and publish a batch of XML documents as one delta
    /// segment. Returns the receipt once the new generation is durable
    /// (when persistence is configured) *and* visible to readers.
    pub fn add_documents<S: AsRef<str>>(&self, docs: &[S]) -> Result<IngestReceipt, Error> {
        let mut state = self.lock_state();
        self.fault_panic_point();
        let next = Arc::new(state.past_ahead(self.live.load().with_ingested(docs)?));
        let generation = next.generation();
        let mut files = state.files.clone();
        if self.store.is_some() {
            files.push(store::delta_file(generation));
        }
        let delta = next.shard_count() - 1;
        self.commit(&mut state, &next, files, delta..delta + 1)?;
        state.deltas += 1;
        if self.merge_threshold > 0 && state.deltas >= self.merge_threshold {
            self.wake.notify_all();
        }
        Ok(IngestReceipt {
            generation,
            docs: docs.len(),
        })
    }

    /// Tombstone a batch of document ids and publish the new
    /// generation. Ids take effect immediately at scatter time; the
    /// documents physically disappear at the next compaction.
    pub fn delete_documents(&self, ids: &[u32]) -> Result<IngestReceipt, Error> {
        let mut state = self.lock_state();
        self.fault_panic_point();
        let (next, newly) = self.live.load().with_deletes(ids)?;
        let next = state.past_ahead(next);
        let generation = next.generation();
        // Segment layout unchanged — the file names stay as they are;
        // only the sidecars move to new generation-stamped names.
        let files = state.files.clone();
        self.commit(&mut state, &Arc::new(next), files, 0..0)?;
        Ok(IngestReceipt {
            generation,
            docs: newly,
        })
    }

    /// Compact delta segments and tombstones into a fresh doc-range
    /// layout now. Returns `Ok(None)` when there is nothing to do
    /// (no deltas, no deletions — or every document is deleted, in
    /// which case compaction waits for new documents rather than
    /// publish an empty corpus).
    pub fn merge_now(&self) -> Result<Option<IngestReceipt>, Error> {
        let mut state = self.lock_state();
        let engine = self.live.load();
        if (state.deltas == 0 && engine.deleted_docs() == 0) || engine.live_docs() == 0 {
            return Ok(None);
        }
        let next = Arc::new(state.past_ahead(engine.compacted(self.compact_shards)?));
        let receipt = IngestReceipt {
            generation: next.generation(),
            docs: next.num_docs(),
        };
        let mut taken = state.files.clone();
        if let Some((_, files)) = &state.ahead {
            taken.extend(files.iter().cloned());
        }
        let files = store::fresh_files(&next, &taken);
        self.commit(&mut state, &next, files, 0..next.shard_count())?;
        state.deltas = 0;
        self.merges.fetch_add(1, Ordering::Relaxed);
        Ok(Some(receipt))
    }

    /// Ask the background merger (if any) to exit. Idempotent.
    pub fn shutdown(&self) {
        let mut state = self.lock_state();
        state.shutdown = true;
        drop(state);
        self.wake.notify_all();
    }

    /// Run the merge loop until [`Ingestor::shutdown`]: sleep on the
    /// condvar, compact whenever the delta count reaches the threshold.
    /// A failed compaction is counted and retried on the next wake —
    /// the merger never dies on an error.
    fn merger_loop(&self) {
        loop {
            let mut state = self.lock_state();
            loop {
                if state.shutdown {
                    return;
                }
                if self.merge_threshold > 0 && state.deltas >= self.merge_threshold {
                    break;
                }
                let (next, _) = self
                    .wake
                    .wait_timeout(state, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                state = next;
            }
            drop(state);
            if self.merge_now().is_err() {
                self.merge_failures.fetch_add(1, Ordering::Relaxed);
                // Back off so a persistently failing disk doesn't spin.
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Handle to a background merger thread; join it after
/// [`Ingestor::shutdown`].
#[derive(Debug)]
pub struct MergerHandle {
    join: std::thread::JoinHandle<()>,
}

impl MergerHandle {
    /// Wait for the merger to exit (call [`Ingestor::shutdown`] first).
    pub fn join(self) {
        let _ = self.join.join();
    }
}

/// Spawn the background merge task for an ingestor.
pub fn spawn_merger(ingestor: &Arc<Ingestor>) -> Result<MergerHandle, Error> {
    let ing = Arc::clone(ingestor);
    let join = std::thread::Builder::new()
        .name("pimento-merger".into())
        .spawn(move || ing.merger_loop())
        .map_err(|e| Error::Io(format!("spawn merger: {e}")))?;
    Ok(MergerHandle { join })
}
