//! # Virtual filesystem layer (DESIGN.md §17)
//!
//! Every durable write in PIMENTO — segment files, tombstone sidecars,
//! the shard `MANIFEST`, stored profiles — goes through the [`Vfs`]
//! trait instead of calling `std::fs` directly. Production code uses
//! [`StdVfs`], a thin veneer over the real filesystem. Under the
//! `fault-injection` feature the same call sites can be pointed at
//! [`SimVfs`], an in-memory filesystem that models the failure modes a
//! real disk exposes across a crash:
//!
//! * **torn writes** — file content written but never fsynced survives a
//!   crash only as an arbitrary prefix;
//! * **lost namespace operations** — a rename or create not followed by
//!   a directory fsync may be rolled back;
//! * **dropped fsyncs** — a misbehaving device acknowledges `fsync` but
//!   persists nothing;
//! * **disk-full** — a byte budget makes writes fail with `ENOSPC`
//!   after a short write, exactly like a full partition.
//!
//! [`SimVfs`] also counts every *mutating* operation (write, fsync,
//! rename, remove, mkdir) as a **crash point**. A harness first replays
//! a commit sequence cleanly to learn the number of points `N`, then
//! replays it `N` more times with [`SimVfs::set_crash_at`] arming point
//! `k` for each `k in 1..=N`: the armed operation fails, every
//! subsequent operation fails (the filesystem is "offline"), and
//! [`SimVfs::reboot`] materialises the post-crash disk under a chosen
//! [`CrashStyle`]. Recovery code is then asserted to reproduce either
//! the pre-write or the post-commit state — never a third one.
//!
//! The module also hosts the shared durability idiom ([`write_durable`]:
//! temp file → fsync → atomic rename → directory fsync, with temp
//! cleanup on failure so `ENOSPC` retries can succeed) and the
//! quarantine policy helpers ([`quarantine_file`],
//! [`enforce_quarantine_cap`]) used by the stores and the scrubber.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Abstract filesystem operations for durable state.
///
/// The trait is whole-file oriented on purpose: every PIMENTO artifact
/// is written in one shot and committed by rename, so streaming APIs
/// would only widen the surface the crash harness has to enumerate.
/// All methods are safe to call from multiple threads.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Create `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Create (or truncate) `path` and write `bytes` to it.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flush `path`'s content to stable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Flush `dir`'s entries (creations, renames, removals) to stable
    /// storage. Best-effort on platforms where directories cannot be
    /// opened for sync.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to`, replacing `to` if it exists.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Read the full content of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// List the files (not directories) directly under `dir`, sorted.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Whether a file or directory exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Length in bytes of the file at `path`.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
}

/// The production [`Vfs`]: a thin veneer over `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

impl Vfs for StdVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync is best-effort: some filesystems refuse to
        // open a directory for writing/sync, and recovery handles a
        // lost namespace update by falling back to the prior
        // generation. Never fail the commit over it.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
}

/// Whether an I/O error means the disk is full (`ENOSPC`).
///
/// Matched on the raw OS error so the check works uniformly for real
/// filesystem errors and for the budget-exhausted errors [`SimVfs`]
/// synthesises.
pub fn is_disk_full(err: &io::Error) -> bool {
    err.raw_os_error() == Some(ENOSPC_CODE)
}

/// `ENOSPC` on every platform PIMENTO targets.
const ENOSPC_CODE: i32 = 28;

#[cfg(feature = "fault-injection")]
fn enospc() -> io::Error {
    io::Error::from_raw_os_error(ENOSPC_CODE)
}

/// Durably publish `bytes` as `dir/name`: write `dir/name.tmp`, fsync
/// it, atomically rename over the destination, fsync the directory.
///
/// On any failure the temp file is removed (best-effort) so a full
/// disk is not further burdened by stranded temps and a retry after
/// space frees can succeed. The destination is either untouched or
/// fully replaced — never torn — as long as fsyncs are honest.
pub fn write_durable(vfs: &dyn Vfs, dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp_name = format!("{name}.tmp");
    let tmp = dir.join(&tmp_name);
    let result = (|| {
        vfs.write_file(&tmp, bytes)?;
        vfs.fsync(&tmp)?;
        vfs.rename(&tmp, &dir.join(name))?;
        vfs.fsync_dir(dir)
    })();
    if result.is_err() {
        let _ = vfs.remove_file(&tmp);
    }
    result
}

/// Suffix a quarantined artifact carries: `<original>.q<seq>.quarantined`.
pub const QUARANTINE_SUFFIX: &str = ".quarantined";

/// One quarantined artifact, as reported by [`quarantine_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedFile {
    /// Full path of the quarantined copy.
    pub path: PathBuf,
    /// Eviction order: lower sequence numbers are older.
    pub seq: u64,
    /// Size in bytes.
    pub len: u64,
}

/// Caps on quarantined artifacts in one directory; see
/// [`enforce_quarantine_cap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineCap {
    /// Maximum number of `*.quarantined` files kept.
    pub max_files: usize,
    /// Maximum total bytes of `*.quarantined` files kept.
    pub max_bytes: u64,
}

impl Default for QuarantineCap {
    /// 64 files / 64 MiB: enough to diagnose a flapping disk, bounded
    /// enough never to fill the partition it is protecting.
    fn default() -> QuarantineCap {
        QuarantineCap {
            max_files: 64,
            max_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Parse `<original>.q<seq>.quarantined` back into its sequence number.
fn quarantine_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(QUARANTINE_SUFFIX)?;
    let (_, tag) = stem.rsplit_once('.')?;
    let digits = tag.strip_prefix('q')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Every quarantined artifact under `dir`, oldest (lowest `seq`) first.
pub fn quarantine_stats(vfs: &dyn Vfs, dir: &Path) -> Vec<QuarantinedFile> {
    let mut out = Vec::new();
    let Ok(files) = vfs.list(dir) else {
        return out;
    };
    for path in files {
        if let Some(seq) = quarantine_seq(&path) {
            let len = vfs.file_len(&path).unwrap_or(0);
            out.push(QuarantinedFile { path, seq, len });
        }
    }
    out.sort_by_key(|a| a.seq);
    out
}

/// Move a damaged artifact aside as `<name>.q<seq>.quarantined`, where
/// `seq` is one past the highest sequence already present in its
/// directory, then age out the oldest quarantined files until `cap`
/// holds. Returns the quarantine path.
pub fn quarantine_file(vfs: &dyn Vfs, path: &Path, cap: QuarantineCap) -> io::Result<PathBuf> {
    let dir = path.parent().unwrap_or(Path::new("."));
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unnamed artifact"))?;
    let seq = quarantine_stats(vfs, dir)
        .last()
        .map(|q| q.seq + 1)
        .unwrap_or(1);
    let target = dir.join(format!("{name}.q{seq:06}{QUARANTINE_SUFFIX}"));
    vfs.rename(path, &target)?;
    enforce_quarantine_cap(vfs, dir, cap);
    Ok(target)
}

/// Evict quarantined files oldest-first until both the count and the
/// total-bytes cap hold. Returns how many files were evicted. Eviction
/// failures are ignored: the cap is a bound on growth, not an
/// invariant worth crashing a scrubber over.
pub fn enforce_quarantine_cap(vfs: &dyn Vfs, dir: &Path, cap: QuarantineCap) -> usize {
    let mut kept = quarantine_stats(vfs, dir);
    let mut total: u64 = kept.iter().map(|q| q.len).sum();
    let mut evicted = 0;
    while kept.len() > cap.max_files || total > cap.max_bytes {
        let oldest = kept.remove(0);
        if vfs.remove_file(&oldest.path).is_ok() {
            evicted += 1;
        }
        total = total.saturating_sub(oldest.len);
        if kept.is_empty() {
            break;
        }
    }
    evicted
}

#[cfg(feature = "fault-injection")]
pub use sim::{CrashStyle, SimVfs};

#[cfg(feature = "fault-injection")]
mod sim {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet, HashMap};
    use std::sync::Mutex;

    /// What a simulated crash preserves; see [`SimVfs::reboot`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum CrashStyle {
        /// Worst case: only state explicitly made durable survives.
        /// Namespace operations (creates, renames, removals) not
        /// committed by a directory fsync are rolled back; file content
        /// not committed by a file fsync survives only as a torn
        /// prefix.
        Lose,
        /// Best case: everything the process wrote survives, fsynced
        /// or not. Recovery must accept this too — a crash is allowed
        /// to be lucky.
        Keep,
        /// Namespace operations all survive (as on a journalling
        /// filesystem that commits metadata promptly), but unsynced
        /// file content is torn. This is the style that manufactures a
        /// *visible* torn artifact when an fsync was dropped.
        Torn,
    }

    #[derive(Debug, Clone)]
    struct Inode {
        live: Vec<u8>,
        /// Content guaranteed on stable storage (`None` until the
        /// first honest fsync, reset by an in-place truncate).
        synced: Option<Vec<u8>>,
    }

    #[derive(Debug, Default)]
    struct SimState {
        /// Live namespace: what the running process observes.
        ns: BTreeMap<PathBuf, u64>,
        /// Durable namespace: the paths (and inode bindings) a `Lose`
        /// crash preserves. Updated only by `fsync_dir`.
        durable_ns: BTreeMap<PathBuf, u64>,
        /// Directories. These survive every crash style: directory
        /// creation races are not a failure mode PIMENTO's commit
        /// protocol depends on.
        dirs: BTreeSet<PathBuf>,
        inodes: HashMap<u64, Inode>,
        next_ino: u64,
        /// Mutating operations seen so far (the crash-point counter).
        ops: u64,
        crash_at: Option<u64>,
        crashed: bool,
        /// Remaining disk bytes, if a budget is set.
        budget: Option<u64>,
        drop_fsyncs: bool,
        seed: u64,
    }

    /// An in-memory filesystem with simulated crash, torn-write,
    /// dropped-fsync and disk-full behaviour. See the module docs for
    /// the harness protocol.
    #[derive(Debug)]
    pub struct SimVfs {
        state: Mutex<SimState>,
    }

    fn offline() -> io::Error {
        io::Error::other("simvfs: filesystem offline after simulated crash")
    }

    fn not_found(path: &Path) -> io::Error {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("simvfs: no such file: {}", path.display()),
        )
    }

    impl SimVfs {
        /// An empty simulated filesystem. `seed` drives the (fully
        /// deterministic) choice of torn-write prefix lengths.
        pub fn new(seed: u64) -> SimVfs {
            SimVfs {
                state: Mutex::new(SimState {
                    seed,
                    ..SimState::default()
                }),
            }
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, SimState> {
            // A panic while holding the lock only happens if a test
            // assertion fired inside a closure; the state is still
            // coherent for the next assertion.
            self.state.lock().unwrap_or_else(|p| p.into_inner())
        }

        /// Arm (or disarm with `None`) a crash at the `k`-th *future*
        /// mutating operation, 1-based against [`SimVfs::mutations`].
        /// The armed operation fails after applying a torn prefix (for
        /// writes), and every subsequent operation fails until
        /// [`SimVfs::reboot`].
        pub fn set_crash_at(&self, k: Option<u64>) {
            let mut s = self.lock();
            s.crash_at = k;
        }

        /// How many mutating operations (crash points) have occurred.
        pub fn mutations(&self) -> u64 {
            self.lock().ops
        }

        /// Whether an armed crash has fired.
        pub fn crashed(&self) -> bool {
            self.lock().crashed
        }

        /// Cap the disk at `bytes` total live content (`None` removes
        /// the cap). Writes that would exceed it apply a short write
        /// and fail with `ENOSPC`; removing files frees space.
        pub fn set_budget(&self, bytes: Option<u64>) {
            let mut s = self.lock();
            s.budget = bytes;
        }

        /// When set, `fsync`/`fsync_dir` report success without
        /// persisting anything — the lying-device failure mode that
        /// makes torn artifacts reachable past a rename commit.
        pub fn set_drop_fsyncs(&self, drop: bool) {
            let mut s = self.lock();
            s.drop_fsyncs = drop;
        }

        /// Simulate the machine restarting after a crash: materialise
        /// the surviving disk under `style`, then bring the filesystem
        /// back online with every survivor fully durable. Resets the
        /// crash-point counter and disarms any pending crash.
        pub fn reboot(&self, style: CrashStyle) {
            let mut s = self.lock();
            let survivors: Vec<(PathBuf, Vec<u8>)> = match style {
                CrashStyle::Keep => s
                    .ns
                    .iter()
                    .filter_map(|(p, ino)| {
                        s.inodes.get(ino).map(|n| (p.clone(), n.live.clone()))
                    })
                    .collect(),
                CrashStyle::Lose => s
                    .durable_ns
                    .iter()
                    .filter_map(|(p, ino)| {
                        s.inodes
                            .get(ino)
                            .map(|n| (p.clone(), crash_content(s.seed, p, n)))
                    })
                    .collect(),
                CrashStyle::Torn => s
                    .ns
                    .iter()
                    .filter_map(|(p, ino)| {
                        s.inodes
                            .get(ino)
                            .map(|n| (p.clone(), crash_content(s.seed, p, n)))
                    })
                    .collect(),
            };
            s.ns.clear();
            s.durable_ns.clear();
            s.inodes.clear();
            for (path, content) in survivors {
                let ino = s.next_ino;
                s.next_ino += 1;
                s.inodes.insert(
                    ino,
                    Inode {
                        live: content.clone(),
                        synced: Some(content),
                    },
                );
                s.ns.insert(path.clone(), ino);
                s.durable_ns.insert(path, ino);
            }
            s.crashed = false;
            s.crash_at = None;
            s.ops = 0;
        }
    }

    /// Post-crash content of one inode: the fsynced bytes if the fsync
    /// was honest, otherwise a deterministic torn prefix of whatever
    /// was in flight.
    fn crash_content(seed: u64, path: &Path, inode: &Inode) -> Vec<u8> {
        match &inode.synced {
            Some(c) => c.clone(),
            None => {
                let h = mix64(seed, path_hash(path), inode.live.len() as u64);
                let keep = (h % (inode.live.len() as u64 + 1)) as usize;
                inode.live[..keep].to_vec()
            }
        }
    }

    /// splitmix64 over three words — the deterministic torn-prefix
    /// stream (same construction as the registry's per-hit mixer).
    fn mix64(seed: u64, a: u64, b: u64) -> u64 {
        let mut z = seed
            ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ b.wrapping_mul(0xd1b5_4a32_d192_ed03);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn path_hash(path: &Path) -> u64 {
        // FNV-1a over the lossy path string: stable and cheap.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in path.to_string_lossy().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    impl SimState {
        /// Gate every mutating operation: count it, fail it if it is
        /// the armed crash point, fail everything once crashed.
        fn gate(&mut self) -> io::Result<bool> {
            if self.crashed {
                return Err(offline());
            }
            self.ops += 1;
            if self.crash_at == Some(self.ops) {
                self.crashed = true;
                return Ok(true);
            }
            Ok(false)
        }

        fn used_bytes(&self) -> u64 {
            self.ns
                .values()
                .filter_map(|ino| self.inodes.get(ino))
                .map(|n| n.live.len() as u64)
                .sum()
        }

        /// Drop inodes no longer referenced by either namespace.
        fn gc_inode(&mut self, ino: u64) {
            let referenced = self.ns.values().any(|i| *i == ino)
                || self.durable_ns.values().any(|i| *i == ino);
            if !referenced {
                self.inodes.remove(&ino);
            }
        }
    }

    impl Vfs for SimVfs {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            let mut s = self.lock();
            if s.gate()? {
                return Err(io::Error::other("simvfs: simulated crash in create_dir_all"));
            }
            let mut cur = PathBuf::new();
            for part in dir.components() {
                cur.push(part);
                s.dirs.insert(cur.clone());
            }
            Ok(())
        }

        fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            let mut s = self.lock();
            let crashing = s.gate()?;
            // How many bytes actually land: all of them normally, a
            // deterministic prefix when this op is the crash point, a
            // budget-limited prefix when the disk fills.
            let mut landed = bytes.len();
            let mut verdict = Ok(());
            if let Some(budget) = s.budget {
                let other_used = s.used_bytes()
                    - s.ns
                        .get(path)
                        .and_then(|ino| s.inodes.get(ino))
                        .map(|n| n.live.len() as u64)
                        .unwrap_or(0);
                let room = budget.saturating_sub(other_used) as usize;
                if bytes.len() > room {
                    landed = room;
                    verdict = Err(enospc());
                }
            }
            if crashing {
                let h = mix64(s.seed, path_hash(path), s.ops);
                landed = (h % (landed as u64 + 1)) as usize;
                verdict = Err(io::Error::other(format!(
                    "simvfs: simulated crash at op {}",
                    s.ops
                )));
            }
            let content = bytes[..landed].to_vec();
            match s.ns.get(path).copied() {
                Some(ino) => {
                    // In-place create truncates the existing inode:
                    // worst case, the previously fsynced content is
                    // gone and a crash leaves a torn mix — model that
                    // by forgetting the synced copy.
                    if let Some(n) = s.inodes.get_mut(&ino) {
                        n.live = content;
                        n.synced = None;
                    }
                }
                None => {
                    let ino = s.next_ino;
                    s.next_ino += 1;
                    s.inodes.insert(
                        ino,
                        Inode {
                            live: content,
                            synced: None,
                        },
                    );
                    s.ns.insert(path.to_path_buf(), ino);
                }
            }
            verdict
        }

        fn fsync(&self, path: &Path) -> io::Result<()> {
            let mut s = self.lock();
            if s.gate()? {
                return Err(io::Error::other("simvfs: simulated crash in fsync"));
            }
            let ino = *s.ns.get(path).ok_or_else(|| not_found(path))?;
            if s.drop_fsyncs {
                return Ok(()); // the device lies: nothing persisted
            }
            if let Some(n) = s.inodes.get_mut(&ino) {
                n.synced = Some(n.live.clone());
            }
            Ok(())
        }

        fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
            let mut s = self.lock();
            if s.gate()? {
                return Err(io::Error::other("simvfs: simulated crash in fsync_dir"));
            }
            if s.drop_fsyncs {
                return Ok(());
            }
            // Commit this directory's live entries (creations, renames
            // and removals alike) to the durable namespace.
            let stale: Vec<PathBuf> = s
                .durable_ns
                .keys()
                .filter(|p| p.parent() == Some(dir))
                .cloned()
                .collect();
            let fresh: Vec<(PathBuf, u64)> = s
                .ns
                .iter()
                .filter(|(p, _)| p.parent() == Some(dir))
                .map(|(p, ino)| (p.clone(), *ino))
                .collect();
            let mut dropped = Vec::new();
            for p in stale {
                if let Some(ino) = s.durable_ns.remove(&p) {
                    dropped.push(ino);
                }
            }
            for (p, ino) in fresh {
                s.durable_ns.insert(p, ino);
            }
            for ino in dropped {
                s.gc_inode(ino);
            }
            Ok(())
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            let mut s = self.lock();
            if s.gate()? {
                return Err(io::Error::other("simvfs: simulated crash in rename"));
            }
            let ino = s.ns.remove(from).ok_or_else(|| not_found(from))?;
            if let Some(old) = s.ns.insert(to.to_path_buf(), ino) {
                s.gc_inode(old);
            }
            Ok(())
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            let mut s = self.lock();
            if s.gate()? {
                return Err(io::Error::other("simvfs: simulated crash in remove_file"));
            }
            let ino = s.ns.remove(path).ok_or_else(|| not_found(path))?;
            s.gc_inode(ino);
            Ok(())
        }

        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            let s = self.lock();
            if s.crashed {
                return Err(offline());
            }
            let ino = s.ns.get(path).ok_or_else(|| not_found(path))?;
            s.inodes
                .get(ino)
                .map(|n| n.live.clone())
                .ok_or_else(|| not_found(path))
        }

        fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            let s = self.lock();
            if s.crashed {
                return Err(offline());
            }
            Ok(s.ns
                .keys()
                .filter(|p| p.parent() == Some(dir))
                .cloned()
                .collect())
        }

        fn exists(&self, path: &Path) -> bool {
            let s = self.lock();
            if s.crashed {
                return false;
            }
            s.ns.contains_key(path) || s.dirs.contains(path)
        }

        fn file_len(&self, path: &Path) -> io::Result<u64> {
            let s = self.lock();
            if s.crashed {
                return Err(offline());
            }
            let ino = s.ns.get(path).ok_or_else(|| not_found(path))?;
            s.inodes
                .get(ino)
                .map(|n| n.live.len() as u64)
                .ok_or_else(|| not_found(path))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_vfs_round_trip_and_durable_write() {
        let dir = std::env::temp_dir().join(format!("pimento-vfs-{}", std::process::id()));
        let vfs = StdVfs;
        vfs.create_dir_all(&dir).unwrap();
        write_durable(&vfs, &dir, "artifact", b"hello").unwrap();
        assert_eq!(vfs.read(&dir.join("artifact")).unwrap(), b"hello");
        assert!(!vfs.exists(&dir.join("artifact.tmp")));
        assert_eq!(vfs.file_len(&dir.join("artifact")).unwrap(), 5);
        assert_eq!(vfs.list(&dir).unwrap(), vec![dir.join("artifact")]);
        vfs.remove_file(&dir.join("artifact")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_names_sequence_and_cap() {
        let dir = std::env::temp_dir().join(format!("pimento-vfs-q-{}", std::process::id()));
        let vfs = StdVfs;
        vfs.create_dir_all(&dir).unwrap();
        let cap = QuarantineCap {
            max_files: 2,
            max_bytes: 1 << 20,
        };
        for i in 0..4u8 {
            let p = dir.join(format!("seg{i}.snap"));
            vfs.write_file(&p, &[i; 8]).unwrap();
            quarantine_file(&vfs, &p, cap).unwrap();
        }
        let kept = quarantine_stats(&vfs, &dir);
        assert_eq!(kept.len(), 2, "count cap holds: {kept:?}");
        // Oldest-first eviction keeps the two newest (seq 3 and 4).
        assert_eq!(kept[0].seq, 3);
        assert_eq!(kept[1].seq, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_byte_cap_evicts_oldest() {
        let dir = std::env::temp_dir().join(format!("pimento-vfs-qb-{}", std::process::id()));
        let vfs = StdVfs;
        vfs.create_dir_all(&dir).unwrap();
        let cap = QuarantineCap {
            max_files: 100,
            max_bytes: 20,
        };
        for i in 0..3u8 {
            let p = dir.join(format!("f{i}"));
            vfs.write_file(&p, &[i; 10]).unwrap();
            quarantine_file(&vfs, &p, cap).unwrap();
        }
        let kept = quarantine_stats(&vfs, &dir);
        let total: u64 = kept.iter().map(|q| q.len).sum();
        assert!(total <= 20, "byte cap holds: {kept:?}");
        assert_eq!(kept.first().map(|q| q.seq), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_full_is_detected() {
        assert!(is_disk_full(&io::Error::from_raw_os_error(28)));
        assert!(!is_disk_full(&io::Error::other("boom")));
    }

    #[cfg(feature = "fault-injection")]
    mod sim {
        use super::super::*;
        use std::path::Path;

        fn dir() -> &'static Path {
            Path::new("/data")
        }

        #[test]
        fn clean_run_counts_mutations() {
            let vfs = SimVfs::new(7);
            vfs.create_dir_all(dir()).unwrap();
            write_durable(&vfs, dir(), "a", b"one").unwrap();
            // mkdir + write + fsync + rename + fsync_dir = 5 points.
            assert_eq!(vfs.mutations(), 5);
        }

        #[test]
        fn lose_crash_before_dir_fsync_rolls_back() {
            let vfs = SimVfs::new(7);
            vfs.create_dir_all(dir()).unwrap();
            write_durable(&vfs, dir(), "a", b"old").unwrap();
            let committed = vfs.mutations();
            // Crash on the rename of the second publish: the new
            // content was fsynced but its namespace entry was not.
            vfs.set_crash_at(Some(committed + 3));
            let err = write_durable(&vfs, dir(), "a", b"new").unwrap_err();
            assert!(err.to_string().contains("simulated crash"));
            vfs.reboot(CrashStyle::Lose);
            assert_eq!(vfs.read(&dir().join("a")).unwrap(), b"old");
        }

        #[test]
        fn keep_crash_after_rename_sees_new_content() {
            let vfs = SimVfs::new(7);
            vfs.create_dir_all(dir()).unwrap();
            write_durable(&vfs, dir(), "a", b"old").unwrap();
            let committed = vfs.mutations();
            vfs.set_crash_at(Some(committed + 4)); // dir fsync
            let _ = write_durable(&vfs, dir(), "a", b"new");
            vfs.reboot(CrashStyle::Keep);
            assert_eq!(vfs.read(&dir().join("a")).unwrap(), b"new");
        }

        #[test]
        fn torn_write_survives_as_prefix() {
            let vfs = SimVfs::new(7);
            vfs.create_dir_all(dir()).unwrap();
            // Crash inside the write itself: op 2 (after mkdir).
            vfs.set_crash_at(Some(2));
            let _ = vfs.write_file(&dir().join("a.tmp"), b"0123456789");
            vfs.reboot(CrashStyle::Torn);
            let got = vfs.read(&dir().join("a.tmp")).unwrap();
            assert!(b"0123456789".starts_with(&got[..]), "prefix: {got:?}");
        }

        #[test]
        fn everything_fails_after_crash_until_reboot() {
            let vfs = SimVfs::new(7);
            vfs.create_dir_all(dir()).unwrap();
            vfs.write_file(&dir().join("a"), b"x").unwrap();
            vfs.set_crash_at(Some(vfs.mutations() + 1));
            assert!(vfs.write_file(&dir().join("b"), b"y").is_err());
            assert!(vfs.read(&dir().join("a")).is_err());
            assert!(vfs.fsync(&dir().join("a")).is_err());
            assert!(!vfs.exists(&dir().join("a")));
            vfs.reboot(CrashStyle::Keep);
            assert_eq!(vfs.read(&dir().join("a")).unwrap(), b"x");
        }

        #[test]
        fn enospc_budget_short_write_and_retry() {
            let vfs = SimVfs::new(7);
            vfs.create_dir_all(dir()).unwrap();
            vfs.set_budget(Some(10));
            let err = vfs.write_file(&dir().join("big.tmp"), &[7u8; 32]).unwrap_err();
            assert!(is_disk_full(&err), "got {err}");
            // The short write landed; cleaning it up frees the space.
            assert!(vfs.file_len(&dir().join("big.tmp")).unwrap() <= 10);
            vfs.remove_file(&dir().join("big.tmp")).unwrap();
            vfs.write_file(&dir().join("small"), &[1u8; 10]).unwrap();
            assert_eq!(vfs.read(&dir().join("small")).unwrap(), [1u8; 10]);
        }

        #[test]
        fn write_durable_cleans_temp_on_enospc() {
            let vfs = SimVfs::new(7);
            vfs.create_dir_all(dir()).unwrap();
            vfs.set_budget(Some(4));
            let err = write_durable(&vfs, dir(), "a", b"too big to fit").unwrap_err();
            assert!(is_disk_full(&err));
            assert!(!vfs.exists(&dir().join("a.tmp")), "temp cleaned up");
            vfs.set_budget(Some(1024));
            write_durable(&vfs, dir(), "a", b"too big to fit").unwrap();
            assert_eq!(vfs.read(&dir().join("a")).unwrap(), b"too big to fit");
        }

        #[test]
        fn dropped_fsync_can_tear_a_renamed_file() {
            let vfs = SimVfs::new(7);
            vfs.create_dir_all(dir()).unwrap();
            vfs.set_drop_fsyncs(true);
            write_durable(&vfs, dir(), "a", b"supposedly durable").unwrap();
            vfs.reboot(CrashStyle::Torn);
            // The rename survived (Torn keeps the namespace) but the
            // content was never really fsynced: a torn prefix remains.
            let got = vfs.read(&dir().join("a")).unwrap();
            assert!(b"supposedly durable".starts_with(&got[..]));
        }

        #[test]
        fn in_place_overwrite_forfeits_durability() {
            let vfs = SimVfs::new(7);
            vfs.create_dir_all(dir()).unwrap();
            vfs.write_file(&dir().join("a"), b"first").unwrap();
            vfs.fsync(&dir().join("a")).unwrap();
            vfs.fsync_dir(dir()).unwrap();
            // Overwriting in place truncates the inode: the earlier
            // fsync no longer protects the old content.
            vfs.write_file(&dir().join("a"), b"second-version").unwrap();
            vfs.reboot(CrashStyle::Lose);
            let got = vfs.read(&dir().join("a")).unwrap();
            assert!(b"second-version".starts_with(&got[..]), "torn: {got:?}");
        }
    }
}
