//! Per-user profile sessions and their durable copy (DESIGN.md §12).
//!
//! `register_profile` installs a parsed [`UserProfile`] under a session
//! key; searches resolve the key to an `Arc` snapshot, so a concurrent
//! re-registration never mutates a profile mid-query — in-flight
//! requests keep the `Arc` they resolved, and every request after the
//! registration sees the new profile.
//!
//! With `--profile-dir` the registry also owns the profile directory:
//! [`ProfileRegistry::register`] persists each registration, startup
//! recovery ([`ProfileRegistry::recover`]) reinstalls what is stored,
//! and the scrubber re-persists what damage removed
//! ([`ProfileRegistry::repair`]). Registration and repair run under one
//! writer lock, so the file on disk is always the rules the registry
//! serves; searches only take the session map's read lock. Durability
//! discipline:
//!
//! * **write-temp → fsync → atomic rename** — a crash mid-write leaves a
//!   stale `.tmp` file (ignored on recovery), never a torn `.profile`;
//! * **two checksums** — the user-name header and the whole body carry
//!   independent CRC32s (reusing [`pimento_index::crc32`]). A bit flip in
//!   the rules region leaves the header verifiable, so recovery still
//!   knows *which user* lost their profile and can register a degraded
//!   session for them instead of silently forgetting the user;
//! * **quarantine, don't abort** — a corrupt file is renamed to
//!   `<name>.q<seq>.quarantined` under the bounded retention policy
//!   (`QuarantineCap::default()`); recovery never panics and never
//!   deletes evidence;
//! * **typed disk-full** — `ENOSPC` surfaces as [`Error::DiskFull`] with
//!   the temp file cleaned up, so the in-memory session stays live and a
//!   retry after space frees can succeed.
//!
//! [`ProfileRegistry::verify`] is the one walk of the directory: startup
//! recovery, the scrubber and `pimento scrub` all read it. All I/O goes
//! through a [`Vfs`] handle (DESIGN.md §17): [`StdVfs`] in production,
//! `SimVfs` in the crash-enumeration harness.
//!
//! ```text
//! magic   "PIMPROF1"                        8 bytes
//! u32le   user length; user (UTF-8)
//! u32le   CRC32 of everything above         — header checksum
//! u32le   rules length; rules (UTF-8)
//! u32le   CRC32 of everything above         — body checksum
//! ```

use crate::metrics::Metrics;
use pimento::error::classify_io;
use pimento::profile::{parse_profile, PrefRelRegistry, UserProfile};
use pimento::Error;
use pimento_faults::vfs::{self, QuarantineCap, StdVfs, Vfs};
use pimento_index::crc32;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

const MAGIC: &[u8; 8] = b"PIMPROF1";

/// A registered profile.
#[derive(Debug, Clone)]
pub struct ProfileSession {
    /// The immutable profile snapshot.
    pub profile: Arc<UserProfile>,
    /// `Some(reason)` when this session is a degraded placeholder: the
    /// user is known but their persisted profile could not be recovered
    /// (DESIGN.md §12), so searches run unpersonalized and stamp
    /// `degraded: true`. A fresh `register_profile` clears it.
    pub degraded: Option<String>,
    /// The rule text the profile was registered from, when known. The
    /// in-memory registry is the durable copy's source of truth for
    /// repair: the scrubber re-persists from here after quarantining a
    /// damaged profile file (DESIGN.md §17).
    pub rules: Option<Arc<String>>,
}

/// What [`ProfileRegistry::verify`] found about one stored profile file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileVerdict {
    /// The file's name inside the profile directory.
    pub file: String,
    /// The decoded `(user, rules)`, or why recovery refuses the file.
    pub outcome: Result<(String, String), Damage>,
}

/// Why a stored profile file does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Damage {
    /// The user an intact header still names; `None` when not even the
    /// header verified.
    pub user: Option<String>,
    /// What failed (unreadable, checksum mismatch, truncation, bad UTF-8).
    pub why: String,
}

/// Thread-safe user → profile map, optionally backed by a profile
/// directory. See the module docs.
#[derive(Debug, Default)]
pub struct ProfileRegistry {
    sessions: RwLock<HashMap<String, ProfileSession>>,
    /// The writer lock: held across a session change and its persist, so
    /// two writers of one user cannot leave disk and memory disagreeing.
    writes: Mutex<()>,
    /// The profile directory and the filesystem it lives on; `None`
    /// keeps profiles memory-only.
    dir: Option<(PathBuf, Arc<dyn Vfs>)>,
}

impl ProfileRegistry {
    /// An empty, memory-only registry.
    pub fn new() -> ProfileRegistry {
        ProfileRegistry::default()
    }

    /// An empty registry persisting to `dir` (created if needed) on the
    /// real filesystem. Nothing is read until [`ProfileRegistry::recover`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<ProfileRegistry, Error> {
        ProfileRegistry::open_with(Arc::new(StdVfs), dir)
    }

    /// Like [`ProfileRegistry::open`] against an explicit [`Vfs`] — the
    /// entry point the crash harness uses to run persistence on `SimVfs`.
    pub fn open_with(vfs: Arc<dyn Vfs>, dir: impl Into<PathBuf>) -> Result<ProfileRegistry, Error> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)
            .map_err(|e| classify_io(&dir, &e))?;
        Ok(ProfileRegistry {
            dir: Some((dir, vfs)),
            ..ProfileRegistry::default()
        })
    }

    /// The profile directory and its filesystem, when persistence is on.
    pub(crate) fn dir(&self) -> Option<(&Path, &Arc<dyn Vfs>)> {
        self.dir.as_ref().map(|(dir, vfs)| (dir.as_path(), vfs))
    }

    /// The file a user's profile persists to, inside the profile
    /// directory. The name embeds a sanitized prefix (readability) and an
    /// FNV-1a hash of the exact user string (uniqueness: distinct users
    /// never share a file).
    pub fn file_name(user: &str) -> String {
        let sanitized: String = user
            .chars()
            .take(40)
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in user.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        format!("u-{sanitized}-{h:016x}.profile")
    }

    /// Install (or replace) `user`'s profile, parsed from `rules`, and
    /// persist it when the registry has a directory. `None` when
    /// memory-only; otherwise the persist outcome. A failed persist
    /// degrades durability, not availability: the session is live either
    /// way. Runs under the writer lock.
    pub fn register(
        &self,
        user: &str,
        profile: UserProfile,
        rules: &str,
    ) -> Option<Result<(), Error>> {
        let _writes = lock(&self.writes);
        self.install(user, profile, None, Some(Arc::new(rules.to_string())));
        let (dir, vfs) = self.dir.as_ref()?;
        Some(persist(&**vfs, dir, user, rules))
    }

    fn install(
        &self,
        user: &str,
        profile: UserProfile,
        degraded: Option<String>,
        rules: Option<Arc<String>>,
    ) {
        let session = ProfileSession {
            profile: Arc::new(profile),
            degraded,
            rules,
        };
        write_guard(&self.sessions).insert(user.to_string(), session);
    }

    /// Every `(user, rules)` pair the registry can vouch for — the
    /// repair set. Degraded placeholders are excluded.
    pub fn persisted_rules(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = read_guard(&self.sessions)
            .iter()
            .filter(|(_, s)| s.degraded.is_none())
            .filter_map(|(user, s)| s.rules.as_ref().map(|r| (user.clone(), r.as_ref().clone())))
            .collect();
        out.sort();
        out
    }

    /// Resolve a session key to its current profile snapshot.
    pub fn get(&self, user: &str) -> Option<ProfileSession> {
        read_guard(&self.sessions).get(user).cloned()
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        read_guard(&self.sessions).len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The one walk of the profile directory: list it, decode every
    /// `.profile` file in name order, one verdict per file. Reads only;
    /// stale `.tmp` leftovers of a crashed persist are not profiles.
    /// Damaged bytes are verdicts, never panics. Empty when memory-only.
    pub fn verify(&self) -> Result<Vec<ProfileVerdict>, Error> {
        let Some((dir, vfs)) = &self.dir else {
            return Ok(Vec::new());
        };
        let files = vfs.list(dir).map_err(|e| classify_io(dir, &e))?;
        let mut out = Vec::new();
        for path in files {
            let Some(file) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !file.ends_with(".profile") {
                continue;
            }
            let outcome = match vfs.read(&path) {
                Ok(bytes) => decode(&bytes),
                Err(e) => Err(Damage {
                    user: None,
                    why: format!("unreadable: {e}"),
                }),
            };
            out.push(ProfileVerdict {
                file: file.to_string(),
                outcome,
            });
        }
        Ok(out)
    }

    /// Startup recovery: install every profile [`ProfileRegistry::verify`]
    /// decodes, and quarantine every file it refuses. A refused file
    /// whose header still names its user leaves a degraded session, so
    /// that user gets flagged unpersonalized answers instead of
    /// `unknown_user`. Counts into `profiles_recovered` /
    /// `profiles_quarantined`. Only a filesystem-level failure (listing
    /// the directory, renaming a file aside) is an error.
    pub fn recover(&self, metrics: &Metrics) -> Result<(), Error> {
        let Some((dir, vfs)) = &self.dir else {
            return Ok(());
        };
        let _writes = lock(&self.writes);
        for ProfileVerdict { file, outcome } in self.verify()? {
            #[cfg(feature = "fault-injection")]
            let outcome = outcome.and_then(|(user, rules)| {
                if pimento_faults::should_fire("serve.store.load") {
                    let why = "fault injected: serve.store.load".to_string();
                    return Err(Damage {
                        user: Some(user),
                        why,
                    });
                }
                Ok((user, rules))
            });
            match outcome {
                Ok((user, rules)) => match parse_profile(&rules, &PrefRelRegistry::new()) {
                    Ok(profile) => {
                        self.install(&user, profile, None, Some(Arc::new(rules)));
                        metrics.inc(&metrics.profiles_recovered);
                    }
                    // The bytes verified but no longer parse (e.g. the
                    // rule grammar moved on): degrade, don't die.
                    Err(e) => self.install_degraded(
                        &user,
                        format!("persisted profile no longer parses: {e}"),
                    ),
                },
                Err(damage) => {
                    let path = dir.join(&file);
                    vfs::quarantine_file(&**vfs, &path, QuarantineCap::default())
                        .map_err(|e| classify_io(&path, &e))?;
                    if let Some(user) = damage.user {
                        let reason = format!("persisted profile corrupt: {}", damage.why);
                        self.install_degraded(&user, reason);
                    }
                    metrics.inc(&metrics.profiles_quarantined);
                }
            }
        }
        Ok(())
    }

    /// A degraded placeholder for `user`: the empty profile, marked with
    /// `reason`.
    fn install_degraded(&self, user: &str, reason: String) {
        self.install(user, UserProfile::new(), Some(reason), None)
    }

    /// The scrubber's repair, under the writer lock: re-persist every
    /// session the registry can vouch for whose file is missing (just
    /// quarantined, or lost earlier). One `(user, outcome)` per attempt.
    pub(crate) fn repair(&self) -> Vec<(String, Result<(), Error>)> {
        let Some((dir, vfs)) = &self.dir else {
            return Vec::new();
        };
        let _writes = lock(&self.writes);
        self.persisted_rules()
            .into_iter()
            .filter(|(user, _)| !vfs.exists(&dir.join(Self::file_name(user))))
            .map(|(user, rules)| {
                let outcome = persist(&**vfs, dir, &user, &rules);
                (user, outcome)
            })
            .collect()
    }
}

/// Durably persist one (user, rules) pair: encode, write to a temp file,
/// fsync, atomically rename into place, then fsync the directory so the
/// rename itself survives a crash. On failure the temp file is removed
/// so a full disk is not further burdened. Callers hold the writer lock.
fn persist(vfs: &dyn Vfs, dir: &Path, user: &str, rules: &str) -> Result<(), Error> {
    let name = ProfileRegistry::file_name(user);
    #[cfg(feature = "fault-injection")]
    for step in ["write", "fsync", "rename"] {
        if pimento_faults::should_fire(&format!("serve.store.{step}")) {
            return Err(Error::Io(format!(
                "fault injected: serve.store.{step} ({name})"
            )));
        }
    }
    vfs::write_durable(vfs, dir, &name, &encode(user, rules))
        .map_err(|e| classify_io(&dir.join(&name), &e))
}

fn encode(user: &str, rules: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + user.len() + 4 + 4 + rules.len() + 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(user.len() as u32).to_le_bytes());
    out.extend_from_slice(user.as_bytes());
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    out.extend_from_slice(&(rules.len() as u32).to_le_bytes());
    out.extend_from_slice(rules.as_bytes());
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    out
}

fn decode(bytes: &[u8]) -> Result<(String, String), Damage> {
    // Every region read goes through `get` — `decode` is reachable from
    // the recovery and scrubber `panic-path` roots, so whatever
    // truncation or rot a disk hands us must be a typed failure, never a
    // slice panic.
    let le32 = |off: usize| -> Option<u32> {
        bytes
            .get(off..off.checked_add(4)?)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    };
    let region = |from: usize, to: usize| bytes.get(from..to);
    let header = |why: &str| Damage {
        user: None,
        why: why.to_string(),
    };
    if bytes.len() < MAGIC.len() + 4 {
        return Err(header("truncated header"));
    }
    if region(0, MAGIC.len()) != Some(MAGIC.as_slice()) {
        return Err(header("bad magic"));
    }
    let ulen = le32(MAGIC.len()).ok_or_else(|| header("truncated header"))? as usize;
    let user_end = 12usize.saturating_add(ulen);
    let hcrc = le32(user_end).ok_or_else(|| header("truncated user record"))?;
    let covered = region(0, user_end).ok_or_else(|| header("truncated user record"))?;
    if crc32(covered) != hcrc {
        return Err(header("header checksum mismatch"));
    }
    let user_bytes = region(12, user_end).ok_or_else(|| header("truncated user record"))?;
    let user = match std::str::from_utf8(user_bytes) {
        Ok(u) => u.to_string(),
        Err(_) => return Err(header("user is not valid UTF-8")),
    };
    // Header verified: every later failure still names the user.
    let rules_fail = |why: &str| Damage {
        user: Some(user.clone()),
        why: why.to_string(),
    };
    let rl_off = user_end.saturating_add(4);
    let rlen = le32(rl_off).ok_or_else(|| rules_fail("truncated rules length"))? as usize;
    let rules_end = rl_off.saturating_add(4).saturating_add(rlen);
    let footer = le32(rules_end).ok_or_else(|| rules_fail("truncated rules record"))?;
    if bytes.len() != rules_end.saturating_add(4) {
        return Err(rules_fail("trailing bytes after footer"));
    }
    let covered = region(0, rules_end).ok_or_else(|| rules_fail("truncated rules record"))?;
    if crc32(covered) != footer {
        return Err(rules_fail("body checksum mismatch"));
    }
    let rules_bytes = region(rl_off.saturating_add(4), rules_end)
        .ok_or_else(|| rules_fail("truncated rules record"))?;
    match std::str::from_utf8(rules_bytes) {
        Ok(r) => Ok((user, r.to_string())),
        Err(_) => Err(rules_fail("rules are not valid UTF-8")),
    }
}

// A poisoned lock only means another thread panicked while holding it;
// the map itself is always in a consistent state (single `insert`
// calls), and the writer lock guards no data, so recover the guard
// instead of propagating panics across the whole server.
fn read_guard<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockReadGuard<'a, T> {
    match l.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write_guard<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockWriteGuard<'a, T> {
    match l.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_profile::KeywordOrderingRule;
    use std::fs;

    /// A unique scratch directory per test (no tempfile crate offline).
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pimento-registry-test-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Register `rules` for `user`, parsing them, and return the persist
    /// outcome.
    fn register(r: &ProfileRegistry, user: &str, rules: &str) -> Option<Result<(), Error>> {
        let profile = parse_profile(rules, &PrefRelRegistry::new()).expect("rules parse");
        r.register(user, profile, rules)
    }

    /// A fresh registry over `dir` after recovery, with the counters it
    /// bumped.
    fn reopen(dir: &Path) -> (ProfileRegistry, Metrics) {
        let r = ProfileRegistry::open(dir).expect("open");
        let m = Metrics::new();
        r.recover(&m).expect("recover");
        (r, m)
    }

    const RULES: &str =
        "pi1: x.tag = car & y.tag = car & x.color = \"red\" & y.color != \"red\" -> x < y\n";

    #[test]
    fn reregistration_replaces_and_snapshots_stay_stable() {
        let r = ProfileRegistry::new();
        assert!(r.get("u1").is_none());
        assert!(
            r.register("u1", UserProfile::new(), "").is_none(),
            "memory-only"
        );
        let s1 = r.get("u1").expect("registered");
        let profile2 = UserProfile::new().with_kor(KeywordOrderingRule::new("nyc", "car", "NYC"));
        r.register("u1", profile2, "");
        // The old snapshot is unaffected by re-registration.
        assert!(s1.profile.kors.is_empty());
        assert_eq!(r.get("u1").expect("registered").profile.kors.len(), 1);
        r.register("u2", UserProfile::new(), "");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn degraded_sessions_are_flagged_and_cleared_by_reregistration() {
        let r = ProfileRegistry::new();
        r.install_degraded("victim", "profile snapshot corrupt".to_string());
        let s = r.get("victim").expect("registered");
        assert_eq!(s.degraded.as_deref(), Some("profile snapshot corrupt"));
        assert!(
            s.profile.is_empty(),
            "degraded placeholder is the empty profile"
        );
        assert!(r.persisted_rules().is_empty(), "nothing to repair from");
        r.register("victim", UserProfile::new(), "");
        assert!(r.get("victim").expect("registered").degraded.is_none());
    }

    #[test]
    fn round_trip_persist_and_recover() {
        let dir = scratch("roundtrip");
        let r = ProfileRegistry::open(&dir).expect("open");
        register(&r, "alice", RULES)
            .expect("durable")
            .expect("persist");
        register(&r, "bob", "")
            .expect("durable")
            .expect("empty rules persist");
        register(&r, "weird user/../name", RULES)
            .expect("durable")
            .expect("hostile name persists");
        let (back, m) = reopen(&dir);
        assert_eq!(back.persisted_rules(), r.persisted_rules());
        assert_eq!(
            m.profiles_recovered
                .load(std::sync::atomic::Ordering::Relaxed),
            3
        );
        // Re-persisting overwrites in place (same file per user).
        register(&r, "alice", "")
            .expect("durable")
            .expect("re-persist");
        assert_eq!(r.verify().expect("walk").len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_user_names_stay_inside_the_profile_dir() {
        let dir = PathBuf::from("/profiles");
        for user in ["../../etc/passwd", "a/b/c", "", ".", "..", "名前"] {
            let p = dir.join(ProfileRegistry::file_name(user));
            assert_eq!(p.parent(), Some(dir.as_path()), "{user:?} escaped: {p:?}");
        }
        // Distinct users, even with identical sanitized prefixes, get
        // distinct files.
        assert_ne!(
            ProfileRegistry::file_name("a/b"),
            ProfileRegistry::file_name("a?b")
        );
    }

    #[test]
    fn corrupt_rules_keep_the_user_and_quarantine_the_file() {
        let dir = scratch("corrupt-rules");
        let r = ProfileRegistry::open(&dir).expect("open");
        register(&r, "victim", RULES)
            .expect("durable")
            .expect("persist");
        let path = dir.join(ProfileRegistry::file_name("victim"));
        let mut bytes = fs::read(&path).expect("read");
        let n = bytes.len();
        bytes[n - 6] ^= 0xff; // inside the rules region, before the footer
        fs::write(&path, &bytes).expect("rewrite");

        let verdicts = r.verify().expect("walk");
        assert_eq!(verdicts.len(), 1);
        let damage = verdicts[0].outcome.clone().expect_err("damaged");
        assert_eq!(damage.user.as_deref(), Some("victim"));
        assert!(damage.why.contains("checksum"), "{}", damage.why);

        let (back, m) = reopen(&dir);
        let s = back.get("victim").expect("degraded session");
        assert!(s.degraded.expect("degraded").contains("corrupt"));
        assert_eq!(
            m.profiles_quarantined
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert!(!path.exists(), "corrupt file moved out of the scan set");
        assert_eq!(
            vfs::quarantine_stats(&StdVfs, &dir).len(),
            1,
            "evidence kept"
        );
        // A second walk sees a clean (empty) directory.
        assert!(r.verify().expect("walk again").is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_header_quarantines_without_a_user() {
        let dir = scratch("corrupt-header");
        let r = ProfileRegistry::open(&dir).expect("open");
        register(&r, "victim", RULES)
            .expect("durable")
            .expect("persist");
        let path = dir.join(ProfileRegistry::file_name("victim"));
        let mut bytes = fs::read(&path).expect("read");
        bytes[9] ^= 0xff; // user-length field: header checksum now fails
        fs::write(&path, &bytes).expect("rewrite");
        // Unrelated garbage is refused too, not crashed on.
        fs::write(dir.join("junk.profile"), b"\x00\x01notaprofile").expect("write junk");
        for verdict in r.verify().expect("walk") {
            let damage = verdict.outcome.expect_err("damaged");
            assert_eq!(damage.user, None, "{}", verdict.file);
        }
        let (back, m) = reopen(&dir);
        assert!(back.is_empty(), "no user to degrade");
        assert_eq!(
            m.profiles_quarantined
                .load(std::sync::atomic::Ordering::Relaxed),
            2
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_ignored() {
        let dir = scratch("tmp");
        let r = ProfileRegistry::open(&dir).expect("open");
        register(&r, "alice", RULES)
            .expect("durable")
            .expect("persist");
        // A crash between write and rename leaves a .tmp behind.
        let ghost = dir
            .join(ProfileRegistry::file_name("ghost"))
            .with_extension("tmp");
        fs::write(ghost, b"partial").expect("write tmp");
        let verdicts = r.verify().expect("walk");
        assert_eq!(verdicts.len(), 1, "{verdicts:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_boundary_is_typed() {
        let full = encode("user", "some rules text");
        for cut in 0..full.len() {
            let err = decode(&full[..cut]);
            assert!(err.is_err(), "truncation at {cut} accepted");
        }
        assert!(decode(&full).is_ok());
        // Trailing garbage is rejected too (a concatenated write).
        let mut extended = full.clone();
        extended.push(0);
        assert!(decode(&extended).is_err());
    }
}
