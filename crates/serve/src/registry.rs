//! Per-user profile sessions.
//!
//! `register_profile` installs a parsed [`UserProfile`] under a session
//! key; searches resolve the key to an `Arc` snapshot, so a concurrent
//! re-registration never mutates a profile mid-query — in-flight
//! requests keep the `Arc` they resolved, and every request after the
//! registration sees the new profile.

use pimento_profile::UserProfile;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

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
    /// in-memory registry is the durable store's source of truth for
    /// repair: the scrubber re-persists from here after quarantining a
    /// damaged profile file (DESIGN.md §17).
    pub rules: Option<Arc<String>>,
}

/// Thread-safe user → profile map.
#[derive(Debug, Default)]
pub struct ProfileRegistry {
    sessions: RwLock<HashMap<String, ProfileSession>>,
}

impl ProfileRegistry {
    /// Empty registry.
    pub fn new() -> ProfileRegistry {
        ProfileRegistry::default()
    }

    /// Install (or replace) `user`'s profile.
    pub fn register(&self, user: &str, profile: UserProfile) {
        self.install(user, profile, None, None)
    }

    /// Like [`ProfileRegistry::register`], also remembering the rule
    /// text the profile was parsed from so the scrubber can re-persist
    /// it if the on-disk copy is damaged.
    pub fn register_with_rules(&self, user: &str, profile: UserProfile, rules: &str) {
        self.install(user, profile, None, Some(Arc::new(rules.to_string())))
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
    /// repair set the scrubber re-persists from. Degraded placeholders
    /// and sessions registered without rule text are excluded.
    pub fn persisted_rules(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = read_guard(&self.sessions)
            .iter()
            .filter(|(_, s)| s.degraded.is_none())
            .filter_map(|(user, s)| {
                s.rules
                    .as_ref()
                    .map(|r| (user.clone(), r.as_ref().clone()))
            })
            .collect();
        out.sort();
        out
    }

    /// Install a degraded placeholder for `user`: an empty profile marked
    /// with `reason`. Used by startup recovery when a persisted profile
    /// is corrupt — the user keeps getting (unpersonalized, explicitly
    /// flagged) answers instead of `unknown_user` errors.
    pub fn register_degraded(&self, user: &str, reason: &str) {
        self.install(user, UserProfile::new(), Some(reason.to_string()), None)
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
}

// A poisoned registry lock only means another thread panicked while
// holding it; the map itself is always in a consistent state (single
// `insert` calls), so recover the guard instead of propagating panics
// across the whole server.
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

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_profile::KeywordOrderingRule;

    #[test]
    fn reregistration_replaces_and_snapshots_stay_stable() {
        let r = ProfileRegistry::new();
        assert!(r.get("u1").is_none());
        r.register("u1", UserProfile::new());
        let s1 = r.get("u1").expect("registered");
        let profile2 = UserProfile::new().with_kor(KeywordOrderingRule::new("nyc", "car", "NYC"));
        r.register("u1", profile2);
        // The old snapshot is unaffected by re-registration.
        assert!(s1.profile.kors.is_empty());
        assert_eq!(r.get("u1").expect("registered").profile.kors.len(), 1);
        r.register("u2", UserProfile::new());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn degraded_sessions_are_flagged_and_cleared_by_reregistration() {
        let r = ProfileRegistry::new();
        r.register_degraded("victim", "profile snapshot corrupt");
        let s = r.get("victim").expect("registered");
        assert_eq!(s.degraded.as_deref(), Some("profile snapshot corrupt"));
        assert!(
            s.profile.is_empty(),
            "degraded placeholder is the empty profile"
        );
        r.register("victim", UserProfile::new());
        assert!(r.get("victim").expect("registered").degraded.is_none());
    }
}
