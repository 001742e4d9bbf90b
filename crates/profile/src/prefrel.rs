//! User-defined preference relations: strict partial orders over attribute
//! domains (paper §3.2, form (3): `prefRel(x.attr, y.attr) → x ≺ y`, "e.g.,
//! a partial ordering on colors").

use std::collections::{HashMap, HashSet};
use std::fmt;

/// Error raised when the supplied pairs do not form a strict partial order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefCycle {
    /// A value participating in a preference cycle.
    pub value: String,
}

impl fmt::Display for PrefCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "preference relation is cyclic through {:?}", self.value)
    }
}

impl std::error::Error for PrefCycle {}

/// A strict partial order over domain values, stored as its transitive
/// closure for O(1) comparisons. Values compare case-insensitively.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrefRel {
    /// better → set of strictly worse values (transitively closed).
    below: HashMap<String, HashSet<String>>,
}

impl PrefRel {
    /// Build from `(better, worse)` pairs. Fails on cycles (a strict
    /// partial order must be irreflexive).
    pub fn new<I, S>(pairs: I) -> Result<Self, PrefCycle>
    where
        I: IntoIterator<Item = (S, S)>,
        S: AsRef<str>,
    {
        let mut below: HashMap<String, HashSet<String>> = HashMap::new();
        for (better, worse) in pairs {
            below
                .entry(norm(better.as_ref()))
                .or_default()
                .insert(norm(worse.as_ref()));
        }
        // Transitive closure (domains are tiny: colors, makes, ...).
        loop {
            let mut added = false;
            let keys: Vec<String> = below.keys().cloned().collect();
            for k in &keys {
                let worse: Vec<String> = below[k].iter().cloned().collect();
                for w in worse {
                    if let Some(wworse) = below.get(&w).cloned() {
                        let entry = below.get_mut(k).expect("key exists");
                        for ww in wworse {
                            added |= entry.insert(ww);
                        }
                    }
                }
            }
            if !added {
                break;
            }
        }
        for (k, worse) in &below {
            if worse.contains(k) {
                return Err(PrefCycle { value: k.clone() });
            }
        }
        Ok(PrefRel { below })
    }

    /// A chain `v1 ≻ v2 ≻ … ≻ vn` (total order on the listed values).
    pub fn chain<S: AsRef<str>>(values: &[S]) -> Self {
        let pairs: Vec<(String, String)> = values
            .windows(2)
            .map(|w| (w[0].as_ref().to_string(), w[1].as_ref().to_string()))
            .collect();
        Self::new(pairs).expect("a chain is acyclic")
    }

    /// Is `a` strictly preferred to `b`?
    pub fn prefers(&self, a: &str, b: &str) -> bool {
        self.below
            .get(&norm(a))
            .is_some_and(|w| w.contains(&norm(b)))
    }

    /// Are `a` and `b` unrelated (neither preferred, not equal)?
    pub fn incomparable(&self, a: &str, b: &str) -> bool {
        norm(a) != norm(b) && !self.prefers(a, b) && !self.prefers(b, a)
    }

    /// All values mentioned by the relation.
    pub fn values(&self) -> HashSet<&str> {
        let mut out: HashSet<&str> = HashSet::new();
        for (k, ws) in &self.below {
            out.insert(k.as_str());
            out.extend(ws.iter().map(String::as_str));
        }
        out
    }

    /// True when the relation relates nothing.
    pub fn is_empty(&self) -> bool {
        self.below.values().all(HashSet::is_empty)
    }

    /// Precompile into a dense id-indexed table: every domain value gets a
    /// dense id, and `prefers` becomes a bit lookup. Values outside the
    /// domain have no id and are never preferred — exactly the behavior of
    /// the map-backed [`PrefRel::prefers`].
    pub fn compile(&self) -> PrefTable {
        let mut values: Vec<&str> = self.values().into_iter().collect();
        values.sort_unstable();
        let n = values.len();
        let ids: HashMap<String, u32> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.to_string(), i as u32))
            .collect();
        let mut bits = vec![false; n * n].into_boxed_slice();
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                bits[i * n + j] = self.prefers(a, b);
            }
        }
        PrefTable { ids, n, bits }
    }
}

/// A [`PrefRel`] precompiled into a dense id-indexed lookup table: domain
/// values map to dense ids once (at key-construction time), after which a
/// `≺_V` preference check is a single array lookup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrefTable {
    /// normalized value → dense id.
    ids: HashMap<String, u32>,
    /// Domain size.
    n: usize,
    /// `bits[a * n + b]` ⇔ value `a` is strictly preferred to value `b`.
    bits: Box<[bool]>,
}

impl PrefTable {
    /// Dense id of `value` (normalized like [`PrefRel::prefers`] operands),
    /// or `None` when the value is outside the relation's domain.
    pub fn id(&self, value: &str) -> Option<u32> {
        self.ids.get(&norm(value)).copied()
    }

    /// Is the value with id `a` strictly preferred to the value with id
    /// `b`? Ids must come from [`PrefTable::id`] on this table.
    pub fn prefers_ids(&self, a: u32, b: u32) -> bool {
        self.bits[a as usize * self.n + b as usize]
    }
}

fn norm(s: &str) -> String {
    s.trim().to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_pairs_and_transitivity() {
        let r = PrefRel::new([("red", "blue"), ("blue", "green")]).unwrap();
        assert!(r.prefers("red", "blue"));
        assert!(r.prefers("blue", "green"));
        assert!(r.prefers("red", "green")); // transitive
        assert!(!r.prefers("green", "red"));
        assert!(!r.prefers("red", "red"));
    }

    #[test]
    fn cycles_rejected() {
        let e = PrefRel::new([("a", "b"), ("b", "c"), ("c", "a")]).unwrap_err();
        assert!(["a", "b", "c"].contains(&e.value.as_str()));
    }

    #[test]
    fn self_loop_rejected() {
        assert!(PrefRel::new([("a", "a")]).is_err());
    }

    #[test]
    fn incomparable_values() {
        let r = PrefRel::new([("red", "blue"), ("red", "green")]).unwrap();
        assert!(r.incomparable("blue", "green"));
        assert!(!r.incomparable("red", "blue"));
        assert!(!r.incomparable("blue", "blue")); // equal, not incomparable
        assert!(r.incomparable("blue", "unknown"));
    }

    #[test]
    fn chain_is_total_on_listed_values() {
        let r = PrefRel::chain(&["red", "black", "silver"]);
        assert!(r.prefers("red", "silver"));
        assert!(r.prefers("black", "silver"));
        assert!(!r.incomparable("red", "black"));
    }

    #[test]
    fn case_insensitive() {
        let r = PrefRel::new([("Red", "Blue")]).unwrap();
        assert!(r.prefers("RED", "blue"));
    }

    #[test]
    fn empty_relation() {
        let r = PrefRel::new(Vec::<(&str, &str)>::new()).unwrap();
        assert!(r.is_empty());
        assert!(r.incomparable("x", "y"));
    }

    #[test]
    fn compiled_table_agrees_on_full_domain() {
        // The paper's car-sale color ordering (§3.2): red ≻ black ≻ white,
        // with an extra branch red ≻ silver.
        let r = PrefRel::new([("red", "black"), ("black", "white"), ("Red", "silver")]).unwrap();
        let t = r.compile();
        let mut domain: Vec<&str> = r.values().into_iter().collect();
        domain.sort_unstable();
        for a in &domain {
            for b in &domain {
                let (ia, ib) = (t.id(a).unwrap(), t.id(b).unwrap());
                assert_eq!(
                    t.prefers_ids(ia, ib),
                    r.prefers(a, b),
                    "table disagrees with prefRel on ({a}, {b})"
                );
            }
        }
        // Out-of-domain values have no id (map-backed prefers is false).
        assert_eq!(t.id("green"), None);
        // Normalization matches prefers' operand handling.
        assert_eq!(t.id(" RED "), t.id("red"));
    }

    #[test]
    fn values_listing() {
        let r = PrefRel::new([("red", "blue")]).unwrap();
        let v = r.values();
        assert!(v.contains("red") && v.contains("blue"));
        assert_eq!(v.len(), 2);
    }
}
