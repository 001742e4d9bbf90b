//! Execution context: the indexes every operator reads, plus run counters.
//!
//! A [`Database`] is one segment's indexes and its tombstones — facts
//! about its own documents only. It holds no scorer and no corpus-wide
//! statistic: those are summed over the segments when a query is compiled
//! and stay in the compiled [`crate::Matcher`], so a database is the same
//! object in every corpus generation that contains it.

use pimento_index::{
    Collection, DocId, InvertedIndex, PersistError, TagIndex, Tokenizer, TombstoneSet,
};
use std::sync::Arc;

/// The document store and the paper's two indexes over it (§6.4: "we
/// rely on inverted indices on keywords and on an index per distinct
/// tag"), always built and shared together.
#[derive(Debug)]
pub struct Indexes {
    /// The document store.
    pub coll: Collection,
    /// Positional keyword index.
    pub inverted: InvertedIndex,
    /// Per-tag element index.
    pub tags: TagIndex,
}

/// The indexed collection a plan executes against (paper §6.4: "we rely on
/// inverted indices on keywords and on an index per distinct tag").
///
/// The index structures sit behind an `Arc`, which makes
/// [`Database::with_tombstones`] — the one way a published database is
/// ever re-issued — a pointer copy.
/// `Deref` exposes the index fields, so operators keep reading `db.coll`,
/// `db.inverted` and `db.tags` directly.
#[derive(Debug, Clone)]
pub struct Database {
    indexes: Arc<Indexes>,
    /// Deleted local doc ids, when any (see [`Database::is_deleted`]).
    tombstones: Option<Arc<TombstoneSet>>,
}

impl std::ops::Deref for Database {
    type Target = Indexes;

    fn deref(&self) -> &Indexes {
        &self.indexes
    }
}

impl Database {
    /// Index `coll` with the given tokenizer.
    pub fn index(coll: Collection, tokenizer: Tokenizer) -> Self {
        let inverted = InvertedIndex::build(&coll, tokenizer);
        let tags = TagIndex::build(&coll);
        Self::from_parts(coll, inverted, tags)
    }

    /// Index with the plain (non-stemming) tokenizer.
    pub fn index_plain(coll: Collection) -> Self {
        Self::index(coll, Tokenizer::plain())
    }

    /// Validate and decode one v4 columnar file (DESIGN.md §13): the
    /// indexes come out of the file instead of being rebuilt from the
    /// documents, and equal the ones [`Database::index`] builds.
    pub fn open(data: &[u8]) -> Result<Self, PersistError> {
        let o = pimento_index::open_index(data)?;
        Ok(Self::from_parts(o.collection, o.inverted, o.tags))
    }

    fn from_parts(coll: Collection, inverted: InvertedIndex, tags: TagIndex) -> Self {
        Database {
            indexes: Arc::new(Indexes {
                coll,
                inverted,
                tags,
            }),
            tombstones: None,
        }
    }

    /// The same indexes under a different tombstone set.
    pub fn with_tombstones(&self, tombstones: Option<Arc<TombstoneSet>>) -> Database {
        Database {
            indexes: Arc::clone(&self.indexes),
            tombstones,
        }
    }

    /// The tombstone set, when any document is deleted.
    pub fn tombstones(&self) -> Option<&Arc<TombstoneSet>> {
        self.tombstones.as_ref()
    }

    /// Is `doc` (a local doc id) tombstoned? Deleted documents are
    /// filtered out of the candidate scan at the base of every plan —
    /// before any pruning, so removing them only relaxes top-k bounds.
    pub fn is_deleted(&self, doc: DocId) -> bool {
        self.tombstones.as_ref().is_some_and(|t| t.contains(doc))
    }

    /// Number of deleted (tombstoned) documents.
    pub fn deleted_count(&self) -> u32 {
        self.tombstones
            .as_ref()
            .map(|t| t.deleted_count())
            .unwrap_or(0)
    }

    /// Documents that are present and not tombstoned.
    pub fn live_docs(&self) -> usize {
        self.coll.len() - self.deleted_count() as usize
    }
}

/// Counters accumulated during one plan execution — the observable the
/// performance experiments (§7.2) reason about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Answers produced by the bottom query-evaluation operator.
    pub base_answers: u64,
    /// Answers discarded by `topkPrune` operators.
    pub pruned: u64,
    /// Answers cut by bulk pruning (sorted-input early exit).
    pub bulk_pruned: u64,
    /// Keyword containment probes performed.
    pub ft_probes: u64,
    /// `≺_V` comparator invocations.
    pub vor_comparisons: u64,
    /// Answers emitted by the plan root.
    pub emitted: u64,
}

impl ExecStats {
    /// Fold another stats block into this one.
    pub fn absorb(&mut self, other: &ExecStats) {
        self.base_answers += other.base_answers;
        self.pruned += other.pruned;
        self.bulk_pruned += other.bulk_pruned;
        self.ft_probes += other.ft_probes;
        self.vor_comparisons += other.vor_comparisons;
        self.emitted += other.emitted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_indexing() {
        let mut coll = Collection::new();
        coll.add_xml("<car><color>red</color></car>").unwrap();
        let db = Database::index_plain(coll);
        assert_eq!(db.inverted.num_docs(), 1);
        let car = db.coll.tag("car").unwrap();
        assert_eq!(db.tags.count(car), 1);
    }

    #[test]
    fn stats_absorb() {
        let mut a = ExecStats {
            pruned: 3,
            ..Default::default()
        };
        let b = ExecStats {
            pruned: 4,
            emitted: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.pruned, 7);
        assert_eq!(a.emitted, 2);
    }
}
