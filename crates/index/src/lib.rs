//! # pimento-index
//!
//! Indexing substrate for the PIMENTO reproduction: the paper's query
//! evaluation "relies on inverted indices on keywords and on an index per
//! distinct tag" (§6.4). This crate provides exactly those two indexes,
//! plus the scoring model and the typed field access that ordering rules
//! need:
//!
//! * [`store::Collection`] — documents sharing a symbol table,
//! * [`inverted::InvertedIndex`] — positional keyword index whose postings
//!   carry region labels, so `ftcontains` is a range check,
//! * [`tags::TagIndex`] — per-tag element lists sorted by `(doc, start)`,
//!   the candidate lists of the indexed nested-loop scan,
//! * [`seek`] — the one search over those sorted lists, a galloping
//!   `partition_point` from a caller-held position,
//! * [`phrase`] — phrase adjacency + containment,
//! * [`score`] — per-predicate scores normalized to [0, 1] so top-k
//!   pruning bounds are exact,
//! * [`fields`] — `x.attr` resolution for value-based ordering rules.
//!
//! ```
//! use pimento_index::{score, Collection, InvertedIndex, TagIndex, Tokenizer, ft_contains};
//!
//! let mut coll = Collection::new();
//! coll.add_xml("<car><description>good condition</description></car>").unwrap();
//! let inv = InvertedIndex::build(&coll, Tokenizer::plain());
//! let tags = TagIndex::build(&coll);
//! let car = coll.tag("car").unwrap();
//! let elem = tags.elements(car)[0];
//! assert!(ft_contains(&inv, &elem, &inv.analyze("good condition")));
//! // One index is the whole corpus here, so it is also the statistics source.
//! let s = score::ft_score(&[&inv], &inv, &elem, &inv.analyze("good condition"));
//! assert!(s > 0.0 && s < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod fields;
pub mod inverted;
pub mod parallel;
pub mod persist;
pub mod phrase;
pub mod score;
pub mod seek;
pub mod segment;
pub mod stats;
pub mod store;
pub mod tags;
pub mod tokenize;
pub mod tombstone;
pub mod varint;

pub use columnar::{
    inspect, open_index, save_index, OpenedIndex, SectionReport, SnapshotReport,
    COLUMNAR_VERSION,
};
pub use fields::{
    content_value, field_value, field_value_indexed, field_value_sym, numeric_field, FieldValue,
};
pub use inverted::{InvertedIndex, Posting};
pub use parallel::{build_collection_parallel, effective_workers, resolve_threads};
pub use persist::{crc32, PersistError};
pub use phrase::{
    contains_at, count_at, count_in_element, ft_all, ft_all_at, ft_contains,
    occurrences_in_element, postings_in_element, postings_within,
};
pub use segment::{
    split_ranges, ManifestEntry, ShardManifest, MANIFEST_FILE, MANIFEST_HEADER_V2,
};
pub use stats::CorpusStats;
pub use store::{Collection, DocId, ElemRef};
pub use tags::{ElemEntry, TagIndex};
pub use tokenize::{stem, Tokenizer};
pub use tombstone::{TombstoneSet, TOMBSTONE_HEADER};
