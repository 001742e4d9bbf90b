//! Positional inverted index over a [`Collection`].
//!
//! For every token we store `(doc, global token position, region label of
//! the containing text node)`. Global positions run across the whole
//! document, so phrase matching is "consecutive positions"; region labels
//! make `ftcontains(e, kw)` a range check against `e`'s `(start, end)`
//! region, one [`crate::seek::seek`] into the posting list. This mirrors the paper's reliance on "inverted
//! indices on keywords" (§6.4).
//!
//! An index is produced exactly once — [`InvertedIndex::build`] scans a
//! collection, [`crate::columnar::open_index`] decodes the `inv` section
//! of a `PIMCOL4` snapshot into the same maps — and never mutated
//! afterwards: a corpus grows by adding segments, not by appending here.

use crate::store::{Collection, DocId};
use crate::tokenize::Tokenizer;
use pimento_xml::{NodeId, NodeKind};
use std::collections::HashMap;

/// One occurrence of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document the occurrence is in.
    pub doc: DocId,
    /// Global token position within the document (0-based, document order).
    pub pos: u32,
    /// Region label (`start == end`) of the containing text node; an element
    /// `e` contains the occurrence iff `e.start < label && label < e.end`.
    pub label: u32,
    /// The text node the occurrence came from.
    pub text_node: NodeId,
}

/// Everything the index knows about one token.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct TokenEntry {
    /// Number of documents containing the token.
    pub(crate) doc_freq: u32,
    /// Occurrences sorted by (doc, pos).
    pub(crate) postings: Vec<Posting>,
}

/// Inverted index; build with [`InvertedIndex::build`] or decode from a
/// columnar snapshot.
#[derive(Debug, PartialEq, Eq)]
pub struct InvertedIndex {
    pub(crate) tokenizer: Tokenizer,
    pub(crate) tokens: HashMap<String, TokenEntry>,
    /// Per-document token count.
    pub(crate) doc_tokens: Vec<u32>,
}

impl InvertedIndex {
    /// Index every text node of every document in `coll`.
    pub fn build(coll: &Collection, tokenizer: Tokenizer) -> Self {
        let mut index = InvertedIndex {
            tokenizer,
            tokens: HashMap::new(),
            doc_tokens: Vec::with_capacity(coll.len()),
        };
        // Documents arrive in id order and tokens in document order, which
        // keeps every posting list `(doc, pos)`-sorted.
        for (doc_id, doc) in coll.iter() {
            let mut pos = 0u32;
            for node_id in doc.node_ids() {
                let node = doc.node(node_id);
                let NodeKind::Text(t) = &node.kind else {
                    continue;
                };
                for token in tokenizer.tokenize(t) {
                    let entry = index.tokens.entry(token).or_default();
                    if entry.postings.last().is_none_or(|p| p.doc != doc_id) {
                        entry.doc_freq += 1;
                    }
                    entry.postings.push(Posting {
                        doc: doc_id,
                        pos,
                        label: node.start,
                        text_node: node_id,
                    });
                    pos += 1;
                }
            }
            index.doc_tokens.push(pos);
        }
        index
    }

    /// The tokenizer this index was built with (queries must use the same).
    pub fn tokenizer(&self) -> Tokenizer {
        self.tokenizer
    }

    /// All postings of `token` (already normalized), sorted by (doc, pos).
    pub fn postings(&self, token: &str) -> &[Posting] {
        self.tokens
            .get(token)
            .map(|e| e.postings.as_slice())
            .unwrap_or(&[])
    }

    /// Number of documents containing `token`.
    pub fn doc_freq(&self, token: &str) -> u32 {
        self.tokens.get(token).map(|e| e.doc_freq).unwrap_or(0)
    }

    /// Number of documents indexed.
    pub fn num_docs(&self) -> u32 {
        self.doc_tokens.len() as u32
    }

    /// Token count of a document (0 for an id outside the index).
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_tokens.get(doc.0 as usize).copied().unwrap_or(0)
    }

    /// Number of distinct tokens in the index.
    pub fn vocabulary_size(&self) -> usize {
        self.tokens.len()
    }

    /// Normalize a raw query keyword/phrase into index tokens.
    pub fn analyze(&self, phrase: &str) -> Vec<String> {
        self.tokenizer.tokenize(phrase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(xmls: &[&str]) -> (Collection, InvertedIndex) {
        let mut c = Collection::new();
        for x in xmls {
            c.add_xml(x).unwrap();
        }
        let idx = InvertedIndex::build(&c, Tokenizer::plain());
        (c, idx)
    }

    #[test]
    fn postings_positions_are_global_per_document() {
        let (_, idx) = index(&["<a><b>good condition</b><c>good car</c></a>"]);
        let good = idx.postings("good");
        assert_eq!(good.len(), 2);
        assert_eq!(good[0].pos, 0);
        assert_eq!(good[1].pos, 2);
        assert_eq!(idx.postings("condition")[0].pos, 1);
    }

    #[test]
    fn labels_track_text_nodes() {
        let (c, idx) = index(&["<a><b>alpha</b><c>alpha</c></a>"]);
        let doc = c.doc(DocId(0));
        let b = doc.node(doc.root()).children[0];
        let alpha = idx.postings("alpha");
        // first occurrence's label falls inside b's region
        let nb = doc.node(b);
        assert!(nb.start < alpha[0].label && alpha[0].label < nb.end);
        assert!(!(nb.start < alpha[1].label && alpha[1].label < nb.end));
    }

    #[test]
    fn postings_and_doc_freq_span_documents() {
        let (_, idx) = index(&["<a>x y</a>", "<a>y z</a>"]);
        let docs = |t: &str| idx.postings(t).iter().map(|p| p.doc.0).collect::<Vec<_>>();
        assert_eq!(docs("y"), [0, 1]);
        assert_eq!(docs("x"), [0]);
        assert_eq!(idx.doc_freq("y"), 2);
        assert_eq!(idx.doc_freq("x"), 1);
        assert_eq!(idx.doc_freq("missing"), 0);
    }

    #[test]
    fn doc_lengths() {
        let (_, idx) = index(&["<a>one two three</a>", "<a>four</a>"]);
        assert_eq!(idx.doc_len(DocId(0)), 3);
        assert_eq!(idx.doc_len(DocId(1)), 1);
        assert_eq!(idx.num_docs(), 2);
    }

    #[test]
    fn empty_collection() {
        let c = Collection::new();
        let idx = InvertedIndex::build(&c, Tokenizer::plain());
        assert_eq!(idx.num_docs(), 0);
        assert!(idx.postings("anything").is_empty());
    }

    #[test]
    fn stemming_index_merges_forms() {
        let mut c = Collection::new();
        c.add_xml("<a>selling cars</a>").unwrap();
        let idx = InvertedIndex::build(&c, Tokenizer::stemming());
        assert_eq!(idx.postings("car").len(), 1);
        assert_eq!(idx.analyze("Cars"), ["car"]);
    }
}
