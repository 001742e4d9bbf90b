//! Relevance scoring for keyword predicates.
//!
//! Every `ftcontains` predicate (and every keyword-based ordering rule)
//! contributes a score in **[0, 1]**. Normalizing per-predicate keeps the
//! paper's score bounds *exact*: `query_scorebound` / `kor_scorebound` are
//! simply the number of predicates (times their weights) remaining in the
//! plan suffix, which is what makes the `topkPrune` conditions safe (§6.3).

use crate::inverted::InvertedIndex;
use crate::phrase::count_in_element;
use crate::tags::ElemEntry;
use std::collections::HashMap;
use std::sync::Arc;

/// Scores keyword predicates against elements.
///
/// In the monolithic case the scorer reads document frequencies straight
/// from the index it was built over. A doc-range segment of a sharded
/// engine instead carries the *corpus-wide* statistics (total document
/// count plus a summed per-token document-frequency table), so segment
/// scores are bit-identical to what the monolithic scan would compute —
/// `idf` inputs are exact integer sums over the partition.
#[derive(Debug, Clone)]
pub struct Scorer {
    /// Total number of documents, cached from the index (or, for a
    /// segment of a sharded engine, the corpus-wide total).
    num_docs: u32,
    /// `tf` saturation constant: score grows as `tf / (tf + k1)`.
    k1: f64,
    /// Corpus-wide per-token document frequencies; `None` means "read
    /// them from the index at hand" (the monolithic case).
    global_df: Option<Arc<HashMap<String, u32>>>,
}

impl Scorer {
    /// Default saturation constant; 1.0 gives 0.5 at a single occurrence.
    pub const DEFAULT_K1: f64 = 1.0;

    /// Build a scorer over `index`.
    pub fn new(index: &InvertedIndex) -> Self {
        Scorer {
            num_docs: index.num_docs().max(1),
            k1: Self::DEFAULT_K1,
            global_df: None,
        }
    }

    /// Build a scorer that scores against corpus-wide statistics instead
    /// of the local index: `num_docs` is the total document count across
    /// every segment and `df` maps each token to its summed document
    /// frequency. Used by doc-range segments so sharded scoring matches
    /// the monolithic scan bit for bit.
    pub fn with_corpus_stats(num_docs: u32, df: Arc<HashMap<String, u32>>) -> Self {
        Scorer {
            num_docs: num_docs.max(1),
            k1: Self::DEFAULT_K1,
            global_df: Some(df),
        }
    }

    /// Override the saturation constant (must be positive).
    pub fn with_k1(mut self, k1: f64) -> Self {
        assert!(k1 > 0.0, "saturation constant must be positive");
        self.k1 = k1;
        self
    }

    /// Normalized inverse document frequency in (0, 1].
    ///
    /// A phrase's rarity is the rarity of its rarest token. Unseen tokens
    /// get full weight (they are maximally selective).
    pub fn nidf(&self, index: &InvertedIndex, tokens: &[String]) -> f64 {
        let n = self.num_docs as f64;
        let max_idf = (1.0 + n).ln();
        let df = tokens
            .iter()
            .map(|t| self.doc_freq(index, t))
            .max()
            .unwrap_or(0) as f64;
        let idf = (1.0 + n / (df + 1.0)).ln();
        (idf / max_idf).clamp(0.0, 1.0)
    }

    /// Document frequency of one token: corpus-wide when the scorer
    /// carries global statistics, otherwise from the local index.
    fn doc_freq(&self, index: &InvertedIndex, token: &str) -> u32 {
        match &self.global_df {
            Some(df) => df.get(token).copied().unwrap_or(0),
            None => index.doc_freq(token),
        }
    }

    /// Saturating term-frequency component in [0, 1).
    pub fn tf_component(&self, tf: u32) -> f64 {
        let tf = tf as f64;
        tf / (tf + self.k1)
    }

    /// Score `ftcontains(elem, tokens)`: 0.0 when absent, otherwise
    /// `tf/(tf+k1) * nidf` — always within [0, 1).
    pub fn ft_score(&self, index: &InvertedIndex, elem: &ElemEntry, tokens: &[String]) -> f64 {
        let tf = count_in_element(index, elem, tokens);
        if tf == 0 {
            return 0.0;
        }
        self.tf_component(tf) * self.nidf(index, tokens)
    }

    /// The exact maximum any single predicate can contribute.
    pub const MAX_PREDICATE_SCORE: f64 = 1.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Collection;
    use crate::tags::TagIndex;
    use crate::tokenize::Tokenizer;

    fn setup(xmls: &[&str]) -> (Collection, InvertedIndex, TagIndex, Scorer) {
        let mut c = Collection::new();
        for x in xmls {
            c.add_xml(x).unwrap();
        }
        let inv = InvertedIndex::build(&c, Tokenizer::plain());
        let tags = TagIndex::build(&c);
        let s = Scorer::new(&inv);
        (c, inv, tags, s)
    }

    #[test]
    fn absent_phrase_scores_zero() {
        let (c, inv, tags, s) = setup(&["<a>hello world</a>"]);
        let a = c.tag("a").unwrap();
        assert_eq!(
            s.ft_score(&inv, &tags.elements(a)[0], &inv.analyze("absent")),
            0.0
        );
    }

    #[test]
    fn score_increases_with_tf_but_saturates_below_one() {
        let (c, inv, tags, s) = setup(&["<a><b>red</b><c>red red red red</c></a>"]);
        let b = c.tag("b").unwrap();
        let cc = c.tag("c").unwrap();
        let kw = inv.analyze("red");
        let s_b = s.ft_score(&inv, &tags.elements(b)[0], &kw);
        let s_c = s.ft_score(&inv, &tags.elements(cc)[0], &kw);
        assert!(s_b > 0.0);
        assert!(s_c > s_b);
        assert!(s_c < Scorer::MAX_PREDICATE_SCORE);
    }

    #[test]
    fn rarer_terms_score_higher() {
        let (c, inv, tags, s) = setup(&[
            "<a>common rare</a>",
            "<a>common</a>",
            "<a>common</a>",
            "<a>common</a>",
        ]);
        let a = c.tag("a").unwrap();
        let first = &tags.elements(a)[0];
        let rare = s.ft_score(&inv, first, &inv.analyze("rare"));
        let common = s.ft_score(&inv, first, &inv.analyze("common"));
        assert!(rare > common, "rare={rare} common={common}");
    }

    #[test]
    fn nidf_within_unit_interval() {
        let (_, inv, _, s) = setup(&["<a>x y z</a>", "<a>x</a>"]);
        for kw in ["x", "y", "never-seen"] {
            let v = s.nidf(&inv, &inv.analyze(kw));
            assert!((0.0..=1.0).contains(&v), "{kw}: {v}");
        }
    }

    #[test]
    fn k1_controls_saturation() {
        let (c, inv, tags, _) = setup(&["<a>red red</a>"]);
        let a = c.tag("a").unwrap();
        let e = &tags.elements(a)[0];
        let kw = inv.analyze("red");
        let fast = Scorer::new(&inv).with_k1(0.1).ft_score(&inv, e, &kw);
        let slow = Scorer::new(&inv).with_k1(10.0).ft_score(&inv, e, &kw);
        assert!(fast > slow);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k1_rejected() {
        let (_, inv, _, _) = setup(&["<a>x</a>"]);
        let _ = Scorer::new(&inv).with_k1(0.0);
    }

    /// A corpus-stats scorer fed the index's own totals must reproduce the
    /// local scorer bit for bit — the sharded-engine identity in miniature.
    #[test]
    fn corpus_stats_scorer_matches_local() {
        let (_, inv, _, local) = setup(&["<a>x y</a>", "<a>x</a>", "<a>z z</a>"]);
        let df: HashMap<String, u32> = inv.token_doc_freqs().into_iter().collect();
        let global = Scorer::with_corpus_stats(inv.num_docs(), Arc::new(df));
        for kw in ["x", "y", "z", "never-seen"] {
            let tokens = inv.analyze(kw);
            assert_eq!(
                local.nidf(&inv, &tokens).to_bits(),
                global.nidf(&inv, &tokens).to_bits(),
                "{kw}"
            );
        }
    }
}
