//! Relevance scoring for keyword predicates.
//!
//! Every `ftcontains` predicate (and every keyword-based ordering rule)
//! contributes a score in **[0, 1]**. Normalizing per-predicate keeps the
//! paper's score bounds *exact*: `query_scorebound` / `kor_scorebound` are
//! simply the number of predicates (times their weights) remaining in the
//! plan suffix, which is what makes the `topkPrune` conditions safe (§6.3).
//!
//! The score is `tf/(tf + K1) · nidf`. The `tf` half reads one segment's
//! postings; the `nidf` half needs corpus-wide statistics, and those are
//! *summed when a query is prepared*, never stored: [`nidf`] takes the
//! inverted index of every segment of the corpus and adds up document
//! counts and per-token document frequencies ([`doc_freq`]). Segments
//! partition the documents, so the sums are the integers one index over
//! the whole corpus would hold and the score is bit-identical however the
//! corpus is cut (DESIGN.md §8, "Segments").

use crate::inverted::InvertedIndex;
use crate::phrase::count_in_element;
use crate::tags::ElemEntry;

/// `tf` saturation constant: a score grows as `tf / (tf + K1)`, so one
/// occurrence scores half of `nidf`.
const K1: f64 = 1.0;

/// The exact maximum any single predicate can contribute.
pub const MAX_PREDICATE_SCORE: f64 = 1.0;

/// Number of documents containing `token`, summed over the segment
/// indexes of one corpus — the only place document frequencies are added
/// across segments.
pub fn doc_freq(corpus: &[&InvertedIndex], token: &str) -> u32 {
    corpus.iter().map(|index| index.doc_freq(token)).sum()
}

/// Normalized inverse document frequency in (0, 1] over the corpus whose
/// segment indexes are `corpus`.
///
/// A phrase's rarity is the rarity of its rarest token. Unseen tokens
/// get full weight (they are maximally selective).
pub fn nidf(corpus: &[&InvertedIndex], tokens: &[String]) -> f64 {
    let n = corpus
        .iter()
        .map(|index| index.num_docs())
        .sum::<u32>()
        .max(1) as f64;
    let max_idf = (1.0 + n).ln();
    let df = tokens
        .iter()
        .map(|t| doc_freq(corpus, t))
        .max()
        .unwrap_or(0) as f64;
    let idf = (1.0 + n / (df + 1.0)).ln();
    (idf / max_idf).clamp(0.0, 1.0)
}

/// Saturating term-frequency component in [0, 1).
pub fn tf_component(tf: u32) -> f64 {
    let tf = tf as f64;
    tf / (tf + K1)
}

/// Score `ftcontains(elem, tokens)` for an element of segment `index` in
/// the corpus `corpus`: 0.0 when absent, otherwise `tf/(tf+K1) * nidf` —
/// always within [0, 1).
pub fn ft_score(
    corpus: &[&InvertedIndex],
    index: &InvertedIndex,
    elem: &ElemEntry,
    tokens: &[String],
) -> f64 {
    let tf = count_in_element(index, elem, tokens);
    if tf == 0 {
        return 0.0;
    }
    tf_component(tf) * nidf(corpus, tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Collection;
    use crate::tags::TagIndex;
    use crate::tokenize::Tokenizer;

    fn setup(xmls: &[&str]) -> (Collection, InvertedIndex, TagIndex) {
        let mut c = Collection::new();
        for x in xmls {
            c.add_xml(x).unwrap();
        }
        let inv = InvertedIndex::build(&c, Tokenizer::plain());
        let tags = TagIndex::build(&c);
        (c, inv, tags)
    }

    #[test]
    fn absent_phrase_scores_zero() {
        let (c, inv, tags) = setup(&["<a>hello world</a>"]);
        let a = c.tag("a").unwrap();
        assert_eq!(
            ft_score(&[&inv], &inv, &tags.elements(a)[0], &inv.analyze("absent")),
            0.0
        );
    }

    #[test]
    fn score_increases_with_tf_but_saturates_below_one() {
        let (c, inv, tags) = setup(&["<a><b>red</b><c>red red red red</c></a>"]);
        let b = c.tag("b").unwrap();
        let cc = c.tag("c").unwrap();
        let kw = inv.analyze("red");
        let s_b = ft_score(&[&inv], &inv, &tags.elements(b)[0], &kw);
        let s_c = ft_score(&[&inv], &inv, &tags.elements(cc)[0], &kw);
        assert!(s_b > 0.0);
        assert!(s_c > s_b);
        assert!(s_c < MAX_PREDICATE_SCORE);
    }

    #[test]
    fn rarer_terms_score_higher() {
        let (c, inv, tags) = setup(&[
            "<a>common rare</a>",
            "<a>common</a>",
            "<a>common</a>",
            "<a>common</a>",
        ]);
        let a = c.tag("a").unwrap();
        let first = &tags.elements(a)[0];
        let rare = ft_score(&[&inv], &inv, first, &inv.analyze("rare"));
        let common = ft_score(&[&inv], &inv, first, &inv.analyze("common"));
        assert!(rare > common, "rare={rare} common={common}");
    }

    #[test]
    fn nidf_within_unit_interval() {
        let (_, inv, _) = setup(&["<a>x y z</a>", "<a>x</a>"]);
        for kw in ["x", "y", "never-seen"] {
            let v = nidf(&[&inv], &inv.analyze(kw));
            assert!((0.0..=1.0).contains(&v), "{kw}: {v}");
        }
    }
}
