//! Phrase matching: finding occurrences of multi-token phrases and testing
//! `ftcontains(element, "phrase")` against region labels.
//!
//! Every probe here [`seek`]s through the token's whole posting list by
//! `(doc, label)` or `(doc, pos)`. The `*_at` forms take one seek position
//! per token from the caller, who keeps them between probes: an operator
//! probing its answers in document order then moves each position a few
//! entries forward per answer. The plain forms start every token from
//! position 0.

use crate::inverted::{InvertedIndex, Posting};
use crate::seek::seek;
use crate::tags::ElemEntry;

/// One occurrence of a phrase: the posting of its first token.
pub type PhraseHit = Posting;

/// Postings of `token` whose occurrence lies strictly inside `elem`'s
/// region.
pub fn postings_in_element<'a>(
    index: &'a InvertedIndex,
    elem: &ElemEntry,
    token: &str,
) -> &'a [Posting] {
    postings_within(index.postings(token), &mut 0, elem)
}

/// The postings of the `(doc, pos)`-sorted `list` that lie strictly inside
/// `elem`'s region, found by seeking from `*at`, which is left on the
/// first of them. Labels are monotone in token position within a document
/// (both follow document order), so the list is `(doc, label)`-sorted too
/// and the region is one contiguous slice of it.
pub fn postings_within<'a>(list: &'a [Posting], at: &mut usize, elem: &ElemEntry) -> &'a [Posting] {
    let lo = seek(list, *at, |p| (p.doc, p.label) <= (elem.doc, elem.start));
    let hi = seek(list, lo, |p| (p.doc, p.label) < (elem.doc, elem.end));
    *at = lo;
    list.get(lo..hi).unwrap_or(&[])
}

/// Visit the occurrences of `tokens` strictly inside `elem` in document
/// order — the first token in `elem`'s region, the rest at the following
/// positions and also inside it (a phrase straddling the element boundary
/// is not contained) — until `hit` returns `false`. `at` holds one seek
/// position per token.
fn scan_occurrences(
    index: &InvertedIndex,
    elem: &ElemEntry,
    tokens: &[String],
    at: &mut [usize],
    mut hit: impl FnMut(&Posting) -> bool,
) {
    if at.len() < tokens.len() {
        return scan_occurrences(index, elem, tokens, &mut vec![0; tokens.len()], hit);
    }
    let (Some((first, rest)), Some((at_first, at_rest))) =
        (tokens.split_first(), at.split_first_mut())
    else {
        return;
    };
    let firsts = postings_within(index.postings(first), at_first, elem);
    if firsts.is_empty() {
        return;
    }
    let rest_lists: Vec<&[Posting]> = rest.iter().map(|tok| index.postings(tok)).collect();
    'outer: for p in firsts {
        for ((list, pos), want) in rest_lists.iter().zip(at_rest.iter_mut()).zip(p.pos + 1..) {
            *pos = seek(list, *pos, |q| (q.doc, q.pos) < (elem.doc, want));
            let found = list
                .get(*pos)
                .is_some_and(|q| q.doc == elem.doc && q.pos == want && q.label < elem.end);
            if !found {
                continue 'outer;
            }
        }
        if !hit(p) {
            return;
        }
    }
}

/// Count occurrences of `tokens` strictly inside element `elem`
/// (the `tf` used by scoring).
pub fn count_in_element(index: &InvertedIndex, elem: &ElemEntry, tokens: &[String]) -> u32 {
    count_at(index, elem, tokens, &mut vec![0; tokens.len()])
}

/// [`count_in_element`], seeking each token's list from its position in
/// `at` (one per token).
pub fn count_at(
    index: &InvertedIndex,
    elem: &ElemEntry,
    tokens: &[String],
    at: &mut [usize],
) -> u32 {
    if let ([single], [pos, ..]) = (tokens, &mut *at) {
        return postings_within(index.postings(single), pos, elem).len() as u32;
    }
    let mut n = 0u32;
    scan_occurrences(index, elem, tokens, at, |_| {
        n += 1;
        true
    });
    n
}

/// Occurrences of `tokens` strictly inside element `elem`: the first token
/// must fall in `elem`'s region and the rest at the following positions.
pub fn occurrences_in_element(
    index: &InvertedIndex,
    elem: &ElemEntry,
    tokens: &[String],
) -> Vec<PhraseHit> {
    occurrences_at(index, elem, tokens, &mut vec![0; tokens.len()])
}

/// [`occurrences_in_element`], seeking each token's list from its position
/// in `at` (one per token).
fn occurrences_at(
    index: &InvertedIndex,
    elem: &ElemEntry,
    tokens: &[String],
    at: &mut [usize],
) -> Vec<PhraseHit> {
    let mut hits = Vec::new();
    scan_occurrences(index, elem, tokens, at, |p| {
        hits.push(*p);
        true
    });
    hits
}

/// `ftcontains(elem, phrase)`: does the phrase occur anywhere in `elem`'s
/// subtree (paper §3: "contains an occurrence of the keyword at any
/// document depth")?
pub fn ft_contains(index: &InvertedIndex, elem: &ElemEntry, tokens: &[String]) -> bool {
    contains_at(index, elem, tokens, &mut vec![0; tokens.len()])
}

/// [`ft_contains`], seeking each token's list from its position in `at`
/// (one per token).
pub fn contains_at(
    index: &InvertedIndex,
    elem: &ElemEntry,
    tokens: &[String],
    at: &mut [usize],
) -> bool {
    let mut found = false;
    scan_occurrences(index, elem, tokens, at, |_| {
        found = true;
        false
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Collection;
    use crate::tags::TagIndex;
    use crate::tokenize::Tokenizer;

    fn setup(xml: &str) -> (Collection, InvertedIndex, TagIndex) {
        let mut c = Collection::new();
        c.add_xml(xml).unwrap();
        let inv = InvertedIndex::build(&c, Tokenizer::plain());
        let tags = TagIndex::build(&c);
        (c, inv, tags)
    }

    fn toks(index: &InvertedIndex, s: &str) -> Vec<String> {
        index.analyze(s)
    }

    /// Occurrences of `phrase` anywhere in the document rooted at `<a>`.
    fn in_root(xml: &str, phrase: &str) -> Vec<PhraseHit> {
        let (c, inv, tags) = setup(xml);
        let root = tags.elements(c.tag("a").unwrap())[0];
        occurrences_in_element(&inv, &root, &toks(&inv, phrase))
    }

    #[test]
    fn single_token_occurrences() {
        assert_eq!(in_root("<a>good car good</a>", "good").len(), 2);
    }

    #[test]
    fn phrase_requires_adjacency() {
        let xml = "<a>good condition and good old condition</a>";
        assert_eq!(in_root(xml, "good condition").len(), 1);
        assert!(in_root(xml, "condition good").is_empty());
    }

    #[test]
    fn three_token_phrase() {
        let xml = "<a>it is in good condition as always</a>";
        assert_eq!(in_root(xml, "in good condition").len(), 1);
    }

    #[test]
    fn held_positions_give_the_cold_answers_in_any_order() {
        let (c, inv, tags) = setup(
            "<d><a>good condition <a>good condition good</a></a><a>good</a><a>condition good condition</a></d>",
        );
        let elems = tags.elements(c.tag("a").unwrap());
        let phrase = toks(&inv, "good condition");
        let mut at = [0, 0];
        // Forward through the elements, then back, then forward again.
        let order: Vec<usize> = (0..elems.len())
            .chain((0..elems.len()).rev())
            .chain(0..elems.len())
            .collect();
        for i in order {
            let e = &elems[i];
            assert_eq!(
                count_at(&inv, e, &phrase, &mut at),
                count_in_element(&inv, e, &phrase)
            );
            assert_eq!(
                contains_at(&inv, e, &phrase, &mut at),
                ft_contains(&inv, e, &phrase)
            );
        }
        assert_eq!(
            elems
                .iter()
                .map(|e| count_in_element(&inv, e, &phrase))
                .collect::<Vec<_>>(),
            [2, 1, 0, 1]
        );
    }

    #[test]
    fn ft_contains_respects_element_boundaries() {
        let (c, inv, tags) = setup(
            "<dealer><car><description>good condition</description></car><car><description>low mileage</description></car></dealer>",
        );
        let car = c.tag("car").unwrap();
        let cars = tags.elements(car);
        let good = toks(&inv, "good condition");
        assert!(ft_contains(&inv, &cars[0], &good));
        assert!(!ft_contains(&inv, &cars[1], &good));
        let low = toks(&inv, "low mileage");
        assert!(!ft_contains(&inv, &cars[0], &low));
        assert!(ft_contains(&inv, &cars[1], &low));
    }

    #[test]
    fn count_in_element_counts_tf() {
        let (c, inv, tags) = setup("<a><b>red red red</b><c>red</c></a>");
        let b = c.tag("b").unwrap();
        let elem = tags.elements(b)[0];
        assert_eq!(count_in_element(&inv, &elem, &toks(&inv, "red")), 3);
        let a = c.tag("a").unwrap();
        assert_eq!(
            count_in_element(&inv, &tags.elements(a)[0], &toks(&inv, "red")),
            4
        );
    }

    #[test]
    fn phrase_does_not_cross_text_node_boundary_with_markup() {
        let (c, inv, tags) = setup("<a><b>good</b><b>condition</b></a>");
        let a = c.tag("a").unwrap();
        let elem = tags.elements(a)[0];
        // positions are adjacent globally (0,1) so this matches: markup
        // between text runs does not break adjacency in our encoding.
        assert!(ft_contains(&inv, &elem, &toks(&inv, "good condition")));
    }

    #[test]
    fn empty_phrase_never_matches() {
        let (c, inv, tags) = setup("<a>x</a>");
        let a = c.tag("a").unwrap();
        assert!(!ft_contains(&inv, &tags.elements(a)[0], &[]));
    }

    #[test]
    fn case_insensitive_matching() {
        let (c, inv, tags) = setup("<a>United States</a>");
        let a = c.tag("a").unwrap();
        assert!(ft_contains(
            &inv,
            &tags.elements(a)[0],
            &toks(&inv, "united states")
        ));
        assert!(ft_contains(
            &inv,
            &tags.elements(a)[0],
            &toks(&inv, "UNITED STATES")
        ));
    }
}

/// `ftall(elem, terms [window w] [ordered])`: one occurrence of **every**
/// term inside `elem`, optionally all within a token window, optionally in
/// the listed order — the proximity/order full-text predicates of XQuery
/// Full-Text (each `terms[i]` is an analyzed token sequence; multi-token
/// terms are matched as phrases).
pub fn ft_all(
    index: &InvertedIndex,
    elem: &ElemEntry,
    terms: &[Vec<String>],
    window: Option<u32>,
    ordered: bool,
) -> bool {
    let width = terms.iter().map(Vec::len).sum();
    ft_all_at(index, elem, terms, window, ordered, &mut vec![0; width])
}

/// [`ft_all`], seeking each token's list from its position in `at`: one
/// per token of every term, the terms' tokens back to back.
pub fn ft_all_at(
    index: &InvertedIndex,
    elem: &ElemEntry,
    terms: &[Vec<String>],
    window: Option<u32>,
    ordered: bool,
    at: &mut [usize],
) -> bool {
    if terms.is_empty() {
        return false;
    }
    // Occurrences per term: (start position, end position) pairs.
    let mut occs: Vec<Vec<(u32, u32)>> = Vec::with_capacity(terms.len());
    let mut rest = at;
    for t in terms {
        if t.is_empty() {
            return false;
        }
        let n = t.len().min(rest.len());
        let (mine, others) = std::mem::take(&mut rest).split_at_mut(n);
        rest = others;
        let hits = occurrences_at(index, elem, t, mine);
        if hits.is_empty() {
            return false;
        }
        occs.push(
            hits.iter()
                .map(|p| (p.pos, p.pos + t.len() as u32 - 1))
                .collect(),
        );
    }
    match (window, ordered) {
        (None, false) => true,
        (w, true) => ordered_chain_within(&occs, w),
        (Some(w), false) => unordered_cover_within(&occs, w),
    }
}

/// Is there an in-order chain (term i+1 starts after term i ends) whose
/// total span fits the window (if any)?
fn ordered_chain_within(occs: &[Vec<(u32, u32)>], window: Option<u32>) -> bool {
    // Greedy from each start of the first term: taking the earliest valid
    // continuation minimizes the chain end, so greedy is optimal per start.
    // (`ft_all` never passes an empty term list.)
    let Some((first, rest)) = occs.split_first() else {
        return false;
    };
    'starts: for &(start, mut prev_end) in first {
        for term in rest {
            match term.iter().find(|&&(s, _)| s > prev_end) {
                Some(&(_, e)) => prev_end = e,
                None => continue 'starts,
            }
        }
        let span = prev_end - start + 1;
        if window.is_none_or(|w| span <= w) {
            return true;
        }
    }
    false
}

/// Is there a token window of size `w` containing one occurrence of every
/// term (any order)?
fn unordered_cover_within(occs: &[Vec<(u32, u32)>], w: u32) -> bool {
    // Occurrence counts inside one element are small: try every choice of
    // "leftmost" occurrence and greedily check the others fit the window.
    let starts: Vec<(u32, u32)> = occs.iter().flatten().copied().collect();
    for &(left, _) in &starts {
        let fits = occs
            .iter()
            .all(|term| term.iter().any(|&(s, e)| s >= left && e < left + w));
        if fits {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod ft_all_tests {
    use super::*;
    use crate::store::Collection;
    use crate::tags::TagIndex;
    use crate::tokenize::Tokenizer;

    fn setup(xml: &str) -> (Collection, InvertedIndex, TagIndex) {
        let mut c = Collection::new();
        c.add_xml(xml).unwrap();
        let inv = InvertedIndex::build(&c, Tokenizer::plain());
        let tags = TagIndex::build(&c);
        (c, inv, tags)
    }

    fn terms(inv: &InvertedIndex, ts: &[&str]) -> Vec<Vec<String>> {
        ts.iter().map(|t| inv.analyze(t)).collect()
    }

    fn elem(c: &Collection, tags: &TagIndex, tag: &str) -> ElemEntry {
        tags.elements(c.tag(tag).unwrap())[0]
    }

    #[test]
    fn all_terms_must_occur() {
        let (c, inv, tags) = setup("<a>good cheap car</a>");
        let e = elem(&c, &tags, "a");
        assert!(ft_all(
            &inv,
            &e,
            &terms(&inv, &["good", "car"]),
            None,
            false
        ));
        assert!(!ft_all(
            &inv,
            &e,
            &terms(&inv, &["good", "bike"]),
            None,
            false
        ));
        assert!(!ft_all(&inv, &e, &[], None, false));
    }

    #[test]
    fn window_constrains_span() {
        // positions: the(0) good(1) old(2) reliable(3) cheap(4)
        let (c, inv, tags) = setup("<a>the good old reliable cheap</a>");
        let e = elem(&c, &tags, "a");
        let ts = terms(&inv, &["good", "cheap"]);
        assert!(ft_all(&inv, &e, &ts, Some(4), false));
        assert!(!ft_all(&inv, &e, &ts, Some(3), false));
        assert!(ft_all(&inv, &e, &ts, None, false));
    }

    #[test]
    fn ordered_requires_listed_order() {
        let (c, inv, tags) = setup("<a>cheap but good</a>");
        let e = elem(&c, &tags, "a");
        assert!(ft_all(
            &inv,
            &e,
            &terms(&inv, &["cheap", "good"]),
            None,
            true
        ));
        assert!(!ft_all(
            &inv,
            &e,
            &terms(&inv, &["good", "cheap"]),
            None,
            true
        ));
        assert!(ft_all(
            &inv,
            &e,
            &terms(&inv, &["good", "cheap"]),
            None,
            false
        ));
    }

    #[test]
    fn ordered_with_window() {
        // cheap(0) stuff(1) ... good(5)
        let (c, inv, tags) = setup("<a>cheap stuff that is not good</a>");
        let e = elem(&c, &tags, "a");
        let ts = terms(&inv, &["cheap", "good"]);
        assert!(ft_all(&inv, &e, &ts, Some(6), true));
        assert!(!ft_all(&inv, &e, &ts, Some(5), true));
    }

    #[test]
    fn multi_token_terms_match_as_phrases() {
        let (c, inv, tags) = setup("<a>good condition and low mileage</a>");
        let e = elem(&c, &tags, "a");
        let ts = terms(&inv, &["good condition", "low mileage"]);
        assert!(ft_all(&inv, &e, &ts, Some(5), true));
        assert!(!ft_all(&inv, &e, &ts, Some(4), true));
        // "condition good" is not a phrase occurrence
        assert!(!ft_all(
            &inv,
            &e,
            &terms(&inv, &["condition good"]),
            None,
            false
        ));
    }

    #[test]
    fn respects_element_boundaries() {
        let (c, inv, tags) = setup("<r><a>good</a><b>cheap</b></r>");
        let a = elem(&c, &tags, "a");
        assert!(!ft_all(
            &inv,
            &a,
            &terms(&inv, &["good", "cheap"]),
            None,
            false
        ));
        let r = elem(&c, &tags, "r");
        assert!(ft_all(
            &inv,
            &r,
            &terms(&inv, &["good", "cheap"]),
            None,
            false
        ));
    }

    #[test]
    fn overlapping_occurrences_need_strict_ordering() {
        // "good good": ordered chain of [good, good] exists (two distinct
        // occurrences).
        let (c, inv, tags) = setup("<a>good good</a>");
        let e = elem(&c, &tags, "a");
        let ts = terms(&inv, &["good", "good"]);
        assert!(ft_all(&inv, &e, &ts, Some(2), true));
        // But a single occurrence cannot chain with itself.
        let (c2, inv2, tags2) = setup("<a>good</a>");
        let e2 = elem(&c2, &tags2, "a");
        assert!(!ft_all(
            &inv2,
            &e2,
            &terms(&inv2, &["good", "good"]),
            None,
            true
        ));
    }
}
