//! Phrase matching: finding occurrences of multi-token phrases and testing
//! `ftcontains(element, "phrase")` against region labels.

use crate::inverted::{InvertedIndex, Posting};
use crate::store::DocId;
use crate::tags::ElemEntry;

/// One occurrence of a phrase: the posting of its first token.
pub type PhraseHit = Posting;

/// Find all occurrences of `tokens` (already analyzed) in document `doc`:
/// consecutive global token positions.
///
/// Positions are numbered continuously across text nodes, so a phrase may
/// span inline markup (`good <b>condition</b>` matches "good condition") —
/// the behaviour XQuery Full-Text's tokenization prescribes.
pub fn phrase_occurrences(index: &InvertedIndex, doc: DocId, tokens: &[String]) -> Vec<PhraseHit> {
    match tokens {
        [] => Vec::new(),
        [single] => index.doc_postings(single, doc).to_vec(),
        [first, rest @ ..] => {
            let firsts = index.doc_postings(first, doc);
            let rest_lists: Vec<&[Posting]> = rest
                .iter()
                .map(|tok| index.doc_postings(tok, doc))
                .collect();
            let mut hits = Vec::new();
            'outer: for p in firsts.iter() {
                for (i, list) in rest_lists.iter().enumerate() {
                    let want = p.pos + 1 + i as u32;
                    if list.binary_search_by_key(&want, |q| q.pos).is_err() {
                        continue 'outer;
                    }
                }
                hits.push(*p);
            }
            hits
        }
    }
}

/// Postings of `token` whose occurrence lies strictly inside `elem`'s
/// region. Labels are monotone in token position (both follow document
/// order), so the region is a binary-searchable slice of the per-document
/// posting list — this is what keeps `ftcontains` probes cheap on large
/// documents.
pub fn postings_in_element<'a>(
    index: &'a InvertedIndex,
    elem: &ElemEntry,
    token: &str,
) -> &'a [Posting] {
    let in_doc = index.doc_postings(token, elem.doc);
    debug_assert!(in_doc.is_sorted_by_key(|p| p.label));
    let lo = in_doc.partition_point(|p| p.label <= elem.start);
    let hi = in_doc.partition_point(|p| p.label < elem.end);
    in_doc.get(lo..hi).unwrap_or(&[])
}

/// Count occurrences of `tokens` strictly inside element `elem`
/// (the `tf` used by scoring).
pub fn count_in_element(index: &InvertedIndex, elem: &ElemEntry, tokens: &[String]) -> u32 {
    occurrences_in_element(index, elem, tokens).len() as u32
}

/// Occurrences of `tokens` strictly inside element `elem`: the first token
/// must fall in `elem`'s region and the rest at the following positions.
pub fn occurrences_in_element(
    index: &InvertedIndex,
    elem: &ElemEntry,
    tokens: &[String],
) -> Vec<PhraseHit> {
    let [first, rest @ ..] = tokens else {
        return Vec::new();
    };
    let firsts = postings_in_element(index, elem, first);
    let rest_lists: Vec<&[Posting]> = rest
        .iter()
        .map(|tok| index.doc_postings(tok, elem.doc))
        .collect();
    let mut hits = Vec::new();
    'outer: for p in firsts.iter() {
        for (i, list) in rest_lists.iter().enumerate() {
            let want = p.pos + 1 + i as u32;
            match list.binary_search_by_key(&want, |q| q.pos) {
                // The continuation must also fall inside the element — a
                // phrase straddling the element boundary is not contained.
                Ok(idx) if list.get(idx).is_some_and(|q| q.label < elem.end) => {}
                _ => continue 'outer,
            }
        }
        hits.push(*p);
    }
    hits
}

/// `ftcontains(elem, phrase)`: does the phrase occur anywhere in `elem`'s
/// subtree (paper §3: "contains an occurrence of the keyword at any
/// document depth")?
pub fn ft_contains(index: &InvertedIndex, elem: &ElemEntry, tokens: &[String]) -> bool {
    match tokens {
        [] => false,
        [single] => !postings_in_element(index, elem, single).is_empty(),
        _ => !occurrences_in_element(index, elem, tokens).is_empty(),
    }
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

    #[test]
    fn single_token_occurrences() {
        let (_, inv, _) = setup("<a>good car good</a>");
        let hits = phrase_occurrences(&inv, DocId(0), &toks(&inv, "good"));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn phrase_requires_adjacency() {
        let (_, inv, _) = setup("<a>good condition and good old condition</a>");
        assert_eq!(
            phrase_occurrences(&inv, DocId(0), &toks(&inv, "good condition")).len(),
            1
        );
        assert!(phrase_occurrences(&inv, DocId(0), &toks(&inv, "condition good")).is_empty());
    }

    #[test]
    fn three_token_phrase() {
        let (_, inv, _) = setup("<a>it is in good condition as always</a>");
        assert_eq!(
            phrase_occurrences(&inv, DocId(0), &toks(&inv, "in good condition")).len(),
            1
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
    if terms.is_empty() {
        return false;
    }
    // Occurrences per term: (start position, end position) pairs.
    let mut occs: Vec<Vec<(u32, u32)>> = Vec::with_capacity(terms.len());
    for t in terms {
        if t.is_empty() {
            return false;
        }
        let hits = occurrences_in_element(index, elem, t);
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
