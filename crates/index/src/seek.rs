//! The one search over the index's sorted lists.
//!
//! Every lookup into a tag list or a posting list — a region of the
//! elements of one tag, the occurrences of a token inside an element, the
//! next token of a phrase — is a [`seek`]: a galloping
//! `partition_point` that starts from a position the caller holds. The
//! per-answer operators keep one position per list and move it as their
//! answers move through the corpus in document order, so a probe costs a
//! few comparisons next to where the previous one ended instead of a cold
//! binary search over the whole list. Lookups without a history
//! ([`crate::TagIndex::elements_within`],
//! [`crate::phrase::postings_in_element`]) seek from position 0.

/// The partition point of `list` under `before` — the number of leading
/// entries for which `before` holds — found by galloping from `from`.
///
/// `before` must hold for a prefix of `list` and fail for the rest, as for
/// [`slice::partition_point`], which this equals. `from` may lie on either
/// side of the answer (or past the end): the search doubles its step away
/// from `from` until it brackets the answer, then bisects the bracket, so
/// its cost grows with the log of the distance moved, not of the list.
pub fn seek<T>(list: &[T], from: usize, mut before: impl FnMut(&T) -> bool) -> usize {
    let from = from.min(list.len());
    // The answer lies below `from` exactly when `before` fails just
    // before it.
    let behind = from
        .checked_sub(1)
        .filter(|&prev| list.get(prev).is_some_and(|e| !before(e)));
    // The answer lies in `lo..=hi`: `before` holds below `lo` and fails
    // from `hi` on.
    let (lo, hi) = match behind {
        None => {
            let (mut lo, mut step) = (from, 1usize);
            loop {
                let probe = lo.saturating_add(step - 1);
                match list.get(probe) {
                    Some(e) if before(e) => {
                        lo = probe + 1;
                        step = step.saturating_mul(2);
                    }
                    Some(_) => break (lo, probe),
                    None => break (lo, list.len()),
                }
            }
        }
        Some(mut hi) => {
            let mut step = 1usize;
            loop {
                let Some(probe) = hi.checked_sub(step) else {
                    break (0, hi);
                };
                match list.get(probe) {
                    Some(e) if !before(e) => {
                        hi = probe;
                        step = step.saturating_mul(2);
                    }
                    _ => break (probe + 1, hi),
                }
            }
        }
    };
    lo + list
        .get(lo..hi)
        .map_or(0, |gap| gap.partition_point(before))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn finds_the_partition_point_from_anywhere() {
        let list = [1, 3, 3, 5, 8, 13, 21];
        for target in 0..25 {
            let want = list.partition_point(|&x| x < target);
            for from in 0..=list.len() + 2 {
                assert_eq!(
                    seek(&list, from, |&x| x < target),
                    want,
                    "{target} from {from}"
                );
            }
        }
        assert_eq!(seek(&[] as &[u32], 0, |_| true), 0);
        assert_eq!(seek(&[] as &[u32], 5, |_| false), 0);
    }

    proptest! {
        /// A caller that keeps the previous answer as its next starting
        /// point — forward, backward or repeated targets — always lands
        /// where a cold `partition_point` does.
        #[test]
        fn chained_seeks_equal_partition_point(
            list in proptest::collection::vec(0u32..200, 0..300),
            targets in proptest::collection::vec(0u32..210, 1..40),
            start in 0usize..320,
        ) {
            let mut list = list;
            list.sort_unstable();
            let mut at = start;
            for t in targets {
                let want = list.partition_point(|&x| x < t);
                at = seek(&list, at, |&x| x < t);
                prop_assert_eq!(at, want);
                let want = list.partition_point(|&x| x <= t);
                at = seek(&list, at, |&x| x <= t);
                prop_assert_eq!(at, want);
            }
        }
    }
}
