//! Bulk structural-join evaluation: a sort-merge alternative to the
//! per-candidate indexed nested-loop matcher.
//!
//! The classical XML join literature (Stack-Tree, structural joins over
//! region-encoded element lists) evaluates a tree pattern bottom-up with
//! merge-based **semijoins** over the per-tag element lists, exploiting
//! that the lists are sorted by `(doc, start)` and that regions are
//! well-nested. This module implements that pipeline as a *pre-filter*:
//!
//! 1. per pattern node, list elements passing the node's required local
//!    predicates;
//! 2. bottom-up, semijoin each node's list with its required children
//!    (`pc` via parent pointers, `ad` via an O(n+m) merge);
//! 3. top-down along the root path, keep only elements with a surviving
//!    ancestor chain;
//! 4. hand the surviving distinguished-node candidates to the exact
//!    [`Matcher`] for verification and scoring.
//!
//! Because the pre-filter is a superset of the true answers (it decomposes
//! the twig into edge semijoins without enforcing a single coherent
//! embedding — the classical precision/cost trade-off), the matcher pass
//! keeps the result exact while the joins slash the candidate count.

use crate::context::Database;
use crate::eval::Matcher;
use pimento_index::{ft_all, ft_contains, ElemEntry, RangeOp};
use pimento_tpq::{Axis, Predicate, RelOp, TagTest, TpqNodeId, Value};
use std::collections::HashSet;

/// Compute the pre-filtered candidate list for the matcher's distinguished
/// node, sorted by `(doc, start)`.
pub fn prefilter_candidates(db: &Database, matcher: &Matcher) -> Vec<ElemEntry> {
    let pq = matcher.personalized();
    let tpq = &pq.tpq;

    // Recursive bottom-up satisfaction lists, memoized per node.
    fn sat(
        db: &Database,
        matcher: &Matcher,
        node: TpqNodeId,
        memo: &mut Vec<Option<Vec<ElemEntry>>>,
    ) -> Vec<ElemEntry> {
        if let Some(Some(v)) = memo.get(node.0 as usize) {
            return v.clone();
        }
        let pq = matcher.personalized();
        let tpq = &pq.tpq;
        let mut list = base_list(db, matcher, node);
        for &child in &tpq.node(node).children {
            if pq.node_is_optional(child) {
                continue;
            }
            let child_sat = sat(db, matcher, child, memo);
            list = match tpq.node(child).axis {
                Axis::Descendant => keep_ancestors_of(&list, &child_sat),
                Axis::Child => keep_parents_of(db, &list, &child_sat),
            };
            if list.is_empty() {
                break;
            }
        }
        if let Some(slot) = memo.get_mut(node.0 as usize) {
            *slot = Some(list.clone());
        }
        list
    }

    let mut memo: Vec<Option<Vec<ElemEntry>>> = vec![None; tpq.len()];
    // Root-to-distinguished path.
    let mut path = vec![tpq.distinguished()];
    let mut cursor = tpq.distinguished();
    while let Some(p) = tpq.node(cursor).parent {
        path.push(p);
        cursor = p;
    }
    path.reverse();
    let Some(&root) = path.first() else {
        return Vec::new();
    };

    // Top-down chain filtering.
    let mut current = sat(db, matcher, root, &mut memo);
    // Root anchoring: a Child-anchored root must be the document root.
    if tpq.node(root).axis == Axis::Child {
        current.retain(|e| db.coll.doc(e.doc).root() == e.node);
    }
    for pair in path.windows(2) {
        let &[_, child_node] = pair else { continue };
        let child_sat = sat(db, matcher, child_node, &mut memo);
        current = match tpq.node(child_node).axis {
            Axis::Descendant => keep_descendants_of(&child_sat, &current),
            Axis::Child => keep_children_of(db, &child_sat, &current),
        };
        if current.is_empty() {
            break;
        }
    }
    current
}

/// Elements matching `node`'s tag test and required local predicates.
/// When the node carries a required numeric comparison, the value index
/// seeds the list with a range scan instead of the full tag list.
fn base_list(db: &Database, matcher: &Matcher, node: TpqNodeId) -> Vec<ElemEntry> {
    let pq = matcher.personalized();
    let tpq_node = pq.tpq.node(node);
    let base: Vec<ElemEntry> = match &tpq_node.tag {
        TagTest::Name(tag) => match db.coll.tag(tag) {
            Some(sym) => {
                let range_seed = tpq_node.predicates.iter().enumerate().find_map(|(i, p)| {
                    if pq.pred_is_optional(node, i) {
                        return None;
                    }
                    let Predicate::Compare {
                        op,
                        value: Value::Num(c),
                    } = p
                    else {
                        return None;
                    };
                    let op = match op {
                        RelOp::Lt => RangeOp::Lt,
                        RelOp::Le => RangeOp::Le,
                        RelOp::Gt => RangeOp::Gt,
                        RelOp::Ge => RangeOp::Ge,
                        RelOp::Eq => RangeOp::Eq,
                        RelOp::Ne => return None,
                    };
                    Some((op, *c))
                });
                // Soundness guard: seed from the value index only when it
                // covers every element of the tag (elements with nested or
                // non-numeric content are not value-indexed but could still
                // satisfy the comparison through their full text content).
                let fully_indexed = db.values.count(sym) == db.tags.count(sym);
                match range_seed {
                    Some((op, c)) if fully_indexed => {
                        let mut seeded = db.values.range(sym, op, c);
                        // Restore (doc, start) order for the merge joins.
                        seeded.sort_by_key(|e| (e.doc, e.start));
                        seeded
                    }
                    _ => db.tags.elements(sym).to_vec(),
                }
            }
            None => Vec::new(),
        },
        TagTest::Star => {
            let mut all = Vec::new();
            for (doc_id, doc) in db.coll.iter() {
                for n in doc.node_ids() {
                    if doc.node(n).tag().is_some() {
                        all.push(crate::eval::entry_of(db, doc_id, n));
                    }
                }
            }
            all
        }
    };
    base.into_iter()
        .filter(|e| {
            tpq_node.predicates.iter().enumerate().all(|(i, p)| {
                if pq.pred_is_optional(node, i) {
                    return true;
                }
                match p {
                    Predicate::FtContains { phrase } => {
                        let tokens = db.inverted.analyze(phrase);
                        ft_contains(&db.inverted, e, &tokens)
                    }
                    Predicate::FtAll {
                        terms,
                        window,
                        ordered,
                    } => {
                        let tt: Vec<Vec<String>> =
                            terms.iter().map(|t| db.inverted.analyze(t)).collect();
                        ft_all(&db.inverted, e, &tt, *window, *ordered)
                    }
                    Predicate::Compare { op, value } => {
                        crate::eval::compare_content(db, e.elem_ref(), *op, value)
                    }
                }
            })
        })
        .collect()
}

/// Ancestor-side semijoin: the elements of `parents` that strictly contain
/// at least one element of `descs`. Both lists are `(doc, start)`-sorted;
/// the merge is O(n + m).
pub fn keep_ancestors_of(parents: &[ElemEntry], descs: &[ElemEntry]) -> Vec<ElemEntry> {
    let mut out = Vec::new();
    let mut di = 0usize;
    for p in parents {
        // Advance to the first descendant candidate starting after p.start
        // in p's document.
        while descs
            .get(di)
            .is_some_and(|d| d.doc < p.doc || (d.doc == p.doc && d.start <= p.start))
        {
            di += 1;
        }
        if descs
            .get(di)
            .is_some_and(|d| d.doc == p.doc && d.start < p.end)
        {
            out.push(*p);
        }
        // `di` must not advance past candidates needed by later parents:
        // later parents have larger starts, so the monotone advance is safe.
    }
    out
}

/// Descendant-side semijoin: the elements of `descs` strictly contained in
/// at least one element of `ancs`. Uses well-nestedness: an ancestor
/// starting before `e` either ends before `e.start` or contains `e`
/// entirely, so tracking the max end among started ancestors suffices.
pub fn keep_descendants_of(descs: &[ElemEntry], ancs: &[ElemEntry]) -> Vec<ElemEntry> {
    let mut out = Vec::new();
    let mut ai = 0usize;
    let mut max_end: Option<(pimento_index::DocId, u32)> = None;
    for e in descs {
        while let Some(a) = ancs.get(ai) {
            if !(a.doc < e.doc || (a.doc == e.doc && a.start < e.start)) {
                break;
            }
            max_end = match max_end {
                Some((doc, end)) if doc == a.doc => Some((doc, end.max(a.end))),
                _ => Some((a.doc, a.end)),
            };
            ai += 1;
        }
        if let Some((doc, end)) = max_end {
            if doc == e.doc && end > e.end {
                out.push(*e);
            }
        }
    }
    out
}

/// Parent-side `pc` semijoin: the elements of `parents` that are the XML
/// parent of at least one element of `children`.
pub fn keep_parents_of(
    db: &Database,
    parents: &[ElemEntry],
    children: &[ElemEntry],
) -> Vec<ElemEntry> {
    let parent_keys: HashSet<(u32, u32)> = children
        .iter()
        .filter_map(|c| {
            db.coll
                .doc(c.doc)
                .node(c.node)
                .parent
                .map(|p| (c.doc.0, p.0))
        })
        .collect();
    parents
        .iter()
        .filter(|p| parent_keys.contains(&(p.doc.0, p.node.0)))
        .copied()
        .collect()
}

/// Child-side `pc` semijoin: the elements of `children` whose XML parent is
/// in `parents`.
pub fn keep_children_of(
    db: &Database,
    children: &[ElemEntry],
    parents: &[ElemEntry],
) -> Vec<ElemEntry> {
    let parent_keys: HashSet<(u32, u32)> = parents.iter().map(|p| (p.doc.0, p.node.0)).collect();
    children
        .iter()
        .filter(|c| {
            db.coll
                .doc(c.doc)
                .node(c.node)
                .parent
                .is_some_and(|p| parent_keys.contains(&(c.doc.0, p.0)))
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_index::Collection;
    use pimento_profile::PersonalizedQuery;
    use pimento_tpq::parse_tpq;
    use std::sync::Arc;

    fn db(xml: &str) -> Database {
        let mut coll = Collection::new();
        coll.add_xml(xml).unwrap();
        Database::index_plain(coll)
    }

    fn matcher(db: &Database, q: &str) -> Arc<Matcher> {
        Arc::new(Matcher::new(
            db,
            PersonalizedQuery::unpersonalized(parse_tpq(q).unwrap()),
            &[&db.inverted],
        ))
    }

    const DEALER: &str = r#"<dealer>
        <car><description>good condition low mileage</description><price>500</price></car>
        <car><description>good condition</description><price>3000</price></car>
        <other><price>10</price></other>
    </dealer>"#;

    type Keys = Vec<(u32, u32)>;

    /// Candidate pre-filter followed by exact matching must equal the
    /// brute-force per-candidate evaluation.
    fn both_ways(db: &Database, q: &str) -> (Keys, Keys) {
        let m = matcher(db, q);
        let mut probes = 0u64;
        let pre: Keys = prefilter_candidates(db, &m)
            .into_iter()
            .filter(|e| m.match_answer(db, e, &mut probes).is_some())
            .map(|e| (e.doc.0, e.start))
            .collect();
        // Brute force: all elements of the distinguished tag.
        let brute: Keys = match m.distinguished_tag().and_then(|t| db.coll.tag(t)) {
            Some(sym) => db
                .tags
                .elements(sym)
                .iter()
                .filter(|e| m.match_answer(db, e, &mut probes).is_some())
                .map(|e| (e.doc.0, e.start))
                .collect(),
            None => Vec::new(),
        };
        (pre, brute)
    }

    #[test]
    fn prefilter_agrees_with_bruteforce_on_paper_query() {
        let db = db(DEALER);
        let (pre, brute) = both_ways(
            &db,
            r#"//car[./description[ftcontains(., "good condition")] and ./price < 2000]"#,
        );
        assert_eq!(pre, brute);
        assert_eq!(pre.len(), 1);
    }

    #[test]
    fn prefilter_handles_upward_path() {
        let db = db(DEALER);
        let (pre, brute) = both_ways(&db, "//dealer/car/price[. < 1000]");
        assert_eq!(pre, brute);
        assert_eq!(pre.len(), 1);
    }

    #[test]
    fn prefilter_never_misses_answers() {
        // The pre-filter must be a superset before verification.
        let db = db(DEALER);
        let m = matcher(&db, r#"//car[ftcontains(., "good condition")]"#);
        let pre = prefilter_candidates(&db, &m);
        let mut probes = 0;
        let car = db.coll.tag("car").unwrap();
        for e in db.tags.elements(car) {
            if m.match_answer(&db, e, &mut probes).is_some() {
                assert!(
                    pre.iter().any(|c| c.node == e.node && c.doc == e.doc),
                    "pre-filter dropped a true answer"
                );
            }
        }
    }

    #[test]
    fn semijoin_primitives() {
        let db = db("<a><b><c/></b><b/><c/></a>");
        let b = db.coll.tag("b").unwrap();
        let c = db.coll.tag("c").unwrap();
        let bs = db.tags.elements(b).to_vec();
        let cs = db.tags.elements(c).to_vec();
        // b elements containing a c descendant: only the first b.
        let with_c = keep_ancestors_of(&bs, &cs);
        assert_eq!(with_c.len(), 1);
        assert_eq!(with_c[0], bs[0]);
        // c elements inside a b: only the first c.
        let inside_b = keep_descendants_of(&cs, &bs);
        assert_eq!(inside_b.len(), 1);
        // pc variants agree here (depth 1).
        assert_eq!(keep_parents_of(&db, &bs, &cs), with_c);
        assert_eq!(keep_children_of(&db, &cs, &bs), inside_b);
    }

    #[test]
    fn pc_vs_ad_semijoin_difference() {
        let db = db("<a><b><x><c/></x></b></a>");
        let b = db.coll.tag("b").unwrap();
        let c = db.coll.tag("c").unwrap();
        let bs = db.tags.elements(b).to_vec();
        let cs = db.tags.elements(c).to_vec();
        assert_eq!(
            keep_ancestors_of(&bs, &cs).len(),
            1,
            "ad: c is a descendant"
        );
        assert_eq!(
            keep_parents_of(&db, &bs, &cs).len(),
            0,
            "pc: c is not a direct child"
        );
    }

    #[test]
    fn root_anchored_prefilter() {
        let db = db(DEALER);
        let m = matcher(&db, "/dealer");
        assert_eq!(prefilter_candidates(&db, &m).len(), 1);
        let m2 = matcher(&db, "/car");
        assert!(prefilter_candidates(&db, &m2).is_empty());
    }

    #[test]
    fn empty_tag_prefilter() {
        let db = db(DEALER);
        let m = matcher(&db, "//nonexistent");
        assert!(prefilter_candidates(&db, &m).is_empty());
    }
}

#[cfg(test)]
mod value_seed_tests {
    use super::*;
    use pimento_index::Collection;
    use pimento_profile::PersonalizedQuery;
    use pimento_tpq::parse_tpq;
    use std::sync::Arc;

    fn db(xml: &str) -> Database {
        let mut coll = Collection::new();
        coll.add_xml(xml).unwrap();
        Database::index_plain(coll)
    }

    #[test]
    fn value_index_seeds_numeric_prefilter() {
        let db = db(
            "<dealer><car><price>100</price></car><car><price>5000</price></car>\
             <car><price>900</price></car></dealer>",
        );
        let m = Arc::new(Matcher::new(
            &db,
            PersonalizedQuery::unpersonalized(parse_tpq("//car/price[. < 1000]").unwrap()),
            &[&db.inverted],
        ));
        let pre = prefilter_candidates(&db, &m);
        assert_eq!(pre.len(), 2, "range scan keeps only prices below 1000");
        assert!(pre
            .windows(2)
            .all(|w| (w[0].doc, w[0].start) < (w[1].doc, w[1].start)));
    }

    #[test]
    fn nested_numeric_content_falls_back_to_full_scan() {
        // One price has an element child: the value index does not cover
        // every price element, so the seed must be disabled — the
        // pre-filter still finds the nested-content answer.
        let db = db("<dealer><car><price>500</price></car>\
             <car><price><amount>700</amount></price></car></dealer>");
        let price = db.coll.tag("price").unwrap();
        assert_eq!(
            db.values.count(price),
            1,
            "only the leaf price is value-indexed"
        );
        let m = Arc::new(Matcher::new(
            &db,
            PersonalizedQuery::unpersonalized(parse_tpq("//car/price[. < 1000]").unwrap()),
            &[&db.inverted],
        ));
        let pre = prefilter_candidates(&db, &m);
        let mut probes = 0;
        let verified: Vec<_> = pre
            .iter()
            .filter(|e| m.match_answer(&db, e, &mut probes).is_some())
            .collect();
        assert_eq!(
            verified.len(),
            2,
            "both prices (leaf and nested) are answers"
        );
    }
}
