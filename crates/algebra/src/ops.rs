//! The physical operators of the PIMENTO algebra (paper Fig. 3): the
//! bottom query-evaluation scan, SR outer-joins, `kor`, `vor`, and
//! parametric `sort`. `topkPrune` lives in [`crate::topk`].

use crate::answer::Answer;
use crate::context::{Database, ExecStats};
use crate::eval::{entry_of, Cursor, Matcher, PreparedPhrase};
use crate::rank::RankContext;
use pimento_index::seek::seek;
use pimento_index::{contains_at, field_value_indexed, ElemEntry, FieldValue};
use pimento_profile::{AttrValue, KeywordOrderingRule};
use pimento_xml::SymbolId;
use std::ops::Range;
use std::sync::Arc;

/// A pull-based operator producing answers one at a time.
pub trait Operator {
    /// Produce the next answer, or `None` when exhausted.
    fn next(&mut self, db: &Database, stats: &mut ExecStats) -> Option<Answer>;

    /// One-line description for explain output.
    fn describe(&self) -> String;
}

/// Boxed operator, the unit plans are built from.
pub type BoxedOp = Box<dyn Operator>;

// ---------------------------------------------------------------------------

/// The candidate bindings of a matcher's distinguished node in one
/// database, in document order: the tag index's list for the node's tag,
/// read in place, or for a `*` node every element, gathered. Tombstoned
/// documents stay in the list; the scan skips them.
enum Candidates {
    /// The tag list of this symbol (`None`: the tag is not interned in
    /// this database, so there are no candidates).
    Tag(Option<SymbolId>),
    /// Every element, for a `*` distinguished node.
    Every(Vec<ElemEntry>),
}

impl Candidates {
    fn of(db: &Database, matcher: &Matcher) -> Self {
        match matcher.distinguished_tag() {
            Some(tag) => Candidates::Tag(db.coll.tag(tag)),
            None => Candidates::Every(
                db.coll
                    .iter()
                    .flat_map(|(doc_id, doc)| {
                        doc.node_ids()
                            .filter(move |&n| doc.node(n).tag().is_some())
                            .map(move |n| (doc_id, n))
                    })
                    .map(|(d, n)| entry_of(db, d, n))
                    .collect(),
            ),
        }
    }

    fn list<'a>(&'a self, db: &'a Database) -> &'a [ElemEntry] {
        match self {
            Candidates::Tag(Some(sym)) => db.tags.elements(*sym),
            Candidates::Tag(None) => &[],
            Candidates::Every(all) => all,
        }
    }
}

/// The number of candidates [`QueryEval`] examines on `db`: the
/// candidate list less the tombstoned documents' entries.
pub fn live_candidates(db: &Database, matcher: &Matcher) -> usize {
    let candidates = Candidates::of(db, matcher);
    let list = candidates.list(db);
    match db.tombstones().filter(|t| !t.is_empty()) {
        None => list.len(),
        Some(tombs) => list.iter().filter(|e| !tombs.contains(e.doc)).count(),
    }
}

/// Cut the candidate list [`QueryEval`] walks on `db` into contiguous
/// position ranges of `size` live (not tombstoned) candidates each, the
/// last holding the rest — one range over the whole list when it holds at
/// most `size`. The ranges tile the list, so every candidate is in
/// exactly one.
pub fn cut_candidates(db: &Database, matcher: &Matcher, size: usize) -> Vec<Range<usize>> {
    let candidates = Candidates::of(db, matcher);
    let list = candidates.list(db);
    let size = size.max(1);
    // Where each range but the last ends: just past its `size`-th live
    // candidate.
    let mut cuts = Vec::new();
    match db.tombstones().filter(|t| !t.is_empty()) {
        None => cuts.extend((1..list.len().div_ceil(size)).map(|i| i * size)),
        Some(tombs) => {
            let mut live = 0;
            for (at, e) in list.iter().enumerate() {
                if !tombs.contains(e.doc) {
                    live += 1;
                    if live % size == 0 {
                        cuts.push(at + 1);
                    }
                }
            }
            // A cut just past the last live candidate would leave the
            // last range with none.
            if live % size == 0 {
                cuts.pop();
            }
        }
    }
    let mut ranges = Vec::with_capacity(cuts.len() + 1);
    let mut from = 0;
    for cut in cuts {
        ranges.push(from..cut);
        from = cut;
    }
    ranges.push(from..list.len());
    ranges
}

/// Bottom of every plan: enumerate candidate bindings of the distinguished
/// node from the tag index and keep those matching the query's required
/// part, with their base score `S` — the paper's pipelined indexed
/// nested-loop join (§6.4).
///
/// The scan walks positions of the candidate list in place — the whole
/// list, or the range of it a lane task was given ([`cut_candidates`]) —
/// and skips the candidates of tombstoned documents there, at the base of
/// the plan, before any prune sees an answer: deleting candidates only
/// ever *relaxes* top-k bounds, so every pruning strategy stays sound.
pub struct QueryEval {
    matcher: Arc<Matcher>,
    /// Positions for the matcher's joins below each candidate.
    cursor: Cursor,
    /// The next position to examine.
    at: usize,
    /// The end of the task's range (`None`: the end of the list).
    end: Option<usize>,
    /// Resolved against the database at the first pull.
    candidates: Option<Candidates>,
}

impl QueryEval {
    /// Create the scan for `matcher`'s query over every candidate.
    pub fn new(matcher: Arc<Matcher>) -> Self {
        QueryEval {
            cursor: matcher.cursor(),
            matcher,
            at: 0,
            end: None,
            candidates: None,
        }
    }

    /// Scan over one range of positions of the candidate list (a lane
    /// task: see [`cut_candidates`]).
    pub fn over_range(matcher: Arc<Matcher>, range: Range<usize>) -> Self {
        QueryEval {
            at: range.start,
            end: Some(range.end),
            ..QueryEval::new(matcher)
        }
    }
}

impl Operator for QueryEval {
    fn next(&mut self, db: &Database, stats: &mut ExecStats) -> Option<Answer> {
        let matcher = &self.matcher;
        let list = self
            .candidates
            .get_or_insert_with(|| Candidates::of(db, matcher))
            .list(db);
        let end = self.end.map_or(list.len(), |end| end.min(list.len()));
        let tombs = db.tombstones().filter(|t| !t.is_empty());
        while self.at < end {
            let Some(elem) = list.get(self.at) else { break };
            if tombs.is_some_and(|t| t.contains(elem.doc)) {
                // A document's candidates are one run: skip all of it.
                self.at = seek(list, self.at, |e| e.doc <= elem.doc);
                continue;
            }
            self.at += 1;
            if let Some(s) = matcher.match_at(db, elem, &mut self.cursor, &mut stats.ft_probes) {
                stats.base_answers += 1;
                return Some(Answer::new(*elem, s));
            }
        }
        None
    }

    fn describe(&self) -> String {
        format!(
            "QueryEval({})",
            self.matcher.distinguished_tag().unwrap_or("*")
        )
    }
}

// ---------------------------------------------------------------------------

/// Outer-join enforcing one optional (SR-contributed) keyword predicate:
/// answers satisfying it gain its score, others pass through unchanged —
/// the paper's encoding of scoping rules in a single plan (§6.2).
pub struct SrPredJoin {
    input: BoxedOp,
    matcher: Arc<Matcher>,
    phrase: PreparedPhrase,
    cursor: Cursor,
}

impl SrPredJoin {
    /// Wrap `input` with the optional predicate `phrase`.
    pub fn new(input: BoxedOp, matcher: Arc<Matcher>, phrase: PreparedPhrase) -> Self {
        SrPredJoin {
            input,
            cursor: matcher.cursor(),
            matcher,
            phrase,
        }
    }

    /// Exact maximum score this operator can add to any answer.
    pub fn bound(&self) -> f64 {
        self.phrase.bound
    }
}

impl Operator for SrPredJoin {
    fn next(&mut self, db: &Database, stats: &mut ExecStats) -> Option<Answer> {
        let mut a = self.input.next(db, stats)?;
        a.s += self.matcher.eval_pred_near_at(
            db,
            &self.phrase,
            &a.elem,
            &mut self.cursor,
            &mut stats.ft_probes,
        );
        Some(a)
    }

    fn describe(&self) -> String {
        format!(
            "SrPredJoin({:?}) -> {}",
            self.phrase.describe(),
            self.input.describe()
        )
    }
}

// ---------------------------------------------------------------------------

/// The `kor` operator (paper Fig. 3): applies one keyword-based ordering
/// rule, raising the `K` score of answers containing the keyword.
pub struct KorJoin {
    input: BoxedOp,
    rule: KeywordOrderingRule,
    tokens: Vec<String>,
    /// Seek position per token, following the answers.
    at: Vec<usize>,
    /// `tag_match[sym]` ⇔ the rule applies to elements with that interned
    /// tag — the case-insensitive name comparison runs once per symbol at
    /// plan build instead of once per answer.
    tag_match: Box<[bool]>,
}

impl KorJoin {
    /// Wrap `input` with `rule` (tokens analyzed against `db`'s index at
    /// first use would race the pull model, so analysis happens here).
    pub fn new(input: BoxedOp, db: &Database, rule: KeywordOrderingRule) -> Self {
        let tokens = db.inverted.analyze(&rule.phrase);
        let all = rule.tag == "*";
        let tag_match = db
            .coll
            .symbols()
            .iter()
            .map(|name| all || name.eq_ignore_ascii_case(&rule.tag))
            .collect();
        KorJoin {
            input,
            rule,
            at: vec![0; tokens.len()],
            tokens,
            tag_match,
        }
    }

    /// The rule's weight — its contribution to upstream kor-scorebounds.
    pub fn weight(&self) -> f64 {
        self.rule.weight
    }
}

impl Operator for KorJoin {
    fn next(&mut self, db: &Database, stats: &mut ExecStats) -> Option<Answer> {
        let mut a = self.input.next(db, stats)?;
        let tag_matches = self
            .tag_match
            .get(a.elem.tag.0 as usize)
            .copied()
            .unwrap_or(false);
        if tag_matches {
            stats.ft_probes += 1;
            if contains_at(&db.inverted, &a.elem, &self.tokens, &mut self.at) {
                a.k += self.rule.weight;
            }
        }
        Some(a)
    }

    fn describe(&self) -> String {
        format!(
            "kor[{}]({:?}) -> {}",
            self.rule.id,
            self.rule.phrase,
            self.input.describe()
        )
    }
}

// ---------------------------------------------------------------------------

/// The `vor` operator (paper Fig. 3): augments answers with the compiled
/// key the value-based ordering rules compare on. Attribute names resolve
/// to interned symbols once at plan build; per answer the fetch probes by
/// [`SymbolId`] and compiles the values into slot order.
pub struct VorFetch {
    input: BoxedOp,
    rank: Arc<RankContext>,
    /// Interned symbol per slot of [`RankContext::vor_attrs`]; `None`
    /// when the attribute name never occurs in the collection (the value
    /// is then absent from every key, as with the string path).
    attr_syms: Vec<Option<SymbolId>>,
}

impl VorFetch {
    /// Fetch every attribute mentioned by the context's VORs.
    pub fn new(input: BoxedOp, db: &Database, rank: &Arc<RankContext>) -> Self {
        let attr_syms = rank
            .vor_attrs()
            .iter()
            .map(|a| db.coll.symbols().get(a))
            .collect();
        VorFetch {
            input,
            rank: Arc::clone(rank),
            attr_syms,
        }
    }
}

impl Operator for VorFetch {
    fn next(&mut self, db: &Database, stats: &mut ExecStats) -> Option<Answer> {
        let mut a = self.input.next(db, stats)?;
        let elem = a.elem;
        let tag = db.coll.symbols().name(elem.tag);
        let attr_syms = &self.attr_syms;
        let key = self.rank.make_key(tag, |slot, _| {
            attr_syms
                .get(slot)
                .copied()
                .flatten()
                .and_then(|sym| field_value_indexed(&db.coll, &db.tags, &elem, sym))
                .map(|v| match v {
                    FieldValue::Num(n) => AttrValue::Num(n),
                    FieldValue::Str(s) => AttrValue::Str(s),
                })
        });
        a.vor = Some(Arc::new(key));
        Some(a)
    }

    fn describe(&self) -> String {
        format!(
            "vor({}) -> {}",
            self.rank.vor_attrs().join(","),
            self.input.describe()
        )
    }
}

// ---------------------------------------------------------------------------

/// The parametric `sort` operator (paper Fig. 3): materializes its input
/// and emits it in the context's ranking order.
pub struct Sort {
    input: BoxedOp,
    rank: Arc<RankContext>,
    /// `Some` once the input has been drained and ranked; answers are
    /// then moved out one at a time (no per-emit clone).
    sorted: Option<std::vec::IntoIter<Answer>>,
}

impl Sort {
    /// Sort `input` by `rank`'s order.
    pub fn new(input: BoxedOp, rank: Arc<RankContext>) -> Self {
        Sort {
            input,
            rank,
            sorted: None,
        }
    }
}

impl Operator for Sort {
    fn next(&mut self, db: &Database, stats: &mut ExecStats) -> Option<Answer> {
        if self.sorted.is_none() {
            let mut buffer = Vec::new();
            while let Some(a) = self.input.next(db, stats) {
                buffer.push(a);
            }
            self.rank.rank(&mut buffer, stats);
            self.sorted = Some(buffer.into_iter());
        }
        self.sorted.as_mut()?.next()
    }

    fn describe(&self) -> String {
        format!("sort -> {}", self.input.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_index::Collection;
    use pimento_profile::{PersonalizedQuery, RankOrder};
    use pimento_tpq::parse_tpq;

    fn db() -> Database {
        let mut coll = Collection::new();
        coll.add_xml(
            r#"<people>
                <person><name>a</name><profile>male United States</profile><age>33</age></person>
                <person><name>b</name><profile>female College</profile><age>40</age></person>
                <person><name>c</name><profile>male Phoenix College</profile><age>33</age></person>
            </people>"#,
        )
        .unwrap();
        Database::index_plain(coll)
    }

    fn scan(db: &Database, q: &str) -> BoxedOp {
        let m = Arc::new(Matcher::new(
            db,
            PersonalizedQuery::unpersonalized(parse_tpq(q).unwrap()),
            &[&db.inverted],
        ));
        Box::new(QueryEval::new(m))
    }

    fn drain(mut op: BoxedOp, db: &Database) -> (Vec<Answer>, ExecStats) {
        let mut stats = ExecStats::default();
        let mut out = Vec::new();
        while let Some(a) = op.next(db, &mut stats) {
            out.push(a);
        }
        (out, stats)
    }

    #[test]
    fn query_eval_produces_matches() {
        let db = db();
        let (out, stats) = drain(scan(&db, r#"//person[ftcontains(., "male")]"#), &db);
        // "female" is a single token, so only persons a and c contain the
        // token "male".
        assert_eq!(out.len(), 2);
        assert_eq!(stats.base_answers, 2);
        assert!(out.iter().all(|a| a.s > 0.0));
    }

    #[test]
    fn kor_join_adds_weight() {
        let db = db();
        let base = scan(&db, "//person");
        let kor = KeywordOrderingRule::weighted("pi4", "person", "Phoenix", 2.0);
        let op = Box::new(KorJoin::new(base, &db, kor));
        let (out, _) = drain(op, &db);
        assert_eq!(out.len(), 3);
        let ks: Vec<f64> = out.iter().map(|a| a.k).collect();
        assert_eq!(ks.iter().filter(|&&k| k == 2.0).count(), 1);
        assert_eq!(ks.iter().filter(|&&k| k == 0.0).count(), 2);
    }

    #[test]
    fn kor_join_respects_tag() {
        let db = db();
        let base = scan(&db, "//person");
        let kor = KeywordOrderingRule::new("x", "article", "male");
        let op = Box::new(KorJoin::new(base, &db, kor));
        let (out, _) = drain(op, &db);
        assert!(out.iter().all(|a| a.k == 0.0), "tag mismatch never scores");
    }

    #[test]
    fn vor_fetch_populates_fields() {
        let db = db();
        let rank = RankContext::new(
            vec![pimento_profile::ValueOrderingRule::prefer_value(
                "pi5", "person", "age", "33",
            )],
            RankOrder::Kvs,
        );
        let op = Box::new(VorFetch::new(scan(&db, "//person"), &db, &rank));
        let (out, _) = drain(op, &db);
        assert_eq!(out.len(), 3);
        for a in &out {
            let key = a.vor.as_ref().unwrap();
            assert_eq!(key.tag(), "person");
            assert!(rank.key_has(key, "age"));
        }
    }

    #[test]
    fn sort_materializes_and_orders() {
        let db = db();
        let base = scan(&db, "//person");
        let kor = KeywordOrderingRule::new("pi1", "person", "College");
        let with_k = Box::new(KorJoin::new(base, &db, kor));
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let op = Box::new(Sort::new(with_k, rank));
        let (out, _) = drain(op, &db);
        assert_eq!(out.len(), 3);
        assert!(out[0].k >= out[1].k && out[1].k >= out[2].k);
    }

    #[test]
    fn sr_pred_join_outer_semantics() {
        let db = db();
        let q = parse_tpq("//person").unwrap();
        let mut pq = PersonalizedQuery::unpersonalized(q);
        pq.tpq
            .add_predicate(pq.tpq.root(), pimento_tpq::Predicate::ft("Phoenix"));
        pq.optional_preds.insert((pq.tpq.root(), 0));
        let m = Arc::new(Matcher::new(&db, pq, &[&db.inverted]));
        let base: BoxedOp = Box::new(QueryEval::new(Arc::clone(&m)));
        let phrase = m.optional_keywords().remove(0);
        let op = Box::new(SrPredJoin::new(base, m, phrase));
        let (out, _) = drain(op, &db);
        assert_eq!(out.len(), 3, "outer join keeps all answers");
        assert_eq!(
            out.iter().filter(|a| a.s > 0.0).count(),
            1,
            "only Phoenix answer scores"
        );
    }
}

#[cfg(test)]
mod op_edge_tests {
    use super::*;
    use crate::eval::Matcher;
    use pimento_index::Collection;
    use pimento_profile::{PersonalizedQuery, RankOrder};
    use pimento_tpq::parse_tpq;

    fn db(xml: &str) -> Database {
        let mut coll = Collection::new();
        coll.add_xml(xml).unwrap();
        Database::index_plain(coll)
    }

    fn drain(mut op: BoxedOp, db: &Database) -> Vec<Answer> {
        let mut stats = ExecStats::default();
        let mut out = Vec::new();
        while let Some(a) = op.next(db, &mut stats) {
            out.push(a);
        }
        out
    }

    /// Tombstoned documents' candidates are skipped, by the whole scan and
    /// by every range of a cut alike, and the cut counts live candidates
    /// only: `size` per range but the last, which is never empty of them.
    #[test]
    fn ranges_hold_live_candidates_and_skip_tombstoned_runs() {
        let mut coll = Collection::new();
        for d in 0..7 {
            let cars: String = (0..=d % 3).map(|_| "<car/>").collect();
            coll.add_xml(&format!("<lot>{cars}</lot>")).unwrap();
        }
        let mut tombs = pimento_index::TombstoneSet::new();
        for d in [0, 3, 4, 6] {
            tombs.insert(pimento_index::DocId(d));
        }
        let db = Database::index_plain(coll).with_tombstones(Some(Arc::new(tombs)));
        let m = Arc::new(Matcher::new(
            &db,
            PersonalizedQuery::unpersonalized(parse_tpq("//car").unwrap()),
            &[&db.inverted],
        ));
        let docs = |out: Vec<Answer>| out.iter().map(|a| a.elem.doc.0).collect::<Vec<_>>();
        let whole = docs(drain(Box::new(QueryEval::new(Arc::clone(&m))), &db));
        assert_eq!(whole, [1, 1, 2, 2, 2, 5, 5, 5]);
        assert_eq!(live_candidates(&db, &m), whole.len());
        for size in 1..=9 {
            let ranges = cut_candidates(&db, &m, size);
            assert_eq!(
                ranges.len(),
                whole.len().div_ceil(size).max(1),
                "size {size}"
            );
            let mut joined = Vec::new();
            for (i, r) in ranges.iter().enumerate() {
                let part = docs(drain(
                    Box::new(QueryEval::over_range(Arc::clone(&m), r.clone())),
                    &db,
                ));
                if i + 1 < ranges.len() {
                    assert_eq!(part.len(), size, "size {size}, range {r:?}");
                } else {
                    assert!(!part.is_empty(), "size {size}");
                }
                joined.extend(part);
            }
            assert_eq!(joined, whole, "size {size}");
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        }
    }

    #[test]
    fn sort_on_empty_input() {
        let db = db("<a/>");
        let m = Arc::new(Matcher::new(
            &db,
            PersonalizedQuery::unpersonalized(parse_tpq("//missing").unwrap()),
            &[&db.inverted],
        ));
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let op: BoxedOp = Box::new(Sort::new(Box::new(QueryEval::new(m)), rank));
        assert!(drain(op, &db).is_empty());
    }

    #[test]
    fn kor_star_tag_matches_any_element() {
        let db = db("<a><b>NYC here</b><c>elsewhere</c></a>");
        let m = Arc::new(Matcher::new(
            &db,
            PersonalizedQuery::unpersonalized(parse_tpq("//a/*").unwrap()),
            &[&db.inverted],
        ));
        let base: BoxedOp = Box::new(QueryEval::new(m));
        let kor = KeywordOrderingRule::new("any", "*", "NYC");
        let out = drain(Box::new(KorJoin::new(base, &db, kor)), &db);
        assert_eq!(out.len(), 2);
        assert_eq!(out.iter().filter(|a| a.k > 0.0).count(), 1);
    }

    #[test]
    fn vor_fetch_missing_attributes_leave_fields_absent() {
        let db = db("<a><car><color>red</color></car><car/></a>");
        let rank = RankContext::new(
            vec![pimento_profile::ValueOrderingRule::prefer_value(
                "c", "car", "color", "red",
            )],
            RankOrder::Kvs,
        );
        let m = Arc::new(Matcher::new(
            &db,
            PersonalizedQuery::unpersonalized(parse_tpq("//car").unwrap()),
            &[&db.inverted],
        ));
        let op: BoxedOp = Box::new(VorFetch::new(Box::new(QueryEval::new(m)), &db, &rank));
        let out = drain(op, &db);
        assert_eq!(out.len(), 2);
        let keys: Vec<bool> = out
            .iter()
            .map(|a| rank.key_has(a.vor.as_ref().unwrap(), "color"))
            .collect();
        assert_eq!(keys.iter().filter(|&&b| b).count(), 1);
    }
}
