//! The physical operators of the PIMENTO algebra (paper Fig. 3): the
//! bottom query-evaluation scan, SR outer-joins, `kor`, `vor`, and
//! parametric `sort`. `topkPrune` lives in [`crate::topk`].

use crate::answer::Answer;
use crate::context::{Database, ExecStats};
use crate::eval::{entry_of, Matcher, PreparedPhrase};
use crate::rank::RankContext;
use pimento_index::{field_value_sym, ft_contains, ElemEntry, FieldValue};
use pimento_profile::{AttrValue, KeywordOrderingRule};
use pimento_xml::SymbolId;
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

/// Bottom of every plan: enumerate candidate bindings of the distinguished
/// node from the tag index and keep those matching the query's required
/// part, with their base score `S` — the paper's pipelined indexed
/// nested-loop join (§6.4).
pub struct QueryEval {
    matcher: Arc<Matcher>,
    candidates: Vec<ElemEntry>,
    cursor: usize,
    initialized: bool,
}

impl QueryEval {
    /// Create the scan for `matcher`'s query.
    pub fn new(matcher: Arc<Matcher>) -> Self {
        QueryEval {
            matcher,
            candidates: Vec::new(),
            cursor: 0,
            initialized: false,
        }
    }

    /// Scan over a precomputed chunk of the list [`gather_candidates`]
    /// returned (a lane task: the list is gathered once and split across
    /// lanes).
    pub fn over_candidates(matcher: Arc<Matcher>, candidates: Vec<ElemEntry>) -> Self {
        QueryEval {
            matcher,
            candidates,
            cursor: 0,
            initialized: true,
        }
    }

    fn init(&mut self, db: &Database) {
        self.initialized = true;
        self.candidates = gather_candidates(db, &self.matcher);
    }
}

/// The candidate bindings of `matcher`'s distinguished node that
/// [`QueryEval`] scans, in document order: the tag index's list for the
/// node's tag, or every element for a `*` node. Tombstoned documents are
/// filtered out here, at the base of the plan — before any prune sees an
/// answer — so deleting candidates only ever *relaxes* top-k bounds and
/// every pruning strategy stays sound.
pub fn gather_candidates(db: &Database, matcher: &Matcher) -> Vec<ElemEntry> {
    let mut candidates = match matcher.distinguished_tag() {
        Some(tag) => match db.coll.tag(tag) {
            Some(sym) => db.tags.elements(sym).to_vec(),
            None => Vec::new(),
        },
        None => db
            .coll
            .iter()
            .flat_map(|(doc_id, doc)| {
                doc.node_ids()
                    .filter(move |&n| doc.node(n).tag().is_some())
                    .map(move |n| (doc_id, n))
            })
            .map(|(d, n)| entry_of(db, d, n))
            .collect(),
    };
    if let Some(tombs) = db.tombstones() {
        if !tombs.is_empty() {
            candidates.retain(|e| !tombs.contains(e.doc));
        }
    }
    candidates
}

impl Operator for QueryEval {
    fn next(&mut self, db: &Database, stats: &mut ExecStats) -> Option<Answer> {
        if !self.initialized {
            self.init(db);
        }
        while let Some(&elem) = self.candidates.get(self.cursor) {
            self.cursor += 1;
            if let Some(s) = self.matcher.match_answer(db, &elem, &mut stats.ft_probes) {
                stats.base_answers += 1;
                return Some(Answer::new(elem, s));
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
}

impl SrPredJoin {
    /// Wrap `input` with the optional predicate `phrase`.
    pub fn new(input: BoxedOp, matcher: Arc<Matcher>, phrase: PreparedPhrase) -> Self {
        SrPredJoin {
            input,
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
        a.s += self
            .matcher
            .eval_pred_near(db, &self.phrase, &a.elem, &mut stats.ft_probes);
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
        let tag_matches = match db.coll.node(a.elem.elem_ref()).tag() {
            Some(t) => self.tag_match.get(t.0 as usize).copied().unwrap_or(false),
            None => false,
        };
        if tag_matches {
            stats.ft_probes += 1;
            if ft_contains(&db.inverted, &a.elem, &self.tokens) {
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
        let elem = a.elem.elem_ref();
        let tag = db
            .coll
            .node(elem)
            .tag()
            .map(|t| db.coll.symbols().name(t))
            .unwrap_or("");
        let attr_syms = &self.attr_syms;
        let key = self.rank.make_key(tag, |slot, _| {
            attr_syms
                .get(slot)
                .copied()
                .flatten()
                .and_then(|sym| field_value_sym(&db.coll, elem, sym))
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
