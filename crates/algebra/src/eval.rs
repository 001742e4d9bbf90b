//! Pattern matching of a personalized TPQ against the indexed collection:
//! the pipelined, index-backed embedding test at the bottom of every plan
//! (paper §6.4: indexed nested-loop joins over the tag and keyword
//! indexes).
//!
//! [`Matcher::match_answer`] decides whether a candidate element is an
//! answer of the **required** part of a [`PersonalizedQuery`] and, if so,
//! returns its base query score `S` (the sum of the required keyword
//! predicates' contributions). Optional (SR-contributed) parts are
//! evaluated by the `SrPredJoin` operators above, via
//! [`Matcher::eval_pred_near`].
//!
//! The matcher is compiled once per request and shared by every task; it
//! holds flat per-pattern-node tables and nothing mutable. The joins seek
//! through the tag and posting lists from positions kept in a [`Cursor`],
//! which each operator probing through the matcher owns: its answers
//! arrive in document order, so every position moves a short way forward
//! per answer (DESIGN.md §8).

use crate::context::Database;
use pimento_index::tags::within;
use pimento_index::{
    content_value, count_at, ft_all_at, score, ElemEntry, ElemRef, FieldValue, InvertedIndex,
};
use pimento_profile::PersonalizedQuery;
use pimento_tpq::{Axis, Predicate, RelOp, TagTest, TpqNodeId, Value};
use pimento_xml::nav;
use pimento_xml::{NodeId, NodeKind, SymbolId};

/// A pattern node's tag test resolved against the collection's symbol
/// table at matcher build (tag tests are case-sensitive, so resolution is
/// an exact interning lookup); per candidate, matching is a symbol-id
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompiledTag {
    /// `*` — matches every element.
    Star,
    /// An interned name: elements match by symbol id.
    Sym(SymbolId),
    /// A name the collection never interned: no element can match.
    Unmatchable,
}

/// Analyzed (tokenized) keyword predicate with its exact score ceiling.
#[derive(Debug, Clone)]
pub struct PreparedPhrase {
    /// Pattern node carrying the predicate.
    pub node: TpqNodeId,
    /// Predicate index on that node.
    pub idx: usize,
    /// What kind of full-text check this is.
    pub kind: PreparedKind,
    /// Exact maximum score this predicate can contribute (its `nidf`
    /// times its weight; the tf component saturates below 1).
    pub bound: f64,
    /// Score multiplier from the weighted-SR extension (1.0 by default).
    pub weight: f64,
    /// Where this predicate's token positions start in a [`Cursor`]: its
    /// tokens (every term's, back to back) hold consecutive positions.
    slot: usize,
}

/// The analyzed form of a keyword predicate. The normalized idf of every
/// phrase is fixed at matcher build, so scoring a candidate needs neither
/// a document-frequency lookup nor a logarithm.
#[derive(Debug, Clone)]
pub enum PreparedKind {
    /// `ftcontains`: a single phrase (normalized tokens).
    Phrase {
        /// The analyzed tokens.
        tokens: Vec<String>,
        /// [`score::nidf`] of the tokens.
        nidf: f64,
    },
    /// `ftall`: every term present, optional window/order.
    All {
        /// Per-term analyzed tokens.
        terms: Vec<Vec<String>>,
        /// [`score::nidf`] per term, parallel to `terms`.
        nidfs: Vec<f64>,
        /// Maximum token span.
        window: Option<u32>,
        /// Terms must occur in the listed order.
        ordered: bool,
    },
}

/// [`score::ft_score`] with the phrase's `nidf` supplied; `None` when the
/// phrase does not occur in `elem`. `at` holds a seek position per token.
fn phrase_score(
    db: &Database,
    elem: &ElemEntry,
    tokens: &[String],
    nidf: f64,
    at: &mut [usize],
) -> Option<f64> {
    let tf = count_at(&db.inverted, elem, tokens, at);
    (tf > 0).then(|| score::tf_component(tf) * nidf)
}

impl PreparedKind {
    /// Number of analyzed tokens, every term's counted.
    fn width(&self) -> usize {
        match self {
            PreparedKind::Phrase { tokens, .. } => tokens.len(),
            PreparedKind::All { terms, .. } => terms.iter().map(Vec::len).sum(),
        }
    }
}

impl PreparedPhrase {
    /// One index probe deciding both questions: `None` when the predicate
    /// fails on `elem`, otherwise its score contribution, already
    /// weighted. For `ftall`, the score is the mean of the per-term phrase
    /// scores — keeping it within the declared `bound`. Each token's
    /// posting list is sought from its position in `at` (one per token,
    /// as [`Cursor`] lays them out).
    fn probe(&self, db: &Database, elem: &ElemEntry, at: &mut [usize]) -> Option<f64> {
        match &self.kind {
            PreparedKind::Phrase { tokens, nidf } => {
                phrase_score(db, elem, tokens, *nidf, at).map(|s| self.weight * s)
            }
            PreparedKind::All {
                terms,
                nidfs,
                window,
                ordered,
            } => {
                if !ft_all_at(&db.inverted, elem, terms, *window, *ordered, at) {
                    return None;
                }
                let mut rest = at;
                let mut sum = 0.0;
                for (t, &nidf) in terms.iter().zip(nidfs) {
                    let n = t.len().min(rest.len());
                    let (mine, others) = std::mem::take(&mut rest).split_at_mut(n);
                    rest = others;
                    sum += phrase_score(db, elem, t, nidf, mine).unwrap_or(0.0);
                }
                Some(self.weight * sum / terms.len() as f64)
            }
        }
    }

    /// Display text for explain output.
    pub fn describe(&self) -> String {
        match &self.kind {
            PreparedKind::Phrase { tokens, .. } => tokens.join(" "),
            PreparedKind::All {
                terms,
                window,
                ordered,
                ..
            } => {
                let mut s = format!(
                    "all({})",
                    terms
                        .iter()
                        .map(|t| t.join(" "))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                if let Some(w) = window {
                    s.push_str(&format!(" window {w}"));
                }
                if *ordered {
                    s.push_str(" ordered");
                }
                s
            }
        }
    }
}

/// One task's seek positions for a [`Matcher`]: one per pattern node, in
/// the tag list of the node's tag, and one per token of every keyword
/// predicate, in the token's posting list. The matcher is shared and
/// immutable; each operator probing through it owns a cursor, made by
/// [`Matcher::cursor`], so the positions follow that operator's answers.
/// A position is only ever a starting point for a search, so any value is
/// correct and a good one is fast.
#[derive(Debug, Clone, Default)]
pub(crate) struct Cursor {
    /// Per pattern node (indexed by [`TpqNodeId`]).
    nodes: Vec<usize>,
    /// Per keyword-predicate token ([`PreparedPhrase::slot`] onward).
    tokens: Vec<usize>,
}

impl Cursor {
    /// The token positions of `phrase` (empty when the cursor belongs to
    /// another matcher: the probe then starts from position 0).
    fn tokens_of(&mut self, phrase: &PreparedPhrase) -> &mut [usize] {
        let end = phrase.slot.saturating_add(phrase.kind.width());
        self.tokens.get_mut(phrase.slot..end).unwrap_or_default()
    }

    /// The elements of `list` (the tag list of `node`'s tag) strictly
    /// inside `scope`, seeking from `node`'s position.
    fn within<'a>(
        &mut self,
        node: TpqNodeId,
        list: &'a [ElemEntry],
        scope: &ElemEntry,
    ) -> &'a [ElemEntry] {
        let mut spare = 0;
        let at = self.nodes.get_mut(node.0 as usize).unwrap_or(&mut spare);
        within(list, at, scope.doc, scope.start, scope.end)
    }
}

/// A required predicate of one pattern node.
#[derive(Debug)]
enum Check {
    /// A keyword predicate: index into [`Matcher::phrases`].
    Keyword(usize),
    /// `content relOp value`.
    Compare(RelOp, Value),
}

/// What matching one pattern node needs, compiled at matcher build.
#[derive(Debug)]
struct NodeTable {
    tag: CompiledTag,
    /// Axis of the edge from the node's parent.
    axis: Axis,
    /// The required predicates, in predicate order.
    checks: Vec<Check>,
    /// The required children; optional branches are the SR joins' part.
    children: Vec<TpqNodeId>,
}

/// Precompiled matcher for one personalized query.
#[derive(Debug)]
pub struct Matcher {
    pq: PersonalizedQuery,
    /// Every keyword predicate, required and optional, in
    /// `(node, predicate index)` order.
    phrases: Vec<PreparedPhrase>,
    /// Per pattern node (indexed by [`TpqNodeId`]).
    nodes: Vec<NodeTable>,
    /// Root → distinguished node path.
    path: Vec<TpqNodeId>,
    /// Token positions a [`Cursor`] holds: the phrases' widths summed.
    token_slots: usize,
}

impl Matcher {
    /// Compile `pq`: tokenize its keyword predicates and resolve its tag
    /// tests against `db` (any segment carrying the whole corpus symbol
    /// table), and fix every predicate's `nidf` — hence its exact score
    /// ceiling — from statistics summed over `corpus`, the inverted index
    /// of every segment the matcher will run against. The sums are taken
    /// here, once per compile; the matcher keeps only the resulting
    /// weights, which is what makes it valid for every segment.
    pub fn new(db: &Database, pq: PersonalizedQuery, corpus: &[&InvertedIndex]) -> Self {
        let mut phrases = Vec::new();
        let mut nodes = Vec::new();
        let mut token_slots = 0;
        for id in pq.tpq.node_ids() {
            let node = pq.tpq.node(id);
            let mut checks = Vec::new();
            for (i, p) in node.predicates.iter().enumerate() {
                let required = !pq.pred_is_optional(id, i);
                let weight = pq.pred_weight(id, i);
                let (kind, bound) = match p {
                    Predicate::FtContains { phrase } => {
                        let tokens = db.inverted.analyze(phrase);
                        let nidf = score::nidf(corpus, &tokens);
                        (PreparedKind::Phrase { tokens, nidf }, nidf * weight)
                    }
                    Predicate::FtAll {
                        terms,
                        window,
                        ordered,
                    } => {
                        let term_tokens: Vec<Vec<String>> =
                            terms.iter().map(|t| db.inverted.analyze(t)).collect();
                        let nidfs: Vec<f64> =
                            term_tokens.iter().map(|t| score::nidf(corpus, t)).collect();
                        let bound =
                            weight * nidfs.iter().sum::<f64>() / term_tokens.len().max(1) as f64;
                        let kind = PreparedKind::All {
                            terms: term_tokens,
                            nidfs,
                            window: *window,
                            ordered: *ordered,
                        };
                        (kind, bound)
                    }
                    Predicate::Compare { op, value } => {
                        if required {
                            checks.push(Check::Compare(*op, value.clone()));
                        }
                        continue;
                    }
                };
                if required {
                    checks.push(Check::Keyword(phrases.len()));
                }
                let slot = token_slots;
                token_slots += kind.width();
                phrases.push(PreparedPhrase {
                    node: id,
                    idx: i,
                    kind,
                    bound,
                    weight,
                    slot,
                });
            }
            let tag = match &node.tag {
                TagTest::Star => CompiledTag::Star,
                TagTest::Name(name) => match db.coll.symbols().get(name) {
                    Some(sym) => CompiledTag::Sym(sym),
                    None => CompiledTag::Unmatchable,
                },
            };
            let children = node
                .children
                .iter()
                .copied()
                .filter(|c| !pq.optional_nodes.contains(c))
                .collect();
            nodes.push(NodeTable {
                tag,
                axis: node.axis,
                checks,
                children,
            });
        }
        let mut path = vec![pq.tpq.distinguished()];
        let mut cursor = pq.tpq.distinguished();
        while let Some(p) = pq.tpq.node(cursor).parent {
            path.push(p);
            cursor = p;
        }
        path.reverse();
        Matcher {
            pq,
            phrases,
            nodes,
            path,
            token_slots,
        }
    }

    /// The personalized query being matched.
    pub fn personalized(&self) -> &PersonalizedQuery {
        &self.pq
    }

    /// The distinguished node's tag name (what the bottom scan iterates).
    pub fn distinguished_tag(&self) -> Option<&str> {
        self.pq.tpq.node(self.pq.tpq.distinguished()).tag.name()
    }

    /// A fresh cursor for probing through this matcher, every position
    /// at the start of its list.
    pub(crate) fn cursor(&self) -> Cursor {
        Cursor {
            nodes: vec![0; self.nodes.len()],
            tokens: vec![0; self.token_slots],
        }
    }

    /// All *optional* keyword predicates, each a score contributor realized
    /// as an `SrPredJoin` in the plan.
    pub fn optional_keywords(&self) -> Vec<PreparedPhrase> {
        self.phrases
            .iter()
            .filter(|p| self.pq.pred_is_optional(p.node, p.idx))
            .cloned()
            .collect()
    }

    fn table(&self, nid: TpqNodeId) -> Option<&NodeTable> {
        self.nodes.get(nid.0 as usize)
    }

    fn tag_of(&self, nid: TpqNodeId) -> Option<CompiledTag> {
        self.table(nid).map(|t| t.tag)
    }

    /// Does `elem` match the required part? Returns the base `S` if so.
    /// `ft_probes` counts keyword containment checks for the stats.
    pub fn match_answer(
        &self,
        db: &Database,
        elem: &ElemEntry,
        ft_probes: &mut u64,
    ) -> Option<f64> {
        self.match_at(db, elem, &mut self.cursor(), ft_probes)
    }

    /// [`Matcher::match_answer`], seeking from `cur`'s positions.
    pub(crate) fn match_at(
        &self,
        db: &Database,
        elem: &ElemEntry,
        cur: &mut Cursor,
        ft_probes: &mut u64,
    ) -> Option<f64> {
        // Downward: the distinguished node's own subtree.
        let down = self.embed_down(db, self.pq.tpq.distinguished(), elem, cur, ft_probes)?;
        // Upward: assign the ancestors along the root path.
        let last = self.path.len().checked_sub(1)?;
        let up = self.match_up(db, last, elem, cur, ft_probes)?;
        Some(down + up)
    }

    /// Local check of one pattern node at `elem`: tag and required
    /// predicates; returns the node's own required-keyword score.
    fn check_local(
        &self,
        db: &Database,
        nid: TpqNodeId,
        elem: &ElemEntry,
        cur: &mut Cursor,
        ft_probes: &mut u64,
    ) -> Option<f64> {
        let table = self.table(nid)?;
        match table.tag {
            CompiledTag::Star => {}
            CompiledTag::Sym(want) if want == elem.tag => {}
            _ => return None,
        }
        let mut score = 0.0;
        for check in &table.checks {
            match check {
                Check::Keyword(i) => {
                    let phrase = self.phrases.get(*i)?;
                    *ft_probes += 1;
                    score += phrase.probe(db, elem, cur.tokens_of(phrase))?;
                }
                Check::Compare(op, value) => {
                    if !compare_content(db, elem.elem_ref(), *op, value) {
                        return None;
                    }
                }
            }
        }
        Some(score)
    }

    /// Embed the required subtree rooted at `nid` with `nid ↦ elem`.
    fn embed_down(
        &self,
        db: &Database,
        nid: TpqNodeId,
        elem: &ElemEntry,
        cur: &mut Cursor,
        ft_probes: &mut u64,
    ) -> Option<f64> {
        let mut score = self.check_local(db, nid, elem, cur, ft_probes)?;
        for &child in &self.table(nid)?.children {
            score += self.find_child_match(db, child, elem, cur, ft_probes)?;
        }
        Some(score)
    }

    /// Best-scoring element for pattern child `child` under `parent_elem`.
    fn find_child_match(
        &self,
        db: &Database,
        child: TpqNodeId,
        parent_elem: &ElemEntry,
        cur: &mut Cursor,
        ft_probes: &mut u64,
    ) -> Option<f64> {
        let table = self.table(child)?;
        let mut best: Option<f64> = None;
        let mut consider = |cand: &ElemEntry, cur: &mut Cursor, probes: &mut u64| {
            if let Some(s) = self.embed_down(db, child, cand, cur, probes) {
                best = Some(best.map_or(s, |b: f64| b.max(s)));
            }
        };
        match (table.tag, table.axis) {
            (CompiledTag::Sym(sym), axis) => {
                // Both axes read the tag list: a child is a descendant one
                // level down.
                let inside = cur.within(child, db.tags.elements(sym), parent_elem);
                for cand in inside {
                    if axis == Axis::Child && cand.level.checked_sub(1) != Some(parent_elem.level) {
                        continue;
                    }
                    consider(cand, cur, ft_probes);
                }
            }
            (CompiledTag::Star, Axis::Child) => {
                let doc = db.coll.doc(parent_elem.doc);
                for c in nav::child_elements(doc, parent_elem.node) {
                    consider(&entry_of(db, parent_elem.doc, c), cur, ft_probes);
                }
            }
            (CompiledTag::Star, Axis::Descendant) => {
                let doc = db.coll.doc(parent_elem.doc);
                for c in doc.descendant_elements(parent_elem.node) {
                    consider(&entry_of(db, parent_elem.doc, c), cur, ft_probes);
                }
            }
            (CompiledTag::Unmatchable, _) => {}
        }
        best
    }

    /// Assign elements to the root-path ancestors of the distinguished
    /// node: `path[idx]` is mapped to `elem`; choose matching ancestors for
    /// `path[..idx]` recursively, maximizing branch scores.
    fn match_up(
        &self,
        db: &Database,
        idx: usize,
        elem: &ElemEntry,
        cur: &mut Cursor,
        ft_probes: &mut u64,
    ) -> Option<f64> {
        let nid = *self.path.get(idx)?;
        let table = self.table(nid)?;
        // Branch subtrees hanging off path[idx] (its non-path required
        // children) must embed under `elem` — except off the distinguished
        // node, whose whole subtree `embed_down` has matched already.
        let mut score = 0.0;
        if let Some(&next_on_path) = self.path.get(idx + 1) {
            for &child in &table.children {
                if child != next_on_path {
                    score += self.find_child_match(db, child, elem, cur, ft_probes)?;
                }
            }
        }
        if idx == 0 {
            // Root anchoring: Child-anchored root must be the document root.
            if table.axis == Axis::Child && db.coll.doc(elem.doc).root() != elem.node {
                return None;
            }
            return Some(score);
        }
        // Choose an element for path[idx - 1] among elem's ancestors.
        let doc = db.coll.doc(elem.doc);
        let parent_nid = *self.path.get(idx - 1)?;
        let candidates: Vec<NodeId> = match table.axis {
            Axis::Child => doc.node(elem.node).parent.into_iter().collect(),
            Axis::Descendant => nav::ancestors(doc, elem.node).collect(),
        };
        let mut best: Option<f64> = None;
        for anc in candidates {
            let cand = entry_of(db, elem.doc, anc);
            if let Some(local) = self.check_local(db, parent_nid, &cand, cur, ft_probes) {
                if let Some(up) = self.match_up(db, idx - 1, &cand, cur, ft_probes) {
                    let total = local + up;
                    best = Some(best.map_or(total, |b: f64| b.max(total)));
                }
            }
        }
        best.map(|b| b + score)
    }

    /// Evaluate an optional keyword predicate "near" an answer: on the
    /// answer itself when the predicate sits on the distinguished node or
    /// one of its pattern ancestors (resolved through the answer's element
    /// ancestors), otherwise on the best-scoring element with the
    /// predicate-node's tag inside the enclosing scope. Returns the score
    /// contribution (0.0 when absent — outer-join semantics).
    pub fn eval_pred_near(
        &self,
        db: &Database,
        phrase: &PreparedPhrase,
        answer: &ElemEntry,
        ft_probes: &mut u64,
    ) -> f64 {
        self.eval_pred_near_at(db, phrase, answer, &mut self.cursor(), ft_probes)
    }

    /// [`Matcher::eval_pred_near`], seeking from `cur`'s positions.
    pub(crate) fn eval_pred_near_at(
        &self,
        db: &Database,
        phrase: &PreparedPhrase,
        answer: &ElemEntry,
        cur: &mut Cursor,
        ft_probes: &mut u64,
    ) -> f64 {
        *ft_probes += 1;
        let score = |cur: &mut Cursor, e: &ElemEntry| {
            phrase.probe(db, e, cur.tokens_of(phrase)).unwrap_or(0.0)
        };
        let node = phrase.node;
        let dist = self.pq.tpq.distinguished();
        // Case 1: on the distinguished node itself.
        if node == dist {
            return score(cur, answer);
        }
        // Case 2: on a pattern ancestor of the distinguished node.
        if self.path.contains(&node) {
            if let Some(CompiledTag::Sym(sym)) = self.tag_of(node) {
                let doc = db.coll.doc(answer.doc);
                if let Some(anc) = nav::ancestor_or_self_with_tag(doc, answer.node, sym) {
                    return score(cur, &entry_of(db, answer.doc, anc));
                }
            }
            return 0.0;
        }
        // Case 3: a branch node — search within the scope of its deepest
        // path ancestor.
        let scope = self.branch_scope(db, node, answer);
        let Some(scope) = scope else { return 0.0 };
        let Some(CompiledTag::Sym(sym)) = self.tag_of(node) else {
            return 0.0;
        };
        let mut best = 0.0f64;
        for cand in cur.within(node, db.tags.elements(sym), &scope) {
            best = best.max(score(cur, cand));
        }
        // The scope element itself may carry the tag.
        if scope.tag == sym {
            best = best.max(score(cur, &scope));
        }
        best
    }

    /// Element corresponding to the deepest root-path pattern ancestor of
    /// `node`, resolved against `answer`'s ancestors-or-self by tag.
    fn branch_scope(
        &self,
        db: &Database,
        node: TpqNodeId,
        answer: &ElemEntry,
    ) -> Option<ElemEntry> {
        let tpq = &self.pq.tpq;
        let mut cur = tpq.node(node).parent;
        let anchor = loop {
            let c = cur?;
            if self.path.contains(&c) {
                break c;
            }
            cur = tpq.node(c).parent;
        };
        let Some(CompiledTag::Sym(sym)) = self.tag_of(anchor) else {
            return None;
        };
        let doc = db.coll.doc(answer.doc);
        let anc = nav::ancestor_or_self_with_tag(doc, answer.node, sym)?;
        Some(entry_of(db, answer.doc, anc))
    }
}

/// Build an [`ElemEntry`] for an element node.
pub fn entry_of(db: &Database, doc: pimento_index::DocId, node: NodeId) -> ElemEntry {
    let n = db.coll.doc(doc).node(node);
    debug_assert!(matches!(n.kind, NodeKind::Element { .. }));
    ElemEntry {
        doc,
        node,
        // Only elements are entries; no symbol table reaches `u32::MAX`.
        tag: n.tag().unwrap_or(SymbolId(u32::MAX)),
        start: n.start,
        end: n.end,
        level: n.level,
    }
}

/// Evaluate `content relOp value` on the element's text content.
pub fn compare_content(db: &Database, elem: ElemRef, op: RelOp, value: &Value) -> bool {
    let content = content_value(&db.coll, elem);
    match (content, value) {
        (FieldValue::Num(a), Value::Num(b)) => op.eval_num(a, *b),
        (FieldValue::Str(a), Value::Str(b)) => match op {
            RelOp::Eq => a.eq_ignore_ascii_case(b),
            RelOp::Ne => !a.eq_ignore_ascii_case(b),
            RelOp::Lt => a.to_lowercase() < b.to_lowercase(),
            RelOp::Le => a.to_lowercase() <= b.to_lowercase(),
            RelOp::Gt => a.to_lowercase() > b.to_lowercase(),
            RelOp::Ge => a.to_lowercase() >= b.to_lowercase(),
        },
        (FieldValue::Str(a), Value::Num(b)) => a
            .trim()
            .parse::<f64>()
            .map(|n| op.eval_num(n, *b))
            .unwrap_or(false),
        (FieldValue::Num(a), Value::Str(b)) => b
            .trim()
            .parse::<f64>()
            .map(|n| op.eval_num(a, n))
            .unwrap_or(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_index::Collection;
    use pimento_profile::PersonalizedQuery;
    use pimento_tpq::parse_tpq;

    fn db(xml: &str) -> Database {
        let mut coll = Collection::new();
        coll.add_xml(xml).unwrap();
        Database::index_plain(coll)
    }

    fn matcher(db: &Database, query: &str) -> Matcher {
        Matcher::new(
            db,
            PersonalizedQuery::unpersonalized(parse_tpq(query).unwrap()),
            &[&db.inverted],
        )
    }

    fn candidates(db: &Database, m: &Matcher) -> Vec<(ElemEntry, f64)> {
        let mut probes = 0;
        let entries: Vec<ElemEntry> = match m.distinguished_tag().and_then(|t| db.coll.tag(t)) {
            Some(sym) => db.tags.elements(sym).to_vec(),
            None => db
                .coll
                .iter()
                .flat_map(|(doc_id, doc)| {
                    let db = &db;
                    doc.node_ids()
                        .filter(move |&n| doc.node(n).tag().is_some())
                        .map(move |n| entry_of(db, doc_id, n))
                })
                .collect(),
        };
        entries
            .into_iter()
            .filter_map(|e| m.match_answer(db, &e, &mut probes).map(|s| (e, s)))
            .collect()
    }

    const DEALER: &str = r#"<dealer>
        <car><description>good condition low mileage</description><price>500</price><color>red</color></car>
        <car><description>good condition</description><price>3000</price></car>
        <car><description>needs work</description><price>100</price></car>
    </dealer>"#;

    #[test]
    fn paper_query_q_matches_first_car_only() {
        let db = db(DEALER);
        let m = matcher(
            &db,
            r#"//car[./description[ftcontains(., "good condition") and ftcontains(., "low mileage")] and ./price < 2000]"#,
        );
        let found = candidates(&db, &m);
        assert_eq!(found.len(), 1);
        assert!(found[0].1 > 0.0, "keyword predicates contribute to S");
    }

    #[test]
    fn a_required_branch_of_the_distinguished_node_is_scored_once() {
        let db = db("<r><p><b>yes</b></p></r>");
        let s_and_probes = |query: &str| {
            let m = matcher(&db, query);
            let sym = db.coll.tag(m.distinguished_tag().unwrap()).unwrap();
            let mut probes = 0;
            let s = m.match_answer(&db, &db.tags.elements(sym)[0], &mut probes);
            (s.unwrap(), probes)
        };
        let (branch, branch_probes) = s_and_probes(r#"//p[ftcontains(./b, "yes")]"#);
        let (own, own_probes) = s_and_probes(r#"//b[ftcontains(., "yes")]"#);
        assert!(own > 0.0);
        assert_eq!(branch.to_bits(), own.to_bits(), "{branch} vs {own}");
        assert_eq!((branch_probes, own_probes), (1, 1));
    }

    #[test]
    fn price_constraint_filters() {
        let db = db(DEALER);
        let m = matcher(&db, "//car[./price < 2000]");
        assert_eq!(candidates(&db, &m).len(), 2);
        let m = matcher(&db, "//car[./price >= 3000]");
        assert_eq!(candidates(&db, &m).len(), 1);
    }

    #[test]
    fn descendant_axis_and_upward_path() {
        let db = db(DEALER);
        // Distinguished node is price; ancestors must include car & dealer.
        let m = matcher(&db, "/dealer//car/price[. < 200]");
        let found = candidates(&db, &m);
        assert_eq!(found.len(), 1);
        assert_eq!(db.coll.text_content(found[0].0.elem_ref()), "100");
    }

    #[test]
    fn root_anchoring_enforced() {
        let db = db(DEALER);
        let m = matcher(&db, "/car");
        assert!(
            candidates(&db, &m).is_empty(),
            "car is not the document root"
        );
        let m = matcher(&db, "/dealer");
        assert_eq!(candidates(&db, &m).len(), 1);
    }

    #[test]
    fn ancestor_keyword_contributes_score() {
        let db = db(
            r#"<j><article><au>Jiawei Han</au><abs>data mining methods</abs></article>
               <article><au>Someone Else</au><abs>data mining here</abs></article></j>"#,
        );
        let m = matcher(
            &db,
            r#"//article[about(.//au, "Jiawei Han")]//abs[about(., "data mining")]"#,
        );
        let found = candidates(&db, &m);
        assert_eq!(found.len(), 1, "only Han's abstract qualifies");
    }

    #[test]
    fn star_patterns() {
        let db = db(DEALER);
        let m = matcher(&db, "//car/*");
        let found = candidates(&db, &m);
        assert_eq!(found.len(), 7); // description+price per car, plus one color
    }

    #[test]
    fn optional_branch_skipped_in_required_match() {
        let db = db(DEALER);
        let q = parse_tpq(r#"//car[./price < 2000]"#).unwrap();
        let mut pq = PersonalizedQuery::unpersonalized(q);
        // Add an optional node with an impossible tag — must not filter.
        let extra = pq
            .tpq
            .add_child(pq.tpq.root(), pimento_tpq::Axis::Child, "nonexistent");
        pq.optional_nodes.insert(extra);
        let m = Matcher::new(&db, pq, &[&db.inverted]);
        assert_eq!(candidates(&db, &m).len(), 2);
    }

    #[test]
    fn optional_pred_skipped_but_scored_nearby() {
        let db = db(DEALER);
        let q = parse_tpq(r#"//car[./description[ftcontains(., "good condition")]]"#).unwrap();
        let mut pq = PersonalizedQuery::unpersonalized(q);
        let d = pq.tpq.find_by_tag("description").unwrap();
        pq.tpq.add_predicate(d, Predicate::ft("low mileage"));
        pq.optional_preds.insert((d, 1));
        let m = Matcher::new(&db, pq, &[&db.inverted]);
        let found = candidates(&db, &m);
        assert_eq!(found.len(), 2, "optional predicate does not filter");
        // Evaluate the optional predicate near each answer.
        let opt = m.optional_keywords();
        assert_eq!(opt.len(), 1);
        let mut probes = 0;
        let scores: Vec<f64> = found
            .iter()
            .map(|(e, _)| m.eval_pred_near(&db, &opt[0], e, &mut probes))
            .collect();
        assert!(scores[0] > 0.0, "first car has low mileage");
        assert_eq!(scores[1], 0.0, "second car does not");
    }

    #[test]
    fn eval_pred_near_on_distinguished_and_ancestor() {
        let db = db(r#"<a><b>alpha beta</b></a>"#);
        // Pred on distinguished:
        let q = parse_tpq("//b").unwrap();
        let mut pq = PersonalizedQuery::unpersonalized(q);
        pq.tpq.add_predicate(pq.tpq.root(), Predicate::ft("alpha"));
        pq.optional_preds.insert((pq.tpq.root(), 0));
        let m = Matcher::new(&db, pq, &[&db.inverted]);
        let b = db.coll.tag("b").unwrap();
        let elem = db.tags.elements(b)[0];
        let opt = m.optional_keywords();
        let mut probes = 0;
        assert!(m.eval_pred_near(&db, &opt[0], &elem, &mut probes) > 0.0);
        // Pred on an ancestor (a) of distinguished (b):
        let q2 = parse_tpq("//a/b").unwrap();
        let mut pq2 = PersonalizedQuery::unpersonalized(q2);
        pq2.tpq.add_predicate(pq2.tpq.root(), Predicate::ft("beta"));
        pq2.optional_preds.insert((pq2.tpq.root(), 0));
        let m2 = Matcher::new(&db, pq2, &[&db.inverted]);
        let opt2 = m2.optional_keywords();
        assert!(m2.eval_pred_near(&db, &opt2[0], &elem, &mut probes) > 0.0);
    }

    #[test]
    fn compare_content_string_and_coercion() {
        let db = db("<a><x>red</x><y>42</y></a>");
        let x = db.coll.tag("x").unwrap();
        let y = db.coll.tag("y").unwrap();
        let ex = db.tags.elements(x)[0].elem_ref();
        let ey = db.tags.elements(y)[0].elem_ref();
        assert!(compare_content(
            &db,
            ex,
            RelOp::Eq,
            &Value::Str("Red".into())
        ));
        assert!(compare_content(
            &db,
            ex,
            RelOp::Ne,
            &Value::Str("blue".into())
        ));
        assert!(compare_content(&db, ey, RelOp::Lt, &Value::Num(100.0)));
        assert!(!compare_content(&db, ey, RelOp::Gt, &Value::Num(100.0)));
        assert!(compare_content(
            &db,
            ey,
            RelOp::Eq,
            &Value::Str("42".into())
        ));
    }
}
