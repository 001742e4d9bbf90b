//! OR-aware `topkPrune` (paper §6.3, Algorithms 1–3).
//!
//! The operator maintains a list of the current top-k answers and lets an
//! incoming answer pass only when it cannot be *proven* to miss the final
//! top k. The proof uses two exact bounds over the plan suffix above the
//! operator:
//!
//! * `query_scorebound` — the maximum `S` any answer can still gain
//!   (sum of the remaining optional-predicate score ceilings), and
//! * `kor_scorebound` — the maximum `K` it can still gain (sum of the
//!   remaining KOR weights) — the quantity Algorithm 3 introduces.
//!
//! **Algorithm selection is positional**: a prune below every `kor` uses
//! the full `kor_scorebound` (Algorithm 3); one above all `kor`s but with
//! VORs applied compares `≺_V` first (Algorithm 2); with no ORs at all the
//! check degenerates to Algorithm 1's `a.S + bound < kth.S`.
//!
//! One deviation from the paper's pseudocode, for soundness under *partial*
//! orders: Algorithm 2 prunes `a` when `kth ≺_V a`. With genuinely
//! incomparable answers in the list this can discard an answer that a
//! linear extension would still rank in the top k. We therefore prune only
//! when **every** list member *certainly outranks* `a` (on `K` bounds, then
//! `≺_V`, then `S` bounds). For total preorders — every ambiguity-resolved
//! single-attribute VOR set, e.g. the paper's π5 — the two conditions
//! coincide, and the check degenerates to exactly the paper's Algorithms
//! 1 and 3 when the respective components are absent.
//!
//! With **sorted input** (the `S-ILtpkP` and final-prune positions), one
//! pruned answer implies every later answer is prunable too, so the
//! operator stops its input early — the paper's *bulk pruning*. Bulk
//! pruning is disabled when `≺_V` participates mid-plan, because dominance
//! is not monotone along the sort order.

use crate::answer::Answer;
use crate::context::{Database, ExecStats};
use crate::ops::{BoxedOp, Operator};
use crate::rank::{cmp_f64_desc, RankContext};
use pimento_profile::{RankOrder, VorOutcome};
use std::cmp::Ordering;
use std::sync::Arc;

/// Configuration of one `topkPrune` placement.
#[derive(Debug, Clone, PartialEq)]
pub struct TopkConfig {
    /// How many answers the user wants.
    pub k: usize,
    /// Exact max `S` still addable above this operator.
    pub query_scorebound: f64,
    /// Exact max `K` still addable above this operator.
    pub kor_scorebound: f64,
    /// Compare `≺_V` (only valid above the `vor` operator).
    pub use_v: bool,
    /// Input arrives sorted by the final ranking order → bulk pruning.
    pub sorted_input: bool,
    /// Emit at most `k` answers and stop (the final prune at the plan
    /// root; requires `sorted_input` and zero bounds).
    pub last: bool,
}

impl TopkConfig {
    /// A final prune: sorted input, no remaining bounds, cut at `k`.
    pub fn final_prune(k: usize) -> Self {
        TopkConfig {
            k,
            query_scorebound: 0.0,
            kor_scorebound: 0.0,
            use_v: true,
            sorted_input: true,
            last: true,
        }
    }
}

/// The `topkPrune` operator.
pub struct TopkPrune {
    input: BoxedOp,
    cfg: TopkConfig,
    rank: Arc<RankContext>,
    /// Current top-k candidates, best first by current values.
    list: Vec<Answer>,
    emitted: u64,
    done: bool,
}

impl TopkPrune {
    /// Wrap `input`.
    pub fn new(input: BoxedOp, rank: Arc<RankContext>, cfg: TopkConfig) -> Self {
        TopkPrune {
            input,
            cfg,
            rank,
            list: Vec::new(),
            emitted: 0,
            done: false,
        }
    }

    /// Current-value comparator used to keep the threshold list ordered,
    /// following the configured rank order (`K,V,S` or `V,K,S`); a `≺_V`
    /// tie or incomparability falls through to the next component.
    fn current_cmp(&self, a: &Answer, b: &Answer, stats: &mut ExecStats) -> Ordering {
        let by_v = |this: &Self, stats: &mut ExecStats| -> Ordering {
            if !this.cfg.use_v {
                return Ordering::Equal;
            }
            match this.rank.vor_compare(a, b, stats) {
                VorOutcome::PreferA => Ordering::Less,
                VorOutcome::PreferB => Ordering::Greater,
                VorOutcome::Equal | VorOutcome::Incomparable => Ordering::Equal,
            }
        };
        let primary = match self.rank.order {
            RankOrder::Kvs => cmp_f64_desc(a.k, b.k).then_with(|| by_v(self, stats)),
            RankOrder::Vks => by_v(self, stats).then_with(|| cmp_f64_desc(a.k, b.k)),
        };
        primary
            .then_with(|| cmp_f64_desc(a.s, b.s))
            .then_with(|| a.tiebreak().cmp(&b.tiebreak()))
    }

    /// Does list member `m` certainly rank above `a` in the final order,
    /// whatever scores the plan suffix still adds?
    ///
    /// * `K` is bounded: `m` final ≥ `m.k`, `a` final ≤ `a.k + kb`.
    /// * `≺_V` is stable once fetched; **unknown V blocks certainty** when
    ///   VORs exist and could still reorder the pair (the fix Algorithm 2
    ///   makes to Algorithm 1).
    /// * `S` is bounded by `sb` and only decides once the higher-priority
    ///   components are certainly tied.
    fn certainly_outranks(&self, m: &Answer, a: &Answer, stats: &mut ExecStats) -> bool {
        let kb = self.cfg.kor_scorebound;
        let sb = self.cfg.query_scorebound;
        // Certainty on the K component: Win (m always higher), Tie (can
        // only tie, and only if the suffix maximally favours a), or
        // unknown (no certainty at all).
        let k_win = m.k > a.k + kb;
        let k_tie = m.k == a.k + kb;
        let s_win = m.s > a.s + sb;
        // Under K,V,S the K component decides alone unless it can only
        // tie, so `≺_V` is consulted on a K tie and nowhere else.
        if self.rank.order == RankOrder::Kvs && (k_win || !k_tie) {
            return k_win;
        }
        // With the V component certainly tied, K then S decide.
        let below_v = k_win || (k_tie && s_win);
        if self.rank.vors.is_empty() {
            return below_v;
        }
        if !self.cfg.use_v {
            return false;
        }
        match self.rank.vor_compare(m, a, stats) {
            VorOutcome::PreferA => true,
            VorOutcome::Equal => below_v,
            VorOutcome::PreferB | VorOutcome::Incomparable => false,
        }
    }

    /// Insert `a` into the threshold list if it beats the current k-th.
    fn maybe_insert(&mut self, a: &Answer, stats: &mut ExecStats) {
        if self.list.len() < self.cfg.k {
            let pos = self.insertion_point(a, stats);
            self.list.insert(pos, a.clone());
            return;
        }
        let kth_idx = self.cfg.k - 1;
        let Some(kth) = self.list.get(kth_idx) else {
            return;
        };
        let cmp = self.current_cmp(a, kth, stats);
        if cmp == Ordering::Less {
            // a ranks above the current kth: insert, drop the kth from the
            // list (it stays in the flow — Algorithms 1–3, lines "kth
            // answer is no longer in topkList / keep kth in the flow").
            let pos = self.insertion_point(a, stats);
            self.list.insert(pos, a.clone());
            self.list.truncate(self.cfg.k);
        }
    }

    fn insertion_point(&mut self, a: &Answer, stats: &mut ExecStats) -> usize {
        let list = std::mem::take(&mut self.list);
        let mut pos = list.len();
        for (i, m) in list.iter().enumerate() {
            // Re-borrow self immutably per comparison.
            if self.current_cmp(a, m, stats) == Ordering::Less {
                pos = i;
                break;
            }
        }
        self.list = list;
        pos
    }

    /// The prune decision for one incoming answer.
    fn prunable(&mut self, a: &Answer, stats: &mut ExecStats) -> bool {
        if self.list.len() < self.cfg.k {
            return false;
        }
        let list = std::mem::take(&mut self.list);
        // A conjunction, so the order of the scan cannot change the
        // decision; the worst member is the likeliest to fail it, so an
        // answer that must pass exits on the first comparison.
        let all_outrank = list
            .iter()
            .rev()
            .all(|m| self.certainly_outranks(m, a, stats));
        self.list = list;
        all_outrank
    }
}

impl Operator for TopkPrune {
    fn next(&mut self, db: &Database, stats: &mut ExecStats) -> Option<Answer> {
        if self.done {
            return None;
        }
        loop {
            if self.cfg.last && self.emitted >= self.cfg.k as u64 {
                // Final prune: k answers delivered — bulk-prune the rest.
                self.done = true;
                stats.bulk_pruned += 1;
                return None;
            }
            let Some(a) = self.input.next(db, stats) else {
                self.done = true;
                return None;
            };
            if self.prunable(&a, stats) {
                stats.pruned += 1;
                if self.cfg.sorted_input && !self.cfg.use_v {
                    // Bulk pruning: every later answer ranks no better.
                    self.done = true;
                    stats.bulk_pruned += 1;
                    return None;
                }
                continue;
            }
            self.maybe_insert(&a, stats);
            self.emitted += 1;
            return Some(a);
        }
    }

    fn describe(&self) -> String {
        format!(
            "topkPrune(k={}, kor_bound={:.2}, s_bound={:.2}, V={}, sorted={}{}) -> {}",
            self.cfg.k,
            // +0.0 normalizes IEEE negative zero for display.
            self.cfg.kor_scorebound + 0.0,
            self.cfg.query_scorebound + 0.0,
            self.cfg.use_v,
            self.cfg.sorted_input,
            if self.cfg.last { ", last" } else { "" },
            self.input.describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_index::{Collection, DocId, ElemEntry};
    use pimento_profile::{AttrValue, RankOrder, ValueOrderingRule};
    use pimento_xml::NodeId;

    /// A stub source yielding preset answers.
    struct Stub(Vec<Answer>, usize);
    impl Operator for Stub {
        fn next(&mut self, _db: &Database, _stats: &mut ExecStats) -> Option<Answer> {
            let a = self.0.get(self.1).cloned();
            self.1 += 1;
            a
        }
        fn describe(&self) -> String {
            "stub".into()
        }
    }

    fn tiny_db() -> Database {
        let mut coll = Collection::new();
        coll.add_xml("<x/>").unwrap();
        Database::index_plain(coll)
    }

    fn mk(start: u32, s: f64, k: f64) -> Answer {
        let elem = ElemEntry {
            doc: DocId(0),
            node: NodeId(0),
            tag: pimento_xml::SymbolId(0),
            start,
            end: start + 1,
            level: 1,
        };
        Answer {
            elem,
            s,
            k,
            vor: None,
        }
    }

    fn mk_v(ctx: &RankContext, start: u32, s: f64, k: f64, color: &str) -> Answer {
        let mut a = mk(start, s, k);
        let key = ctx.make_key("car", |_, attr| {
            (attr == "color").then(|| AttrValue::Str(color.to_string()))
        });
        a.vor = Some(Arc::new(key));
        a
    }

    fn run(op: &mut dyn Operator) -> (Vec<Answer>, ExecStats) {
        let db = tiny_db();
        let mut stats = ExecStats::default();
        let mut out = Vec::new();
        while let Some(a) = op.next(&db, &mut stats) {
            out.push(a);
        }
        (out, stats)
    }

    fn cfg(k: usize, sb: f64, kb: f64, use_v: bool) -> TopkConfig {
        TopkConfig {
            k,
            query_scorebound: sb,
            kor_scorebound: kb,
            use_v,
            sorted_input: false,
            last: false,
        }
    }

    #[test]
    fn algorithm1_prunes_on_s_bound() {
        // k=2, no bounds: third-best and worse get pruned.
        let answers = vec![
            mk(1, 0.9, 0.0),
            mk(2, 0.8, 0.0),
            mk(3, 0.1, 0.0),
            mk(4, 0.05, 0.0),
        ];
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let mut op = TopkPrune::new(Box::new(Stub(answers, 0)), rank, cfg(2, 0.0, 0.0, false));
        let (out, stats) = run(&mut op);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.pruned, 2);
    }

    #[test]
    fn algorithm1_bound_blocks_pruning() {
        // With query_scorebound = 1.0, the weak answer could still catch
        // up — it must pass.
        let answers = vec![mk(1, 0.9, 0.0), mk(2, 0.8, 0.0), mk(3, 0.1, 0.0)];
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let mut op = TopkPrune::new(Box::new(Stub(answers, 0)), rank, cfg(2, 1.0, 0.0, false));
        let (out, stats) = run(&mut op);
        assert_eq!(out.len(), 3);
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn list_smaller_than_k_never_prunes() {
        let answers = vec![mk(1, 0.1, 0.0)];
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let mut op = TopkPrune::new(Box::new(Stub(answers, 0)), rank, cfg(5, 0.0, 0.0, false));
        let (out, stats) = run(&mut op);
        assert_eq!(out.len(), 1);
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn algorithm3_kor_bound_pruning() {
        // kor_scorebound = 0.5: an answer with k=0 against a list of k=1.0
        // answers is provably out (0 + 0.5 < 1.0).
        let answers = vec![mk(1, 0.0, 1.0), mk(2, 0.0, 1.0), mk(3, 0.9, 0.0)];
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let mut op = TopkPrune::new(Box::new(Stub(answers, 0)), rank, cfg(2, 0.0, 0.5, false));
        let (out, stats) = run(&mut op);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn algorithm3_kor_bound_blocks_pruning() {
        // kor_scorebound = 2.0: k=0 answers could still overtake.
        let answers = vec![mk(1, 0.0, 1.0), mk(2, 0.0, 1.0), mk(3, 0.9, 0.0)];
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let mut op = TopkPrune::new(Box::new(Stub(answers, 0)), rank, cfg(2, 0.0, 2.0, false));
        let (out, stats) = run(&mut op);
        assert_eq!(out.len(), 3);
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn kor_tie_falls_through_to_s() {
        // kb = 0, equal K: S decides with sb margin.
        let answers = vec![mk(1, 0.9, 1.0), mk(2, 0.8, 1.0), mk(3, 0.1, 1.0)];
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let mut op = TopkPrune::new(Box::new(Stub(answers, 0)), rank, cfg(2, 0.0, 0.0, false));
        let (out, stats) = run(&mut op);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn algorithm2_vor_dominance_prunes() {
        let red_rule = ValueOrderingRule::prefer_value("pi1", "car", "color", "red");
        let rank = RankContext::new(vec![red_rule], RankOrder::Kvs);
        // Two red answers fill the list; a blue answer with lower S is
        // dominated by both → pruned even though S bound alone would not
        // prune it at sb=0 (S: 0.1 < 0.5 prunes anyway; use S equal to
        // isolate V).
        let answers = vec![
            mk_v(&rank, 1, 0.5, 0.0, "red"),
            mk_v(&rank, 2, 0.5, 0.0, "red"),
            mk_v(&rank, 3, 0.5, 0.0, "blue"),
        ];
        let mut op = TopkPrune::new(Box::new(Stub(answers, 0)), rank, cfg(2, 0.0, 0.0, true));
        let (out, stats) = run(&mut op);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn algorithm2_incomparable_passes() {
        // List holds red cars; an answer *without* a fetched VOR key (or
        // otherwise incomparable) must not be pruned on V grounds when S
        // ties.
        let red_rule = ValueOrderingRule::prefer_value("pi1", "car", "color", "red");
        let rank = RankContext::new(vec![red_rule], RankOrder::Kvs);
        let mut no_key = mk(3, 0.5, 0.0);
        no_key.vor = None;
        let answers = vec![
            mk_v(&rank, 1, 0.5, 0.0, "red"),
            mk_v(&rank, 2, 0.5, 0.0, "red"),
            no_key,
        ];
        let mut op = TopkPrune::new(Box::new(Stub(answers, 0)), rank, cfg(2, 0.0, 0.0, true));
        let (out, stats) = run(&mut op);
        assert_eq!(out.len(), 3);
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn algorithm2_equal_v_falls_to_s() {
        let red_rule = ValueOrderingRule::prefer_value("pi1", "car", "color", "red");
        let rank = RankContext::new(vec![red_rule], RankOrder::Kvs);
        let answers = vec![
            mk_v(&rank, 1, 0.9, 0.0, "red"),
            mk_v(&rank, 2, 0.8, 0.0, "red"),
            mk_v(&rank, 3, 0.1, 0.0, "red"),
        ];
        let mut op = TopkPrune::new(Box::new(Stub(answers, 0)), rank, cfg(2, 0.0, 0.0, true));
        let (out, stats) = run(&mut op);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn bulk_pruning_on_sorted_input() {
        let answers: Vec<Answer> = (0..100)
            .map(|i| mk(i, 1.0 - i as f64 / 100.0, 0.0))
            .collect();
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let mut c = cfg(5, 0.0, 0.0, false);
        c.sorted_input = true;
        let mut op = TopkPrune::new(Box::new(Stub(answers, 0)), rank, c);
        let (out, stats) = run(&mut op);
        assert_eq!(out.len(), 5);
        assert_eq!(stats.pruned, 1, "one prune triggers the early exit");
        assert_eq!(stats.bulk_pruned, 1);
    }

    #[test]
    fn final_prune_emits_exactly_k() {
        let answers: Vec<Answer> = (0..10).map(|i| mk(i, 1.0 - i as f64 / 10.0, 0.0)).collect();
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let mut op = TopkPrune::new(Box::new(Stub(answers, 0)), rank, TopkConfig::final_prune(3));
        let (out, _) = run(&mut op);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].s, 1.0);
    }

    #[test]
    fn final_prune_with_fewer_answers_than_k() {
        let answers = vec![mk(1, 0.5, 0.0)];
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let mut op = TopkPrune::new(
            Box::new(Stub(answers, 0)),
            rank,
            TopkConfig::final_prune(10),
        );
        let (out, _) = run(&mut op);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn kicked_out_kth_stays_in_flow() {
        // A strong late answer displaces the kth; the displaced answer was
        // already emitted downstream (all unpruned answers flow).
        let answers = vec![mk(1, 0.5, 0.0), mk(2, 0.4, 0.0), mk(3, 0.9, 0.0)];
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let mut op = TopkPrune::new(Box::new(Stub(answers, 0)), rank, cfg(2, 0.0, 0.0, false));
        let (out, _) = run(&mut op);
        assert_eq!(
            out.len(),
            3,
            "nothing prunable here; list just tracks the threshold"
        );
    }
}
