//! Plan generation (paper §6.2, Fig. 4 and §7.2): assembling the operators
//! into the four evaluated strategies.
//!
//! * **NtpkP** (NaiveTopkPrune) — `topkPrune` only at the very top, after
//!   the final sort.
//! * **NS-ILtpkP** (InterleaveTopkPrune, unsorted) — additionally prune
//!   after *each* `kor`.
//! * **S-ILtpkP** (InterleaveTopkPrune, sorted) — sort before each
//!   interleaved prune, enabling bulk pruning.
//! * **PtpkP** (PushTopkPrune) — prune pushed all the way down: directly
//!   above the query evaluation (using the full `kor-scorebound` and the
//!   SR score bound) and again after each `kor`.
//!
//! All four produce identical top-k answers (the bounds make pruning
//! safe); they differ only in how much intermediate work survives — which
//! is exactly what Figures 6 and 7 measure.

use crate::context::{Database, ExecStats};
use crate::eval::Matcher;
use crate::ops::{BoxedOp, KorJoin, QueryEval, Sort, SrPredJoin, VorFetch};
use crate::rank::RankContext;
use crate::topk::{TopkConfig, TopkPrune};
use crate::trace::{new_registry, traced, TraceRegistry};
use pimento_profile::KeywordOrderingRule;
use std::sync::Arc;

/// Which of the paper's four plans to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStrategy {
    /// `NtpkP`: prune only at the top.
    Naive,
    /// `NS-ILtpkP`: prune after each `kor`, unsorted.
    InterleaveUnsorted,
    /// `S-ILtpkP`: sort + prune after each `kor` (bulk pruning).
    InterleaveSorted,
    /// `PtpkP`: prune pushed below the `kor`s too.
    Push,
}

impl PlanStrategy {
    /// The paper's abbreviation for the strategy.
    pub fn paper_name(&self) -> &'static str {
        match self {
            PlanStrategy::Naive => "NtpkP",
            PlanStrategy::InterleaveUnsorted => "NS-ILtpkP",
            PlanStrategy::InterleaveSorted => "S-ILtpkP",
            PlanStrategy::Push => "PtpkP",
        }
    }

    /// All four strategies, in the paper's Fig. 7 order.
    pub fn all() -> [PlanStrategy; 4] {
        [
            PlanStrategy::Naive,
            PlanStrategy::InterleaveUnsorted,
            PlanStrategy::InterleaveSorted,
            PlanStrategy::Push,
        ]
    }
}

/// The option name of a strategy, shared by the CLI's `--strategy` and
/// the protocol's `"strategy"` field: `naive`, `il`, `sil` or `push`.
impl std::str::FromStr for PlanStrategy {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        match name {
            "naive" => Ok(PlanStrategy::Naive),
            "il" => Ok(PlanStrategy::InterleaveUnsorted),
            "sil" => Ok(PlanStrategy::InterleaveSorted),
            "push" => Ok(PlanStrategy::Push),
            other => Err(format!("unknown strategy `{other}` (naive|il|sil|push)")),
        }
    }
}

/// In what order the `kor` operators are applied (§7.2: "applying the KOR
/// which contributes the highest score first is beneficial as it increases
/// the pruning threshold").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KorOrder {
    /// Keep the profile's order.
    #[default]
    AsGiven,
    /// Highest weight first (the paper's recommendation).
    HighestWeightFirst,
    /// Lowest weight first (the adversarial baseline for the ablation).
    LowestWeightFirst,
}

/// Full plan specification.
#[derive(Debug, Clone, Copy)]
pub struct PlanSpec {
    /// Result size.
    pub k: usize,
    /// Pruning strategy.
    pub strategy: PlanStrategy,
    /// KOR application order.
    pub kor_order: KorOrder,
    /// Collect per-operator row/time traces (`EXPLAIN ANALYZE`).
    pub trace: bool,
}

impl PlanSpec {
    /// Spec with the given `k` and strategy, KORs as given.
    pub fn new(k: usize, strategy: PlanStrategy) -> Self {
        PlanSpec {
            k,
            strategy,
            kor_order: KorOrder::AsGiven,
            trace: false,
        }
    }
}

/// One stage of an assembled plan, recorded bottom-to-top while
/// [`assemble`] builds the operator chain. The executable operators are an
/// opaque [`BoxedOp`] chain; this parallel IR is what [`PlanShape::verify`]
/// checks *before* execution (DESIGN.md §9).
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// Bottom candidate scan (`QueryEval`, whole-collection or per-shard).
    Scan,
    /// VOR attribute fetch (`vor`): `≺_V` is decidable above this stage.
    VorFetch,
    /// SR-contributed optional predicate join, adding at most `bound` to
    /// the answer's `S` score.
    SrJoin {
        /// Exact score ceiling of this predicate.
        bound: f64,
    },
    /// KOR join, adding at most `weight` to the answer's `K` score.
    KorJoin {
        /// The rule's weight.
        weight: f64,
    },
    /// Sort by the final ranking order.
    Sort,
    /// `topkPrune` placement with its exact configuration.
    Prune(TopkConfig),
}

/// The statically-checkable shape of an assembled plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanShape {
    /// Stages bottom-to-top (index 0 is the scan, last is the final prune).
    pub stages: Vec<Stage>,
    /// Result size every prune must agree on.
    pub k: usize,
    /// Worker sub-plan for parallel execution: with VORs present it must
    /// terminate in the ≺_V-sound *survivor* prune, never a positional cut
    /// (DESIGN.md §8).
    pub merge_safe: bool,
    /// Number of VORs in the rank context.
    pub vors: usize,
    /// Rank order is `V,K,S` (`≺_V` outranks `K`, so no prune may decide
    /// on `K` alone).
    pub vks: bool,
}

/// A structural soundness defect found by [`PlanShape::verify`]. `index`
/// fields are positions into [`PlanShape::stages`] (0 = bottom scan).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanVerifyError {
    /// No stages at all.
    Empty,
    /// The bottom stage is not the candidate scan.
    ScanNotAtBottom,
    /// More than one scan stage.
    MultipleScans,
    /// Wrong number of `vor` fetch stages for the rank context.
    VorFetchCount {
        /// Fetch stages required by the rank context (0 or 1).
        expected: usize,
        /// Fetch stages found.
        found: usize,
    },
    /// The top stage is not a `topkPrune`.
    MissingFinalPrune,
    /// Worker sub-plan (merge-safe, VORs present) ends in a positional cut
    /// instead of the ≺_V-sound survivor prune — a shard-local cut can
    /// drop answers that belong to the global top-k.
    MissingSurvivorPrune,
    /// Sequential plan whose top prune does not cut (`last` unset).
    FinalPruneNotLast,
    /// The top prune claims score can still be added above it.
    FinalPruneWithBounds,
    /// The top prune does not assume rank-sorted input.
    FinalPruneUnsorted,
    /// A mid-plan prune with the final cut flag set.
    MidPruneLast {
        /// Stage index.
        index: usize,
    },
    /// Two prunes with no scoring stage between them.
    AdjacentPrunes {
        /// Stage index of the upper prune.
        index: usize,
    },
    /// A prune cutting at a different `k` than the plan's.
    WrongK {
        /// Stage index.
        index: usize,
        /// The prune's `k`.
        found: usize,
        /// The plan's `k`.
        expected: usize,
    },
    /// A prune's bound admits less score than the stages above it can
    /// still add — it could discard answers that belong to the top-k.
    BoundTooLow {
        /// Stage index.
        index: usize,
        /// Which bound (`query_scorebound` or `kor_scorebound`).
        which: &'static str,
        /// The prune's bound.
        have: f64,
        /// Minimum sound value (sum of contributions above).
        need: f64,
    },
    /// Algorithm-3 placement: a prune claiming `kor_scorebound = 0` (all
    /// `K` known) sits below a KOR join that still adds weight.
    KPruneBeforeAllKors {
        /// Stage index.
        index: usize,
    },
    /// A prune claims sorted input (bulk pruning) without a sort
    /// immediately below it.
    SortedClaimWithoutSort {
        /// Stage index.
        index: usize,
    },
    /// A prune compares `≺_V` but no `vor` fetch runs below it.
    UseVWithoutFetchBelow {
        /// Stage index.
        index: usize,
    },
    /// Under the `V,K,S` rank order (or at the top with VORs present) a
    /// prune decides without `≺_V` — unsound, `K` alone cannot outrank.
    PruneIgnoresV {
        /// Stage index.
        index: usize,
    },
}

impl std::fmt::Display for PlanVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use PlanVerifyError as E;
        match self {
            E::Empty => write!(f, "plan has no stages"),
            E::ScanNotAtBottom => write!(f, "bottom stage is not the candidate scan"),
            E::MultipleScans => write!(f, "plan has more than one scan stage"),
            E::VorFetchCount { expected, found } => {
                write!(f, "expected {expected} vor fetch stage(s), found {found}")
            }
            E::MissingFinalPrune => write!(f, "top stage is not a topkPrune"),
            E::MissingSurvivorPrune => write!(
                f,
                "worker sub-plan must end in the ≺_V-sound survivor prune, not a positional cut"
            ),
            E::FinalPruneNotLast => write!(f, "final prune does not cut at k (`last` unset)"),
            E::FinalPruneWithBounds => {
                write!(f, "final prune claims score can still be added above it")
            }
            E::FinalPruneUnsorted => write!(f, "final prune does not assume sorted input"),
            E::MidPruneLast { index } => {
                write!(f, "stage {index}: mid-plan prune sets the final cut flag")
            }
            E::AdjacentPrunes { index } => {
                write!(f, "stage {index}: prune directly above another prune")
            }
            E::WrongK {
                index,
                found,
                expected,
            } => {
                write!(
                    f,
                    "stage {index}: prune cuts at k={found}, plan wants k={expected}"
                )
            }
            E::BoundTooLow {
                index,
                which,
                have,
                need,
            } => write!(
                f,
                "stage {index}: {which}={have} admits less than the {need} still addable above"
            ),
            E::KPruneBeforeAllKors { index } => write!(
                f,
                "stage {index}: Algorithm-3 K-prune (kor_scorebound=0) below an unapplied KOR"
            ),
            E::SortedClaimWithoutSort { index } => {
                write!(
                    f,
                    "stage {index}: prune claims sorted input without a sort below it"
                )
            }
            E::UseVWithoutFetchBelow { index } => {
                write!(
                    f,
                    "stage {index}: prune compares ≺_V but no vor fetch runs below it"
                )
            }
            E::PruneIgnoresV { index } => {
                write!(
                    f,
                    "stage {index}: prune ignores ≺_V although VORs outrank its key"
                )
            }
        }
    }
}

impl std::error::Error for PlanVerifyError {}

/// Bound-coverage slack: `assemble` computes `remaining` by repeated
/// subtraction while the verifier sums the suffix fresh, so the two can
/// differ by float rounding (never by a real weight).
const BOUND_EPS: f64 = 1e-9;

impl PlanShape {
    /// Check every static soundness invariant of the assembled shape.
    /// Returns the first defect found, bottom-up per category.
    pub fn verify(&self) -> Result<(), PlanVerifyError> {
        use PlanVerifyError as E;
        let n = self.stages.len();
        if n == 0 {
            return Err(E::Empty);
        }
        if self.stages[0] != Stage::Scan {
            return Err(E::ScanNotAtBottom);
        }
        if self.stages[1..].iter().any(|s| matches!(s, Stage::Scan)) {
            return Err(E::MultipleScans);
        }

        let fetches = self
            .stages
            .iter()
            .filter(|s| matches!(s, Stage::VorFetch))
            .count();
        let expected_fetches = usize::from(self.vors > 0);
        if fetches != expected_fetches {
            return Err(E::VorFetchCount {
                expected: expected_fetches,
                found: fetches,
            });
        }
        let vor_pos = self
            .stages
            .iter()
            .position(|s| matches!(s, Stage::VorFetch));

        // Top stage: the final prune (positional cut, or the survivor
        // prune for merge-safe worker plans with VORs).
        let top = n - 1;
        let Stage::Prune(top_cfg) = &self.stages[top] else {
            return Err(E::MissingFinalPrune);
        };
        let survivor_required = self.merge_safe && self.vors > 0;
        if survivor_required {
            if top_cfg.last || !top_cfg.use_v {
                return Err(E::MissingSurvivorPrune);
            }
        } else if !top_cfg.last {
            return Err(E::FinalPruneNotLast);
        }
        if top_cfg.query_scorebound != 0.0 || top_cfg.kor_scorebound != 0.0 {
            return Err(E::FinalPruneWithBounds);
        }
        if !top_cfg.sorted_input {
            return Err(E::FinalPruneUnsorted);
        }
        if self.vors > 0 && !top_cfg.use_v {
            return Err(E::PruneIgnoresV { index: top });
        }

        // Per-prune checks against the suffix strictly above each stage.
        let mut s_above = 0.0f64;
        let mut k_above = 0.0f64;
        let mut kors_above = 0usize; // with nonzero weight
        for i in (0..n).rev() {
            match &self.stages[i] {
                Stage::Prune(cfg) => {
                    let TopkConfig {
                        k,
                        query_scorebound,
                        kor_scorebound,
                        use_v,
                        sorted_input,
                        last,
                    } = cfg.clone();
                    let expected = self.k;
                    if k != expected {
                        return Err(E::WrongK {
                            index: i,
                            found: k,
                            expected,
                        });
                    }
                    if i < top && last {
                        return Err(E::MidPruneLast { index: i });
                    }
                    if kor_scorebound == 0.0 && kors_above > 0 {
                        return Err(E::KPruneBeforeAllKors { index: i });
                    }
                    if query_scorebound + BOUND_EPS < s_above {
                        return Err(E::BoundTooLow {
                            index: i,
                            which: "query_scorebound",
                            have: query_scorebound,
                            need: s_above,
                        });
                    }
                    if kor_scorebound + BOUND_EPS < k_above {
                        return Err(E::BoundTooLow {
                            index: i,
                            which: "kor_scorebound",
                            have: kor_scorebound,
                            need: k_above,
                        });
                    }
                    // `i >= 1` here: a prune at index 0 already failed the
                    // scan-at-bottom check.
                    match &self.stages[i - 1] {
                        Stage::Prune(_) => return Err(E::AdjacentPrunes { index: i }),
                        Stage::Sort => {}
                        _ if sorted_input => return Err(E::SortedClaimWithoutSort { index: i }),
                        _ => {}
                    }
                    if use_v && self.vors > 0 && !matches!(vor_pos, Some(p) if p < i) {
                        return Err(E::UseVWithoutFetchBelow { index: i });
                    }
                    if self.vks && self.vors > 0 && !use_v {
                        return Err(E::PruneIgnoresV { index: i });
                    }
                }
                Stage::SrJoin { bound } => s_above += bound,
                Stage::KorJoin { weight } => {
                    k_above += weight;
                    if *weight > 0.0 {
                        kors_above += 1;
                    }
                }
                Stage::Scan | Stage::VorFetch | Stage::Sort => {}
            }
        }
        Ok(())
    }
}

/// An executable plan.
pub struct Plan {
    root: BoxedOp,
    traces: Option<TraceRegistry>,
    shape: PlanShape,
}

impl Plan {
    /// Run to completion, returning the top-k answers and the counters.
    pub fn execute(mut self, db: &Database) -> (Vec<crate::answer::Answer>, ExecStats) {
        let mut stats = ExecStats::default();
        let mut out = Vec::new();
        while let Some(a) = self.root.next(db, &mut stats) {
            out.push(a);
        }
        stats.emitted = out.len() as u64;
        (out, stats)
    }

    /// Like [`Plan::execute`], additionally returning the rendered
    /// per-operator trace (empty string when the spec disabled tracing).
    pub fn execute_analyzed(
        self,
        db: &Database,
    ) -> (Vec<crate::answer::Answer>, ExecStats, String) {
        let traces = self.traces.clone();
        let (out, stats) = self.execute(db);
        let report = traces.map(|t| crate::trace::render(&t)).unwrap_or_default();
        (out, stats, report)
    }

    /// Operator-tree description, top-down.
    pub fn explain(&self) -> String {
        self.root.describe()
    }

    /// The statically-checkable stage list recorded during assembly.
    pub fn shape(&self) -> &PlanShape {
        &self.shape
    }

    /// Statically check the plan's soundness invariants (see
    /// [`PlanShape::verify`]); cheap, runs before execution.
    pub fn verify(&self) -> Result<(), PlanVerifyError> {
        self.shape.verify()
    }
}

/// Build the plan a lone task runs — the whole of `db`, ending in the
/// positional top-`k` cut — for the prepared `matcher` under `kors` +
/// `rank` (VORs and rank order), per `spec`.
pub fn build_plan(
    db: &Database,
    matcher: Arc<Matcher>,
    kors: &[KeywordOrderingRule],
    rank: Arc<RankContext>,
    spec: PlanSpec,
) -> Plan {
    build_task_plan(db, matcher, kors, rank, spec, None, false)
}

/// Build the plan one lane task runs. `candidates` is the task's range of
/// positions in `db`'s candidate list ([`crate::ops::cut_candidates`];
/// `None`: the whole list). `merge_safe` selects the final stage for a task
/// that is one of several: when VORs are in play, a *survivor* prune
/// instead of the positional top-`k` cut — the form whose task-local
/// outputs [`crate::par::merge_survivors`] can recombine into the global
/// top-`k` (see [`crate::par`] for the soundness argument).
pub fn build_task_plan(
    db: &Database,
    matcher: Arc<Matcher>,
    kors: &[KeywordOrderingRule],
    rank: Arc<RankContext>,
    spec: PlanSpec,
    candidates: Option<std::ops::Range<usize>>,
    merge_safe: bool,
) -> Plan {
    let scan = match candidates {
        Some(range) => QueryEval::over_range(Arc::clone(&matcher), range),
        None => QueryEval::new(Arc::clone(&matcher)),
    };
    assemble(db, Box::new(scan), matcher, kors, rank, spec, merge_safe)
}

/// Assemble the operator tree above an arbitrary `source` scan.
///
/// `merge_safe` builds the per-task variant of the plan: when VORs are in
/// play the final prune keeps *every* answer not certainly outranked by
/// `k` others instead of cutting at position `k` — `≺_V` layering is
/// set-dependent, so a task-local positional cut could drop an answer
/// that belongs to the global top-k. The task survivor sets can then be
/// merged and re-cut (see [`crate::par`]).
fn assemble(
    db: &Database,
    source: BoxedOp,
    matcher: Arc<Matcher>,
    kors: &[KeywordOrderingRule],
    rank: Arc<RankContext>,
    spec: PlanSpec,
    merge_safe: bool,
) -> Plan {
    let k = spec.k;
    let registry = spec.trace.then(new_registry);
    let wrap = |op: BoxedOp, label: String| -> BoxedOp {
        match &registry {
            Some(r) => traced(op, label, r),
            None => op,
        }
    };
    let mut op: BoxedOp = wrap(source, "QueryEval".to_string());
    // The stage list mirrors the operator chain bottom-to-top; it is the
    // IR that `PlanShape::verify` checks before execution.
    let mut stages: Vec<Stage> = vec![Stage::Scan];
    let mid_cfg =
        |query_scorebound: f64, kor_scorebound: f64, use_v: bool, sorted_input: bool| TopkConfig {
            k,
            query_scorebound,
            kor_scorebound,
            use_v,
            sorted_input,
            last: false,
        };

    // Optional (SR-contributed) keyword predicates and their exact bounds.
    let optional = matcher.optional_keywords();
    let sr_bound: f64 = optional.iter().map(|p| p.bound).sum();
    let kor_total: f64 = kors.iter().map(|r| r.weight).sum();

    // Under the V,K,S ranking order, `≺_V` has top priority, so no prune
    // can fire before the VOR attributes are known: fetch them at the
    // bottom. Under K,V,S the fetch can wait until after the kors (the
    // paper's plan shape), because mid-plan prunes decide on K alone.
    let vor_at_bottom = !rank.vors.is_empty() && rank.order == pimento_profile::RankOrder::Vks;
    if vor_at_bottom {
        op = Box::new(VorFetch::new(op, db, &rank));
        op = wrap(op, "vor(bottom)".to_string());
        stages.push(Stage::VorFetch);
    }
    let use_v_mid = vor_at_bottom;

    // PtpkP: prune at the very bottom, before the SR joins and kors, with
    // the full remaining bounds.
    if spec.strategy == PlanStrategy::Push {
        let cfg = mid_cfg(sr_bound, kor_total, use_v_mid, false);
        stages.push(Stage::Prune(cfg.clone()));
        op = prune(op, &rank, cfg);
        op = wrap(op, "topkPrune(bottom)".to_string());
    }

    for phrase in optional {
        let label = format!("SrPredJoin({})", phrase.describe());
        stages.push(Stage::SrJoin {
            bound: phrase.bound,
        });
        op = Box::new(SrPredJoin::new(op, Arc::clone(&matcher), phrase));
        op = wrap(op, label);
    }

    // PtpkP: prune again once all S contributions are in.
    if spec.strategy == PlanStrategy::Push && sr_bound > 0.0 {
        let cfg = mid_cfg(0.0, kor_total, use_v_mid, false);
        stages.push(Stage::Prune(cfg.clone()));
        op = prune(op, &rank, cfg);
        op = wrap(op, "topkPrune(post-SR)".to_string());
    }

    // Apply kors in the configured order, interleaving prunes per strategy.
    let mut ordered: Vec<KeywordOrderingRule> = kors.to_vec();
    match spec.kor_order {
        KorOrder::AsGiven => {}
        KorOrder::HighestWeightFirst => {
            ordered.sort_by(|a, b| crate::rank::cmp_f64_desc(a.weight, b.weight))
        }
        KorOrder::LowestWeightFirst => {
            ordered.sort_by(|a, b| crate::rank::cmp_f64_desc(b.weight, a.weight))
        }
    }
    let mut remaining = kor_total;
    for kor in ordered {
        remaining -= kor.weight;
        let kor_label = format!("kor[{}]", kor.id);
        stages.push(Stage::KorJoin { weight: kor.weight });
        op = Box::new(KorJoin::new(op, db, kor));
        op = wrap(op, kor_label.clone());
        match spec.strategy {
            PlanStrategy::Naive => {}
            PlanStrategy::InterleaveUnsorted | PlanStrategy::Push => {
                let cfg = mid_cfg(0.0, remaining, use_v_mid, false);
                stages.push(Stage::Prune(cfg.clone()));
                op = prune(op, &rank, cfg);
                op = wrap(op, format!("topkPrune(after {kor_label})"));
            }
            PlanStrategy::InterleaveSorted => {
                op = Box::new(Sort::new(op, Arc::clone(&rank)));
                op = wrap(op, format!("sort(after {kor_label})"));
                stages.push(Stage::Sort);
                // Bulk pruning needs a prune-monotone sort order; V
                // dominance is not monotone, so sorted early-exit is only
                // claimed when V does not participate mid-plan.
                let cfg = mid_cfg(0.0, remaining, use_v_mid, !use_v_mid);
                stages.push(Stage::Prune(cfg.clone()));
                op = prune(op, &rank, cfg);
                op = wrap(op, format!("topkPrune(sorted, after {kor_label})"));
            }
        }
    }

    // vor (unless fetched at the bottom), final sort, final topkPrune —
    // common to all strategies.
    if !rank.vors.is_empty() && !vor_at_bottom {
        op = Box::new(VorFetch::new(op, db, &rank));
        op = wrap(op, "vor".to_string());
        stages.push(Stage::VorFetch);
    }
    op = Box::new(Sort::new(op, Arc::clone(&rank)));
    op = wrap(op, "sort(final)".to_string());
    stages.push(Stage::Sort);
    let final_cfg = if merge_safe && !rank.vors.is_empty() {
        // Shard-local survivor prune: drop only answers that `k` others
        // certainly outrank (the pairwise check is set-independent, so
        // anything dropped here is provably outside the global top-k).
        // `use_v: true` also disables the sorted bulk-prune early exit,
        // which a positional argument under `≺_V` cannot justify.
        TopkConfig {
            k,
            query_scorebound: 0.0,
            kor_scorebound: 0.0,
            use_v: true,
            sorted_input: true,
            last: false,
        }
    } else {
        // Without VORs the final order is total, so a shard's own top-k is
        // exact and the sequential cut applies unchanged.
        TopkConfig::final_prune(k)
    };
    stages.push(Stage::Prune(final_cfg.clone()));
    let shape = PlanShape {
        stages,
        k,
        merge_safe,
        vors: rank.vors.len(),
        vks: rank.order == pimento_profile::RankOrder::Vks,
    };
    // Every assembled plan must pass its own static verifier — a failure
    // here is an assembly bug, caught in debug builds before any query
    // runs on the broken shape.
    if cfg!(debug_assertions) {
        if let Err(err) = shape.verify() {
            debug_assert!(false, "assembled an unsound plan: {err}");
        }
    }
    op = Box::new(TopkPrune::new(op, rank, final_cfg));
    op = wrap(op, "topkPrune(final)".to_string());
    Plan {
        root: op,
        traces: registry,
        shape,
    }
}

fn prune(input: BoxedOp, rank: &Arc<RankContext>, cfg: TopkConfig) -> BoxedOp {
    Box::new(TopkPrune::new(input, Arc::clone(rank), cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_index::Collection;
    use pimento_profile::{PersonalizedQuery, RankOrder, ValueOrderingRule};
    use pimento_tpq::parse_tpq;

    fn db() -> Database {
        let mut coll = Collection::new();
        let mut xml = String::from("<people>");
        for i in 0..40 {
            let gender = if i % 2 == 0 { "male" } else { "female" };
            let state = if i % 3 == 0 {
                "United States"
            } else {
                "Elsewhere"
            };
            let edu = if i % 5 == 0 { "College" } else { "School" };
            let city = if i % 7 == 0 { "Phoenix" } else { "Springfield" };
            let age = 20 + (i % 20);
            xml.push_str(&format!(
                "<person><profile>{gender} {state} {edu} {city}</profile><age>{age}</age><business>{}</business></person>",
                if i % 2 == 0 { "Yes" } else { "No" }
            ));
        }
        xml.push_str("</people>");
        coll.add_xml(&xml).unwrap();
        Database::index_plain(coll)
    }

    fn kors() -> Vec<KeywordOrderingRule> {
        vec![
            KeywordOrderingRule::weighted("pi1", "person", "male", 1.0),
            KeywordOrderingRule::weighted("pi2", "person", "United States", 1.0),
            KeywordOrderingRule::weighted("pi3", "person", "College", 1.0),
            KeywordOrderingRule::weighted("pi4", "person", "Phoenix", 1.0),
        ]
    }

    fn answers_key(answers: &[crate::answer::Answer]) -> Vec<(u32, u32)> {
        answers.iter().map(|a| a.tiebreak()).collect()
    }

    #[test]
    fn all_strategies_agree_on_topk() {
        let db = db();
        let q = parse_tpq(r#"//person[ftcontains(./business, "Yes")]"#).unwrap();
        let pq = PersonalizedQuery::unpersonalized(q);
        let matcher = Arc::new(Matcher::new(&db, pq, &[&db.inverted]));
        let rank = RankContext::new(
            vec![ValueOrderingRule::prefer_value(
                "pi5", "person", "age", "33",
            )],
            RankOrder::Kvs,
        );
        let mut reference: Option<Vec<(u32, u32)>> = None;
        for strategy in PlanStrategy::all() {
            let plan = build_plan(
                &db,
                Arc::clone(&matcher),
                &kors(),
                Arc::clone(&rank),
                PlanSpec::new(5, strategy),
            );
            let (out, _) = plan.execute(&db);
            assert_eq!(out.len(), 5, "{}", strategy.paper_name());
            let key = answers_key(&out);
            match &reference {
                Some(r) => assert_eq!(&key, r, "{} differs", strategy.paper_name()),
                None => reference = Some(key),
            }
        }
    }

    #[test]
    fn push_prunes_more_than_naive() {
        let db = db();
        let q = parse_tpq("//person").unwrap();
        let pq = PersonalizedQuery::unpersonalized(q);
        let matcher = Arc::new(Matcher::new(&db, pq, &[&db.inverted]));
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let naive = build_plan(
            &db,
            Arc::clone(&matcher),
            &kors(),
            Arc::clone(&rank),
            PlanSpec::new(3, PlanStrategy::Naive),
        );
        let (_, naive_stats) = naive.execute(&db);
        let push = build_plan(
            &db,
            Arc::clone(&matcher),
            &kors(),
            Arc::clone(&rank),
            PlanSpec::new(3, PlanStrategy::Push),
        );
        let (_, push_stats) = push.execute(&db);
        assert_eq!(naive_stats.pruned, 0, "naive never prunes mid-plan");
        assert!(push_stats.pruned > 0, "push prunes mid-plan");
    }

    #[test]
    fn kor_order_affects_plan_shape_not_results() {
        let db = db();
        let q = parse_tpq("//person").unwrap();
        let pq = PersonalizedQuery::unpersonalized(q);
        let matcher = Arc::new(Matcher::new(&db, pq, &[&db.inverted]));
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let mut weighted = kors();
        weighted[3] = KeywordOrderingRule::weighted("pi4", "person", "Phoenix", 5.0);
        let mut outputs = Vec::new();
        for order in [
            KorOrder::AsGiven,
            KorOrder::HighestWeightFirst,
            KorOrder::LowestWeightFirst,
        ] {
            let spec = PlanSpec {
                kor_order: order,
                ..PlanSpec::new(4, PlanStrategy::Push)
            };
            let plan = build_plan(
                &db,
                Arc::clone(&matcher),
                &weighted,
                Arc::clone(&rank),
                spec,
            );
            let (out, _) = plan.execute(&db);
            outputs.push(answers_key(&out));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn explain_mentions_operators() {
        let db = db();
        let q = parse_tpq("//person").unwrap();
        let pq = PersonalizedQuery::unpersonalized(q);
        let matcher = Arc::new(Matcher::new(&db, pq, &[&db.inverted]));
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let plan = build_plan(
            &db,
            matcher,
            &kors()[..1],
            rank,
            PlanSpec::new(2, PlanStrategy::Push),
        );
        let text = plan.explain();
        assert!(text.contains("topkPrune"), "{text}");
        assert!(text.contains("kor[pi1]"), "{text}");
        assert!(text.contains("QueryEval"), "{text}");
    }

    #[test]
    fn empty_kors_and_vors_degenerates_cleanly() {
        let db = db();
        let q = parse_tpq(r#"//person[ftcontains(., "College")]"#).unwrap();
        let pq = PersonalizedQuery::unpersonalized(q);
        let matcher = Arc::new(Matcher::new(&db, pq, &[&db.inverted]));
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        for strategy in PlanStrategy::all() {
            let plan = build_plan(
                &db,
                Arc::clone(&matcher),
                &[],
                Arc::clone(&rank),
                PlanSpec::new(3, strategy),
            );
            let (out, _) = plan.execute(&db);
            assert_eq!(out.len(), 3);
            // Ranked by S descending.
            assert!(out[0].s >= out[1].s && out[1].s >= out[2].s);
        }
    }
}
