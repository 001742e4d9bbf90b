//! Doc-range segments and the lane executor (DESIGN.md §8).
//!
//! An [`crate::Engine`] owns a list of [`Segment`]s: each is a
//! self-contained [`Database`] (tag and inverted indexes plus a full
//! copy of the corpus symbol table) over a contiguous document range,
//! plus the global doc id of its first document. A prepared plan is
//! segment-agnostic — symbol ids are corpus-global by construction, and
//! the corpus-wide scoring statistics were summed into the compiled
//! matcher at prepare — so [`execute_lanes`], the one query executor, cuts a
//! request into tasks (one per segment; a segment's candidate list cut
//! into contiguous position ranges when there are more lanes than
//! segments), runs the *same* compiled matcher/spec in every task, remaps
//! answers to global doc ids, and recombines with [`merge_survivors`]. A lone task
//! runs the plain plan with the positional final cut and there is nothing
//! to merge. For a weak-order `≺_V` the result is bit-identical whatever
//! the segment layout and lane count (see [`pimento_algebra::par`]).
//!
//! Everything in this module is a `panic-path` lint root: malformed
//! state surfaces as empty results or typed errors upstream, never as a
//! panic on the serving path.

use pimento_algebra::{
    build_task_plan, cut_candidates, live_candidates, merge_survivors, run_in_lanes, Answer,
    Database, ExecStats, Matcher, Plan, PlanSpec, RankContext,
};
use pimento_index::{effective_workers, resolve_threads, DocId};
use pimento_profile::KeywordOrderingRule;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// A self-contained doc-range slice of the corpus: its own indexes over
/// `doc_count` documents, addressed locally as `DocId(0..doc_count)` and
/// globally as `DocId(doc_base..doc_base + doc_count)`.
#[derive(Debug)]
pub struct Segment {
    db: Database,
    doc_base: u32,
}

impl Segment {
    /// Wrap an indexed doc-range slice. `db`'s collection must carry the
    /// full corpus symbol table, so compiled plans stay segment-agnostic.
    pub(crate) fn new(db: Database, doc_base: u32) -> Self {
        Segment { db, doc_base }
    }

    /// The segment's indexed database (documents addressed locally).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Global doc id of the segment's first document.
    pub fn doc_base(&self) -> u32 {
        self.doc_base
    }

    /// Number of documents in the segment.
    pub fn doc_count(&self) -> usize {
        self.db.coll.len()
    }

    /// Rewrite a segment-local answer to corpus-global doc ids. Adding a
    /// constant base preserves within-segment document order, and bases
    /// are the prefix sums of segment sizes, so globalized answers carry
    /// exactly the doc ids the monolithic scan would assign.
    pub(crate) fn globalize(&self, mut a: Answer) -> Answer {
        a.elem.doc = DocId(a.elem.doc.0.wrapping_add(self.doc_base));
        a
    }
}

/// What one lane task did.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneStats {
    /// Index of the segment the task scanned (all of it, or one range of
    /// its candidate list).
    pub segment: usize,
    /// The task's counters.
    pub stats: ExecStats,
    /// The task's wall time in µs.
    pub micros: u64,
}

/// Outcome of one [`execute_lanes`] call.
pub(crate) struct LaneRun {
    /// The global top-k, in final rank order, with global doc ids.
    pub answers: Vec<Answer>,
    /// Counters summed over the tasks (`emitted` = final answer count).
    pub stats: ExecStats,
    /// Per-task breakdown, in task (= segment, then chunk) order.
    pub lanes: Vec<LaneStats>,
    /// What ran, exactly as [`explain_lanes`] describes it.
    pub explain: String,
    /// Per-task operator traces (trace mode only, else empty).
    pub trace: String,
}

/// One unit of lane work: a whole segment (`range: None`), or one
/// contiguous range of positions in the segment's candidate list.
struct Task<'a> {
    segment: usize,
    seg: &'a Segment,
    range: Option<Range<usize>>,
}

/// The lane count a `SearchOptions::threads` value stands for: `0` is the
/// machine's parallelism, and no value yields more lanes than cores.
pub(crate) fn resolve_lanes(threads: usize) -> usize {
    effective_workers(resolve_threads(threads), usize::MAX)
}

/// Cut a request into tasks for `lanes` lanes, returning the tasks and
/// the number of lanes that will run them. Up to one lane per segment,
/// every segment is one task. Beyond that, each segment's candidate list
/// is cut into ranges of `⌈all live candidates / lanes⌉` live candidates,
/// so the tasks are about equal and about `lanes` many.
fn plan_tasks<'a>(
    segments: &'a [Arc<Segment>],
    matcher: &Matcher,
    lanes: usize,
) -> (Vec<Task<'a>>, usize) {
    let mut tasks = Vec::new();
    if lanes <= segments.len() {
        tasks.extend(segments.iter().enumerate().map(|(segment, seg)| Task {
            segment,
            seg,
            range: None,
        }));
    } else {
        let total: usize = segments
            .iter()
            .map(|seg| live_candidates(&seg.db, matcher))
            .sum();
        let size = total.div_ceil(lanes).max(1);
        for (segment, seg) in segments.iter().enumerate() {
            tasks.extend(
                cut_candidates(&seg.db, matcher, size)
                    .into_iter()
                    .map(|range| Task {
                        segment,
                        seg,
                        range: Some(range),
                    }),
            );
        }
    }
    let lanes = lanes.clamp(1, tasks.len().max(1));
    (tasks, lanes)
}

/// The plan `task` runs: merge-safe when it is one of several, the plain
/// plan with the positional final cut when it is alone.
fn task_plan(
    task: Task<'_>,
    matcher: &Arc<Matcher>,
    kors: &[KeywordOrderingRule],
    rank: &Arc<RankContext>,
    spec: PlanSpec,
    merge_safe: bool,
) -> Plan {
    let plan = build_task_plan(
        &task.seg.db,
        Arc::clone(matcher),
        kors,
        Arc::clone(rank),
        spec,
        task.range,
        merge_safe,
    );
    debug_assert!(
        plan.verify().is_ok(),
        "lane task assembled an unsound plan: {:?}",
        plan.verify()
    );
    plan
}

/// One line saying what runs: the plan alone for a lone task, else the
/// task layout over the plan every task runs.
fn describe(segments: usize, tasks: usize, lanes: usize, plan: String) -> String {
    if tasks <= 1 {
        plan
    } else {
        format!("lanes(segments={segments}, tasks={tasks}, threads={lanes}) over {plan}")
    }
}

/// What [`execute_lanes`] would run for the same arguments, without
/// running it: same task cut, same lane count, the plan the first task
/// assembles.
pub(crate) fn explain_lanes(
    segments: &[Arc<Segment>],
    matcher: &Arc<Matcher>,
    kors: &[KeywordOrderingRule],
    rank: &Arc<RankContext>,
    spec: PlanSpec,
    lanes: usize,
) -> String {
    let (tasks, lanes) = plan_tasks(segments, matcher, lanes);
    let n = tasks.len();
    let plan = tasks
        .into_iter()
        .next()
        .map(|task| task_plan(task, matcher, kors, rank, spec, n > 1).explain())
        .unwrap_or_default();
    describe(segments.len(), n, lanes, plan)
}

/// The one query executor: cut the request into tasks ([`plan_tasks`]),
/// run them on `lanes` lanes, merge. Each task runs `spec`'s plan against
/// its segment's database and hands back answers with global doc ids;
/// several tasks run the merge-safe plan and [`merge_survivors`] re-ranks
/// the union and cuts at `spec.k`, a lone task runs the plain plan and
/// its output is the result.
///
/// `lanes` is taken literally — [`resolve_lanes`] is where a thread knob
/// is clamped to the machine — so tests and benches can force more lanes
/// than cores. Scheduling never affects results: task outputs are merged
/// in task order however many lanes ran them.
pub(crate) fn execute_lanes(
    segments: &[Arc<Segment>],
    matcher: &Arc<Matcher>,
    kors: &[KeywordOrderingRule],
    rank: &Arc<RankContext>,
    spec: PlanSpec,
    lanes: usize,
) -> LaneRun {
    let (tasks, lanes) = plan_tasks(segments, matcher, lanes);
    let n = tasks.len();
    let boxed: Vec<Box<dyn FnOnce() -> TaskRun + Send + '_>> = tasks
        .into_iter()
        .enumerate()
        .map(|(i, task)| {
            let matcher = Arc::clone(matcher);
            let rank = Arc::clone(rank);
            Box::new(move || run_task(task, &matcher, kors, &rank, spec, n > 1, i == 0))
                as Box<dyn FnOnce() -> TaskRun + Send + '_>
        })
        .collect();
    let mut run = LaneRun {
        answers: Vec::new(),
        stats: ExecStats::default(),
        lanes: Vec::with_capacity(n),
        explain: String::new(),
        trace: String::new(),
    };
    let mut plan = String::new();
    for done in run_in_lanes(boxed, lanes) {
        run.answers.extend(done.answers);
        run.stats.absorb(&done.lane.stats);
        run.lanes.push(done.lane);
        run.trace.push_str(&done.trace);
        plan.push_str(&done.explain);
    }
    if n > 1 {
        run.answers = merge_survivors(run.answers, &mut run.stats, rank, spec.k);
    }
    run.explain = describe(segments.len(), n, lanes, plan);
    run
}

/// What one task hands back to [`execute_lanes`].
#[derive(Default)]
struct TaskRun {
    /// Survivor answers, doc ids already global.
    answers: Vec<Answer>,
    lane: LaneStats,
    /// The plan's operator tree (first task only, else empty).
    explain: String,
    /// The labeled operator trace (trace mode only, else empty).
    trace: String,
}

fn run_task(
    task: Task<'_>,
    matcher: &Arc<Matcher>,
    kors: &[KeywordOrderingRule],
    rank: &Arc<RankContext>,
    spec: PlanSpec,
    merge_safe: bool,
    want_explain: bool,
) -> TaskRun {
    let started = Instant::now();
    let (segment, seg) = (task.segment, task.seg);
    let plan = task_plan(task, matcher, kors, rank, spec, merge_safe);
    let explain = if want_explain {
        plan.explain()
    } else {
        String::new()
    };
    let (answers, stats, mut trace) = plan.execute_analyzed(&seg.db);
    if merge_safe && spec.trace {
        trace = format!(
            "segment(base={}, docs={}):\n{trace}\n",
            seg.doc_base,
            seg.doc_count()
        );
    }
    TaskRun {
        answers: answers.into_iter().map(|a| seg.globalize(a)).collect(),
        lane: LaneStats {
            segment,
            stats,
            micros: started.elapsed().as_micros() as u64,
        },
        explain,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimento_algebra::{build_plan, KorOrder, PlanStrategy};
    use pimento_index::Collection;
    use pimento_profile::{PersonalizedQuery, RankOrder, ValueOrderingRule};
    use pimento_tpq::parse_tpq;

    fn one_segment() -> Vec<Arc<Segment>> {
        let mut coll = Collection::new();
        let mut xml = String::from("<people>");
        for i in 0..60 {
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
        vec![Arc::new(Segment::new(Database::index_plain(coll), 0))]
    }

    fn kors() -> Vec<KeywordOrderingRule> {
        vec![
            KeywordOrderingRule::weighted("pi1", "person", "male", 1.0),
            KeywordOrderingRule::weighted("pi2", "person", "United States", 2.0),
            KeywordOrderingRule::weighted("pi3", "person", "College", 0.5),
            KeywordOrderingRule::weighted("pi4", "person", "Phoenix", 1.5),
        ]
    }

    fn matcher(segments: &[Arc<Segment>], query: &str) -> Arc<Matcher> {
        let q = parse_tpq(query).unwrap();
        let db = segments[0].db();
        Arc::new(Matcher::new(
            db,
            PersonalizedQuery::unpersonalized(q),
            &[&db.inverted],
        ))
    }

    fn full_key(answers: &[Answer]) -> Vec<(u32, u32, u64, u64)> {
        answers
            .iter()
            .map(|a| {
                let t = a.tiebreak();
                (t.0, t.1, a.k.to_bits(), a.s.to_bits())
            })
            .collect()
    }

    #[test]
    fn lanes_match_the_plain_plan_for_all_strategies_and_orders() {
        let segments = one_segment();
        let matcher = matcher(&segments, r#"//person[ftcontains(./business, "Yes")]"#);
        for rank_order in [RankOrder::Kvs, RankOrder::Vks] {
            let rank = RankContext::new(
                vec![ValueOrderingRule::prefer_value(
                    "pi5", "person", "age", "33",
                )],
                rank_order,
            );
            for strategy in PlanStrategy::all() {
                let spec = PlanSpec::new(7, strategy);
                let db = segments[0].db();
                let plain = build_plan(db, Arc::clone(&matcher), &kors(), Arc::clone(&rank), spec)
                    .execute(db)
                    .0;
                for lanes in [2, 3, 8] {
                    let run = execute_lanes(&segments, &matcher, &kors(), &rank, spec, lanes);
                    assert_eq!(
                        full_key(&plain),
                        full_key(&run.answers),
                        "{} x{lanes} ({rank_order:?})",
                        strategy.paper_name()
                    );
                }
            }
        }
    }

    #[test]
    fn one_segment_splits_into_candidate_chunks() {
        let segments = one_segment();
        let matcher = matcher(&segments, r#"//person[ftcontains(./business, "Yes")]"#);
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let spec = PlanSpec {
            kor_order: KorOrder::HighestWeightFirst,
            ..PlanSpec::new(5, PlanStrategy::Push)
        };
        let one = execute_lanes(&segments, &matcher, &kors(), &rank, spec, 1);
        let four = execute_lanes(&segments, &matcher, &kors(), &rank, spec, 4);
        assert_eq!(full_key(&one.answers), full_key(&four.answers));
        assert_eq!(one.lanes.len(), 1);
        assert_eq!(four.lanes.len(), 4, "four candidate ranges expected");
    }

    #[test]
    fn stats_sum_over_lanes() {
        let segments = one_segment();
        let matcher = matcher(&segments, "//person");
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let spec = PlanSpec::new(5, PlanStrategy::Push);
        let run = execute_lanes(&segments, &matcher, &kors(), &rank, spec, 4);
        assert_eq!(run.answers.len(), 5);
        assert_eq!(run.stats.emitted, 5);
        let base: u64 = run.lanes.iter().map(|l| l.stats.base_answers).sum();
        assert_eq!(run.stats.base_answers, base);
        assert_eq!(run.stats.base_answers, 60, "every person matches //person");
        assert!(run.lanes.iter().all(|l| l.segment == 0));
    }

    #[test]
    fn zero_and_one_lane_run_one_task() {
        let segments = one_segment();
        let matcher = matcher(&segments, "//person");
        let rank = RankContext::new(vec![], RankOrder::Kvs);
        let spec = PlanSpec::new(4, PlanStrategy::Naive);
        for lanes in [0, 1] {
            let run = execute_lanes(&segments, &matcher, &kors(), &rank, spec, lanes);
            assert_eq!(run.answers.len(), 4);
            assert_eq!(run.lanes.len(), 1);
            assert_eq!(run.lanes[0].stats.emitted, run.stats.emitted);
            assert!(!run.explain.starts_with("lanes("), "{}", run.explain);
            assert_eq!(
                run.explain,
                explain_lanes(&segments, &matcher, &kors(), &rank, spec, lanes)
            );
        }
    }
}
