//! Lanes: the one place query execution creates threads, and the merge
//! that recombines what the lanes return.
//!
//! The lane executor (`pimento::segment`) cuts a query into tasks — one
//! per doc-range segment, a segment's candidate list split into contiguous
//! chunks when there are more lanes than segments — and each task runs the
//! full match/score/`kor` pipeline, including mid-plan `topkPrune`s with a
//! task-local list and task-local [`ExecStats`]. [`run_in_lanes`] schedules
//! the tasks; [`merge_survivors`] recombines their outputs.
//!
//! ## Why the merge is exact
//!
//! Mid-plan prunes drop an answer only when `k` list members *certainly
//! outrank* it (see [`crate::topk`]). That check is pairwise and
//! set-independent, so it holds regardless of which task the `k`
//! witnesses live in: every answer dropped by any task has `k` answers
//! above it in the full ranking and cannot be in the global top-k.
//!
//! The per-task *final* stage is where a partition could go wrong. With
//! no VORs the final order is total, so each task's positional top-k cut
//! is exact and the union of task top-k lists contains the global top-k.
//! With VORs, `≺_V` dominance layering is set-dependent — removing a
//! task-mate can lift a dominated answer into an earlier layer — so a
//! positional cut at `k` inside one task could drop an answer the global
//! ranking keeps. Task plans therefore end in a *survivor* prune
//! (`merge_safe` in [`crate::plan`]): keep everything not certainly
//! outranked by `k` task answers, which is the same invariant the
//! mid-plan prunes rely on. The merge re-ranks the union of survivors
//! under the exact `K, V, S` order and cuts at `k`.
//!
//! When `≺_V` is a **weak order** (incomparability is transitive, so the
//! dominance layers are the order's own levels), every pruned answer sits
//! below `k` surviving answers in any superset ranking, and the cut
//! equals the one-task result bit for bit. Under a genuinely *partial*
//! `≺_V` the merge layers a pruned set, and layering a subset is not the
//! restriction of layering the whole: the result can depend on the
//! partition (`tests/fixtures/partial_order_pi3.rules` reproduces it;
//! ROADMAP item 2 owns the specification).

use crate::answer::Answer;
use crate::context::ExecStats;
use crate::rank::RankContext;

/// Run `tasks` in waves of at most `lanes` scoped threads, returning each
/// task's result in task order. `lanes <= 1` runs them sequentially on
/// the calling thread. Slots are pre-filled with `T::default()`, so a
/// task that somehow never ran contributes the empty result instead of a
/// panic (scope joins every thread, so in practice each slot is written
/// exactly once).
pub fn run_in_lanes<'a, T>(tasks: Vec<Box<dyn FnOnce() -> T + Send + 'a>>, lanes: usize) -> Vec<T>
where
    T: Default + Send,
{
    let mut slots: Vec<T> = tasks.iter().map(|_| T::default()).collect();
    if lanes <= 1 {
        for (task, slot) in tasks.into_iter().zip(slots.iter_mut()) {
            *slot = task();
        }
        return slots;
    }
    let mut tasks = tasks.into_iter();
    for slot_wave in slots.chunks_mut(lanes) {
        std::thread::scope(|scope| {
            for slot in slot_wave.iter_mut() {
                if let Some(task) = tasks.next() {
                    scope.spawn(move || {
                        *slot = task();
                    });
                }
            }
        });
    }
    slots
}

/// Merge the concatenated survivor sets of several tasks into the global
/// top-`k`: rank the union under the exact final `K, V, S` order and cut
/// at `k` — the same order and cut a lone task's final sort +
/// `topkPrune(final)` apply. `stats` is the sum of the tasks' counters; it
/// absorbs the merge's own comparisons and its `emitted` is reset to the
/// merged length. Holds for *any* partition of the answer space (candidate
/// chunks or doc-range segments), provided each task ran a merge-safe plan
/// ([`crate::plan::build_task_plan`]); see the module docs for the
/// soundness argument and its weak-order precondition.
pub fn merge_survivors(
    mut survivors: Vec<Answer>,
    stats: &mut ExecStats,
    rank: &RankContext,
    k: usize,
) -> Vec<Answer> {
    rank.rank(&mut survivors, stats);
    survivors.truncate(k);
    stats.emitted = survivors.len() as u64;
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_keep_task_order_and_run_every_task() {
        for lanes in [0usize, 1, 2, 3, 8] {
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..7usize)
                .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            let out = run_in_lanes(tasks, lanes);
            assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36], "lanes={lanes}");
        }
    }
}
