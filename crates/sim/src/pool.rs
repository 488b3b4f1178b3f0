//! The parallel orchestrator behind every sweep in the workspace.
//!
//! Sweeps are embarrassingly parallel — a `(shift × seed)` or pair grid of
//! independent kernel evaluations over shared read-only schedule tables —
//! but their per-task cost is wildly uneven (a rendezvous can take 2 slots
//! or 2 million, depending on the shift). Static chunking therefore leaves
//! cores idle behind the unluckiest chunk. This module puts each wave's
//! tasks on one shared FIFO queue instead, and a worker claims the next
//! task the moment it finishes its last, so the longest task — not the
//! longest *chunk* — bounds the critical path.
//!
//! Two entry points run on one scheduler:
//!
//! * [`run_tree_barrier`] — a **task tree**: a forest of parent tasks, each
//!   expanding *on a worker* into child tasks that are scheduled across
//!   the same pool, so load balancing crosses parent boundaries (a nested
//!   sweep submits its whole grid at once instead of one pool per cell). An
//!   **expansion barrier** separates the levels: every parent expands (and
//!   publishes its owned output) before any child runs, and every child
//!   reads all parent outputs through [`ParentOutputs`] — the
//!   producer/consumer bulk step of the shared-arena engines;
//! * [`run_indexed`] — a flat task list, results in task order: a forest
//!   of childless parents on the same scheduler.
//!
//! # Determinism
//!
//! Results are **bit-identical across thread counts** by construction:
//!
//! * every task carries its grid index — or its `(parent, child)` path in
//!   a tree — and results are merged back in index order, so downstream
//!   consumers never observe scheduling order;
//! * tasks never share mutable state — schedules are compiled once before
//!   the fan-out and shared read-only (see
//!   [`rdv_core::compiled::PreparedSchedule`]);
//! * randomized tasks derive their RNG stream from [`stream_seed`], a
//!   SplitMix64 mix of the experiment seed and the task's position — a
//!   pure function of *which* task, never of *where* or *when* it ran.

use std::cell::Cell;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// Thread-count policy for the parallel orchestrator.
///
/// The default (`threads: 0`) auto-detects, with the `RDV_THREADS`
/// environment variable as an override between the two (the CI test
/// matrix pins it to 1 and 8 so every push exercises the thread-count
/// determinism contract, not only the dedicated determinism tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelConfig {
    /// Worker threads to use. `0` means the `RDV_THREADS` environment
    /// override when set to a positive integer, else auto-detect
    /// ([`std::thread::available_parallelism`]).
    pub threads: usize,
}

impl ParallelConfig {
    /// A fixed thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig { threads }
    }

    /// The requested worker count before any task-count clamp: an explicit
    /// `threads`, else the `RDV_THREADS` environment override, else
    /// [`std::thread::available_parallelism`]. This is what sizes a
    /// many-parent [`run_tree_barrier`] pool, whose child-task count is
    /// unknown at submission.
    pub fn requested_threads(&self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        if let Some(n) = std::env::var("RDV_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(4)
    }

    /// The worker count to actually spawn for `tasks` tasks: the requested
    /// (or detected) thread count, never more than the number of tasks,
    /// never zero.
    pub fn effective_threads(&self, tasks: usize) -> usize {
        self.requested_threads().min(tasks).max(1)
    }
}

/// Task-chunk size for sharding `items` uniform work items across
/// `threads` workers.
///
/// Aims at roughly four chunks per worker: fine enough that the shared
/// queue can rebalance an uneven tail, coarse enough to amortize queue
/// traffic and per-task bookkeeping over many items. The result is
/// clamped to `[1, 4096]` so tiny inputs still form tasks and huge inputs
/// cannot collapse into a handful of chunks too few to balance.
///
/// This is the one chunking policy of the workspace: pair lists, agent
/// lists, and slot ranges are all sharded through it, replacing the
/// former fixed pairs-per-task constant that over-fragmented large
/// populations and under-split small ones.
pub fn chunk_size(items: usize, threads: usize) -> usize {
    items.div_ceil(threads.max(1) * 4).clamp(1, 4096)
}

/// Derives the RNG stream seed of task `task_index` within experiment
/// `base` — the SplitMix64 finalizer over the pair, as recommended for
/// splitting one seed into independent streams.
///
/// The map is bijective in `task_index` for a fixed `base` (every step is
/// invertible), so distinct tasks of one experiment can never collide; the
/// avalanche mixing keeps streams of adjacent indices statistically
/// independent. `tests/parallel_determinism.rs` property-tests both claims.
pub fn stream_seed(base: u64, task_index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(task_index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The position of a child task within a [`run_tree_barrier`] submission:
/// the parent's index in the submitted forest and the child's index within
/// that parent's expansion — the pair the deterministic merge orders by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreePath {
    /// Index of the parent task in the submitted forest.
    pub parent: usize,
    /// Index of this child within its parent's expansion.
    pub child: usize,
}

/// Claims the next task of a wave's shared queue. Tasks run outside the
/// lock, so a task panic never poisons it.
fn claim<T>(queue: &Mutex<VecDeque<T>>) -> Option<T> {
    queue.lock().expect("task queue lock poisoned").pop_front()
}

/// A panic-safe barrier arrival: the worker announces phase completion
/// through [`Self::arrive`]; if it unwinds first, `Drop` raises `unwound`
/// and announces for it, so siblings spinning on the arrival count are
/// released instead of deadlocking, and skip the child wave as the
/// sequential reference would (the panic then propagates at join).
struct Arrival<'a> {
    arrivals: &'a AtomicUsize,
    unwound: &'a AtomicBool,
    armed: bool,
}

impl<'a> Arrival<'a> {
    fn new(arrivals: &'a AtomicUsize, unwound: &'a AtomicBool) -> Self {
        Arrival {
            arrivals,
            unwound,
            armed: true,
        }
    }

    fn arrive(&mut self) {
        if self.armed {
            self.armed = false;
            self.arrivals.fetch_add(1, Ordering::AcqRel);
        }
    }
}

impl Drop for Arrival<'_> {
    fn drop(&mut self) {
        if self.armed {
            // Sequenced before this arrival's release, so a sibling that
            // acquires the full arrival count sees it.
            self.unwound.store(true, Ordering::Relaxed);
        }
        self.arrive();
    }
}

/// The parent outputs of a [`run_tree_barrier`] submission, as seen by a
/// child task: a read-only window over every parent's expansion output,
/// published by the barrier before any child runs.
///
/// This is how the shared-arena engines hand a block of filled channel
/// rows from the fill wave to the resolve wave without a shared mutable
/// arena: each fill parent *returns* its rows as an owned value, the
/// barrier publishes them, and every resolve child reads any parent's
/// rows through [`Self::get`] — no atomics, no `unsafe`, and the borrows
/// live as long as the submission (`'a`), so children can keep slices
/// into any parent's output for their whole run.
pub struct ParentOutputs<'a, PR> {
    slots: &'a [OnceLock<PR>],
}

impl<PR> Clone for ParentOutputs<'_, PR> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<PR> Copy for ParentOutputs<'_, PR> {}

impl<'a, PR> ParentOutputs<'a, PR> {
    /// The expansion output of parent `parent` (submission order).
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range. Inside a [`run_tree_barrier`]
    /// child every in-range slot is published: no child runs after an
    /// expansion panic.
    pub fn get(&self, parent: usize) -> &'a PR {
        self.slots[parent]
            .get()
            .expect("parent output published by the expansion barrier")
    }

    /// Number of parents in the submission.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the submission had no parents.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// The one scheduler behind [`run_tree_barrier`] and [`run_indexed`]:
/// `threads` workers, spawned once, first drain the shared parent queue
/// (expanding each parent, queueing its children and publishing its
/// output), meet at an atomic arrival barrier, then drain the shared child
/// queue; results merge back in submission and path order.
///
/// The parents run on the caller's thread instead when the pool is one
/// worker — the sequential reference: all expansions, then all children —
/// or when there is at most one parent. A lone parent's children are then
/// known before any worker exists, so the pool is clamped to their count
/// (a one-cell sweep of four chunks spawns at most four workers, a
/// childless one none).
///
/// A task panic reaches the caller with its own payload at every thread
/// count: the first panicked worker's (in worker order) is re-raised after
/// every worker has been joined.
fn schedule<P, PR, C, R, E, F>(
    threads: usize,
    parents: Vec<P>,
    expand: E,
    child: F,
) -> Vec<(PR, Vec<R>)>
where
    P: Send,
    PR: Send + Sync,
    C: Send,
    R: Send,
    E: Fn(usize, P) -> (PR, Vec<C>) + Sync,
    F: Fn(TreePath, C, ParentOutputs<'_, PR>) -> R + Sync,
{
    let n_parents = parents.len();
    let slots: Vec<OnceLock<PR>> = (0..n_parents).map(|_| OnceLock::new()).collect();
    let publish = |pi: usize, pr: PR| {
        if slots[pi].set(pr).is_err() {
            unreachable!("parent {pi} expanded twice");
        }
    };
    let paths = |parent: usize, kids: Vec<C>| {
        kids.into_iter()
            .enumerate()
            .map(move |(child, c)| (TreePath { parent, child }, c))
    };
    let mut threads = threads;
    let mut queued = parents;
    let mut expanded: Vec<(TreePath, C)> = Vec::new();
    if threads <= 1 || n_parents <= 1 {
        for (pi, p) in queued.drain(..).enumerate() {
            let (pr, kids) = expand(pi, p);
            publish(pi, pr);
            expanded.extend(paths(pi, kids));
        }
        threads = threads.min(expanded.len());
    }
    let outputs = ParentOutputs { slots: &slots };

    let mut child_rows: Vec<(TreePath, R)> = if threads <= 1 {
        expanded
            .into_iter()
            .map(|(path, c)| (path, child(path, c, outputs)))
            .collect()
    } else {
        let parent_queue = Mutex::new(VecDeque::from_iter(queued.into_iter().enumerate()));
        let child_queue = Mutex::new(VecDeque::from(expanded));
        let arrivals = AtomicUsize::new(0);
        let unwound = AtomicBool::new(false);
        let worker = || {
            let mut arrival = Arrival::new(&arrivals, &unwound);
            while let Some((pi, p)) = claim(&parent_queue) {
                let (pr, kids) = expand(pi, p);
                child_queue
                    .lock()
                    .expect("task queue lock poisoned")
                    .extend(paths(pi, kids));
                publish(pi, pr);
            }
            // A worker arrives only once it observed the parent queue
            // drained and holds no parent, so `arrivals == threads`
            // certifies every expansion has completed, queued its children
            // and published its output. Expansions are short (one block of
            // bulk work), so a yielding spin outlasts nothing worth
            // parking for.
            arrival.arrive();
            while arrivals.load(Ordering::Acquire) < threads {
                std::thread::yield_now();
            }
            let mut rows: Vec<(TreePath, R)> = Vec::new();
            if !unwound.load(Ordering::Relaxed) {
                while let Some((path, c)) = claim(&child_queue) {
                    rows.push((path, child(path, c, outputs)));
                }
            }
            rows
        };
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            // Join every worker, then re-raise the first panic (in worker
            // order) with its own payload.
            let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
            match joined.into_iter().collect::<Result<Vec<_>, _>>() {
                Ok(rows) => rows.into_iter().flatten().collect(),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    };

    child_rows.sort_unstable_by_key(|&(path, _)| (path.parent, path.child));
    let mut out: Vec<(PR, Vec<R>)> = slots
        .into_iter()
        .map(|slot| {
            let pr = slot
                .into_inner()
                .expect("every parent published through the barrier");
            (pr, Vec::new())
        })
        .collect();
    for (path, r) in child_rows {
        out[path.parent].1.push(r);
    }
    out
}

/// Runs `f` over every `(index, task)` on a shared-queue thread pool and
/// returns the results **in task order**, regardless of thread count or
/// scheduling.
///
/// `f` must be a pure function of its arguments (plus shared read-only
/// captures) for the cross-thread-count determinism guarantee to hold —
/// which every sweep satisfies by deriving randomness via [`stream_seed`].
///
/// The tasks are childless parents of the [`run_tree_barrier`] scheduler,
/// on at most one worker per task. Single-task and single-thread calls run
/// inline on the caller's thread (no spawn overhead), making
/// `threads = 1` the literal sequential semantics the parallel runs are
/// tested against.
///
/// # Panics
///
/// Panics if a task panics, with that task's payload.
pub fn run_indexed<T, R, F>(tasks: Vec<T>, cfg: &ParallelConfig, f: F) -> Vec<R>
where
    T: Send,
    R: Send + Sync,
    F: Fn(usize, T) -> R + Sync,
{
    let threads = cfg.effective_threads(tasks.len());
    schedule(
        threads,
        tasks,
        |i, t| (f(i, t), Vec::<Infallible>::new()),
        |_, never: Infallible, _: ParentOutputs<'_, R>| never,
    )
    .into_iter()
    .map(|(r, _)| r)
    .collect()
}

/// Runs a **task tree** on one pool: a forest of `parents`, each expanded
/// by `expand` *on a worker* into an output value plus a list of child
/// tasks, every child evaluated by `child` on the same set of workers — so
/// load balancing crosses parent boundaries, and a nested sweep can submit
/// its entire (scenario × shift/seed) grid as one tree instead of paying
/// one pool (and one serializing join) per cell.
///
/// An **expansion barrier** separates the levels: every parent expands —
/// and its output value is published — before any child runs, and every
/// child receives a [`ParentOutputs`] window over *all* parent outputs
/// alongside its task. This is the producer/consumer bulk step of the
/// shared-arena engines: fill parents return their block's channel rows
/// as owned values, the barrier publishes them, resolve children read any
/// row they need. Both waves drain their shared queue on **one** set of
/// worker threads spawned once — the barrier is an atomic arrival count,
/// not a join — so a caller iterating fill/resolve steps per block pays
/// one spawn per block, not two. The arrival count's release/acquire
/// ordering (and the `OnceLock` publication) makes every expansion-side
/// value visible to every child. Children that need no parent output
/// ignore the window.
///
/// Returns, for every parent in **submission order**, its expansion
/// output and its children's results in **child order** — scheduling is
/// never observable, so results are bit-identical at any thread count.
/// `expand` and `child` must be pure functions of their arguments (plus
/// shared read-only captures). With one effective thread the two waves
/// run inline sequentially (all expansions, then all children), which is
/// the reference semantics the parallel runs are tested against. A
/// single-parent forest expands on the caller's thread and runs its
/// children on at most one worker per child.
///
/// # Panics
///
/// Panics if a task panics, with that task's payload. An expansion panic
/// releases the barrier via a drop guard rather than deadlocking the
/// siblings, and no child runs after it.
pub fn run_tree_barrier<P, PR, C, R, E, F>(
    parents: Vec<P>,
    cfg: &ParallelConfig,
    expand: E,
    child: F,
) -> Vec<(PR, Vec<R>)>
where
    P: Send,
    PR: Send + Sync,
    C: Send,
    R: Send,
    E: Fn(usize, P) -> (PR, Vec<C>) + Sync,
    F: Fn(TreePath, C, ParentOutputs<'_, PR>) -> R + Sync,
{
    schedule(cfg.requested_threads(), parents, expand, child)
}

// ---------------------------------------------------------------------
// Orchestrator hardening: panic quarantine, so one poisoned grid cell
// degrades its artifact instead of killing the whole submission.
// ---------------------------------------------------------------------

/// A quarantined task panic: the deterministic payload message of a task
/// that panicked inside [`quarantine`] instead of propagating through the
/// pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload, when it was a string (the only payloads this
    /// workspace produces); `"opaque panic payload"` otherwise. Callers
    /// recording quarantined failures in artifacts rely on panic messages
    /// being deterministic.
    pub message: String,
}

impl TaskPanic {
    /// A panic record carrying the given deterministic message.
    pub fn new(message: impl Into<String>) -> Self {
        TaskPanic {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panic: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

thread_local! {
    /// Set while this thread runs a [`quarantine`]d closure.
    static QUARANTINED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f`, converting a panic into a typed [`TaskPanic`] instead of
/// unwinding. This is the quarantine primitive: wrapping every task
/// closure of a [`run_indexed`]/[`run_tree_barrier`] submission in it
/// means no task ever panics *as seen by the pool*, so the barrier
/// machinery completes normally and the poisoned cell surfaces as an
/// `Err` in its result slot rather than killing its grid neighbors.
///
/// The panic is reported once, through that `Err`: the first call
/// installs a process panic hook that prints nothing for a panic inside
/// `quarantine` and hands every other panic to the hook installed before
/// it. A panic on a thread `f` spawns itself is outside the quarantine
/// and still prints.
pub fn quarantine<R>(f: impl FnOnce() -> R) -> Result<R, TaskPanic> {
    static INSTALL_HOOK: Once = Once::new();
    INSTALL_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUARANTINED.with(Cell::get) {
                previous(info);
            }
        }));
    });
    let outer = QUARANTINED.with(|q| q.replace(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    QUARANTINED.with(|q| q.set(outer));
    result.map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        };
        TaskPanic { message }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1usize, 2, 8] {
            let tasks: Vec<u64> = (0..257).collect();
            let out = run_indexed(
                tasks.clone(),
                &ParallelConfig::with_threads(threads),
                |i, t| {
                    assert_eq!(i as u64, t);
                    t * t
                },
            );
            let expected: Vec<u64> = tasks.iter().map(|t| t * t).collect();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_indexed(
            vec![(); 1000],
            &ParallelConfig::with_threads(4),
            |_i, ()| counter.fetch_add(1, Ordering::Relaxed),
        );
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn uneven_tasks_balance_across_workers() {
        // Task 0 holds its worker until the other 63 tasks have finished,
        // so the run completes only if the second worker drains the whole
        // queue behind it.
        let done = AtomicUsize::new(0);
        let tasks: Vec<u64> = (0..64).collect();
        let out = run_indexed(tasks.clone(), &ParallelConfig::with_threads(2), |i, t| {
            if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while done.load(Ordering::Acquire) < 63 {
                    assert!(
                        Instant::now() < deadline,
                        "the idle worker left tasks queued"
                    );
                    std::thread::yield_now();
                }
            } else {
                done.fetch_add(1, Ordering::AcqRel);
            }
            t * 3
        });
        let expected: Vec<u64> = tasks.iter().map(|t| t * 3).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn zero_and_one_task_edge_cases() {
        let empty: Vec<u64> = run_indexed(vec![], &ParallelConfig::default(), |_, t: u64| t);
        assert!(empty.is_empty());
        let one = run_indexed(vec![7u64], &ParallelConfig::with_threads(8), |i, t| {
            t + i as u64
        });
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(ParallelConfig::with_threads(8).effective_threads(3), 3);
        assert_eq!(ParallelConfig::with_threads(2).effective_threads(100), 2);
        assert_eq!(ParallelConfig::with_threads(5).effective_threads(0), 1);
        assert!(ParallelConfig::default().effective_threads(100) >= 1);
    }

    #[test]
    fn chunk_size_targets_four_chunks_per_worker() {
        assert_eq!(chunk_size(0, 8), 1);
        assert_eq!(chunk_size(1, 8), 1);
        assert_eq!(chunk_size(64, 2), 8);
        assert_eq!(chunk_size(37_000, 8), 1157);
        // Huge inputs still split into many chunks…
        assert_eq!(chunk_size(10_000_000, 8), 4096);
        // …and a zero thread count cannot divide by zero.
        assert_eq!(chunk_size(100, 0), 25);
    }

    #[test]
    fn chunk_size_crossover_points_are_pinned() {
        // Degenerate edges: no items still forms a (single, empty-range)
        // chunk; a single worker targets four chunks.
        assert_eq!(chunk_size(0, 1), 1);
        assert_eq!(chunk_size(1, 1), 1);
        assert_eq!(chunk_size(16, 1), 4);
        assert_eq!(chunk_size(17, 1), 5);
        // The low clamp: at items ≤ 4·threads every item is its own chunk,
        // and the first item past the boundary doubles the chunk.
        assert_eq!(chunk_size(4 * 8, 8), 1);
        assert_eq!(chunk_size(4 * 8 + 1, 8), 2);
        // Below the high clamp the policy is exactly ⌈items / 4·threads⌉…
        assert_eq!(chunk_size(100_000, 8), 3125);
        // …and the 4096 cap engages exactly at items = 4·threads·4096.
        assert_eq!(chunk_size(4 * 8 * 4096 - 1, 8), 4096);
        assert_eq!(chunk_size(4 * 8 * 4096, 8), 4096);
        assert_eq!(chunk_size(4 * 8 * 4096 + 1, 8), 4096);
    }

    #[test]
    fn barrier_publishes_every_fill_before_any_resolve() {
        // Fill parents 0..97 each publish i+1 as their owned output; a
        // final fan-out parent carries 33 resolve children that each sum
        // the whole window. The barrier guarantees no child observes an
        // unpublished slot.
        enum P {
            Fill(u64),
            FanOut,
        }
        for threads in [1usize, 2, 8] {
            let parents: Vec<P> = (0..97u64)
                .map(P::Fill)
                .chain(std::iter::once(P::FanOut))
                .collect();
            let out = run_tree_barrier(
                parents,
                &ParallelConfig::with_threads(threads),
                |pi, p| match p {
                    P::Fill(v) => {
                        assert_eq!(pi as u64, v);
                        (v + 1, Vec::new())
                    }
                    P::FanOut => (0, (0..33usize).collect()),
                },
                |_path, _c: usize, outputs: ParentOutputs<'_, u64>| {
                    (0..97)
                        .map(|pi| {
                            let v = *outputs.get(pi);
                            assert_ne!(v, 0, "resolve observed an unpublished fill");
                            v
                        })
                        .sum::<u64>()
                },
            );
            assert_eq!(out.len(), 98, "threads = {threads}");
            let expected = 97u64 * 98 / 2;
            assert_eq!(
                out.last().unwrap().1,
                vec![expected; 33],
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn barrier_results_come_back_in_path_order() {
        for threads in [1usize, 2, 8] {
            let out: Vec<(u64, Vec<u64>)> = run_tree_barrier(
                (0..23u64).collect(),
                &ParallelConfig::with_threads(threads),
                |pi, p| {
                    assert_eq!(pi as u64, p);
                    (p * 100, (0..p % 5).collect::<Vec<u64>>())
                },
                // Children read a *sibling's* output — legal only because
                // of the barrier — plus their own path.
                |path, c, outputs: ParentOutputs<'_, u64>| {
                    outputs.get((path.parent + 1) % 23) / 100 + path.parent as u64 * 1000 + c
                },
            );
            assert_eq!(out.len(), 23);
            for (pi, (pr, rs)) in out.iter().enumerate() {
                assert_eq!(*pr, pi as u64 * 100, "threads = {threads}");
                let sibling = ((pi + 1) % 23) as u64;
                let expected: Vec<u64> = (0..(pi as u64) % 5)
                    .map(|c| sibling + pi as u64 * 1000 + c)
                    .collect();
                assert_eq!(rs, &expected, "threads = {threads}");
            }
        }
    }

    #[test]
    fn barrier_empty_single_parent_and_childless_submissions() {
        let none: Vec<(u64, Vec<u64>)> = run_tree_barrier(
            Vec::<u64>::new(),
            &ParallelConfig::with_threads(4),
            |_, p| (p, vec![]),
            |_, c: u64, _outputs| c,
        );
        assert!(none.is_empty());
        // All-childless parents still publish their outputs in order.
        let childless: Vec<(u64, Vec<u64>)> = run_tree_barrier(
            vec![1u64, 2, 3],
            &ParallelConfig::with_threads(4),
            |_, p| (p * 10, Vec::<u64>::new()),
            |_, c: u64, _outputs| c,
        );
        assert_eq!(childless, vec![(10, vec![]), (20, vec![]), (30, vec![])]);
        // One parent expands on the caller's thread; its children still
        // come back in child order with the parent's output visible.
        let one = run_tree_barrier(
            vec![5u64],
            &ParallelConfig::with_threads(8),
            |_, p| (p, (0..p).collect::<Vec<u64>>()),
            |path, c, outputs: ParentOutputs<'_, u64>| {
                assert_eq!(*outputs.get(0), 5);
                c + path.child as u64
            },
        );
        assert_eq!(one, vec![(5, vec![0, 2, 4, 6, 8])]);
    }

    #[test]
    fn stream_seeds_are_collision_free_per_base() {
        for base in [0u64, 1, 42, u64::MAX] {
            let seeds: HashSet<u64> = (0..4096).map(|i| stream_seed(base, i)).collect();
            assert_eq!(seeds.len(), 4096, "collision under base {base}");
        }
    }
}
