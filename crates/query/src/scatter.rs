//! A small worker pool for parallel scatter-gather.
//!
//! The paper's Section 5 broker scatters a query to every chosen
//! partition and gathers per-partition top-k lists. On one machine the
//! honest analogue is a fixed pool of OS threads — one standing in for
//! each query processor — that evaluate shards concurrently while the
//! coordinator thread waits.
//!
//! Design notes:
//!
//! * **Fixed pool, not per-query spawn.** Threads are created once and
//!   reused.
//! * **One shared batch per enqueue.** A caller hands the pool one
//!   object describing *all* of its tasks (`IndexedTasks`: a count
//!   and "run task `i`"). Enqueueing it is one queue-lock acquisition
//!   and one allocation whatever the task count; workers then *claim
//!   task indices* from the batch's atomic counter (no per-task queue
//!   lock, no boxed closure), write each result into that task's own
//!   pre-sized slot, and the worker that lands the last result wakes
//!   the caller — once. With shard tasks of a few µs this hand-off is
//!   what decides whether the pool beats a plain loop.
//! * **Deterministic gather.** Results come back in *task order*
//!   regardless of completion order; callers that merge in task order
//!   therefore produce bit-for-bit the same output as a sequential
//!   loop. A panicking task is re-raised on the caller only after the
//!   whole batch has landed, and it is always the panic of the lowest
//!   task index — never "whichever was scheduled first".
//! * **Only workers run tasks.** The caller parks until its batch is
//!   done; it neither runs tasks itself nor consumes results while
//!   workers are still busy. Both were measured on 2 vCPUs and left
//!   out: a caller that yield-waits for results in task order steals a
//!   worker's core (a pool of 2 served 12.9–14.7k ops/s against
//!   14.4–16.9k parked), and a caller that helps breaks the "one
//!   thread per query processor" reading the tests pin.
//! * **`'static` tasks.** A batch owns its inputs (`Arc` shards, owned
//!   term vectors), so nothing borrows from the submitting stack frame
//!   and the pool can outlive any particular query.

use crate::lock_recovering;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{JoinHandle, Thread};

/// A batch of tasks addressed by index — what a caller hands the pool.
/// Workers call [`Self::run`] concurrently, each index exactly once.
pub(crate) trait IndexedTasks: Send + Sync + 'static {
    /// What one task returns.
    type Output: Send + 'static;

    /// Number of tasks; valid indices are `0..count()`.
    fn count(&self) -> usize;

    /// Run task `i` (on a pool worker).
    fn run(&self, i: usize) -> Self::Output;

    /// Task `i`'s label (see [`task_label`]), decoded into the message
    /// when that task's panic is re-raised. Read on the caller, and only
    /// after a panic.
    fn label(&self, _i: usize) -> Option<u64> {
        None
    }
}

/// What a task left in its slot: its result, or its panic payload.
type Outcome<T> = Result<T, Box<dyn Any + Send>>;

/// One enqueue: the tasks, the claim counter, a slot per result, and the
/// latch the caller sleeps on.
struct Batch<B: IndexedTasks> {
    tasks: B,
    /// Next unclaimed task index. `Relaxed`: it only hands out tickets;
    /// the batch itself reaches a worker through the queue mutex.
    next: AtomicUsize,
    slots: Vec<Mutex<Option<Outcome<B::Output>>>>,
    /// Tasks not yet landed. Decremented `AcqRel` after the slot write;
    /// the caller's `Acquire` load of 0 therefore sees every slot.
    remaining: AtomicUsize,
    caller: Thread,
}

/// The type-erased face of a [`Batch`] that sits in the pool's queue.
trait Claimable: Send + Sync {
    /// Every task index has been claimed (not necessarily finished).
    fn exhausted(&self) -> bool;
    /// Claim and run tasks until none is left unclaimed.
    fn drain(&self);
}

impl<B: IndexedTasks> Claimable for Batch<B> {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.slots.len()
    }

    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.slots.get(i) else { return };
            let outcome = catch_unwind(AssertUnwindSafe(|| self.tasks.run(i)));
            *lock_recovering(slot) = Some(outcome);
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.caller.unpark();
            }
        }
    }
}

struct PoolState {
    /// Batches that may still have unclaimed tasks, oldest first.
    queue: VecDeque<Arc<dyn Claimable>>,
    shutdown: bool,
}

impl PoolState {
    /// The oldest batch with an unclaimed task, discarding exhausted
    /// ones on the way: workers finish a batch before starting the next,
    /// so a later batch is never starved by an earlier client's refills.
    fn claimable(&mut self) -> Option<Arc<dyn Claimable>> {
        while self.queue.front()?.exhausted() {
            self.queue.pop_front();
        }
        self.queue.front().cloned()
    }
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

/// A fixed-size worker pool dedicated to scatter-gather evaluation.
pub struct ScatterPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ScatterPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScatterPool").field("threads", &self.workers.len()).finish()
    }
}

impl ScatterPool {
    /// Create a pool of `threads` workers. `threads == 0` is well-defined
    /// and clamps to a single worker (a zero-thread pool could never
    /// drain its queue, so `scatter` would deadlock); `threads == 1`
    /// degenerates to sequential evaluation on one worker thread.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { queue: VecDeque::new(), shutdown: false }),
            work_ready: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dwr-scatter-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scatter worker")
            })
            .collect();
        ScatterPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Run every task on the pool and gather the results **in task
    /// order**, blocking until all are done.
    ///
    /// # Panics
    /// Panics if a task panics (the panic is surfaced on the caller, not
    /// swallowed by a worker): once every task has finished, the panic
    /// of the lowest-indexed panicking task is resumed.
    pub fn scatter<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.scatter_tasks(tasks.into_iter().map(|task| (None, task)))
    }

    /// Run several task *groups* on the pool as **one** batch, gathering
    /// each group's results in task order.
    ///
    /// This is the batched-admission primitive: a broker serving N queued
    /// queries hands over all of their shard tasks in a single enqueue
    /// and is woken once, instead of N times each.
    /// `scatter_batch(vec![a, b])` returns exactly what
    /// `[scatter(a), scatter(b)]` would — group results come back in
    /// group order, each in task order — so callers that gather in order
    /// stay bit-identical to the query-at-a-time loop.
    ///
    /// # Panics
    /// Panics if any task panics, as [`Self::scatter`] does (lowest
    /// task index in flattened group order).
    pub fn scatter_batch<T, F>(&self, groups: Vec<Vec<F>>) -> Vec<Vec<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        let mut flat =
            self.scatter_tasks(groups.into_iter().flatten().map(|task| (None, task))).into_iter();
        sizes.into_iter().map(|n| flat.by_ref().take(n).collect()).collect()
    }

    /// The closure adapter over [`Self::run`]: each `FnOnce` waits in a
    /// cell until a worker claims its index. A task may carry a label
    /// (see [`task_label`]).
    ///
    /// # Panics
    /// As [`Self::run`].
    pub(crate) fn scatter_tasks<T, F>(
        &self,
        tasks: impl IntoIterator<Item = (Option<u64>, F)>,
    ) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.run(OnceTasks(
            tasks.into_iter().map(|(label, task)| (label, Mutex::new(Some(task)))).collect(),
        ))
    }

    /// The one enqueue-and-gather core behind [`Self::scatter`],
    /// [`Self::scatter_batch`] and the broker's batches: the whole batch
    /// is admitted under a single queue-lock acquisition, workers claim
    /// its task indices, and the caller parks until the last result has
    /// landed. Results come back **in task order** whatever order
    /// workers finish in. Every task runs on a pool worker, never on the
    /// caller.
    ///
    /// A panicking labeled task is re-raised on the caller with the
    /// label decoded into the message, so a crash inside a shard
    /// evaluation racing a repartition identifies exactly which (epoch,
    /// partition) was being served; an unlabeled task's panic is resumed
    /// untouched.
    ///
    /// # Panics
    /// Panics if a task panics — after the **whole** batch has finished,
    /// with the panic of the **lowest task index**, so which panic
    /// surfaces does not depend on scheduling — with `scatter task
    /// [label …]` prefixed to the message when labeled.
    pub(crate) fn run<B: IndexedTasks>(&self, tasks: B) -> Vec<B::Output> {
        let n = tasks.count();
        if n == 0 {
            return Vec::new();
        }
        let batch = Arc::new(Batch {
            tasks,
            next: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(n),
            caller: std::thread::current(),
        });
        let queued: Arc<dyn Claimable> = Arc::clone(&batch) as _;
        lock_recovering(&self.shared.state).queue.push_back(queued);
        if n == 1 {
            self.shared.work_ready.notify_one();
        } else {
            self.shared.work_ready.notify_all();
        }
        // `park` may return spuriously (or on a token left by an earlier
        // batch); the count is the condition.
        while batch.remaining.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        let mut results = Vec::with_capacity(n);
        for (i, slot) in batch.slots.iter().enumerate() {
            let outcome = lock_recovering(slot).take().expect("every task landed its outcome");
            match outcome {
                Ok(v) => results.push(v),
                Err(payload) => reraise(batch.tasks.label(i), payload),
            }
        }
        results
    }
}

/// Re-raise a task's panic on the caller: untouched when unlabeled,
/// naming the (epoch, partition) that dispatched it when labeled.
fn reraise(label: Option<u64>, payload: Box<dyn Any + Send>) -> ! {
    let Some(label) = label else { std::panic::resume_unwind(payload) };
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    panic!(
        "scatter task [label {label:#018x}: epoch {}, partition {}] panicked: {msg}",
        label >> 32,
        label & 0xffff_ffff,
    );
}

/// [`IndexedTasks`] over owned closures: `(label, cell)` per task, the
/// cell emptied by the one worker that claims the index.
struct OnceTasks<F>(Vec<(Option<u64>, Mutex<Option<F>>)>);

impl<T, F> IndexedTasks for OnceTasks<F>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    type Output = T;

    fn count(&self) -> usize {
        self.0.len()
    }

    fn run(&self, i: usize) -> T {
        let task = lock_recovering(&self.0[i].1).take().expect("each index is claimed once");
        task()
    }

    fn label(&self, i: usize) -> Option<u64> {
        self.0[i].0
    }
}

/// The scatter-task label for a shard evaluation: epoch in the high 32
/// bits, partition id in the low 32. Labels make a panic during a
/// query-vs-split race attributable to the exact map snapshot that
/// dispatched the work.
pub fn task_label(epoch: u64, partition: u32) -> u64 {
    (epoch << 32) | u64::from(partition)
}

impl Drop for ScatterPool {
    fn drop(&mut self) {
        lock_recovering(&self.shared.state).shutdown = true;
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Spin iterations before a worker parks on the condvar. Queries arrive
/// back-to-back during stream serving; parking between two ~10µs shard
/// tasks would cost more in wakeup latency than the tasks themselves, so
/// workers stay hot for roughly the duration of one query first.
const SPIN_ITERS: u32 = 4_096;

/// Spinning helps only when workers have their own cores; on a
/// single-hardware-thread host it steals the coordinator's CPU, so park
/// immediately there.
fn spin_limit() -> u32 {
    static LIMIT: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *LIMIT.get_or_init(|| {
        if std::thread::available_parallelism().map_or(1, usize::from) > 1 {
            SPIN_ITERS
        } else {
            0
        }
    })
}

fn worker_loop(shared: &PoolShared) {
    let limit = spin_limit();
    let mut spins: u32 = 0;
    loop {
        // One lock per batch, not per task: pick the oldest batch with
        // work (or notice shutdown), parking only once the spin budget
        // is spent.
        let batch = {
            let mut state = lock_recovering(&shared.state);
            loop {
                if let Some(batch) = state.claimable() {
                    break Some(batch);
                }
                if state.shutdown {
                    return;
                }
                if spins < limit {
                    break None;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match batch {
            Some(batch) => {
                batch.drain();
                spins = 0;
            }
            None => {
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order() {
        let pool = ScatterPool::new(4);
        let tasks: Vec<_> = (0..32usize)
            .map(|i| {
                move || {
                    // Stagger so completion order differs from task order.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((32 - i) % 5) as u64 * 50,
                    ));
                    i * 10
                }
            })
            .collect();
        let got = pool.scatter(tasks);
        assert_eq!(got, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = ScatterPool::new(2);
        for round in 0..10usize {
            let got = pool.scatter((0..8).map(|i| move || i + round).collect::<Vec<_>>());
            assert_eq!(got, (0..8).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = ScatterPool::new(2);
        let got: Vec<u32> = pool.scatter(Vec::<fn() -> u32>::new());
        assert!(got.is_empty());
    }

    #[test]
    fn work_actually_runs_on_pool_threads() {
        let pool = ScatterPool::new(3);
        let on_worker = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..12)
            .map(|_| {
                let on_worker = Arc::clone(&on_worker);
                move || {
                    let name = std::thread::current().name().unwrap_or("").to_string();
                    if name.starts_with("dwr-scatter-") {
                        on_worker.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
            .collect();
        pool.scatter(tasks);
        assert_eq!(on_worker.load(Ordering::Relaxed), 12);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panic_propagates_to_caller() {
        let pool = ScatterPool::new(2);
        pool.scatter(vec![|| panic!("boom")]);
    }

    #[test]
    fn pool_survives_a_task_panic() {
        let pool = ScatterPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scatter(vec![|| panic!("boom")])
        }));
        assert!(r.is_err());
        // Workers caught the panic; the pool still serves.
        let got = pool.scatter(vec![|| 1, || 2, || 3]);
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn panicked_task_does_not_wedge_other_threads() {
        let pool = Arc::new(ScatterPool::new(2));
        // Client thread A panics (the task panic is re-raised on it).
        let poisoner = Arc::clone(&pool);
        std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                poisoner.scatter(vec![|| panic!("boom")])
            }));
        })
        .join()
        .expect("catch_unwind contains the panic");
        // Other client threads keep scattering on the same pool.
        std::thread::scope(|s| {
            for t in 0..3usize {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    let got = pool.scatter((0..8).map(|i| move || i * t).collect::<Vec<_>>());
                    assert_eq!(got, (0..8).map(|i| i * t).collect::<Vec<_>>());
                });
            }
        });
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ScatterPool::new(2);
        drop(pool); // must not hang
    }

    /// Regression: a zero-thread pool would have an empty worker set and
    /// `scatter` would block forever on the result channel. The clamp
    /// must leave exactly one worker and the pool must actually serve.
    #[test]
    fn zero_thread_pool_clamps_to_one_and_serves() {
        let pool = ScatterPool::new(0);
        assert_eq!(pool.threads(), 1);
        let got = pool.scatter((0..16).map(|i| move || i * 2).collect::<Vec<_>>());
        assert_eq!(got, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_pool_preserves_order_and_handles_panics() {
        let pool = ScatterPool::new(1);
        assert_eq!(pool.threads(), 1);
        let got = pool.scatter((0..8usize).map(|i| move || i + 100).collect::<Vec<_>>());
        assert_eq!(got, (100..108).collect::<Vec<_>>());
        // The lone worker must survive a panicking task.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scatter(vec![|| panic!("boom")])
        }));
        assert!(r.is_err());
        assert_eq!(pool.scatter(vec![|| 7]), vec![7]);
    }

    #[test]
    fn scatter_batch_matches_per_group_scatter() {
        let pool = ScatterPool::new(4);
        let groups: Vec<Vec<_>> = (0..5usize)
            .map(|g| {
                (0..g + 1)
                    .map(|i| {
                        move || {
                            std::thread::sleep(std::time::Duration::from_micros(
                                ((7 - i) % 3) as u64 * 40,
                            ));
                            g * 100 + i
                        }
                    })
                    .collect()
            })
            .collect();
        let got = pool.scatter_batch(groups);
        let want: Vec<Vec<usize>> =
            (0..5).map(|g| (0..g + 1).map(|i| g * 100 + i).collect()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scatter_batch_handles_empty_shapes() {
        let pool = ScatterPool::new(2);
        let got: Vec<Vec<u32>> = pool.scatter_batch(Vec::<Vec<fn() -> u32>>::new());
        assert!(got.is_empty());
        let got: Vec<Vec<u32>> =
            pool.scatter_batch(vec![Vec::<fn() -> u32>::new(), Vec::<fn() -> u32>::new()]);
        assert_eq!(got, vec![Vec::<u32>::new(), Vec::<u32>::new()]);
        let one: fn() -> u32 = || 1;
        let three: fn() -> u32 = || 3;
        let got = pool.scatter_batch(vec![vec![one], Vec::new(), vec![three]]);
        assert_eq!(got, vec![vec![1], vec![], vec![3]]);
    }

    #[test]
    #[should_panic(expected = "batch boom")]
    fn scatter_batch_propagates_task_panics() {
        let pool = ScatterPool::new(2);
        let ok: fn() -> u32 = || 1;
        let bad: fn() -> u32 = || panic!("batch boom");
        pool.scatter_batch(vec![vec![ok], vec![bad]]);
    }

    #[test]
    fn labeled_tasks_preserve_task_order() {
        let pool = ScatterPool::new(4);
        let tasks = (0..16usize).map(|i| {
            (Some(task_label(3, i as u32)), move || {
                std::thread::sleep(std::time::Duration::from_micros(((16 - i) % 4) as u64 * 40));
                i * 7
            })
        });
        assert_eq!(pool.scatter_tasks(tasks), (0..16).map(|i| i * 7).collect::<Vec<_>>());
    }

    /// A batch flattens several queries' shard tasks into one enqueue;
    /// a panic in any of them — here the second query's — must still
    /// name the (epoch, partition) that dispatched it.
    #[test]
    #[should_panic(expected = "epoch 5, partition 2")]
    fn scatter_labeled_panic_names_epoch_and_partition() {
        let pool = ScatterPool::new(2);
        let ok: fn() -> u32 = || 1;
        let bad: fn() -> u32 = || panic!("shard blew up");
        let groups = vec![
            vec![(task_label(5, 0), ok), (task_label(5, 1), ok), (task_label(5, 2), ok)],
            vec![(task_label(5, 0), ok), (task_label(5, 2), bad)],
            vec![(task_label(5, 1), ok)],
        ];
        pool.scatter_tasks(groups.into_iter().flatten().map(|(label, task)| (Some(label), task)));
    }

    /// Regression: the gather used to re-raise the first panic it
    /// *received*. Here partition 1 (task 0) and partition 3 (task 1)
    /// both panic and partition 3 always finishes first: task 0 holds
    /// one of the two workers at the barrier, so the other worker lands
    /// task 1's panic before it can claim task 2, which releases task 0.
    #[test]
    fn lowest_indexed_panic_surfaces_whichever_finished_first() {
        let pool = ScatterPool::new(2);
        for _ in 0..20 {
            let gate = Arc::new(std::sync::Barrier::new(2));
            let (early, release) = (Arc::clone(&gate), gate);
            type Task = Box<dyn FnOnce() + Send>;
            let tasks: Vec<(Option<u64>, Task)> = vec![
                (
                    Some(task_label(5, 1)),
                    Box::new(move || {
                        early.wait();
                        panic!("slow shard blew up");
                    }),
                ),
                (Some(task_label(5, 3)), Box::new(|| panic!("fast shard blew up"))),
                (
                    Some(task_label(5, 4)),
                    Box::new(move || {
                        release.wait();
                    }),
                ),
            ];
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.scatter_tasks(tasks)
            }))
            .expect_err("two tasks panicked");
            let msg = payload.downcast_ref::<String>().expect("labeled panics carry a String");
            assert!(msg.contains("epoch 5, partition 1"), "{msg}");
            assert!(msg.contains("slow shard blew up"), "{msg}");
        }
    }

    #[test]
    fn task_label_packs_epoch_and_partition() {
        assert_eq!(task_label(0, 0), 0);
        assert_eq!(task_label(1, 3), (1 << 32) | 3);
        assert_eq!(task_label(u32::MAX as u64, u32::MAX), u64::MAX);
    }
}
