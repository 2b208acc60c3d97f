//! Scoped-thread parallel driver shared by the matching engine and the distributed runtime.
//!
//! The environment has no external crates (no rayon), so fan-out is built on
//! `std::thread::scope`: a worker pool is spawned per call, each worker produces one
//! result, and results are returned **in worker order** so callers can merge
//! deterministically.
//!
//! Work distribution is chunked: [`chunk_plan`] cuts an index range into contiguous
//! chunks whose boundaries depend only on the range length (never on the thread count),
//! and [`StealScheduler`] deals those chunks to per-worker deques from which idle workers
//! steal *whole chunks*. Chunks amortise the scheduler's locking over many balls. Each
//! ball is evaluated independently of the others, so the worker that runs a chunk never
//! changes its rows: that is how `MatchOutput` stays bit-identical across thread counts.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};
use std::thread;

/// Locks a scheduler deque, recovering from poisoning. A worker panicking while holding
/// a deque guard poisons the `Mutex`, but the protected state is a plain `VecDeque` —
/// every push/pop leaves it valid, so the poison flag carries no information here. Other
/// workers (and the supervised recovery path, which outlives contained panics) keep
/// scheduling instead of cascading the panic pool-wide.
fn lock_deque<T>(queue: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
    queue
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Hard ceiling on the `SSIM_THREADS` override. Worker pools are spawned per call, so a
/// runaway override (`SSIM_THREADS=1000000`) would pay a million thread spawns *per
/// parallel section* — far past any machine's core count and enough to exhaust process
/// limits. 512 comfortably covers every real runner while keeping a typo survivable.
pub const MAX_THREAD_OVERRIDE: usize = 512;

/// Parses an `SSIM_THREADS` override value: trimmed, base-10, zero and garbage rejected
/// (fall back to the probe), anything above [`MAX_THREAD_OVERRIDE`] clamped down to it.
/// Split out from [`available_threads`] so the policy is unit-testable without mutating
/// process-global environment state under a concurrent test harness.
pub fn thread_override(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n.min(MAX_THREAD_OVERRIDE)),
        _ => None,
    }
}

/// Number of worker threads the machine supports. The `SSIM_THREADS` environment
/// variable overrides the probe (CI uses it to force a multi-thread pool on any runner);
/// unparsable or zero values fall back to the probe, and overrides are clamped to
/// [`MAX_THREAD_OVERRIDE`].
pub fn available_threads() -> usize {
    if let Some(n) = std::env::var("SSIM_THREADS")
        .ok()
        .and_then(|s| thread_override(&s))
    {
        return n;
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Clamps a requested thread count to the number of work items, so no worker is spawned
/// just to find its queue empty (with `threads > items`, trailing workers would pay
/// spawn-and-join overhead for nothing). Always at least 1.
pub fn effective_workers(threads: usize, items: usize) -> usize {
    threads.clamp(1, items.max(1))
}

/// Best-effort extraction of the human-readable message from a panic payload
/// (`panic!("…")` carries `String` or `&'static str`; anything else is opaque).
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Runs `worker(0), …, worker(threads - 1)` on scoped threads and returns their results in
/// worker order. With `threads <= 1` the single worker runs inline on the caller's thread.
///
/// # Panics
/// Propagates the first (in worker order) worker panic, re-raised with the worker index
/// and the original payload's message so failures in the parallel suites are
/// attributable. Workers that annotate their own panics (see the engine's chunk loop)
/// compose: the final message carries worker, chunk, and center.
pub fn par_workers<T, F>(threads: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        return vec![worker(0)];
    }
    thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || worker(t)))
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(t, h)| match h.join() {
                Ok(v) => v,
                Err(payload) => {
                    panic!("parallel worker {t} panicked: {}", panic_message(&*payload))
                }
            })
            .collect()
    })
}

/// The indices of `0..len` assigned to worker `t` of `threads` under striped assignment.
///
/// Striping (worker `t` takes `t, t + threads, t + 2·threads, …`) balances workloads whose
/// cost varies smoothly along the index range. The chunk scheduler has replaced it in the
/// engine's fan-out; it remains the right shape for index-addressed side arrays.
pub fn stripe(len: usize, threads: usize, t: usize) -> impl Iterator<Item = usize> {
    (t..len).step_by(threads.max(1))
}

/// The contiguous slice of `0..len` assigned to worker `t` of `threads`, balanced to
/// within one element. Workers beyond `len` receive empty ranges — callers that spawn
/// one thread per slice should clamp with [`effective_workers`] first.
pub fn contiguous(len: usize, threads: usize, t: usize) -> Range<usize> {
    let threads = threads.max(1);
    let base = len / threads;
    let extra = len % threads;
    let start = t * base + t.min(extra);
    let end = start + base + usize::from(t < extra);
    start.min(len)..end.min(len)
}

/// Smallest chunk the planner emits: big enough to amortise a scheduler lock.
pub const MIN_CHUNK: usize = 16;
/// Largest chunk the planner emits: small enough that stealing can rebalance a skewed
/// corpus even at low thread counts.
pub const MAX_CHUNK: usize = 256;
/// Target chunks-per-input divisor: ~64 chunks for large inputs keeps steal granularity
/// fine without drowning small inputs in per-chunk scheduling.
const CHUNK_DIVISOR: usize = 64;

/// Cuts `0..len` into locality-contiguous chunks of ~`len / 64` consecutive indices
/// (clamped to `[MIN_CHUNK, MAX_CHUNK]`), balanced to within one element.
///
/// The plan depends only on `len` — **never** on the thread count — so every consumer
/// sees the same chunk boundaries whether it runs sequentially or on any pool size.
/// That invariance is what keeps the chunk counters of `MatchStats` bit-identical across
/// thread counts.
pub fn chunk_plan(len: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let target = (len / CHUNK_DIVISOR).clamp(MIN_CHUNK, MAX_CHUNK);
    let chunks = len.div_ceil(target);
    (0..chunks).map(|c| contiguous(len, chunks, c)).collect()
}

/// Work-stealing deques of whole work items (the engine's items are chunk ranges).
///
/// Each worker owns a deque seeded with a contiguous block of the item list (so worker
/// `t`'s initial items are the same ones [`contiguous`] would have handed it). A worker
/// drains its own deque from the front; when empty it steals from the *back* of the
/// longest other deque — the back is the victim's coldest work, far from the items it
/// is running.
///
/// The scheduler only hands out *which* items run *where*; item content never depends on
/// scheduling, so results stay deterministic however the steals fall.
pub struct StealScheduler<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
}

impl<T> StealScheduler<T> {
    /// Deals `items` to `workers` deques in contiguous blocks, in order.
    pub fn new(workers: usize, items: Vec<T>) -> Self {
        let workers = workers.max(1);
        let len = items.len();
        let mut queues: Vec<VecDeque<T>> = (0..workers).map(|_| VecDeque::new()).collect();
        let mut iter = items.into_iter();
        for (t, queue) in queues.iter_mut().enumerate() {
            for _ in contiguous(len, workers, t) {
                queue.push_back(iter.next().expect("contiguous blocks cover the items"));
            }
        }
        StealScheduler {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// The next item for `worker`: its own deque's front, else one stolen from the back
    /// of the longest other deque. Returns the item and whether it was stolen; `None`
    /// once every deque is empty. Poisoned deques (a worker died mid-lock) are recovered,
    /// not propagated — see [`lock_deque`].
    pub fn next(&self, worker: usize) -> Option<(T, bool)> {
        if let Some(item) = lock_deque(&self.queues[worker]).pop_front() {
            return Some((item, false));
        }
        loop {
            let mut victim: Option<(usize, usize)> = None;
            for (v, queue) in self.queues.iter().enumerate() {
                if v == worker {
                    continue;
                }
                let len = lock_deque(queue).len();
                if len > 0 && victim.is_none_or(|(_, best)| len > best) {
                    victim = Some((v, len));
                }
            }
            let (v, _) = victim?;
            // The victim may have drained between the scan and the steal; rescan.
            if let Some(item) = lock_deque(&self.queues[v]).pop_back() {
                return Some((item, true));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_worker_order() {
        let results = par_workers(8, |t| t * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_worker_runs_inline() {
        let calls = AtomicUsize::new(0);
        let results = par_workers(1, |t| {
            calls.fetch_add(1, Ordering::SeqCst);
            t
        });
        assert_eq!(results, vec![0]);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(par_workers(0, |t| t), vec![0]);
    }

    #[test]
    fn stripes_partition_the_range() {
        let mut all: Vec<usize> = (0..4).flat_map(|t| stripe(10, 4, t)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert_eq!(stripe(10, 4, 1).collect::<Vec<_>>(), vec![1, 5, 9]);
        assert_eq!(stripe(3, 8, 5).count(), 0);
    }

    #[test]
    fn contiguous_ranges_partition_the_range() {
        for (len, threads) in [(10, 4), (3, 8), (0, 3), (7, 1), (12, 12)] {
            let mut all: Vec<usize> = (0..threads)
                .flat_map(|t| contiguous(len, threads, t))
                .collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..len).collect::<Vec<_>>(),
                "len={len} threads={threads}"
            );
            // Balanced to within one element.
            let sizes: Vec<usize> = (0..threads)
                .map(|t| contiguous(len, threads, t).len())
                .collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced: {sizes:?}");
        }
        assert_eq!(contiguous(10, 4, 0), 0..3);
        assert_eq!(contiguous(10, 4, 3), 8..10);
    }

    #[test]
    fn effective_workers_clamps_to_items() {
        // The bugfix this pins: `threads > items` used to spawn workers with empty
        // ranges; the clamp keeps every spawned worker busy.
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(4, 100), 4);
        assert_eq!(effective_workers(0, 5), 1);
        assert_eq!(effective_workers(8, 0), 1);
        assert_eq!(effective_workers(1, 1), 1);
    }

    #[test]
    fn chunk_plan_is_an_exact_partition() {
        for len in [0, 1, 15, 16, 17, 100, 1024, 3000, 16_384, 100_000] {
            let plan = chunk_plan(len);
            let mut all: Vec<usize> = plan.iter().flat_map(|r| r.clone()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..len).collect::<Vec<_>>(), "len={len}");
            for chunk in &plan {
                assert!(!chunk.is_empty(), "empty chunk in plan for len={len}");
                assert!(
                    chunk.len() <= MAX_CHUNK + 1,
                    "oversized chunk {chunk:?} for len={len}"
                );
            }
        }
        // Small inputs are one chunk; the plan never depends on any thread count.
        assert_eq!(chunk_plan(10), vec![0..10]);
        assert!(chunk_plan(0).is_empty());
    }

    #[test]
    fn scheduler_hands_out_every_item_exactly_once() {
        let items: Vec<usize> = (0..97).collect();
        let scheduler = StealScheduler::new(4, items);
        let counts: Vec<Mutex<Vec<usize>>> = (0..4).map(|_| Mutex::new(Vec::new())).collect();
        let stolen = AtomicUsize::new(0);
        par_workers(4, |t| {
            while let Some((item, was_stolen)) = scheduler.next(t) {
                counts[t].lock().unwrap().push(item);
                if was_stolen {
                    stolen.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        let mut all: Vec<usize> = counts
            .iter()
            .flat_map(|c| c.lock().unwrap().clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..97).collect::<Vec<_>>());
    }

    #[test]
    fn scheduler_steals_from_a_loaded_victim() {
        // Worker 0 owns everything; worker 1 must steal to make progress.
        let scheduler = StealScheduler::new(1, vec![1, 2, 3]);
        let scheduler = StealScheduler {
            queues: scheduler
                .queues
                .into_iter()
                .chain(std::iter::once(Mutex::new(VecDeque::new())))
                .collect(),
        };
        let (item, stolen) = scheduler.next(1).expect("steal succeeds");
        assert!(stolen);
        assert_eq!(item, 3, "steals come from the victim's back (coldest work)");
        let (item, stolen) = scheduler.next(0).expect("own front");
        assert!(!stolen);
        assert_eq!(item, 1);
    }

    #[test]
    fn scheduler_survives_a_poisoned_deque() {
        // A worker panicking while holding a deque guard poisons the Mutex; the
        // scheduler must recover the guard (the VecDeque is always valid) so the
        // surviving workers — and the fault-recovery supervision loop — keep draining.
        let scheduler = StealScheduler::new(2, vec![1, 2, 3, 4]);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = scheduler.queues[0].lock().unwrap();
            panic!("die while holding the deque");
        }));
        assert!(poison.is_err());
        assert!(scheduler.queues[0].is_poisoned());
        // Owner pops and steals both still work on the poisoned deque.
        assert_eq!(scheduler.next(0), Some((1, false)));
        let mut drained = Vec::new();
        for worker in [1, 1, 1] {
            drained.push(scheduler.next(worker).expect("items remain").0);
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![2, 3, 4]);
        assert_eq!(scheduler.next(0), None);
        assert_eq!(scheduler.next(1), None);
    }

    #[test]
    fn thread_override_parses_and_clamps() {
        assert_eq!(thread_override("4"), Some(4));
        assert_eq!(
            thread_override(" 8 "),
            Some(8),
            "surrounding whitespace trimmed"
        );
        assert_eq!(thread_override("512"), Some(MAX_THREAD_OVERRIDE));
        assert_eq!(
            thread_override("513"),
            Some(MAX_THREAD_OVERRIDE),
            "one past the bound clamps down"
        );
        assert_eq!(
            thread_override("1000000"),
            Some(MAX_THREAD_OVERRIDE),
            "a runaway override must not spawn a million threads"
        );
        assert_eq!(thread_override("0"), None, "zero falls back to the probe");
        assert_eq!(thread_override("garbage"), None);
        assert_eq!(thread_override(""), None);
        assert_eq!(thread_override("-3"), None);
    }

    #[test]
    #[should_panic(expected = "parallel worker 1 panicked: boom")]
    fn worker_panics_propagate() {
        let _ = par_workers(2, |t| {
            if t == 1 {
                panic!("boom");
            }
            t
        });
    }
}
