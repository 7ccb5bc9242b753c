//! Contiguous-chunk fan-out over scoped threads: the one place the process
//! splits work over its cores (DESIGN.md "Where the process fans out").
//!
//! Results come back in input order and every chunk is a pure function of
//! its items, so what a caller computes never depends on the worker count
//! or on how the threads were scheduled — only how long it takes does.

use crate::TraceContext;
use std::panic::resume_unwind;
use std::sync::{Mutex, OnceLock};

/// Weight a worker's share must reach before the worker is granted. The
/// unit is a byte of recovery input: at startup the machine is idle, and a
/// second worker saves wall-clock time from ≈ 128 KiB (EXPERIMENTS.md E26).
/// Crypto, run under load where a thread only adds CPU (E35), counts ≈ 4 ns
/// of work per unit (`Group::mul_weight`), so its shares carry ≈ 250 µs.
const MIN_WEIGHT_PER_WORKER: usize = 64 * 1024;

/// The machine's available cores, read once per process (each
/// `available_parallelism` call re-reads the cgroup quota, ≈ 15 µs).
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// How many workers `weight` units of work are worth on `cores` cores: one
/// per `MIN_WEIGHT_PER_WORKER` (64 Ki), at least one, at most `cores`.
pub fn workers_for(weight: usize, cores: usize) -> usize {
    cores.min(weight / MIN_WEIGHT_PER_WORKER).max(1)
}
/// Lengths of at most `chunks` contiguous, non-empty runs of items of
/// near-equal total weight.
fn split_by_weight(weights: &[usize], chunks: usize) -> Vec<usize> {
    let total = weights.iter().sum::<usize>().max(1) as u128;
    let chunks = chunks.max(1);
    let mut lens = Vec::with_capacity(chunks);
    let mut seen = 0u128;
    let mut taken = 0;
    for &weight in weights {
        seen += weight as u128;
        taken += 1;
        // Cut once the running weight reaches the next 1/chunks of the
        // total; the last chunk takes whatever is left.
        if lens.len() + 1 < chunks && seen * chunks as u128 >= total * (lens.len() as u128 + 1) {
            lens.push(taken);
            taken = 0;
        }
    }
    if taken > 0 {
        lens.push(taken);
    }
    lens
}

/// Maps `f` over at most `workers` contiguous chunks of `items` of
/// near-equal `weight` (`None`: as many as the total weight is worth on
/// this machine, [`workers_for`]); the chunk results are concatenated in
/// input order. Every chunk but the first gets a scoped thread of its own;
/// the first goes to whichever thread is free first, the caller once
/// `alongside` returns or a worker done with its own chunk.
///
/// Items are handed to their worker by value, so a worker can pass on what
/// the caller allocated instead of allocating itself: memory a short-lived
/// thread allocates sits in that thread's allocator arena, where the rest
/// of the process does not reuse it once the thread is gone.
///
/// Spawned workers install the caller's [`TraceContext`], so whatever they
/// record nests under the caller's span. A worker's panic resumes on the
/// calling thread.
pub fn map_chunks<T: Send, R: Send, A>(
    items: Vec<T>,
    workers: Option<usize>,
    weight: impl Fn(&T) -> usize,
    f: impl Fn(Vec<T>) -> Vec<R> + Sync,
    alongside: impl FnOnce() -> A,
) -> (Vec<R>, A) {
    let weights: Vec<usize> = items.iter().map(weight).collect();
    let workers = workers.unwrap_or_else(|| workers_for(weights.iter().sum(), cores()));
    let lens = split_by_weight(&weights, workers);
    let mut items = items.into_iter();
    let mut chunks = lens
        .iter()
        .map(|&len| items.by_ref().take(len).collect::<Vec<T>>());
    let first = Mutex::new(chunks.next());
    let run_first = || {
        let chunk = first.lock().ok()?.take()?; // held for `take`: never poisoned
        Some(f(chunk))
    };
    let context = TraceContext::current();
    std::thread::scope(|scope| {
        let (f, run_first) = (&f, &run_first);
        let handles: Vec<_> = chunks
            .map(|chunk| {
                scope.spawn(move || {
                    let _trace_guard = context.map(TraceContext::install);
                    (f(chunk), run_first())
                })
            })
            .collect();
        let beside = alongside();
        let mut head = run_first();
        let mut tail = Vec::new();
        for handle in handles {
            let (part, ran_first) = handle.join().unwrap_or_else(|p| resume_unwind(p));
            tail.extend(part);
            head = head.or(ran_first);
        }
        let mut out = head.unwrap_or_default();
        out.extend(tail);
        (out, beside)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn chunks_cover_everything_and_balance_weight() {
        let weights = [10; 100];
        for chunks in 1..=9 {
            let lens = split_by_weight(&weights, chunks);
            assert_eq!(lens.len(), chunks);
            assert_eq!(lens.iter().sum::<usize>(), weights.len());
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 2, "{chunks} chunks: sizes {min}..{max}");
        }
        // One heavy item does not starve the chunks after it.
        assert_eq!(split_by_weight(&[1000, 1, 1, 1], 3), [1, 1, 2]);
        // Weightless items still land in a chunk.
        assert_eq!(split_by_weight(&[5, 0, 0], 2), [1, 2]);
        assert_eq!(split_by_weight(&[0, 0, 0], 2), [3]);
        // Fewer items than workers, no items at all.
        assert_eq!(split_by_weight(&[7, 8], 5), [1, 1]);
        assert!(split_by_weight(&[], 4).is_empty());
    }

    #[test]
    fn results_keep_input_order_for_any_worker_count() {
        let items: Vec<u32> = (0..57).collect();
        let expected: Vec<u32> = items.iter().map(|i| i * 3).collect();
        for workers in [1, 2, 3, 7, 64] {
            let (out, beside) = map_chunks(
                items.clone(),
                Some(workers),
                |_| 1,
                |chunk| chunk.into_iter().map(|i| i * 3).collect(),
                || "ran",
            );
            assert_eq!(out, expected, "{workers} workers");
            assert_eq!(beside, "ran");
        }
        let (none, ()) = map_chunks(Vec::<u32>::new(), Some(4), |_| 1, |chunk| chunk, || ());
        assert!(none.is_empty());
    }

    /// Runs `map_chunks` over items `0..3` on three workers, the first
    /// item's chunk marking `first_done`, the others waiting for it (at
    /// most 10 s) if `workers_wait`; `alongside` is `beside(first_done)`.
    /// Returns the thread each item ran on and what `alongside` returned.
    fn race_for_first<A>(
        workers_wait: bool,
        beside: impl FnOnce(&AtomicBool) -> A,
    ) -> (Vec<std::thread::ThreadId>, A) {
        let first_done = AtomicBool::new(false);
        map_chunks(
            (0..3).collect(),
            Some(3),
            |_| 1,
            |chunk| {
                if chunk == [0] {
                    first_done.store(true, Ordering::SeqCst);
                } else if workers_wait {
                    wait_for(&first_done);
                }
                vec![std::thread::current().id(); chunk.len()]
            },
            || beside(&first_done),
        )
    }

    fn wait_for(flag: &AtomicBool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::yield_now();
        }
        flag.load(Ordering::SeqCst)
    }

    #[test]
    fn the_first_chunk_runs_on_the_calling_thread() {
        // The workers wait for the first chunk, so only the caller can run it.
        let (ran_on, ()) = race_for_first(true, |_| ());
        let caller = std::thread::current().id();
        assert_eq!(ran_on[0], caller);
        assert!(ran_on[1..].iter().all(|id| *id != caller));
    }

    #[test]
    fn a_free_worker_runs_the_first_chunk_while_alongside_runs() {
        // `alongside` waits for the first chunk, so a worker must run it.
        let (ran_on, first_ran_beside) = race_for_first(false, wait_for);
        assert!(first_ran_beside, "the first chunk waited for `alongside`");
        assert_ne!(ran_on[0], std::thread::current().id());
    }

    #[test]
    fn workers_install_the_callers_trace_context() {
        let root = TraceContext::root();
        let _guard = root.install();
        let (seen, ()) = map_chunks(
            vec![1, 2, 3, 4],
            Some(4),
            |_| 1,
            |chunk| vec![TraceContext::current().map(|c| c.span_id); chunk.len()],
            || (),
        );
        assert_eq!(seen, vec![Some(root.span_id); 4]);
    }

    #[test]
    fn worker_count_follows_input_size_and_cores() {
        assert_eq!(workers_for(0, 2), 1);
        assert_eq!(workers_for(2 * MIN_WEIGHT_PER_WORKER - 1, 2), 1);
        assert_eq!(workers_for(2 * MIN_WEIGHT_PER_WORKER, 2), 2);
        assert_eq!(workers_for(usize::MAX, 2), 2);
        assert_eq!(workers_for(usize::MAX, 1), 1);
        // Recovery's split as E26 tuned it: a WAL or replay window gets a
        // second worker at 128 KiB.
        assert_eq!(workers_for(128 * 1024 - 1, 2), 1);
        assert_eq!(workers_for(128 * 1024, 2), 2);
        assert!(cores() >= 1);
    }

    #[test]
    fn no_worker_count_decides_from_the_total_weight() {
        let caller = std::thread::current().id();
        let (ran_on, ()) = map_chunks(
            vec![MIN_WEIGHT_PER_WORKER - 1; 2],
            None,
            |w| *w,
            |chunk| vec![std::thread::current().id(); chunk.len()],
            || (),
        );
        assert_eq!(ran_on, [caller, caller]);
    }
}
