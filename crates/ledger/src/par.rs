//! Contiguous-chunk fan-out over scoped threads: the one threading
//! primitive of crash recovery (WAL frame verification here, envelope
//! decoding in `tdt_fabric::peer`).
//!
//! Results come back in input order and every chunk is a pure function of
//! its items, so what recovery computes never depends on the worker count
//! or on how the threads were scheduled — only how long it takes does.

use tdt_obs::TraceContext;

/// Input bytes below which one more worker costs more to spawn than it
/// saves. Re-measured when SHA-256 and CRC32 moved onto the CPU's own
/// instructions (EXPERIMENTS.md E26, 2 vCPUs): a second worker breaks even
/// at ≈ 128 KiB of WAL (≈ 32 KiB on the scalar kernels) and ≈ 128 KiB of
/// replayed envelopes, twice this, which is when [`workers_for`] grants it.
const MIN_BYTES_PER_WORKER: usize = 64 * 1024;

/// How many workers `bytes` bytes of input are worth on this machine: one
/// per `MIN_BYTES_PER_WORKER` (64 KiB), at most one per available core.
pub fn workers_for(bytes: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    cores.min(bytes / MIN_BYTES_PER_WORKER).max(1)
}

/// Lengths of at most `chunks` contiguous, non-empty runs of `items` of
/// near-equal total `weight`.
fn split_by_weight<T>(items: &[T], chunks: usize, weight: impl Fn(&T) -> usize) -> Vec<usize> {
    let total = items.iter().map(&weight).sum::<usize>().max(1) as u128;
    let chunks = chunks.max(1);
    let mut lens = Vec::with_capacity(chunks);
    let mut seen = 0u128;
    let mut taken = 0;
    for item in items {
        seen += weight(item) as u128;
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

/// Maps `f` over at most `workers` contiguous chunks of `items`, one scoped
/// thread per chunk, while `alongside` runs on the calling thread; the
/// chunk results are concatenated in input order. A single chunk runs
/// inline, after `alongside`, and spawns nothing.
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
    workers: usize,
    weight: impl Fn(&T) -> usize,
    f: impl Fn(Vec<T>) -> Vec<R> + Sync,
    alongside: impl FnOnce() -> A,
) -> (Vec<R>, A) {
    let lens = split_by_weight(&items, workers, weight);
    if lens.len() <= 1 {
        let beside = alongside();
        return (f(items), beside);
    }
    let count = items.len();
    let mut items = items.into_iter();
    let chunks: Vec<Vec<T>> = lens
        .iter()
        .map(|&len| items.by_ref().take(len).collect())
        .collect();
    let context = TraceContext::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let f = &f;
                scope.spawn(move || {
                    let _trace_guard = context.map(TraceContext::install);
                    f(chunk)
                })
            })
            .collect();
        let beside = alongside();
        let mut out = Vec::with_capacity(count);
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        (out, beside)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_and_balance_weight() {
        let items: Vec<usize> = (0..100).collect();
        for chunks in 1..=9 {
            let lens = split_by_weight(&items, chunks, |_| 10);
            assert_eq!(lens.len(), chunks);
            assert_eq!(lens.iter().sum::<usize>(), items.len());
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 2, "{chunks} chunks: sizes {min}..{max}");
        }
        // One heavy item does not starve the chunks after it.
        assert_eq!(split_by_weight(&[1000, 1, 1, 1], 3, |w| *w), [1, 1, 2]);
        // Weightless items still land in a chunk.
        assert_eq!(split_by_weight(&[5, 0, 0], 2, |w| *w), [1, 2]);
        assert_eq!(split_by_weight(&[0, 0, 0], 2, |w| *w), [3]);
        // Fewer items than workers, no items at all.
        assert_eq!(split_by_weight(&[7, 8], 5, |w| *w), [1, 1]);
        assert!(split_by_weight(&[0u8; 0], 4, |_| 1).is_empty());
    }

    #[test]
    fn results_keep_input_order_for_any_worker_count() {
        let items: Vec<u32> = (0..57).collect();
        let expected: Vec<u32> = items.iter().map(|i| i * 3).collect();
        for workers in [1, 2, 3, 7, 64] {
            let (out, beside) = map_chunks(
                items.clone(),
                workers,
                |_| 1,
                |chunk| chunk.into_iter().map(|i| i * 3).collect(),
                || "ran",
            );
            assert_eq!(out, expected, "{workers} workers");
            assert_eq!(beside, "ran");
        }
        let (none, ()) = map_chunks(Vec::<u32>::new(), 4, |_| 1, |chunk| chunk, || ());
        assert!(none.is_empty());
    }

    #[test]
    fn workers_install_the_callers_trace_context() {
        let root = TraceContext::root();
        let _guard = root.install();
        let (seen, ()) = map_chunks(
            vec![1, 2, 3, 4],
            4,
            |_| 1,
            |chunk| vec![TraceContext::current().map(|c| c.span_id); chunk.len()],
            || (),
        );
        assert_eq!(seen, vec![Some(root.span_id); 4]);
    }

    #[test]
    fn worker_count_follows_input_size_and_cores() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(MIN_BYTES_PER_WORKER - 1), 1);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        assert_eq!(workers_for(usize::MAX), cores);
    }
}
