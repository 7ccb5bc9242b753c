//! The one load generator every workload uses: seeded input streams,
//! a closed loop, an open (Poisson) loop that times from the *scheduled*
//! send instant, and a serial loop with an untimed prepare step.
//!
//! The generator owns its random stream (not the program's
//! `relay::chaos::SplitMix64`), so a change to the program under test can
//! never change the inputs the parent and the change are measured on.

use super::sys::process_cpu;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// SplitMix64: tiny, seedable, and good enough to draw op sequences.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for `lane` (a thread or a purpose) of the
    /// run seeded `seed`.
    pub fn for_lane(seed: u64, lane: u64) -> Self {
        let mut root = SplitMix64(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        SplitMix64(root.next_u64())
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Fills `out` with random bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Zipf(1.0) over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64 / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Arrival offsets of a Poisson process of `rate_per_s` over `window`,
/// measured from the start of the phase.
pub fn poisson_schedule(rng: &mut SplitMix64, rate_per_s: f64, window: Duration) -> Vec<Duration> {
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity((rate_per_s * window.as_secs_f64() * 1.1) as usize + 8);
    loop {
        at += -rng.unit().ln() / rate_per_s;
        if at > window.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// How one operation ended, as judged by the workload's oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed and every output checked out.
    Ok,
    /// An operation that had to be refused, and was (excluded from
    /// latency, not a failure).
    ExpectedReject,
    /// An error, a wrong output, or an expected reject that was accepted.
    Failed,
}

/// One measured operation, packed into 16 bytes: a fast workload keeps
/// hundreds of thousands of these, and the harness's own memory should
/// stay small beside the peak resident set it reports.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    latency_ns: u64,
    late_us: u32,
    /// The oracle's verdict.
    pub outcome: Outcome,
}

impl Sample {
    fn new(latency: Duration, late: Duration, outcome: Outcome) -> Self {
        Sample {
            latency_ns: u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
            late_us: u32::try_from(late.as_micros()).unwrap_or(u32::MAX),
            outcome,
        }
    }

    /// Completion minus scheduled start (open loop) or minus actual
    /// start (closed and serial loops).
    pub fn latency(&self) -> Duration {
        Duration::from_nanos(self.latency_ns)
    }

    /// How far behind its schedule the generator sent it (open loop
    /// only; microsecond resolution, saturating at about 71 minutes).
    pub fn late(&self) -> Duration {
        Duration::from_micros(u64::from(self.late_us))
    }
}

/// Everything one measured phase produced.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Per-operation samples, every thread's concatenated.
    pub samples: Vec<Sample>,
    /// Wall time the throughput is divided by: phase start to last
    /// completion for the threaded loops, the sum of the timed sections
    /// for the serial loop.
    pub wall: Duration,
    /// Process CPU time over the same interval(s).
    pub cpu: Duration,
}

impl Phase {
    /// Operations whose outcome is `outcome`.
    pub fn count(&self, outcome: Outcome) -> u64 {
        self.samples.iter().filter(|s| s.outcome == outcome).count() as u64
    }

    /// Latencies of the ok operations in milliseconds, unsorted.
    pub fn ok_latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.outcome == Outcome::Ok)
            .map(|s| s.latency().as_secs_f64() * 1e3)
            .collect()
    }

    /// Generator lateness of every operation in milliseconds, unsorted.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.late().as_secs_f64() * 1e3)
            .collect()
    }

    /// Appends another phase's samples and adds its wall and CPU time.
    pub fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

/// Closed loop: `threads` clients, each sending its next operation as soon
/// as the previous one completed, for `window`. `make_worker(thread)`
/// builds the per-thread operation (it owns that thread's input stream).
pub fn closed_loop<W, F>(threads: usize, window: Duration, mut make_worker: W) -> Phase
where
    W: FnMut(usize) -> F,
    F: FnMut() -> Outcome + Send,
{
    let workers: Vec<F> = (0..threads).map(&mut make_worker).collect();
    run_threads(workers, move |_, mut op| {
        let until = Instant::now() + window;
        let mut samples = Vec::new();
        loop {
            let start = Instant::now();
            if start >= until {
                return samples;
            }
            let outcome = op();
            samples.push(Sample::new(start.elapsed(), Duration::ZERO, outcome));
        }
    })
}

/// Open loop: thread `i` sends one operation at each offset of
/// `schedules[i]`, whether or not earlier ones have completed on other
/// threads; latency runs from the scheduled instant, so time an operation
/// spent waiting behind a slow predecessor on its own thread is counted.
pub fn open_loop<W, F>(schedules: &[Vec<Duration>], mut make_worker: W) -> Phase
where
    W: FnMut(usize) -> F,
    F: FnMut() -> Outcome + Send,
{
    let workers: Vec<F> = (0..schedules.len()).map(&mut make_worker).collect();
    run_threads(workers, move |thread, mut op| {
        let start = Instant::now();
        let schedule = &schedules[thread];
        let mut samples = Vec::with_capacity(schedule.len());
        for &offset in schedule {
            let due = start + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let outcome = op();
            samples.push(Sample::new(
                Instant::now().saturating_duration_since(due),
                sent.saturating_duration_since(due),
                outcome,
            ));
        }
        samples
    })
}

/// Runs `body(thread, worker)` on one thread per worker, released together
/// by a barrier, and brackets the whole phase with wall and CPU clocks.
fn run_threads<F, B>(workers: Vec<F>, body: B) -> Phase
where
    F: Send,
    B: Fn(usize, F) -> Vec<Sample> + Sync,
{
    let barrier = Barrier::new(workers.len() + 1);
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(thread, worker)| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    barrier.wait();
                    body(thread, worker)
                })
            })
            .collect();
        let cpu_before = process_cpu();
        barrier.wait();
        let started = Instant::now();
        for handle in handles {
            phase
                .samples
                .extend(handle.join().expect("load thread panicked"));
        }
        phase.wall = started.elapsed();
        phase.cpu = process_cpu().saturating_sub(cpu_before);
    });
    phase
}

/// Serial loop, one client, exactly `ops` operations: `prepare` (untimed)
/// builds the next input, `op` (timed, wall and CPU) runs it, `check`
/// (untimed) judges the output. The amount of work is fixed, not the
/// time, so that state which grows with every operation (a ledger, its
/// memory) is the same size on every commit measured.
pub fn serial_loop<P, R>(
    ops: usize,
    mut prepare: impl FnMut() -> P,
    mut op: impl FnMut(P) -> R,
    mut check: impl FnMut(R) -> Outcome,
) -> Phase {
    let mut phase = Phase::default();
    phase.samples.reserve(ops);
    for _ in 0..ops {
        let input = prepare();
        let cpu_before = process_cpu();
        let start = Instant::now();
        let output = op(input);
        let latency = start.elapsed();
        phase.cpu += process_cpu().saturating_sub(cpu_before);
        phase.wall += latency;
        phase
            .samples
            .push(Sample::new(latency, Duration::ZERO, check(output)));
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams_and_schedule() {
        let draw = |seed| {
            let mut rng = SplitMix64::for_lane(seed, 3);
            let zipf = Zipf::new(12);
            let ops: Vec<usize> = (0..200).map(|_| zipf.sample(&mut rng)).collect();
            let schedule = poisson_schedule(&mut rng, 80.0, Duration::from_secs(5));
            (ops, schedule)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn lanes_are_independent() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::for_lane(1, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::for_lane(1, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn poisson_rate_is_close_and_ordered() {
        let mut rng = SplitMix64::new(42);
        let schedule = poisson_schedule(&mut rng, 1000.0, Duration::from_secs(10));
        assert!(
            (9_500..10_500).contains(&schedule.len()),
            "{}",
            schedule.len()
        );
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_covers_all() {
        let zipf = Zipf::new(12);
        let mut rng = SplitMix64::new(5);
        let mut counts = [0u32; 12];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[5]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn open_loop_times_from_the_scheduled_instant() {
        // One thread, two arrivals 1 ms apart, each op takes 20 ms: the
        // second waits ~19 ms behind the first and must be charged for it.
        let schedules = vec![vec![Duration::from_millis(1), Duration::from_millis(2)]];
        let phase = open_loop(&schedules, |_| {
            || {
                std::thread::sleep(Duration::from_millis(20));
                Outcome::Ok
            }
        });
        assert_eq!(phase.samples.len(), 2);
        assert!(phase.samples[1].latency() >= Duration::from_millis(38));
        assert!(phase.samples[1].late() >= Duration::from_millis(18));
    }

    #[test]
    fn closed_loop_runs_every_thread_for_the_window() {
        let phase = closed_loop(2, Duration::from_millis(50), |_| {
            || {
                std::thread::sleep(Duration::from_millis(5));
                Outcome::Ok
            }
        });
        assert!(phase.samples.len() >= 10, "{}", phase.samples.len());
        assert!(phase.wall >= Duration::from_millis(50));
    }

    #[test]
    fn serial_loop_times_only_the_op() {
        let phase = serial_loop(
            3,
            || std::thread::sleep(Duration::from_millis(10)),
            |()| std::thread::sleep(Duration::from_millis(2)),
            |()| Outcome::Ok,
        );
        assert_eq!(phase.samples.len(), 3);
        assert!(phase.wall < Duration::from_millis(25), "{:?}", phase.wall);
    }
}
