//! The five workloads and what they share: run configuration, the
//! end-to-end result, the per-layer sample store, and the repeated,
//! timed set-up.
//!
//! Every constant that fixes offered load lives in this directory and is
//! never recalibrated at run time, so a parent commit and a change are
//! always measured against identical inputs.

pub mod accept_commit;
pub mod ledger_durable;
pub mod ledger_recover;
pub mod query_tcp;
pub mod relay_echo;

use crate::harness::loadgen::{
    closed_loop, open_loop, poisson_schedule, Outcome, Phase, SplitMix64,
};
use crate::harness::stats::{self, MIN_SAMPLES_BEYOND};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in the order a full run executes them. Later issues
/// cite these names; do not rename them.
pub const WORKLOADS: [&str; 5] = [
    query_tcp::NAME,
    relay_echo::NAME,
    accept_commit::NAME,
    ledger_durable::NAME,
    ledger_recover::NAME,
];

/// Sizes that differ between a measuring run and a smoke run. A smoke run
/// only proves that every path still works and every metric is emitted;
/// its numbers mean nothing.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Bills of lading issued before `query_tcp` starts.
    pub bls: usize,
    /// Divides every warm-up count.
    pub warmup_div: usize,
    /// Blocks in the chain `ledger_recover` reopens.
    pub recover_blocks: usize,
    /// Samples that must lie beyond a reported percentile.
    pub min_beyond: usize,
    /// Least operations of each traced loop (the selected workload's loop
    /// also runs for a quarter of the run's seconds).
    pub trace_ops_div: usize,
}

impl Scale {
    /// A measuring run.
    pub const FULL: Scale = Scale {
        bls: 32,
        warmup_div: 1,
        // Default snapshot interval is 64: one snapshot plus half an
        // interval of blocks to replay, the expected case at a crash.
        recover_blocks: 96,
        min_beyond: MIN_SAMPLES_BEYOND,
        trace_ops_div: 1,
    };

    /// `--smoke`, and the test suite.
    pub const SMOKE: Scale = Scale {
        bls: 3,
        warmup_div: 25,
        recover_blocks: 6,
        min_beyond: 0,
        trace_ops_div: 12,
    };
}

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Drives every generated input: op sequence, requester and PO choice,
    /// arrival schedule, payloads.
    pub seed: u64,
    /// Seconds an untraced run measures: wall time of the threaded
    /// workloads' phases, and what the serial workloads' fixed operation
    /// counts are sized for on the reference box.
    pub window: Duration,
    /// Directory this run may create files under; removed when it ends.
    pub work_dir: PathBuf,
    /// Fixture and sample sizes.
    pub scale: Scale,
}

impl RunConfig {
    /// Operations a serial workload runs: `per_second` for every second of
    /// the run, at least one.
    pub fn serial_ops(&self, per_second: f64) -> usize {
        ((self.window.as_secs_f64() * per_second).round() as usize).max(1)
    }
}

/// A value with its unit, for printing.
pub type Quantity = (f64, &'static str);

/// What an untraced run of one workload measured.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Operations sent in the measured phases.
    pub attempted: u64,
    /// Errors, wrong outputs, and expected rejects that were accepted.
    pub failed: u64,
    /// Operations that had to be refused and were.
    pub expected_rejects: u64,
    /// Median wall time of building the fixture and warming it up.
    pub setup_s: f64,
    /// Verified completions per second of the throughput phase.
    pub throughput_ops_s: f64,
    /// Median latency of ok operations in the latency phase.
    pub latency_p50_ms: f64,
    /// 90th-percentile latency of the same operations.
    pub latency_p90_ms: f64,
    /// Process CPU time over the measured phases per ok operation.
    pub cpu_ms_per_op: f64,
    /// Ungated figures printed beside the metrics.
    pub diagnostics: BTreeMap<&'static str, Quantity>,
    /// Every correctness problem found; empty on a correct run.
    pub problems: Vec<String>,
}

/// Latency statistics of one phase, by the rules the metric definitions
/// state: ok operations only, percentile guard, limit misses counted
/// against everything attempted.
pub(crate) fn fill_latency(
    out: &mut EndToEnd,
    phase: &Phase,
    limit_ms: f64,
    min_beyond: usize,
) -> Result<(), String> {
    let mut ok_ms = phase.ok_latencies_ms();
    stats::sort(&mut ok_ms);
    let pct =
        |q: f64| stats::percentile(&ok_ms, q, min_beyond).map_err(|e| format!("latency: {e}"));
    out.latency_p50_ms = pct(0.50)?;
    out.latency_p90_ms = pct(0.90)?;
    out.diagnostics
        .insert("latency_samples", (ok_ms.len() as f64, "count"));
    // Higher percentiles are informative only, and only where the
    // samples support them (p95 needs 200, p99 needs 1000).
    for (q, name) in [(0.95, "tail.latency_p95_ms"), (0.99, "tail.latency_p99_ms")] {
        if let Ok(value) = stats::percentile(&ok_ms, q, min_beyond) {
            out.diagnostics.insert(name, (value, "ms"));
        }
    }
    let over =
        ok_ms.iter().filter(|&&ms| ms > limit_ms).count() as u64 + phase.count(Outcome::Failed);
    out.diagnostics.insert(
        "tail.limit_miss_ratio",
        (over as f64 / phase.samples.len().max(1) as f64, "ratio"),
    );
    Ok(())
}

/// Counts of all `phases`, and throughput and CPU per op over them taken
/// together.
pub(crate) fn fill_counts<'a>(out: &mut EndToEnd, phases: impl IntoIterator<Item = &'a Phase>) {
    let (mut ok, mut wall, mut cpu) = (0u64, Duration::ZERO, Duration::ZERO);
    for phase in phases {
        out.attempted += phase.samples.len() as u64;
        out.failed += phase.count(Outcome::Failed);
        out.expected_rejects += phase.count(Outcome::ExpectedReject);
        ok += phase.count(Outcome::Ok);
        wall += phase.wall;
        cpu += phase.cpu;
    }
    out.throughput_ops_s = ok as f64 / wall.as_secs_f64();
    out.cpu_ms_per_op = cpu.as_secs_f64() * 1e3 / ok.max(1) as f64;
    out.diagnostics.insert(
        "fail_ratio",
        (out.failed as f64 / out.attempted.max(1) as f64, "ratio"),
    );
}

/// One round of a threaded workload: a closed-loop segment (for
/// throughput) followed by an open-loop segment (for latency).
///
/// The threaded workloads split their run into rounds and report the
/// median round, because on a two-core box the closed-loop rate of a
/// thread-per-hop relay depends on where the scheduler happens to place
/// the generator and server threads (segments of one process differ by
/// ±20 %); every round respawns the generator threads.
pub(crate) struct Round {
    closed: Phase,
    open: Phase,
}

/// The shape of a threaded workload's run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundSpec {
    /// Rounds per run.
    pub rounds: usize,
    /// Generator threads.
    pub clients: usize,
    /// Share of the run's seconds spent in closed-loop segments.
    pub closed_share: f64,
    /// Poisson arrival rate of the open-loop segments.
    pub open_rate_per_s: f64,
}

/// Runs round `round` of `spec`: `spec.clients` generator threads, closed
/// loop and then open loop, each for its share of the run's seconds
/// divided by the number of rounds. `worker(lane)` builds the operation of
/// one generator thread of one segment from that lane's seeded input
/// stream.
pub(crate) fn run_round<W, F>(cfg: &RunConfig, spec: RoundSpec, round: usize, worker: W) -> Round
where
    W: Fn(u64) -> F,
    F: FnMut() -> Outcome + Send,
{
    let per_round = |share: f64| cfg.window.mul_f64(share / spec.rounds as f64);
    // Three lanes per thread and round: closed ops, arrivals, open ops.
    let lane = |kind: usize, thread: usize| ((round * 3 + kind) * spec.clients + thread) as u64;
    let closed = closed_loop(spec.clients, per_round(spec.closed_share), |t| {
        worker(lane(0, t))
    });
    let schedules: Vec<Vec<Duration>> = (0..spec.clients)
        .map(|t| {
            poisson_schedule(
                &mut SplitMix64::for_lane(cfg.seed, lane(1, t)),
                spec.open_rate_per_s / spec.clients as f64,
                per_round(1.0 - spec.closed_share),
            )
        })
        .collect();
    let open = open_loop(&schedules, |t| worker(lane(2, t)));
    Round { closed, open }
}

/// Fills `out` from a threaded run. Every figure is the **median round's**:
/// the closed-loop rate, the CPU per op, and the 50th and 90th percentile
/// of the round's open-loop latencies — a slow spell of the host spoils
/// the rounds it hits, not the run. The sample guard applies to the
/// open-loop samples of all rounds together.
pub(crate) fn fill_rounds(
    out: &mut EndToEnd,
    rounds: Vec<Round>,
    limit_ms: f64,
    min_beyond: usize,
) -> Result<(), String> {
    fill_counts(out, rounds.iter().flat_map(|r| [&r.closed, &r.open]));
    let (mut rates, mut cpus, mut p50s, mut p90s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut open = Phase::default();
    for round in rounds {
        let closed_ok = round.closed.count(Outcome::Ok);
        rates.push(closed_ok as f64 / round.closed.wall.as_secs_f64());
        let ok = closed_ok + round.open.count(Outcome::Ok);
        cpus.push((round.closed.cpu + round.open.cpu).as_secs_f64() * 1e3 / ok.max(1) as f64);
        let mut ok_ms = round.open.ok_latencies_ms();
        stats::sort(&mut ok_ms);
        p50s.push(stats::percentile(&ok_ms, 0.50, 0)?);
        p90s.push(stats::percentile(&ok_ms, 0.90, 0)?);
        open.absorb(round.open);
    }
    fill_latency(out, &open, limit_ms, min_beyond)?;
    out.throughput_ops_s = stats::median_of(&rates)?;
    out.cpu_ms_per_op = stats::median_of(&cpus)?;
    out.latency_p50_ms = stats::median_of(&p50s)?;
    out.latency_p90_ms = stats::median_of(&p90s)?;
    let mut late = open.lateness_ms();
    stats::sort(&mut late);
    if let Ok(p99) = stats::percentile(&late, 0.99, 0) {
        // Includes the wait behind the previous operation on the same
        // generator thread (each thread sends one operation at a time).
        out.diagnostics
            .insert("harness.gen_late_p99_ms", (p99, "ms"));
    }
    Ok(())
}

/// Set-up is repeated while it is cheap, so that the median of a
/// millisecond-scale set-up is not one scheduler hiccup: up to
/// [`SETUP_MAX_REPEATS`] times, stopping once [`SETUP_BUDGET`] is spent.
pub const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// See [`SETUP_BUDGET`].
pub const SETUP_MAX_REPEATS: usize = 5;

/// Builds the fixture (warm-up included) repeatedly, dropping all but the
/// last, and returns it with the median build time in seconds.
pub(crate) fn timed_setup<F>(
    mut build: impl FnMut() -> Result<F, String>,
) -> Result<(F, f64), String> {
    let mut times = Vec::new();
    let mut spent = Duration::ZERO;
    loop {
        let started = Instant::now();
        let fixture = build()?;
        let took = started.elapsed();
        times.push(took.as_secs_f64());
        spent += took;
        if times.len() >= SETUP_MAX_REPEATS || spent >= SETUP_BUDGET {
            return Ok((fixture, stats::median_of(&times)?));
        }
        drop(fixture);
    }
}

/// Per-layer measurements of a traced run: timing samples (reported as
/// their median) and counts (reported as they are).
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds a timing sample to metric `name`, converted to the unit its
    /// suffix names (`_ms` or `_us`).
    ///
    /// # Panics
    ///
    /// Panics when `name` has neither suffix: a programming error.
    pub fn time(&mut self, name: &'static str, took: Duration) {
        let value = if name.ends_with("_ms") {
            took.as_secs_f64() * 1e3
        } else if name.ends_with("_us") {
            took.as_secs_f64() * 1e6
        } else {
            panic!("timing metric {name} must end in _ms or _us");
        };
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds a plain sample (already in the metric's unit).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Sets a count or ratio.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// The metric's value: the count, or the median of its samples.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.counts.get(name).copied().or_else(|| {
            self.samples
                .get(name)
                .and_then(|s| stats::median_of(s).ok())
        })
    }

    /// Samples behind a timing metric.
    pub fn sample_count(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }
}

/// Runs `f` and returns its result with the clock readings around it.
pub(crate) fn clocked<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let start = Instant::now();
    let value = f();
    (value, start, Instant::now())
}

/// How long a traced loop runs: at least `min_ops` operations, and until
/// `window` has passed.
#[derive(Debug, Clone, Copy)]
pub struct TraceBudget {
    /// Least operations.
    pub min_ops: usize,
    /// Least wall time (zero for the workloads not selected).
    pub window: Duration,
}

impl TraceBudget {
    /// True while the loop should run another operation.
    pub fn more(&self, done: usize, started: Instant) -> bool {
        done < self.min_ops || started.elapsed() < self.window
    }
}

/// What a traced loop reports about itself.
#[derive(Debug, Clone, Copy)]
pub struct TraceSummary {
    /// Median of the traced (decomposed) operations, milliseconds.
    pub traced_p50_ms: f64,
    /// Median of the untraced (single public call) operations interleaved
    /// with them, milliseconds.
    pub untraced_p50_ms: f64,
}

impl TraceSummary {
    pub(crate) fn from_samples(traced_ms: &[f64], untraced_ms: &[f64]) -> Result<Self, String> {
        Ok(TraceSummary {
            traced_p50_ms: stats::median_of(traced_ms)?,
            untraced_p50_ms: stats::median_of(untraced_ms)?,
        })
    }

    /// Traced over untraced median.
    pub fn overhead_ratio(&self) -> f64 {
        self.traced_p50_ms / self.untraced_p50_ms
    }
}
