//! `tdtbench` — the repository's benchmark: the paper's ten-step protocol
//! driven for real (two networks, relays over TCP on loopback, a durable
//! ledger on a real directory) from one process sized for a two-core box,
//! every output checked, end-to-end metrics from an untraced run and a
//! per-layer latency budget from a separate traced run.
//!
//! The benchmark calls only the shipped public APIs of the crates under
//! `crates/`, records its own spans around those calls, and changes nothing
//! in them. See `README.md` beside this crate for the metric glossary, the
//! workload rationale and how to read the budget table.

pub mod compare;
pub mod durable;
pub mod fixture;
pub mod manifest;
pub mod workloads;
pub mod harness {
    //! Measurement machinery with no knowledge of the system under test.
    pub mod json;
    pub mod loadgen;
    pub mod spans;
    pub mod stats;
    pub mod sys;
}

use fixture::{RelayPair, Testbed};
use harness::json::Json;
use harness::spans::{Budget, SpanLog};
use std::time::Duration;
use workloads::{
    accept_commit, ledger_durable, ledger_recover, query_tcp, relay_echo, EndToEnd, Layers,
    RunConfig, TraceBudget, TraceSummary,
};

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Runs `workload` untraced.
///
/// # Errors
///
/// Unknown workload names, set-up failures, and statistics the samples
/// cannot support.
pub fn run_untraced(workload: &str, cfg: &RunConfig) -> Result<EndToEnd, String> {
    match workload {
        query_tcp::NAME => query_tcp::run(cfg),
        relay_echo::NAME => relay_echo::run(cfg),
        accept_commit::NAME => accept_commit::run(cfg),
        ledger_durable::NAME => ledger_durable::run(cfg),
        ledger_recover::NAME => ledger_recover::run(cfg),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {:?}",
            workloads::WORKLOADS
        )),
    }
}

/// The end-to-end metrics of an untraced run, in manifest order. Reads
/// the process's peak resident set now, so call it when the run is over.
///
/// # Errors
///
/// When `/proc` cannot be read.
pub fn end_to_end_metrics(run: &EndToEnd) -> Result<Vec<Metric>, String> {
    let values = [
        run.setup_s,
        run.throughput_ops_s,
        run.latency_p50_ms,
        run.latency_p90_ms,
        run.cpu_ms_per_op,
        harness::sys::peak_rss_mib()?,
    ];
    Ok(manifest::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect())
}

/// What a traced run produced.
pub struct Traced {
    /// Per-layer samples and counts from every traced loop.
    pub layers: Layers,
    /// One span log per workload, in [`workloads::WORKLOADS`] order.
    pub logs: Vec<(&'static str, SpanLog)>,
    /// The selected loop's traced-vs-untraced medians.
    pub summary: TraceSummary,
    /// Operations run (traced and untraced), all of which succeeded.
    pub attempted: u64,
}

impl Traced {
    /// The per-layer budget of `workload`'s traced operations.
    pub fn budget(&self, workload: &str) -> Option<Budget> {
        self.logs
            .iter()
            .find(|(name, _)| *name == workload)
            .map(|(_, log)| log.budget("op"))
    }

    /// Checks that the parts of every decomposed span add up to it.
    ///
    /// # Errors
    ///
    /// The residual, when it exceeds [`manifest::MAX_BUDGET_RESIDUAL`].
    pub fn check_budget(&self) -> Result<(), String> {
        match self.layers.value("harness.budget_residual_ratio") {
            Some(residual) if residual <= manifest::MAX_BUDGET_RESIDUAL => Ok(()),
            residual => Err(format!(
                "budget does not close: residual {residual:?} exceeds {}",
                manifest::MAX_BUDGET_RESIDUAL
            )),
        }
    }

    /// The per-layer metrics, in manifest order.
    ///
    /// # Errors
    ///
    /// Names a metric no traced loop produced: a bug in this program.
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        manifest::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                self.layers
                    .value(name)
                    .map(|value| (name, value, unit))
                    .ok_or_else(|| format!("traced run produced no value for {name}"))
            })
            .collect()
    }
}

/// Readings of the cache and pool counters that outlive the traced loops;
/// the hit and reuse ratios are deltas between two readings.
#[derive(Debug, Clone, Copy)]
struct Counters {
    chain_hits: u64,
    chain_misses: u64,
    table_hits: u64,
    table_misses: u64,
    dialed: u64,
    reused: u64,
}

impl Counters {
    fn read(testbed: &Testbed, echo: &RelayPair) -> Counters {
        let caches = [&testbed.stl_cert_cache, &testbed.swt_cert_cache];
        let pools = [&testbed.wiring.relays.pool, &echo.pool];
        Counters {
            chain_hits: caches.iter().map(|c| c.hits()).sum(),
            chain_misses: caches.iter().map(|c| c.misses()).sum(),
            table_hits: caches.iter().map(|c| c.table_hits()).sum(),
            table_misses: caches.iter().map(|c| c.table_misses()).sum(),
            dialed: pools.iter().map(|p| p.connections_dialed()).sum(),
            reused: pools.iter().map(|p| p.connections_reused()).sum(),
        }
    }

    /// Records what happened between `before` and this reading.
    fn record_since(&self, before: &Counters, layers: &mut Layers) {
        let ratio = |hits: u64, misses: u64| match hits + misses {
            0 => 0.0,
            total => hits as f64 / total as f64,
        };
        layers.set(
            "crypto.certcache_hit_ratio",
            ratio(
                self.chain_hits - before.chain_hits,
                self.chain_misses - before.chain_misses,
            ),
        );
        layers.set(
            "crypto.keytable_hit_ratio",
            ratio(
                self.table_hits - before.table_hits,
                self.table_misses - before.table_misses,
            ),
        );
        // Both pools were dialed during warm-up: a dial after that replaces
        // a connection that went stale.
        let redials = self.dialed - before.dialed;
        layers.set("relay.redials", redials as f64);
        layers.set(
            "relay.pool_reuse_ratio",
            ratio(self.reused - before.reused, redials),
        );
    }
}

/// The loops of a traced session as they complete.
struct Session<'a> {
    cfg: &'a RunConfig,
    selected: &'static str,
    layers: Layers,
    logs: Vec<(&'static str, SpanLog)>,
    summaries: Vec<(&'static str, TraceSummary)>,
}

impl Session<'_> {
    /// Runs one workload's traced loop: for a quarter of the run's seconds
    /// when it is the selected one, for `min_ops` operations otherwise.
    fn trace(
        &mut self,
        name: &'static str,
        min_ops: usize,
        run: impl FnOnce(TraceBudget, &mut SpanLog, &mut Layers) -> Result<TraceSummary, String>,
    ) -> Result<(), String> {
        let budget = TraceBudget {
            min_ops: (min_ops / self.cfg.scale.trace_ops_div).max(2),
            window: if name == self.selected {
                self.cfg.window / 4
            } else {
                Duration::ZERO
            },
        };
        let mut log = SpanLog::with_capacity(1 << 16);
        let summary =
            run(budget, &mut log, &mut self.layers).map_err(|e| format!("{name} (traced): {e}"))?;
        self.logs.push((name, log));
        self.summaries.push((name, summary));
        Ok(())
    }

    fn log(&self, name: &str) -> &SpanLog {
        let found = self.logs.iter().find(|(n, _)| *n == name);
        &found.expect("every workload was traced").1
    }
}

/// Runs the traced session: every workload's traced loop against shared
/// fixtures — the loop of `selected` for a quarter of the run's seconds,
/// the others for their minimum operation counts — so that every
/// per-layer metric is measured in every traced run, always by the same
/// code.
///
/// # Errors
///
/// Unknown workload names, set-up failures, and any failed operation or
/// replay.
pub fn run_traced(selected: &str, cfg: &RunConfig) -> Result<Traced, String> {
    let selected = *workloads::WORKLOADS
        .iter()
        .find(|w| **w == selected)
        .ok_or_else(|| format!("unknown workload {selected:?}"))?;
    let testbed = query_tcp::setup(cfg)?;
    let echo = relay_echo::setup(cfg)?;
    let mut ledger = ledger_durable::setup(cfg)?;
    let before = Counters::read(&testbed, &echo);

    let mut session = Session {
        cfg,
        selected,
        layers: Layers::default(),
        logs: Vec::new(),
        summaries: Vec::new(),
    };
    session.trace(
        query_tcp::NAME,
        query_tcp::TRACE_MIN_OPS,
        |b, log, layers| query_tcp::trace(&testbed, cfg, b, log, layers),
    )?;
    session.trace(
        relay_echo::NAME,
        relay_echo::TRACE_MIN_OPS,
        |b, log, layers| relay_echo::trace(&echo, cfg, b, log, layers),
    )?;
    session.trace(
        accept_commit::NAME,
        accept_commit::TRACE_MIN_OPS,
        |b, log, layers| accept_commit::trace(&testbed, cfg, b, log, layers),
    )?;
    session.trace(
        ledger_durable::NAME,
        ledger_durable::TRACE_MIN_OPS,
        |b, log, layers| ledger_durable::trace(&mut ledger, cfg, b, log, layers),
    )?;
    session.trace(
        ledger_recover::NAME,
        ledger_recover::TRACE_MIN_OPS,
        |b, log, layers| ledger_recover::trace(&mut ledger, b, log, layers),
    )?;
    testbed.check_replicas()?;
    ledger_durable::check_recovery(&mut ledger)?;

    let residual = [
        session.log(query_tcp::NAME).residual_ratio("op"),
        session
            .log(query_tcp::NAME)
            .residual_ratio("core.driver_execute"),
        session.log(accept_commit::NAME).residual_ratio("op"),
    ]
    .into_iter()
    .fold(0.0, f64::max);
    let summary = session
        .summaries
        .iter()
        .find(|(name, _)| *name == selected)
        .map(|(_, s)| *s)
        .expect("the selected workload was traced");
    // Every traced operation alternates with an untraced one.
    let roots = |log: &SpanLog| log.spans().iter().filter(|s| s.parent.is_none()).count();
    let attempted = session
        .logs
        .iter()
        .map(|(_, log)| 2 * roots(log) as u64)
        .sum();

    let Session {
        mut layers, logs, ..
    } = session;
    Counters::read(&testbed, &echo).record_since(&before, &mut layers);
    layers.set(
        "relay.sheds",
        (testbed.wiring.relays.sheds() + echo.sheds()) as f64,
    );
    layers.set("harness.budget_residual_ratio", residual);
    layers.set("harness.trace_overhead_ratio", summary.overhead_ratio());
    Ok(Traced {
        layers,
        logs,
        summary,
        attempted,
    })
}

/// The result line the benchmark contract asks for: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, value, unit)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })),
        ),
    ])
    .encode()
}
