//! SLO engine: latency and availability objectives with multi-window
//! burn-rate detection, in the Google SRE style.
//!
//! An [`Slo`] tracks two service-level indicators over a ring of
//! per-second buckets: the fraction of requests slower than the latency
//! threshold, and the fraction that failed outright. Each indicator's
//! **burn rate** is `bad_fraction / error_budget`, where the budget is
//! `1 − objective` — burn 1.0 means the budget is being consumed
//! exactly at the sustainable rate, burn 10 means ten times too fast.
//!
//! A breach requires the burn rate to exceed the threshold over *both*
//! a fast and a slow window (multi-window detection): the slow window
//! keeps one lucky second from clearing an incident, the fast window
//! keeps a long-resolved incident from alerting forever. Breaches
//! latch with hysteresis (unlatch at half the threshold) so one
//! incident fires one alert, and every breach ships its own evidence:
//! the engine records a [`FlightKind::Slo`] event and triggers a
//! flight-recorder dump ([`crate::flight::dump`]) capturing what the
//! process was doing in the seconds before the budget burned.
//!
//! Recording is cheap (three relaxed counter increments on a bucket
//! ring); burn evaluation walks the ring and is throttled to a few
//! times per second plus every scrape, via the [`SloMetricSource`]
//! gauges (`tdt_slo_*`, milli-units so 1000 == burn rate 1.0).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

use crate::clock;
use crate::flight::{self, FlightKind};
use crate::handle::MetricSource;
use crate::metrics::{labeled_name, Registry};

/// Seconds of history retained; must exceed the slow window.
const BUCKETS: usize = 512;

/// Minimum interval between burn evaluations on the record path.
const EVAL_INTERVAL_NANOS: u64 = 200_000_000;

/// Objectives and window geometry for one tracked service.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Label for gauges and dump reasons (relay id, group label, …).
    pub name: String,
    /// A request slower than this is a latency SLI miss.
    pub latency_threshold: Duration,
    /// Target fraction of requests under the threshold (e.g. 0.99).
    pub latency_objective: f64,
    /// Target fraction of requests that succeed (e.g. 0.999).
    pub availability_objective: f64,
    /// Fast detection window.
    pub fast_window: Duration,
    /// Slow confirmation window; capped at the ring's history.
    pub slow_window: Duration,
    /// Burn rate that, sustained over both windows, is a breach.
    pub burn_threshold: f64,
    /// Windows with fewer requests than this never breach (keeps a
    /// single failed request in an idle second from paging).
    pub min_samples: u64,
}

impl SloConfig {
    /// A config with conventional defaults: p99-style latency objective
    /// at the given threshold, 99.9% availability, 60 s fast / 300 s
    /// slow windows, burn threshold 10, 10-sample floor.
    pub fn new(name: impl Into<String>, latency_threshold: Duration) -> SloConfig {
        SloConfig {
            name: name.into(),
            latency_threshold,
            latency_objective: 0.99,
            availability_objective: 0.999,
            fast_window: Duration::from_secs(60),
            slow_window: Duration::from_secs(300),
            burn_threshold: 10.0,
            min_samples: 10,
        }
    }

    /// Overrides the detection windows (builder style).
    pub fn with_windows(mut self, fast: Duration, slow: Duration) -> SloConfig {
        self.fast_window = fast;
        self.slow_window = slow;
        self
    }

    /// Overrides the burn threshold (builder style).
    pub fn with_burn_threshold(mut self, threshold: f64) -> SloConfig {
        self.burn_threshold = threshold;
        self
    }

    /// Overrides the per-window sample floor (builder style).
    pub fn with_min_samples(mut self, min_samples: u64) -> SloConfig {
        self.min_samples = min_samples;
        self
    }
}

/// One second of SLI counts. Writers race only on second-boundary
/// resets, where a handful of increments may smear into the adjacent
/// second — an accepted approximation (documented in DESIGN.md).
struct Bucket {
    sec: AtomicU64,
    total: AtomicU64,
    slow: AtomicU64,
    failed: AtomicU64,
}

impl Bucket {
    fn new() -> Bucket {
        Bucket {
            sec: AtomicU64::new(u64::MAX),
            total: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }
}

/// Burn rates and breach state at one evaluation instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloStatus {
    /// Latency-SLI burn over the fast window.
    pub latency_burn_fast: f64,
    /// Latency-SLI burn over the slow window.
    pub latency_burn_slow: f64,
    /// Availability-SLI burn over the fast window.
    pub availability_burn_fast: f64,
    /// Availability-SLI burn over the slow window.
    pub availability_burn_slow: f64,
    /// Requests in the fast window.
    pub fast_requests: u64,
    /// Requests in the slow window.
    pub slow_requests: u64,
    /// Whether the breach latch is currently set.
    pub breached: bool,
}

impl SloStatus {
    /// The larger of the two SLIs' confirmed (both-window) burns.
    pub fn worst_confirmed_burn(&self) -> f64 {
        let latency = self.latency_burn_fast.min(self.latency_burn_slow);
        let availability = self.availability_burn_fast.min(self.availability_burn_slow);
        latency.max(availability)
    }
}

type BreachHook = Box<dyn Fn(&SloStatus) + Send + Sync>;

/// A tracked latency + availability objective with burn-rate breach
/// detection. Cheap to record into from any thread; share via `Arc`.
pub struct Slo {
    config: SloConfig,
    buckets: Vec<Bucket>,
    breached: AtomicBool,
    breaches: AtomicU64,
    last_eval: AtomicU64,
    dump_on_breach: AtomicBool,
    hook: Mutex<Option<BreachHook>>,
}

impl std::fmt::Debug for Slo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slo")
            .field("name", &self.config.name)
            .field("breached", &self.breached.load(Ordering::Relaxed))
            .field("breaches", &self.breaches.load(Ordering::Relaxed))
            .finish()
    }
}

impl Slo {
    /// Creates a tracker. Breach dumps are on by default — every alert
    /// ships evidence.
    pub fn new(config: SloConfig) -> Slo {
        Slo {
            config,
            buckets: (0..BUCKETS).map(|_| Bucket::new()).collect(),
            breached: AtomicBool::new(false),
            breaches: AtomicU64::new(0),
            last_eval: AtomicU64::new(0),
            dump_on_breach: AtomicBool::new(true),
            hook: Mutex::new(None),
        }
    }

    /// The tracker's label.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The configuration this tracker evaluates against.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Enables or disables the automatic flight-recorder dump on
    /// breach (on by default).
    pub fn set_dump_on_breach(&self, enabled: bool) {
        // lint:allow(sync: "freestanding config flag: a dump skipped or taken one evaluation late is equally valid, no data is published through it")
        self.dump_on_breach.store(enabled, Ordering::Relaxed);
    }

    /// Installs an additional breach hook, called once per latched
    /// breach after the flight dump.
    pub fn set_breach_hook(&self, hook: impl Fn(&SloStatus) + Send + Sync + 'static) {
        if let Ok(mut slot) = self.hook.lock() {
            *slot = Some(Box::new(hook));
        }
    }

    /// Times a latched breach fired since creation.
    pub fn breaches(&self) -> u64 {
        self.breaches.load(Ordering::Relaxed)
    }

    /// Whether the breach latch is currently set.
    pub fn is_breached(&self) -> bool {
        // lint:allow(sync: "status poll of a latch the evaluate swap owns; the reader acts on the boolean alone, no dependent data to order")
        self.breached.load(Ordering::Relaxed)
    }

    /// Records one request outcome. Cheap: bucket increments plus a
    /// throttled burn evaluation (at most once per 200 ms).
    pub fn record(&self, latency: Duration, ok: bool) {
        let now = clock::now_nanos();
        let sec = now / 1_000_000_000;
        let Some(bucket) = self.buckets.get((sec % BUCKETS as u64) as usize) else {
            return; // unreachable: index is reduced mod the fixed ring size
        };
        let current = bucket.sec.load(Ordering::Acquire);
        if current != sec
            && bucket
                .sec
                .compare_exchange(current, sec, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            // This writer won the second-boundary rollover; reset the
            // counts. Concurrent increments between the swap and these
            // stores smear into the new second (accepted).
            // lint:allow(sync: "statistical SLI counter reset: the sec CAS owns the rollover; increments that smear across the boundary shift one request by one second, accepted by design")
            bucket.total.store(0, Ordering::Relaxed);
            // lint:allow(sync: "statistical SLI counter reset, see total above")
            bucket.slow.store(0, Ordering::Relaxed);
            // lint:allow(sync: "statistical SLI counter reset, see total above")
            bucket.failed.store(0, Ordering::Relaxed);
        }
        // lint:allow(sync: "statistical SLI counter: burn rates aggregate thousands of increments, a single reordered one cannot flip a breach decision")
        bucket.total.fetch_add(1, Ordering::Relaxed);
        if latency > self.config.latency_threshold {
            // lint:allow(sync: "statistical SLI counter, see total above")
            bucket.slow.fetch_add(1, Ordering::Relaxed);
        }
        if !ok {
            // lint:allow(sync: "statistical SLI counter, see total above")
            bucket.failed.fetch_add(1, Ordering::Relaxed);
        }
        let last = self.last_eval.load(Ordering::Relaxed);
        if now.saturating_sub(last) >= EVAL_INTERVAL_NANOS
            && self
                .last_eval
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.evaluate();
        }
    }

    fn window_counts(&self, now_sec: u64, window: Duration) -> (u64, u64, u64) {
        let window_secs = (window.as_secs().max(1)).min(BUCKETS as u64 - 1);
        let (mut total, mut slow, mut failed) = (0u64, 0u64, 0u64);
        for bucket in &self.buckets {
            let sec = bucket.sec.load(Ordering::Acquire);
            if sec == u64::MAX || sec > now_sec || now_sec - sec >= window_secs {
                continue;
            }
            // lint:allow(sync: "statistical window sum: the Acquire on bucket.sec above orders the liveness check; per-counter staleness of a few increments is within SLI noise")
            total += bucket.total.load(Ordering::Relaxed);
            // lint:allow(sync: "statistical window sum, see total above")
            slow += bucket.slow.load(Ordering::Relaxed);
            // lint:allow(sync: "statistical window sum, see total above")
            failed += bucket.failed.load(Ordering::Relaxed);
        }
        (total, slow, failed)
    }

    fn burn(&self, bad: u64, total: u64, objective: f64) -> f64 {
        if total < self.config.min_samples.max(1) {
            return 0.0;
        }
        let budget = (1.0 - objective).max(1e-9);
        (bad as f64 / total as f64) / budget
    }

    /// Computes burn rates over both windows without touching the
    /// breach latch.
    pub fn status(&self) -> SloStatus {
        let now_sec = clock::now_nanos() / 1_000_000_000;
        let (fast_total, fast_slow, fast_failed) =
            self.window_counts(now_sec, self.config.fast_window);
        let (slow_total, slow_slow, slow_failed) =
            self.window_counts(now_sec, self.config.slow_window);
        SloStatus {
            latency_burn_fast: self.burn(fast_slow, fast_total, self.config.latency_objective),
            latency_burn_slow: self.burn(slow_slow, slow_total, self.config.latency_objective),
            availability_burn_fast: self.burn(
                fast_failed,
                fast_total,
                self.config.availability_objective,
            ),
            availability_burn_slow: self.burn(
                slow_failed,
                slow_total,
                self.config.availability_objective,
            ),
            fast_requests: fast_total,
            slow_requests: slow_total,
            // lint:allow(sync: "status poll of the latch, see is_breached")
            breached: self.breached.load(Ordering::Relaxed),
        }
    }

    /// Evaluates burn rates and updates the breach latch, firing the
    /// flight dump and hook on a fresh breach. Returns the status.
    pub fn evaluate(&self) -> SloStatus {
        let mut status = self.status();
        let threshold = self.config.burn_threshold;
        let confirmed = status.worst_confirmed_burn();
        if confirmed > threshold {
            // lint:allow(sync: "breach latch: the swap is the entire decision — whoever flips false->true fires the dump exactly once; no other data rides on the edge")
            if !self.breached.swap(true, Ordering::Relaxed) {
                self.breaches.fetch_add(1, Ordering::Relaxed);
                let burn_milli = (confirmed * 1000.0).min(u64::MAX as f64) as u64;
                flight::record(FlightKind::Slo, 1, burn_milli, status.fast_requests);
                // lint:allow(sync: "freestanding config flag, see set_dump_on_breach")
                if self.dump_on_breach.load(Ordering::Relaxed) {
                    let _ = flight::dump(&format!(
                        "slo breach: {} burn {:.1}x over both windows",
                        self.config.name, confirmed
                    ));
                }
                if let Ok(hook) = self.hook.lock() {
                    if let Some(hook) = hook.as_ref() {
                        status.breached = true;
                        hook(&status);
                    }
                }
            }
        // lint:allow(sync: "breach latch unlatch edge, same single-decision swap as above")
        } else if confirmed < threshold / 2.0 && self.breached.swap(false, Ordering::Relaxed) {
            flight::record(FlightKind::Slo, 2, (confirmed * 1000.0) as u64, 0);
        }
        // lint:allow(sync: "status poll of the latch, see is_breached")
        status.breached = self.breached.load(Ordering::Relaxed);
        status
    }
}

/// Scrape-time bridge exporting one [`Slo`]'s burn gauges, labeled
/// `slo="<name>"`. Each scrape re-evaluates, so the gauges (and the
/// breach latch) stay fresh even when traffic stops.
pub struct SloMetricSource {
    slo: Weak<Slo>,
}

impl SloMetricSource {
    /// Bridges `slo` (held weakly; a dropped tracker exports nothing).
    pub fn new(slo: &Arc<Slo>) -> SloMetricSource {
        SloMetricSource {
            slo: Arc::downgrade(slo),
        }
    }
}

/// Converts a burn rate to milli-units for an i64 gauge.
fn burn_milli(burn: f64) -> i64 {
    (burn * 1000.0).clamp(0.0, i64::MAX as f64) as i64
}

impl MetricSource for SloMetricSource {
    fn collect(&self, registry: &Registry) {
        let Some(slo) = self.slo.upgrade() else {
            return;
        };
        let status = slo.evaluate();
        let labels = [("slo", slo.name())];
        let g = |name: &str, help: &str, value: i64| {
            registry
                .gauge(&labeled_name(name, &labels), help)
                .set(value);
        };
        g(
            "tdt_slo_latency_burn_fast_milli",
            "Latency-SLI burn rate over the fast window (1000 = 1.0x budget)",
            burn_milli(status.latency_burn_fast),
        );
        g(
            "tdt_slo_latency_burn_slow_milli",
            "Latency-SLI burn rate over the slow window (1000 = 1.0x budget)",
            burn_milli(status.latency_burn_slow),
        );
        g(
            "tdt_slo_availability_burn_fast_milli",
            "Availability-SLI burn rate over the fast window (1000 = 1.0x budget)",
            burn_milli(status.availability_burn_fast),
        );
        g(
            "tdt_slo_availability_burn_slow_milli",
            "Availability-SLI burn rate over the slow window (1000 = 1.0x budget)",
            burn_milli(status.availability_burn_slow),
        );
        g(
            "tdt_slo_breached",
            "Whether the SLO's multi-window breach latch is currently set",
            status.breached as i64,
        );
        registry
            .counter(
                &labeled_name("tdt_slo_breaches_total", &labels),
                "Latched SLO breaches since process start",
            )
            .set(slo.breaches());
    }
}

/// Registers an [`Slo`]'s gauges on an [`crate::ObsHandle`].
pub fn register_slo(handle: &crate::ObsHandle, slo: &Arc<Slo>) {
    handle.add_source(Arc::new(SloMetricSource::new(slo)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(name: &str) -> SloConfig {
        SloConfig::new(name, Duration::from_millis(10))
            .with_windows(Duration::from_secs(2), Duration::from_secs(5))
            .with_burn_threshold(5.0)
            .with_min_samples(5)
    }

    #[test]
    fn quiet_service_never_breaches() {
        let slo = Slo::new(test_config("quiet"));
        for _ in 0..100 {
            slo.record(Duration::from_millis(1), true);
        }
        let status = slo.evaluate();
        assert!(!status.breached);
        assert_eq!(slo.breaches(), 0);
        assert!(status.worst_confirmed_burn() < 1.0);
        assert!(status.fast_requests >= 100);
    }

    #[test]
    fn failure_burst_breaches_and_latches_once() {
        let slo = Slo::new(test_config("bursty"));
        slo.set_dump_on_breach(false); // keep unit test from dumping
        for _ in 0..50 {
            slo.record(Duration::from_millis(1), false);
        }
        let status = slo.evaluate();
        assert!(status.breached, "50 failures must breach: {status:?}");
        // Re-evaluating while still burning does not re-fire.
        slo.evaluate();
        slo.evaluate();
        assert_eq!(slo.breaches(), 1, "breach latches once per incident");
    }

    #[test]
    fn latency_sli_breaches_independently() {
        let slo = Slo::new(test_config("slowpoke"));
        slo.set_dump_on_breach(false);
        for _ in 0..50 {
            // Successful but slow: availability clean, latency burning.
            slo.record(Duration::from_millis(50), true);
        }
        let status = slo.evaluate();
        assert!(status.latency_burn_fast > 5.0);
        assert!(status.availability_burn_fast < 1.0);
        assert!(status.breached);
    }

    #[test]
    fn min_samples_floor_suppresses_idle_noise() {
        let slo = Slo::new(test_config("idle").with_min_samples(100));
        slo.set_dump_on_breach(false);
        for _ in 0..20 {
            slo.record(Duration::from_millis(50), false);
        }
        let status = slo.evaluate();
        assert!(!status.breached, "below the sample floor: {status:?}");
    }

    #[test]
    fn breach_hook_fires_with_status() {
        use std::sync::atomic::AtomicU64;
        let slo = Arc::new(Slo::new(test_config("hooked")));
        slo.set_dump_on_breach(false);
        let fired = Arc::new(AtomicU64::new(0));
        let fired_clone = Arc::clone(&fired);
        slo.set_breach_hook(move |status| {
            assert!(status.breached);
            fired_clone.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..50 {
            slo.record(Duration::from_millis(1), false);
        }
        slo.evaluate();
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn metric_source_exports_gauges() {
        let slo = Arc::new(Slo::new(test_config("exported")));
        slo.set_dump_on_breach(false);
        for _ in 0..20 {
            slo.record(Duration::from_millis(1), true);
        }
        let registry = Registry::new();
        SloMetricSource::new(&slo).collect(&registry);
        let snap = registry.snapshot();
        let names: Vec<_> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert!(names
            .iter()
            .any(|n| n.starts_with("tdt_slo_latency_burn_fast_milli")));
        assert!(names.iter().any(|n| n.starts_with("tdt_slo_breached")));
        assert!(names
            .iter()
            .any(|n| n.starts_with("tdt_slo_breaches_total")));
    }
}
