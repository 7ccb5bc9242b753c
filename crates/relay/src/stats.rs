//! The relay's monitoring series, each declared exactly once.
//!
//! One row of the `relay_series!` invocation below fixes everything there
//! is to know about a series: the [`RelayStatsSnapshot`] field that carries
//! it, the metric family and help text it is exported under, its kind, how
//! the values of two relays combine, and where the live value is read.
//! [`RelayStats::snapshot`], [`RelayStatsSnapshot::merge`], the [`SERIES`]
//! table and the scrape-time export in [`crate::telemetry`] are generated
//! from those rows or iterate over them, so a dashboard row, a merged
//! group total and what `/metrics` serves cannot drift apart.

use crate::admission::AdmissionController;
use crate::breaker::CircuitBreaker;
use crate::redundancy::RelayGroup;
use crate::transport::PoolStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use tdt_crypto::certcache::CertChainCache;
use tdt_obs::metrics::{Histogram, MetricKind};

/// How the values of one series combine when relay snapshots are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Saturating sum: counters, and gauges that count things.
    Sum,
    /// Largest value: high-water marks and estimates.
    Max,
}

/// The declaration of one series (one row of [`SERIES`]).
#[derive(Debug, Clone, Copy)]
pub struct Series {
    /// The [`RelayStatsSnapshot`] field carrying the value.
    pub field: &'static str,
    /// Metric family the value is exported under, labeled `relay="<id>"`.
    /// The three columns of the latency histogram share its family.
    pub family: &'static str,
    /// Help text of the family (for a histogram column, what the column
    /// holds); also the rustdoc of the field.
    pub help: &'static str,
    /// Exported kind.
    pub kind: MetricKind,
    /// Merge rule.
    pub merge: Merge,
}

/// Family of the envelope-handling latency histogram, whose count, sum and
/// max are also snapshot columns.
pub(crate) const LATENCY_FAMILY: &str = "tdt_relay_latency_ns";

/// The value `read` finds in the component attached to `slot`, or zero
/// while none is attached.
fn attached<T>(slot: &OnceLock<Arc<T>>, read: impl Fn(&T) -> u64) -> u64 {
    slot.get().map_or(0, |component| read(component))
}

fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// Generates [`RelayStats`], [`RelayStatsSnapshot`], their `snapshot` /
/// column accessors and [`SERIES`] from the series rows. `own` rows are
/// atomics the relay bumps itself (merged by [`Merge::Sum`]); `read` rows
/// are computed from the rest of [`RelayStats`] at snapshot time.
macro_rules! relay_series {
    (
        own { $($own:ident: $okind:ident, $ofamily:literal, $ohelp:literal;)* }
        read { $($col:ident: $kind:ident, $merge:ident, $family:expr, $help:literal, $read:expr;)* }
    ) => {
        /// Counters exposed for monitoring and the availability experiments.
        #[derive(Debug, Default)]
        pub struct RelayStats {
            $(#[doc = $ohelp] pub $own: AtomicU64,)*
            latency_ns: OnceLock<Histogram>,
            pub(crate) cert_cache: OnceLock<Arc<CertChainCache>>,
            pub(crate) pool_stats: OnceLock<Arc<PoolStats>>,
            pub(crate) breaker: OnceLock<Arc<CircuitBreaker>>,
            pub(crate) admission: OnceLock<Arc<AdmissionController>>,
        }

        impl RelayStats {
            /// Takes a point-in-time copy of every series, suitable for
            /// merging across relays with [`RelayStatsSnapshot::merge`].
            /// Each value is read independently: the snapshot is not a
            /// consistent cut, but it is always safe to take while workers
            /// mutate the counters.
            pub fn snapshot(&self) -> RelayStatsSnapshot {
                RelayStatsSnapshot {
                    $($own: self.$own.load(Ordering::Relaxed),)*
                    $($col: {
                        let read: fn(&RelayStats) -> u64 = $read;
                        read(self)
                    },)*
                }
            }
        }

        /// A point-in-time copy of [`RelayStats`], mergeable across relays —
        /// e.g. to aggregate the members of a
        /// [`crate::redundancy::RelayGroup`] into one dashboard row.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct RelayStatsSnapshot {
            $(#[doc = $ohelp] pub $own: u64,)*
            $(#[doc = $help] pub $col: u64,)*
        }

        impl RelayStatsSnapshot {
            /// The values, in [`SERIES`] order.
            pub fn columns(&self) -> [u64; SERIES.len()] {
                [$(self.$own,)* $(self.$col,)*]
            }

            fn columns_mut(&mut self) -> [&mut u64; SERIES.len()] {
                [$(&mut self.$own,)* $(&mut self.$col,)*]
            }
        }

        /// Every relay series, in [`RelayStatsSnapshot::columns`] order.
        pub const SERIES: &[Series] = &[
            $(Series {
                field: stringify!($own),
                family: $ofamily,
                help: $ohelp,
                kind: MetricKind::$okind,
                merge: Merge::Sum,
            },)*
            $(Series {
                field: stringify!($col),
                family: $family,
                help: $help,
                kind: MetricKind::$kind,
                merge: Merge::$merge,
            },)*
        ];
    };
}

relay_series! {
    own {
        forwarded: Counter, "tdt_relay_forwarded_total",
            "Queries forwarded to remote relays (destination role)";
        served: Counter, "tdt_relay_served_total",
            "Queries served for remote relays (source role)";
        shed: Counter, "tdt_relay_shed_total", "Requests shed by the rate limiter";
        enqueued: Counter, "tdt_relay_enqueued_total", "Envelopes handed to the worker pool";
        deadline_exceeded: Counter, "tdt_relay_deadline_exceeded_total",
            "Envelopes answered with a deadline error";
        events_delivered: Counter, "tdt_relay_events_delivered_total",
            "Event notices delivered to local subscribers";
        events_dropped: Counter, "tdt_relay_events_dropped_total",
            "Event notices dropped because a subscriber's queue was full";
        queue_depth: Gauge, "tdt_relay_queue_depth", "Envelopes waiting in the worker-pool queue";
        in_flight: Gauge, "tdt_relay_in_flight", "Envelopes currently being processed by workers";
    }
    read {
        // The histogram itself is exported whole; its totals are columns so
        // merged snapshots keep mean (sum / handled) and worst case.
        handled: Histogram, Sum, LATENCY_FAMILY, "Envelopes the latency histogram measured",
            |s| s.latency_ns().snapshot().count;
        latency_sum_nanos: Histogram, Sum, LATENCY_FAMILY,
            "Sum of all handling latencies in nanoseconds (mean = sum / handled)",
            |s| s.latency_ns().snapshot().sum;
        latency_max_nanos: Histogram, Max, LATENCY_FAMILY,
            "Largest handling latency observed, in nanoseconds",
            |s| s.latency_ns().snapshot().max;
        // Each of the rest belongs to a component attached through a
        // `RelayService::with_*` builder and reads zero without one.
        cache_hits: Counter, Sum, "tdt_relay_cache_hits_total", "Certificate-chain cache hits",
            |s| attached(&s.cert_cache, CertChainCache::hits);
        cache_misses: Counter, Sum, "tdt_relay_cache_misses_total",
            "Certificate-chain cache misses",
            |s| attached(&s.cert_cache, CertChainCache::misses);
        pool_connections_open: Gauge, Sum, "tdt_relay_pool_open",
            "Transport-pool connections currently open",
            |s| attached(&s.pool_stats, PoolStats::connections_open);
        pool_connections_dialed: Counter, Sum, "tdt_relay_pool_dialed_total",
            "Transport-pool connections dialed",
            |s| attached(&s.pool_stats, PoolStats::connections_dialed);
        pool_connections_reused: Counter, Sum, "tdt_relay_pool_reused_total",
            "Requests that reused an already-open pooled connection",
            |s| attached(&s.pool_stats, PoolStats::connections_reused);
        pool_requests_in_flight: Gauge, Sum, "tdt_relay_pool_in_flight",
            "Requests in flight on pooled connections",
            |s| attached(&s.pool_stats, PoolStats::requests_in_flight);
        pool_orphaned_replies: Counter, Sum, "tdt_relay_pool_orphaned_total",
            "Multiplexed replies dropped for lack of a matching waiter",
            |s| attached(&s.pool_stats, PoolStats::orphaned_replies);
        pool_connections_culled: Counter, Sum, "tdt_relay_pool_culled_total",
            "Pooled connections pruned as dead at checkout time",
            |s| attached(&s.pool_stats, PoolStats::connections_culled);
        breaker_trips: Counter, Sum, "tdt_relay_breaker_trips_total",
            "Times the circuit breaker tripped open",
            |s| attached(&s.breaker, CircuitBreaker::trips);
        breaker_probes: Counter, Sum, "tdt_relay_breaker_probes_total",
            "Half-open probe requests admitted by the breaker",
            |s| attached(&s.breaker, CircuitBreaker::probes);
        breaker_fast_rejects: Counter, Sum, "tdt_relay_breaker_fast_rejects_total",
            "Requests rejected instantly by an open circuit",
            |s| attached(&s.breaker, CircuitBreaker::fast_rejects);
        breaker_open_endpoints: Gauge, Sum, "tdt_relay_breaker_open_endpoints",
            "Endpoints whose circuit is currently open or half-open",
            |s| attached(&s.breaker, CircuitBreaker::open_endpoints);
        admission_admitted: Counter, Sum, "tdt_relay_admission_admitted_total",
            "Requests admitted to the queue by the admission controller",
            |s| attached(&s.admission, AdmissionController::admitted);
        admission_shed: Counter, Sum, "tdt_relay_admission_shed_total",
            "Requests shed at the admission gate before queuing",
            |s| attached(&s.admission, AdmissionController::shed);
        admission_service_estimate_ns: Gauge, Max, "tdt_relay_admission_service_estimate_ns",
            "Admission controller's smoothed per-job service-time estimate",
            |s| attached(&s.admission, |a| nanos(a.service_time_estimate()));
    }
}

impl RelayStats {
    /// The envelope-handling latency histogram (nanoseconds): the one
    /// place a handled envelope's latency is recorded.
    pub(crate) fn latency_ns(&self) -> &Histogram {
        self.latency_ns.get_or_init(Histogram::latency_nanos)
    }

    pub(crate) fn record_latency(&self, elapsed: Duration) {
        self.latency_ns().observe(nanos(elapsed));
    }
}

impl RelayStatsSnapshot {
    /// Folds `other` into `self`, each series by its declared [`Merge`]
    /// rule. Sums saturate, so merging can never panic on overflow.
    pub fn merge(&mut self, other: &RelayStatsSnapshot) {
        let pairs = self.columns_mut().into_iter().zip(other.columns());
        for ((mine, theirs), series) in pairs.zip(SERIES) {
            *mine = match series.merge {
                Merge::Sum => mine.saturating_add(theirs),
                Merge::Max => (*mine).max(theirs),
            };
        }
    }
}

/// Family, help and scrape-time accessor of one [`RelayGroup`] counter.
pub(crate) type GroupSeries = (&'static str, &'static str, fn(&RelayGroup) -> u64);

/// The hedging/failover counters of a [`RelayGroup`], exported labeled
/// `group="<member ids>"`.
pub(crate) const GROUP_SERIES: &[GroupSeries] = &[
    (
        "tdt_relay_group_hedges_total",
        "Hedged backup requests fired after the hedge delay",
        RelayGroup::hedges,
    ),
    (
        "tdt_relay_group_discarded_replies_total",
        "Hedged replies discarded because the other leg won",
        RelayGroup::discarded_replies,
    ),
    (
        "tdt_relay_group_breaker_skips_total",
        "Members skipped during selection because their circuit was open",
        RelayGroup::breaker_skips,
    ),
    (
        "tdt_relay_group_deadline_failures_total",
        "Group queries failed because the deadline budget ran out",
        RelayGroup::deadline_failures,
    ),
    (
        "tdt_relay_group_degraded_queries_total",
        "Group queries that succeeded only after at least one failover",
        RelayGroup::degraded_queries,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::StaticRegistry;
    use crate::service::RelayService;
    use crate::telemetry::{export_snapshot, register_relay};
    use crate::transport::InProcessBus;
    use std::sync::atomic::AtomicBool;
    use tdt_obs::metrics::{labeled_name, Registry};
    use tdt_obs::ObsHandle;

    /// A snapshot whose column `i` holds `value(i)`.
    fn snapshot_with(value: impl Fn(usize) -> u64) -> RelayStatsSnapshot {
        let mut snapshot = RelayStatsSnapshot::default();
        for (i, column) in snapshot.columns_mut().into_iter().enumerate() {
            *column = value(i);
        }
        snapshot
    }

    #[test]
    fn every_declared_series_is_a_snapshot_field_and_an_exported_family() {
        let relay = Arc::new(RelayService::new(
            "r",
            "stl",
            Arc::new(StaticRegistry::new()),
            Arc::new(InProcessBus::new()),
        ));
        let handle = ObsHandle::new();
        register_relay(&handle, &relay);
        let text = handle.prometheus_text();
        // Distinct values per column pin row ↔ field ↔ exported sample.
        let snapshot = snapshot_with(|i| 1000 + i as u64);
        let debug = format!("{snapshot:?}");
        let registry = Registry::new();
        export_snapshot(&registry, "r", &snapshot);
        let exported = registry.snapshot();
        for (i, series) in SERIES.iter().enumerate() {
            let value = 1000 + i as u64;
            assert!(
                debug.contains(&format!(" {}: {value}", series.field)),
                "{} is not column {i} of the snapshot",
                series.field
            );
            let kind = series.kind.as_str();
            assert!(
                text.contains(&format!("# TYPE {} {kind}\n", series.family)),
                "{} is not scraped as a {kind}",
                series.family
            );
            let labeled = "{relay=\"r\"";
            assert!(
                text.lines()
                    .any(|l| l.starts_with(series.family) && l.contains(labeled)),
                "{} is scraped without its relay label",
                series.family
            );
            let name = labeled_name(series.family, &[("relay", "r")]);
            match series.kind {
                MetricKind::Counter => assert_eq!(exported.counter(&name), Some(value)),
                MetricKind::Gauge => assert_eq!(exported.gauge(&name), Some(value as i64)),
                // Adopted live by `register_relay`, never copied.
                MetricKind::Histogram => assert!(exported.get(&name).is_none()),
            }
        }
    }

    #[test]
    fn merge_follows_each_declared_rule_and_never_overflows() {
        for (i, series) in SERIES.iter().enumerate() {
            let mut merged = snapshot_with(|j| if j == i { u64::MAX - 1 } else { 1 });
            merged.merge(&snapshot_with(|_| 5));
            for (j, value) in merged.columns().into_iter().enumerate() {
                let expected = match (SERIES[j].merge, j == i) {
                    (Merge::Sum, true) => u64::MAX,
                    (Merge::Sum, false) => 6,
                    (Merge::Max, true) => u64::MAX - 1,
                    (Merge::Max, false) => 5,
                };
                assert_eq!(
                    value, expected,
                    "column {} merging {}",
                    SERIES[j].field, series.field
                );
            }
        }
        let max_rows: Vec<_> = SERIES.iter().filter(|s| s.merge == Merge::Max).collect();
        assert!(max_rows.iter().any(|s| s.field == "latency_max_nanos"));
        assert!(max_rows.iter().all(|s| s.kind != MetricKind::Counter));
    }

    /// Regression: snapshotting + merging while workers hammer the
    /// latency histogram and queue counters must never panic and must
    /// never observe more handled envelopes than were recorded so far.
    #[test]
    fn snapshot_merge_under_concurrent_mutation() {
        let stats = Arc::new(RelayStats::default());
        let done = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let stats = Arc::clone(&stats);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        // Spread records across the buckets, including
                        // the overflow bucket.
                        let micros = 10u64 << ((n + w) % 10);
                        stats.record_latency(Duration::from_micros(micros));
                        stats.record_latency(Duration::from_secs(60));
                        stats.queue_depth.fetch_add(1, Ordering::Relaxed);
                        stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        n += 2;
                    }
                    n
                })
            })
            .collect();
        let mut last_total = 0u64;
        for _ in 0..200 {
            let total = stats.snapshot().handled;
            let mut merged = stats.snapshot();
            merged.merge(&stats.snapshot());
            assert!(
                total >= last_total,
                "histogram total went backwards: {last_total} -> {total}"
            );
            assert!(merged.handled >= total, "merge lost counts");
            last_total = total;
        }
        done.store(true, Ordering::Relaxed);
        let recorded: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(stats.snapshot().handled, recorded);
    }
}
