//! Observability glue for the relay: trace-context ⇄ wire conversion and
//! the scrape-time metric export.
//!
//! Two concerns live here:
//!
//! * **Context propagation.** [`current_trace_header`] stamps the active
//!   thread-local [`TraceContext`] onto an outgoing relay envelope as a
//!   zero-elided [`TraceHeader`]; [`context_from_header`] recovers it on
//!   the receiving side so the destination relay's spans join the same
//!   trace tree even across worker threads and real TCP hops.
//! * **Unified metrics.** [`register_relay`] / [`register_group`] attach
//!   scrape-time [`MetricSource`] bridges to an [`ObsHandle`]. What they
//!   export is declared in [`crate::stats`] — one row per series — and
//!   written by one `export` function here under stable `tdt_relay_*`
//!   names. Each relay's series carry a `relay="<id>"` label (groups a
//!   `group="<member ids>"` label), so several relays can share one handle
//!   without their scrapes overwriting each other. Hot paths keep their
//!   plain atomics; the bridge only runs on scrape.

use crate::redundancy::RelayGroup;
use crate::service::RelayService;
use crate::stats::{RelayStatsSnapshot, GROUP_SERIES, LATENCY_FAMILY, SERIES};
use std::sync::{Arc, Weak};
use tdt_obs::metrics::{labeled_name, MetricKind, Registry};
use tdt_obs::{MetricSource, ObsHandle, TraceContext};
use tdt_wire::messages::TraceHeader;

/// Converts an in-process context into its wire representation. The unset
/// context maps to the all-zero header, which the codec elides entirely.
pub fn trace_header(ctx: &TraceContext) -> TraceHeader {
    TraceHeader {
        trace_hi: ctx.trace_hi,
        trace_lo: ctx.trace_lo,
        span_id: ctx.span_id,
        parent_span_id: ctx.parent_span_id,
        sampled: ctx.sampled,
    }
}

/// The wire header for the context installed on this thread, or the
/// zero-elided header when no trace is in progress.
pub fn current_trace_header() -> TraceHeader {
    match TraceContext::current() {
        Some(ctx) => trace_header(&ctx),
        None => TraceHeader::default(),
    }
}

/// Recovers the sender's context from a wire header.
pub fn context_from_header(header: &TraceHeader) -> TraceContext {
    if header.is_unset() {
        return TraceContext::unset();
    }
    TraceContext {
        trace_hi: header.trace_hi,
        trace_lo: header.trace_lo,
        span_id: header.span_id,
        parent_span_id: header.parent_span_id,
        sampled: header.sampled,
    }
}

/// Writes one scrape-time value into `registry` under `family{labels}`.
/// Histograms are adopted live by [`register_relay`], never copied.
fn export(
    registry: &Registry,
    labels: &[(&str, &str)],
    family: &str,
    help: &str,
    kind: MetricKind,
    value: u64,
) {
    let name = labeled_name(family, labels);
    match kind {
        MetricKind::Counter => registry.counter(&name, help).set(value),
        MetricKind::Gauge => registry
            .gauge(&name, help)
            .set(i64::try_from(value).unwrap_or(i64::MAX)),
        MetricKind::Histogram => {}
    }
}

/// Exports every [`SERIES`] column of `snapshot`, labeled `relay="<id>"`.
pub(crate) fn export_snapshot(registry: &Registry, relay_id: &str, snapshot: &RelayStatsSnapshot) {
    let labels = [("relay", relay_id)];
    for (s, value) in SERIES.iter().zip(snapshot.columns()) {
        export(registry, &labels, s.family, s.help, s.kind, value);
    }
}

/// Family, help, kind and scrape-time reader of one process-wide series.
type ProcessSeries = (&'static str, &'static str, MetricKind, fn() -> u64);

/// Process-global health of the span plane, flight recorder and profiler:
/// deliberately unlabeled (every bridged relay writes the same
/// process-wide value).
const PROCESS_SERIES: &[ProcessSeries] = &[
    (
        "tdt_obs_spans_dropped_total",
        "Span records overwritten in full ring buffers before snapshot",
        MetricKind::Counter,
        tdt_obs::span::spans_dropped,
    ),
    (
        "tdt_obs_span_rings",
        "Per-thread span rings currently alive (growth past the worker \
         count indicates leaked rings)",
        MetricKind::Gauge,
        tdt_obs::span::live_rings,
    ),
    (
        "tdt_obs_flight_events_total",
        "Events written to the flight recorder since process start",
        MetricKind::Counter,
        tdt_obs::flight::events_recorded,
    ),
    (
        "tdt_obs_flight_dumps_total",
        "Incident dumps taken (on demand, on error, or on SLO breach)",
        MetricKind::Counter,
        tdt_obs::flight::dumps_taken,
    ),
    (
        "tdt_obs_flight_rings",
        "Per-thread flight-recorder rings currently alive",
        MetricKind::Gauge,
        tdt_obs::flight::live_rings,
    ),
    (
        "tdt_obs_profile_samples_total",
        "Stack observations taken by the sampling profiler",
        MetricKind::Counter,
        tdt_obs::profile::samples_total,
    ),
];

/// Scrape-time bridge from one relay's stats into the registry. Every
/// series is labeled with the relay's id so multiple relays bridged into
/// one registry stay distinct.
struct RelayMetricSource {
    relay: Weak<RelayService>,
    id: String,
}

impl MetricSource for RelayMetricSource {
    fn collect(&self, registry: &Registry) {
        let Some(relay) = self.relay.upgrade() else {
            return;
        };
        export_snapshot(registry, &self.id, &relay.stats().snapshot());
        // The one relay series that is a property of the subscription
        // table rather than of `RelayStats`.
        export(
            registry,
            &[("relay", self.id.as_str())],
            "tdt_relay_events_lagging",
            "Subscriptions whose delivery queue is currently full",
            MetricKind::Gauge,
            relay.lagging_subscriptions(),
        );
        for (family, help, kind, read) in PROCESS_SERIES {
            export(registry, &[], family, help, *kind, read());
        }
    }
}

/// Scrape-time bridge from a redundant relay group's counters. Series are
/// labeled with the group's member ids so several groups can share one
/// registry.
struct GroupMetricSource {
    group: Weak<RelayGroup>,
    label: String,
}

impl MetricSource for GroupMetricSource {
    fn collect(&self, registry: &Registry) {
        let Some(group) = self.group.upgrade() else {
            return;
        };
        let labels = [("group", self.label.as_str())];
        for (family, help, read) in GROUP_SERIES {
            export(
                registry,
                &labels,
                family,
                help,
                MetricKind::Counter,
                read(&group),
            );
        }
    }
}

/// Wires one relay into an [`ObsHandle`]: adopts its latency histogram and
/// attaches the scrape-time bridge that exports every [`SERIES`] row, each
/// series labeled `relay="<id>"` so a handle can host any number of
/// relays. The handle holds only a weak reference to the relay.
pub fn register_relay(handle: &ObsHandle, relay: &Arc<RelayService>) {
    handle.registry().register_histogram(
        &labeled_name(LATENCY_FAMILY, &[("relay", relay.id())]),
        "Envelope-handling latency in nanoseconds",
        relay.stats().latency_ns(),
    );
    handle.add_source(Arc::new(RelayMetricSource {
        relay: Arc::downgrade(relay),
        id: relay.id().to_string(),
    }));
}

/// Wires a redundant relay group's hedging/failover counters into an
/// [`ObsHandle`] via a weak reference. Series are labeled
/// `group="<member ids joined with +>"`.
pub fn register_group(handle: &ObsHandle, group: &Arc<RelayGroup>) {
    let label = (0..group.len())
        .filter_map(|i| group.relay(i))
        .map(|r| r.id().to_string())
        .collect::<Vec<_>>()
        .join("+");
    handle.add_source(Arc::new(GroupMetricSource {
        group: Arc::downgrade(group),
        label,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_context_elides_header() {
        assert!(current_trace_header().is_unset());
        let ctx = context_from_header(&TraceHeader::default());
        assert!(ctx.is_unset());
        assert!(!ctx.is_recording());
    }

    #[test]
    fn header_roundtrip_preserves_context() {
        let ctx = TraceContext::root();
        let header = trace_header(&ctx);
        assert_eq!(context_from_header(&header), ctx);
    }

    #[test]
    fn installed_context_reaches_the_wire() {
        let ctx = TraceContext::root();
        let guard = ctx.install();
        let header = current_trace_header();
        assert_eq!(header.trace_hi, ctx.trace_hi);
        assert_eq!(header.span_id, ctx.span_id);
        assert!(header.sampled);
        drop(guard);
        assert!(current_trace_header().is_unset());
    }
}
