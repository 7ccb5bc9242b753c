//! Dependency-free observability for the cross-network query path.
//!
//! Three pillars, mirroring what enterprise gateway operators actually run
//! (per-hop latency and failure telemetry — see the pub-sub interop and
//! TrustCross lines of work):
//!
//! 1. **Tracing** ([`trace`], [`span`]) — a 128-bit [`trace::TraceContext`]
//!    is minted at the client, carried across the wire inside the relay
//!    envelope, and re-installed on every hop so one trade-finance query
//!    yields a single span tree spanning both networks. Spans are
//!    written into the flight recorder's per-thread rings (wait-free, no
//!    allocation) and read back as a view; recording is inert when the
//!    context is unsampled.
//! 2. **Metrics** ([`metrics`]) — a [`metrics::Registry`] of named
//!    counters, gauges and exponential-bound histograms that unifies the
//!    relay's scattered stat bags behind one model.
//! 3. **Export** ([`export`], [`handle`], [`waterfall`]) — Prometheus-text
//!    and JSON snapshot exporters plus an ASCII span-timeline renderer for
//!    the message-flow example.
//! 4. **Incident forensics** ([`flight`], [`profile`], [`slo`]) — an
//!    always-on flight recorder (lock-free per-thread event rings drained
//!    into CRC-framed dumps; the crate's only in-process recorder), a scoped sampling profiler exporting folded
//!    stacks, and an SLO engine with multi-window burn-rate breach
//!    detection that fires a flight dump so every alert carries its own
//!    evidence.
//!
//! The crate is intentionally `std`-only: it must be usable from every
//! layer (wire, relay, core, fabric) without adding dependencies.

#![warn(missing_docs)]

pub mod clock;
pub mod crc32;
pub mod export;
pub mod flight;
pub mod handle;
pub mod metrics;
pub mod profile;
pub mod slo;
pub mod span;
pub mod trace;
pub mod waterfall;

pub use crc32::crc32;
pub use flight::{FlightKind, FlightRecord};
pub use handle::{MetricSource, ObsHandle};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use slo::{Slo, SloConfig, SloStatus};
pub use span::{RecordErr, Span, SpanRecord, SpanStatus};
pub use trace::{ContextGuard, TraceContext};
