#![warn(missing_docs)]

//! The relay service: trusted-data-transfer plumbing between networks.
//!
//! "Deployed within, and acting on behalf of, each network is a relay
//! service ... The relay service serves requests for authentic data from
//! applications by fetching the data along with verifiable proofs from
//! remote networks" (paper §3.2). The relay operates at the technical,
//! syntactic, and semantic layers; it is *untrusted*: data and proofs are
//! end-to-end protected between source peers and the requesting client.
//!
//! * [`service`] — the relay itself: query forwarding on the destination
//!   side, driver dispatch on the source side.
//! * [`stats`] — the relay's monitoring series, each declared once (field,
//!   metric family, help, kind, merge rule); snapshots, merges and the
//!   metric export are derived from that declaration.
//! * [`driver`] — the pluggable [`driver::NetworkDriver`] abstraction that
//!   translates the network-neutral protocol into ledger-specific calls
//!   (the Fabric driver lives in the `interop` crate).
//! * [`discovery`] — pluggable relay discovery: a static map and the
//!   paper's local file-based registry.
//! * [`transport`] — relay-to-relay transports: an in-process bus for
//!   deterministic tests and a pooled, multiplexed TCP transport over
//!   length-prefixed frames.
//! * [`ratelimit`] — token-bucket DoS protection (paper §5, availability).
//! * [`admission`] — deadline-aware admission control: fast-rejects
//!   requests whose deadline budget cannot plausibly be met at the
//!   current queue depth, so overload degrades into cheap sheds instead
//!   of queue collapse.
//! * [`batch`] — client-side envelope batching (size + linger): many
//!   queries ride one frame, amortizing framing and syscalls.
//! * [`redundancy`] — redundant relay groups with health-weighted,
//!   breaker-aware selection, hedged requests, and deadline budgets
//!   (paper §5).
//! * [`retry`] — bounded exponential backoff with jitter for transient
//!   relay-to-relay faults, optionally breaker-aware.
//! * [`breaker`] — per-endpoint three-state circuit breaker that turns
//!   repeated transport failures into fast local rejects.
//! * [`chaos`] — deterministic, seed-replayable fault injection at the
//!   transport layer (drops, delays, corruption, duplication, reorder,
//!   partitions) for chaos testing the above.
//! * [`telemetry`] — observability glue: trace-context propagation on the
//!   relay envelope, and the one export function that writes the series
//!   declared in [`stats`] into a unified metrics registry at scrape time.

pub mod admission;
pub mod batch;
pub mod breaker;
pub mod chaos;
pub mod discovery;
pub mod driver;
pub mod error;
pub mod events;
pub mod ratelimit;
pub mod redundancy;
pub mod retry;
pub mod service;
pub mod stats;
pub mod telemetry;
pub mod transport;

pub use error::RelayError;
