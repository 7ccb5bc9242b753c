//! Deterministic chaos plane: transport-level fault injection with a
//! seeded, replayable schedule.
//!
//! The paper's availability argument (§5) only holds if the destination
//! network stays safe when relays misbehave. [`ChaosTransport`] wraps any
//! [`RelayTransport`] — the in-process bus or the pooled, multiplexed TCP
//! transport — and injects the transport
//! faults a hostile or degraded WAN actually produces: dropped requests,
//! fixed-plus-jittered delay, byte corruption, duplication, reordering
//! delay, and per-endpoint-pair partitions.
//!
//! Every decision is drawn from a *stateless* function of `(seed, op)`
//! where `op` is the transport's global operation counter, so a run's
//! fault schedule is fully determined by its seed: re-running with the
//! same seed replays the identical schedule, which is what makes chaotic
//! soak failures debuggable. Print the seed on failure and replay it.
//!
//! The shared fault vocabulary ([`SharedFaults`]) also backs
//! `tdt_fabric::net::FaultInjector`, so fabric-level and relay-level
//! injection configure outages, latency and partitions in one language.

use crate::error::RelayError;
use crate::transport::RelayTransport;
use parking_lot::{Mutex, RwLock};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tdt_obs::span::{self as obs_span};
use tdt_obs::TraceContext;
use tdt_wire::codec::Message;
use tdt_wire::messages::RelayEnvelope;

// ---------------------------------------------------------------------------
// Seeded, dependency-free PRNG
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny, high-quality, dependency-free mixing PRNG.
///
/// Used both as a sequential generator and — via [`mix64`] — as a
/// stateless hash for per-operation fault decisions.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix_steps(self.state)
    }
}

#[inline]
fn mix_steps(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stateless mix of `(seed, op, salt)` into 64 uniform bits. The same
/// inputs always produce the same output — the backbone of replayable
/// fault schedules.
#[inline]
pub fn mix64(seed: u64, op: u64, salt: u64) -> u64 {
    mix_steps(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ op.wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ salt.wrapping_mul(0x94d0_49bb_1331_11eb),
    )
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)`.
#[inline]
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------------
// Shared fault vocabulary
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct FaultState {
    down: HashSet<String>,
    latency: Duration,
    partitions: HashSet<(String, String)>,
}

/// Shared, cheaply clonable named-component fault state: components
/// marked down, a global injected latency, and directional
/// component-pair partitions.
///
/// This is the one vocabulary both injection layers speak:
/// `tdt_fabric::net::FaultInjector` re-exports it for peer/orderer
/// outages, and [`ChaosTransport`] consults it for endpoint outages and
/// partitions on the relay-to-relay path.
#[derive(Debug, Clone, Default)]
pub struct SharedFaults {
    inner: Arc<RwLock<FaultState>>,
}

impl SharedFaults {
    /// Creates a fault set with no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a component (peer, relay, endpoint) as down.
    pub fn take_down(&self, component: impl Into<String>) {
        self.inner.write().down.insert(component.into());
    }

    /// Restores a component.
    pub fn restore(&self, component: &str) {
        self.inner.write().down.remove(component);
    }

    /// True when the component is currently down.
    pub fn is_down(&self, component: &str) -> bool {
        self.inner.read().down.contains(component)
    }

    /// Sets a per-message artificial latency.
    pub fn set_latency(&self, latency: Duration) {
        self.inner.write().latency = latency;
    }

    /// The configured artificial latency.
    pub fn latency(&self) -> Duration {
        self.inner.read().latency
    }

    /// Sleeps for the configured latency (no-op when zero).
    pub fn apply_latency(&self) {
        let latency = self.latency();
        if !latency.is_zero() {
            std::thread::sleep(latency);
        }
    }

    /// Partitions the directional pair `from → to`: traffic between them
    /// black-holes until [`SharedFaults::heal`] is called.
    pub fn partition(&self, from: impl Into<String>, to: impl Into<String>) {
        self.inner
            .write()
            .partitions
            .insert((from.into(), to.into()));
    }

    /// Heals the directional pair `from → to`.
    pub fn heal(&self, from: &str, to: &str) {
        self.inner
            .write()
            .partitions
            .remove(&(from.to_string(), to.to_string()));
    }

    /// True when the directional pair `from → to` is partitioned.
    pub fn is_partitioned(&self, from: &str, to: &str) -> bool {
        self.inner
            .read()
            .partitions
            .contains(&(from.to_string(), to.to_string()))
    }

    /// Number of active directional partitions.
    pub fn partition_count(&self) -> usize {
        self.inner.read().partitions.len()
    }

    /// Clears every fault.
    pub fn clear(&self) {
        let mut inner = self.inner.write();
        inner.down.clear();
        inner.latency = Duration::ZERO;
        inner.partitions.clear();
    }

    /// Number of components currently down.
    pub fn down_count(&self) -> usize {
        self.inner.read().down.len()
    }
}

// ---------------------------------------------------------------------------
// Fault schedule
// ---------------------------------------------------------------------------

/// Probabilities and magnitudes of the scheduled faults. All
/// probabilities are per-operation and independent; `..Default::default()`
/// gives an entirely quiet schedule to build on.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Probability the request is dropped before reaching the endpoint
    /// (surfaces as a transport failure).
    pub drop_prob: f64,
    /// Probability the exchange is delayed by `delay` ± `delay_jitter`.
    pub delay_prob: f64,
    /// Fixed component of an injected delay.
    pub delay: Duration,
    /// Uniform extra delay in `0..=delay_jitter`, drawn from the schedule.
    pub delay_jitter: Duration,
    /// Probability the envelope bytes are corrupted in flight (request or
    /// reply direction, chosen by the schedule).
    pub corrupt_prob: f64,
    /// Probability the request is delivered twice; the duplicate reply is
    /// discarded, never surfaced to the caller.
    pub duplicate_prob: f64,
    /// Probability this request is held back by `reorder_delay`, letting
    /// later requests overtake it.
    pub reorder_prob: f64,
    /// How long a reordered request is held back.
    pub reorder_delay: Duration,
    /// Probability a scheduled partition *starts* on the addressed
    /// endpoint at this operation.
    pub partition_prob: f64,
    /// How many subsequent operations a scheduled partition lasts before
    /// it auto-heals.
    pub partition_ops: u64,
    /// How long a send into a partition blocks before failing — models a
    /// black hole, not a fast reject.
    pub partition_timeout: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::from_millis(1),
            delay_jitter: Duration::from_millis(1),
            corrupt_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: Duration::from_millis(2),
            partition_prob: 0.0,
            partition_ops: 16,
            partition_timeout: Duration::from_millis(20),
        }
    }
}

/// What the schedule decided for one operation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// Drop the request.
    pub drop: bool,
    /// Extra delay to inject before the exchange.
    pub delay: Option<Duration>,
    /// Corrupt the envelope; `true` = corrupt the request direction,
    /// `false` = corrupt the reply direction.
    pub corrupt: Option<bool>,
    /// Byte offset factor used to pick the flipped byte.
    pub corrupt_at: u64,
    /// Deliver the request twice.
    pub duplicate: bool,
    /// Hold the request back to let later ones overtake.
    pub reorder: bool,
    /// Start a scheduled partition on this endpoint.
    pub start_partition: bool,
}

impl FaultDecision {
    /// True when this operation proceeds completely untouched.
    /// (`corrupt_at` is ignored: it is only meaningful when `corrupt`
    /// fired.)
    pub fn is_quiet(&self) -> bool {
        !self.drop
            && self.delay.is_none()
            && self.corrupt.is_none()
            && !self.duplicate
            && !self.reorder
            && !self.start_partition
    }
}

/// A seeded, replayable fault schedule: a pure function from operation
/// number to [`FaultDecision`].
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    seed: u64,
    config: ChaosConfig,
}

/// Salts separating the independent per-operation draws.
mod salt {
    pub const DROP: u64 = 1;
    pub const DELAY: u64 = 2;
    pub const DELAY_JITTER: u64 = 3;
    pub const CORRUPT: u64 = 4;
    pub const CORRUPT_DIR: u64 = 5;
    pub const CORRUPT_AT: u64 = 6;
    pub const DUPLICATE: u64 = 7;
    pub const REORDER: u64 = 8;
    pub const PARTITION: u64 = 9;
}

impl FaultSchedule {
    /// Creates a schedule from a seed and fault probabilities.
    pub fn new(seed: u64, config: ChaosConfig) -> Self {
        FaultSchedule { seed, config }
    }

    /// The seed this schedule replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured probabilities.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    fn coin(&self, op: u64, salt: u64, prob: f64) -> bool {
        prob > 0.0 && unit_f64(mix64(self.seed, op, salt)) < prob
    }

    /// The decision for operation `op`. Pure: the same `(seed, config,
    /// op)` always yields the same decision.
    pub fn decision(&self, op: u64) -> FaultDecision {
        let c = &self.config;
        let delay = if self.coin(op, salt::DELAY, c.delay_prob) {
            let jitter_nanos = c.delay_jitter.as_nanos() as u64;
            let extra = if jitter_nanos == 0 {
                0
            } else {
                mix64(self.seed, op, salt::DELAY_JITTER) % (jitter_nanos + 1)
            };
            Some(c.delay + Duration::from_nanos(extra))
        } else {
            None
        };
        let corrupt = if self.coin(op, salt::CORRUPT, c.corrupt_prob) {
            Some(mix64(self.seed, op, salt::CORRUPT_DIR) & 1 == 0)
        } else {
            None
        };
        FaultDecision {
            drop: self.coin(op, salt::DROP, c.drop_prob),
            delay,
            corrupt,
            corrupt_at: mix64(self.seed, op, salt::CORRUPT_AT),
            duplicate: self.coin(op, salt::DUPLICATE, c.duplicate_prob),
            reorder: self.coin(op, salt::REORDER, c.reorder_prob),
            start_partition: self.coin(op, salt::PARTITION, c.partition_prob),
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos transport
// ---------------------------------------------------------------------------

/// Counters for every fault actually injected, for assertions and replay
/// triage.
#[derive(Debug, Default)]
pub struct ChaosStats {
    dropped: AtomicU64,
    delayed: AtomicU64,
    corrupted: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    partitioned_sends: AtomicU64,
    partitions_started: AtomicU64,
    partitions_healed: AtomicU64,
}

impl ChaosStats {
    /// Requests dropped before delivery.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Requests delayed.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Envelopes corrupted in flight (either direction).
    pub fn corrupted(&self) -> u64 {
        self.corrupted.load(Ordering::Relaxed)
    }

    /// Requests delivered twice (duplicate reply discarded).
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Requests held back to force reordering.
    pub fn reordered(&self) -> u64 {
        self.reordered.load(Ordering::Relaxed)
    }

    /// Sends that black-holed into an active partition.
    pub fn partitioned_sends(&self) -> u64 {
        self.partitioned_sends.load(Ordering::Relaxed)
    }

    /// Scheduled partitions started.
    pub fn partitions_started(&self) -> u64 {
        self.partitions_started.load(Ordering::Relaxed)
    }

    /// Scheduled partitions auto-healed.
    pub fn partitions_healed(&self) -> u64 {
        self.partitions_healed.load(Ordering::Relaxed)
    }

    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.dropped()
            + self.delayed()
            + self.corrupted()
            + self.duplicated()
            + self.reordered()
            + self.partitioned_sends()
    }
}

/// A scheduled partition awaiting auto-heal.
#[derive(Debug)]
struct ScheduledPartition {
    endpoint: String,
    heal_at_op: u64,
}

/// A [`RelayTransport`] decorator injecting faults from a seeded,
/// replayable schedule.
///
/// Composes over any inner transport ([`crate::transport::InProcessBus`],
/// [`crate::transport::PooledTcpTransport`], or another decorator). Manual
/// faults (outages, partitions) come from its [`SharedFaults`]
/// ([`ChaosTransport::faults`]); randomized faults come from the
/// [`FaultSchedule`]. Corruption is fail-closed end to end: a corrupted
/// envelope either fails to decode (the stream is treated as killed) or
/// decodes to garbage the verification layers above must reject.
pub struct ChaosTransport {
    inner: Arc<dyn RelayTransport>,
    schedule: FaultSchedule,
    /// Name of the local side, keying partition pairs in [`SharedFaults`].
    local: String,
    faults: SharedFaults,
    op: AtomicU64,
    scheduled: Mutex<Vec<ScheduledPartition>>,
    stats: Arc<ChaosStats>,
}

impl std::fmt::Debug for ChaosTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosTransport")
            .field("seed", &self.schedule.seed())
            .field("local", &self.local)
            .field("op", &self.op.load(Ordering::Relaxed))
            .field("stats", &self.stats)
            .finish()
    }
}

impl ChaosTransport {
    /// Wraps `inner`, drawing faults from `seed` and `config`.
    pub fn new(inner: Arc<dyn RelayTransport>, seed: u64, config: ChaosConfig) -> Self {
        ChaosTransport {
            inner,
            schedule: FaultSchedule::new(seed, config),
            local: "chaos".into(),
            faults: SharedFaults::new(),
            op: AtomicU64::new(0),
            scheduled: Mutex::new(Vec::new()),
            stats: Arc::new(ChaosStats::default()),
        }
    }

    /// Names the local side for partition-pair keying (builder style).
    pub fn with_local_name(mut self, local: impl Into<String>) -> Self {
        self.local = local.into();
        self
    }

    /// The manual fault set consulted on every send.
    pub fn faults(&self) -> &SharedFaults {
        &self.faults
    }

    /// Injection counters.
    pub fn stats(&self) -> Arc<ChaosStats> {
        Arc::clone(&self.stats)
    }

    /// Operations performed so far.
    pub fn ops(&self) -> u64 {
        self.op.load(Ordering::Relaxed)
    }

    /// Manually partitions this transport from `endpoint` (black-holed
    /// until healed).
    pub fn partition(&self, endpoint: &str) {
        self.faults.partition(self.local.clone(), endpoint);
    }

    /// Heals a manual partition to `endpoint`.
    pub fn heal(&self, endpoint: &str) {
        self.faults.heal(&self.local, endpoint);
    }

    /// Heals scheduled partitions whose lease expired at `op`.
    fn heal_expired(&self, op: u64) {
        let mut scheduled = self.scheduled.lock();
        if scheduled.is_empty() {
            return;
        }
        scheduled.retain(|p| {
            if op >= p.heal_at_op {
                self.faults.heal(&self.local, &p.endpoint);
                self.stats.partitions_healed.fetch_add(1, Ordering::Relaxed);
                false
            } else {
                true
            }
        });
    }

    /// Corrupts one byte of `envelope`'s encoding at a schedule-chosen
    /// offset. `Ok` when the mutation still decodes (garbage envelope to
    /// deliver); `Err` when it broke framing (stream treated as killed).
    fn corrupt(&self, envelope: &RelayEnvelope, at: u64) -> Result<RelayEnvelope, RelayError> {
        let mut bytes = envelope.encode_to_vec();
        if bytes.is_empty() {
            bytes.push(0);
        }
        let pos = (at % bytes.len() as u64) as usize;
        if let Some(byte) = bytes.get_mut(pos) {
            *byte ^= 1u8 << (at % 8);
        }
        self.stats.corrupted.fetch_add(1, Ordering::Relaxed);
        RelayEnvelope::decode_from_slice(&bytes).map_err(|e| {
            RelayError::TransportFailed(format!("chaos: corrupted frame killed stream: {e}"))
        })
    }
}

impl RelayTransport for ChaosTransport {
    fn send(&self, endpoint: &str, envelope: &RelayEnvelope) -> Result<RelayEnvelope, RelayError> {
        let op = self.op.fetch_add(1, Ordering::Relaxed);
        self.heal_expired(op);
        let decision = self.schedule.decision(op);
        // One "chaos.fault" span per operation that injects anything,
        // joined to the active trace (or, on a bare transport with no
        // installed context, to the envelope's wire trace) so injected
        // faults appear inside the span tree of the query they disturbed.
        let faulty = decision.start_partition
            || !decision.is_quiet()
            || self.faults.is_down(endpoint)
            || self.faults.is_partitioned(&self.local, endpoint);
        let mut obs = faulty.then(|| match TraceContext::current() {
            Some(_) => obs_span::enter("chaos.fault"),
            None => obs_span::enter_remote(
                "chaos.fault",
                &crate::telemetry::context_from_header(&envelope.trace),
            ),
        });
        if let Some((span, _)) = obs.as_mut() {
            span.event("chaos.fault");
        }
        if faulty {
            // One flight event per disturbed operation. The code packs
            // the decision as a bitset so a dump names the fault mix;
            // (a, b) = (seed, op) lets a reader replay the schedule.
            let code = u16::from(decision.drop)
                | u16::from(decision.delay.is_some()) << 1
                | u16::from(decision.corrupt.is_some()) << 2
                | u16::from(decision.duplicate) << 3
                | u16::from(decision.reorder) << 4
                | u16::from(decision.start_partition) << 5
                | u16::from(
                    self.faults.is_down(endpoint)
                        || self.faults.is_partitioned(&self.local, endpoint),
                ) << 6;
            tdt_obs::flight::record(tdt_obs::FlightKind::Chaos, code, self.schedule.seed(), op);
        }
        if decision.start_partition && !self.faults.is_partitioned(&self.local, endpoint) {
            self.faults.partition(self.local.clone(), endpoint);
            self.scheduled.lock().push(ScheduledPartition {
                endpoint: endpoint.to_string(),
                heal_at_op: op + self.schedule.config().partition_ops,
            });
            self.stats
                .partitions_started
                .fetch_add(1, Ordering::Relaxed);
        }
        if self.faults.is_down(endpoint) || self.faults.is_partitioned(&self.local, endpoint) {
            // A partition is a black hole, not a fast reject: the caller
            // pays its timeout before learning anything.
            let timeout = self.schedule.config().partition_timeout;
            if !timeout.is_zero() {
                std::thread::sleep(timeout);
            }
            self.stats.partitioned_sends.fetch_add(1, Ordering::Relaxed);
            let message = format!("chaos: partitioned from {endpoint} (op {op})");
            if let Some((span, _)) = obs.as_mut() {
                span.event("chaos.partitioned");
                span.fail();
            }
            return Err(RelayError::TransportFailed(message));
        }
        self.faults.apply_latency();
        if decision.drop {
            self.stats.dropped.fetch_add(1, Ordering::Relaxed);
            let message = format!("chaos: dropped request to {endpoint} (op {op})");
            if let Some((span, _)) = obs.as_mut() {
                span.event("chaos.drop");
                span.fail();
            }
            return Err(RelayError::TransportFailed(message));
        }
        if let Some(delay) = decision.delay {
            self.stats.delayed.fetch_add(1, Ordering::Relaxed);
            if let Some((span, _)) = obs.as_mut() {
                span.event("chaos.delay");
            }
            std::thread::sleep(delay);
        }
        if decision.reorder {
            // Holding this request back lets operations issued after it
            // complete first — reordering at the request level.
            self.stats.reordered.fetch_add(1, Ordering::Relaxed);
            if let Some((span, _)) = obs.as_mut() {
                span.event("chaos.reorder");
            }
            std::thread::sleep(self.schedule.config().reorder_delay);
        }
        let request = match decision.corrupt {
            Some(true) => {
                if let Some((span, _)) = obs.as_mut() {
                    span.event("chaos.corrupt");
                }
                match self.corrupt(envelope, decision.corrupt_at) {
                    Ok(corrupted) => corrupted,
                    Err(e) => {
                        if let Some((span, _)) = obs.as_mut() {
                            span.fail();
                        }
                        return Err(e);
                    }
                }
            }
            _ => envelope.clone(),
        };
        let reply = self.inner.send(endpoint, &request)?;
        if decision.duplicate {
            // Deliver the request a second time; the duplicate's reply is
            // discarded here and must never reach the caller.
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            if let Some((span, _)) = obs.as_mut() {
                span.event("chaos.duplicate");
            }
            let _ = self.inner.send(endpoint, &request);
        }
        match decision.corrupt {
            Some(false) => {
                if let Some((span, _)) = obs.as_mut() {
                    span.event("chaos.corrupt");
                }
                self.corrupt(&reply, decision.corrupt_at)
            }
            _ => Ok(reply),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{EnvelopeHandler, InProcessBus};
    use tdt_wire::messages::EnvelopeKind;

    struct EchoHandler;

    impl EnvelopeHandler for EchoHandler {
        fn handle(&self, envelope: RelayEnvelope) -> RelayEnvelope {
            RelayEnvelope {
                kind: EnvelopeKind::QueryResponse,
                source_relay: "echo".into(),
                dest_network: envelope.dest_network,
                payload: envelope.payload,
                correlation_id: 0,
                trace: Default::default(),
                batch: Vec::new(),
            }
        }
    }

    fn bus_with_echo() -> Arc<InProcessBus> {
        let bus = Arc::new(InProcessBus::new());
        bus.register("echo", Arc::new(EchoHandler));
        bus
    }

    fn request(payload: &[u8]) -> RelayEnvelope {
        RelayEnvelope {
            kind: EnvelopeKind::QueryRequest,
            source_relay: "test".into(),
            dest_network: "target".into(),
            payload: payload.to_vec(),
            correlation_id: 0,
            trace: Default::default(),
            batch: Vec::new(),
        }
    }

    #[test]
    fn quiet_config_is_transparent() {
        let chaos = ChaosTransport::new(bus_with_echo(), 1, ChaosConfig::default());
        for i in 0..10 {
            let payload = format!("m{i}").into_bytes();
            let reply = chaos.send("inproc:echo", &request(&payload)).unwrap();
            assert_eq!(reply.payload, payload);
        }
        assert_eq!(chaos.stats().total(), 0);
        assert_eq!(chaos.ops(), 10);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let config = ChaosConfig {
            drop_prob: 0.3,
            delay_prob: 0.2,
            corrupt_prob: 0.2,
            duplicate_prob: 0.2,
            reorder_prob: 0.1,
            partition_prob: 0.05,
            ..ChaosConfig::default()
        };
        let a = FaultSchedule::new(0xfeed, config.clone());
        let b = FaultSchedule::new(0xfeed, config.clone());
        let c = FaultSchedule::new(0xbeef, config);
        let decisions_a: Vec<_> = (0..512).map(|op| a.decision(op)).collect();
        let decisions_b: Vec<_> = (0..512).map(|op| b.decision(op)).collect();
        assert_eq!(decisions_a, decisions_b, "same seed must replay exactly");
        let decisions_c: Vec<_> = (0..512).map(|op| c.decision(op)).collect();
        assert_ne!(decisions_a, decisions_c, "different seeds must diverge");
        // And the probabilities actually bite.
        assert!(decisions_a.iter().any(|d| d.drop));
        assert!(decisions_a.iter().any(|d| d.corrupt.is_some()));
        assert!(decisions_a.iter().any(|d| !d.is_quiet()));
        assert!(decisions_a.iter().any(|d| d.is_quiet()));
    }

    #[test]
    fn always_drop_always_fails() {
        let chaos = ChaosTransport::new(
            bus_with_echo(),
            7,
            ChaosConfig {
                drop_prob: 1.0,
                ..ChaosConfig::default()
            },
        );
        for _ in 0..5 {
            let err = chaos.send("inproc:echo", &request(b"x")).unwrap_err();
            assert!(matches!(err, RelayError::TransportFailed(m) if m.contains("dropped")));
        }
        assert_eq!(chaos.stats().dropped(), 5);
    }

    #[test]
    fn corruption_never_yields_clean_reply() {
        // With corruption certain, the caller either gets a transport
        // error (frame killed) or an envelope whose bytes differ from the
        // honest reply — never a silently clean exchange.
        let chaos = ChaosTransport::new(
            bus_with_echo(),
            99,
            ChaosConfig {
                corrupt_prob: 1.0,
                ..ChaosConfig::default()
            },
        );
        let honest = RelayEnvelope {
            kind: EnvelopeKind::QueryResponse,
            source_relay: "echo".into(),
            dest_network: "target".into(),
            payload: b"payload".to_vec(),
            correlation_id: 0,
            trace: Default::default(),
            batch: Vec::new(),
        };
        let mut corrupt_seen = 0;
        for i in 0..32 {
            let payload = b"payload".to_vec();
            match chaos.send("inproc:echo", &request(&payload)) {
                Ok(reply) => {
                    // Request-direction corruption may mutate fields the
                    // echo ignores; reply-direction corruption must show.
                    if reply.encode_to_vec() != honest.encode_to_vec() {
                        corrupt_seen += 1;
                    }
                }
                Err(RelayError::TransportFailed(m)) => {
                    assert!(m.contains("corrupt"), "unexpected failure {m} at op {i}");
                    corrupt_seen += 1;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert_eq!(chaos.stats().corrupted(), 32);
        assert!(corrupt_seen > 0, "corruption never observable");
    }

    #[test]
    fn duplicates_are_delivered_but_discarded() {
        use std::sync::atomic::AtomicU64;
        struct CountingHandler {
            calls: AtomicU64,
        }
        impl EnvelopeHandler for CountingHandler {
            fn handle(&self, envelope: RelayEnvelope) -> RelayEnvelope {
                self.calls.fetch_add(1, Ordering::Relaxed);
                EchoHandler.handle(envelope)
            }
        }
        let bus = Arc::new(InProcessBus::new());
        let handler = Arc::new(CountingHandler {
            calls: AtomicU64::new(0),
        });
        bus.register("echo", Arc::clone(&handler) as Arc<dyn EnvelopeHandler>);
        let chaos = ChaosTransport::new(
            bus,
            3,
            ChaosConfig {
                duplicate_prob: 1.0,
                ..ChaosConfig::default()
            },
        );
        for _ in 0..4 {
            let reply = chaos.send("inproc:echo", &request(b"dup")).unwrap();
            assert_eq!(reply.payload, b"dup");
        }
        // Each send reached the handler twice, yet the caller saw exactly
        // one reply per call.
        assert_eq!(handler.calls.load(Ordering::Relaxed), 8);
        assert_eq!(chaos.stats().duplicated(), 4);
    }

    #[test]
    fn manual_partition_black_holes_then_heals() {
        let chaos = ChaosTransport::new(
            bus_with_echo(),
            5,
            ChaosConfig {
                partition_timeout: Duration::from_millis(10),
                ..ChaosConfig::default()
            },
        )
        .with_local_name("swt-relay");
        chaos.partition("inproc:echo");
        let start = std::time::Instant::now();
        let err = chaos.send("inproc:echo", &request(b"x")).unwrap_err();
        assert!(matches!(err, RelayError::TransportFailed(m) if m.contains("partition")));
        assert!(start.elapsed() >= Duration::from_millis(10), "must block");
        chaos.heal("inproc:echo");
        assert!(chaos.send("inproc:echo", &request(b"x")).is_ok());
        assert_eq!(chaos.stats().partitioned_sends(), 1);
    }

    #[test]
    fn scheduled_partition_auto_heals() {
        let chaos = ChaosTransport::new(
            bus_with_echo(),
            11,
            ChaosConfig {
                partition_prob: 1.0, // first op starts a partition
                partition_ops: 3,
                partition_timeout: Duration::ZERO,
                ..ChaosConfig::default()
            },
        );
        // Op 0 starts the partition and black-holes. The next sends land
        // inside it; once the lease expires the pair heals (and, with
        // partition_prob 1.0, a new partition immediately starts).
        assert!(chaos.send("inproc:echo", &request(b"a")).is_err());
        assert!(chaos.send("inproc:echo", &request(b"b")).is_err());
        assert_eq!(chaos.stats().partitions_started(), 1);
        assert!(chaos.stats().partitioned_sends() >= 2);
        // Walk past the lease: the heal fires even under constant re-partition.
        for _ in 0..4 {
            let _ = chaos.send("inproc:echo", &request(b"c"));
        }
        assert!(chaos.stats().partitions_healed() >= 1);
    }

    #[test]
    fn shared_faults_down_and_latency() {
        let chaos = ChaosTransport::new(
            bus_with_echo(),
            2,
            ChaosConfig {
                partition_timeout: Duration::ZERO,
                ..ChaosConfig::default()
            },
        );
        let faults = chaos.faults().clone();
        faults.take_down("inproc:echo");
        assert!(chaos.send("inproc:echo", &request(b"x")).is_err());
        faults.restore("inproc:echo");
        assert!(chaos.send("inproc:echo", &request(b"x")).is_ok());
        assert_eq!(faults.down_count(), 0);
        faults.set_latency(Duration::from_millis(5));
        let start = std::time::Instant::now();
        assert!(chaos.send("inproc:echo", &request(b"x")).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(5));
        faults.clear();
        assert!(faults.latency().is_zero());
    }

    #[test]
    fn shared_faults_partition_pairs_are_directional() {
        let faults = SharedFaults::new();
        faults.partition("a", "b");
        assert!(faults.is_partitioned("a", "b"));
        assert!(!faults.is_partitioned("b", "a"));
        assert_eq!(faults.partition_count(), 1);
        faults.heal("a", "b");
        assert!(!faults.is_partitioned("a", "b"));
    }

    #[test]
    fn splitmix_and_unit_are_stable() {
        let mut rng = SplitMix64::new(42);
        let a = rng.next_u64();
        let mut rng2 = SplitMix64::new(42);
        assert_eq!(a, rng2.next_u64());
        for op in 0..1000 {
            let u = unit_f64(mix64(42, op, 1));
            assert!((0.0..1.0).contains(&u));
        }
        assert_ne!(mix64(1, 2, 3), mix64(1, 2, 4));
        assert_ne!(mix64(1, 2, 3), mix64(2, 2, 3));
    }
}
