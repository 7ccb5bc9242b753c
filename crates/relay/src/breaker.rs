//! Per-endpoint three-state circuit breaker.
//!
//! A relay that keeps hammering a black-holed peer pays the peer's
//! timeout on every request — exactly the amplification a DoS'd relay
//! group cannot afford (paper §5). The breaker converts repeated
//! transport failures into a fast local reject:
//!
//! ```text
//!            consecutive failures ≥ N
//!            or failure rate ≥ r over window
//!   CLOSED ──────────────────────────────────▶ OPEN
//!     ▲                                         │
//!     │ probe succeeds                cooldown  │
//!     │ (× required)                  elapsed   │
//!     │                                         ▼
//!     └──────────────────────────────────── HALF-OPEN
//!                     probe fails ▲───────────────┘
//!                     (back to OPEN)
//! ```
//!
//! While OPEN, [`CircuitBreaker::try_acquire`] fails instantly with
//! [`RelayError::CircuitOpen`]; after the cooldown one probe request at a
//! time is let through (HALF-OPEN). Enough probe successes close the
//! circuit; any probe failure re-opens it and restarts the cooldown.

use crate::error::RelayError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tdt_obs::flight::{self, FlightKind};
use tdt_obs::span::Span;

/// FNV-1a over the endpoint string, so breaker flight events can name
/// the endpoint in 8 bytes (dump consumers correlate the hash across
/// trip/reject/probe events rather than reversing it).
fn endpoint_hash(endpoint: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in endpoint.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Trip and recovery thresholds for a [`CircuitBreaker`].
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker.
    pub consecutive_failures: u32,
    /// Failure rate over the rolling window that trips the breaker.
    pub failure_rate: f64,
    /// Rolling outcome-window size for the rate threshold.
    pub window: usize,
    /// Minimum outcomes in the window before the rate threshold applies.
    pub min_samples: usize,
    /// How long the breaker stays open before allowing a probe.
    pub cooldown: Duration,
    /// Probe successes required to close again from half-open.
    pub required_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            consecutive_failures: 3,
            failure_rate: 0.6,
            window: 16,
            min_samples: 8,
            cooldown: Duration::from_millis(500),
            required_probes: 1,
        }
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; failures are being counted.
    Closed,
    /// Requests are rejected instantly until the cooldown elapses.
    Open,
    /// One probe at a time is allowed through to test recovery.
    HalfOpen,
}

/// Token returned by a successful [`CircuitBreaker::try_acquire`],
/// attributing the admitted request.
///
/// While half-open, exactly one admission per endpoint is *the probe*.
/// Handing the token back through [`CircuitBreaker::record_outcome`]
/// lets the breaker credit (or blame) the probe itself, rather than
/// whichever outcome happens to arrive first: a straggler success from
/// a request admitted before the trip must not close the circuit while
/// the real probe is still deciding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[must_use = "pass the admission back via record_outcome so probe outcomes are attributed"]
pub struct Admission {
    probe: bool,
    /// Per-endpoint probe serial at admission time; an outcome from a
    /// probe superseded by a later trip is demoted to ordinary evidence.
    serial: u64,
}

impl Admission {
    /// True when this admission was the half-open probe.
    pub fn is_probe(&self) -> bool {
        self.probe
    }
}

/// Per-endpoint tracking state.
#[derive(Debug)]
struct EndpointState {
    state: BreakerState,
    consecutive_failures: u32,
    /// Rolling window of outcomes, `true` = failure, bounded by
    /// `config.window`.
    window: std::collections::VecDeque<bool>,
    opened_at: Instant,
    probe_in_flight: bool,
    probe_successes: u32,
    /// Incremented each time a probe is admitted; pairs an in-flight
    /// probe with its [`Admission`] token.
    probe_serial: u64,
}

impl EndpointState {
    fn new() -> Self {
        EndpointState {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            window: std::collections::VecDeque::new(),
            opened_at: Instant::now(),
            probe_in_flight: false,
            probe_successes: 0,
            probe_serial: 0,
        }
    }

    /// Marks the next probe admission and returns its token.
    fn admit_probe(&mut self) -> Admission {
        self.probe_in_flight = true;
        self.probe_serial += 1;
        Admission {
            probe: true,
            serial: self.probe_serial,
        }
    }

    fn push_outcome(&mut self, failed: bool, window: usize) {
        self.window.push_back(failed);
        while self.window.len() > window.max(1) {
            self.window.pop_front();
        }
    }

    fn failure_rate(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let failures = self.window.iter().filter(|f| **f).count();
        failures as f64 / self.window.len() as f64
    }
}

/// A per-endpoint circuit breaker shared by transports and relay groups.
///
/// Endpoints are arbitrary strings: transport endpoints (`tcp:…`,
/// `inproc:…`) or relay ids when used by
/// [`crate::redundancy::RelayGroup`]. All methods are thread-safe; the
/// breaker takes one short internal lock and never calls out while
/// holding it.
pub struct CircuitBreaker {
    config: BreakerConfig,
    endpoints: Mutex<HashMap<String, EndpointState>>,
    trips: AtomicU64,
    probes: AtomicU64,
    fast_rejects: AtomicU64,
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field("config", &self.config)
            .field("endpoints", &self.endpoints.lock().len())
            .field("trips", &self.trips)
            .field("probes", &self.probes)
            .finish()
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new(BreakerConfig::default())
    }
}

impl CircuitBreaker {
    /// Creates a breaker with `config`.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            endpoints: Mutex::new(HashMap::new()),
            trips: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            fast_rejects: AtomicU64::new(0),
        }
    }

    /// Asks permission to send to `endpoint`.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::CircuitOpen`] while the endpoint's circuit is
    /// open (or half-open with a probe already in flight). A successful
    /// acquire during half-open marks this call as the probe; the caller
    /// must report the outcome via [`CircuitBreaker::record_outcome`]
    /// with the returned [`Admission`] so probe outcomes are attributed
    /// to the probe (the attribution-free
    /// [`CircuitBreaker::record_success`] / `record_failure` remain for
    /// outcomes that never held an admission).
    pub fn try_acquire(&self, endpoint: &str) -> Result<Admission, RelayError> {
        let mut endpoints = self.endpoints.lock();
        let Some(state) = endpoints.get_mut(endpoint) else {
            return Ok(Admission::default()); // unknown endpoint: closed by definition
        };
        match state.state {
            BreakerState::Closed => Ok(Admission::default()),
            BreakerState::Open => {
                if state.opened_at.elapsed() >= self.config.cooldown {
                    state.state = BreakerState::HalfOpen;
                    state.probe_successes = 0;
                    let admission = state.admit_probe();
                    self.probes.fetch_add(1, Ordering::Relaxed);
                    flight::record(FlightKind::Breaker, 3, endpoint_hash(endpoint), 0);
                    Ok(admission)
                } else {
                    self.fast_rejects.fetch_add(1, Ordering::Relaxed);
                    flight::record(FlightKind::Breaker, 2, endpoint_hash(endpoint), 0);
                    Err(RelayError::CircuitOpen(endpoint.to_string()))
                }
            }
            BreakerState::HalfOpen => {
                if state.probe_in_flight {
                    self.fast_rejects.fetch_add(1, Ordering::Relaxed);
                    flight::record(FlightKind::Breaker, 2, endpoint_hash(endpoint), 1);
                    Err(RelayError::CircuitOpen(endpoint.to_string()))
                } else {
                    let admission = state.admit_probe();
                    self.probes.fetch_add(1, Ordering::Relaxed);
                    flight::record(FlightKind::Breaker, 3, endpoint_hash(endpoint), 1);
                    Ok(admission)
                }
            }
        }
    }

    /// Records the outcome of an exchange admitted by
    /// [`CircuitBreaker::try_acquire`].
    ///
    /// Only the outcome of the *current* probe admission can close the
    /// circuit (or re-open it as a failed probe): a straggler success
    /// from a request admitted while the circuit was still closed says
    /// nothing about recovery, and previously could close the circuit
    /// while the real probe was outstanding — letting a second probe
    /// through and closing on stale evidence.
    pub fn record_outcome(&self, endpoint: &str, admission: Admission, success: bool) {
        let mut endpoints = self.endpoints.lock();
        let state = endpoints
            .entry(endpoint.to_string())
            .or_insert_with(EndpointState::new);
        // The admission is the live probe only if no trip superseded it.
        let is_current_probe = admission.probe
            && state.state == BreakerState::HalfOpen
            && state.probe_in_flight
            && admission.serial == state.probe_serial;
        if success {
            state.consecutive_failures = 0;
            state.push_outcome(false, self.config.window);
            if is_current_probe {
                state.probe_in_flight = false;
                state.probe_successes += 1;
                if state.probe_successes >= self.config.required_probes.max(1) {
                    state.state = BreakerState::Closed;
                    state.window.clear();
                }
            }
        } else {
            state.consecutive_failures = state.consecutive_failures.saturating_add(1);
            state.push_outcome(true, self.config.window);
            let trip = match state.state {
                // Any failure seen while half-open re-opens: a failed
                // probe by attribution, a straggler as conservative
                // evidence that the endpoint is still unhealthy.
                BreakerState::HalfOpen => {
                    if is_current_probe {
                        state.probe_in_flight = false;
                    }
                    true
                }
                BreakerState::Closed => {
                    state.consecutive_failures >= self.config.consecutive_failures.max(1)
                        || (state.window.len() >= self.config.min_samples.max(1)
                            && state.failure_rate() >= self.config.failure_rate)
                }
                BreakerState::Open => false,
            };
            if trip {
                state.state = BreakerState::Open;
                state.opened_at = Instant::now();
                state.probe_in_flight = false;
                state.probe_successes = 0;
                self.trips.fetch_add(1, Ordering::Relaxed);
                flight::record(
                    FlightKind::Breaker,
                    1,
                    endpoint_hash(endpoint),
                    u64::from(state.consecutive_failures),
                );
            }
        }
    }

    /// Runs one exchange with `endpoint` under the breaker: acquires an
    /// admission, runs `send`, and hands the admission back with the
    /// outcome, so a half-open probe is always settled by the request that
    /// carried it. Terminal errors and admission sheds mean the endpoint
    /// answered — only the errors of [`RelayError::blames_endpoint`] count
    /// against its health, the same rule a relay group settles by.
    ///
    /// # Errors
    ///
    /// [`RelayError::CircuitOpen`], without running `send` and with a
    /// `breaker.fast_reject` event on `span`, while the circuit is open;
    /// otherwise whatever `send` returns.
    pub fn guard<T>(
        &self,
        endpoint: &str,
        span: &mut Span,
        send: impl FnOnce() -> Result<T, RelayError>,
    ) -> Result<T, RelayError> {
        let admission = self
            .try_acquire(endpoint)
            .inspect_err(|_| span.event("breaker.fast_reject"))?;
        let outcome = send();
        let healthy = match &outcome {
            Ok(_) => true,
            Err(error) => !error.blames_endpoint(),
        };
        self.record_outcome(endpoint, admission, healthy);
        outcome
    }

    /// Records a successful exchange that never held an [`Admission`]
    /// (e.g. health signals from outside the acquire path). Never closes
    /// a half-open circuit.
    pub fn record_success(&self, endpoint: &str) {
        self.record_outcome(endpoint, Admission::default(), true);
    }

    /// Records a failed exchange that never held an [`Admission`],
    /// tripping the breaker when a threshold is crossed.
    pub fn record_failure(&self, endpoint: &str) {
        self.record_outcome(endpoint, Admission::default(), false);
    }

    /// The current state for `endpoint` (closed when never seen).
    pub fn state(&self, endpoint: &str) -> BreakerState {
        self.endpoints
            .lock()
            .get(endpoint)
            .map_or(BreakerState::Closed, |s| s.state)
    }

    /// Times the breaker tripped closed → open (or re-opened on a failed
    /// probe).
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Probe requests admitted while half-open.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Requests rejected instantly by an open circuit.
    pub fn fast_rejects(&self) -> u64 {
        self.fast_rejects.load(Ordering::Relaxed)
    }

    /// Endpoints whose circuit is currently open or half-open.
    pub fn open_endpoints(&self) -> u64 {
        self.endpoints
            .lock()
            .values()
            .filter(|s| s.state != BreakerState::Closed)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> BreakerConfig {
        BreakerConfig {
            consecutive_failures: 3,
            cooldown: Duration::from_millis(20),
            ..BreakerConfig::default()
        }
    }

    #[test]
    fn closed_until_consecutive_threshold() {
        let b = CircuitBreaker::new(fast_config());
        for _ in 0..2 {
            assert!(b.try_acquire("e").is_ok());
            b.record_failure("e");
        }
        assert_eq!(b.state("e"), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
        b.record_failure("e");
        assert_eq!(b.state("e"), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert!(matches!(
            b.try_acquire("e"),
            Err(RelayError::CircuitOpen(_))
        ));
        assert_eq!(b.fast_rejects(), 1);
        assert_eq!(b.open_endpoints(), 1);
    }

    #[test]
    fn success_resets_consecutive_count() {
        // Alternating F S never reaches 3 consecutive failures and the
        // window rate stays at 0.5 < 0.6, so the breaker stays closed.
        let b = CircuitBreaker::new(fast_config());
        for _ in 0..10 {
            b.record_failure("e");
            b.record_success("e");
        }
        assert_eq!(b.state("e"), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn failure_rate_trips_without_consecutive_run() {
        let b = CircuitBreaker::new(BreakerConfig {
            consecutive_failures: 100, // out of reach
            failure_rate: 0.5,
            window: 8,
            min_samples: 8,
            ..fast_config()
        });
        // Alternate F S F S … then pile on failures: rate crosses 0.5.
        for _ in 0..4 {
            b.record_failure("e");
            b.record_success("e");
        }
        assert_eq!(b.state("e"), BreakerState::Closed);
        b.record_failure("e");
        // The bounded window is now 4 failures / 8 outcomes ≥ 0.5.
        assert_eq!(b.state("e"), BreakerState::Open);
    }

    #[test]
    fn open_to_half_open_probe_to_closed() {
        let b = CircuitBreaker::new(fast_config());
        for _ in 0..3 {
            b.record_failure("e");
        }
        assert_eq!(b.state("e"), BreakerState::Open);
        assert!(b.try_acquire("e").is_err());
        std::thread::sleep(Duration::from_millis(25));
        // Cooldown elapsed: exactly one probe gets through.
        let probe = b.try_acquire("e").unwrap();
        assert!(probe.is_probe());
        assert_eq!(b.state("e"), BreakerState::HalfOpen);
        assert!(b.try_acquire("e").is_err(), "second probe must wait");
        assert_eq!(b.probes(), 1);
        b.record_outcome("e", probe, true);
        assert_eq!(b.state("e"), BreakerState::Closed);
        assert!(b.try_acquire("e").is_ok());
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let b = CircuitBreaker::new(fast_config());
        for _ in 0..3 {
            b.record_failure("e");
        }
        std::thread::sleep(Duration::from_millis(25));
        let probe = b.try_acquire("e").unwrap();
        assert_eq!(b.state("e"), BreakerState::HalfOpen);
        b.record_outcome("e", probe, false);
        assert_eq!(b.state("e"), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        assert!(b.try_acquire("e").is_err(), "cooldown restarted");
    }

    #[test]
    fn multiple_probes_required_when_configured() {
        let b = CircuitBreaker::new(BreakerConfig {
            required_probes: 2,
            ..fast_config()
        });
        for _ in 0..3 {
            b.record_failure("e");
        }
        std::thread::sleep(Duration::from_millis(25));
        let first = b.try_acquire("e").unwrap();
        b.record_outcome("e", first, true);
        assert_eq!(b.state("e"), BreakerState::HalfOpen, "one probe not enough");
        let second = b.try_acquire("e").unwrap();
        b.record_outcome("e", second, true);
        assert_eq!(b.state("e"), BreakerState::Closed);
        assert_eq!(b.probes(), 2);
    }

    #[test]
    fn endpoints_are_independent() {
        let b = CircuitBreaker::new(fast_config());
        for _ in 0..3 {
            b.record_failure("dead");
        }
        assert_eq!(b.state("dead"), BreakerState::Open);
        assert_eq!(b.state("healthy"), BreakerState::Closed);
        assert!(b.try_acquire("healthy").is_ok());
    }

    #[test]
    fn straggler_success_does_not_close_half_open() {
        let b = CircuitBreaker::new(fast_config());
        // A slow request is admitted while the circuit is still closed…
        let straggler = b.try_acquire("e").unwrap();
        assert!(!straggler.is_probe());
        // …then the endpoint degrades and the circuit trips and probes.
        for _ in 0..3 {
            b.record_failure("e");
        }
        std::thread::sleep(Duration::from_millis(25));
        let probe = b.try_acquire("e").unwrap();
        assert_eq!(b.state("e"), BreakerState::HalfOpen);
        // The straggler finally succeeds. Before attribution this closed
        // the circuit on stale evidence and let a second probe through.
        b.record_outcome("e", straggler, true);
        assert_eq!(
            b.state("e"),
            BreakerState::HalfOpen,
            "stale success must not close"
        );
        assert!(b.try_acquire("e").is_err(), "the real probe is still out");
        // Only the probe's own outcome decides.
        b.record_outcome("e", probe, true);
        assert_eq!(b.state("e"), BreakerState::Closed);
    }

    #[test]
    fn superseded_probe_outcome_is_demoted_to_evidence() {
        let b = CircuitBreaker::new(fast_config());
        for _ in 0..3 {
            b.record_failure("e");
        }
        std::thread::sleep(Duration::from_millis(25));
        // First probe goes out, then a straggler failure re-trips the
        // circuit underneath it.
        let stale_probe = b.try_acquire("e").unwrap();
        b.record_failure("e");
        assert_eq!(b.state("e"), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(25));
        // A fresh probe is admitted; the stale probe's late success must
        // not be credited to it.
        let fresh_probe = b.try_acquire("e").unwrap();
        b.record_outcome("e", stale_probe, true);
        assert_eq!(
            b.state("e"),
            BreakerState::HalfOpen,
            "stale probe cannot close"
        );
        b.record_outcome("e", fresh_probe, true);
        assert_eq!(b.state("e"), BreakerState::Closed);
    }
}
