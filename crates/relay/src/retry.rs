//! Retry with bounded exponential backoff for relay-to-relay calls.
//!
//! Relay-to-relay traffic crosses administrative domains over unreliable
//! links, so transient faults (connection refused mid-restart, a relay
//! briefly marked down, a shed request) deserve another attempt, while
//! terminal protocol errors (the remote *answered* and said no) must
//! surface immediately. [`RetryingTransport`] wraps any
//! [`RelayTransport`] with that distinction plus capped exponential
//! backoff and jitter, so a thundering herd of retries from many relays
//! decorrelates instead of synchronizing.

use crate::breaker::CircuitBreaker;
use crate::error::RelayError;
use crate::transport::RelayTransport;
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tdt_obs::span::{self as obs_span, RecordErr, Span};
use tdt_wire::messages::RelayEnvelope;

/// When and how long to back off between send attempts.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Re-sends allowed after the initial attempt.
    pub max_retries: u32,
    /// Delay before the first retry; doubles on each further retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff delay.
    pub max_delay: Duration,
    /// Fraction of the delay randomized around its nominal value, in
    /// `0.0..=1.0`: a delay `d` becomes uniform in `d*(1-j) ..= d*(1+j)`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// Creates a policy with explicit parameters.
    pub fn new(max_retries: u32, base_delay: Duration, max_delay: Duration, jitter: f64) -> Self {
        RetryPolicy {
            max_retries,
            base_delay,
            max_delay,
            jitter: jitter.clamp(0.0, 1.0),
        }
    }

    /// A policy that retries immediately, without sleeping — for tests
    /// and for transports with their own pacing.
    pub fn without_delay(max_retries: u32) -> Self {
        RetryPolicy::new(max_retries, Duration::ZERO, Duration::ZERO, 0.0)
    }

    /// The backoff before retry number `attempt` (0-based), jittered.
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let doubled = self
            .base_delay
            .as_nanos()
            .saturating_mul(1u128 << attempt.min(63));
        let capped = doubled.min(self.max_delay.as_nanos());
        if capped == 0 || self.jitter == 0.0 {
            return nanos_to_duration(capped);
        }
        // Uniform factor in [1 - jitter, 1 + jitter].
        let unit = rand::thread_rng().next_u64() as f64 / u64::MAX as f64;
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * unit;
        let jittered = (capped as f64 * factor) as u128;
        nanos_to_duration(jittered.min(self.max_delay.as_nanos()))
    }
}

fn nanos_to_duration(nanos: u128) -> Duration {
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

/// A [`RelayTransport`] decorator that retries transient faults.
///
/// Terminal errors and exhausted budgets propagate the *last* error seen.
/// Attempt counters make retry behavior observable in tests and stats.
pub struct RetryingTransport {
    inner: Arc<dyn RelayTransport>,
    policy: RetryPolicy,
    attempts: AtomicU64,
    retries: AtomicU64,
    breaker: Option<Arc<CircuitBreaker>>,
}

impl std::fmt::Debug for RetryingTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryingTransport")
            .field("policy", &self.policy)
            .field("attempts", &self.attempts)
            .field("retries", &self.retries)
            .field("breaker", &self.breaker.is_some())
            .finish()
    }
}

impl RetryingTransport {
    /// Wraps `inner` with `policy`.
    pub fn new(inner: Arc<dyn RelayTransport>, policy: RetryPolicy) -> Self {
        RetryingTransport {
            inner,
            policy,
            attempts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            breaker: None,
        }
    }

    /// Consults `breaker` before every attempt and reports transient
    /// outcomes back to it. While the endpoint's circuit is open, sends
    /// fail instantly with [`RelayError::CircuitOpen`] — which is *not*
    /// retryable here; a [`crate::redundancy::RelayGroup`] is expected to
    /// fail over to another member instead.
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Total send attempts (including first tries).
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Total re-sends after a transient fault.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

impl RelayTransport for RetryingTransport {
    fn send(&self, endpoint: &str, envelope: &RelayEnvelope) -> Result<RelayEnvelope, RelayError> {
        let (mut span, _obs_guard) = obs_span::enter("transport.retry");
        self.send_with_span(endpoint, envelope, &mut span)
            .record_err(&mut span)
    }
}

impl RetryingTransport {
    fn send_with_span(
        &self,
        endpoint: &str,
        envelope: &RelayEnvelope,
        span: &mut Span,
    ) -> Result<RelayEnvelope, RelayError> {
        let mut attempt = 0;
        loop {
            let attempt_once = || {
                self.attempts.fetch_add(1, Ordering::Relaxed);
                self.inner.send(endpoint, envelope)
            };
            let outcome = match &self.breaker {
                Some(breaker) => breaker.guard(endpoint, span, attempt_once),
                None => attempt_once(),
            };
            match outcome {
                Ok(reply) => return Ok(reply),
                Err(error) if error.is_transient() && attempt < self.policy.max_retries => {
                    let delay = self.policy.backoff_delay(attempt);
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    span.event("retry.attempt");
                    tdt_obs::flight::record(
                        tdt_obs::FlightKind::Retry,
                        u16::try_from(attempt + 1).unwrap_or(u16::MAX),
                        delay.as_nanos().min(u128::from(u64::MAX)) as u64,
                        0,
                    );
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
                Err(error) => return Err(error),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use tdt_wire::messages::EnvelopeKind;

    /// Fails with scripted errors before finally succeeding.
    struct FlakyTransport {
        failures: Mutex<Vec<RelayError>>,
    }

    impl FlakyTransport {
        fn failing(failures: Vec<RelayError>) -> Self {
            FlakyTransport {
                failures: Mutex::new(failures),
            }
        }
    }

    impl RelayTransport for FlakyTransport {
        fn send(
            &self,
            _endpoint: &str,
            envelope: &RelayEnvelope,
        ) -> Result<RelayEnvelope, RelayError> {
            let mut failures = self.failures.lock().unwrap();
            if failures.is_empty() {
                Ok(RelayEnvelope {
                    kind: EnvelopeKind::Ack,
                    source_relay: "flaky".into(),
                    dest_network: envelope.dest_network.clone(),
                    payload: Vec::new(),
                    correlation_id: 0,
                    trace: Default::default(),
                    batch: Vec::new(),
                })
            } else {
                Err(failures.remove(0))
            }
        }
    }

    fn envelope() -> RelayEnvelope {
        RelayEnvelope {
            kind: EnvelopeKind::Ping,
            source_relay: "test".into(),
            dest_network: "stl".into(),
            payload: Vec::new(),
            correlation_id: 0,
            trace: Default::default(),
            batch: Vec::new(),
        }
    }

    fn transient(k: usize) -> Vec<RelayError> {
        (0..k)
            .map(|i| RelayError::TransportFailed(format!("transient {i}")))
            .collect()
    }

    #[test]
    fn k_transient_failures_then_success_costs_exactly_k_retries() {
        for k in 0..4 {
            let transport = RetryingTransport::new(
                Arc::new(FlakyTransport::failing(transient(k))),
                RetryPolicy::without_delay(5),
            );
            let reply = transport.send("inproc:x", &envelope()).unwrap();
            assert_eq!(reply.kind, EnvelopeKind::Ack);
            assert_eq!(transport.retries(), k as u64, "k = {k}");
            assert_eq!(transport.attempts(), k as u64 + 1, "k = {k}");
        }
    }

    #[test]
    fn exhausted_budget_returns_last_error() {
        let transport = RetryingTransport::new(
            Arc::new(FlakyTransport::failing(transient(10))),
            RetryPolicy::without_delay(2),
        );
        let err = transport.send("inproc:x", &envelope()).unwrap_err();
        assert!(matches!(&err, RelayError::TransportFailed(m) if m == "transient 2"));
        assert_eq!(transport.attempts(), 3);
        assert_eq!(transport.retries(), 2);
    }

    #[test]
    fn terminal_errors_fail_immediately() {
        for terminal in [
            RelayError::Remote("nope".into()),
            RelayError::DiscoveryFailed("unknown network".into()),
            RelayError::NoDriver("mars".into()),
            RelayError::DriverFailed("boom".into()),
        ] {
            let transport = RetryingTransport::new(
                Arc::new(FlakyTransport::failing(vec![terminal])),
                RetryPolicy::without_delay(5),
            );
            assert!(transport.send("inproc:x", &envelope()).is_err());
            assert_eq!(transport.attempts(), 1);
            assert_eq!(transport.retries(), 0);
        }
    }

    #[test]
    fn mixed_transient_kinds_all_retry() {
        let transport = RetryingTransport::new(
            Arc::new(FlakyTransport::failing(vec![
                RelayError::TransportFailed("t".into()),
                RelayError::RelayDown("r1".into()),
                RelayError::RateLimited,
            ])),
            RetryPolicy::without_delay(5),
        );
        assert!(transport.send("inproc:x", &envelope()).is_ok());
        assert_eq!(transport.retries(), 3);
    }

    #[test]
    fn backoff_doubles_and_caps_without_jitter() {
        let policy = RetryPolicy::new(8, Duration::from_millis(10), Duration::from_millis(45), 0.0);
        assert_eq!(policy.backoff_delay(0), Duration::from_millis(10));
        assert_eq!(policy.backoff_delay(1), Duration::from_millis(20));
        assert_eq!(policy.backoff_delay(2), Duration::from_millis(40));
        // Capped from here on, including absurd attempt numbers.
        assert_eq!(policy.backoff_delay(3), Duration::from_millis(45));
        assert_eq!(policy.backoff_delay(200), Duration::from_millis(45));
    }

    #[test]
    fn jittered_backoff_stays_in_band() {
        let policy = RetryPolicy::new(3, Duration::from_millis(10), Duration::from_secs(1), 0.5);
        for _ in 0..64 {
            let d = policy.backoff_delay(0);
            assert!(
                d >= Duration::from_millis(5) && d <= Duration::from_millis(15),
                "delay {d:?} outside jitter band"
            );
        }
    }

    #[test]
    fn jittered_backoff_never_exceeds_cap() {
        // Large base + max jitter: the nominal delay would overshoot the
        // cap, so this pins the clamping itself, not a lucky draw.
        let policy = RetryPolicy::new(
            8,
            Duration::from_millis(100),
            Duration::from_millis(60),
            1.0,
        );
        for attempt in 0..8 {
            for _ in 0..64 {
                assert!(
                    policy.backoff_delay(attempt) <= Duration::from_millis(60),
                    "attempt {attempt}: jittered delay exceeded max_delay"
                );
            }
        }
        // Growth stays pinned with jitter disabled.
        let exact = RetryPolicy::new(8, Duration::from_millis(10), Duration::from_secs(10), 0.0);
        let growth: Vec<Duration> = (0..5).map(|a| exact.backoff_delay(a)).collect();
        assert_eq!(
            growth,
            [10, 20, 40, 80, 160].map(Duration::from_millis).to_vec()
        );
    }

    #[test]
    fn breaker_opens_after_repeated_transport_failures() {
        use crate::breaker::{BreakerConfig, BreakerState};
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            consecutive_failures: 3,
            ..BreakerConfig::default()
        }));
        let transport = RetryingTransport::new(
            Arc::new(FlakyTransport::failing(transient(10))),
            RetryPolicy::without_delay(2),
        )
        .with_breaker(Arc::clone(&breaker));
        // 3 attempts = 3 transient failures: the circuit trips.
        assert!(transport.send("inproc:x", &envelope()).is_err());
        assert_eq!(breaker.state("inproc:x"), BreakerState::Open);
        // Next send is rejected locally without an attempt.
        let before = transport.attempts();
        let err = transport.send("inproc:x", &envelope()).unwrap_err();
        assert!(matches!(err, RelayError::CircuitOpen(_)));
        assert_eq!(transport.attempts(), before);
    }

    #[test]
    fn terminal_errors_do_not_trip_breaker() {
        use crate::breaker::BreakerState;
        let breaker = Arc::new(CircuitBreaker::default());
        let transport = RetryingTransport::new(
            Arc::new(FlakyTransport::failing(vec![
                RelayError::Remote("no".into()),
                RelayError::Remote("no".into()),
                RelayError::Remote("no".into()),
                RelayError::Remote("no".into()),
            ])),
            RetryPolicy::without_delay(0),
        )
        .with_breaker(Arc::clone(&breaker));
        for _ in 0..4 {
            assert!(matches!(
                transport.send("inproc:x", &envelope()),
                Err(RelayError::Remote(_))
            ));
        }
        assert_eq!(breaker.state("inproc:x"), BreakerState::Closed);
    }

    #[test]
    fn retryability_classification() {
        for e in [
            RelayError::TransportFailed("x".into()),
            RelayError::StaleConnection("conn closed".into()),
            RelayError::RelayDown("r".into()),
            RelayError::RateLimited,
            RelayError::Overloaded("queue full".into()),
        ] {
            assert!(e.is_transient(), "{e:?}");
        }
        for e in [
            RelayError::Remote("x".into()),
            RelayError::DiscoveryFailed("x".into()),
            RelayError::Wire(tdt_wire::error::WireError::UnexpectedEof),
        ] {
            assert!(!e.is_transient(), "{e:?}");
        }
    }

    #[test]
    fn sheds_are_retryable_but_not_breaker_failures() {
        let shed = RelayError::Overloaded("queue full".into());
        assert!(shed.is_transient());
        assert!(!shed.blames_endpoint());
        // Genuine transient faults still count against the endpoint.
        for e in [
            RelayError::TransportFailed("x".into()),
            RelayError::StaleConnection("x".into()),
            RelayError::RelayDown("r".into()),
            RelayError::RateLimited,
        ] {
            assert!(e.blames_endpoint());
        }
        // Terminal errors never did.
        assert!(!RelayError::Remote("x".into()).blames_endpoint());
    }
}
