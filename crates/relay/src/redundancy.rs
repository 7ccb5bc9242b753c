//! Redundant relay groups with degradation-aware member selection.
//!
//! "The effects of DoS attacks can be mitigated by adding redundant
//! relays" (paper §5). A [`RelayGroup`] fronts several relay instances of
//! the same network and fails over between them. Selection is not blind
//! round-robin: each member carries an EWMA health score, members whose
//! circuit breaker is open are skipped without touching the network, and
//! an optional latency-threshold *hedge* races the next-healthiest member
//! when the primary is slow. An optional end-to-end deadline bounds the
//! whole attempt sequence — failover and hedging never exceed the
//! caller's budget.

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::error::RelayError;
use crate::service::RelayService;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdt_obs::span::{self as obs_span, RecordErr, Span};
use tdt_obs::{ContextGuard, TraceContext};
use tdt_wire::messages::{Query, QueryResponse};

/// Tunables for a [`RelayGroup`].
#[derive(Debug, Clone, Default)]
pub struct GroupConfig {
    /// When the in-flight attempt has not answered after this long,
    /// launch a concurrent hedged attempt against the next candidate.
    /// `None` (the default) keeps attempts strictly sequential.
    pub hedge_after: Option<Duration>,
    /// Default end-to-end deadline for [`RelayGroup::relay_query`]
    /// covering every failover and hedge. `None` means unbounded.
    pub deadline: Option<Duration>,
    /// Thresholds for the group's per-member circuit breaker.
    pub breaker: BreakerConfig,
}

/// EWMA weight: each outcome moves a member's health 10 % of the way
/// toward 1.0 (success) or 0.0 (failure).
const HEALTH_ALPHA: f64 = 0.1;

/// One relay instance plus its rolling health score.
struct Member {
    relay: Arc<RelayService>,
    /// EWMA success rate in `0.0..=1.0`, stored as `f64` bits.
    health: AtomicU64,
}

impl Member {
    fn new(relay: Arc<RelayService>) -> Self {
        Member {
            relay,
            health: AtomicU64::new(1.0f64.to_bits()),
        }
    }

    fn health(&self) -> f64 {
        f64::from_bits(self.health.load(Ordering::Relaxed))
    }

    fn record(&self, success: bool) {
        let target = if success { 1.0 } else { 0.0 };
        let _ = self
            .health
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                let h = f64::from_bits(bits);
                Some((h + HEALTH_ALPHA * (target - h)).to_bits())
            });
    }

    /// Coarse bucket so that members with *equal* health keep their
    /// round-robin rotation order (the sort below is stable), while a
    /// clearly degraded member sinks behind healthy peers.
    fn health_bucket(&self) -> u8 {
        (self.health() * 8.0).clamp(0.0, 8.0) as u8
    }
}

/// A set of interchangeable relays for one network, with health-weighted
/// selection, breaker-aware skip, optional hedging, and deadline budgets.
pub struct RelayGroup {
    members: Vec<Arc<Member>>,
    next: AtomicUsize,
    config: GroupConfig,
    breaker: Arc<CircuitBreaker>,
    hedges: AtomicU64,
    /// Shared with detached hedge worker threads, which outlive the
    /// query call when they lose the race.
    discarded_replies: Arc<AtomicU64>,
    breaker_skips: AtomicU64,
    deadline_failures: AtomicU64,
    degraded_queries: AtomicU64,
}

impl std::fmt::Debug for RelayGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelayGroup")
            .field(
                "relays",
                &self
                    .members
                    .iter()
                    .map(|m| m.relay.id())
                    .collect::<Vec<_>>(),
            )
            .field("config", &self.config)
            .finish()
    }
}

impl RelayGroup {
    /// Creates a group from relay instances with default tunables.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::InvalidConfig`] when `relays` is empty.
    pub fn new(relays: Vec<Arc<RelayService>>) -> Result<Self, RelayError> {
        // lint:allow(obs: "constructor, no request in flight to trace")
        Self::with_config(relays, GroupConfig::default())
    }

    /// Creates a group with explicit [`GroupConfig`] tunables.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::InvalidConfig`] when `relays` is empty.
    pub fn with_config(
        relays: Vec<Arc<RelayService>>,
        config: GroupConfig,
    ) -> Result<Self, RelayError> {
        // lint:allow(obs: "constructor, no request in flight to trace")
        if relays.is_empty() {
            return Err(RelayError::InvalidConfig(
                "a relay group needs at least one relay".into(),
            ));
        }
        let breaker = Arc::new(CircuitBreaker::new(config.breaker.clone()));
        Ok(RelayGroup {
            members: relays
                .into_iter()
                .map(|r| Arc::new(Member::new(r)))
                .collect(),
            next: AtomicUsize::new(0),
            config,
            breaker,
            hedges: AtomicU64::new(0),
            discarded_replies: Arc::new(AtomicU64::new(0)),
            breaker_skips: AtomicU64::new(0),
            deadline_failures: AtomicU64::new(0),
            degraded_queries: AtomicU64::new(0),
        })
    }

    /// Number of member relays.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always false: construction rejects empty groups.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The member relay at `index` (rotation position at construction).
    pub fn relay(&self, index: usize) -> Option<&Arc<RelayService>> {
        self.members.get(index).map(|m| &m.relay)
    }

    /// The EWMA health score of the member at `index` (`1.0` = perfect).
    pub fn member_health(&self, index: usize) -> Option<f64> {
        self.members.get(index).map(|m| m.health())
    }

    /// The group's per-member circuit breaker (keyed by relay id).
    pub fn breaker(&self) -> &Arc<CircuitBreaker> {
        &self.breaker
    }

    /// Hedged attempts launched because the primary was slow.
    pub fn hedges(&self) -> u64 {
        self.hedges.load(Ordering::Relaxed)
    }

    /// Replies that arrived after another attempt already won the race
    /// and were therefore discarded (never delivered to the caller).
    pub fn discarded_replies(&self) -> u64 {
        self.discarded_replies.load(Ordering::Relaxed)
    }

    /// Attempts skipped without touching the network because the
    /// member's circuit was open.
    pub fn breaker_skips(&self) -> u64 {
        self.breaker_skips.load(Ordering::Relaxed)
    }

    /// Queries that failed because the deadline budget ran out.
    pub fn deadline_failures(&self) -> u64 {
        self.deadline_failures.load(Ordering::Relaxed)
    }

    /// Queries that ran in degraded mode: every candidate's circuit was
    /// open, so the group forced an attempt anyway rather than fail the
    /// caller on [`RelayError::CircuitOpen`] alone.
    pub fn degraded_queries(&self) -> u64 {
        self.degraded_queries.load(Ordering::Relaxed)
    }

    /// Candidate order for one query: rotation for fairness, then a
    /// stable sort by health bucket so degraded members are tried last
    /// while equally healthy members preserve round-robin order.
    fn selection_order(&self) -> Vec<usize> {
        let n = self.members.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed) % n.max(1);
        let mut order: Vec<usize> = (0..n).map(|i| (start + i) % n).collect();
        order.sort_by_key(|&i| {
            std::cmp::Reverse(self.members.get(i).map_or(0, |m| m.health_bucket()))
        });
        order
    }

    /// Records one member outcome in both the health EWMA and the
    /// group breaker, attributed to the breaker [`Admission`] the
    /// attempt was launched under (so half-open probe credit goes to
    /// the probe itself, never to a straggler).
    fn record_outcome(
        &self,
        index: usize,
        admission: Admission,
        outcome: &Result<QueryResponse, RelayError>,
    ) {
        let Some(member) = self.members.get(index) else {
            return;
        };
        // A failover error counts against the member's health EWMA, so
        // selection biases away from it; terminal errors mean the member is
        // alive and answering. An admission shed fails over but does NOT
        // count against the member's circuit
        // (`RelayError::blames_endpoint`): with hedging, one overloaded
        // member would otherwise land its sheds in its peers' failure
        // windows faster than real traffic could amortize them, tripping
        // circuits on relays that are merely busy.
        let (live, healthy) = match outcome {
            Ok(_) => (true, true),
            Err(e) => (!e.is_failover(), !e.blames_endpoint()),
        };
        member.record(live);
        self.breaker
            .record_outcome(member.relay.id(), admission, healthy);
    }

    /// Relays a query under the group's configured deadline (if any),
    /// starting from the healthiest candidate in rotation order and
    /// failing over — or hedging, when configured — on relay-local
    /// errors and slowness.
    ///
    /// # Errors
    ///
    /// Returns the last failure when every member relay failed,
    /// [`RelayError::DeadlineExceeded`] when the budget ran out first,
    /// or a terminal error from the first member that produced one.
    pub fn relay_query(&self, query: &Query) -> Result<QueryResponse, RelayError> {
        // lint:allow(obs: "delegates to relay_query_with_deadline, which records")
        self.relay_query_with_deadline(query, self.config.deadline)
    }

    /// Like [`RelayGroup::relay_query`] with an explicit end-to-end
    /// deadline covering every failover attempt and hedge.
    ///
    /// # Errors
    ///
    /// As [`RelayGroup::relay_query`].
    pub fn relay_query_with_deadline(
        &self,
        query: &Query,
        deadline: Option<Duration>,
    ) -> Result<QueryResponse, RelayError> {
        let (mut span, _obs_guard) = obs_span::enter("group.query");
        let started = Instant::now();
        let order = self.selection_order();
        let result = match self.config.hedge_after {
            None => self.run_sequential(query, &order, started, deadline, &mut span),
            Some(hedge_after) => {
                self.run_hedged(query, &order, started, deadline, hedge_after, &mut span)
            }
        };
        result.record_err(&mut span)
    }

    fn deadline_error(&self, started: Instant, deadline: Duration) -> RelayError {
        self.deadline_failures.fetch_add(1, Ordering::Relaxed);
        RelayError::DeadlineExceeded(format!(
            "relay group budget {deadline:?} spent after {:?}",
            started.elapsed()
        ))
    }

    fn run_sequential(
        &self,
        query: &Query,
        order: &[usize],
        started: Instant,
        deadline: Option<Duration>,
        span: &mut Span,
    ) -> Result<QueryResponse, RelayError> {
        let mut last_err = None;
        let mut skipped = Vec::new();
        for &index in order {
            if let Some(budget) = deadline {
                if started.elapsed() >= budget {
                    return Err(self.deadline_error(started, budget));
                }
            }
            let Some(member) = self.members.get(index) else {
                continue;
            };
            let admission = match self.breaker.try_acquire(member.relay.id()) {
                Ok(admission) => admission,
                Err(open) => {
                    self.breaker_skips.fetch_add(1, Ordering::Relaxed);
                    span.event("breaker.fast_reject");
                    skipped.push(index);
                    last_err.get_or_insert(open);
                    continue;
                }
            };
            let outcome = member.relay.relay_query(query);
            self.record_outcome(index, admission, &outcome);
            match outcome {
                Ok(response) => return Ok(response),
                Err(e) if e.is_failover() => last_err = Some(e),
                Err(terminal) => return Err(terminal),
            }
        }
        // Degraded mode: every attempt was a breaker skip. Failing the
        // caller on open circuits alone would turn a cooldown window into
        // an outage, so force attempts at the skipped members instead —
        // each doubles as recovery evidence for its breaker.
        if skipped.len() == order.len() {
            self.degraded_queries.fetch_add(1, Ordering::Relaxed);
            span.event("group.degraded");
            for index in skipped {
                if let Some(budget) = deadline {
                    if started.elapsed() >= budget {
                        return Err(self.deadline_error(started, budget));
                    }
                }
                let Some(member) = self.members.get(index) else {
                    continue;
                };
                // Forced attempt: the circuit was open, so there is no
                // admission — the outcome is ordinary window evidence.
                let outcome = member.relay.relay_query(query);
                self.record_outcome(index, Admission::default(), &outcome);
                match outcome {
                    Ok(response) => return Ok(response),
                    Err(e) if e.is_failover() => last_err = Some(e),
                    Err(terminal) => return Err(terminal),
                }
            }
        }
        Err(last_err.unwrap_or_else(|| RelayError::RelayDown("all relays".into())))
    }

    /// Races member attempts: the first one launched normally, further
    /// ones either on failure (failover) or after `hedge_after` without
    /// an answer (hedge). The first success wins; late replies are
    /// counted in [`RelayGroup::discarded_replies`] and dropped, so a
    /// caller can never observe two replies for one query.
    fn run_hedged(
        &self,
        query: &Query,
        order: &[usize],
        started: Instant,
        deadline: Option<Duration>,
        hedge_after: Duration,
        span: &mut Span,
    ) -> Result<QueryResponse, RelayError> {
        let (tx, rx) =
            crossbeam::channel::unbounded::<(usize, Admission, Result<QueryResponse, RelayError>)>(
            );
        let won = Arc::new(AtomicBool::new(false));
        let mut pending = order
            .iter()
            .copied()
            .collect::<std::collections::VecDeque<_>>();
        // Members skipped on an open circuit, kept for degraded mode:
        // when nothing can be attempted normally, they are re-queued and
        // attempted with the breaker bypassed.
        let mut skipped = std::collections::VecDeque::new();
        let mut outstanding = 0usize;
        let mut last_err = None;
        // The worker threads must join the caller's trace even though the
        // thread-local slot does not cross `thread::spawn`: capture the
        // context here and re-install it inside each worker.
        let trace_ctx = TraceContext::current();
        let launch = |hedged: bool,
                      force: bool,
                      pending: &mut std::collections::VecDeque<usize>,
                      skipped: &mut std::collections::VecDeque<usize>,
                      outstanding: &mut usize,
                      last_err: &mut Option<RelayError>,
                      span: &mut Span| {
            while let Some(index) = pending.pop_front() {
                let Some(member) = self.members.get(index) else {
                    continue;
                };
                // Forced attempts carry no admission: their outcomes are
                // ordinary window evidence for an open circuit.
                let mut admission = Admission::default();
                if !force {
                    match self.breaker.try_acquire(member.relay.id()) {
                        Ok(a) => admission = a,
                        Err(open) => {
                            self.breaker_skips.fetch_add(1, Ordering::Relaxed);
                            span.event("breaker.fast_reject");
                            skipped.push_back(index);
                            last_err.get_or_insert(open);
                            continue;
                        }
                    }
                }
                if hedged {
                    self.hedges.fetch_add(1, Ordering::Relaxed);
                    span.event("hedge.fired");
                    tdt_obs::flight::record(
                        tdt_obs::FlightKind::Hedge,
                        0,
                        index as u64,
                        started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                    );
                }
                let member = Arc::clone(member);
                let query = query.clone();
                let tx = tx.clone();
                let won = Arc::clone(&won);
                let discarded = Arc::clone(&self.discarded_replies);
                // Detached worker: a slow loser finishes in the
                // background; its reply is counted and dropped, never
                // delivered.
                std::thread::spawn(move || {
                    let _trace_guard = match trace_ctx {
                        Some(ctx) => ctx.install(),
                        None => ContextGuard::noop(),
                    };
                    let outcome = member.relay.relay_query(&query);
                    if outcome.is_ok() && won.swap(true, Ordering::SeqCst) {
                        // Another attempt already delivered first. The
                        // loser is marked as discarded in its own span so
                        // the trace shows the duplicate was dropped, not
                        // delivered twice.
                        discarded.fetch_add(1, Ordering::Relaxed);
                        let (mut loser, _loser_guard) = obs_span::enter("hedge.discarded");
                        loser.event("hedge.discarded");
                        return;
                    }
                    let _ = tx.send((index, admission, outcome));
                });
                *outstanding += 1;
                return true;
            }
            false
        };
        launch(
            false,
            false,
            &mut pending,
            &mut skipped,
            &mut outstanding,
            &mut last_err,
            span,
        );
        loop {
            if outstanding == 0 && pending.is_empty() {
                if skipped.is_empty() {
                    return Err(
                        last_err.unwrap_or_else(|| RelayError::RelayDown("all relays".into()))
                    );
                }
                // Degraded mode: nothing in flight and every remaining
                // candidate's circuit is open. Re-queue the skipped
                // members and force an attempt rather than fail the
                // caller on cooldown alone.
                self.degraded_queries.fetch_add(1, Ordering::Relaxed);
                span.event("group.degraded");
                std::mem::swap(&mut pending, &mut skipped);
                launch(
                    false,
                    true,
                    &mut pending,
                    &mut skipped,
                    &mut outstanding,
                    &mut last_err,
                    span,
                );
                continue;
            }
            let remaining = match deadline {
                None => None,
                Some(budget) => match budget.checked_sub(started.elapsed()) {
                    Some(r) => Some(r),
                    None => return Err(self.deadline_error(started, budget)),
                },
            };
            let wait = if pending.is_empty() {
                remaining.unwrap_or(Duration::from_secs(3600))
            } else {
                remaining.map_or(hedge_after, |r| r.min(hedge_after))
            };
            match rx.recv_timeout(wait) {
                Ok((index, admission, outcome)) => {
                    self.record_outcome(index, admission, &outcome);
                    match outcome {
                        Ok(response) => return Ok(response),
                        Err(e) if e.is_failover() => {
                            outstanding -= 1;
                            last_err = Some(e);
                            launch(
                                false,
                                false,
                                &mut pending,
                                &mut skipped,
                                &mut outstanding,
                                &mut last_err,
                                span,
                            );
                        }
                        Err(terminal) => return Err(terminal),
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    if let Some(budget) = deadline {
                        if started.elapsed() >= budget {
                            return Err(self.deadline_error(started, budget));
                        }
                    }
                    // The in-flight attempt is slow: hedge with the next
                    // candidate if one is available. When nothing can be
                    // launched and nothing is in flight, the loop top
                    // handles degraded mode or gives up.
                    launch(
                        true,
                        false,
                        &mut pending,
                        &mut skipped,
                        &mut outstanding,
                        &mut last_err,
                        span,
                    );
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    return Err(last_err
                        .unwrap_or_else(|| RelayError::TransportFailed("hedge race lost".into())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{DiscoveryService, StaticRegistry};
    use crate::driver::EchoDriver;
    use crate::ratelimit::RateLimiter;
    use crate::transport::{EnvelopeHandler, InProcessBus, RelayTransport};
    use tdt_wire::messages::NetworkAddress;

    fn setup_with(n: usize, limited: bool, config: GroupConfig) -> (RelayGroup, Arc<RelayService>) {
        let registry = Arc::new(StaticRegistry::new());
        let bus = Arc::new(InProcessBus::new());
        registry.register("stl", "inproc:stl-relay");
        let stl_relay = Arc::new(RelayService::new(
            "stl-relay",
            "stl",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
        ));
        stl_relay.register_driver(Arc::new(EchoDriver::new("stl")));
        bus.register(
            "stl-relay",
            Arc::clone(&stl_relay) as Arc<dyn EnvelopeHandler>,
        );
        let mut relays = Vec::new();
        for i in 0..n {
            let mut relay = RelayService::new(
                format!("swt-relay-{i}"),
                "swt",
                Arc::clone(&registry) as Arc<dyn DiscoveryService>,
                Arc::clone(&bus) as Arc<dyn RelayTransport>,
            );
            if limited {
                relay = relay.with_rate_limiter(RateLimiter::new(1, 0.0));
            }
            relays.push(Arc::new(relay));
        }
        (RelayGroup::with_config(relays, config).unwrap(), stl_relay)
    }

    fn setup(n: usize, limited: bool) -> (RelayGroup, Arc<RelayService>) {
        setup_with(n, limited, GroupConfig::default())
    }

    fn query() -> Query {
        Query {
            request_id: "r".into(),
            address: NetworkAddress::new("stl", "l", "c", "f").with_arg(b"data".to_vec()),
            ..Default::default()
        }
    }

    #[test]
    fn group_serves_queries() {
        let (group, _stl) = setup(3, false);
        assert_eq!(group.len(), 3);
        let response = group.relay_query(&query()).unwrap();
        assert_eq!(response.result, b"data");
    }

    #[test]
    fn failover_past_down_relays() {
        let (group, _stl) = setup(3, false);
        group.relay(0).unwrap().set_down(true);
        group.relay(1).unwrap().set_down(true);
        // Should still succeed on the remaining relay, for many requests.
        for _ in 0..5 {
            assert!(group.relay_query(&query()).is_ok());
        }
    }

    #[test]
    fn all_down_fails() {
        let (group, _stl) = setup(2, false);
        for i in 0..group.len() {
            group.relay(i).unwrap().set_down(true);
        }
        assert!(group.relay_query(&query()).is_err());
    }

    #[test]
    fn rate_limited_relays_fail_over() {
        // Each relay allows exactly one request; the group absorbs N.
        let (group, _stl) = setup(3, true);
        for _ in 0..3 {
            assert!(group.relay_query(&query()).is_ok());
        }
        assert!(matches!(
            group.relay_query(&query()),
            Err(RelayError::RateLimited)
        ));
    }

    /// A group whose one upstream source relay sheds *every* request at
    /// the admission gate: burst floor zero and an hour-long seed
    /// service-time estimate make the wait estimate always exceed the
    /// 50 ms deadline budget.
    fn overloaded_upstream_setup(config: GroupConfig) -> (RelayGroup, Arc<RelayService>) {
        use crate::admission::AdmissionConfig;
        let registry = Arc::new(StaticRegistry::new());
        let bus = Arc::new(InProcessBus::new());
        registry.register("stl", "inproc:stl-relay");
        let stl_relay = Arc::new(
            RelayService::new(
                "stl-relay",
                "stl",
                Arc::clone(&registry) as Arc<dyn DiscoveryService>,
                Arc::clone(&bus) as Arc<dyn RelayTransport>,
            )
            .with_request_deadline(Duration::from_millis(50))
            .with_admission_control(AdmissionConfig {
                burst_floor: 0,
                alpha: 0.2,
                initial_service_time: Duration::from_secs(3600),
                headroom: 1.0,
            }),
        );
        stl_relay.register_driver(Arc::new(EchoDriver::new("stl")));
        stl_relay.start_workers(1);
        bus.register(
            "stl-relay",
            Arc::clone(&stl_relay) as Arc<dyn EnvelopeHandler>,
        );
        let relays = (0..2)
            .map(|i| {
                Arc::new(RelayService::new(
                    format!("swt-relay-{i}"),
                    "swt",
                    Arc::clone(&registry) as Arc<dyn DiscoveryService>,
                    Arc::clone(&bus) as Arc<dyn RelayTransport>,
                ))
            })
            .collect();
        (RelayGroup::with_config(relays, config).unwrap(), stl_relay)
    }

    #[test]
    fn sheds_fail_over_without_tripping_member_breakers() {
        use crate::breaker::{BreakerConfig, BreakerState};
        let config = GroupConfig {
            hedge_after: None,
            deadline: None,
            breaker: BreakerConfig {
                consecutive_failures: 2,
                cooldown: Duration::from_secs(60),
                ..BreakerConfig::default()
            },
        };
        let (group, stl) = overloaded_upstream_setup(config);
        // Far more sheds per member than the trip threshold.
        for _ in 0..10 {
            assert!(matches!(
                group.relay_query(&query()),
                Err(RelayError::Overloaded(_))
            ));
        }
        assert!(
            stl.stats().snapshot().admission_shed >= 10,
            "upstream must shed"
        );
        // The members answered every time (with a shed): their circuits
        // must stay closed — the overload is upstream, not member death.
        let breaker = group.breaker();
        assert_eq!(breaker.trips(), 0, "sheds must not trip circuits");
        for i in 0..group.len() {
            assert_eq!(
                breaker.state(group.relay(i).unwrap().id()),
                BreakerState::Closed
            );
        }
        stl.stop_workers();
    }

    #[test]
    fn hedged_sheds_do_not_trip_peer_circuits() {
        use crate::breaker::{BreakerConfig, BreakerState};
        // Hedging doubles the shed traffic per query: without the
        // shed-aware outcome recording, each query would land failures
        // in *two* members' windows and trip both circuits within a
        // handful of queries.
        let config = GroupConfig {
            hedge_after: Some(Duration::from_millis(1)),
            deadline: Some(Duration::from_secs(2)),
            breaker: BreakerConfig {
                consecutive_failures: 2,
                cooldown: Duration::from_secs(60),
                ..BreakerConfig::default()
            },
        };
        let (group, stl) = overloaded_upstream_setup(config);
        for _ in 0..10 {
            assert!(group.relay_query(&query()).is_err());
        }
        assert!(
            stl.stats().snapshot().admission_shed >= 10,
            "upstream must shed"
        );
        let breaker = group.breaker();
        assert_eq!(
            breaker.trips(),
            0,
            "a fast-reject from an overloaded upstream must not trip a peer's circuit"
        );
        for i in 0..group.len() {
            assert_eq!(
                breaker.state(group.relay(i).unwrap().id()),
                BreakerState::Closed
            );
        }
        stl.stop_workers();
    }

    #[test]
    fn remote_errors_not_retried() {
        let (group, _stl) = setup(2, false);
        let mut q = query();
        q.address.network_id = "unknown-network".into();
        // Discovery failure is relay-local config, not failover-able.
        assert!(matches!(
            group.relay_query(&q),
            Err(RelayError::DiscoveryFailed(_))
        ));
    }

    #[test]
    fn empty_group_is_rejected() {
        let err = RelayGroup::new(Vec::new()).unwrap_err();
        assert!(matches!(err, RelayError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn health_tracks_failures_and_selection_prefers_healthy() {
        let (group, _stl) = setup(2, false);
        group.relay(0).unwrap().set_down(true);
        for _ in 0..8 {
            assert!(group.relay_query(&query()).is_ok());
        }
        let unhealthy = group.member_health(0).unwrap();
        let healthy = group.member_health(1).unwrap();
        assert!(
            unhealthy < healthy,
            "failing member must degrade: {unhealthy} vs {healthy}"
        );
        // Once buckets diverge, the healthy member is tried first even on
        // rotations that would have started at the degraded one, so
        // queries keep succeeding on the first attempt.
        assert!(group.member_health(1).unwrap() > 0.99);
    }

    #[test]
    fn breaker_isolates_repeatedly_failing_member() {
        let config = GroupConfig {
            breaker: BreakerConfig {
                consecutive_failures: 2,
                cooldown: Duration::from_secs(60),
                ..BreakerConfig::default()
            },
            ..GroupConfig::default()
        };
        let (group, _stl) = setup_with(2, false, config);
        // With every member down, failover keeps re-trying both, so the
        // failure count accumulates until the circuits trip.
        for i in 0..group.len() {
            group.relay(i).unwrap().set_down(true);
        }
        for _ in 0..2 {
            assert!(group.relay_query(&query()).is_err());
        }
        assert_eq!(
            group.breaker().state(group.relay(0).unwrap().id()),
            crate::breaker::BreakerState::Open
        );
        // With every circuit open the group degrades to forced attempts
        // instead of failing on CircuitOpen alone; the members are still
        // down, so the forced attempts report that.
        assert!(matches!(
            group.relay_query(&query()),
            Err(RelayError::RelayDown(_))
        ));
        assert!(group.breaker_skips() >= 2, "open circuits must be skipped");
        assert!(group.breaker().trips() >= 2);
        assert!(group.degraded_queries() >= 1);
        // Degraded mode keeps serving once the members recover, even
        // while the circuits are still cooling down.
        group.relay(0).unwrap().set_down(false);
        assert!(group.relay_query(&query()).is_ok());
    }

    #[test]
    fn zero_deadline_fails_with_classified_error() {
        let config = GroupConfig {
            deadline: Some(Duration::ZERO),
            ..GroupConfig::default()
        };
        let (group, _stl) = setup_with(2, false, config);
        let err = group.relay_query(&query()).unwrap_err();
        assert!(matches!(err, RelayError::DeadlineExceeded(_)), "{err}");
        assert_eq!(group.deadline_failures(), 1);
    }

    #[test]
    fn explicit_deadline_overrides_config() {
        let (group, _stl) = setup(2, false);
        let err = group
            .relay_query_with_deadline(&query(), Some(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(err, RelayError::DeadlineExceeded(_)));
        // And an ample explicit deadline succeeds.
        let ok = group.relay_query_with_deadline(&query(), Some(Duration::from_secs(5)));
        assert!(ok.is_ok());
    }

    #[test]
    fn hedged_mode_serves_queries_and_fails_over() {
        let config = GroupConfig {
            hedge_after: Some(Duration::from_millis(5)),
            ..GroupConfig::default()
        };
        let (group, _stl) = setup_with(3, false, config);
        for _ in 0..5 {
            let response = group.relay_query(&query()).unwrap();
            assert_eq!(response.result, b"data");
        }
        group.relay(0).unwrap().set_down(true);
        group.relay(1).unwrap().set_down(true);
        for _ in 0..5 {
            assert!(group.relay_query(&query()).is_ok());
        }
        for i in 0..group.len() {
            group.relay(i).unwrap().set_down(true);
        }
        assert!(group.relay_query(&query()).is_err());
    }
}
