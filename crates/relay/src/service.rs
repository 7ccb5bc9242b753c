//! The relay service itself.
//!
//! One relay is deployed per network. It plays two roles in the paper's
//! message flow (Fig. 2):
//!
//! * **destination side** — [`RelayService::relay_query`] implements Steps
//!   1-3 and 9: take a client query, discover the remote relay, serialize
//!   and forward, return the response to the application.
//! * **source side** — the [`EnvelopeHandler`] impl implements Steps 4-8:
//!   deserialize the incoming request, pick the driver for the addressed
//!   network, orchestrate proof collection, and reply.

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::breaker::CircuitBreaker;
use crate::discovery::DiscoveryService;
use crate::driver::NetworkDriver;
use crate::error::RelayError;
use crate::events::{EventSink, EventSource};
use crate::ratelimit::RateLimiter;
use crate::stats::RelayStats;
use crate::transport::{EnvelopeHandler, PoolStats, RelayTransport};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use tdt_crypto::certcache::CertChainCache;
use tdt_obs::flight::{self, FlightKind};
use tdt_obs::span::{self as obs_span, RecordErr, Span};
use tdt_obs::Slo;
use tdt_wire::codec::Message;
use tdt_wire::messages::{
    AuthInfo, EnvelopeKind, EventNotice, EventSubscribeRequest, Query, QueryResponse, RelayEnvelope,
};

/// How long an envelope may spend queued + processing before the relay
/// answers with a deadline error instead.
pub const DEFAULT_REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Prefix of the error-envelope payload a relay sends when its admission
/// controller sheds a request. Clients match on it to map the reply to
/// the retryable [`RelayError::Overloaded`] instead of the terminal
/// [`RelayError::Remote`]; the prefix is part of the wire contract, so
/// peers running older code simply see a remote error string.
pub const OVERLOADED_PREFIX: &str = "overloaded: ";

/// The error an error envelope's payload stands for on the client side.
/// An admission shed is a liveness signal, not a remote fault: it maps to
/// the retryable error so callers (and relay groups) fail over instead of
/// giving up.
pub(crate) fn remote_error(payload: &[u8]) -> RelayError {
    let message = String::from_utf8_lossy(payload).into_owned();
    match message.strip_prefix(OVERLOADED_PREFIX) {
        Some(detail) => RelayError::Overloaded(detail.to_string()),
        None => RelayError::Remote(message),
    }
}

/// Bounded depth of each event-subscription delivery queue. A subscriber
/// that falls further behind than this loses notices (counted in
/// [`RelayStats::events_dropped`]) instead of blocking the source-side
/// push path.
pub const EVENT_QUEUE_CAPACITY: usize = 64;

/// One unit of work for the relay's worker pool.
struct Job {
    envelope: RelayEnvelope,
    deadline: Instant,
    reply: Sender<RelayEnvelope>,
}

struct WorkerPool {
    tx: Sender<Job>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// A relay service instance.
pub struct RelayService {
    id: String,
    local_network: String,
    discovery: Arc<dyn DiscoveryService>,
    transport: Arc<dyn RelayTransport>,
    drivers: RwLock<HashMap<String, Arc<dyn NetworkDriver>>>,
    event_sources: RwLock<HashMap<String, Arc<dyn EventSource>>>,
    subscriptions: RwLock<HashMap<String, Sender<EventNotice>>>,
    subscription_counter: AtomicU64,
    rate_limiter: Option<RateLimiter>,
    request_deadline: Duration,
    pool: RwLock<Option<WorkerPool>>,
    down: AtomicBool,
    breaker: Option<Arc<CircuitBreaker>>,
    admission: Option<Arc<AdmissionController>>,
    slo: Option<Arc<Slo>>,
    stats: RelayStats,
}

impl std::fmt::Debug for RelayService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelayService")
            .field("id", &self.id)
            .field("local_network", &self.local_network)
            .field("drivers", &self.drivers.read().keys().collect::<Vec<_>>())
            .field("down", &self.down.load(Ordering::Relaxed))
            .finish()
    }
}

impl RelayService {
    /// Creates a relay for `local_network`.
    pub fn new(
        id: impl Into<String>,
        local_network: impl Into<String>,
        discovery: Arc<dyn DiscoveryService>,
        transport: Arc<dyn RelayTransport>,
    ) -> Self {
        RelayService {
            id: id.into(),
            local_network: local_network.into(),
            discovery,
            transport,
            drivers: RwLock::new(HashMap::new()),
            event_sources: RwLock::new(HashMap::new()),
            subscriptions: RwLock::new(HashMap::new()),
            subscription_counter: AtomicU64::new(0),
            rate_limiter: None,
            request_deadline: DEFAULT_REQUEST_DEADLINE,
            pool: RwLock::new(None),
            down: AtomicBool::new(false),
            breaker: None,
            admission: None,
            slo: None,
            stats: RelayStats::default(),
        }
    }

    /// Installs a rate limiter (builder style).
    pub fn with_rate_limiter(mut self, limiter: RateLimiter) -> Self {
        self.rate_limiter = Some(limiter);
        self
    }

    /// Overrides the per-request deadline enforced by the worker pool
    /// (builder style). Inline processing is not subject to deadlines.
    pub fn with_request_deadline(mut self, deadline: Duration) -> Self {
        self.request_deadline = deadline;
        self
    }

    /// Consults `breaker` before forwarding to a remote relay endpoint
    /// and reports transport outcomes back to it (builder style). While
    /// an endpoint's circuit is open, [`RelayService::relay_query`] fails
    /// fast with [`RelayError::CircuitOpen`]. The breaker's counters are
    /// surfaced through [`RelayService::stats`].
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> Self {
        self.stats.breaker.set(Arc::clone(&breaker)).ok();
        self.breaker = Some(breaker);
        self
    }

    /// Installs deadline-aware admission control in front of the worker
    /// pool (builder style). Requests whose deadline budget cannot
    /// plausibly be met at the current queue depth are shed *before*
    /// queuing, with an error envelope that clients map to the retryable
    /// [`RelayError::Overloaded`]. Sheds and admits are surfaced through
    /// [`RelayService::stats`]. Inline handling (no worker pool) never
    /// queues, so the gate only engages once
    /// [`RelayService::start_workers`] has run.
    pub fn with_admission_control(mut self, config: AdmissionConfig) -> Self {
        let admission = Arc::new(AdmissionController::new(config));
        self.stats.admission.set(Arc::clone(&admission)).ok();
        self.admission = Some(admission);
        self
    }

    /// Attaches a service-level objective that every handled envelope is
    /// scored against (builder style): latency from dispatch to reply,
    /// availability from whether the reply is an error envelope. Breach
    /// detection (multi-window burn rate) runs inside the [`Slo`]; wire
    /// the same handle through [`tdt_obs::slo::register_slo`] to export
    /// its burn gauges.
    pub fn with_slo(mut self, slo: Arc<Slo>) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Attaches the certificate-chain cache shared with the CMDAC so its
    /// hit rate shows up in [`RelayService::stats`] (builder style).
    pub fn with_cert_cache(self, cache: Arc<CertChainCache>) -> Self {
        self.stats.cert_cache.set(cache).ok();
        self
    }

    /// Attaches the health counters of the pooled TCP transport carrying
    /// this relay's outbound traffic, so pool behaviour shows up in
    /// [`RelayService::stats`] (builder style). Obtain them from
    /// [`crate::transport::PooledTcpTransport::stats`].
    pub fn with_pool_stats(self, stats: Arc<PoolStats>) -> Self {
        self.stats.pool_stats.set(stats).ok();
        self
    }

    /// Switches envelope handling from inline (caller's thread) to a pool
    /// of `workers` threads fed through a crossbeam channel. Envelopes
    /// arriving from the in-process bus and from TCP connections then
    /// execute in parallel, each bounded by the request deadline. A pool
    /// of one worker serializes all handling (the bench baseline).
    ///
    /// Calling again replaces the running pool.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    pub fn start_workers(self: &Arc<Self>, workers: usize) {
        assert!(workers > 0, "worker pool needs at least one worker");
        self.stop_workers();
        let (tx, rx) = unbounded::<Job>();
        let handles = (0..workers)
            .map(|i| {
                let service = Arc::downgrade(self);
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("{}-worker-{i}", self.id))
                    .spawn(move || worker_loop(&service, &rx))
                    // lint:allow(panic: "local pool sizing at startup, not reachable from network input; a host that cannot spawn threads cannot run a relay")
                    .expect("spawn relay worker")
            })
            .collect();
        *self.pool.write() = Some(WorkerPool {
            tx,
            workers: handles,
        });
        if let Some(admission) = &self.admission {
            admission.set_workers(workers);
        }
    }

    /// Stops the worker pool (reverting to inline handling) and joins the
    /// worker threads. Must not be called from a worker thread.
    pub fn stop_workers(&self) {
        let pool = self.pool.write().take();
        if let Some(pool) = pool {
            drop(pool.tx);
            for handle in pool.workers {
                handle.join().ok();
            }
        }
    }

    /// The relay's identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Monitoring counters.
    pub fn stats(&self) -> &RelayStats {
        &self.stats
    }

    /// Registers the driver that executes queries against a local network.
    pub fn register_driver(&self, driver: Arc<dyn NetworkDriver>) {
        self.drivers
            .write()
            .insert(driver.network_id().to_string(), driver);
    }

    /// Registers the event feed for a local network.
    pub fn register_event_source(&self, source: Arc<dyn EventSource>) {
        self.event_sources
            .write()
            .insert(source.network_id().to_string(), source);
    }

    /// The endpoint other relays reach this relay at (in-process bus).
    pub fn inproc_endpoint(&self) -> String {
        format!("inproc:{}", self.id)
    }

    /// Destination role: subscribes to a remote network's block events.
    /// Every pushed [`EventNotice`] arrives on the returned receiver.
    ///
    /// # Errors
    ///
    /// * [`RelayError::RelayDown`] when this relay is down.
    /// * [`RelayError::DiscoveryFailed`] for unknown networks.
    /// * [`RelayError::Remote`] when the source refuses the subscription.
    pub fn subscribe_remote_events(
        &self,
        network_id: &str,
        auth: AuthInfo,
    ) -> Result<Receiver<EventNotice>, RelayError> {
        let (mut span, _obs_guard) = obs_span::enter("relay.subscribe");
        self.subscribe_remote_events_inner(network_id, auth)
            .record_err(&mut span)
    }

    fn subscribe_remote_events_inner(
        &self,
        network_id: &str,
        auth: AuthInfo,
    ) -> Result<Receiver<EventNotice>, RelayError> {
        if self.is_down() {
            return Err(RelayError::RelayDown(self.id.clone()));
        }
        let endpoint = self.discovery.lookup(network_id)?;
        let seq = self.subscription_counter.fetch_add(1, Ordering::Relaxed);
        let subscription_id = format!("{}-sub-{seq}", self.id);
        // Bounded: a slow subscriber loses notices (counted) instead of
        // growing an unbounded queue or blocking the pushing source.
        let (tx, rx) = bounded(EVENT_QUEUE_CAPACITY);
        self.subscriptions
            .write()
            .insert(subscription_id.clone(), tx);
        let request = EventSubscribeRequest {
            subscription_id: subscription_id.clone(),
            network_id: network_id.to_string(),
            reply_endpoint: self.inproc_endpoint(),
            auth,
        };
        let envelope = RelayEnvelope {
            kind: EnvelopeKind::EventSubscribe,
            source_relay: self.id.clone(),
            dest_network: network_id.to_string(),
            payload: request.encode_to_vec(),
            correlation_id: 0,
            trace: Default::default(),
            batch: Vec::new(),
        };
        let accepted =
            self.transport
                .send(&endpoint, &envelope)
                .and_then(|reply| match reply.kind {
                    EnvelopeKind::Ack => Ok(rx),
                    EnvelopeKind::Error => Err(RelayError::Remote(
                        String::from_utf8_lossy(&reply.payload).into_owned(),
                    )),
                    other => Err(RelayError::Remote(format!(
                        "unexpected subscription reply {other:?}"
                    ))),
                });
        if accepted.is_err() {
            self.subscriptions.write().remove(&subscription_id);
        }
        accepted
    }

    /// Cancels a local subscription (the source learns on its next push).
    pub fn unsubscribe(&self, subscription_id: &str) {
        self.subscriptions.write().remove(subscription_id);
    }

    /// Number of live local subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.read().len()
    }

    /// Simulates an outage (availability experiments).
    pub fn set_down(&self, down: bool) {
        // Release/Acquire so a requester that observes the flag flip also
        // observes any state the experiment mutated before flipping it.
        self.down.store(down, Ordering::Release);
    }

    /// True when the relay is simulating an outage.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// Destination role: forwards `query` to the source network's relay
    /// and returns its response (Fig. 2, Steps 1-3 and 9).
    ///
    /// # Errors
    ///
    /// * [`RelayError::RelayDown`] when this relay is down.
    /// * [`RelayError::RateLimited`] when the local limiter sheds the call.
    /// * [`RelayError::DiscoveryFailed`] when the remote network is unknown.
    /// * [`RelayError::CircuitOpen`] when the endpoint's breaker is open.
    /// * [`RelayError::TransportFailed`] when the remote relay is unreachable.
    /// * [`RelayError::Remote`] when the remote relay reports an error.
    pub fn relay_query(&self, query: &Query) -> Result<QueryResponse, RelayError> {
        let (mut span, _obs_guard) = obs_span::enter("relay.query");
        self.relay_query_inner(query, &mut span)
            .record_err(&mut span)
    }

    fn relay_query_inner(
        &self,
        query: &Query,
        span: &mut Span,
    ) -> Result<QueryResponse, RelayError> {
        if self.is_down() {
            return Err(RelayError::RelayDown(self.id.clone()));
        }
        if let Some(limiter) = &self.rate_limiter {
            if !limiter.try_acquire() {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                return Err(RelayError::RateLimited);
            }
        }
        let target_network = &query.address.network_id;
        // Step 2: discovery.
        let endpoint = self.discovery.lookup(target_network)?;
        // Step 3: serialize and forward. The transport hop gets its own
        // span; the envelope carries that span's context so the remote
        // relay parents its work under this hop.
        let send = || {
            let envelope = RelayEnvelope::query(self.id.clone(), target_network.clone(), query);
            let (mut send_span, _send_guard) = obs_span::enter("transport.send");
            let envelope = envelope.with_trace(crate::telemetry::current_trace_header());
            let sent = self.transport.send(&endpoint, &envelope);
            sent.record_err(&mut send_span)
        };
        let reply = match &self.breaker {
            Some(breaker) => breaker.guard(&endpoint, span, send),
            None => send(),
        }?;
        self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
        match reply.kind {
            EnvelopeKind::QueryResponse => Ok(QueryResponse::decode_from_slice(&reply.payload)?),
            EnvelopeKind::Error => Err(remote_error(&reply.payload)),
            other => Err(RelayError::Remote(format!(
                "unexpected reply envelope {other:?}"
            ))),
        }
    }

    /// Dispatches an incoming envelope: straight to [`Self::process_envelope`]
    /// when no pool is running, otherwise through the worker-pool channel
    /// with the request deadline enforced on the reply.
    fn dispatch(&self, envelope: RelayEnvelope, start: Instant) -> RelayEnvelope {
        let tx = self.pool.read().as_ref().map(|p| p.tx.clone());
        let Some(tx) = tx else {
            return self.process_envelope(envelope);
        };
        let dest_network = envelope.dest_network.clone();
        // Deadline-aware admission: shed *before* the queue when the
        // backlog makes meeting the deadline implausible. A shed costs
        // microseconds and is retryable; queuing it would cost the whole
        // deadline and a worker's time on a request nobody awaits.
        if let Some(admission) = &self.admission {
            let depth = self.stats.queue_depth.load(Ordering::Relaxed);
            let budget = self.request_deadline.saturating_sub(start.elapsed());
            if let Err(estimated) = admission.admit(depth, budget) {
                let remote = crate::telemetry::context_from_header(&envelope.trace);
                let (mut span, _obs_guard) = obs_span::enter_remote("relay.admission", &remote);
                span.event("admission.shed");
                flight::record(
                    FlightKind::Admission,
                    1,
                    depth,
                    budget.as_nanos().min(u128::from(u64::MAX)) as u64,
                );
                let message = format!(
                    "{OVERLOADED_PREFIX}queue depth {depth} implies ~{estimated:?} wait \
                     against a {budget:?} deadline budget"
                );
                span.fail(&message);
                return RelayEnvelope::error(self.id.clone(), dest_network, message);
            }
        }
        let (reply_tx, reply_rx) = bounded(1);
        self.stats.enqueued.fetch_add(1, Ordering::Relaxed);
        self.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            envelope,
            deadline: start + self.request_deadline,
            reply: reply_tx,
        };
        if tx.send(job).is_err() {
            // Pool shut down concurrently; the job was never queued.
            self.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
            return RelayEnvelope::error(
                self.id.clone(),
                dest_network,
                "relay worker pool unavailable".to_string(),
            );
        }
        match reply_rx.recv_timeout(self.request_deadline) {
            Ok(reply) => reply,
            Err(RecvTimeoutError::Timeout) => {
                self.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                flight::record(
                    FlightKind::Admission,
                    2,
                    self.stats.queue_depth.load(Ordering::Relaxed),
                    self.request_deadline.as_nanos().min(u128::from(u64::MAX)) as u64,
                );
                RelayEnvelope::error(
                    self.id.clone(),
                    dest_network,
                    format!("deadline of {:?} exceeded", self.request_deadline),
                )
            }
            Err(RecvTimeoutError::Disconnected) => RelayEnvelope::error(
                self.id.clone(),
                dest_network,
                "relay worker pool shut down mid-request".to_string(),
            ),
        }
    }

    /// Builds an error reply, recording the failure on the active span.
    fn error_reply(&self, span: &mut Span, dest_network: String, message: String) -> RelayEnvelope {
        span.fail(&message);
        RelayEnvelope::error(self.id.clone(), dest_network, message)
    }

    /// Source role: handles one incoming envelope (Fig. 2, Steps 4-8).
    ///
    /// Runs on a worker thread when the pool is active, so the trace
    /// context is re-installed here from the envelope's wire header
    /// rather than inherited from the dispatching thread.
    fn process_envelope(&self, envelope: RelayEnvelope) -> RelayEnvelope {
        tdt_obs::profile_scope!("relay.dispatch");
        let remote = crate::telemetry::context_from_header(&envelope.trace);
        let (mut span, _obs_guard) = obs_span::enter_remote("relay.handle", &remote);
        if self.is_down() {
            let message = format!("relay {} is down", self.id);
            return self.error_reply(&mut span, envelope.dest_network, message);
        }
        // Batched frames expand here, before the rate limiter, so each
        // sub-request pays for exactly one token on its own recursive
        // pass instead of the frame being double-charged.
        if envelope.is_batch() {
            span.event("batch.expand");
            return self.process_batch(envelope);
        }
        if let Some(limiter) = &self.rate_limiter {
            if !limiter.try_acquire() {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                return self.error_reply(
                    &mut span,
                    envelope.dest_network,
                    "rate limited".to_string(),
                );
            }
        }
        match envelope.kind {
            EnvelopeKind::Ping => RelayEnvelope::pong(self.id.clone(), envelope.dest_network),
            EnvelopeKind::QueryRequest => {
                // Step 4: deserialize, determine the target network.
                let query = match Query::decode_from_slice(&envelope.payload) {
                    Ok(q) => q,
                    Err(e) => {
                        let message = format!("malformed query: {e}");
                        return self.error_reply(&mut span, envelope.dest_network, message);
                    }
                };
                let network = &query.address.network_id;
                let driver = match self.drivers.read().get(network).cloned() {
                    Some(d) => d,
                    None => {
                        let message = format!("no driver for network {network:?}");
                        return self.error_reply(&mut span, envelope.dest_network, message);
                    }
                };
                // Steps 5-7: the driver orchestrates the query and proof
                // collection against the network's peers.
                self.stats.served.fetch_add(1, Ordering::Relaxed);
                let outcome = {
                    let (mut driver_span, _driver_guard) = obs_span::enter("driver.execute");
                    driver.execute_query(&query).record_err(&mut driver_span)
                };
                match outcome {
                    Ok(response) => {
                        RelayEnvelope::response(self.id.clone(), envelope.source_relay, &response)
                    }
                    Err(e) => self.error_reply(&mut span, envelope.dest_network, e.to_string()),
                }
            }
            // Source side: accept an event subscription and start the feed.
            EnvelopeKind::EventSubscribe => {
                let request = match EventSubscribeRequest::decode_from_slice(&envelope.payload) {
                    Ok(r) => r,
                    Err(e) => {
                        let message = format!("malformed subscription: {e}");
                        return self.error_reply(&mut span, envelope.dest_network, message);
                    }
                };
                let source = match self.event_sources.read().get(&request.network_id).cloned() {
                    Some(s) => s,
                    None => {
                        let message =
                            format!("no event source for network {:?}", request.network_id);
                        return self.error_reply(&mut span, envelope.dest_network, message);
                    }
                };
                // The sink pushes each notice back over the transport.
                let transport = Arc::clone(&self.transport);
                let reply_endpoint = request.reply_endpoint.clone();
                let relay_id = self.id.clone();
                let subscriber_network = request.auth.network_id.clone();
                let sink: EventSink = Box::new(move |notice| {
                    let push = RelayEnvelope {
                        kind: EnvelopeKind::Event,
                        source_relay: relay_id.clone(),
                        dest_network: subscriber_network.clone(),
                        payload: notice.encode_to_vec(),
                        correlation_id: 0,
                        trace: Default::default(),
                        batch: Vec::new(),
                    };
                    match transport.send(&reply_endpoint, &push) {
                        Ok(reply) if reply.kind == EnvelopeKind::Ack => Ok(()),
                        Ok(reply) => Err(RelayError::Remote(format!(
                            "subscriber replied {:?}",
                            reply.kind
                        ))),
                        Err(e) => Err(e),
                    }
                });
                match source.start(&request, sink) {
                    Ok(()) => RelayEnvelope::ack(self.id.clone(), envelope.dest_network),
                    Err(e) => self.error_reply(&mut span, envelope.dest_network, e.to_string()),
                }
            }
            // Destination side: route a pushed event to its subscriber.
            EnvelopeKind::Event => {
                let notice = match EventNotice::decode_from_slice(&envelope.payload) {
                    Ok(n) => n,
                    Err(e) => {
                        let message = format!("malformed event: {e}");
                        return self.error_reply(&mut span, envelope.dest_network, message);
                    }
                };
                let subscription_id = notice.subscription_id.clone();
                // Non-blocking delivery: a full queue drops the notice
                // (and counts it) instead of stalling the pushing source.
                enum Delivery {
                    Sent,
                    Full,
                    Gone,
                }
                let delivery = {
                    let subs = self.subscriptions.read();
                    match subs.get(&subscription_id) {
                        Some(tx) => match tx.try_send(notice) {
                            Ok(()) => Delivery::Sent,
                            Err(TrySendError::Full(_)) => Delivery::Full,
                            Err(TrySendError::Disconnected(_)) => Delivery::Gone,
                        },
                        None => Delivery::Gone,
                    }
                };
                match delivery {
                    Delivery::Sent => {
                        self.stats.events_delivered.fetch_add(1, Ordering::Relaxed);
                        RelayEnvelope::ack(self.id.clone(), envelope.dest_network)
                    }
                    Delivery::Full => {
                        // Lagging subscriber: the notice is lost, the
                        // subscription stays live, the source keeps going.
                        self.stats.events_dropped.fetch_add(1, Ordering::Relaxed);
                        span.event("event.dropped");
                        RelayEnvelope::ack(self.id.clone(), envelope.dest_network)
                    }
                    Delivery::Gone => {
                        // Subscriber gone: drop it and tell the source to stop.
                        self.subscriptions.write().remove(&subscription_id);
                        let message = format!("no live subscription {subscription_id:?}");
                        self.error_reply(&mut span, envelope.dest_network, message)
                    }
                }
            }
            other => {
                let message = format!("unsupported envelope kind {other:?}");
                self.error_reply(&mut span, envelope.dest_network, message)
            }
        }
    }

    /// Expands a batched frame: each item is a complete encoded
    /// [`RelayEnvelope`] handled through the normal single-envelope path,
    /// and each per-item reply envelope (success *or* error — items fail
    /// independently) is re-encoded into the reply batch at the same
    /// position. Correlation inside a batch is positional; the outer
    /// reply's `correlation_id` is stamped by the transport server as
    /// for any other frame.
    fn process_batch(&self, envelope: RelayEnvelope) -> RelayEnvelope {
        let mut replies = Vec::with_capacity(envelope.batch.len());
        for item in &envelope.batch {
            let reply = match RelayEnvelope::decode_from_slice(item) {
                // One level of batching only: a nested batch would let a
                // single frame amplify itself arbitrarily.
                Ok(sub) if sub.is_batch() => RelayEnvelope::error(
                    self.id.clone(),
                    envelope.dest_network.clone(),
                    "nested batch rejected".to_string(),
                ),
                Ok(sub) => self.process_envelope(sub),
                Err(e) => RelayEnvelope::error(
                    self.id.clone(),
                    envelope.dest_network.clone(),
                    format!("malformed batch item: {e}"),
                ),
            };
            replies.push(reply.encode_to_vec());
        }
        RelayEnvelope::response_batch(self.id.clone(), envelope.dest_network, replies)
    }

    /// Number of live subscriptions whose delivery queue is currently
    /// full — i.e. subscribers lagging far enough to be losing notices.
    pub fn lagging_subscriptions(&self) -> u64 {
        self.subscriptions
            .read()
            .values()
            .filter(|tx| tx.is_full())
            .count() as u64
    }
}

impl EnvelopeHandler for RelayService {
    fn handle(&self, envelope: RelayEnvelope) -> RelayEnvelope {
        let start = Instant::now();
        let reply = self.dispatch(envelope, start);
        let latency = start.elapsed();
        self.stats.record_latency(latency);
        if let Some(slo) = &self.slo {
            slo.record(latency, reply.kind != EnvelopeKind::Error);
        }
        reply
    }
}

/// Worker-pool thread body: drain jobs until the pool's sender side is
/// dropped or the relay itself is gone. Jobs whose deadline has already
/// passed while queued are answered with an error without being run.
fn worker_loop(service: &Weak<RelayService>, jobs: &Receiver<Job>) {
    while let Ok(job) = jobs.recv() {
        let Some(service) = service.upgrade() else {
            break;
        };
        service.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
        if Instant::now() >= job.deadline {
            // The caller counts the deadline in its own timeout path;
            // here we only avoid wasting work on an abandoned request.
            let reply = RelayEnvelope::error(
                service.id().to_string(),
                job.envelope.dest_network,
                "deadline exceeded while queued".to_string(),
            );
            job.reply.send(reply).ok();
            continue;
        }
        service.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let reply = service.process_envelope(job.envelope);
        if let Some(admission) = &service.admission {
            admission.observe_service_time(started.elapsed());
        }
        service.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        // The caller may have timed out and gone away; that's fine.
        job.reply.send(reply).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::StaticRegistry;
    use crate::driver::EchoDriver;
    use crate::transport::InProcessBus;
    use tdt_wire::messages::NetworkAddress;

    struct Fixture {
        swt_relay: Arc<RelayService>,
        stl_relay: Arc<RelayService>,
        registry: Arc<StaticRegistry>,
        bus: Arc<InProcessBus>,
    }

    fn fixture() -> Fixture {
        fixture_with_limit(None)
    }

    fn fixture_with_limit(limit: Option<RateLimiter>) -> Fixture {
        let registry = Arc::new(StaticRegistry::new());
        let bus = Arc::new(InProcessBus::new());
        registry.register("stl", "inproc:stl-relay");
        registry.register("swt", "inproc:swt-relay");
        let mut stl_relay = RelayService::new(
            "stl-relay",
            "stl",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
        );
        if let Some(limit) = limit {
            stl_relay = stl_relay.with_rate_limiter(limit);
        }
        let stl_relay = Arc::new(stl_relay);
        stl_relay.register_driver(Arc::new(EchoDriver::new("stl")));
        let swt_relay = Arc::new(RelayService::new(
            "swt-relay",
            "swt",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
        ));
        bus.register(
            "stl-relay",
            Arc::clone(&stl_relay) as Arc<dyn EnvelopeHandler>,
        );
        bus.register(
            "swt-relay",
            Arc::clone(&swt_relay) as Arc<dyn EnvelopeHandler>,
        );
        Fixture {
            swt_relay,
            stl_relay,
            registry,
            bus,
        }
    }

    fn bl_query() -> Query {
        Query {
            request_id: "req-1".into(),
            address: NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
                .with_arg(b"PO-1001".to_vec()),
            ..Default::default()
        }
    }

    #[test]
    fn cross_relay_query_roundtrip() {
        let f = fixture();
        let response = f.swt_relay.relay_query(&bl_query()).unwrap();
        assert_eq!(response.result, b"PO-1001");
        assert_eq!(response.request_id, "req-1");
        assert_eq!(f.swt_relay.stats().forwarded.load(Ordering::Relaxed), 1);
        assert_eq!(f.stl_relay.stats().served.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unknown_network_discovery_error() {
        let f = fixture();
        let mut query = bl_query();
        query.address.network_id = "mars".into();
        assert!(matches!(
            f.swt_relay.relay_query(&query),
            Err(RelayError::DiscoveryFailed(_))
        ));
    }

    #[test]
    fn remote_relay_without_driver_reports_error() {
        let f = fixture();
        // Point "stl" at the SWT relay, which has no driver for stl.
        f.registry.register("stl", "inproc:swt-relay");
        assert!(matches!(
            f.swt_relay.relay_query(&bl_query()),
            Err(RelayError::Remote(m)) if m.contains("no driver")
        ));
    }

    #[test]
    fn downed_local_relay_rejects() {
        let f = fixture();
        f.swt_relay.set_down(true);
        assert!(matches!(
            f.swt_relay.relay_query(&bl_query()),
            Err(RelayError::RelayDown(_))
        ));
        f.swt_relay.set_down(false);
        assert!(f.swt_relay.relay_query(&bl_query()).is_ok());
    }

    #[test]
    fn downed_remote_relay_reports_error() {
        let f = fixture();
        f.stl_relay.set_down(true);
        assert!(matches!(
            f.swt_relay.relay_query(&bl_query()),
            Err(RelayError::Remote(m)) if m.contains("down")
        ));
    }

    #[test]
    fn unreachable_remote_relay_transport_error() {
        let f = fixture();
        f.bus.deregister("stl-relay");
        assert!(matches!(
            f.swt_relay.relay_query(&bl_query()),
            Err(RelayError::TransportFailed(_))
        ));
    }

    #[test]
    fn source_rate_limiting_sheds() {
        let f = fixture_with_limit(Some(RateLimiter::new(2, 0.0)));
        assert!(f.swt_relay.relay_query(&bl_query()).is_ok());
        assert!(f.swt_relay.relay_query(&bl_query()).is_ok());
        let err = f.swt_relay.relay_query(&bl_query()).unwrap_err();
        assert!(matches!(err, RelayError::Remote(m) if m.contains("rate limited")));
        assert_eq!(f.stl_relay.stats().shed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn ping_pong() {
        let f = fixture();
        let ping = RelayEnvelope {
            kind: EnvelopeKind::Ping,
            source_relay: "tester".into(),
            dest_network: "stl".into(),
            payload: Vec::new(),
            correlation_id: 0,
            trace: Default::default(),
            batch: Vec::new(),
        };
        let pong = f.stl_relay.handle(ping);
        assert_eq!(pong.kind, EnvelopeKind::Pong);
        assert_eq!(pong.source_relay, "stl-relay");
    }

    #[test]
    fn malformed_query_payload_reports_error() {
        let f = fixture();
        let bad = RelayEnvelope {
            kind: EnvelopeKind::QueryRequest,
            source_relay: "t".into(),
            dest_network: "stl".into(),
            payload: vec![0xff, 0xff, 0xff],
            correlation_id: 0,
            trace: Default::default(),
            batch: Vec::new(),
        };
        let reply = f.stl_relay.handle(bad);
        assert_eq!(reply.kind, EnvelopeKind::Error);
    }

    #[test]
    fn pooled_relay_serves_queries() {
        let f = fixture();
        f.stl_relay.start_workers(4);
        for i in 0..8 {
            let mut query = bl_query();
            query.request_id = format!("req-{i}");
            let response = f.swt_relay.relay_query(&query).unwrap();
            assert_eq!(response.request_id, format!("req-{i}"));
        }
        let pooled = f.stl_relay.stats().snapshot();
        assert_eq!(pooled.served, 8);
        assert_eq!(pooled.enqueued, 8);
        assert_eq!(pooled.handled, 8);
        assert_eq!(pooled.queue_depth, 0);
        assert_eq!(pooled.in_flight, 0);
        f.stl_relay.stop_workers();
        // Back to inline handling: served, but not through the queue.
        assert!(f.swt_relay.relay_query(&bl_query()).is_ok());
        let inline = f.stl_relay.stats().snapshot();
        assert_eq!(inline.served, 9);
        assert_eq!(inline.enqueued, 8);
    }

    #[test]
    fn pooled_relay_parallel_callers() {
        let f = fixture();
        f.stl_relay.start_workers(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let swt_relay = Arc::clone(&f.swt_relay);
                scope.spawn(move || {
                    for i in 0..4 {
                        let mut query = bl_query();
                        query.request_id = format!("req-{t}-{i}");
                        assert!(swt_relay.relay_query(&query).is_ok());
                    }
                });
            }
        });
        assert_eq!(f.stl_relay.stats().served.load(Ordering::Relaxed), 16);
        assert_eq!(f.stl_relay.stats().enqueued.load(Ordering::Relaxed), 16);
        f.stl_relay.stop_workers();
    }

    #[test]
    fn slow_handler_hits_deadline() {
        /// A driver that sleeps longer than the relay's deadline.
        #[derive(Debug)]
        struct SlowDriver;
        impl crate::driver::NetworkDriver for SlowDriver {
            fn network_id(&self) -> &str {
                "stl"
            }
            fn execute_query(
                &self,
                query: &Query,
            ) -> Result<tdt_wire::messages::QueryResponse, RelayError> {
                std::thread::sleep(std::time::Duration::from_millis(100));
                Ok(tdt_wire::messages::QueryResponse {
                    request_id: query.request_id.clone(),
                    ..Default::default()
                })
            }
        }
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
            .with_request_deadline(std::time::Duration::from_millis(10)),
        );
        stl_relay.register_driver(Arc::new(SlowDriver));
        bus.register(
            "stl-relay",
            Arc::clone(&stl_relay) as Arc<dyn EnvelopeHandler>,
        );
        stl_relay.start_workers(1);
        let swt_relay = Arc::new(RelayService::new(
            "swt-relay",
            "swt",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
        ));
        let err = swt_relay.relay_query(&bl_query()).unwrap_err();
        assert!(
            matches!(&err, RelayError::Remote(m) if m.contains("deadline")),
            "expected deadline error, got {err:?}"
        );
        assert_eq!(
            stl_relay.stats().deadline_exceeded.load(Ordering::Relaxed),
            1
        );
        stl_relay.stop_workers();
    }

    #[test]
    fn latency_histogram_counts_inline_handling() {
        let f = fixture();
        assert_eq!(f.stl_relay.stats().snapshot().handled, 0);
        f.swt_relay.relay_query(&bl_query()).unwrap();
        let snapshot = f.stl_relay.stats().snapshot();
        assert_eq!(snapshot.handled, 1);
        assert!(snapshot.latency_max_nanos > 0);
        assert_eq!(snapshot.latency_sum_nanos, snapshot.latency_max_nanos);
    }

    #[test]
    fn cert_cache_counters_surface_in_stats() {
        use tdt_crypto::certcache::CertChainCache;
        let registry = Arc::new(StaticRegistry::new());
        let bus = Arc::new(InProcessBus::new());
        let cache = Arc::new(CertChainCache::new());
        let relay = RelayService::new(
            "r",
            "stl",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
        )
        .with_cert_cache(Arc::clone(&cache));
        assert_eq!(relay.stats().snapshot().cache_misses, 0);
        // Simulate the co-located CMDAC doing cached validations.
        use tdt_crypto::cert::{CertRole, CertificateAuthority};
        use tdt_crypto::group::Group;
        use tdt_crypto::schnorr::SigningKey;
        let mut authority =
            CertificateAuthority::new("stl", "seller-org", Group::test_group(), b"s");
        let key = SigningKey::from_seed(Group::test_group(), b"peer0");
        let cert = authority.issue("peer0", CertRole::Peer, &key.verifying_key(), None);
        let root = authority.root_certificate().clone();
        for _ in 0..4 {
            cache.verify_chain(&cert, &root).unwrap();
        }
        let snapshot = relay.stats().snapshot();
        assert_eq!(snapshot.cache_hits, 3);
        assert_eq!(snapshot.cache_misses, 1);
    }

    #[test]
    fn pool_stats_surface_in_relay_stats() {
        use crate::transport::{PooledTcpTransport, TcpRelayServer};
        let registry = Arc::new(StaticRegistry::new());
        let bus = Arc::new(InProcessBus::new());
        let stl_relay = Arc::new(RelayService::new(
            "stl-relay",
            "stl",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
        ));
        stl_relay.register_driver(Arc::new(EchoDriver::new("stl")));
        let server = TcpRelayServer::spawn(
            "127.0.0.1:0",
            Arc::clone(&stl_relay) as Arc<dyn EnvelopeHandler>,
        )
        .unwrap();
        registry.register("stl", server.endpoint());
        let transport = Arc::new(PooledTcpTransport::new());
        let relay = RelayService::new(
            "swt-relay",
            "swt",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&transport) as Arc<dyn RelayTransport>,
        )
        .with_pool_stats(transport.stats());
        assert_eq!(relay.stats().snapshot().pool_connections_open, 0);
        for _ in 0..3 {
            relay.relay_query(&bl_query()).unwrap();
        }
        let snapshot = relay.stats().snapshot();
        assert_eq!(snapshot.pool_connections_dialed, 1);
        assert_eq!(snapshot.pool_connections_reused, 2);
        assert_eq!(snapshot.pool_connections_open, 1);
        assert_eq!(snapshot.pool_requests_in_flight, 0);
        assert_eq!(snapshot.pool_orphaned_replies, 0);
    }

    #[test]
    fn breaker_trips_on_unreachable_endpoint_and_surfaces_in_stats() {
        use crate::breaker::{BreakerConfig, BreakerState};
        let registry = Arc::new(StaticRegistry::new());
        let bus = Arc::new(InProcessBus::new());
        // "stl" resolves, but nothing is registered on the bus, so every
        // forward dies in the transport.
        registry.register("stl", "inproc:stl-relay");
        let breaker = Arc::new(crate::breaker::CircuitBreaker::new(BreakerConfig {
            consecutive_failures: 3,
            cooldown: Duration::from_secs(60),
            ..BreakerConfig::default()
        }));
        let relay = RelayService::new(
            "swt-relay",
            "swt",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
        )
        .with_breaker(Arc::clone(&breaker));
        for _ in 0..3 {
            assert!(matches!(
                relay.relay_query(&bl_query()),
                Err(RelayError::TransportFailed(_))
            ));
        }
        assert_eq!(breaker.state("inproc:stl-relay"), BreakerState::Open);
        // The next query is rejected locally, before the transport.
        assert!(matches!(
            relay.relay_query(&bl_query()),
            Err(RelayError::CircuitOpen(_))
        ));
        let snapshot = relay.stats().snapshot();
        assert_eq!(snapshot.breaker_trips, 1);
        assert_eq!(snapshot.breaker_open_endpoints, 1);
        assert_eq!(snapshot.breaker_fast_rejects, 1);
        let mut merged = snapshot.clone();
        merged.merge(&snapshot);
        assert_eq!(merged.breaker_trips, 2);
    }

    #[test]
    fn snapshot_and_merge_aggregate_counters() {
        let f = fixture();
        f.swt_relay.relay_query(&bl_query()).unwrap();
        let source = f.stl_relay.stats().snapshot();
        let dest = f.swt_relay.stats().snapshot();
        assert_eq!(source.served, 1);
        assert_eq!(dest.forwarded, 1);
        let mut group = source.clone();
        group.merge(&dest);
        assert_eq!(group.served, 1);
        assert_eq!(group.forwarded, 1);
        assert_eq!(group.handled, source.handled + dest.handled);
    }

    #[test]
    fn unsupported_envelope_kind() {
        let f = fixture();
        let odd = RelayEnvelope {
            kind: EnvelopeKind::QueryResponse,
            source_relay: "t".into(),
            dest_network: "stl".into(),
            payload: Vec::new(),
            correlation_id: 0,
            trace: Default::default(),
            batch: Vec::new(),
        };
        let reply = f.stl_relay.handle(odd);
        assert_eq!(reply.kind, EnvelopeKind::Error);
    }
}
