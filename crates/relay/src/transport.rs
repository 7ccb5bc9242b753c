//! Relay-to-relay transports.
//!
//! Two interchangeable transports carry [`RelayEnvelope`]s between
//! relays: an in-process bus (deterministic, used by tests and benches)
//! and a pooled TCP transport that keeps long-lived connections per
//! endpoint and multiplexes many in-flight length-prefixed frames over
//! each of them, correlating replies by the envelope's `correlation_id`.
//! Endpoint strings select the target: `inproc:<relay-id>` or
//! `tcp:<host>:<port>`.
//!
//! [`TcpRelayServer`] dispatches frames onto a bounded pool of dispatcher
//! threads, so several requests from one connection complete concurrently
//! and out of order, with each reply stamped with its request's
//! correlation id. A peer that never sets a correlation id (one request
//! per connection in flight) gets its replies unstamped, byte-identical to
//! the pre-multiplexing framing.

use crate::error::RelayError;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tdt_obs::ObsHandle;
use tdt_wire::codec::Message;
use tdt_wire::framing::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use tdt_wire::messages::RelayEnvelope;

/// Something that can answer relay envelopes (a relay service).
pub trait EnvelopeHandler: Send + Sync {
    /// Handles one request envelope, returning the response envelope.
    fn handle(&self, envelope: RelayEnvelope) -> RelayEnvelope;
}

/// Request/response transport between relays.
pub trait RelayTransport: Send + Sync {
    /// Sends `envelope` to `endpoint` and waits for the reply.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::TransportFailed`] when the endpoint is
    /// unreachable or the exchange fails, or
    /// [`RelayError::StaleConnection`] when a pooled connection died with
    /// the request in flight (retryable: the next attempt dials fresh).
    fn send(&self, endpoint: &str, envelope: &RelayEnvelope) -> Result<RelayEnvelope, RelayError>;
}

/// In-process bus: endpoints are handler registrations in a shared map.
#[derive(Default)]
pub struct InProcessBus {
    handlers: RwLock<HashMap<String, Arc<dyn EnvelopeHandler>>>,
}

impl std::fmt::Debug for InProcessBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcessBus")
            .field("endpoints", &self.handlers.read().len())
            .finish()
    }
}

impl InProcessBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `handler` under `relay_id` (endpoint `inproc:<relay_id>`).
    pub fn register(&self, relay_id: impl Into<String>, handler: Arc<dyn EnvelopeHandler>) {
        self.handlers.write().insert(relay_id.into(), handler);
    }

    /// Removes a registration (simulates a relay going offline).
    pub fn deregister(&self, relay_id: &str) {
        self.handlers.write().remove(relay_id);
    }
}

impl RelayTransport for InProcessBus {
    fn send(&self, endpoint: &str, envelope: &RelayEnvelope) -> Result<RelayEnvelope, RelayError> {
        let relay_id = endpoint.strip_prefix("inproc:").ok_or_else(|| {
            RelayError::TransportFailed(format!(
                "in-process bus cannot serve endpoint {endpoint:?}"
            ))
        })?;
        let handler = self.handlers.read().get(relay_id).cloned().ok_or_else(|| {
            RelayError::TransportFailed(format!("no relay registered at {endpoint:?}"))
        })?;
        Ok(handler.handle(envelope.clone()))
    }
}

// ---------------------------------------------------------------------------
// Pooled, multiplexed TCP transport
// ---------------------------------------------------------------------------

/// Health counters for a [`PooledTcpTransport`], shareable with
/// [`crate::stats::RelayStats`] so pool behaviour shows up in relay
/// monitoring.
#[derive(Debug, Default)]
pub struct PoolStats {
    dialed: AtomicU64,
    reused: AtomicU64,
    open: AtomicU64,
    in_flight: AtomicU64,
    orphaned: AtomicU64,
    culled: AtomicU64,
}

impl PoolStats {
    /// Connections dialed over the pool's lifetime.
    pub fn connections_dialed(&self) -> u64 {
        self.dialed.load(Ordering::Relaxed)
    }

    /// Requests served by an already-open connection.
    pub fn connections_reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    pub fn connections_open(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Requests currently awaiting a reply, across all connections.
    pub fn requests_in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Replies that arrived with an unknown correlation id and were
    /// dropped (fail closed): the waiter timed out first, or the peer is
    /// confused.
    pub fn orphaned_replies(&self) -> u64 {
        self.orphaned.load(Ordering::Relaxed)
    }

    /// Connections pruned as dead at checkout time (their reader thread
    /// had already failed the in-flight waiters over to
    /// [`crate::error::RelayError::StaleConnection`]).
    pub fn connections_culled(&self) -> u64 {
        self.culled.load(Ordering::Relaxed)
    }
}

/// Routes multiplexed reply envelopes to the callers awaiting them, by
/// correlation id.
///
/// The router fails closed: a reply whose correlation id matches no
/// registered waiter is *not* delivered anywhere — [`Self::complete`]
/// errors and the caller drops the frame. Duplicate registrations are
/// refused for the same reason.
#[derive(Default)]
pub struct CorrelationRouter {
    pending: Mutex<HashMap<u64, Sender<RelayEnvelope>>>,
    closed: AtomicBool,
}

impl std::fmt::Debug for CorrelationRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorrelationRouter")
            .field("pending", &self.pending.lock().len())
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl CorrelationRouter {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a waiter for `correlation_id`; its reply arrives on the
    /// returned receiver.
    ///
    /// # Errors
    ///
    /// * [`RelayError::StaleConnection`] when the router is closed.
    /// * [`RelayError::TransportFailed`] when the id is already in flight.
    pub fn register(&self, correlation_id: u64) -> Result<Receiver<RelayEnvelope>, RelayError> {
        // lint:allow(obs: "correlation bookkeeping; the transport send span records")
        let mut pending = self.pending.lock();
        if self.closed.load(Ordering::Acquire) {
            return Err(RelayError::StaleConnection(
                "connection already closed".into(),
            ));
        }
        if pending.contains_key(&correlation_id) {
            return Err(RelayError::TransportFailed(format!(
                "correlation id {correlation_id} already in flight"
            )));
        }
        let (tx, rx) = bounded(1);
        pending.insert(correlation_id, tx);
        Ok(rx)
    }

    /// Withdraws a waiter (after its reply arrived, or it gave up).
    pub fn deregister(&self, correlation_id: u64) {
        self.pending.lock().remove(&correlation_id);
    }

    /// Routes `reply` to the waiter registered under `correlation_id`.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::TransportFailed`] when no waiter is
    /// registered under that id; the reply is not delivered to anyone.
    pub fn complete(&self, correlation_id: u64, reply: RelayEnvelope) -> Result<(), RelayError> {
        // lint:allow(obs: "correlation bookkeeping; the transport send span records")
        let tx = self.pending.lock().remove(&correlation_id).ok_or_else(|| {
            RelayError::TransportFailed(format!(
                "no request awaiting correlation id {correlation_id}"
            ))
        })?;
        // The waiter may have timed out between lookup and send; fine.
        tx.send(reply).ok();
        Ok(())
    }

    /// Closes the router: every waiter observes a disconnect immediately
    /// and later registrations fail.
    pub fn fail_all(&self) {
        let mut pending = self.pending.lock();
        self.closed.store(true, Ordering::Release);
        // Dropping the senders wakes every waiting receiver.
        pending.clear();
    }

    /// Number of requests currently awaiting replies.
    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }
}

/// One long-lived connection plus its demultiplexing state.
struct PooledConn {
    /// The original stream, kept to force-close the connection.
    stream: TcpStream,
    /// Write half used by senders (a `try_clone` of `stream`).
    writer: Mutex<TcpStream>,
    router: Arc<CorrelationRouter>,
    dead: Arc<AtomicBool>,
    in_flight: AtomicU64,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Drop for PooledConn {
    fn drop(&mut self) {
        self.stream.shutdown(Shutdown::Both).ok();
        if let Some(handle) = self.reader.lock().take() {
            handle.join().ok();
        }
    }
}

/// TCP transport with persistent connections and frame multiplexing: each
/// endpoint gets a small set of long-lived streams, every outbound frame
/// carries a fresh correlation id, and a per-connection reader thread
/// routes replies to the callers awaiting them — so many requests share
/// one connection in flight instead of paying a TCP handshake each.
///
/// Requires a correlation-aware server ([`TcpRelayServer`]); a peer that
/// does not echo correlation ids will only produce orphaned replies.
/// Dead connections surface as [`RelayError::StaleConnection`] (retryable
/// — see [`crate::retry::RetryPolicy::is_retryable`]) and are replaced by
/// a fresh dial on the next request.
pub struct PooledTcpTransport {
    max_frame: usize,
    timeout: Duration,
    max_conns_per_endpoint: usize,
    next_correlation: AtomicU64,
    endpoints: RwLock<HashMap<String, Vec<Arc<PooledConn>>>>,
    stats: Arc<PoolStats>,
}

impl std::fmt::Debug for PooledTcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledTcpTransport")
            .field("timeout", &self.timeout)
            .field("max_conns_per_endpoint", &self.max_conns_per_endpoint)
            .field("endpoints", &self.endpoints.read().len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for PooledTcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl PooledTcpTransport {
    /// Creates a pool with one connection per endpoint, the default frame
    /// cap, and a 5 s reply timeout.
    pub fn new() -> Self {
        PooledTcpTransport {
            max_frame: DEFAULT_MAX_FRAME,
            timeout: Duration::from_secs(5),
            max_conns_per_endpoint: 1,
            next_correlation: AtomicU64::new(1),
            endpoints: RwLock::new(HashMap::new()),
            stats: Arc::new(PoolStats::default()),
        }
    }

    /// Overrides the per-request reply timeout (builder style).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Overrides how many connections the pool keeps per endpoint
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `conns` is zero.
    pub fn with_connections_per_endpoint(mut self, conns: usize) -> Self {
        assert!(conns > 0, "pool needs at least one connection per endpoint");
        self.max_conns_per_endpoint = conns;
        self
    }

    /// The pool's health counters, shareable with
    /// [`crate::service::RelayService::with_pool_stats`].
    pub fn stats(&self) -> Arc<PoolStats> {
        Arc::clone(&self.stats)
    }

    /// Returns a live connection for `addr`, reusing the least-loaded
    /// open one or dialing when below the per-endpoint cap.
    fn checkout(&self, addr: &str) -> Result<Arc<PooledConn>, RelayError> {
        let least_loaded = |conns: &[Arc<PooledConn>]| {
            conns
                .iter()
                .filter(|c| !c.dead.load(Ordering::Acquire))
                .min_by_key(|c| c.in_flight.load(Ordering::Relaxed))
                .cloned()
        };
        {
            let endpoints = self.endpoints.read();
            if let Some(conns) = endpoints.get(addr) {
                let live = conns
                    .iter()
                    .filter(|c| !c.dead.load(Ordering::Acquire))
                    .count();
                if live >= self.max_conns_per_endpoint {
                    if let Some(conn) = least_loaded(conns) {
                        self.stats.reused.fetch_add(1, Ordering::Relaxed);
                        return Ok(conn);
                    }
                }
            }
        }
        let mut endpoints = self.endpoints.write();
        let conns = endpoints.entry(addr.to_string()).or_default();
        // Prune connections whose reader died; their waiters were already
        // failed over to StaleConnection.
        let prune = |conns: &mut Vec<Arc<PooledConn>>| {
            let before = conns.len();
            conns.retain(|c| !c.dead.load(Ordering::Acquire));
            let culled = (before - conns.len()) as u64;
            self.stats.culled.fetch_add(culled, Ordering::Relaxed);
        };
        prune(conns);
        if conns.len() >= self.max_conns_per_endpoint {
            if let Some(conn) = least_loaded(conns) {
                self.stats.reused.fetch_add(1, Ordering::Relaxed);
                return Ok(conn);
            }
            // Every surviving connection was marked dead by its reader
            // between the prune above and the load scan: drop them all
            // and fall through to a fresh dial instead of panicking.
            prune(conns);
        }
        let conn = self.dial(addr)?;
        conns.push(Arc::clone(&conn));
        Ok(conn)
    }

    /// Dials `addr` and starts the connection's reply-demultiplexing
    /// reader thread.
    fn dial(&self, addr: &str) -> Result<Arc<PooledConn>, RelayError> {
        let fail = |what: &str, e: std::io::Error| {
            RelayError::TransportFailed(format!("{what} {addr}: {e}"))
        };
        let stream = TcpStream::connect(addr).map_err(|e| fail("connect", e))?;
        stream.set_nodelay(true).ok();
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(|e| fail("set write timeout on", e))?;
        let writer = stream.try_clone().map_err(|e| fail("clone stream to", e))?;
        let mut reader_stream = stream.try_clone().map_err(|e| fail("clone stream to", e))?;
        let router = Arc::new(CorrelationRouter::new());
        let dead = Arc::new(AtomicBool::new(false));
        self.stats.dialed.fetch_add(1, Ordering::Relaxed);
        self.stats.open.fetch_add(1, Ordering::Relaxed);
        let spawned = {
            let router = Arc::clone(&router);
            let dead = Arc::clone(&dead);
            let stats = Arc::clone(&self.stats);
            let max_frame = self.max_frame;
            std::thread::Builder::new()
                .name(format!("pooled-tcp-reader-{addr}"))
                .spawn(move || {
                    while let Ok(frame) = read_frame(&mut reader_stream, max_frame) {
                        match RelayEnvelope::decode_from_slice(&frame) {
                            Ok(reply) => {
                                if router.complete(reply.correlation_id, reply).is_err() {
                                    // Unknown correlation id: fail closed.
                                    // Never guess a recipient.
                                    stats.orphaned.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            // Undecodable envelope inside a well-formed
                            // frame: the peer is confused, kill the stream.
                            Err(_) => break,
                        }
                    }
                    dead.store(true, Ordering::Release);
                    stats.open.fetch_sub(1, Ordering::Relaxed);
                    router.fail_all();
                })
        };
        let reader = match spawned {
            Ok(handle) => handle,
            Err(e) => {
                // Roll back the open-connection gauge the reader thread
                // would have decremented on exit.
                self.stats.open.fetch_sub(1, Ordering::Relaxed);
                return Err(fail("spawn reader thread for", e));
            }
        };
        Ok(Arc::new(PooledConn {
            stream,
            writer: Mutex::new(writer),
            router,
            dead,
            in_flight: AtomicU64::new(0),
            reader: Mutex::new(Some(reader)),
        }))
    }

    fn exchange(
        &self,
        conn: &PooledConn,
        addr: &str,
        envelope: &RelayEnvelope,
        correlation_id: u64,
        reply_rx: &Receiver<RelayEnvelope>,
    ) -> Result<RelayEnvelope, RelayError> {
        let tagged = envelope.clone().with_correlation_id(correlation_id);
        {
            let mut writer = conn.writer.lock();
            if let Err(e) = write_frame(&mut *writer, &tagged.encode_to_vec(), self.max_frame) {
                // Close the stream so the reader exits, marks the
                // connection dead, and wakes the other waiters too.
                conn.stream.shutdown(Shutdown::Both).ok();
                return Err(RelayError::StaleConnection(format!("write to {addr}: {e}")));
            }
        }
        match reply_rx.recv_timeout(self.timeout) {
            Ok(reply) => Ok(reply),
            Err(RecvTimeoutError::Timeout) => Err(RelayError::TransportFailed(format!(
                "no reply from {addr} within {:?}",
                self.timeout
            ))),
            Err(RecvTimeoutError::Disconnected) => Err(RelayError::StaleConnection(format!(
                "connection to {addr} closed while awaiting reply"
            ))),
        }
    }
}

impl RelayTransport for PooledTcpTransport {
    fn send(&self, endpoint: &str, envelope: &RelayEnvelope) -> Result<RelayEnvelope, RelayError> {
        let addr = endpoint.strip_prefix("tcp:").ok_or_else(|| {
            RelayError::TransportFailed(format!(
                "pooled tcp transport cannot serve endpoint {endpoint:?}"
            ))
        })?;
        let conn = self.checkout(addr)?;
        let correlation_id = self.next_correlation.fetch_add(1, Ordering::Relaxed);
        let reply_rx = conn.router.register(correlation_id)?;
        conn.in_flight.fetch_add(1, Ordering::Relaxed);
        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let result = self.exchange(&conn, addr, envelope, correlation_id, &reply_rx);
        conn.router.deregister(correlation_id);
        conn.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        result
    }
}

// ---------------------------------------------------------------------------
// TCP server
// ---------------------------------------------------------------------------

/// Tuning knobs for [`TcpRelayServer`].
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// Maximum simultaneously connected clients; connections beyond this
    /// are accepted and immediately closed (counted as refused).
    pub max_connections: usize,
    /// Dispatcher threads feeding decoded frames to the handler, which
    /// bounds how many requests are processed concurrently across all
    /// connections.
    pub dispatchers: usize,
    /// Maximum accepted frame size.
    pub max_frame: usize,
    /// When set, the server also binds a loopback admin listener serving
    /// this handle's unified metrics: Prometheus text at `GET /metrics`,
    /// a JSON snapshot at `GET /metrics.json`, liveness at `GET /healthz`,
    /// readiness at `GET /readyz`, a flight-recorder dump at
    /// `GET /debug/flightrec`, and an on-demand folded-stack profile at
    /// `GET /debug/profile?seconds=N&hz=M`. See
    /// [`TcpRelayServer::admin_endpoint`].
    pub obs: Option<Arc<ObsHandle>>,
    /// Readiness state consulted by `GET /readyz`. When unset the server
    /// reports ready unconditionally (liveness still comes from
    /// `/healthz`).
    pub readiness: Option<Arc<Readiness>>,
}

impl Default for TcpServerConfig {
    fn default() -> Self {
        TcpServerConfig {
            max_connections: 256,
            dispatchers: std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .max(4),
            max_frame: DEFAULT_MAX_FRAME,
            obs: None,
            readiness: None,
        }
    }
}

/// Readiness state behind the admin endpoint's `GET /readyz`: the relay
/// is ready once ledger recovery has completed and while no circuit is
/// open. Share one instance between the recovery path (which calls
/// [`Readiness::set_recovered`]) and the server config.
#[derive(Debug, Default)]
pub struct Readiness {
    recovered: AtomicBool,
    breaker: Mutex<Option<Arc<crate::breaker::CircuitBreaker>>>,
}

impl Readiness {
    /// A gate that is not yet recovered and watches no breaker.
    pub fn new() -> Readiness {
        Readiness::default()
    }

    /// A gate for a relay with no durable ledger: recovery is vacuously
    /// complete.
    pub fn recovered() -> Readiness {
        let r = Readiness::default();
        r.set_recovered(true);
        r
    }

    /// Marks ledger recovery complete (or, with `false`, in progress).
    pub fn set_recovered(&self, done: bool) {
        self.recovered.store(done, Ordering::Release);
    }

    /// Attaches the circuit breaker whose open circuits gate readiness.
    pub fn watch_breaker(&self, breaker: Arc<crate::breaker::CircuitBreaker>) {
        *self.breaker.lock() = Some(breaker);
    }

    /// `Ok` when ready; `Err` carries the human-readable reason served
    /// with the 503.
    pub fn check(&self) -> Result<(), String> {
        if !self.recovered.load(Ordering::Acquire) {
            return Err("ledger recovery incomplete".into());
        }
        if let Some(breaker) = self.breaker.lock().as_ref() {
            let open = breaker.open_endpoints();
            if open > 0 {
                return Err(format!("{open} circuit(s) open or half-open"));
            }
        }
        Ok(())
    }
}

/// A live server-side connection: the stream (kept to force-close it) and
/// its reader thread.
struct ServerConn {
    stream: TcpStream,
    reader: Option<std::thread::JoinHandle<()>>,
}

/// Bounded registry of live connections, so shutdown can close and join
/// every handler instead of leaking detached threads.
#[derive(Default)]
struct ConnectionRegistry {
    conns: Mutex<HashMap<u64, ServerConn>>,
    next_id: AtomicU64,
    refused: AtomicU64,
}

/// One decoded request frame on its way to the handler.
struct ServerJob {
    envelope: RelayEnvelope,
    writer: Arc<Mutex<TcpStream>>,
    max_frame: usize,
}

/// A TCP server front-end for a relay: accepts framed envelopes and feeds
/// them to an [`EnvelopeHandler`] through a bounded dispatcher pool, so
/// requests multiplexed on one connection are answered concurrently and
/// out of order. Live connections are tracked in a bounded registry that
/// [`TcpRelayServer::shutdown`] closes and joins.
pub struct TcpRelayServer {
    local_addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<ConnectionRegistry>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    admin_thread: Option<std::thread::JoinHandle<()>>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
    job_tx: Option<Sender<ServerJob>>,
}

impl std::fmt::Debug for TcpRelayServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpRelayServer")
            .field("local_addr", &self.local_addr)
            .field("connections", &self.connection_count())
            .field("dispatchers", &self.dispatchers.len())
            .finish()
    }
}

impl TcpRelayServer {
    /// Binds `bind_addr` (use port 0 for an ephemeral port) and starts
    /// serving `handler` with the default [`TcpServerConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::TransportFailed`] when binding fails.
    pub fn spawn(bind_addr: &str, handler: Arc<dyn EnvelopeHandler>) -> Result<Self, RelayError> {
        // lint:allow(obs: "server startup, no request in flight to trace")
        Self::spawn_with(bind_addr, handler, TcpServerConfig::default())
    }

    /// Like [`TcpRelayServer::spawn`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// Returns [`RelayError::TransportFailed`] when binding fails.
    pub fn spawn_with(
        bind_addr: &str,
        handler: Arc<dyn EnvelopeHandler>,
        config: TcpServerConfig,
    ) -> Result<Self, RelayError> {
        // lint:allow(obs: "server startup, no request in flight to trace")
        let listener = TcpListener::bind(bind_addr)
            .map_err(|e| RelayError::TransportFailed(format!("bind {bind_addr}: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| RelayError::TransportFailed(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| RelayError::TransportFailed(format!("set nonblocking: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(ConnectionRegistry::default());
        let (job_tx, job_rx) = unbounded::<ServerJob>();
        // A failed spawn aborts the whole server start: dropping `job_tx`
        // disconnects the channel, so dispatchers already running drain
        // and exit instead of leaking.
        let spawn_failed =
            |what: &str, e: std::io::Error| RelayError::TransportFailed(format!("{what}: {e}"));
        let dispatchers = (0..config.dispatchers.max(1))
            .map(|i| {
                let rx = job_rx.clone();
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("tcp-relay-dispatch-{i}"))
                    .spawn(move || dispatcher_loop(&rx, handler.as_ref()))
                    .map_err(|e| spawn_failed("spawn tcp relay dispatcher", e))
            })
            .collect::<Result<Vec<_>, RelayError>>()?;
        let (admin_addr, admin_thread) = match config.obs.clone() {
            Some(obs) => {
                // Loopback only: the admin surface is for local scraping
                // and tests, never for remote peers.
                let admin_listener = TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| RelayError::TransportFailed(format!("bind admin: {e}")))?;
                let admin_addr = admin_listener
                    .local_addr()
                    .map_err(|e| RelayError::TransportFailed(e.to_string()))?;
                admin_listener
                    .set_nonblocking(true)
                    .map_err(|e| RelayError::TransportFailed(format!("set nonblocking: {e}")))?;
                let shutdown = Arc::clone(&shutdown);
                let readiness = config.readiness.clone();
                let thread = std::thread::Builder::new()
                    .name("tcp-relay-admin".into())
                    .spawn(move || admin_loop(&admin_listener, &shutdown, &obs, readiness))
                    .map_err(|e| spawn_failed("spawn tcp relay admin loop", e))?;
                (Some(admin_addr), Some(thread))
            }
            None => (None, None),
        };
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let registry = Arc::clone(&registry);
            let job_tx = job_tx.clone();
            std::thread::Builder::new()
                .name("tcp-relay-accept".into())
                .spawn(move || accept_loop(&listener, &shutdown, &registry, &job_tx, &config))
                .map_err(|e| spawn_failed("spawn tcp relay accept loop", e))?
        };
        Ok(TcpRelayServer {
            local_addr,
            admin_addr,
            shutdown,
            registry,
            accept_thread: Some(accept_thread),
            admin_thread,
            dispatchers,
            job_tx: Some(job_tx),
        })
    }

    /// The bound address, e.g. to build the `tcp:<addr>` endpoint string.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The endpoint string clients should use.
    pub fn endpoint(&self) -> String {
        format!("tcp:{}", self.local_addr)
    }

    /// Base URL of the loopback admin listener (`http://127.0.0.1:<port>`)
    /// when the server was configured with [`TcpServerConfig::obs`]. Scrape
    /// `<base>/metrics` for the Prometheus exposition or
    /// `<base>/metrics.json` for the JSON snapshot.
    pub fn admin_endpoint(&self) -> Option<String> {
        self.admin_addr.map(|addr| format!("http://{addr}"))
    }

    /// Live connections currently registered.
    pub fn connection_count(&self) -> usize {
        self.registry.conns.lock().len()
    }

    /// Connections refused because the registry was full.
    pub fn refused_connections(&self) -> u64 {
        self.registry.refused.load(Ordering::Relaxed)
    }

    /// Stops accepting, closes every live connection, and joins their
    /// reader threads. Dispatcher threads are joined on drop.
    pub fn shutdown(&self) {
        // Release pairs with the Acquire loads in the accept/admin loops:
        // a loop that sees the flag also sees every teardown step that
        // preceded it.
        self.shutdown.store(true, Ordering::Release);
        let drained: Vec<ServerConn> = {
            let mut conns = self.registry.conns.lock();
            conns.drain().map(|(_, conn)| conn).collect()
        };
        for conn in &drained {
            conn.stream.shutdown(Shutdown::Both).ok();
        }
        for mut conn in drained {
            if let Some(handle) = conn.reader.take() {
                handle.join().ok();
            }
        }
    }
}

impl Drop for TcpRelayServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Join the accept loop first so no connection can register after
        // the final drain below.
        if let Some(thread) = self.accept_thread.take() {
            thread.join().ok();
        }
        if let Some(thread) = self.admin_thread.take() {
            thread.join().ok();
        }
        self.shutdown();
        // Closing the job channel stops the dispatchers once the queue
        // drains (writes to closed connections fail fast).
        self.job_tx.take();
        for dispatcher in self.dispatchers.drain(..) {
            dispatcher.join().ok();
        }
    }
}

/// Hard ceiling on an admin request head (slowloris guard: a client
/// that sends more than this without finishing its headers is cut off).
const ADMIN_MAX_HEAD: usize = 8192;

/// Overall deadline for reading an admin request head. This is a
/// *total* budget, not a per-read timeout: a slowloris client dripping
/// one byte every 1.9 s used to hold the old reader forever because
/// each byte reset the 2 s read timeout.
const ADMIN_HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Concurrent admin requests served; excess get a fast 503 so a scrape
/// storm cannot exhaust threads.
const ADMIN_MAX_CONCURRENT: usize = 8;

/// Longest profile window `GET /debug/profile` will run, bounding both
/// the serving thread's lifetime and shutdown latency.
const ADMIN_MAX_PROFILE_SECONDS: f64 = 10.0;

/// Accept loop of the loopback admin listener. Each exchange is served
/// on its own short-lived thread (bounded by [`ADMIN_MAX_CONCURRENT`])
/// so a multi-second profile capture or a slow client never blocks
/// concurrent metric scrapes.
fn admin_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    obs: &Arc<ObsHandle>,
    readiness: Option<Arc<Readiness>>,
) {
    let active = Arc::new(AtomicU64::new(0));
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if active.load(Ordering::Relaxed) >= ADMIN_MAX_CONCURRENT as u64 {
                    stream
                        .set_write_timeout(Some(Duration::from_millis(200)))
                        .ok();
                    write_admin_response(
                        &mut stream,
                        "503 Service Unavailable",
                        "text/plain",
                        b"admin endpoint busy\n",
                    )
                    .ok();
                    continue;
                }
                active.fetch_add(1, Ordering::Relaxed);
                let worker_active = Arc::clone(&active);
                let obs = Arc::clone(obs);
                let readiness = readiness.clone();
                let spawned = std::thread::Builder::new()
                    .name("tcp-relay-admin-worker".into())
                    .spawn(move || {
                        serve_admin_request(stream, &obs, readiness.as_deref()).ok();
                        worker_active.fetch_sub(1, Ordering::Relaxed);
                    });
                if spawned.is_err() {
                    active.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Reads a request head under both a size cap and a *total* deadline.
/// Returns the head bytes, or `None` when the budget ran out first.
fn read_admin_head(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let deadline = std::time::Instant::now() + ADMIN_HEAD_DEADLINE;
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < ADMIN_MAX_HEAD {
        let now = std::time::Instant::now();
        if now >= deadline {
            return Ok(None);
        }
        stream.set_read_timeout(Some(deadline - now))?;
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(buf.get(..n).unwrap_or_default()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(None);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some(head))
}

fn write_admin_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    stream.shutdown(Shutdown::Both).ok();
    Ok(())
}

/// Parses `?seconds=N&hz=M` off a profile request path, with clamped
/// defaults (1 s at the profiler's default rate).
fn parse_profile_query(query: Option<&str>) -> (Duration, u64) {
    let mut seconds = 1.0f64;
    let mut hz = tdt_obs::profile::DEFAULT_HZ;
    for pair in query.unwrap_or("").split('&') {
        match pair.split_once('=') {
            Some(("seconds", v)) => {
                if let Ok(s) = v.parse::<f64>() {
                    seconds = s;
                }
            }
            Some(("hz", v)) => {
                if let Ok(h) = v.parse::<u64>() {
                    hz = h;
                }
            }
            _ => {}
        }
    }
    let seconds = seconds.clamp(0.05, ADMIN_MAX_PROFILE_SECONDS);
    (Duration::from_secs_f64(seconds), hz.clamp(1, 1000))
}

/// Answers one admin HTTP request. Only the request line matters; any
/// headers the client sent are read and discarded.
fn serve_admin_request(
    mut stream: TcpStream,
    obs: &ObsHandle,
    readiness: Option<&Readiness>,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let head = match read_admin_head(&mut stream)? {
        Some(head) => head,
        None => {
            return write_admin_response(
                &mut stream,
                "408 Request Timeout",
                "text/plain",
                b"request head not received in time\n",
            );
        }
    };
    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let (status, content_type, body): (&str, &str, Vec<u8>) = match (method, path) {
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4",
            obs.prometheus_text().into_bytes(),
        ),
        ("GET", "/metrics.json") => ("200 OK", "application/json", obs.json_text().into_bytes()),
        ("GET", "/healthz") => ("200 OK", "text/plain", b"ok\n".to_vec()),
        ("GET", "/readyz") => match readiness.map_or(Ok(()), Readiness::check) {
            Ok(()) => ("200 OK", "text/plain", b"ready\n".to_vec()),
            Err(reason) => (
                "503 Service Unavailable",
                "text/plain",
                format!("not ready: {reason}\n").into_bytes(),
            ),
        },
        ("GET", "/debug/flightrec") => (
            "200 OK",
            "application/octet-stream",
            tdt_obs::flight::dump("admin: GET /debug/flightrec"),
        ),
        ("GET", "/debug/profile") => {
            let (duration, hz) = parse_profile_query(query);
            let report = tdt_obs::profile::sample_for(duration, hz);
            ("200 OK", "text/plain", report.folded_text().into_bytes())
        }
        ("GET", _) => ("404 Not Found", "text/plain", b"not found\n".to_vec()),
        _ => (
            "405 Method Not Allowed",
            "text/plain",
            b"method not allowed\n".to_vec(),
        ),
    };
    write_admin_response(&mut stream, status, content_type, &body)
}

fn accept_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    registry: &Arc<ConnectionRegistry>,
    job_tx: &Sender<ServerJob>,
    config: &TcpServerConfig,
) {
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                if registry.conns.lock().len() >= config.max_connections {
                    registry.refused.fetch_add(1, Ordering::Relaxed);
                    drop(stream);
                    continue;
                }
                serve_connection(stream, registry, job_tx, config).ok();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Registers `stream` and starts its frame-reader thread.
fn serve_connection(
    stream: TcpStream,
    registry: &Arc<ConnectionRegistry>,
    job_tx: &Sender<ServerJob>,
    config: &TcpServerConfig,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true).ok();
    // Writes to a dead peer must not wedge a dispatcher forever.
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let mut reader_stream = stream.try_clone()?;
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let conn_id = registry.next_id.fetch_add(1, Ordering::Relaxed);
    registry.conns.lock().insert(
        conn_id,
        ServerConn {
            stream,
            reader: None,
        },
    );
    let spawned = {
        let registry = Arc::clone(registry);
        let job_tx = job_tx.clone();
        let max_frame = config.max_frame;
        std::thread::Builder::new()
            .name(format!("tcp-relay-conn-{conn_id}"))
            .spawn(move || {
                connection_loop(&mut reader_stream, &writer, &job_tx, max_frame);
                // Deregister unless a shutdown drain already took the
                // entry (in which case shutdown() joins this thread).
                registry.conns.lock().remove(&conn_id);
            })
    };
    let reader = match spawned {
        Ok(handle) => handle,
        Err(e) => {
            // No reader thread means no one will ever serve or deregister
            // this connection: drop it (closing the stream) and refuse.
            registry.conns.lock().remove(&conn_id);
            return Err(e);
        }
    };
    if let Some(entry) = registry.conns.lock().get_mut(&conn_id) {
        entry.reader = Some(reader);
    }
    Ok(())
}

/// Reads frames off one connection and hands them to the dispatcher pool
/// until the peer closes, the stream errors, or the server shuts down.
fn connection_loop(
    stream: &mut TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    job_tx: &Sender<ServerJob>,
    max_frame: usize,
) {
    while let Ok(frame) = read_frame(&mut *stream, max_frame) {
        match RelayEnvelope::decode_from_slice(&frame) {
            Ok(envelope) => {
                let job = ServerJob {
                    envelope,
                    writer: Arc::clone(writer),
                    max_frame,
                };
                if job_tx.send(job).is_err() {
                    break; // server shutting down
                }
            }
            Err(e) => {
                // Framing is still aligned: answer the bad envelope and
                // keep serving the connection.
                let reply =
                    RelayEnvelope::error("tcp-server", "", format!("malformed envelope: {e}"));
                let mut w = writer.lock();
                if write_frame(&mut *w, &reply.encode_to_vec(), max_frame).is_err() {
                    break;
                }
            }
        }
    }
    stream.shutdown(Shutdown::Both).ok();
}

/// Dispatcher thread body: run the handler and write the reply — stamped
/// with the request's correlation id — back to the originating
/// connection. Replies from slow requests simply land after faster ones.
fn dispatcher_loop(jobs: &Receiver<ServerJob>, handler: &dyn EnvelopeHandler) {
    while let Ok(job) = jobs.recv() {
        let correlation_id = job.envelope.correlation_id;
        let reply = handler
            .handle(job.envelope)
            .with_correlation_id(correlation_id);
        let mut writer = job.writer.lock();
        if write_frame(&mut *writer, &reply.encode_to_vec(), job.max_frame).is_err() {
            // Dead peer: close so the connection reader exits and
            // deregisters.
            writer.shutdown(Shutdown::Both).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use std::time::Instant;
    use tdt_wire::messages::EnvelopeKind;

    /// Echoes the payload back as a response envelope.
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

    /// Echoes after sleeping for `payload[0]` × 10 ms.
    struct SleepyEchoHandler;

    impl EnvelopeHandler for SleepyEchoHandler {
        fn handle(&self, envelope: RelayEnvelope) -> RelayEnvelope {
            let ticks = envelope.payload.first().copied().unwrap_or(0) as u64;
            std::thread::sleep(Duration::from_millis(ticks * 10));
            EchoHandler.handle(envelope)
        }
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
    fn inproc_roundtrip() {
        let bus = InProcessBus::new();
        bus.register("echo-relay", Arc::new(EchoHandler));
        let reply = bus.send("inproc:echo-relay", &request(b"ping")).unwrap();
        assert_eq!(reply.kind, EnvelopeKind::QueryResponse);
        assert_eq!(reply.payload, b"ping");
    }

    #[test]
    fn inproc_unknown_endpoint() {
        let bus = InProcessBus::new();
        assert!(matches!(
            bus.send("inproc:ghost", &request(b"x")),
            Err(RelayError::TransportFailed(_))
        ));
    }

    #[test]
    fn inproc_rejects_foreign_scheme() {
        let bus = InProcessBus::new();
        assert!(bus.send("tcp:1.2.3.4:1", &request(b"x")).is_err());
    }

    #[test]
    fn inproc_deregister() {
        let bus = InProcessBus::new();
        bus.register("r", Arc::new(EchoHandler));
        assert!(bus.send("inproc:r", &request(b"x")).is_ok());
        bus.deregister("r");
        assert!(bus.send("inproc:r", &request(b"x")).is_err());
    }

    #[test]
    fn server_leaves_uncorrelated_replies_unstamped() {
        // A peer that speaks one request per connection never sets a
        // correlation id; the server must echo zero back so such a
        // decoder sees the pre-field framing.
        let server = TcpRelayServer::spawn("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let frame = request(b"legacy").encode_to_vec();
        write_frame(&mut stream, &frame, DEFAULT_MAX_FRAME).unwrap();
        let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        let reply = RelayEnvelope::decode_from_slice(&reply).unwrap();
        assert_eq!(reply.correlation_id, 0);
        assert_eq!(reply.payload, b"legacy");
    }

    #[test]
    fn server_shutdown_closes_connections_and_joins() {
        use std::io::Read;
        let server = TcpRelayServer::spawn("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        // Wait for the accept loop to register the connection.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.connection_count() == 0 {
            assert!(Instant::now() < deadline, "connection never registered");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
        assert_eq!(server.connection_count(), 0);
        // The handler closed our socket: the read observes EOF promptly
        // instead of hanging on a leaked thread's open stream.
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 16];
        assert!(matches!(client.read(&mut buf), Ok(0) | Err(_)));
    }

    #[test]
    fn server_bounds_connection_registry() {
        use std::io::Read;
        let server = TcpRelayServer::spawn_with(
            "127.0.0.1:0",
            Arc::new(EchoHandler),
            TcpServerConfig {
                max_connections: 2,
                ..TcpServerConfig::default()
            },
        )
        .unwrap();
        let _c1 = TcpStream::connect(server.local_addr()).unwrap();
        let _c2 = TcpStream::connect(server.local_addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.connection_count() < 2 {
            assert!(Instant::now() < deadline, "connections never registered");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut c3 = TcpStream::connect(server.local_addr()).unwrap();
        while server.refused_connections() == 0 {
            assert!(Instant::now() < deadline, "third connection never refused");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.connection_count(), 2);
        // The refused socket was closed immediately.
        c3.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        assert!(matches!(c3.read(&mut buf), Ok(0) | Err(_)));
    }

    #[test]
    fn pooled_roundtrip_reuses_connection() {
        let server = TcpRelayServer::spawn("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let transport = PooledTcpTransport::new();
        for i in 0..6 {
            let payload = format!("pooled-{i}").into_bytes();
            let reply = transport
                .send(&server.endpoint(), &request(&payload))
                .unwrap();
            assert_eq!(reply.payload, payload);
            assert_eq!(reply.kind, EnvelopeKind::QueryResponse);
        }
        let stats = transport.stats();
        assert_eq!(stats.connections_dialed(), 1);
        assert_eq!(stats.connections_reused(), 5);
        assert_eq!(stats.connections_open(), 1);
        assert_eq!(stats.requests_in_flight(), 0);
    }

    #[test]
    fn pooled_multiplexes_one_connection_across_threads() {
        let server = TcpRelayServer::spawn("127.0.0.1:0", Arc::new(SleepyEchoHandler)).unwrap();
        let transport = Arc::new(PooledTcpTransport::new());
        let endpoint = server.endpoint();
        std::thread::scope(|scope| {
            for t in 0u8..8 {
                let transport = Arc::clone(&transport);
                let endpoint = endpoint.clone();
                scope.spawn(move || {
                    for i in 0u8..3 {
                        // First byte doubles as the handler's sleep ticks,
                        // so replies complete out of order.
                        let payload = [t % 3, t, i];
                        let reply = transport.send(&endpoint, &request(&payload)).unwrap();
                        assert_eq!(reply.payload, payload);
                    }
                });
            }
        });
        let stats = transport.stats();
        assert_eq!(
            stats.connections_dialed(),
            1,
            "all threads share one stream"
        );
        assert_eq!(stats.requests_in_flight(), 0);
        assert_eq!(stats.orphaned_replies(), 0);
    }

    #[test]
    fn pooled_replies_complete_out_of_order_on_one_connection() {
        let server = TcpRelayServer::spawn("127.0.0.1:0", Arc::new(SleepyEchoHandler)).unwrap();
        let transport = Arc::new(PooledTcpTransport::new());
        let endpoint = server.endpoint();
        let (slow_done_tx, slow_done_rx) = bounded::<Instant>(1);
        std::thread::scope(|scope| {
            {
                let transport = Arc::clone(&transport);
                let endpoint = endpoint.clone();
                scope.spawn(move || {
                    // 20 ticks → 200 ms in the handler.
                    let reply = transport.send(&endpoint, &request(&[20, 1])).unwrap();
                    assert_eq!(reply.payload, [20, 1]);
                    slow_done_tx.send(Instant::now()).unwrap();
                });
            }
            // Give the slow request a head start on the shared stream.
            std::thread::sleep(Duration::from_millis(50));
            let reply = transport.send(&endpoint, &request(&[0, 2])).unwrap();
            assert_eq!(reply.payload, [0, 2]);
            let fast_done = Instant::now();
            let slow_done = slow_done_rx.recv().unwrap();
            assert!(
                fast_done < slow_done,
                "fast reply should overtake the slow one on the shared connection"
            );
        });
        assert_eq!(transport.stats().connections_dialed(), 1);
    }

    #[test]
    fn pooled_dead_connection_is_stale_and_redialed() {
        let server = TcpRelayServer::spawn("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let endpoint = server.endpoint();
        let transport = PooledTcpTransport::new().with_timeout(Duration::from_millis(500));
        assert!(transport.send(&endpoint, &request(b"warm")).is_ok());
        drop(server); // closes the pooled connection server-side
                      // The next send either notices the dead stream while awaiting the
                      // reply (StaleConnection) or fails to redial the closed port
                      // (TransportFailed) — both classified transient for retry.
        let err = transport.send(&endpoint, &request(b"after")).unwrap_err();
        assert!(
            RetryPolicy::is_retryable(&err),
            "dead pooled connection must be retryable, got {err:?}"
        );
        // Whichever way the death was noticed, the next checkout prunes
        // the dead connection and counts the cull.
        let _ = transport.send(&endpoint, &request(b"again"));
        assert!(
            transport.stats().connections_culled() >= 1,
            "checkout must count pruned dead connections"
        );
        // A fresh endpoint heals the pool: new server, new dial.
        let server2 = TcpRelayServer::spawn("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let reply = transport
            .send(&server2.endpoint(), &request(b"healed"))
            .unwrap();
        assert_eq!(reply.payload, b"healed");
        assert!(transport.stats().connections_dialed() >= 2);
    }

    #[test]
    fn pooled_bad_scheme() {
        let transport = PooledTcpTransport::new();
        assert!(transport.send("inproc:x", &request(b"x")).is_err());
    }

    #[test]
    fn pooled_zero_timeout_fails_instead_of_hanging() {
        // A zero timeout is rejected by the OS. Swallowing that failure
        // would leave writes to a dead peer free to block forever.
        let server = TcpRelayServer::spawn("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        let transport = PooledTcpTransport::new().with_timeout(Duration::ZERO);
        let err = transport
            .send(&server.endpoint(), &request(b"x"))
            .unwrap_err();
        assert!(
            matches!(&err, RelayError::TransportFailed(m) if m.contains("timeout")),
            "expected timeout-set error, got {err:?}"
        );
    }

    #[test]
    fn pooled_oversized_frame_is_rejected_and_the_server_keeps_serving() {
        let server = TcpRelayServer::spawn_with(
            "127.0.0.1:0",
            Arc::new(EchoHandler),
            TcpServerConfig {
                max_frame: 256,
                ..TcpServerConfig::default()
            },
        )
        .unwrap();
        let transport = PooledTcpTransport::new().with_timeout(Duration::from_secs(2));
        // The server drops the connection at the length prefix, before
        // reading (or echoing) a byte of the payload.
        let err = transport
            .send(&server.endpoint(), &request(&[7u8; 1024]))
            .unwrap_err();
        assert!(
            matches!(err, RelayError::StaleConnection(_)),
            "expected the stream to be killed, got {err:?}"
        );
        let reply = transport
            .send(&server.endpoint(), &request(b"small"))
            .unwrap();
        assert_eq!(reply.payload, b"small");
        assert_eq!(transport.stats().connections_dialed(), 2);
    }

    /// Minimal HTTP/1.1 GET against the admin listener.
    fn http_get(base: &str, path: &str) -> String {
        let addr = base.strip_prefix("http://").unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                    .as_bytes(),
            )
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn admin_endpoint_serves_metrics_expositions() {
        let obs = Arc::new(ObsHandle::new());
        obs.registry()
            .counter("tdt_test_scrapes_total", "test counter")
            .add(3);
        let server = TcpRelayServer::spawn_with(
            "127.0.0.1:0",
            Arc::new(EchoHandler),
            TcpServerConfig {
                obs: Some(Arc::clone(&obs)),
                ..TcpServerConfig::default()
            },
        )
        .unwrap();
        let base = server.admin_endpoint().expect("admin listener configured");
        let text = http_get(&base, "/metrics");
        assert!(text.starts_with("HTTP/1.1 200 OK"), "got: {text}");
        assert!(text.contains("tdt_test_scrapes_total 3"), "got: {text}");
        let json = http_get(&base, "/metrics.json");
        assert!(json.contains("\"tdt_test_scrapes_total\""), "got: {json}");
        let missing = http_get(&base, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "got: {missing}");
    }

    #[test]
    fn admin_endpoint_absent_without_obs_config() {
        let server = TcpRelayServer::spawn("127.0.0.1:0", Arc::new(EchoHandler)).unwrap();
        assert!(server.admin_endpoint().is_none());
    }

    #[test]
    fn router_routes_by_correlation_id() {
        let router = CorrelationRouter::new();
        let rx7 = router.register(7).unwrap();
        let rx9 = router.register(9).unwrap();
        assert_eq!(router.pending_count(), 2);
        router
            .complete(9, request(b"nine").with_correlation_id(9))
            .unwrap();
        router
            .complete(7, request(b"seven").with_correlation_id(7))
            .unwrap();
        assert_eq!(rx7.recv().unwrap().payload, b"seven");
        assert_eq!(rx9.recv().unwrap().payload, b"nine");
        assert_eq!(router.pending_count(), 0);
    }

    #[test]
    fn router_unknown_correlation_id_fails_closed() {
        let router = CorrelationRouter::new();
        let rx = router.register(1).unwrap();
        let err = router.complete(2, request(b"stray")).unwrap_err();
        assert!(matches!(err, RelayError::TransportFailed(_)));
        // The registered waiter is untouched by the stray reply.
        assert_eq!(router.pending_count(), 1);
        router.complete(1, request(b"mine")).unwrap();
        assert_eq!(rx.recv().unwrap().payload, b"mine");
    }

    #[test]
    fn router_duplicate_registration_refused() {
        let router = CorrelationRouter::new();
        let _rx = router.register(5).unwrap();
        assert!(router.register(5).is_err());
        assert_eq!(router.pending_count(), 1);
    }

    #[test]
    fn router_fail_all_wakes_waiters_and_closes() {
        let router = CorrelationRouter::new();
        let rx = router.register(3).unwrap();
        router.fail_all();
        assert!(rx.recv().is_err(), "waiter must observe the disconnect");
        assert!(matches!(
            router.register(4),
            Err(RelayError::StaleConnection(_))
        ));
    }
}
