//! Client-side envelope batching: many queries per frame.
//!
//! At high offered rates the per-frame cost — length-prefix framing, a
//! syscall pair, and the server's dispatch bookkeeping — dominates the
//! per-query cost. [`BatchingTransport`] wraps any [`RelayTransport`]
//! and coalesces concurrent `QueryRequest` sends to the same endpoint
//! into one combined frame, using the group-commit pattern: the first
//! caller to open a batch (the *leader*) waits up to the linger budget
//! for followers; whoever fills the batch to `max_batch` flushes it
//! immediately. Each item in the combined frame is a complete encoded
//! [`RelayEnvelope`], and the server replies with a positionally
//! matching batch of reply frames (see
//! [`crate::service::RelayService`]'s batch expansion), so items
//! succeed and fail independently.
//!
//! The batch field is zero-elided on the wire: an unbatched send and a
//! legacy peer's frame stay byte-identical (see
//! [`tdt_wire::messages::RelayEnvelope::batch`]).

use crate::error::RelayError;
use crate::service::remote_error;
use crate::transport::RelayTransport;
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tdt_wire::codec::Message;
use tdt_wire::messages::{EnvelopeKind, RelayEnvelope};

/// Tuning knobs for [`BatchingTransport`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Flush as soon as this many items have accumulated for one
    /// endpoint. A value of 1 (or 0) disables batching entirely.
    pub max_batch: usize,
    /// How long the batch leader waits for followers before flushing a
    /// partial batch. Bounds the latency cost of batching: a lone
    /// request is delayed by at most this much.
    pub linger: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 16,
            linger: Duration::from_millis(1),
        }
    }
}

/// Counters exposed by [`BatchingTransport::stats`].
#[derive(Debug, Default)]
pub struct BatchStats {
    frames: AtomicU64,
    items: AtomicU64,
    full_flushes: AtomicU64,
    linger_flushes: AtomicU64,
    pass_through: AtomicU64,
}

impl BatchStats {
    /// Frames flushed through the batching path (including batches of
    /// one that were forwarded unbatched).
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Queries carried by those frames.
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// Flushes triggered by a full batch.
    pub fn full_flushes(&self) -> u64 {
        self.full_flushes.load(Ordering::Relaxed)
    }

    /// Flushes triggered by the leader's linger expiring.
    pub fn linger_flushes(&self) -> u64 {
        self.linger_flushes.load(Ordering::Relaxed)
    }

    /// Envelopes sent directly because they were not batchable
    /// (non-query kinds, or batching disabled).
    pub fn pass_through(&self) -> u64 {
        self.pass_through.load(Ordering::Relaxed)
    }
}

type Outcome = Result<RelayEnvelope, RelayError>;

struct PendingItem {
    envelope: RelayEnvelope,
    reply: Sender<Outcome>,
}

enum Role {
    /// This caller filled the batch and must flush it now.
    Flush(Vec<PendingItem>),
    /// This caller opened the batch and owns the linger timer.
    Leader,
    /// Someone else will flush; just wait for the reply.
    Follower,
}

/// A [`RelayTransport`] decorator that coalesces concurrent query sends
/// per endpoint into combined frames (size + linger thresholds).
pub struct BatchingTransport {
    inner: Arc<dyn RelayTransport>,
    config: BatchConfig,
    pending: Mutex<HashMap<String, Vec<PendingItem>>>,
    stats: Arc<BatchStats>,
}

impl BatchingTransport {
    /// Wraps `inner` with the given batching thresholds.
    pub fn new(inner: Arc<dyn RelayTransport>, config: BatchConfig) -> Self {
        BatchingTransport {
            inner,
            config,
            pending: Mutex::new(HashMap::new()),
            stats: Arc::new(BatchStats::default()),
        }
    }

    /// Batching counters, shareable with a metrics bridge.
    pub fn stats(&self) -> Arc<BatchStats> {
        Arc::clone(&self.stats)
    }

    /// Sends one flushed batch and distributes per-item outcomes to
    /// every waiter. Every item's channel receives exactly one outcome,
    /// success or error — a waiter can never be left hanging.
    fn flush(&self, endpoint: &str, items: Vec<PendingItem>) {
        if items.is_empty() {
            return;
        }
        self.stats.frames.fetch_add(1, Ordering::Relaxed);
        self.stats
            .items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        // A batch of one gains nothing from the combined encoding: send
        // the original envelope so the frame stays byte-identical to an
        // unbatched (legacy-compatible) send.
        if items.len() == 1 {
            for item in items {
                let outcome = self.inner.send(endpoint, &item.envelope);
                item.reply.send(outcome).ok();
            }
            return;
        }
        let Some(first) = items.first().map(|i| &i.envelope) else {
            return;
        };
        let combined = RelayEnvelope {
            kind: EnvelopeKind::QueryRequest,
            source_relay: first.source_relay.clone(),
            dest_network: first.dest_network.clone(),
            payload: Vec::new(),
            correlation_id: 0,
            trace: first.trace,
            batch: items.iter().map(|i| i.envelope.encode_to_vec()).collect(),
        };
        // Either one reply frame per item, or one error every item shares.
        let error = match self.inner.send(endpoint, &combined) {
            Ok(reply) if reply.batch.len() == items.len() => {
                for (item, frame) in items.into_iter().zip(reply.batch) {
                    let outcome =
                        RelayEnvelope::decode_from_slice(&frame).map_err(RelayError::from);
                    item.reply.send(outcome).ok();
                }
                return;
            }
            // The whole frame was rejected before expansion (e.g. the
            // admission gate shed it, or a legacy peer choked on the
            // empty payload).
            Ok(reply) if reply.kind == EnvelopeKind::Error => remote_error(&reply.payload),
            Ok(reply) => RelayError::TransportFailed(format!(
                "batched frame of {} answered with {} reply items",
                items.len(),
                reply.batch.len()
            )),
            Err(error) => error,
        };
        for item in items {
            item.reply.send(Err(error.clone())).ok();
        }
    }
}

impl RelayTransport for BatchingTransport {
    fn send(&self, endpoint: &str, envelope: &RelayEnvelope) -> Result<RelayEnvelope, RelayError> {
        // Only queries batch; control traffic (pings, subscriptions,
        // event pushes) and pre-batched frames go straight through.
        if envelope.kind != EnvelopeKind::QueryRequest
            || envelope.is_batch()
            || self.config.max_batch <= 1
        {
            self.stats.pass_through.fetch_add(1, Ordering::Relaxed);
            return self.inner.send(endpoint, envelope);
        }
        let (tx, rx) = bounded(1);
        let role = {
            let mut pending = self.pending.lock();
            let items = pending.entry(endpoint.to_string()).or_default();
            items.push(PendingItem {
                envelope: envelope.clone(),
                reply: tx,
            });
            if items.len() >= self.config.max_batch {
                self.stats.full_flushes.fetch_add(1, Ordering::Relaxed);
                Role::Flush(std::mem::take(items))
            } else if items.len() == 1 {
                Role::Leader
            } else {
                Role::Follower
            }
        };
        match role {
            Role::Flush(items) => self.flush(endpoint, items),
            Role::Leader => match rx.recv_timeout(self.config.linger) {
                Ok(outcome) => return outcome,
                Err(RecvTimeoutError::Timeout) => {
                    // Linger expired: flush whatever accumulated. The
                    // entry may already have been taken (and possibly
                    // restarted by a newer generation) by a concurrent
                    // filler — flushing the newer items early is
                    // harmless, and our own outcome arrives on `rx`.
                    let items = {
                        let mut pending = self.pending.lock();
                        pending
                            .get_mut(endpoint)
                            .map(std::mem::take)
                            .unwrap_or_default()
                    };
                    if !items.is_empty() {
                        self.stats.linger_flushes.fetch_add(1, Ordering::Relaxed);
                    }
                    self.flush(endpoint, items);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(RelayError::TransportFailed(
                        "batch flusher dropped the reply channel".to_string(),
                    ));
                }
            },
            Role::Follower => {}
        }
        // Every flushed item is answered exactly once; block until ours
        // arrives (the flush carrying it may still be on the wire).
        rx.recv().unwrap_or_else(|_| {
            Err(RelayError::TransportFailed(
                "batch flusher dropped the reply channel".to_string(),
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::OVERLOADED_PREFIX;
    use crate::transport::EnvelopeHandler;
    use std::sync::atomic::AtomicU64;

    /// Echoes each item of a batch (or a lone envelope) and counts the
    /// frames it actually receives.
    struct CountingEchoServer {
        frames: AtomicU64,
        batched_frames: AtomicU64,
    }

    impl CountingEchoServer {
        fn new() -> Self {
            CountingEchoServer {
                frames: AtomicU64::new(0),
                batched_frames: AtomicU64::new(0),
            }
        }
    }

    impl RelayTransport for CountingEchoServer {
        fn send(&self, _endpoint: &str, envelope: &RelayEnvelope) -> Outcome {
            self.frames.fetch_add(1, Ordering::Relaxed);
            if envelope.is_batch() {
                self.batched_frames.fetch_add(1, Ordering::Relaxed);
                let replies = envelope
                    .batch
                    .iter()
                    .map(|item| {
                        let sub = RelayEnvelope::decode_from_slice(item)?;
                        Ok(RelayEnvelope {
                            kind: EnvelopeKind::QueryResponse,
                            payload: sub.payload,
                            ..Default::default()
                        }
                        .encode_to_vec())
                    })
                    .collect::<Result<Vec<_>, tdt_wire::error::WireError>>()?;
                return Ok(RelayEnvelope::response_batch("srv", "net", replies));
            }
            Ok(RelayEnvelope {
                kind: EnvelopeKind::QueryResponse,
                payload: envelope.payload.clone(),
                ..Default::default()
            })
        }
    }

    fn query_envelope(i: usize) -> RelayEnvelope {
        RelayEnvelope {
            kind: EnvelopeKind::QueryRequest,
            source_relay: "client".into(),
            dest_network: "net".into(),
            payload: format!("q{i}").into_bytes(),
            ..Default::default()
        }
    }

    #[test]
    fn full_batch_flushes_in_one_frame_with_positional_replies() {
        let server = Arc::new(CountingEchoServer::new());
        let transport = Arc::new(BatchingTransport::new(
            Arc::clone(&server) as Arc<dyn RelayTransport>,
            BatchConfig {
                max_batch: 4,
                linger: Duration::from_secs(5),
            },
        ));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let transport = Arc::clone(&transport);
                std::thread::spawn(move || {
                    let reply = transport.send("ep", &query_envelope(i)).unwrap();
                    (i, reply)
                })
            })
            .collect();
        for handle in handles {
            let (i, reply) = handle.join().unwrap();
            assert_eq!(reply.kind, EnvelopeKind::QueryResponse);
            assert_eq!(reply.payload, format!("q{i}").into_bytes());
        }
        // Four queries, one wire frame: that is the whole point.
        assert_eq!(server.frames.load(Ordering::Relaxed), 1);
        assert_eq!(server.batched_frames.load(Ordering::Relaxed), 1);
        assert_eq!(transport.stats().full_flushes(), 1);
        assert_eq!(transport.stats().items(), 4);
    }

    #[test]
    fn lone_request_flushes_unbatched_after_linger() {
        let server = Arc::new(CountingEchoServer::new());
        let transport = BatchingTransport::new(
            Arc::clone(&server) as Arc<dyn RelayTransport>,
            BatchConfig {
                max_batch: 16,
                linger: Duration::from_millis(1),
            },
        );
        let reply = transport.send("ep", &query_envelope(0)).unwrap();
        assert_eq!(reply.payload, b"q0");
        // The single item went out as a plain frame, not a batch-of-one.
        assert_eq!(server.frames.load(Ordering::Relaxed), 1);
        assert_eq!(server.batched_frames.load(Ordering::Relaxed), 0);
        assert_eq!(transport.stats().linger_flushes(), 1);
    }

    #[test]
    fn non_query_kinds_pass_through_unbatched() {
        let server = Arc::new(CountingEchoServer::new());
        let transport = BatchingTransport::new(
            Arc::clone(&server) as Arc<dyn RelayTransport>,
            BatchConfig::default(),
        );
        let ping = RelayEnvelope {
            kind: EnvelopeKind::Ping,
            ..Default::default()
        };
        transport.send("ep", &ping).unwrap();
        assert_eq!(transport.stats().pass_through(), 1);
        assert_eq!(transport.stats().frames(), 0);
    }

    #[test]
    fn transport_error_reaches_every_waiter() {
        struct FailingServer;
        impl RelayTransport for FailingServer {
            fn send(&self, _endpoint: &str, _envelope: &RelayEnvelope) -> Outcome {
                Err(RelayError::TransportFailed("wire cut".into()))
            }
        }
        let transport = Arc::new(BatchingTransport::new(
            Arc::new(FailingServer) as Arc<dyn RelayTransport>,
            BatchConfig {
                max_batch: 2,
                linger: Duration::from_secs(5),
            },
        ));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let transport = Arc::clone(&transport);
                std::thread::spawn(move || transport.send("ep", &query_envelope(i)))
            })
            .collect();
        for handle in handles {
            assert!(matches!(
                handle.join().unwrap(),
                Err(RelayError::TransportFailed(_))
            ));
        }
    }

    #[test]
    fn whole_frame_shed_maps_to_overloaded_for_every_waiter() {
        struct SheddingServer;
        impl RelayTransport for SheddingServer {
            fn send(&self, _endpoint: &str, envelope: &RelayEnvelope) -> Outcome {
                Ok(RelayEnvelope::error(
                    "srv",
                    envelope.dest_network.clone(),
                    format!("{OVERLOADED_PREFIX}queue full"),
                ))
            }
        }
        let transport = Arc::new(BatchingTransport::new(
            Arc::new(SheddingServer) as Arc<dyn RelayTransport>,
            BatchConfig {
                max_batch: 2,
                linger: Duration::from_secs(5),
            },
        ));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let transport = Arc::clone(&transport);
                std::thread::spawn(move || transport.send("ep", &query_envelope(i)))
            })
            .collect();
        for handle in handles {
            assert!(matches!(
                handle.join().unwrap(),
                Err(RelayError::Overloaded(_))
            ));
        }
    }

    #[test]
    fn end_to_end_against_a_real_relay_over_the_bus() {
        use crate::discovery::{DiscoveryService, StaticRegistry};
        use crate::driver::EchoDriver;
        use crate::service::RelayService;
        use crate::transport::InProcessBus;
        use tdt_wire::messages::{NetworkAddress, Query, QueryResponse};

        let registry = Arc::new(StaticRegistry::new());
        let bus = Arc::new(InProcessBus::new());
        registry.register("stl", "inproc:stl-relay");
        let stl = Arc::new(RelayService::new(
            "stl-relay",
            "stl",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
        ));
        stl.register_driver(Arc::new(EchoDriver::new("stl")));
        bus.register("stl-relay", Arc::clone(&stl) as Arc<dyn EnvelopeHandler>);
        let batching = Arc::new(BatchingTransport::new(
            Arc::clone(&bus) as Arc<dyn RelayTransport>,
            BatchConfig {
                max_batch: 4,
                linger: Duration::from_secs(5),
            },
        ));
        let swt = Arc::new(RelayService::new(
            "swt-relay",
            "swt",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            batching as Arc<dyn RelayTransport>,
        ));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let swt = Arc::clone(&swt);
                std::thread::spawn(move || {
                    let payload = format!("payload-{i}").into_bytes();
                    let q = Query {
                        request_id: format!("r{i}"),
                        address: NetworkAddress::new("stl", "l", "c", "f")
                            .with_arg(payload.clone()),
                        ..Default::default()
                    };
                    let response: QueryResponse = swt.relay_query(&q).unwrap();
                    assert_eq!(response.result, payload);
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        // All four queries were served by the source relay.
        assert_eq!(stl.stats().served.load(Ordering::Relaxed), 4);
    }
}
