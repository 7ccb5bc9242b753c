//! E8 — availability characterization: relay service throughput, the cost
//! of rate limiting, and the behaviour of redundant relay groups under
//! partial outage (paper §5: "the effects of DoS attacks can be mitigated
//! by adding redundant relays").

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use interop::driver::FabricDriver;
use interop::InteropClient;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use tdt_bench::{bl_address, bl_policy, prepared_testbed, swt_client};
use tdt_fabric::gateway::Gateway;
use tdt_relay::discovery::DiscoveryService;
use tdt_relay::driver::NetworkDriver;
use tdt_relay::error::RelayError;
use tdt_relay::ratelimit::RateLimiter;
use tdt_relay::redundancy::RelayGroup;
use tdt_relay::service::RelayService;
use tdt_relay::transport::RelayTransport;
use tdt_wire::messages::{Query, QueryResponse};

fn bench_relay(c: &mut Criterion) {
    let mut group = c.benchmark_group("relay_throughput");
    group.sample_size(20);

    // Baseline: one relay, no limiter.
    {
        let t = prepared_testbed("PO-1001");
        let client = swt_client(&t);
        group.bench_function("single_relay", |b| {
            b.iter(|| {
                black_box(
                    client
                        .query_remote(bl_address("PO-1001"), bl_policy())
                        .unwrap(),
                )
            })
        });
    }

    // With a generous rate limiter in the path (overhead of the check).
    {
        let t = prepared_testbed("PO-1001");
        let limited = Arc::new(
            RelayService::new(
                "swt-relay-limited",
                "swt",
                Arc::clone(&t.registry) as Arc<dyn DiscoveryService>,
                Arc::clone(&t.bus) as Arc<dyn RelayTransport>,
            )
            .with_rate_limiter(RateLimiter::new(1_000_000, 1_000_000.0)),
        );
        let client = InteropClient::new(t.swt_seller_gateway(), limited);
        group.bench_function("single_relay_with_rate_limiter", |b| {
            b.iter(|| {
                black_box(
                    client
                        .query_remote(bl_address("PO-1001"), bl_policy())
                        .unwrap(),
                )
            })
        });
    }

    // Redundant group of three with two members down: failover cost.
    {
        let t = prepared_testbed("PO-1001");
        let mut relays = vec![Arc::clone(&t.swt_relay)];
        for i in 1..3 {
            relays.push(Arc::new(RelayService::new(
                format!("swt-relay-{i}"),
                "swt",
                Arc::clone(&t.registry) as Arc<dyn DiscoveryService>,
                Arc::clone(&t.bus) as Arc<dyn RelayTransport>,
            )));
        }
        relays[0].set_down(true);
        relays[1].set_down(true);
        let client = InteropClient::with_relay_group(
            t.swt_seller_gateway(),
            Arc::new(RelayGroup::new(relays).expect("non-empty relay group")),
        );
        group.bench_function("relay_group_3_with_2_down", |b| {
            b.iter(|| {
                black_box(
                    client
                        .query_remote(bl_address("PO-1001"), bl_policy())
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

/// A driver decorating the real Fabric driver with a fixed peer
/// round-trip time, as real endorsement traffic would see. The worker
/// pool's win is overlapping these waits across concurrent requests, so
/// it shows even on a single-core host; on multicore the pooled mode
/// additionally overlaps the crypto.
#[derive(Debug)]
struct SimulatedRttDriver {
    inner: FabricDriver,
    rtt: Duration,
}

impl NetworkDriver for SimulatedRttDriver {
    fn network_id(&self) -> &str {
        self.inner.network_id()
    }

    fn execute_query(&self, query: &Query) -> Result<QueryResponse, RelayError> {
        std::thread::sleep(self.rtt);
        self.inner.execute_query(query)
    }
}

/// Serial (one-worker pool) vs pooled (four workers) envelope handling on
/// the source relay, under four concurrent clients.
fn bench_serial_vs_pooled(c: &mut Criterion) {
    const CLIENTS: usize = 4;
    const PEER_RTT: Duration = Duration::from_millis(25);
    let mut group = c.benchmark_group("relay_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(CLIENTS as u64));
    for (label, workers) in [("pool_1_serial", 1usize), ("pool_4", 4)] {
        let t = prepared_testbed("PO-1001");
        t.stl_relay.register_driver(Arc::new(SimulatedRttDriver {
            inner: FabricDriver::new(Arc::clone(&t.stl)),
            rtt: PEER_RTT,
        }));
        t.stl_relay.start_workers(workers);
        let clients: Vec<InteropClient> = (0..CLIENTS)
            .map(|i| {
                let identity = t
                    .swt
                    .register_client("seller-bank-org", &format!("bench-sc-{i}"), true)
                    .unwrap();
                InteropClient::new(
                    Gateway::new(Arc::clone(&t.swt), identity),
                    Arc::clone(&t.swt_relay),
                )
            })
            .collect();
        group.bench_function(format!("{CLIENTS}_clients_{label}"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for client in &clients {
                        scope.spawn(move || {
                            black_box(
                                client
                                    .query_remote(bl_address("PO-1001"), bl_policy())
                                    .unwrap(),
                            );
                        });
                    }
                });
            })
        });
        t.stl_relay.stop_workers();
    }
    group.finish();
}

/// A cold pool per request vs one warm pool, four concurrent clients,
/// against an echo handler: with the handler near-free, the measured
/// difference is pure transport overhead (a TCP handshake and a reader
/// thread per request vs correlation-id multiplexing on warm connections).
fn bench_tcp_transports(c: &mut Criterion) {
    use tdt_relay::transport::{EnvelopeHandler, PooledTcpTransport, TcpRelayServer};
    use tdt_wire::messages::{EnvelopeKind, RelayEnvelope};
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 25;

    struct Echo;
    impl EnvelopeHandler for Echo {
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

    let request = RelayEnvelope {
        kind: EnvelopeKind::QueryRequest,
        source_relay: "bench".into(),
        dest_network: "target".into(),
        payload: vec![0xAB; 64],
        correlation_id: 0,
        trace: Default::default(),
        batch: Vec::new(),
    };
    let server = TcpRelayServer::spawn("127.0.0.1:0", Arc::new(Echo)).unwrap();
    let endpoint = server.endpoint();
    let mut group = c.benchmark_group("tcp_transport");
    group.sample_size(10);
    group.throughput(Throughput::Elements((CLIENTS * REQUESTS_PER_CLIENT) as u64));

    group.bench_function(format!("{CLIENTS}_clients_cold_pool_per_request"), |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..CLIENTS {
                    let endpoint = &endpoint;
                    let request = &request;
                    scope.spawn(move || {
                        for _ in 0..REQUESTS_PER_CLIENT {
                            let cold = PooledTcpTransport::new();
                            black_box(cold.send(endpoint, request).unwrap());
                        }
                    });
                }
            });
        })
    });

    // One shared pool, warm across iterations — the steady-state shape.
    let pooled = PooledTcpTransport::new();
    group.bench_function(format!("{CLIENTS}_clients_pooled_multiplexed"), |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..CLIENTS {
                    let endpoint = &endpoint;
                    let request = &request;
                    let pooled = &pooled;
                    scope.spawn(move || {
                        for _ in 0..REQUESTS_PER_CLIENT {
                            black_box(pooled.send(endpoint, request).unwrap());
                        }
                    });
                }
            });
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_relay,
    bench_serial_vs_pooled,
    bench_tcp_transports
);
criterion_main!(benches);
