//! E2 — Fig. 2: per-step latency of the 10-step message flow, plus the
//! production path through in-process and TCP relay transports.
//!
//! Prints the per-step table once (the figure's regenerated artifact), then
//! benchmarks the end-to-end paths.

use criterion::{criterion_group, criterion_main, Criterion};
use interop::driver::FabricDriver;
use interop::flow::harness_for_testbed;
use interop::InteropClient;
use std::hint::black_box;
use std::sync::Arc;
use tdt_bench::{bl_address, bl_policy, prepared_testbed, swt_client};
use tdt_relay::discovery::{DiscoveryService, StaticRegistry};
use tdt_relay::service::RelayService;
use tdt_relay::transport::{EnvelopeHandler, PooledTcpTransport, RelayTransport, TcpRelayServer};

fn print_step_table() {
    let t = prepared_testbed("PO-1001");
    let harness = harness_for_testbed(&t);
    let traced = harness
        .run_traced(
            bl_address("PO-1001"),
            bl_policy(),
            tdt_contracts::swt::SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec()],
        )
        .expect("traced flow");
    println!("\n=== Fig. 2 message flow: per-step latency (one traced run) ===");
    print!("{}", traced.table());
    println!("total: {:.1?}\n", traced.total());
}

fn bench_flow(c: &mut Criterion) {
    print_step_table();
    let mut group = c.benchmark_group("message_flow");
    group.sample_size(20);

    // Steps 1-9 through the production in-process relay pair.
    {
        let t = prepared_testbed("PO-1001");
        let client = swt_client(&t);
        group.bench_function("query_steps_1_to_9/inprocess_relays", |b| {
            b.iter(|| {
                let remote = client
                    .query_remote(bl_address("PO-1001"), bl_policy())
                    .unwrap();
                black_box(remote)
            })
        });
    }

    // Steps 1-9 with the source relay behind real TCP.
    {
        let t = prepared_testbed("PO-1001");
        let registry = Arc::new(StaticRegistry::new());
        let stl_relay = Arc::new(RelayService::new(
            "stl-relay-tcp",
            "stl",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::new(PooledTcpTransport::new()) as Arc<dyn RelayTransport>,
        ));
        stl_relay.register_driver(Arc::new(FabricDriver::new(Arc::clone(&t.stl))));
        let server = TcpRelayServer::spawn(
            "127.0.0.1:0",
            Arc::clone(&stl_relay) as Arc<dyn EnvelopeHandler>,
        )
        .unwrap();
        registry.register("stl", server.endpoint());
        let swt_relay = Arc::new(RelayService::new(
            "swt-relay-tcp",
            "swt",
            Arc::clone(&registry) as Arc<dyn DiscoveryService>,
            Arc::new(PooledTcpTransport::new()) as Arc<dyn RelayTransport>,
        ));
        let client = InteropClient::new(t.swt_seller_gateway(), swt_relay);
        group.bench_function("query_steps_1_to_9/tcp_relays", |b| {
            b.iter(|| {
                let remote = client
                    .query_remote(bl_address("PO-1001"), bl_policy())
                    .unwrap();
                black_box(remote)
            })
        });
        server.shutdown();
    }

    // The complete flow including the Step-10 destination transaction.
    {
        let t = prepared_testbed("PO-1001");
        let harness = harness_for_testbed(&t);
        let mut i = 0u64;
        group.bench_function("full_flow_steps_1_to_10", |b| {
            b.iter(|| {
                // Each iteration needs a fresh L/C to upload into.
                i += 1;
                let po = format!("PO-{i}");
                interop::setup::issue_sample_bl(&t, &po);
                let buyer = t.swt_buyer_gateway();
                buyer
                    .submit(
                        tdt_contracts::swt::SwtChaincode::NAME,
                        "RequestLC",
                        vec![
                            po.as_bytes().to_vec(),
                            b"LC".to_vec(),
                            b"b".to_vec(),
                            b"s".to_vec(),
                            b"1000".to_vec(),
                        ],
                    )
                    .unwrap()
                    .into_committed()
                    .unwrap();
                buyer
                    .submit(
                        tdt_contracts::swt::SwtChaincode::NAME,
                        "IssueLC",
                        vec![po.as_bytes().to_vec()],
                    )
                    .unwrap()
                    .into_committed()
                    .unwrap();
                let traced = harness
                    .run_traced(
                        bl_address(&po),
                        bl_policy(),
                        tdt_contracts::swt::SwtChaincode::NAME,
                        "UploadDispatchDocs",
                        vec![po.as_bytes().to_vec()],
                    )
                    .unwrap();
                black_box(traced.outcome.code)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flow);
criterion_main!(benches);
