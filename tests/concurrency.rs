//! Concurrency: the in-process networks and relays are shared across
//! threads in real deployments; these tests exercise parallel submissions,
//! parallel cross-network queries, and mixed read/write contention.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use tdt::contracts::CMDAC_NAME;
use tdt::fabric::chaincode::{Chaincode, TxContext};
use tdt::fabric::error::ChaincodeError;
use tdt::fabric::gateway::Gateway;
use tdt::fabric::network::NetworkBuilder;
use tdt::fabric::policy::EndorsementPolicy;
use tdt::interop::setup::{issue_sample_bl, stl_swt_testbed, BL_ADDRESS};
use tdt::interop::InteropClient;
use tdt::wire::messages::{NetworkAddress, VerificationPolicy};

struct Counter;

impl Chaincode for Counter {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, ChaincodeError> {
        match function {
            "incr" => {
                let key = String::from_utf8_lossy(&args[0]).into_owned();
                let current = ctx
                    .get_state(&key)
                    .map(|v| u64::from_be_bytes(v.try_into().unwrap_or([0; 8])))
                    .unwrap_or(0);
                ctx.put_state(&key, (current + 1).to_be_bytes().to_vec());
                Ok((current + 1).to_be_bytes().to_vec())
            }
            "get" => {
                let key = String::from_utf8_lossy(&args[0]).into_owned();
                ctx.get_state(&key).ok_or(ChaincodeError::NotFound(key))
            }
            f => Err(ChaincodeError::UnknownFunction(f.into())),
        }
    }
}

#[test]
fn parallel_submissions_commit_without_corruption() {
    let net = NetworkBuilder::new("concnet")
        .org("org-a", 2)
        .chaincode(
            "ctr",
            Arc::new(Counter),
            EndorsementPolicy::any_of(["org-a"]),
        )
        .build();
    let mut handles = Vec::new();
    for thread in 0..4 {
        let net = Arc::clone(&net);
        handles.push(std::thread::spawn(move || {
            let client = net
                .register_client("org-a", &format!("client-{thread}"), false)
                .unwrap();
            let gateway = Gateway::new(net, client);
            let mut committed = 0;
            for i in 0..5 {
                // Distinct keys per thread: no read conflicts expected.
                let key = format!("t{thread}-k{i}");
                let outcome = gateway
                    .submit("ctr", "incr", vec![key.into_bytes()])
                    .unwrap();
                if outcome.code.is_valid() {
                    committed += 1;
                }
            }
            committed
        }));
    }
    let committed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(committed, 20);
    // Every peer replica agrees on every key.
    for thread in 0..4 {
        for i in 0..5 {
            let key = format!("t{thread}-k{i}");
            let values: Vec<Vec<u8>> = net
                .peers()
                .map(|(_, p)| p.read().state().get("ctr", &key).unwrap().value.clone())
                .collect();
            assert!(values.windows(2).all(|w| w[0] == w[1]));
            assert_eq!(values[0], 1u64.to_be_bytes().to_vec());
        }
    }
    // Chain integrity holds on every replica.
    for (_, peer) in net.peers() {
        peer.read().store().verify_chain().unwrap();
    }
}

#[test]
fn contended_key_serializes_via_mvcc() {
    // All threads hammer the SAME key; every commit must be a distinct
    // serial increment (some submissions may invalidate, none may corrupt).
    let net = NetworkBuilder::new("hotkey")
        .org("org-a", 1)
        .chaincode(
            "ctr",
            Arc::new(Counter),
            EndorsementPolicy::any_of(["org-a"]),
        )
        .build();
    let mut handles = Vec::new();
    for thread in 0..4 {
        let net = Arc::clone(&net);
        handles.push(std::thread::spawn(move || {
            let client = net
                .register_client("org-a", &format!("c{thread}"), false)
                .unwrap();
            let gateway = Gateway::new(net, client);
            let mut valid = 0u64;
            for _ in 0..5 {
                let outcome = gateway
                    .submit("ctr", "incr", vec![b"hot".to_vec()])
                    .unwrap();
                if outcome.code.is_valid() {
                    valid += 1;
                }
            }
            valid
        }));
    }
    let total_valid: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_valid >= 1);
    // The final counter equals exactly the number of valid commits: lost
    // updates would make it smaller, double-applies larger.
    let (_, peer) = net.peers().next().unwrap();
    let value = peer.read().state().get("ctr", "hot").unwrap().value.clone();
    assert_eq!(u64::from_be_bytes(value.try_into().unwrap()), total_valid);
}

#[test]
fn parallel_cross_network_queries() {
    let t = stl_swt_testbed();
    for po in ["PO-A", "PO-B", "PO-C"] {
        issue_sample_bl(&t, po);
    }
    let t = Arc::new(t);
    let mut handles = Vec::new();
    for (i, po) in ["PO-A", "PO-B", "PO-C"].iter().enumerate() {
        let t = Arc::clone(&t);
        let po = po.to_string();
        handles.push(std::thread::spawn(move || {
            let client_id = t
                .swt
                .register_client("seller-bank-org", &format!("sc-{i}"), true)
                .unwrap();
            let gateway = Gateway::new(Arc::clone(&t.swt), client_id);
            let client = InteropClient::new(gateway, Arc::clone(&t.swt_relay));
            // Each parallel client needs its own exposure rule? No: the
            // rule is per-organization, so all seller-bank clients pass.
            let remote = client
                .query_remote(
                    NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
                        .with_arg(po.as_bytes().to_vec()),
                    VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"])
                        .with_confidentiality(),
                )
                .unwrap();
            (po, remote.data)
        }));
    }
    for handle in handles {
        let (po, data) = handle.join().unwrap();
        let bl =
            <tdt::contracts::stl::BillOfLading as tdt::wire::codec::Message>::decode_from_slice(
                &data,
            )
            .unwrap();
        assert_eq!(bl.po_ref, po);
    }
}

/// Stress the pooled, multiplexed TCP transport: many client threads share
/// ONE `PooledTcpTransport` (capped at a single connection) against a
/// server whose handler sleeps a payload-controlled jitter, so replies
/// interleave out of order on the shared stream. Every reply must carry
/// its own request's payload back, and the pool counters must balance.
#[test]
fn multiplexed_tcp_transport_stress() {
    use tdt::relay::transport::{
        EnvelopeHandler, PooledTcpTransport, RelayTransport, TcpRelayServer,
    };
    use tdt::wire::messages::{EnvelopeKind, RelayEnvelope};
    const THREADS: u8 = 8;
    const REQUESTS: u8 = 6;

    struct JitteredEcho;
    impl EnvelopeHandler for JitteredEcho {
        fn handle(&self, envelope: RelayEnvelope) -> RelayEnvelope {
            // First payload byte selects a 0-3 tick sleep so completion
            // order scrambles relative to arrival order.
            let jitter = envelope.payload.first().copied().unwrap_or(0) % 4;
            std::thread::sleep(std::time::Duration::from_millis(jitter as u64 * 5));
            RelayEnvelope {
                kind: EnvelopeKind::QueryResponse,
                source_relay: "jittered-echo".into(),
                dest_network: envelope.dest_network,
                payload: envelope.payload,
                correlation_id: 0,
                trace: Default::default(),
                batch: Vec::new(),
            }
        }
    }

    let server = TcpRelayServer::spawn("127.0.0.1:0", Arc::new(JitteredEcho)).unwrap();
    let endpoint = server.endpoint();
    let transport = Arc::new(PooledTcpTransport::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let transport = Arc::clone(&transport);
            let endpoint = endpoint.clone();
            scope.spawn(move || {
                for i in 0..REQUESTS {
                    let payload = vec![t.wrapping_mul(7).wrapping_add(i), t, i];
                    let request = RelayEnvelope {
                        kind: EnvelopeKind::QueryRequest,
                        source_relay: format!("client-{t}"),
                        dest_network: "target".into(),
                        payload: payload.clone(),
                        correlation_id: 0,
                        trace: Default::default(),
                        batch: Vec::new(),
                    };
                    let reply = transport.send(&endpoint, &request).unwrap();
                    assert_eq!(reply.payload, payload, "reply crossed wires");
                    assert_eq!(reply.kind, EnvelopeKind::QueryResponse);
                }
            });
        }
    });
    let stats = transport.stats();
    assert_eq!(
        stats.connections_dialed(),
        1,
        "all threads must share the single pooled connection"
    );
    assert_eq!(
        stats.connections_reused(),
        (THREADS as u64 * REQUESTS as u64) - 1
    );
    assert_eq!(stats.requests_in_flight(), 0, "pool must drain");
    assert_eq!(stats.orphaned_replies(), 0, "no reply may go unclaimed");
    assert_eq!(server.connection_count(), 1);
    server.shutdown();
    assert_eq!(server.connection_count(), 0);
}

/// Stress the pooled relay: N client threads, M `query_remote` calls each,
/// all through one worker-pool relay on the STL side. Every proof must
/// validate (client-side and on-chain through the CMDAC, which exercises
/// the shared certificate-chain cache), the relay counters must add up,
/// and every replica in both networks must agree on its state hash.
#[test]
fn pooled_relay_stress_proofs_counters_replicas() {
    const CLIENTS: usize = 4;
    const QUERIES: usize = 3;
    let t = stl_swt_testbed();
    issue_sample_bl(&t, "PO-POOL");
    t.stl_relay.start_workers(4);
    let t = Arc::new(t);
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let t = Arc::clone(&t);
        handles.push(std::thread::spawn(move || {
            let identity = t
                .swt
                .register_client("seller-bank-org", &format!("stress-sc-{c}"), true)
                .unwrap();
            let gateway = Gateway::new(Arc::clone(&t.swt), identity);
            let client = InteropClient::new(gateway, Arc::clone(&t.swt_relay));
            for _ in 0..QUERIES {
                let remote = client
                    .query_remote(
                        NetworkAddress::new(
                            "stl",
                            "trade-channel",
                            "TradeLensCC",
                            "GetBillOfLading",
                        )
                        .with_arg(b"PO-POOL".to_vec()),
                        VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"])
                            .with_confidentiality(),
                    )
                    .unwrap();
                assert_eq!(remote.proof.attestations.len(), 2);
                // On-chain validation through the SWT CMDAC: hits the
                // shared cert-chain cache on every endorsing peer.
                let outcome = client
                    .gateway()
                    .submit(
                        CMDAC_NAME,
                        "ValidateProof",
                        vec![
                            b"stl".to_vec(),
                            BL_ADDRESS.as_bytes().to_vec(),
                            remote.proof_bytes(),
                        ],
                    )
                    .unwrap();
                assert!(outcome.code.is_valid());
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    let total = (CLIENTS * QUERIES) as u64;
    // The destination relay forwarded every query; the pooled source relay
    // enqueued, handled, and served every envelope, and is now drained.
    assert_eq!(t.swt_relay.stats().forwarded.load(Ordering::Relaxed), total);
    let stl_stats = t.stl_relay.stats().snapshot();
    assert_eq!(stl_stats.served, total);
    assert_eq!(stl_stats.enqueued, total);
    assert_eq!(stl_stats.handled, total);
    assert_eq!(stl_stats.deadline_exceeded, 0);
    assert_eq!(stl_stats.queue_depth, 0);
    assert_eq!(stl_stats.in_flight, 0);
    // The SWT CMDAC validated the same two endorser certificates for every
    // proof: after the first validations, the shared cache answers.
    let swt_stats = t.swt_relay.stats().snapshot();
    assert!(
        swt_stats.cache_hits > 0,
        "repeated endorser certs should hit the cache"
    );
    assert!(swt_stats.cache_misses >= 2);
    assert!(
        swt_stats.cache_hits > swt_stats.cache_misses,
        "hit rate too low: {} hits, {} misses",
        swt_stats.cache_hits,
        swt_stats.cache_misses
    );
    // Every replica in both networks agrees on the world state.
    for net in [&t.stl, &t.swt] {
        let hashes: Vec<[u8; 32]> = net.peers().map(|(_, p)| p.read().state_hash()).collect();
        assert!(
            hashes.windows(2).all(|w| w[0] == w[1]),
            "replica state hashes diverged on {:?}",
            net.name()
        );
    }
    t.stl_relay.stop_workers();
}
