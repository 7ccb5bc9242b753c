//! E2/E17 — Fig. 2: the architecture and 10-step message flow.
//!
//! Exercises the complete flow through the production path (client →
//! relay → relay → driver → peers and back, in-process and over TCP) and
//! checks that one installed trace root sees Steps 1-10 as one span tree.

use std::collections::HashMap;
use std::sync::Arc;
use tdt::contracts::stl::BillOfLading;
use tdt::contracts::swt::{LcStatus, LetterOfCredit, SwtChaincode};
use tdt::interop::setup::{issue_sample_bl, issue_sample_lc, stl_swt_testbed, Testbed};
use tdt::interop::InteropClient;
use tdt::obs::span::{self as obs_span, SpanRecord};
use tdt::obs::TraceContext;
use tdt::wire::codec::Message;
use tdt::wire::messages::{NetworkAddress, VerificationPolicy};

fn prepared() -> Testbed {
    let t = stl_swt_testbed();
    issue_sample_bl(&t, "PO-1001");
    issue_sample_lc(&t, "PO-1001");
    t
}

fn bl_address() -> NetworkAddress {
    NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
        .with_arg(b"PO-1001".to_vec())
}

fn policy() -> VerificationPolicy {
    VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality()
}

#[test]
fn production_path_through_relays() {
    let t = prepared();
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    // The relay pair was actually used.
    assert_eq!(
        t.swt_relay
            .stats()
            .forwarded
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert_eq!(
        t.stl_relay
            .stats()
            .served
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // Step 10: the proof-carrying transaction commits on SWT.
    let outcome = client
        .submit_with_remote_data(
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec()],
            &remote,
        )
        .unwrap();
    assert!(outcome.code.is_valid());
    // Every SWT peer holds the same verified B/L.
    for (_, peer) in t.swt.peers() {
        let peer = peer.read();
        let lc_bytes = peer
            .state()
            .get(SwtChaincode::NAME, "lc:PO-1001")
            .expect("L/C present on every peer");
        let lc = LetterOfCredit::decode_from_slice(&lc_bytes.value).unwrap();
        assert_eq!(lc.status, LcStatus::DocsUploaded);
        assert_eq!(lc.bl, remote.data);
    }
}

/// Steps 1-9 (`query_remote`) and Step 10 (`submit_with_remote_data`)
/// under one installed root land in one connected span tree.
#[test]
fn traced_steps_cover_figure_two() {
    let t = prepared();
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let root = TraceContext::root();
    let outcome = {
        let _guard = root.install();
        let remote = client.query_remote(bl_address(), policy()).unwrap();
        client
            .submit_with_remote_data(
                SwtChaincode::NAME,
                "UploadDispatchDocs",
                vec![b"PO-1001".to_vec()],
                &remote,
            )
            .unwrap()
    };
    assert!(outcome.code.is_valid());
    let lc = client
        .gateway()
        .query(SwtChaincode::NAME, "GetLC", vec![b"PO-1001".to_vec()])
        .unwrap();
    let lc = LetterOfCredit::decode_from_slice(&lc).unwrap();
    assert_eq!(lc.status, LcStatus::DocsUploaded);

    let spans = obs_span::spans_for_trace(root.trace_hi, root.trace_lo);
    let parents: HashMap<u64, u64> = spans
        .iter()
        .map(|s| (s.span_id, s.parent_span_id))
        .collect();
    for span in &spans {
        assert!(
            span.parent_span_id == root.span_id || parents.contains_key(&span.parent_span_id),
            "orphan span {:?}",
            span.name
        );
    }
    let named =
        |name: &str| -> Vec<&SpanRecord> { spans.iter().filter(|s| s.name == name).collect() };
    for name in [
        "client.query_remote",
        "relay.query",
        "transport.send",
        "relay.handle",
        "driver.execute",
        "proof.verify",
        "client.submit",
    ] {
        assert!(!named(name).is_empty(), "no {name} span");
    }
    assert!(named("contract.execute").len() >= 2);
    assert!(named("peer.endorse").len() >= 2);

    // Step 10's CMDAC `ValidateProof` runs under `client.submit`, which
    // opens only after the client has verified the proof.
    let submit = named("client.submit")[0];
    let verify = named("proof.verify")[0];
    assert!(verify.end_nanos <= submit.start_nanos);
    let under_submit = |mut id: u64| {
        while let Some(&parent) = parents.get(&id) {
            if parent == submit.span_id {
                return true;
            }
            id = parent;
        }
        false
    };
    assert!(named("contract.execute")
        .iter()
        .any(|s| under_submit(s.span_id)));
}

#[test]
fn result_is_correct_bl() {
    let t = prepared();
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    let bl = BillOfLading::decode_from_slice(&remote.data).unwrap();
    assert_eq!(bl.po_ref, "PO-1001");
    assert_eq!(bl.bl_id, "BL-PO-1001");
    // Matches the B/L as read locally on STL.
    let local = t
        .stl_seller_gateway()
        .query("TradeLensCC", "GetBillOfLading", vec![b"PO-1001".to_vec()])
        .unwrap();
    assert_eq!(remote.data, local);
}

#[test]
fn tcp_relays_carry_the_same_flow() {
    use tdt::interop::driver::FabricDriver;
    use tdt::relay::discovery::{DiscoveryService, StaticRegistry};
    use tdt::relay::service::RelayService;
    use tdt::relay::transport::{
        EnvelopeHandler, PooledTcpTransport, RelayTransport, TcpRelayServer,
    };
    let t = prepared();
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
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    let outcome = client
        .submit_with_remote_data(
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec()],
            &remote,
        )
        .unwrap();
    assert!(outcome.code.is_valid());
    server.shutdown();
}

#[test]
fn proof_carries_one_attestation_per_policy_org() {
    let t = prepared();
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    assert_eq!(remote.proof.attestations.len(), 2);
    let mut orgs: Vec<String> = remote
        .proof
        .attestations
        .iter()
        .map(|a| {
            tdt::wire::messages::decode_certificate(&a.signer_cert)
                .unwrap()
                .subject()
                .organization
                .clone()
        })
        .collect();
    orgs.sort();
    assert_eq!(orgs, vec!["carrier-org", "seller-org"]);
}
