//! E2 — Fig. 2: the architecture and 10-step message flow.
//!
//! Exercises the complete flow both through the production path (client →
//! relay → relay → driver → peers and back) and through the instrumented
//! harness that labels each protocol step.

use std::sync::Arc;
use tdt::contracts::stl::BillOfLading;
use tdt::contracts::swt::{LcStatus, LetterOfCredit, SwtChaincode};
use tdt::interop::flow::harness_for_testbed;
use tdt::interop::setup::{issue_sample_bl, stl_swt_testbed, Testbed};
use tdt::interop::InteropClient;
use tdt::wire::codec::Message;
use tdt::wire::messages::{NetworkAddress, VerificationPolicy};

fn prepared() -> Testbed {
    let t = stl_swt_testbed();
    issue_sample_bl(&t, "PO-1001");
    let buyer = t.swt_buyer_gateway();
    buyer
        .submit(
            SwtChaincode::NAME,
            "RequestLC",
            vec![
                b"PO-1001".to_vec(),
                b"LC-1".to_vec(),
                b"buyer".to_vec(),
                b"seller".to_vec(),
                b"100000".to_vec(),
            ],
        )
        .unwrap()
        .into_committed()
        .unwrap();
    buyer
        .submit(SwtChaincode::NAME, "IssueLC", vec![b"PO-1001".to_vec()])
        .unwrap()
        .into_committed()
        .unwrap();
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

#[test]
fn traced_steps_cover_figure_two() {
    let t = prepared();
    let harness = harness_for_testbed(&t);
    let traced = harness
        .run_traced(
            bl_address(),
            policy(),
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec()],
        )
        .unwrap();
    let labels: Vec<&str> = traced.steps.iter().map(|s| s.step).collect();
    assert_eq!(labels, vec!["1", "2", "3", "4", "5-7", "8", "9", "10"]);
    assert!(traced.outcome.code.is_valid());
    // Proof collection (Steps 5-7) and the destination transaction
    // (Step 10) dominate; serialization steps are comparatively trivial.
    let get = |label: &str| {
        traced
            .steps
            .iter()
            .find(|s| s.step == label)
            .unwrap()
            .duration
    };
    assert!(get("5-7") > get("3"));
    assert!(get("10") > get("8"));
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
