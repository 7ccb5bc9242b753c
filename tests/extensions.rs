//! The paper's future-work extensions (§5/§7) end to end: cross-network
//! invocations (ledger updates with commitment receipts) and cross-network
//! event subscription.

use std::sync::Arc;
use std::time::Duration;
use tdt::crypto::certcache::CertChainCache;
use tdt::interop::events::{verify_event_notice, FabricEventSource};
use tdt::interop::setup::{issue_sample_bl, stl_swt_testbed, Testbed};
use tdt::interop::{InteropClient, InteropError};
use tdt::wire::codec::Message;
use tdt::wire::messages::{AuthInfo, NetworkAddress, ResultMetadata, VerificationPolicy};

fn policy() -> VerificationPolicy {
    VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality()
}

fn financing_address(po: &str, status: &str) -> NetworkAddress {
    NetworkAddress::new(
        "stl",
        "trade-channel",
        "TradeLensCC",
        "RecordFinancingStatus",
    )
    .with_arg(po.as_bytes().to_vec())
    .with_arg(status.as_bytes().to_vec())
}

fn allow_invocation(t: &Testbed) {
    tdt::interop::config::add_exposure_rule(
        &t.stl_seller_gateway(),
        "swt",
        "seller-bank-org",
        "TradeLensCC",
        "RecordFinancingStatus",
    )
    .unwrap();
}

#[test]
fn cross_network_invocation_commits_with_receipt() {
    let t = stl_swt_testbed();
    issue_sample_bl(&t, "PO-1001");
    allow_invocation(&t);
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let remote = client
        .invoke_remote(financing_address("PO-1001", "lc-issued"), policy())
        .unwrap();
    // The decrypted acknowledgement.
    assert_eq!(remote.data, b"recorded:lc-issued");
    // The receipt metadata carries the committed block and txid.
    for att in &remote.proof.attestations {
        let md = ResultMetadata::decode_from_slice(&att.metadata).unwrap();
        assert!(md.committed_block().is_some());
        assert!(md.txid.starts_with("relay-"));
    }
    // The write actually committed on every STL peer.
    for (name, peer) in t.stl.peers() {
        let value = peer
            .read()
            .state()
            .get("TradeLensCC", "financing:PO-1001")
            .unwrap_or_else(|| panic!("financing status missing on {name}"))
            .value
            .clone();
        assert_eq!(value, b"lc-issued");
    }
    // And the status is queryable locally.
    let status = t
        .stl_seller_gateway()
        .query(
            "TradeLensCC",
            "GetFinancingStatus",
            vec![b"PO-1001".to_vec()],
        )
        .unwrap();
    assert_eq!(status, b"lc-issued");
}

#[test]
fn invocation_without_exposure_rule_denied() {
    let t = stl_swt_testbed();
    issue_sample_bl(&t, "PO-1001");
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let err = client
        .invoke_remote(financing_address("PO-1001", "x"), policy())
        .unwrap_err();
    assert!(matches!(err, InteropError::AccessDenied(_)));
    // Nothing was written.
    for (_, peer) in t.stl.peers() {
        assert!(peer
            .read()
            .state()
            .get("TradeLensCC", "financing:PO-1001")
            .is_none());
    }
}

#[test]
fn invocation_flag_covered_by_auth_signature() {
    // A malicious relay cannot upgrade a signed read-only query into a
    // write: the invocation flag is inside the signed bytes.
    let t = stl_swt_testbed();
    issue_sample_bl(&t, "PO-1001");
    allow_invocation(&t);
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let mut query = client.build_query(financing_address("PO-1001", "evil"), policy());
    assert!(!query.invocation);
    query.invocation = true; // flipped in transit
    let driver = tdt::interop::driver::FabricDriver::new(Arc::clone(&t.stl));
    use tdt::relay::driver::NetworkDriver;
    let err = driver.execute_query(&query).unwrap_err();
    assert!(err.to_string().contains("authentication"));
    for (_, peer) in t.stl.peers() {
        assert!(peer
            .read()
            .state()
            .get("TradeLensCC", "financing:PO-1001")
            .is_none());
    }
}

#[test]
fn invocation_for_missing_shipment_fails() {
    let t = stl_swt_testbed();
    allow_invocation(&t);
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let err = client
        .invoke_remote(financing_address("PO-GHOST", "x"), policy())
        .unwrap_err();
    assert!(matches!(err, InteropError::NotFound(_)));
}

#[test]
fn event_subscription_across_networks() {
    let t = stl_swt_testbed();
    t.stl_relay
        .register_event_source(Arc::new(FabricEventSource::new(Arc::clone(&t.stl))));
    let auth = AuthInfo {
        network_id: "swt".into(),
        organization_id: "seller-bank-org".into(),
        certificate: tdt::wire::messages::encode_certificate(t.swt_seller_client.certificate()),
        signature: Vec::new(),
    };
    let rx = t.swt_relay.subscribe_remote_events("stl", auth).unwrap();
    // Drive STL activity; the SWT side observes attested block events.
    issue_sample_bl(&t, "PO-555");
    let stl_config = t.stl.network_config();
    let cache = CertChainCache::new();
    let mut blocks = Vec::new();
    for _ in 0..4 {
        let notice = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        verify_event_notice(&notice, &stl_config, &cache).unwrap();
        blocks.push(notice.block_number);
    }
    // Four consecutive blocks (the testbed's init transactions already
    // occupied the first block numbers before the subscription).
    assert!(blocks.windows(2).all(|w| w[1] == w[0] + 1));
    assert_eq!(blocks.len(), 4);
}
