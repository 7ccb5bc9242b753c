//! The paper's future-work features (§5/§7), working end to end:
//! a cross-network *invocation* (ledger update with a commitment receipt)
//! and a cross-network *event subscription* with peer-attested notices.
//!
//! Run with: `cargo run --example invocation_and_events`

use std::sync::Arc;
use std::time::Duration;
use tdt::crypto::certcache::CertChainCache;
use tdt::interop::events::{verify_event_notice, FabricEventSource};
use tdt::interop::setup::{issue_sample_bl, stl_swt_testbed};
use tdt::interop::InteropClient;
use tdt::wire::codec::Message;
use tdt::wire::messages::{AuthInfo, NetworkAddress, ResultMetadata, VerificationPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("building the STL/SWT testbed...");
    let t = stl_swt_testbed();

    // --- Cross-network events -------------------------------------------
    println!("\nsubscribing SWT to STL block events through the relays...");
    t.stl_relay
        .register_event_source(Arc::new(FabricEventSource::new(Arc::clone(&t.stl))));
    let auth = AuthInfo {
        network_id: "swt".into(),
        organization_id: "seller-bank-org".into(),
        certificate: tdt::wire::messages::encode_certificate(t.swt_seller_client.certificate()),
        signature: Vec::new(),
    };
    let events = t.swt_relay.subscribe_remote_events("stl", auth)?;

    println!("driving STL shipment activity for PO-1001...");
    issue_sample_bl(&t, "PO-1001");
    let stl_config = t.stl.network_config();
    let cache = CertChainCache::new();
    for _ in 0..4 {
        let notice = events.recv_timeout(Duration::from_secs(5))?;
        verify_event_notice(&notice, &stl_config, &cache)?;
        println!(
            "  event: STL block {} ({} tx, attested by a recorded STL peer)",
            notice.block_number,
            notice.txids.len()
        );
    }

    // --- Cross-network invocation ---------------------------------------
    println!("\ngranting SWT's seller bank write access to RecordFinancingStatus...");
    tdt::interop::config::add_exposure_rule(
        &t.stl_seller_gateway(),
        "swt",
        "seller-bank-org",
        "TradeLensCC",
        "RecordFinancingStatus",
    )?;
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    let address = NetworkAddress::new(
        "stl",
        "trade-channel",
        "TradeLensCC",
        "RecordFinancingStatus",
    )
    .with_arg(b"PO-1001".to_vec())
    .with_arg(b"lc-issued".to_vec());
    let policy =
        VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality();
    println!("invoking RecordFinancingStatus on STL from SWT...");
    let remote = client.invoke_remote(address, policy)?;
    println!(
        "  acknowledgement (decrypted): {:?}",
        String::from_utf8_lossy(&remote.data)
    );
    let receipt = ResultMetadata::decode_from_slice(&remote.proof.attestations[0].metadata)?;
    println!(
        "  receipt: tx {} committed in STL block {} ({} attestations)",
        receipt.txid,
        receipt.committed_block().unwrap(),
        remote.proof.attestations.len()
    );
    let status = t.stl_seller_gateway().query(
        "TradeLensCC",
        "GetFinancingStatus",
        vec![b"PO-1001".to_vec()],
    )?;
    println!(
        "  STL ledger now records financing status: {:?}",
        String::from_utf8_lossy(&status)
    );
    println!("\ndone: both future-work features of the paper ran end to end.");
    Ok(())
}
