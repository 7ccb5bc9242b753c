//! Regenerates the Fig. 2 / Fig. 4 protocol trace: the 10-step message
//! flow as one span tree with real timestamps, run over the standard
//! testbed.
//!
//! Run with: `cargo run --example message_flow_trace`

use std::collections::BTreeSet;
use std::sync::Arc;
use tdt::contracts::swt::SwtChaincode;
use tdt::interop::setup::{issue_sample_bl, issue_sample_lc, stl_swt_testbed};
use tdt::interop::InteropClient;
use tdt::obs::span as obs_span;
use tdt::obs::{waterfall, TraceContext};
use tdt::wire::messages::{NetworkAddress, VerificationPolicy};

/// Which Fig. 2 steps each span covers.
const LEGEND: &[(&str, &str)] = &[
    (
        "client.query_remote",
        "1-9   client builds and signs the query, gets the proof",
    ),
    (
        "relay.query",
        "2-3   local relay: discovery lookup, forward request",
    ),
    (
        "transport.send",
        "3, 8  request and reply between the relays",
    ),
    (
        "relay.handle",
        "4, 8  source relay: decode, dispatch, encode reply",
    ),
    (
        "driver.execute",
        "5     driver queries the peers the policy names",
    ),
    (
        "contract.execute",
        "6, 10 chaincode: ECC check (6), UploadDispatchDocs + CMDAC (10)",
    ),
    (
        "peer.endorse",
        "7     interop plugin attests (signs, encrypts) the result",
    ),
    (
        "proof.verify",
        "9     client decrypts and verifies the proof",
    ),
    (
        "client.submit",
        "10    local transaction with data and proof",
    ),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("building the STL/SWT testbed...");
    let testbed = stl_swt_testbed();
    issue_sample_bl(&testbed, "PO-1001");
    issue_sample_lc(&testbed, "PO-1001");

    // One trace context travels from the client across both relays into
    // the source network's contracts and back into the local transaction,
    // so every hop of Steps 1-10 lands in one tree.
    println!("executing the Fig. 2 message flow under one trace...\n");
    let client = InteropClient::new(testbed.swt_seller_gateway(), Arc::clone(&testbed.swt_relay));
    let address = NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
        .with_arg(b"PO-1001".to_vec());
    let policy =
        VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality();
    let root = TraceContext::root();
    let (remote, outcome) = {
        let _guard = root.install();
        let remote = client.query_remote(address, policy)?;
        let outcome = client.submit_with_remote_data(
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec()],
            &remote,
        )?;
        (remote, outcome)
    };
    let spans = obs_span::spans_for_trace(root.trace_hi, root.trace_lo);
    print!("{}", waterfall::render(&spans));

    println!("\nspan                 Fig. 2 steps");
    for (name, steps) in LEGEND {
        println!("{name:<20} {steps}");
    }
    let hops: BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    println!(
        "\n{} spans across {} distinct hops",
        spans.len(),
        hops.len()
    );
    println!("transaction outcome: {:?}", outcome.code);
    println!(
        "proof: {} attestations, result {} bytes (encrypted in transit)",
        remote.proof.attestations.len(),
        remote.data.len()
    );
    let missing: Vec<&str> = LEGEND
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !hops.contains(name))
        .collect();
    if !missing.is_empty() {
        return Err(format!("no span for {missing:?}").into());
    }
    Ok(())
}
