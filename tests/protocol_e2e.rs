//! E4 — Fig. 4: the protocol instance behind Step 9, inspected in detail.
//!
//! Verifies the mechanics the figure depicts: ECC access checks and
//! response encryption on the STL peers, custom endorsement over metadata,
//! proof transport through both relays, client-side decryption, and
//! CMDAC-based validation inside the SWT transaction (with the nonce
//! recorded on the destination ledger).

use std::sync::Arc;
use tdt::contracts::swt::SwtChaincode;
use tdt::crypto::sha256::sha256;
use tdt::interop::setup::{issue_sample_bl, issue_sample_lc, stl_swt_testbed, Testbed};
use tdt::interop::{InteropClient, InteropError};
use tdt::wire::codec::Message;
use tdt::wire::messages::{decode_certificate, NetworkAddress, ResultMetadata, VerificationPolicy};

fn prepared() -> (Testbed, InteropClient) {
    let t = stl_swt_testbed();
    issue_sample_bl(&t, "PO-1001");
    issue_sample_lc(&t, "PO-1001");
    let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
    (t, client)
}

fn bl_address() -> NetworkAddress {
    NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
        .with_arg(b"PO-1001".to_vec())
}

fn policy() -> VerificationPolicy {
    VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality()
}

#[test]
fn proof_metadata_binds_query_and_result() {
    let (_t, client) = prepared();
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    let result_hash = sha256(&remote.data);
    for att in &remote.proof.attestations {
        let metadata = ResultMetadata::decode_from_slice(&att.metadata).unwrap();
        assert_eq!(metadata.request_id, remote.proof.request_id);
        assert_eq!(
            metadata.address,
            "stl:trade-channel:TradeLensCC:GetBillOfLading"
        );
        assert_eq!(metadata.nonce, remote.proof.nonce);
        assert_eq!(metadata.result_hash, result_hash.to_vec());
        assert!(metadata.ledger_height > 0);
        // The metadata's org matches the signing certificate.
        let cert = decode_certificate(&att.signer_cert).unwrap();
        assert_eq!(metadata.org_id, cert.subject().organization);
        assert_eq!(metadata.peer_id, cert.subject().qualified_name());
    }
}

#[test]
fn attestation_signatures_authentic_against_stl_roots() {
    let (t, client) = prepared();
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    for att in &remote.proof.attestations {
        let cert = decode_certificate(&att.signer_cert).unwrap();
        // Chains to the STL org's root exactly as the CMDAC would check.
        let org = t.stl.org(&cert.subject().organization).unwrap();
        cert.verify(&org.root_certificate()).unwrap();
        // Signature verifies over the plaintext metadata.
        let vk = cert.verifying_key().unwrap();
        let sig = tdt::crypto::schnorr::Signature::from_bytes(&att.signature).unwrap();
        vk.verify(&att.metadata, &sig).unwrap();
    }
}

#[test]
fn nonce_recorded_on_destination_ledger() {
    let (t, client) = prepared();
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    client
        .submit_with_remote_data(
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec()],
            &remote,
        )
        .unwrap()
        .into_committed()
        .unwrap();
    // Every SWT peer recorded the consumed nonce under the CMDAC namespace.
    let nonce_key = format!("nonce:stl:{}", tdt::crypto::hex_encode(&remote.proof.nonce));
    for (name, peer) in t.swt.peers() {
        assert!(
            peer.read().state().get("CMDAC", &nonce_key).is_some(),
            "nonce missing on {name}"
        );
    }
}

#[test]
fn swt_endorsement_policy_enforced_on_upload() {
    // The UploadDispatchDocs transaction needs one endorsement from each
    // bank org (paper §4.3). With all of one bank's peers down it cannot
    // be endorsed.
    let (t, client) = prepared();
    let remote = client.query_remote(bl_address(), policy()).unwrap();
    t.swt.faults().take_down("swt/buyer-bank-org/peer0");
    t.swt.faults().take_down("swt/buyer-bank-org/peer1");
    let err = client
        .submit_with_remote_data(
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec()],
            &remote,
        )
        .unwrap_err();
    assert!(matches!(err, InteropError::Fabric(_)));
    // Restore one buyer-bank peer: now it commits.
    t.swt.faults().restore("swt/buyer-bank-org/peer0");
    client
        .submit_with_remote_data(
            SwtChaincode::NAME,
            "UploadDispatchDocs",
            vec![b"PO-1001".to_vec()],
            &remote,
        )
        .unwrap()
        .into_committed()
        .unwrap();
}

#[test]
fn proof_rejected_when_policy_not_recorded_for_function() {
    // Querying a function with no recorded verification policy fails at
    // the Data Acceptance stage even if the source would serve it.
    let (t, client) = prepared();
    let address = NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetShipment")
        .with_arg(b"PO-1001".to_vec());
    // GetShipment does not encrypt its result, so the query runs with a
    // plaintext policy.
    let plaintext = VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]);
    // Without a rule the source refuses it...
    let err = client
        .query_remote(address.clone(), plaintext.clone())
        .unwrap_err();
    assert!(matches!(err, InteropError::AccessDenied(_)), "{err:?}");
    // ...and one rule exposes it.
    tdt::interop::config::add_exposure_rule(
        &t.stl_seller_gateway(),
        "swt",
        "seller-bank-org",
        "TradeLensCC",
        "GetShipment",
    )
    .unwrap();
    let remote = client.query_remote(address, plaintext).unwrap();
    // Direct CMDAC validation on SWT: no policy recorded for GetShipment.
    let err = t
        .swt_seller_gateway()
        .submit(
            "CMDAC",
            "ValidateProof",
            vec![
                b"stl".to_vec(),
                b"stl:trade-channel:TradeLensCC:GetShipment".to_vec(),
                remote.proof_bytes(),
            ],
        )
        .unwrap_err();
    assert!(err.to_string().contains("no verification policy"));
}
