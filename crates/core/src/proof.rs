//! Client-side response processing (paper §4.3): decrypt the result and
//! proof metadata, pre-verify the attestations, and assemble the
//! [`Proof`] that will be passed as a transaction argument to the local
//! chaincode (which re-validates everything through the CMDAC — the
//! client-side check is an early filter, not the trust root).

use crate::error::InteropError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tdt_contracts::foreign::{self, Decoded, Expected, Reason};
use tdt_crypto::elgamal::{Ciphertext, DecryptionKey};
use tdt_crypto::sha256::sha256;
use tdt_fabric::msp::Identity;
use tdt_obs::par;
use tdt_wire::messages::{Attestation, Proof, Query, QueryResponse, ResponseStatus};

/// Decrypts, verifies, and repackages a query response into a [`Proof`].
///
/// # Errors
///
/// * [`InteropError::AccessDenied`] / [`InteropError::NotFound`] /
///   [`InteropError::PolicyUnsatisfiable`] mirroring the response status.
/// * [`InteropError::MissingDecryptionKey`] when the response is
///   confidential but `identity` has no decryption key.
/// * [`InteropError::InvalidResponse`] when decryption fails, a signature
///   does not verify, metadata is inconsistent with the query, or the
///   attesting organizations do not satisfy the verification policy.
pub fn process_response(
    identity: &Identity,
    query: &Query,
    response: &QueryResponse,
) -> Result<Proof, InteropError> {
    match response.status {
        ResponseStatus::Ok => {}
        ResponseStatus::AccessDenied => {
            return Err(InteropError::AccessDenied(response.error.clone()))
        }
        ResponseStatus::NotFound => return Err(InteropError::NotFound(response.error.clone())),
        ResponseStatus::PolicyUnsatisfiable => {
            return Err(InteropError::PolicyUnsatisfiable(response.error.clone()))
        }
        ResponseStatus::Error => return Err(InteropError::InvalidResponse(response.error.clone())),
    }
    if response.request_id != query.request_id {
        return Err(InteropError::InvalidResponse(format!(
            "response for {:?} does not answer request {:?}",
            response.request_id, query.request_id
        )));
    }
    // Decrypt the result.
    let result_plain = if response.result_encrypted {
        let dk = identity
            .decryption_key()
            .ok_or(InteropError::MissingDecryptionKey)?;
        let ct = Ciphertext::from_bytes(&response.result)
            .map_err(|e| InteropError::InvalidResponse(format!("result ciphertext: {e}")))?;
        dk.decrypt(&ct)
            .map_err(|e| InteropError::InvalidResponse(format!("result decryption: {e}")))?
    } else {
        response.result.clone()
    };
    let address = query.address.display_name();
    let expected = Expected {
        request_id: &query.request_id,
        address: &address,
        nonce: &query.nonce,
        result_hash: sha256(&result_plain),
    };
    let attestations = decode_attestations(identity, &response.attestations, None)?;
    foreign::verify_attestations(&expected, &attestations, &query.policy.expression)?;
    Ok(Proof {
        request_id: query.request_id.clone(),
        address,
        nonce: query.nonce.clone(),
        result: result_plain,
        attestations: attestations
            .into_iter()
            .zip(&response.attestations)
            .map(|(decoded, att)| Attestation {
                signer_cert: att.signer_cert.clone(),
                signature: att.signature.clone(),
                metadata: decoded.bytes,
                metadata_encrypted: false,
            })
            .collect(),
    })
}

/// Decodes every attestation, decrypting its metadata when it is
/// encrypted. The decryptions are the per-item hot spot, split over
/// `workers` threads (`None`: as many as they are worth — two modp768
/// decryptions are worth none). Results come back in attestation order, so
/// the error returned is the first one in that order whatever the split.
///
/// The client holds no root for the foreign network (the CMDAC does the
/// authenticating), so each signer key is decoded from its certificate,
/// at one Legendre symbol each, and verified table-less: the client is
/// short-lived and sees varying endorser keys.
fn decode_attestations(
    identity: &Identity,
    attestations: &[Attestation],
    workers: Option<usize>,
) -> Result<Vec<Decoded<Vec<u8>>>, InteropError> {
    let decode = |(i, att): (usize, &Attestation)| -> Result<Decoded<Vec<u8>>, InteropError> {
        let plain = if att.metadata_encrypted {
            let dk = identity
                .decryption_key()
                .ok_or(InteropError::MissingDecryptionKey)?;
            let ct = Ciphertext::from_bytes(&att.metadata).map_err(|e| {
                InteropError::InvalidResponse(format!("attestation {i} ciphertext: {e}"))
            })?;
            dk.decrypt(&ct).map_err(|e| {
                InteropError::InvalidResponse(format!("attestation {i} decryption: {e}"))
            })?
        } else {
            att.metadata.clone()
        };
        Decoded::new(att, plain, |cert| match cert.verifying_key() {
            Ok(key) => Ok((key, None)),
            Err(e) => Err(Reason::Malformed(format!("key: {e}")).into()),
        })
        .map_err(|r| r.at(i).into())
    };
    let decrypt_weight = identity
        .decryption_key()
        .map_or(0, DecryptionKey::decrypt_weight);
    let (decoded, ()) = par::map_chunks(
        attestations.iter().enumerate().collect(),
        workers,
        |(_, att)| usize::from(att.metadata_encrypted) * decrypt_weight,
        |run| {
            // A panicking decoder must not take the client down with it:
            // its run fails closed instead.
            let incomplete =
                || InteropError::InvalidResponse("attestation decoding did not complete".into());
            catch_unwind(AssertUnwindSafe(|| run.into_iter().map(decode).collect()))
                .unwrap_or_else(|_| vec![Err(incomplete())])
        },
        || (),
    );
    decoded.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{query_auth_bytes, FabricDriver};
    use crate::setup::{issue_sample_bl, stl_swt_testbed, Testbed};
    use std::sync::Arc;
    use tdt_relay::driver::NetworkDriver;
    use tdt_wire::codec::Message;
    use tdt_wire::messages::{AuthInfo, NetworkAddress, ResultMetadata, VerificationPolicy};

    struct Fixture {
        testbed: Testbed,
        driver: FabricDriver,
    }

    fn fixture() -> Fixture {
        let testbed = stl_swt_testbed();
        issue_sample_bl(&testbed, "PO-1001");
        let driver = FabricDriver::new(Arc::clone(&testbed.stl));
        Fixture { testbed, driver }
    }

    fn query_and_response(f: &Fixture) -> (Query, QueryResponse) {
        let client = &f.testbed.swt_seller_client;
        let mut query = Query {
            request_id: "req-9".into(),
            address: NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
                .with_arg(b"PO-1001".to_vec()),
            policy: VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"])
                .with_confidentiality(),
            auth: AuthInfo {
                network_id: "swt".into(),
                organization_id: "seller-bank-org".into(),
                certificate: tdt_wire::messages::encode_certificate(client.certificate()),
                signature: Vec::new(),
            },
            nonce: vec![8; 16],
            invocation: false,
        };
        query.auth.signature = client
            .signing_key()
            .sign(&query_auth_bytes(&query))
            .to_bytes();
        let response = f.driver.execute_query(&query).unwrap();
        (query, response)
    }

    #[test]
    fn valid_response_yields_proof() {
        let f = fixture();
        let (query, response) = query_and_response(&f);
        let proof = process_response(&f.testbed.swt_seller_client, &query, &response).unwrap();
        assert_eq!(proof.request_id, "req-9");
        assert_eq!(proof.attestations.len(), 2);
        assert!(proof.attestations.iter().all(|a| !a.metadata_encrypted));
        let bl = <tdt_contracts::stl::BillOfLading as Message>::decode_from_slice(&proof.result)
            .unwrap();
        assert_eq!(bl.po_ref, "PO-1001");
    }

    #[test]
    fn first_failing_attestation_is_reported_for_any_worker_count() {
        let f = fixture();
        let (_, response) = query_and_response(&f);
        let client = &f.testbed.swt_seller_client;
        let atts: Vec<Attestation> = response
            .attestations
            .iter()
            .cycle()
            .take(8)
            .cloned()
            .collect();
        assert!(atts.iter().all(|a| a.metadata_encrypted));
        let clean = decode_attestations(client, &atts, Some(1)).unwrap();
        for first in 0..atts.len() {
            for second in first..atts.len() {
                // Two flipped body bytes, one per attestation (both in one
                // when `first == second`), each failing its MAC.
                let mut bad = atts.clone();
                for (at, back) in [(first, 1), (second, 2)] {
                    let index = bad[at].metadata.len() - back;
                    bad[at].metadata[index] ^= 0x01;
                }
                for workers in 1..=atts.len() {
                    let decoded = decode_attestations(client, &atts, Some(workers)).unwrap();
                    let order = |d: &[Decoded<Vec<u8>>]| -> Vec<Vec<u8>> {
                        d.iter().map(|d| d.bytes.clone()).collect()
                    };
                    assert_eq!(order(&decoded), order(&clean), "{workers} workers");
                    match decode_attestations(client, &bad, Some(workers)) {
                        Err(InteropError::InvalidResponse(m)) => assert!(
                            m.starts_with(&format!("attestation {first} decryption")),
                            "{workers} workers, {first} and {second} bad: {m}"
                        ),
                        other => panic!("{workers} workers: {:?}", other.err()),
                    }
                }
            }
        }
    }

    #[test]
    fn two_decryptions_run_inline() {
        let f = fixture();
        let dk = f.testbed.swt_seller_client.decryption_key().unwrap();
        assert_eq!(par::workers_for(2 * dk.decrypt_weight(), 2), 1);
    }

    #[test]
    fn wrong_identity_cannot_decrypt() {
        let f = fixture();
        let (query, response) = query_and_response(&f);
        // The buyer has no decryption key at all.
        let err = process_response(&f.testbed.swt_buyer, &query, &response).unwrap_err();
        assert_eq!(err, InteropError::MissingDecryptionKey);
        // An identity with a *different* decryption key fails the MAC.
        let other = f
            .testbed
            .swt
            .register_client("seller-bank-org", "other-client", true)
            .unwrap();
        let err = process_response(&other, &query, &response).unwrap_err();
        assert!(matches!(err, InteropError::InvalidResponse(_)));
    }

    #[test]
    fn tampered_result_detected() {
        let f = fixture();
        let (query, mut response) = query_and_response(&f);
        // A malicious relay flips ciphertext bits.
        let last = response.result.len() - 1;
        response.result[last] ^= 0xff;
        let err = process_response(&f.testbed.swt_seller_client, &query, &response).unwrap_err();
        assert!(matches!(err, InteropError::InvalidResponse(_)));
    }

    #[test]
    fn swapped_attestation_signature_detected() {
        let f = fixture();
        let (query, mut response) = query_and_response(&f);
        let sig0 = response.attestations[0].signature.clone();
        response.attestations[0].signature = response.attestations[1].signature.clone();
        response.attestations[1].signature = sig0;
        let err = process_response(&f.testbed.swt_seller_client, &query, &response).unwrap_err();
        assert!(matches!(err, InteropError::InvalidResponse(_)));
    }

    #[test]
    fn dropped_attestation_fails_policy_precheck() {
        let f = fixture();
        let (query, mut response) = query_and_response(&f);
        response.attestations.truncate(1);
        let err = process_response(&f.testbed.swt_seller_client, &query, &response).unwrap_err();
        assert!(matches!(err, InteropError::InvalidResponse(m) if m.contains("policy")));
    }

    #[test]
    fn duplicated_attestation_rejected() {
        let f = fixture();
        let (query, mut response) = query_and_response(&f);
        let copy = response.attestations[0].clone();
        response.attestations.push(copy);
        let err = process_response(&f.testbed.swt_seller_client, &query, &response).unwrap_err();
        assert!(
            matches!(&err, InteropError::InvalidResponse(m) if m.contains("duplicate")),
            "{err}"
        );
    }

    #[test]
    fn attestation_claiming_another_org_rejected() {
        let f = fixture();
        let (query, mut response) = query_and_response(&f);
        // A seller-org peer signs metadata that claims carrier-org, in
        // place of the carrier's own attestation.
        let proof = process_response(&f.testbed.swt_seller_client, &query, &response).unwrap();
        let (index, metadata) = proof
            .attestations
            .iter()
            .map(|a| ResultMetadata::decode_from_slice(&a.metadata).unwrap())
            .enumerate()
            .find(|(_, md)| md.org_id == "carrier-org")
            .unwrap();
        let (_, seller_peer) = f.testbed.stl.available_peer("seller-org").unwrap();
        let seller_peer = seller_peer.read();
        let bytes = metadata.encode_to_vec();
        response.attestations[index] = Attestation {
            signer_cert: tdt_wire::messages::encode_certificate(
                seller_peer.identity().certificate(),
            ),
            signature: seller_peer.identity().sign(&bytes).to_bytes(),
            metadata: bytes,
            metadata_encrypted: false,
        };
        let err = process_response(&f.testbed.swt_seller_client, &query, &response).unwrap_err();
        assert!(
            matches!(&err, InteropError::InvalidResponse(m) if m.contains("org id")),
            "{err}"
        );
    }

    #[test]
    fn empty_attestations_rejected() {
        let f = fixture();
        let (query, mut response) = query_and_response(&f);
        response.attestations.clear();
        assert!(matches!(
            process_response(&f.testbed.swt_seller_client, &query, &response),
            Err(InteropError::InvalidResponse(_))
        ));
    }

    #[test]
    fn mismatched_request_id_rejected() {
        let f = fixture();
        let (mut query, response) = query_and_response(&f);
        query.request_id = "other-request".into();
        assert!(matches!(
            process_response(&f.testbed.swt_seller_client, &query, &response),
            Err(InteropError::InvalidResponse(_))
        ));
    }

    #[test]
    fn error_statuses_mapped() {
        let f = fixture();
        let (query, _) = query_and_response(&f);
        for (status, matcher) in [
            (ResponseStatus::AccessDenied, "denied"),
            (ResponseStatus::NotFound, "not found"),
            (ResponseStatus::PolicyUnsatisfiable, "unsatisfiable"),
            (ResponseStatus::Error, "invalid"),
        ] {
            let response = QueryResponse {
                request_id: query.request_id.clone(),
                status,
                error: "boom".into(),
                ..Default::default()
            };
            let err =
                process_response(&f.testbed.swt_seller_client, &query, &response).unwrap_err();
            assert!(
                err.to_string().contains(matcher),
                "{status:?} -> {err} should contain {matcher:?}"
            );
        }
    }
}
