//! Client-side response processing (paper §4.3): decrypt the result and
//! proof metadata, pre-verify the attestations, and assemble the
//! [`Proof`] that will be passed as a transaction argument to the local
//! chaincode (which re-validates everything through the CMDAC — the
//! client-side check is an early filter, not the trust root).

use crate::error::InteropError;
use tdt_crypto::elgamal::Ciphertext;
use tdt_crypto::sha256::sha256;
use tdt_fabric::msp::Identity;
use tdt_wire::codec::Message;
use tdt_wire::messages::{
    decode_certificate, Attestation, Proof, Query, QueryResponse, ResponseStatus, ResultMetadata,
};

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
    let result_hash = sha256(&result_plain);
    let expected_address = query.address.display_name();

    if response.attestations.is_empty() {
        return Err(InteropError::InvalidResponse(
            "response carries no attestations".into(),
        ));
    }
    let verified = verify_attestations(identity, query, &expected_address, &result_hash, response)?;
    let mut plain_attestations = Vec::with_capacity(response.attestations.len());
    let mut endorsing_orgs: Vec<String> = Vec::new();
    for (org_id, attestation) in verified {
        if !endorsing_orgs.contains(&org_id) {
            endorsing_orgs.push(org_id);
        }
        plain_attestations.push(attestation);
    }
    // Pre-check the verification policy locally.
    if !query.policy.expression.is_satisfied(&endorsing_orgs) {
        return Err(InteropError::InvalidResponse(format!(
            "attesting orgs {endorsing_orgs:?} do not satisfy the verification policy"
        )));
    }
    Ok(Proof {
        request_id: query.request_id.clone(),
        address: expected_address,
        nonce: query.nonce.clone(),
        result: result_plain,
        attestations: plain_attestations,
    })
}

/// One attestation after the cheap-per-item phase: decrypted, decoded, and
/// consistency-checked, with its signature still unverified.
struct PreparedAttestation {
    org_id: String,
    metadata_plain: Vec<u8>,
    verifying_key: tdt_crypto::schnorr::VerifyingKey,
    signature: tdt_crypto::schnorr::Signature,
    repacked: Attestation,
}

/// Verifies every attestation in two phases: a parallel preparation pass
/// (metadata decryption, certificate/signature decoding, consistency
/// checks — the ElGamal decryption is the per-item hot spot) followed by a
/// single randomized batch verification of all Schnorr signatures
/// ([`tdt_crypto::schnorr::batch_verify`], which parallelizes its own
/// multi-exponentiations and bisects to the offending index on failure).
///
/// Preparation results come back in attestation order, so callers observe
/// exactly the error the old sequential loop produced regardless of
/// thread scheduling.
fn verify_attestations(
    identity: &Identity,
    query: &Query,
    expected_address: &str,
    result_hash: &[u8; 32],
    response: &QueryResponse,
) -> Result<Vec<(String, Attestation)>, InteropError> {
    let n = response.attestations.len();
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(n);
    let prepared: Vec<Result<PreparedAttestation, InteropError>> = if workers <= 1 {
        response
            .attestations
            .iter()
            .enumerate()
            .map(|(i, att)| {
                prepare_attestation(identity, query, expected_address, result_hash, i, att)
            })
            .collect()
    } else {
        let mut results: Vec<Option<Result<PreparedAttestation, InteropError>>> =
            std::iter::repeat_with(|| None).take(n).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        response
                            .attestations
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(workers)
                            .map(|(i, att)| {
                                (
                                    i,
                                    prepare_attestation(
                                        identity,
                                        query,
                                        expected_address,
                                        result_hash,
                                        i,
                                        att,
                                    ),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                // A panicking preparation thread must not take the client
                // down with it: leave its slots unfilled and fail them
                // closed below.
                if let Ok(items) = handle.join() {
                    for (i, result) in items {
                        if let Some(slot) = results.get_mut(i) {
                            *slot = Some(result);
                        }
                    }
                }
            }
        });
        results
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    Err(InteropError::InvalidResponse(format!(
                        "attestation {i} verification did not complete"
                    )))
                })
            })
            .collect()
    };
    let prepared: Vec<PreparedAttestation> = prepared.into_iter().collect::<Result<Vec<_>, _>>()?;

    // Phase 2: one batch verification over all signatures. The client is
    // short-lived and sees varying endorser keys, so no per-key tables
    // here — the generator's fixed-base table and the fused multi-exp
    // already carry the speedup.
    let items: Vec<tdt_crypto::schnorr::BatchItem<'_>> = prepared
        .iter()
        .map(|p| tdt_crypto::schnorr::BatchItem {
            key: &p.verifying_key,
            message: &p.metadata_plain,
            signature: &p.signature,
            table: None,
        })
        .collect();
    match tdt_crypto::schnorr::batch_verify(&items) {
        Ok(()) => {}
        Err(tdt_crypto::schnorr::BatchVerifyError::Invalid { index }) => {
            return Err(InteropError::InvalidResponse(format!(
                "attestation {index} signature invalid"
            )))
        }
        Err(tdt_crypto::schnorr::BatchVerifyError::GroupMismatch { index }) => {
            return Err(InteropError::InvalidResponse(format!(
                "attestation {index} signer key uses a mismatched group"
            )))
        }
        Err(tdt_crypto::schnorr::BatchVerifyError::Empty) => {
            return Err(InteropError::InvalidResponse(
                "response carries no attestations".into(),
            ))
        }
    }
    Ok(prepared
        .into_iter()
        .map(|p| (p.org_id, p.repacked))
        .collect())
}

/// Prepares one attestation: decrypt metadata if needed, decode the
/// signer's certificate/key/signature, and check the metadata answers this
/// query about this result. Signature verification itself is deferred to
/// the batch pass.
fn prepare_attestation(
    identity: &Identity,
    query: &Query,
    expected_address: &str,
    result_hash: &[u8; 32],
    i: usize,
    att: &Attestation,
) -> Result<PreparedAttestation, InteropError> {
    // Decrypt the metadata when necessary.
    let metadata_plain = if att.metadata_encrypted {
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
    let cert = decode_certificate(&att.signer_cert)
        .map_err(|e| InteropError::InvalidResponse(format!("attestation {i} cert: {e}")))?;
    // The client holds no root for the foreign network (the CMDAC does the
    // authenticating), so there is no verified-chain entry to take the key
    // from: it is decoded here, which costs one Legendre symbol.
    let vk = cert
        .verifying_key()
        .map_err(|e| InteropError::InvalidResponse(format!("attestation {i} key: {e}")))?;
    let signature = tdt_crypto::schnorr::Signature::from_bytes(&att.signature)
        .map_err(|e| InteropError::InvalidResponse(format!("attestation {i} sig: {e}")))?;
    // Check the metadata answers *this* query, about *this* result.
    let metadata = ResultMetadata::decode_from_slice(&metadata_plain)
        .map_err(|e| InteropError::InvalidResponse(format!("attestation {i} metadata: {e}")))?;
    if metadata.request_id != query.request_id {
        return Err(InteropError::InvalidResponse(format!(
            "attestation {i} answers a different request"
        )));
    }
    if metadata.address != expected_address {
        return Err(InteropError::InvalidResponse(format!(
            "attestation {i} covers address {:?}, expected {expected_address:?}",
            metadata.address
        )));
    }
    if metadata.nonce != query.nonce {
        return Err(InteropError::InvalidResponse(format!(
            "attestation {i} nonce mismatch"
        )));
    }
    if metadata.result_hash != *result_hash {
        return Err(InteropError::InvalidResponse(format!(
            "attestation {i} attests a different result"
        )));
    }
    Ok(PreparedAttestation {
        org_id: metadata.org_id,
        repacked: Attestation {
            signer_cert: att.signer_cert.clone(),
            signature: att.signature.clone(),
            metadata: metadata_plain.clone(),
            metadata_encrypted: false,
        },
        metadata_plain,
        verifying_key: vk,
        signature,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{query_auth_bytes, FabricDriver};
    use crate::setup::{issue_sample_bl, stl_swt_testbed, Testbed};
    use std::sync::Arc;
    use tdt_relay::driver::NetworkDriver;
    use tdt_wire::messages::{AuthInfo, NetworkAddress, VerificationPolicy};

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
