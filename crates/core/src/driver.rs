//! The Fabric network driver.
//!
//! Implements [`NetworkDriver`] for a [`FabricNetwork`]: Steps 5-7 of the
//! paper's message flow. The driver "uses the appropriate network driver to
//! orchestrate the query against the respective peers in the network based
//! on the specified verification policy"; each peer executing the contract
//! function "refers to the Exposure Control contract to determine if the
//! remote client application has appropriate permissions", and "the results
//! from each of the selected peers collectively form the proof satisfying
//! the verification policy" (paper §3.3).

use crate::error::InteropError;
use crate::plugin::{InteropEndorsement, TRANSIENT_CERT, TRANSIENT_NETWORK, TRANSIENT_ORG};
use std::sync::Arc;
use tdt_contracts::ecc::EncryptedResult;
use tdt_crypto::sha256::sha256;
use tdt_fabric::chaincode::Proposal;
use tdt_fabric::error::{ChaincodeError, FabricError};
use tdt_fabric::network::FabricNetwork;
use tdt_fabric::peer::Peer;
use tdt_relay::driver::NetworkDriver;
use tdt_relay::RelayError;
use tdt_wire::codec::Message;
use tdt_wire::messages::{
    encode_certificate, Attestation, Query, QueryResponse, ResponseStatus, ResultMetadata,
};

/// Canonical bytes a requesting client signs to authenticate a query.
pub fn query_auth_bytes(query: &Query) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"tdt-query-auth-v1");
    let push = |out: &mut Vec<u8>, b: &[u8]| {
        out.extend_from_slice(&(b.len() as u32).to_be_bytes());
        out.extend_from_slice(b);
    };
    push(&mut out, query.request_id.as_bytes());
    push(&mut out, query.address.display_name().as_bytes());
    push(&mut out, &query.nonce);
    push(&mut out, &query.policy.encode_to_vec());
    // The invocation flag is covered so a malicious relay cannot upgrade a
    // read-only query into a ledger update (or vice versa).
    out.push(query.invocation as u8);
    out
}

/// What every attestation of one response shares: the query, the proposal
/// the peers ran, the result as the response carries it, and for an
/// invocation the block that committed it.
struct Receipt<'a> {
    query: &'a Query,
    proposal: &'a Proposal,
    result: Vec<u8>,
    result_hash: Vec<u8>,
    committed_block: Option<u64>,
}

impl<'a> Receipt<'a> {
    /// Unpacks the ECC's (plaintext-hash, ciphertext) wrapper when the
    /// query is confidential (the result was encrypted on-chain); otherwise
    /// hashes `result` directly.
    fn new(
        query: &'a Query,
        proposal: &'a Proposal,
        result: Vec<u8>,
        committed_block: Option<u64>,
    ) -> Result<Self, InteropError> {
        let (result, result_hash) = if query.policy.confidential {
            let wrapped = EncryptedResult::from_bytes(&result)
                .map_err(|e| InteropError::InvalidResponse(e.to_string()))?;
            (wrapped.ciphertext, wrapped.plaintext_hash.to_vec())
        } else {
            let hash = sha256(&result).to_vec();
            (result, hash)
        };
        Ok(Receipt {
            query,
            proposal,
            result,
            result_hash,
            committed_block,
        })
    }

    /// `peer`'s attestation: its [`ResultMetadata`] over the result, signed
    /// by the interop endorsement plugin, which for a confidential query
    /// also encrypts it to the requester.
    fn attest(&self, peer: &Peer) -> Result<Attestation, InteropError> {
        let metadata = ResultMetadata {
            request_id: self.query.request_id.clone(),
            address: self.query.address.display_name(),
            result_hash: self.result_hash.clone(),
            nonce: self.query.nonce.clone(),
            peer_id: peer.qualified_name(),
            org_id: peer.org_id().to_string(),
            ledger_height: peer.height(),
            committed_block_plus_one: self.committed_block.map_or(0, |n| n + 1),
            txid: self
                .committed_block
                .map_or_else(String::new, |_| self.proposal.txid.clone()),
        };
        let plugin = InteropEndorsement {
            encrypt_metadata: self.query.policy.confidential,
        };
        let out = peer.endorse_with_plugin(self.proposal, &metadata.encode_to_vec(), &plugin)?;
        Ok(Attestation {
            signer_cert: encode_certificate(peer.identity().certificate()),
            signature: out.signature.to_bytes(),
            metadata: out.payload,
            metadata_encrypted: out.payload_encrypted,
        })
    }

    /// The response carrying the result and `attestations`.
    fn respond(self, attestations: Vec<Attestation>) -> QueryResponse {
        QueryResponse {
            request_id: self.query.request_id.clone(),
            status: ResponseStatus::Ok,
            error: String::new(),
            result: self.result,
            result_encrypted: self.query.policy.confidential,
            attestations,
        }
    }
}

/// A [`NetworkDriver`] for Fabric-like networks.
pub struct FabricDriver {
    network: Arc<FabricNetwork>,
}

impl std::fmt::Debug for FabricDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricDriver")
            .field("network", &self.network.name())
            .finish()
    }
}

impl FabricDriver {
    /// Creates a driver for `network`.
    pub fn new(network: Arc<FabricNetwork>) -> Self {
        FabricDriver { network }
    }

    fn execute(&self, query: &Query) -> Result<QueryResponse, InteropError> {
        let address = &query.address;
        if address.network_id != self.network.name() {
            return Err(InteropError::WrongNetwork {
                expected: self.network.name().to_string(),
                got: address.network_id.clone(),
            });
        }
        // Authenticate the requester's signature over the query. (The
        // certificate's *authenticity* is established by the ECC against
        // the recorded foreign configuration during chaincode execution.)
        let requester_cert = query
            .auth
            .decode_certificate()
            .map_err(|e| InteropError::BadAuthentication(format!("certificate malformed: {e}")))?;
        let vk = requester_cert
            .verifying_key()
            .map_err(|e| InteropError::BadAuthentication(e.to_string()))?;
        let signature = tdt_crypto::schnorr::Signature::from_bytes(&query.auth.signature)
            .map_err(|e| InteropError::BadAuthentication(format!("signature malformed: {e}")))?;
        vk.verify(&query_auth_bytes(query), &signature)
            .map_err(|_| InteropError::BadAuthentication("query signature invalid".into()))?;

        // Select the organizations to query from the verification policy.
        let orgs = query.policy.expression.minimal_org_set().ok_or_else(|| {
            InteropError::PolicyUnsatisfiable("policy has no satisfying org set".into())
        })?;
        if orgs.is_empty() {
            return Err(InteropError::PolicyUnsatisfiable(
                "policy names no organizations".into(),
            ));
        }

        // Build the relay-query proposal once; every selected peer
        // simulates the same proposal (same txid -> convergent ciphertext).
        let proposal = Proposal::new(
            format!("relay-{}", query.request_id),
            address.ledger_id.clone(),
            address.contract_id.clone(),
            address.function.clone(),
            address.args.clone(),
            requester_cert,
        )
        .as_relay_query()
        .with_transient(
            TRANSIENT_NETWORK,
            query.auth.network_id.clone().into_bytes(),
        )
        .with_transient(
            TRANSIENT_ORG,
            query.auth.organization_id.clone().into_bytes(),
        )
        .with_transient(TRANSIENT_CERT, query.auth.certificate.clone());

        if query.invocation {
            return self.execute_invocation(query, proposal, &orgs);
        }

        // The first peer's raw result, and the receipt built from it: every
        // later peer must return the same bytes, so it is unwrapped once.
        let mut first: Option<(Vec<u8>, Receipt<'_>)> = None;
        let mut attestations = Vec::with_capacity(orgs.len());
        for org in &orgs {
            let (peer_name, peer) = self
                .network
                .available_peer(org)
                .map_err(|e| InteropError::PolicyUnsatisfiable(e.to_string()))?;
            self.network.faults().apply_latency();
            let peer = peer.read();
            let sim = peer.simulate(&proposal)?;
            let receipt = match first {
                Some((ref reference, _)) if *reference != sim.result => {
                    return Err(InteropError::DivergentResults(format!(
                        "peer {peer_name} disagrees with earlier peers"
                    )));
                }
                Some((_, ref receipt)) => receipt,
                None => {
                    let reference = sim.result.clone();
                    let receipt = Receipt::new(query, &proposal, sim.result, None)?;
                    &first.insert((reference, receipt)).1
                }
            };
            attestations.push(receipt.attest(&peer)?);
        }
        let (_, receipt) = first.ok_or_else(|| {
            InteropError::PolicyUnsatisfiable("policy names no organizations".into())
        })?;
        Ok(receipt.respond(attestations))
    }

    /// Cross-network *invocation* (the extension of paper §5/§7): endorse
    /// per the chaincode's endorsement policy, order, commit, then have
    /// peers attest a receipt over the committed transaction.
    fn execute_invocation(
        &self,
        query: &Query,
        proposal: tdt_fabric::chaincode::Proposal,
        verification_orgs: &[String],
    ) -> Result<QueryResponse, InteropError> {
        use tdt_fabric::endorse::TransactionEnvelope;
        let contract = &query.address.contract_id;
        // The local endorsement policy governs the write.
        let endorsement_policy = self.network.policy_of(contract).ok_or_else(|| {
            InteropError::Fabric(FabricError::ChaincodeNotDeployed(contract.clone()))
        })?;
        let endorse_orgs = endorsement_policy.minimal_org_set().ok_or_else(|| {
            InteropError::PolicyUnsatisfiable("endorsement policy unsatisfiable".into())
        })?;
        let (sim, endorsements) = self.network.endorse(&proposal, &endorse_orgs)?;
        let envelope = TransactionEnvelope {
            txid: proposal.txid.clone(),
            channel: query.address.ledger_id.clone(),
            chaincode: contract.clone(),
            result: sim.result.clone(),
            rwset: sim.rwset.clone(),
            endorsements,
            creator_cert: proposal.creator.clone(),
        };
        let (block_number, codes) = match self.network.order(&envelope)? {
            Some(c) => c,
            None => self.network.cut_block()?.ok_or_else(|| {
                InteropError::Fabric(FabricError::Internal("orderer lost the transaction".into()))
            })?,
        };
        // Locate this transaction's validation code in the committed block.
        let code = self.validation_code_of(block_number, &proposal.txid, &codes);
        if !code.map(|c| c.is_valid()).unwrap_or(false) {
            return Ok(QueryResponse {
                request_id: query.request_id.clone(),
                status: ResponseStatus::Error,
                error: format!("invocation invalidated at commit: {code:?}"),
                ..Default::default()
            });
        }
        // Build the receipt attestations per the verification policy.
        let receipt = Receipt::new(query, &proposal, sim.result, Some(block_number))?;
        let mut attestations = Vec::with_capacity(verification_orgs.len());
        for org in verification_orgs {
            let (_, peer) = self
                .network
                .available_peer(org)
                .map_err(|e| InteropError::PolicyUnsatisfiable(e.to_string()))?;
            attestations.push(receipt.attest(&peer.read())?);
        }
        Ok(receipt.respond(attestations))
    }

    fn validation_code_of(
        &self,
        block_number: u64,
        txid: &str,
        codes: &[tdt_ledger::block::TxValidationCode],
    ) -> Option<tdt_ledger::block::TxValidationCode> {
        let (_, peer) = self.network.peers().next()?;
        let peer = peer.read();
        let block = peer.store().block(block_number).ok()?;
        let idx = block.transactions.iter().position(|tx| {
            tdt_fabric::endorse::TransactionEnvelope::decode_from_slice(tx)
                .map(|e| e.txid == txid)
                .unwrap_or(false)
        })?;
        codes.get(idx).copied()
    }
}

impl NetworkDriver for FabricDriver {
    fn network_id(&self) -> &str {
        self.network.name()
    }

    fn execute_query(&self, query: &Query) -> Result<QueryResponse, RelayError> {
        match self.execute(query) {
            Ok(response) => Ok(response),
            // Expected protocol outcomes become statuses, not transport errors.
            Err(InteropError::Fabric(FabricError::Chaincode(ChaincodeError::AccessDenied(m)))) => {
                Ok(QueryResponse {
                    request_id: query.request_id.clone(),
                    status: ResponseStatus::AccessDenied,
                    error: m,
                    ..Default::default()
                })
            }
            Err(InteropError::Fabric(FabricError::Chaincode(ChaincodeError::NotFound(m)))) => {
                Ok(QueryResponse {
                    request_id: query.request_id.clone(),
                    status: ResponseStatus::NotFound,
                    error: m,
                    ..Default::default()
                })
            }
            Err(InteropError::PolicyUnsatisfiable(m)) => Ok(QueryResponse {
                request_id: query.request_id.clone(),
                status: ResponseStatus::PolicyUnsatisfiable,
                error: m,
                ..Default::default()
            }),
            Err(e) => Err(RelayError::DriverFailed(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdt_fabric::msp::Identity;
    use tdt_wire::messages::{AuthInfo, NetworkAddress, VerificationPolicy};

    /// Builds the STL network with a shipment whose B/L is issued, plus a
    /// registered foreign client, and returns the driver + client identity.
    fn driver_fixture() -> (FabricDriver, Identity, Arc<FabricNetwork>) {
        let testbed = crate::setup::stl_swt_testbed();
        // Drive the STL lifecycle so a B/L exists.
        crate::setup::issue_sample_bl(&testbed, "PO-1001");
        let driver = FabricDriver::new(Arc::clone(&testbed.stl));
        (
            driver,
            testbed.swt_seller_client.clone(),
            Arc::clone(&testbed.stl),
        )
    }

    fn signed_query(client: &Identity, po: &str, confidential: bool) -> Query {
        let mut policy = VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]);
        if confidential {
            policy = policy.with_confidentiality();
        }
        let mut query = Query {
            request_id: "req-0".into(),
            address: NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
                .with_arg(po.as_bytes().to_vec()),
            policy,
            auth: AuthInfo {
                network_id: "swt".into(),
                organization_id: "seller-bank-org".into(),
                certificate: encode_certificate(client.certificate()),
                signature: Vec::new(),
            },
            nonce: vec![5; 16],
            invocation: false,
        };
        let sig = client.signing_key().sign(&query_auth_bytes(&query));
        query.auth.signature = sig.to_bytes();
        query
    }

    #[test]
    fn confidential_query_produces_proof() {
        let (driver, client, _) = driver_fixture();
        let query = signed_query(&client, "PO-1001", true);
        let response = driver.execute_query(&query).unwrap();
        assert_eq!(response.status, ResponseStatus::Ok);
        assert!(response.result_encrypted);
        assert_eq!(response.attestations.len(), 2);
        for att in &response.attestations {
            assert!(att.metadata_encrypted);
        }
        // The relay-visible result is not the plaintext B/L.
        let dk = client.decryption_key().unwrap();
        let ct = tdt_crypto::elgamal::Ciphertext::from_bytes(&response.result).unwrap();
        let plaintext = dk.decrypt(&ct).unwrap();
        assert_ne!(plaintext, response.result);
        let bl = tdt_contracts::stl::BillOfLading::decode_from_slice(&plaintext).unwrap();
        assert_eq!(bl.po_ref, "PO-1001");
    }

    #[test]
    fn unsigned_query_rejected() {
        let (driver, client, _) = driver_fixture();
        let mut query = signed_query(&client, "PO-1001", true);
        query.auth.signature = vec![0, 0, 0, 0];
        assert!(matches!(
            driver.execute_query(&query),
            Err(RelayError::DriverFailed(m)) if m.contains("authentication")
        ));
    }

    #[test]
    fn tampered_query_rejected() {
        let (driver, client, _) = driver_fixture();
        let mut query = signed_query(&client, "PO-1001", true);
        query.nonce = vec![9; 16]; // breaks the auth signature binding
        assert!(matches!(
            driver.execute_query(&query),
            Err(RelayError::DriverFailed(m)) if m.contains("authentication")
        ));
    }

    #[test]
    fn wrong_network_rejected() {
        let (driver, client, _) = driver_fixture();
        let mut query = signed_query(&client, "PO-1001", true);
        query.address.network_id = "corda-net".into();
        let sig = client.signing_key().sign(&query_auth_bytes(&query));
        query.auth.signature = sig.to_bytes();
        assert!(driver.execute_query(&query).is_err());
    }

    #[test]
    fn missing_bl_maps_to_not_found() {
        let (driver, client, _) = driver_fixture();
        let query = signed_query(&client, "PO-UNKNOWN", true);
        let response = driver.execute_query(&query).unwrap();
        assert_eq!(response.status, ResponseStatus::NotFound);
    }

    #[test]
    fn policy_with_unknown_org_unsatisfiable() {
        let (driver, client, _) = driver_fixture();
        let mut query = signed_query(&client, "PO-1001", true);
        query.policy = VerificationPolicy::all_of_orgs(["ghost-org"]).with_confidentiality();
        let sig = client.signing_key().sign(&query_auth_bytes(&query));
        query.auth.signature = sig.to_bytes();
        let response = driver.execute_query(&query).unwrap();
        assert_eq!(response.status, ResponseStatus::PolicyUnsatisfiable);
    }

    #[test]
    fn peers_down_policy_unsatisfiable() {
        let (driver, client, network) = driver_fixture();
        network.faults().take_down("stl/carrier-org/peer0");
        let query = signed_query(&client, "PO-1001", true);
        let response = driver.execute_query(&query).unwrap();
        assert_eq!(response.status, ResponseStatus::PolicyUnsatisfiable);
    }

    /// Answers every call with the name of the peer that ran it, so no two
    /// peers agree.
    struct WhoAmI;

    impl tdt_fabric::chaincode::Chaincode for WhoAmI {
        fn invoke(
            &self,
            ctx: &mut tdt_fabric::chaincode::TxContext<'_>,
            _: &str,
            _: &[Vec<u8>],
        ) -> Result<Vec<u8>, ChaincodeError> {
            Ok(ctx.peer().peer_id.clone().into_bytes())
        }
    }

    #[test]
    fn divergent_peer_results_rejected() {
        let network = tdt_fabric::network::NetworkBuilder::new("div")
            .org("org-a", 1)
            .org("org-b", 1)
            .chaincode(
                "WhoAmI",
                Arc::new(WhoAmI),
                tdt_fabric::policy::EndorsementPolicy::all_of(["org-a", "org-b"]),
            )
            // WhoAmI answers every call, so as the ECC it admits every
            // relay proposal.
            .chaincode(
                tdt_contracts::ECC_NAME,
                Arc::new(WhoAmI),
                tdt_fabric::policy::EndorsementPolicy::all_of(["org-a", "org-b"]),
            )
            .build();
        let client = network.register_client("org-a", "client", false).unwrap();
        let mut query = signed_query(&client, "PO-1001", false);
        query.address = NetworkAddress::new("div", "default-channel", "WhoAmI", "Get");
        query.policy = VerificationPolicy::all_of_orgs(["org-a", "org-b"]);
        query.auth.signature = client
            .signing_key()
            .sign(&query_auth_bytes(&query))
            .to_bytes();
        assert!(matches!(
            FabricDriver::new(network).execute_query(&query),
            Err(RelayError::DriverFailed(m)) if m.contains("div/org-b/peer0 disagrees")
        ));
    }

    #[test]
    fn attestation_signatures_verify_over_decrypted_metadata() {
        let (driver, client, _) = driver_fixture();
        let query = signed_query(&client, "PO-1001", true);
        let response = driver.execute_query(&query).unwrap();
        let dk = client.decryption_key().unwrap();
        for att in &response.attestations {
            let ct = tdt_crypto::elgamal::Ciphertext::from_bytes(&att.metadata).unwrap();
            let metadata_plain = dk.decrypt(&ct).unwrap();
            let cert = tdt_wire::messages::decode_certificate(&att.signer_cert).unwrap();
            let vk = cert.verifying_key().unwrap();
            let sig = tdt_crypto::schnorr::Signature::from_bytes(&att.signature).unwrap();
            assert!(vk.verify(&metadata_plain, &sig).is_ok());
            let metadata = ResultMetadata::decode_from_slice(&metadata_plain).unwrap();
            assert_eq!(metadata.request_id, "req-0");
            assert_eq!(metadata.nonce, vec![5; 16]);
        }
    }
}
