//! The Configuration Management & Data Acceptance Chaincode (CMDAC).
//!
//! Per the paper (§4.3), Configuration Management and Data Acceptance are
//! combined into one chaincode "for runtime efficiency, as proof
//! verification depends on foreign networks' configurations". The CMDAC:
//!
//! * records foreign network configurations (org root certificates and peer
//!   certificates) on the local ledger,
//! * records verification policies per foreign network/contract/function,
//! * validates proofs through the shared rules of [`crate::foreign`]: each
//!   signer against the recorded foreign configuration, then the
//!   attestations against the proof and the verification policy,
//! * tracks consumed nonces on the ledger to block replay attacks.

use crate::abi::chaincode;
use crate::foreign::{self, Decoded, Expected, Reason, Rejection};
use std::sync::Arc;
use tdt_crypto::certcache::CertChainCache;
use tdt_crypto::sha256::sha256;
use tdt_fabric::chaincode::TxContext;
use tdt_fabric::error::ChaincodeError;
use tdt_wire::codec::Message;
use tdt_wire::messages::{decode_certificate, NetworkConfig, Proof, VerificationPolicy};

/// The CMDAC system contract.
///
/// Chain validation of attestation signer certificates goes through a
/// [`CertChainCache`]: the same few endorser certificates recur across
/// proofs, and re-running the Schnorr chain check on every attestation
/// dominates `ValidateProof`. The cache is invalidated (epoch bump)
/// whenever `RecordForeignConfig` changes the trusted root set.
#[derive(Debug, Clone, Default)]
pub struct Cmdac {
    cert_cache: Arc<CertChainCache>,
}

impl Cmdac {
    /// Creates the contract with a private certificate-chain cache.
    pub fn new() -> Self {
        Cmdac::default()
    }

    /// Creates the contract sharing `cert_cache` with other components
    /// (e.g. a relay exposing the hit rate through its stats).
    pub fn with_cert_cache(cert_cache: Arc<CertChainCache>) -> Self {
        Cmdac { cert_cache }
    }

    /// The certificate-chain cache used by proof validation.
    pub fn cert_cache(&self) -> &Arc<CertChainCache> {
        &self.cert_cache
    }

    fn config_key(network_id: &str) -> String {
        format!("config:{network_id}")
    }

    fn policy_key(network_id: &str, contract: &str, function: &str) -> String {
        format!("vpolicy:{network_id}:{contract}:{function}")
    }

    fn nonce_key(network_id: &str, nonce: &[u8]) -> String {
        format!("nonce:{network_id}:{}", tdt_crypto::hex_encode(nonce))
    }

    fn load_config(
        ctx: &mut TxContext<'_>,
        network_id: &str,
    ) -> Result<NetworkConfig, ChaincodeError> {
        let bytes = ctx
            .get_state(&Self::config_key(network_id))
            .ok_or_else(|| {
                ChaincodeError::NotFound(format!(
                    "no configuration recorded for network {network_id:?}"
                ))
            })?;
        NetworkConfig::decode_from_slice(&bytes)
            .map_err(|e| ChaincodeError::Internal(format!("stored config corrupt: {e}")))
    }
}

/// The CMDAC's reading of a [`Rejection`]: undecodable or inconsistent
/// input is a bad request, a corrupt stored root is internal, and every
/// failed authentication is a denial.
impl From<Rejection> for ChaincodeError {
    fn from(rejection: Rejection) -> Self {
        let message = rejection.to_string();
        match rejection.reason {
            Reason::Malformed(_) | Reason::Mismatch(_) | Reason::Duplicate(_) | Reason::Empty => {
                ChaincodeError::BadRequest(message)
            }
            Reason::CorruptRoot(_) => ChaincodeError::Internal(message),
            _ => ChaincodeError::AccessDenied(message),
        }
    }
}

chaincode! {
    impl Cmdac {
        /// Records a foreign network's configuration (wire [`NetworkConfig`],
        /// stored as given) and drops every cached chain verdict.
        fn RecordForeignConfig(&self, ctx, config: bytes) for Any {
            let decoded = NetworkConfig::decode_from_slice(config)
                .map_err(|e| ChaincodeError::BadRequest(format!("config malformed: {e}")))?;
            if decoded.network_id.is_empty() {
                return Err(ChaincodeError::BadRequest(
                    "config missing network id".into(),
                ));
            }
            ctx.put_state(&Self::config_key(&decoded.network_id), config.to_vec());
            // New trusted root set: chains validated under the old
            // configuration must not be honored.
            self.cert_cache.bump_epoch();
            Ok(Vec::new())
        }

        /// The configuration recorded for `network_id`, as it was given.
        fn GetForeignConfig(&self, ctx, network_id: str) for Any {
            ctx.get_state(&Self::config_key(network_id))
                .ok_or_else(|| {
                    ChaincodeError::NotFound(format!("no configuration for {network_id:?}"))
                })
        }

        /// `"ok"` when `cert`, in any role, chains to a root recorded for
        /// `network_id`: the ECC authenticates foreign clients here.
        fn ValidateForeignCert(&self, ctx, network_id: str, cert: bytes) for Any {
            let config = Self::load_config(ctx, network_id)?;
            let cert = decode_certificate(cert)
                .map_err(|e| ChaincodeError::BadRequest(format!("cert malformed: {e}")))?;
            foreign::verify_member(&config, &cert, &self.cert_cache)?;
            Ok(b"ok".to_vec())
        }

        /// Records the policy (wire [`VerificationPolicy`], stored as given)
        /// a proof from `network_id` of `contract` `function` must satisfy.
        fn SetVerificationPolicy(
            &self, ctx, network_id: str, contract: str, function: str, policy: bytes,
        ) for Any {
            // Validate the policy parses before recording it.
            VerificationPolicy::decode_from_slice(policy)
                .map_err(|e| ChaincodeError::BadRequest(format!("policy malformed: {e}")))?;
            ctx.put_state(&Self::policy_key(network_id, contract, function), policy.to_vec());
            Ok(Vec::new())
        }

        /// The policy `SetVerificationPolicy` recorded, as it was given.
        fn GetVerificationPolicy(
            &self, ctx, network_id: str, contract: str, function: str,
        ) for Any {
            ctx.get_state(&Self::policy_key(network_id, contract, function))
                .ok_or_else(|| ChaincodeError::NotFound("no verification policy".into()))
        }

        /// Data acceptance: `"ok"` when `proof` answers `expected_address`
        /// under the recorded configuration and policy; consumes its nonce.
        fn ValidateProof(
            &self, ctx, network_id: str, expected_address: str, proof: Proof,
        ) for Open {
            let config = Self::load_config(ctx, network_id)?;
            // Look up the verification policy for the queried address
            // (network:ledger:contract:function — policy is keyed on the last two).
            let mut parts = expected_address.split(':').skip(2);
            let (contract, function) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            let policy_bytes = ctx
                .get_state(&Self::policy_key(network_id, contract, function))
                .ok_or_else(|| {
                    ChaincodeError::NotFound(format!(
                        "no verification policy recorded for {network_id}:{contract}:{function}"
                    ))
                })?;
            let policy = VerificationPolicy::decode_from_slice(&policy_bytes)
                .map_err(|e| ChaincodeError::Internal(format!("stored policy corrupt: {e}")))?;

            if proof.address != expected_address {
                return Err(ChaincodeError::BadRequest(format!(
                    "proof address {:?} does not match expected {:?}",
                    proof.address, expected_address
                )));
            }
            // Authenticate each signer against the recorded source config; its
            // key comes decoded with the cached chain verdict and rides into
            // the batch verification with its cached fixed-base table (same
            // epoch lifetime as the cert-chain cache).
            let attestations = proof
                .attestations
                .iter()
                .enumerate()
                .map(|(i, att)| {
                    if att.metadata_encrypted {
                        let reason = Reason::Malformed("metadata: still encrypted".into());
                        return Err(Rejection::from(reason).at(i));
                    }
                    Decoded::new(att, att.metadata.as_slice(), |cert| {
                        let key = foreign::verify_signer(&config, cert, &self.cert_cache)?;
                        let table = self.cert_cache.key_table(&key);
                        Ok((key, Some(table)))
                    })
                    .map_err(|r| r.at(i))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let expected = Expected {
                request_id: &proof.request_id,
                address: expected_address,
                nonce: &proof.nonce,
                result_hash: sha256(&proof.result),
            };
            foreign::verify_attestations(&expected, &attestations, &policy.expression)?;
            // Replay protection: the nonce must be fresh, and consuming it is
            // part of this transaction's write set (paper §4.3).
            let nonce_key = Self::nonce_key(network_id, &proof.nonce);
            if ctx.get_state(&nonce_key).is_some() {
                return Err(ChaincodeError::AccessDenied(
                    "replay detected: nonce already consumed".into(),
                ));
            }
            ctx.put_state(&nonce_key, proof.request_id.clone().into_bytes());
            Ok(b"ok".to_vec())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Arc;
    use tdt_fabric::chaincode::{Chaincode, ChaincodeRegistry, PeerInfo, Proposal};
    use tdt_fabric::msp::{Identity, Msp};

    use tdt_ledger::state::WorldState;
    use tdt_wire::messages::{encode_certificate, Attestation, OrgConfig, ResultMetadata};

    struct Fixture {
        state: WorldState,
        registry: ChaincodeRegistry,
        client: Identity,
        /// Source-network peer identities: (org, identity).
        source_peers: Vec<(String, Identity)>,
        source_config: NetworkConfig,
    }

    fn fixture() -> Fixture {
        // Local (destination) network identity for invoking the CMDAC.
        let mut local_msp = Msp::new(
            "swt",
            "seller-bank-org",
            tdt_crypto::group::Group::test_group(),
            b"local",
        );
        let client = local_msp.enroll("swt-sc", tdt_crypto::cert::CertRole::Client, true);
        // Source network: two orgs, one peer each.
        let mut seller_msp = Msp::new(
            "stl",
            "seller-org",
            tdt_crypto::group::Group::test_group(),
            b"s1",
        );
        let mut carrier_msp = Msp::new(
            "stl",
            "carrier-org",
            tdt_crypto::group::Group::test_group(),
            b"s2",
        );
        let p1 = seller_msp.enroll("peer0", tdt_crypto::cert::CertRole::Peer, false);
        let p2 = carrier_msp.enroll("peer0", tdt_crypto::cert::CertRole::Peer, false);
        let source_config = NetworkConfig {
            network_id: "stl".into(),
            group_name: "modp768".into(),
            orgs: vec![
                OrgConfig {
                    org_id: "seller-org".into(),
                    root_cert: encode_certificate(seller_msp.root_certificate()),
                    peer_certs: vec![encode_certificate(p1.certificate())],
                },
                OrgConfig {
                    org_id: "carrier-org".into(),
                    root_cert: encode_certificate(carrier_msp.root_certificate()),
                    peer_certs: vec![encode_certificate(p2.certificate())],
                },
            ],
        };
        let mut registry = ChaincodeRegistry::new();
        registry.deploy("CMDAC", Arc::new(Cmdac::new()));
        registry.deploy(crate::ECC_NAME, Arc::new(crate::ecc::Ecc::new()));
        Fixture {
            state: WorldState::new(),
            registry,
            client,
            source_peers: vec![
                ("seller-org".to_string(), p1),
                ("carrier-org".to_string(), p2),
            ],
            source_config,
        }
    }

    fn invoke(
        f: &mut Fixture,
        function: &str,
        args: Vec<Vec<u8>>,
    ) -> Result<Vec<u8>, ChaincodeError> {
        let proposal = Proposal::new(
            "tx",
            "ch",
            "CMDAC",
            function,
            args.clone(),
            f.client.certificate().clone(),
        );
        let peer = PeerInfo {
            peer_id: "swt/seller-bank-org/peer0".into(),
            org_id: "seller-bank-org".into(),
            network_id: "swt".into(),
            ledger_height: 1,
        };
        let mut ctx = TxContext::new(&f.state, &f.registry, &proposal, peer);
        let result = Cmdac::new().invoke(&mut ctx, function, &args);
        // Commit the writes so subsequent invocations observe them.
        let rwset = ctx.into_rwset();
        if result.is_ok() {
            f.state.apply(&rwset, tdt_ledger::rwset::Version::new(1, 0));
        }
        result
    }

    fn record_config(f: &mut Fixture) {
        let bytes = f.source_config.encode_to_vec();
        invoke(f, "RecordForeignConfig", vec![bytes]).unwrap();
    }

    fn record_policy(f: &mut Fixture) {
        let policy = VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]);
        invoke(
            f,
            "SetVerificationPolicy",
            vec![
                b"stl".to_vec(),
                b"TradeLensCC".to_vec(),
                b"GetBillOfLading".to_vec(),
                policy.encode_to_vec(),
            ],
        )
        .unwrap();
    }

    const ADDRESS: &str = "stl:trade-channel:TradeLensCC:GetBillOfLading";

    fn make_proof(f: &Fixture, result: &[u8], nonce: &[u8]) -> Proof {
        let attestations = f
            .source_peers
            .iter()
            .map(|(org, identity)| {
                let metadata = ResultMetadata {
                    request_id: "req-1".into(),
                    address: ADDRESS.into(),
                    result_hash: sha256(result).to_vec(),
                    nonce: nonce.to_vec(),
                    peer_id: identity.qualified_name(),
                    org_id: org.clone(),
                    ledger_height: 5,
                    committed_block_plus_one: 0,
                    txid: String::new(),
                };
                let metadata_bytes = metadata.encode_to_vec();
                let signature = identity.sign(&metadata_bytes);
                Attestation {
                    signer_cert: encode_certificate(identity.certificate()),
                    signature: signature.to_bytes(),
                    metadata: metadata_bytes,
                    metadata_encrypted: false,
                }
            })
            .collect();
        Proof {
            request_id: "req-1".into(),
            address: ADDRESS.into(),
            nonce: nonce.to_vec(),
            result: result.to_vec(),
            attestations,
        }
    }

    fn validate(f: &mut Fixture, proof: &Proof) -> Result<Vec<u8>, ChaincodeError> {
        invoke(
            f,
            "ValidateProof",
            vec![
                b"stl".to_vec(),
                ADDRESS.as_bytes().to_vec(),
                proof.encode_to_vec(),
            ],
        )
    }

    #[test]
    fn config_record_and_get() {
        let mut f = fixture();
        record_config(&mut f);
        let bytes = invoke(&mut f, "GetForeignConfig", vec![b"stl".to_vec()]).unwrap();
        let config = NetworkConfig::decode_from_slice(&bytes).unwrap();
        assert_eq!(config, f.source_config);
    }

    #[test]
    fn get_missing_config_fails() {
        let mut f = fixture();
        assert!(matches!(
            invoke(&mut f, "GetForeignConfig", vec![b"nope".to_vec()]),
            Err(ChaincodeError::NotFound(_))
        ));
    }

    #[test]
    fn validate_foreign_cert_ok_and_bad() {
        let mut f = fixture();
        record_config(&mut f);
        let good = encode_certificate(f.source_peers[0].1.certificate());
        assert_eq!(
            invoke(&mut f, "ValidateForeignCert", vec![b"stl".to_vec(), good]).unwrap(),
            b"ok"
        );
        // A cert from an unrecorded network/org fails.
        let mut rogue_msp = Msp::new(
            "stl",
            "rogue-org",
            tdt_crypto::group::Group::test_group(),
            b"r",
        );
        let rogue = rogue_msp.enroll("peer0", tdt_crypto::cert::CertRole::Peer, false);
        assert!(matches!(
            invoke(
                &mut f,
                "ValidateForeignCert",
                vec![b"stl".to_vec(), encode_certificate(rogue.certificate())]
            ),
            Err(ChaincodeError::AccessDenied(_))
        ));
    }

    #[test]
    fn policy_roundtrip() {
        let mut f = fixture();
        record_policy(&mut f);
        let bytes = invoke(
            &mut f,
            "GetVerificationPolicy",
            vec![
                b"stl".to_vec(),
                b"TradeLensCC".to_vec(),
                b"GetBillOfLading".to_vec(),
            ],
        )
        .unwrap();
        let policy = VerificationPolicy::decode_from_slice(&bytes).unwrap();
        assert_eq!(policy.expression.organizations().len(), 2);
    }

    #[test]
    fn valid_proof_accepted() {
        let mut f = fixture();
        record_config(&mut f);
        record_policy(&mut f);
        let proof = make_proof(&f, b"B/L-1001", &[7; 16]);
        assert_eq!(validate(&mut f, &proof).unwrap(), b"ok");
    }

    #[test]
    fn replayed_nonce_rejected() {
        let mut f = fixture();
        record_config(&mut f);
        record_policy(&mut f);
        let proof = make_proof(&f, b"B/L-1001", &[7; 16]);
        validate(&mut f, &proof).unwrap();
        let err = validate(&mut f, &proof).unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(m) if m.contains("replay")));
    }

    #[test]
    fn fresh_nonce_after_replayed_one_accepted() {
        let mut f = fixture();
        record_config(&mut f);
        record_policy(&mut f);
        let p1 = make_proof(&f, b"B/L-1001", &[7; 16]);
        validate(&mut f, &p1).unwrap();
        let p2 = make_proof(&f, b"B/L-1001", &[8; 16]);
        assert!(validate(&mut f, &p2).is_ok());
    }

    #[test]
    fn tampered_result_rejected() {
        let mut f = fixture();
        record_config(&mut f);
        record_policy(&mut f);
        let mut proof = make_proof(&f, b"B/L-1001", &[7; 16]);
        proof.result = b"FORGED".to_vec();
        let err = validate(&mut f, &proof).unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(m) if m.contains("result hash")));
    }

    #[test]
    fn policy_unsatisfied_with_single_org() {
        let mut f = fixture();
        record_config(&mut f);
        record_policy(&mut f);
        let mut proof = make_proof(&f, b"B/L-1001", &[7; 16]);
        proof.attestations.truncate(1); // only seller-org
        let err = validate(&mut f, &proof).unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(m) if m.contains("policy")));
    }

    #[test]
    fn duplicate_peer_attestations_rejected() {
        let mut f = fixture();
        record_config(&mut f);
        record_policy(&mut f);
        let mut proof = make_proof(&f, b"B/L-1001", &[7; 16]);
        let dup = proof.attestations[0].clone();
        proof.attestations.push(dup);
        let err = validate(&mut f, &proof).unwrap_err();
        assert!(matches!(err, ChaincodeError::BadRequest(m) if m.contains("duplicate")));
    }

    #[test]
    fn forged_signature_rejected() {
        let mut f = fixture();
        record_config(&mut f);
        record_policy(&mut f);
        let mut proof = make_proof(&f, b"B/L-1001", &[7; 16]);
        // Swap attestation 0's signature with attestation 1's.
        proof.attestations[0].signature = proof.attestations[1].signature.clone();
        let err = validate(&mut f, &proof).unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(m) if m.contains("signature")));
    }

    #[test]
    fn non_peer_signer_rejected() {
        let mut f = fixture();
        record_config(&mut f);
        record_policy(&mut f);
        // Have a *client* of seller-org sign instead of a peer.
        let mut seller_msp = Msp::new(
            "stl",
            "seller-org",
            tdt_crypto::group::Group::test_group(),
            b"s1",
        );
        let _peer = seller_msp.enroll("peer0", tdt_crypto::cert::CertRole::Peer, false);
        let client_id = seller_msp.enroll("user", tdt_crypto::cert::CertRole::Client, false);
        let mut proof = make_proof(&f, b"B/L-1001", &[7; 16]);
        let metadata = ResultMetadata::decode_from_slice(&proof.attestations[0].metadata).unwrap();
        let md_bytes = metadata.encode_to_vec();
        proof.attestations[0] = Attestation {
            signer_cert: encode_certificate(client_id.certificate()),
            signature: client_id.sign(&md_bytes).to_bytes(),
            metadata: md_bytes,
            metadata_encrypted: false,
        };
        let err = validate(&mut f, &proof).unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(m) if m.contains("not a peer")));
    }

    #[test]
    fn wrong_address_rejected() {
        let mut f = fixture();
        record_config(&mut f);
        record_policy(&mut f);
        let proof = make_proof(&f, b"B/L-1001", &[7; 16]);
        let err = invoke(
            &mut f,
            "ValidateProof",
            vec![
                b"stl".to_vec(),
                b"stl:trade-channel:TradeLensCC:GetShipment".to_vec(),
                proof.encode_to_vec(),
            ],
        )
        .unwrap_err();
        // Either no policy for that address or an address mismatch; both reject.
        assert!(matches!(
            err,
            ChaincodeError::NotFound(_) | ChaincodeError::BadRequest(_)
        ));
    }

    #[test]
    fn nonce_mismatch_in_metadata_rejected() {
        let mut f = fixture();
        record_config(&mut f);
        record_policy(&mut f);
        let mut proof = make_proof(&f, b"B/L-1001", &[7; 16]);
        proof.nonce = vec![9; 16]; // envelope nonce differs from signed metadata
        let err = validate(&mut f, &proof).unwrap_err();
        assert!(matches!(err, ChaincodeError::BadRequest(m) if m.contains("nonce")));
    }

    #[test]
    fn empty_proof_rejected() {
        let mut f = fixture();
        record_config(&mut f);
        record_policy(&mut f);
        let mut proof = make_proof(&f, b"B/L-1001", &[7; 16]);
        proof.attestations.clear();
        assert!(matches!(
            validate(&mut f, &proof),
            Err(ChaincodeError::BadRequest(_))
        ));
    }

    #[test]
    fn encrypted_metadata_rejected() {
        let mut f = fixture();
        record_config(&mut f);
        record_policy(&mut f);
        let mut proof = make_proof(&f, b"B/L-1001", &[7; 16]);
        proof.attestations[0].metadata_encrypted = true;
        assert!(matches!(
            validate(&mut f, &proof),
            Err(ChaincodeError::BadRequest(_))
        ));
    }

    #[test]
    fn relay_cannot_modify_config_or_policy() {
        let f = fixture();
        let proposal = Proposal::new(
            "tx",
            "ch",
            "CMDAC",
            "RecordForeignConfig",
            vec![f.source_config.encode_to_vec()],
            f.client.certificate().clone(),
        )
        .as_relay_query();
        let peer = PeerInfo {
            peer_id: "p".into(),
            org_id: "o".into(),
            network_id: "swt".into(),
            ledger_height: 1,
        };
        let mut ctx = TxContext::new(&f.state, &f.registry, &proposal, peer);
        // The gate runs first, as on a peer.
        let err = ctx
            .admit()
            .and_then(|()| {
                Cmdac::new().invoke(
                    &mut ctx,
                    "RecordForeignConfig",
                    &[f.source_config.encode_to_vec()],
                )
            })
            .unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(_)));
    }

    #[test]
    fn unknown_function_rejected() {
        let mut f = fixture();
        assert!(matches!(
            invoke(&mut f, "Nope", vec![]),
            Err(ChaincodeError::UnknownFunction(_))
        ));
    }

    #[test]
    fn malformed_args_rejected() {
        let mut f = fixture();
        assert!(matches!(
            invoke(&mut f, "ValidateProof", vec![b"stl".to_vec()]),
            Err(ChaincodeError::BadRequest(_))
        ));
        assert!(matches!(
            invoke(
                &mut f,
                "RecordForeignConfig",
                vec![b"garbage".to_vec(), b"x".to_vec()]
            ),
            Err(ChaincodeError::BadRequest(_))
        ));
        // A network id that is not UTF-8 is refused, not recorded under its
        // lossy reading, where "stl\u{FFFD}" would read it back.
        let policy = VerificationPolicy::all_of_orgs(["seller-org"]).encode_to_vec();
        let [cc, func] = [b"TradeLensCC".to_vec(), b"GetBillOfLading".to_vec()];
        let args = vec![b"stl\xff".to_vec(), cc.clone(), func.clone(), policy];
        assert!(matches!(
            invoke(&mut f, "SetVerificationPolicy", args),
            Err(ChaincodeError::BadRequest(_))
        ));
        let lossy = "stl\u{FFFD}".as_bytes().to_vec();
        assert!(matches!(
            invoke(&mut f, "GetVerificationPolicy", vec![lossy, cc, func]),
            Err(ChaincodeError::NotFound(_))
        ));
    }
}
