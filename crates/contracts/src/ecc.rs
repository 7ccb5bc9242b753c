//! The Exposure Control Chaincode (ECC).
//!
//! Deployed on every peer of a *source* network, the ECC "enforces access
//! control policy rules against incoming requests, determining which data
//! items in the local ledger and smart contract functions can be exposed"
//! (paper §3.2). Rules are the paper's 4-tuples
//! `<network ID, organization ID, chaincode name, chaincode function>`:
//! the subject is a member of a foreign network organization, the object is
//! a chaincode function.
//!
//! The ECC also performs the response encryption step of §4.3: after query
//! execution, the result is encrypted with the requesting client's public
//! key so that relays can neither read nor tamper with it.
//!
//! # Functions
//!
//! | function | args | returns |
//! |---|---|---|
//! | `AddAccessRule` | `[network, org, chaincode, function]` | `""` |
//! | `AddEntityAccessRule` | `[network, org, common_name, chaincode, function]` | `""` |
//! | `RemoveAccessRule` | `[network, org, chaincode, function]` | `""` |
//! | `RemoveEntityAccessRule` | `[network, org, common_name, chaincode, function]` | `""` |
//! | `ListAccessRules` | `[]` | newline-separated rules |
//! | `CheckAccess` | `[network, org, chaincode, function, cert]` | `"ok"` |
//! | `EncryptResponse` | `[cert, plaintext]` | ElGamal ciphertext bytes |
//!
//! # Subject granularity (paper §3.3)
//!
//! "The identities against which the access control policies are applied
//! can be at the level of a network, a named subdivision (organization),
//! \[or\] a single entity (peer, user or application)." Rules support all
//! three levels plus function wildcards:
//!
//! * network-level — `AddAccessRule(net, "*", cc, func)`
//! * organization-level — `AddAccessRule(net, org, cc, func)` (the paper's
//!   proof-of-concept granularity)
//! * entity-level — `AddEntityAccessRule(net, org, common_name, cc, func)`
//! * whole-chaincode grants — pass `"*"` as the function
//!
//! `CheckAccess` matches most-specific first: entity, then organization,
//! then network-wide, each with exact-function before wildcard-function.

use tdt_crypto::sha256::sha256;
use tdt_fabric::chaincode::{Chaincode, TxContext};
use tdt_fabric::error::ChaincodeError;
use tdt_wire::messages::decode_certificate;

/// The output of `EncryptResponse`: the ciphertext a relay may carry plus a
/// commitment to the plaintext. The endorsement plugin copies the
/// commitment into the signed result metadata, so the destination network
/// can validate the *decrypted* result against the proof without the relay
/// ever seeing plaintext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedResult {
    /// SHA-256 of the plaintext result.
    pub plaintext_hash: [u8; 32],
    /// ElGamal ciphertext of the result under the requester's key.
    pub ciphertext: Vec<u8>,
}

impl EncryptedResult {
    /// Serializes as `plaintext_hash ‖ ciphertext`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.ciphertext.len());
        out.extend_from_slice(&self.plaintext_hash);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses the [`EncryptedResult::to_bytes`] encoding.
    ///
    /// # Errors
    ///
    /// Returns [`ChaincodeError::BadRequest`] on truncated input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ChaincodeError> {
        let Some(hash_bytes) = bytes.get(..32) else {
            return Err(ChaincodeError::BadRequest(
                "encrypted result truncated".into(),
            ));
        };
        let mut plaintext_hash = [0u8; 32];
        plaintext_hash.copy_from_slice(hash_bytes);
        Ok(EncryptedResult {
            plaintext_hash,
            ciphertext: bytes.get(32..).unwrap_or_default().to_vec(),
        })
    }
}

/// The ECC system contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ecc;

impl Ecc {
    /// Creates the contract.
    pub fn new() -> Self {
        Ecc
    }

    fn rule_key(network: &str, org: &str, chaincode: &str, function: &str) -> String {
        format!("rule:{network}:{org}:{chaincode}:{function}")
    }

    fn entity_rule_key(
        network: &str,
        org: &str,
        common_name: &str,
        chaincode: &str,
        function: &str,
    ) -> String {
        format!("erule:{network}:{org}:{common_name}:{chaincode}:{function}")
    }

    /// Looks up exposure rules most-specific first (paper §3.3 subject
    /// granularities): entity, organization, then network-wide, each with
    /// exact function before the `*` wildcard.
    fn rule_exists(
        ctx: &mut TxContext<'_>,
        network: &str,
        org: &str,
        common_name: &str,
        chaincode: &str,
        function: &str,
    ) -> bool {
        let entity_keys = [
            Self::entity_rule_key(network, org, common_name, chaincode, function),
            Self::entity_rule_key(network, org, common_name, chaincode, "*"),
        ];
        let org_keys = [
            Self::rule_key(network, org, chaincode, function),
            Self::rule_key(network, org, chaincode, "*"),
            Self::rule_key(network, "*", chaincode, function),
            Self::rule_key(network, "*", chaincode, "*"),
        ];
        entity_keys
            .iter()
            .chain(org_keys.iter())
            .any(|key| ctx.get_state(key).is_some())
    }

    fn parse_rule_args(
        args: &[Vec<u8>],
    ) -> Result<(String, String, String, String), ChaincodeError> {
        let [network, org, chaincode, function] = args else {
            return Err(ChaincodeError::BadRequest(
                "expected [network, org, chaincode, function]".into(),
            ));
        };
        Ok((
            String::from_utf8_lossy(network).into_owned(),
            String::from_utf8_lossy(org).into_owned(),
            String::from_utf8_lossy(chaincode).into_owned(),
            String::from_utf8_lossy(function).into_owned(),
        ))
    }
}

impl Chaincode for Ecc {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, ChaincodeError> {
        match function {
            "AddAccessRule" => {
                if ctx.is_relay_query() {
                    return Err(ChaincodeError::AccessDenied(
                        "foreign requesters cannot modify exposure rules".into(),
                    ));
                }
                let (network, org, chaincode, func) = Self::parse_rule_args(args)?;
                if network.is_empty() || org.is_empty() || chaincode.is_empty() || func.is_empty() {
                    return Err(ChaincodeError::BadRequest(
                        "rule fields must be non-empty".into(),
                    ));
                }
                ctx.put_state(
                    &Self::rule_key(&network, &org, &chaincode, &func),
                    b"allow".to_vec(),
                );
                Ok(Vec::new())
            }
            "RemoveAccessRule" => {
                if ctx.is_relay_query() {
                    return Err(ChaincodeError::AccessDenied(
                        "foreign requesters cannot modify exposure rules".into(),
                    ));
                }
                let (network, org, chaincode, func) = Self::parse_rule_args(args)?;
                ctx.delete_state(&Self::rule_key(&network, &org, &chaincode, &func));
                Ok(Vec::new())
            }
            "AddEntityAccessRule" => {
                if ctx.is_relay_query() {
                    return Err(ChaincodeError::AccessDenied(
                        "foreign requesters cannot modify exposure rules".into(),
                    ));
                }
                let [network, org, common_name, chaincode, func] = args else {
                    return Err(ChaincodeError::BadRequest(
                        "expected [network, org, common_name, chaincode, function]".into(),
                    ));
                };
                let [network, org, common_name, chaincode, func] =
                    [network, org, common_name, chaincode, func]
                        .map(|a| String::from_utf8_lossy(a).into_owned());
                if [&network, &org, &common_name, &chaincode, &func]
                    .iter()
                    .any(|f| f.is_empty())
                {
                    return Err(ChaincodeError::BadRequest(
                        "rule fields must be non-empty".into(),
                    ));
                }
                ctx.put_state(
                    &Self::entity_rule_key(&network, &org, &common_name, &chaincode, &func),
                    b"allow".to_vec(),
                );
                Ok(Vec::new())
            }
            "RemoveEntityAccessRule" => {
                if ctx.is_relay_query() {
                    return Err(ChaincodeError::AccessDenied(
                        "foreign requesters cannot modify exposure rules".into(),
                    ));
                }
                let [network, org, common_name, chaincode, func] = args else {
                    return Err(ChaincodeError::BadRequest(
                        "expected [network, org, common_name, chaincode, function]".into(),
                    ));
                };
                let [network, org, common_name, chaincode, func] =
                    [network, org, common_name, chaincode, func]
                        .map(|a| String::from_utf8_lossy(a).into_owned());
                ctx.delete_state(&Self::entity_rule_key(
                    &network,
                    &org,
                    &common_name,
                    &chaincode,
                    &func,
                ));
                Ok(Vec::new())
            }
            "ListAccessRules" => {
                let mut listing: Vec<String> = ctx
                    .get_state_range("rule:", "rule;") // ';' sorts right after ':'
                    .into_iter()
                    .map(|(k, _)| k.trim_start_matches("rule:").to_string())
                    .collect();
                listing.extend(
                    ctx.get_state_range("erule:", "erule;")
                        .into_iter()
                        .map(|(k, _)| format!("entity:{}", k.trim_start_matches("erule:"))),
                );
                Ok(listing.join("\n").into_bytes())
            }
            "CheckAccess" => {
                let [network, org, chaincode, func, cert_bytes] = args else {
                    return Err(ChaincodeError::BadRequest(
                        "CheckAccess expects [network, org, chaincode, function, cert]".into(),
                    ));
                };
                let network = String::from_utf8_lossy(network).into_owned();
                let org = String::from_utf8_lossy(org).into_owned();
                let chaincode = String::from_utf8_lossy(chaincode).into_owned();
                let func = String::from_utf8_lossy(func).into_owned();
                // The certificate must actually belong to the claimed
                // foreign network + organization...
                let cert = decode_certificate(cert_bytes)
                    .map_err(|e| ChaincodeError::BadRequest(format!("cert malformed: {e}")))?;
                if cert.subject().network != network || cert.subject().organization != org {
                    return Err(ChaincodeError::AccessDenied(format!(
                        "certificate subject {:?} does not match claimed {network}/{org}",
                        cert.subject().qualified_name()
                    )));
                }
                // ...and chain to the recorded configuration of that network
                // (managed by the CMDAC, paper §4.3).
                ctx.invoke_chaincode(
                    crate::CMDAC_NAME,
                    "ValidateForeignCert",
                    &[network.clone().into_bytes(), cert_bytes.clone()],
                )?;
                // Finally, an exposure rule must exist at some granularity.
                let common_name = cert.subject().common_name.clone();
                if !Self::rule_exists(ctx, &network, &org, &common_name, &chaincode, &func) {
                    return Err(ChaincodeError::AccessDenied(format!(
                        "no exposure rule for <{network}, {org}, {chaincode}, {func}> (any granularity)"
                    )));
                }
                Ok(b"ok".to_vec())
            }
            "EncryptResponse" => {
                let [cert_bytes, plaintext] = args else {
                    return Err(ChaincodeError::BadRequest(
                        "EncryptResponse expects [cert, plaintext]".into(),
                    ));
                };
                let cert = decode_certificate(cert_bytes)
                    .map_err(|e| ChaincodeError::BadRequest(format!("cert malformed: {e}")))?;
                let key = cert
                    .encryption_key()
                    .map_err(|e| ChaincodeError::BadRequest(format!("cert key invalid: {e}")))?
                    .ok_or_else(|| {
                        ChaincodeError::BadRequest(
                            "requester certificate carries no encryption key".into(),
                        )
                    })?;
                // Deterministic ephemeral derivation keeps endorsing peers
                // convergent: every peer produces the same ciphertext for
                // the same (txid, plaintext), so endorsements still match.
                let seed = format!("ecc-encrypt:{}", ctx.txid());
                let ciphertext = key.encrypt_deterministic(plaintext, seed.as_bytes());
                let wrapped = EncryptedResult {
                    plaintext_hash: sha256(plaintext),
                    ciphertext: ciphertext.to_bytes(),
                };
                Ok(wrapped.to_bytes())
            }
            other => Err(ChaincodeError::UnknownFunction(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmdac::Cmdac;
    use std::sync::Arc;
    use tdt_crypto::cert::CertRole;
    use tdt_crypto::elgamal::Ciphertext;
    use tdt_crypto::group::Group;
    use tdt_fabric::chaincode::{ChaincodeRegistry, PeerInfo, Proposal};
    use tdt_fabric::msp::{Identity, Msp};
    use tdt_ledger::state::WorldState;
    use tdt_wire::codec::Message;
    use tdt_wire::messages::{encode_certificate, NetworkConfig, OrgConfig};

    struct Fixture {
        state: WorldState,
        registry: ChaincodeRegistry,
        local_admin: Identity,
        foreign_client: Identity,
        foreign_config: NetworkConfig,
    }

    fn fixture() -> Fixture {
        let mut local_msp = Msp::new("stl", "seller-org", Group::test_group(), b"l");
        let local_admin = local_msp.enroll("admin", CertRole::Client, false);
        let mut foreign_msp = Msp::new("swt", "seller-bank-org", Group::test_group(), b"f");
        let foreign_client = foreign_msp.enroll("swt-sc", CertRole::Client, true);
        let foreign_config = NetworkConfig {
            network_id: "swt".into(),
            group_name: "modp768".into(),
            orgs: vec![OrgConfig {
                org_id: "seller-bank-org".into(),
                root_cert: encode_certificate(foreign_msp.root_certificate()),
                peer_certs: vec![],
            }],
        };
        let mut registry = ChaincodeRegistry::new();
        registry.deploy("ECC", Arc::new(Ecc::new()));
        registry.deploy("CMDAC", Arc::new(Cmdac::new()));
        Fixture {
            state: WorldState::new(),
            registry,
            local_admin,
            foreign_client,
            foreign_config,
        }
    }

    fn invoke_cc(
        f: &mut Fixture,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        relay: bool,
    ) -> Result<Vec<u8>, ChaincodeError> {
        let mut proposal = Proposal::new(
            "tx-1",
            "ch",
            chaincode,
            function,
            args.clone(),
            f.local_admin.certificate().clone(),
        );
        if relay {
            proposal = proposal.as_relay_query();
        }
        let peer = PeerInfo {
            peer_id: "stl/seller-org/peer0".into(),
            org_id: "seller-org".into(),
            network_id: "stl".into(),
            ledger_height: 1,
        };
        let mut ctx = TxContext::new(&f.state, &f.registry, &proposal, peer);
        let code = f.registry.get(chaincode).unwrap();
        let result = code.invoke(&mut ctx, function, &args);
        let rwset = ctx.into_rwset();
        if result.is_ok() {
            f.state.apply(&rwset, tdt_ledger::rwset::Version::new(1, 0));
        }
        result
    }

    fn setup_access(f: &mut Fixture) {
        // Record SWT's configuration on the STL ledger.
        let cfg = f.foreign_config.encode_to_vec();
        invoke_cc(f, "CMDAC", "RecordForeignConfig", vec![cfg], false).unwrap();
        // The paper's rule: <"we-trade", "seller-org", "TradeLensCC", "GetBillOfLading">.
        invoke_cc(
            f,
            "ECC",
            "AddAccessRule",
            vec![
                b"swt".to_vec(),
                b"seller-bank-org".to_vec(),
                b"TradeLensCC".to_vec(),
                b"GetBillOfLading".to_vec(),
            ],
            false,
        )
        .unwrap();
    }

    fn check_access(f: &mut Fixture, cert: Vec<u8>) -> Result<Vec<u8>, ChaincodeError> {
        invoke_cc(
            f,
            "ECC",
            "CheckAccess",
            vec![
                b"swt".to_vec(),
                b"seller-bank-org".to_vec(),
                b"TradeLensCC".to_vec(),
                b"GetBillOfLading".to_vec(),
                cert,
            ],
            true,
        )
    }

    #[test]
    fn permitted_requester_passes() {
        let mut f = fixture();
        setup_access(&mut f);
        let cert = encode_certificate(f.foreign_client.certificate());
        assert_eq!(check_access(&mut f, cert).unwrap(), b"ok");
    }

    #[test]
    fn no_rule_denied() {
        let mut f = fixture();
        // Config recorded but no rule added.
        let cfg = f.foreign_config.encode_to_vec();
        invoke_cc(&mut f, "CMDAC", "RecordForeignConfig", vec![cfg], false).unwrap();
        let cert = encode_certificate(f.foreign_client.certificate());
        let err = check_access(&mut f, cert).unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(m) if m.contains("no exposure rule")));
    }

    #[test]
    fn removed_rule_denied() {
        let mut f = fixture();
        setup_access(&mut f);
        invoke_cc(
            &mut f,
            "ECC",
            "RemoveAccessRule",
            vec![
                b"swt".to_vec(),
                b"seller-bank-org".to_vec(),
                b"TradeLensCC".to_vec(),
                b"GetBillOfLading".to_vec(),
            ],
            false,
        )
        .unwrap();
        let cert = encode_certificate(f.foreign_client.certificate());
        assert!(check_access(&mut f, cert).is_err());
    }

    #[test]
    fn unrecorded_network_denied() {
        let mut f = fixture();
        // Rule exists but no foreign config recorded -> cert can't validate.
        invoke_cc(
            &mut f,
            "ECC",
            "AddAccessRule",
            vec![
                b"swt".to_vec(),
                b"seller-bank-org".to_vec(),
                b"TradeLensCC".to_vec(),
                b"GetBillOfLading".to_vec(),
            ],
            false,
        )
        .unwrap();
        let cert = encode_certificate(f.foreign_client.certificate());
        assert!(check_access(&mut f, cert).is_err());
    }

    #[test]
    fn masquerading_cert_denied() {
        let mut f = fixture();
        setup_access(&mut f);
        // A cert from a different org claiming seller-bank-org access.
        let mut other_msp = Msp::new("swt", "buyer-bank-org", Group::test_group(), b"o");
        let other = other_msp.enroll("mallory", CertRole::Client, false);
        let err = check_access(&mut f, encode_certificate(other.certificate())).unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(_)));
    }

    #[test]
    fn forged_cert_denied() {
        let mut f = fixture();
        setup_access(&mut f);
        // Same subject names, but issued by an unrecorded CA.
        let mut fake_msp = Msp::new("swt", "seller-bank-org", Group::test_group(), b"fake-seed");
        let fake = fake_msp.enroll("swt-sc", CertRole::Client, false);
        let err = check_access(&mut f, encode_certificate(fake.certificate())).unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(_)));
    }

    #[test]
    fn relay_cannot_add_rules() {
        let mut f = fixture();
        let err = invoke_cc(
            &mut f,
            "ECC",
            "AddAccessRule",
            vec![b"swt".to_vec(), b"x".to_vec(), b"y".to_vec(), b"z".to_vec()],
            true,
        )
        .unwrap_err();
        assert!(matches!(err, ChaincodeError::AccessDenied(_)));
    }

    #[test]
    fn list_rules() {
        let mut f = fixture();
        setup_access(&mut f);
        invoke_cc(
            &mut f,
            "ECC",
            "AddAccessRule",
            vec![
                b"swt".to_vec(),
                b"seller-bank-org".to_vec(),
                b"TradeLensCC".to_vec(),
                b"GetShipment".to_vec(),
            ],
            false,
        )
        .unwrap();
        let listing = invoke_cc(&mut f, "ECC", "ListAccessRules", vec![], false).unwrap();
        let listing = String::from_utf8(listing).unwrap();
        assert_eq!(listing.lines().count(), 2);
        assert!(listing.contains("GetBillOfLading"));
        assert!(listing.contains("GetShipment"));
    }

    #[test]
    fn entity_level_rule_grants_only_that_entity() {
        let mut f = fixture();
        let cfg = f.foreign_config.encode_to_vec();
        invoke_cc(&mut f, "CMDAC", "RecordForeignConfig", vec![cfg], false).unwrap();
        // Grant only the client with common name "swt-sc".
        invoke_cc(
            &mut f,
            "ECC",
            "AddEntityAccessRule",
            vec![
                b"swt".to_vec(),
                b"seller-bank-org".to_vec(),
                b"swt-sc".to_vec(),
                b"TradeLensCC".to_vec(),
                b"GetBillOfLading".to_vec(),
            ],
            false,
        )
        .unwrap();
        let cert = encode_certificate(f.foreign_client.certificate());
        assert_eq!(check_access(&mut f, cert).unwrap(), b"ok");
        // A *different* member of the same org is denied.
        let mut foreign_msp = Msp::new("swt", "seller-bank-org", Group::test_group(), b"f");
        let _ = foreign_msp.enroll("swt-sc", CertRole::Client, true);
        let other = foreign_msp.enroll("other-client", CertRole::Client, true);
        assert!(check_access(&mut f, encode_certificate(other.certificate())).is_err());
    }

    #[test]
    fn network_level_wildcard_rule() {
        let mut f = fixture();
        let cfg = f.foreign_config.encode_to_vec();
        invoke_cc(&mut f, "CMDAC", "RecordForeignConfig", vec![cfg], false).unwrap();
        // Grant the whole swt network access to the function.
        invoke_cc(
            &mut f,
            "ECC",
            "AddAccessRule",
            vec![
                b"swt".to_vec(),
                b"*".to_vec(),
                b"TradeLensCC".to_vec(),
                b"GetBillOfLading".to_vec(),
            ],
            false,
        )
        .unwrap();
        let cert = encode_certificate(f.foreign_client.certificate());
        assert_eq!(check_access(&mut f, cert).unwrap(), b"ok");
    }

    #[test]
    fn function_wildcard_rule_covers_whole_chaincode() {
        let mut f = fixture();
        let cfg = f.foreign_config.encode_to_vec();
        invoke_cc(&mut f, "CMDAC", "RecordForeignConfig", vec![cfg], false).unwrap();
        invoke_cc(
            &mut f,
            "ECC",
            "AddAccessRule",
            vec![
                b"swt".to_vec(),
                b"seller-bank-org".to_vec(),
                b"TradeLensCC".to_vec(),
                b"*".to_vec(),
            ],
            false,
        )
        .unwrap();
        // Both functions pass under the single wildcard grant.
        for func in ["GetBillOfLading", "GetShipment"] {
            let cert = encode_certificate(f.foreign_client.certificate());
            let result = invoke_cc(
                &mut f,
                "ECC",
                "CheckAccess",
                vec![
                    b"swt".to_vec(),
                    b"seller-bank-org".to_vec(),
                    b"TradeLensCC".to_vec(),
                    func.as_bytes().to_vec(),
                    cert,
                ],
                true,
            );
            assert_eq!(result.unwrap(), b"ok", "function {func}");
        }
    }

    #[test]
    fn entity_rule_removal_revokes() {
        let mut f = fixture();
        let cfg = f.foreign_config.encode_to_vec();
        invoke_cc(&mut f, "CMDAC", "RecordForeignConfig", vec![cfg], false).unwrap();
        let rule = vec![
            b"swt".to_vec(),
            b"seller-bank-org".to_vec(),
            b"swt-sc".to_vec(),
            b"TradeLensCC".to_vec(),
            b"GetBillOfLading".to_vec(),
        ];
        invoke_cc(&mut f, "ECC", "AddEntityAccessRule", rule.clone(), false).unwrap();
        let cert = encode_certificate(f.foreign_client.certificate());
        assert!(check_access(&mut f, cert.clone()).is_ok());
        invoke_cc(&mut f, "ECC", "RemoveEntityAccessRule", rule, false).unwrap();
        assert!(check_access(&mut f, cert).is_err());
    }

    #[test]
    fn listing_includes_entity_rules() {
        let mut f = fixture();
        setup_access(&mut f);
        invoke_cc(
            &mut f,
            "ECC",
            "AddEntityAccessRule",
            vec![
                b"swt".to_vec(),
                b"seller-bank-org".to_vec(),
                b"swt-sc".to_vec(),
                b"TradeLensCC".to_vec(),
                b"*".to_vec(),
            ],
            false,
        )
        .unwrap();
        let listing = invoke_cc(&mut f, "ECC", "ListAccessRules", vec![], false).unwrap();
        let listing = String::from_utf8(listing).unwrap();
        assert!(listing.contains("entity:swt:seller-bank-org:swt-sc:TradeLensCC:*"));
    }

    #[test]
    fn encrypt_response_roundtrip() {
        let mut f = fixture();
        let cert = encode_certificate(f.foreign_client.certificate());
        let wrapped_bytes = invoke_cc(
            &mut f,
            "ECC",
            "EncryptResponse",
            vec![cert, b"bill of lading".to_vec()],
            true,
        )
        .unwrap();
        let wrapped = EncryptedResult::from_bytes(&wrapped_bytes).unwrap();
        assert_eq!(
            wrapped.plaintext_hash,
            tdt_crypto::sha256(b"bill of lading")
        );
        let ct = Ciphertext::from_bytes(&wrapped.ciphertext).unwrap();
        let dk = f.foreign_client.decryption_key().unwrap();
        assert_eq!(dk.decrypt(&ct).unwrap(), b"bill of lading");
    }

    #[test]
    fn encrypted_result_wrapper_roundtrip() {
        let w = EncryptedResult {
            plaintext_hash: [7u8; 32],
            ciphertext: vec![1, 2, 3],
        };
        assert_eq!(EncryptedResult::from_bytes(&w.to_bytes()).unwrap(), w);
        assert!(EncryptedResult::from_bytes(&[0u8; 10]).is_err());
    }

    #[test]
    fn encrypt_deterministic_across_peers() {
        // Two peers executing the same tx must produce identical ciphertext
        // or their endorsements would diverge.
        let mut f = fixture();
        let cert = encode_certificate(f.foreign_client.certificate());
        let a = invoke_cc(
            &mut f,
            "ECC",
            "EncryptResponse",
            vec![cert.clone(), b"data".to_vec()],
            true,
        )
        .unwrap();
        let b = invoke_cc(
            &mut f,
            "ECC",
            "EncryptResponse",
            vec![cert, b"data".to_vec()],
            true,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn encrypt_requires_encryption_key() {
        let mut f = fixture();
        let mut msp = Msp::new("swt", "seller-bank-org", Group::test_group(), b"f2");
        let no_enc = msp.enroll("plain", CertRole::Client, false);
        let err = invoke_cc(
            &mut f,
            "ECC",
            "EncryptResponse",
            vec![encode_certificate(no_enc.certificate()), b"x".to_vec()],
            true,
        )
        .unwrap_err();
        assert!(matches!(err, ChaincodeError::BadRequest(_)));
    }

    #[test]
    fn encrypt_refuses_key_bytes_outside_the_subgroup() {
        // The requester's encryption key is attacker-chosen bytes: p-1 (the
        // order-2 element), p, a zero-padded non-residue, an over-long
        // value, zero and nothing at all must each be a BadRequest.
        let mut f = fixture();
        let genuine = f.foreign_client.certificate().clone();
        let group = Group::test_group();
        let p = group.p();
        let one = tdt_crypto::bigint::BigUint::one();
        let non_residue = p.sub(&group.pow_g(&tdt_crypto::bigint::BigUint::from_u64(77)));
        for hostile in [
            p.sub(&one).to_bytes_be(),
            p.to_bytes_be(),
            [vec![0u8; 4], group.element_to_bytes(&non_residue)].concat(),
            vec![0xee; 3 * group.element_len()],
            vec![0u8; group.element_len()],
            Vec::new(),
        ] {
            let cert = tdt_crypto::cert::Certificate::assemble(
                genuine.subject().clone(),
                genuine.serial(),
                genuine.group_name().to_string(),
                genuine.sign_key_bytes().to_vec(),
                Some(hostile.clone()),
                genuine.issuer().clone(),
                genuine.signature().cloned(),
            );
            let err = invoke_cc(
                &mut f,
                "ECC",
                "EncryptResponse",
                vec![encode_certificate(&cert), b"x".to_vec()],
                true,
            )
            .unwrap_err();
            // (An empty key is "no key" on the wire: refused all the same.)
            assert!(
                matches!(err, ChaincodeError::BadRequest(_)),
                "{hostile:02x?}: {err:?}"
            );
        }
    }

    #[test]
    fn empty_rule_fields_rejected() {
        let mut f = fixture();
        let err = invoke_cc(
            &mut f,
            "ECC",
            "AddAccessRule",
            vec![b"".to_vec(), b"o".to_vec(), b"c".to_vec(), b"f".to_vec()],
            false,
        )
        .unwrap_err();
        assert!(matches!(err, ChaincodeError::BadRequest(_)));
    }

    #[test]
    fn unknown_function() {
        let mut f = fixture();
        assert!(matches!(
            invoke_cc(&mut f, "ECC", "Bogus", vec![], false),
            Err(ChaincodeError::UnknownFunction(_))
        ));
    }
}
