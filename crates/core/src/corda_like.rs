//! A second network driver: a Corda-like notary network.
//!
//! The paper's extensibility claim (§5): "the relay service ... can be
//! directly reused in networks built on Corda or Quorum ... In Corda, a
//! verification policy can be specified to include signatures from
//! notaries, which will be involved in access control, proof generation
//! and verification." This module demonstrates that claim: a minimal
//! notary-based ledger with its own driver that plugs into the same relay,
//! wire protocol, and destination-side Data Acceptance contract — no
//! changes to any of them.

use crate::error::InteropError;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tdt_crypto::cert::CertRole;
use tdt_crypto::group::Group;
use tdt_crypto::sha256::sha256;
use tdt_fabric::msp::{Identity, Msp};
use tdt_relay::driver::NetworkDriver;
use tdt_relay::RelayError;
use tdt_wire::codec::Message;
use tdt_wire::messages::{
    encode_certificate, Attestation, NetworkConfig, OrgConfig, Query, QueryResponse,
    ResponseStatus, ResultMetadata,
};

/// A minimal Corda-like network: notaries attest facts held in a shared
/// vault. Each notary belongs to its own "organization" so the standard
/// verification-policy language applies unchanged.
pub struct NotaryNetwork {
    network_id: String,
    group: Group,
    notaries: Vec<(String, Identity)>,
    msps: Vec<Msp>,
    /// The vault: `contract:function:key` -> fact bytes.
    vault: RwLock<HashMap<String, Vec<u8>>>,
    /// Exposure control: (requesting network, org) pairs allowed to query.
    exposure: RwLock<HashSet<(String, String)>>,
    height: RwLock<u64>,
}

impl std::fmt::Debug for NotaryNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NotaryNetwork")
            .field("network_id", &self.network_id)
            .field("notaries", &self.notaries.len())
            .finish()
    }
}

impl NotaryNetwork {
    /// Creates a notary network with one notary per listed organization.
    pub fn new(network_id: impl Into<String>, notary_orgs: &[&str]) -> Self {
        let network_id = network_id.into();
        let group = Group::test_group();
        let mut notaries = Vec::new();
        let mut msps = Vec::new();
        for org in notary_orgs {
            let mut msp = Msp::new(&network_id, org, group.clone(), b"notary-seed");
            // Notaries act as the network's attesting nodes; issuing them
            // peer certificates keeps the destination CMDAC's "signer must
            // be a peer" rule meaningful across platforms.
            let identity = msp.enroll("notary0", CertRole::Peer, false);
            notaries.push(((*org).to_string(), identity));
            msps.push(msp);
        }
        NotaryNetwork {
            network_id,
            group,
            notaries,
            msps,
            vault: RwLock::new(HashMap::new()),
            exposure: RwLock::new(HashSet::new()),
            height: RwLock::new(1),
        }
    }

    /// The network's unique name.
    pub fn network_id(&self) -> &str {
        &self.network_id
    }

    /// Records a fact in the vault.
    pub fn record_fact(&self, contract: &str, function: &str, key: &str, value: Vec<u8>) {
        self.vault
            .write()
            .insert(format!("{contract}:{function}:{key}"), value);
        *self.height.write() += 1;
    }

    /// Grants query access to members of `(network, org)`.
    pub fn allow(&self, network: impl Into<String>, org: impl Into<String>) {
        self.exposure.write().insert((network.into(), org.into()));
    }

    /// The shareable configuration for destination-side recording, in the
    /// exact same schema Fabric networks use.
    pub fn network_config(&self) -> NetworkConfig {
        let orgs = self
            .msps
            .iter()
            .zip(&self.notaries)
            .map(|(msp, (org, identity))| OrgConfig {
                org_id: org.clone(),
                root_cert: encode_certificate(msp.root_certificate()),
                peer_certs: vec![encode_certificate(identity.certificate())],
            })
            .collect();
        NetworkConfig {
            network_id: self.network_id.clone(),
            group_name: self.group.name().to_string(),
            orgs,
        }
    }
}

/// The Corda-like [`NetworkDriver`].
pub struct CordaLikeDriver {
    network: Arc<NotaryNetwork>,
}

impl std::fmt::Debug for CordaLikeDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CordaLikeDriver")
            .field("network", &self.network.network_id)
            .finish()
    }
}

impl CordaLikeDriver {
    /// Creates a driver for `network`.
    pub fn new(network: Arc<NotaryNetwork>) -> Self {
        CordaLikeDriver { network }
    }

    fn execute(&self, query: &Query) -> Result<QueryResponse, InteropError> {
        let address = &query.address;
        if address.network_id != self.network.network_id {
            return Err(InteropError::WrongNetwork {
                expected: self.network.network_id.clone(),
                got: address.network_id.clone(),
            });
        }
        // Access control: the requesting (network, org) must be allowed.
        let subject = (
            query.auth.network_id.clone(),
            query.auth.organization_id.clone(),
        );
        if !self.network.exposure.read().contains(&subject) {
            return Ok(QueryResponse {
                request_id: query.request_id.clone(),
                status: ResponseStatus::AccessDenied,
                error: format!("no exposure grant for {subject:?}"),
                ..Default::default()
            });
        }
        // Fetch the fact.
        let key_arg = address
            .args
            .first()
            .map(|a| String::from_utf8_lossy(a).into_owned())
            .unwrap_or_default();
        let vault_key = format!("{}:{}:{}", address.contract_id, address.function, key_arg);
        let Some(fact) = self.network.vault.read().get(&vault_key).cloned() else {
            return Ok(QueryResponse {
                request_id: query.request_id.clone(),
                status: ResponseStatus::NotFound,
                error: format!("no fact at {vault_key:?}"),
                ..Default::default()
            });
        };
        // Pick notaries per the verification policy.
        let orgs = query.policy.expression.minimal_org_set().ok_or_else(|| {
            InteropError::PolicyUnsatisfiable("policy has no satisfying org set".into())
        })?;
        // Encrypt the fact for the requester when confidential.
        let requester_cert = query
            .auth
            .decode_certificate()
            .map_err(|e| InteropError::BadAuthentication(e.to_string()))?;
        let (result, result_encrypted, result_hash) = if query.policy.confidential {
            let key = requester_cert
                .encryption_key()?
                .ok_or(InteropError::MissingDecryptionKey)?;
            let seed = format!("corda-result:{}", query.request_id);
            let ct = key.encrypt_deterministic(&fact, seed.as_bytes());
            (ct.to_bytes(), true, sha256(&fact).to_vec())
        } else {
            (fact.clone(), false, sha256(&fact).to_vec())
        };
        let height = *self.network.height.read();
        let mut attestations = Vec::with_capacity(orgs.len());
        for org in &orgs {
            let Some((_, notary)) = self.network.notaries.iter().find(|(o, _)| o == org) else {
                return Ok(QueryResponse {
                    request_id: query.request_id.clone(),
                    status: ResponseStatus::PolicyUnsatisfiable,
                    error: format!("no notary for org {org:?}"),
                    ..Default::default()
                });
            };
            let metadata = ResultMetadata {
                request_id: query.request_id.clone(),
                address: address.display_name(),
                result_hash: result_hash.clone(),
                nonce: query.nonce.clone(),
                peer_id: notary.qualified_name(),
                org_id: org.clone(),
                ledger_height: height,
                committed_block_plus_one: 0,
                txid: String::new(),
            };
            let metadata_bytes = metadata.encode_to_vec();
            let signature = notary.sign(&metadata_bytes);
            let (metadata_out, metadata_encrypted) = if query.policy.confidential {
                let key = requester_cert
                    .encryption_key()?
                    .ok_or(InteropError::MissingDecryptionKey)?;
                let seed = format!("corda-md:{}:{}", query.request_id, notary.qualified_name());
                (
                    key.encrypt_deterministic(&metadata_bytes, seed.as_bytes())
                        .to_bytes(),
                    true,
                )
            } else {
                (metadata_bytes, false)
            };
            attestations.push(Attestation {
                signer_cert: encode_certificate(notary.certificate()),
                signature: signature.to_bytes(),
                metadata: metadata_out,
                metadata_encrypted,
            });
        }
        Ok(QueryResponse {
            request_id: query.request_id.clone(),
            status: ResponseStatus::Ok,
            error: String::new(),
            result,
            result_encrypted,
            attestations,
        })
    }
}

impl NetworkDriver for CordaLikeDriver {
    fn network_id(&self) -> &str {
        &self.network.network_id
    }

    fn execute_query(&self, query: &Query) -> Result<QueryResponse, RelayError> {
        self.execute(query)
            .map_err(|e| RelayError::DriverFailed(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::InteropClient;
    use crate::setup::stl_swt_testbed;
    use tdt_relay::discovery::DiscoveryService;
    use tdt_relay::service::RelayService;
    use tdt_relay::transport::{EnvelopeHandler, RelayTransport};
    use tdt_wire::messages::{NetworkAddress, VerificationPolicy};

    /// Wires a notary network into the standard testbed's relay fabric.
    fn with_notary_net() -> (crate::setup::Testbed, Arc<NotaryNetwork>) {
        let t = stl_swt_testbed();
        let notary_net = Arc::new(NotaryNetwork::new(
            "corda-net",
            &["notary-org-a", "notary-org-b"],
        ));
        notary_net.record_fact("VaultCC", "GetFact", "K-1", b"attested fact".to_vec());
        notary_net.allow("swt", "seller-bank-org");
        // A relay for the notary network, reusing the same bus + registry.
        let relay = Arc::new(RelayService::new(
            "corda-relay",
            "corda-net",
            Arc::clone(&t.registry) as Arc<dyn DiscoveryService>,
            Arc::clone(&t.bus) as Arc<dyn RelayTransport>,
        ));
        relay.register_driver(Arc::new(CordaLikeDriver::new(Arc::clone(&notary_net))));
        t.bus.register(
            "corda-relay",
            Arc::clone(&relay) as Arc<dyn EnvelopeHandler>,
        );
        t.registry.register("corda-net", "inproc:corda-relay");
        (t, notary_net)
    }

    fn fact_address() -> NetworkAddress {
        NetworkAddress::new("corda-net", "vault", "VaultCC", "GetFact").with_arg(b"K-1".to_vec())
    }

    fn notary_policy() -> VerificationPolicy {
        VerificationPolicy::all_of_orgs(["notary-org-a", "notary-org-b"]).with_confidentiality()
    }

    #[test]
    fn same_client_and_relay_reach_notary_network() {
        let (t, _net) = with_notary_net();
        let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        let remote = client
            .query_remote(fact_address(), notary_policy())
            .unwrap();
        assert_eq!(remote.data, b"attested fact");
        assert_eq!(remote.proof.attestations.len(), 2);
    }

    #[test]
    fn cmdac_validates_notary_proofs_unchanged() {
        let (t, notary_net) = with_notary_net();
        // Record the notary network's config + policy on SWT via the same
        // admin path used for Fabric networks.
        let admin = t.swt_seller_gateway();
        crate::config::record_foreign_config(&admin, &notary_net.network_config()).unwrap();
        crate::config::set_verification_policy(
            &admin,
            "corda-net",
            "VaultCC",
            "GetFact",
            &notary_policy(),
        )
        .unwrap();
        // Fetch data + proof, then have SWT's CMDAC validate it.
        let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        let remote = client
            .query_remote(fact_address(), notary_policy())
            .unwrap();
        let verdict = admin
            .submit(
                "CMDAC",
                "ValidateProof",
                vec![
                    b"corda-net".to_vec(),
                    b"corda-net:vault:VaultCC:GetFact".to_vec(),
                    remote.proof_bytes(),
                ],
            )
            .unwrap()
            .into_committed()
            .unwrap();
        assert_eq!(verdict, b"ok");
    }

    #[test]
    fn exposure_enforced() {
        let (t, notary_net) = with_notary_net();
        // Revoke access by re-creating the grant set without swt.
        notary_net.exposure.write().clear();
        let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        let err = client
            .query_remote(fact_address(), notary_policy())
            .unwrap_err();
        assert!(matches!(err, InteropError::AccessDenied(_)));
    }

    #[test]
    fn missing_fact_not_found() {
        let (t, _net) = with_notary_net();
        let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        let addr = NetworkAddress::new("corda-net", "vault", "VaultCC", "GetFact")
            .with_arg(b"NO-SUCH-KEY".to_vec());
        let err = client.query_remote(addr, notary_policy()).unwrap_err();
        assert!(matches!(err, InteropError::NotFound(_)));
    }

    #[test]
    fn unknown_notary_org_policy_unsatisfiable() {
        let (t, _net) = with_notary_net();
        let client = InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay));
        let policy = VerificationPolicy::all_of_orgs(["ghost-org"]).with_confidentiality();
        let err = client.query_remote(fact_address(), policy).unwrap_err();
        assert!(matches!(err, InteropError::PolicyUnsatisfiable(_)));
    }
}
