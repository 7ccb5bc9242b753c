//! Shared helpers for the benchmark harness.
//!
//! Every bench target regenerates one of the paper's evaluation artifacts;
//! the mapping is recorded in `DESIGN.md` (experiment index) and the
//! measured results in `EXPERIMENTS.md`.

use interop::driver::query_auth_bytes;
use interop::setup::{issue_sample_bl, stl_swt_testbed, Testbed};
use interop::InteropClient;
use std::sync::Arc;
use tdt_contracts::swt::SwtChaincode;
use tdt_crypto::cert::CertRole;
use tdt_crypto::group::Group;
use tdt_crypto::sha256::sha256;
use tdt_fabric::msp::{Identity, Msp};
use tdt_wire::codec::Message;
use tdt_wire::messages::{
    encode_certificate, Attestation, AuthInfo, NetworkAddress, NetworkConfig, OrgConfig, Proof,
    Query, ResultMetadata, VerificationPolicy,
};

/// Builds a testbed with a B/L issued and the L/C ready for docs upload.
pub fn prepared_testbed(po: &str) -> Testbed {
    let t = stl_swt_testbed();
    issue_sample_bl(&t, po);
    let buyer = t.swt_buyer_gateway();
    buyer
        .submit(
            SwtChaincode::NAME,
            "RequestLC",
            vec![
                po.as_bytes().to_vec(),
                b"LC-1".to_vec(),
                b"buyer".to_vec(),
                b"seller".to_vec(),
                b"100000".to_vec(),
            ],
        )
        .unwrap() // lint:allow(panic: "bench fixture: abort loudly on broken setup")
        .into_committed()
        .unwrap(); // lint:allow(panic: "bench fixture: abort loudly on broken setup")
    buyer
        .submit(SwtChaincode::NAME, "IssueLC", vec![po.as_bytes().to_vec()])
        .unwrap() // lint:allow(panic: "bench fixture: abort loudly on broken setup")
        .into_committed()
        .unwrap(); // lint:allow(panic: "bench fixture: abort loudly on broken setup")
    t
}

/// The standard B/L query address.
pub fn bl_address(po: &str) -> NetworkAddress {
    NetworkAddress::new("stl", "trade-channel", "TradeLensCC", "GetBillOfLading")
        .with_arg(po.as_bytes().to_vec())
}

/// The paper's verification policy (both STL orgs, confidential).
pub fn bl_policy() -> VerificationPolicy {
    VerificationPolicy::all_of_orgs(["seller-org", "carrier-org"]).with_confidentiality()
}

/// An interop client for the SWT Seller Client over the testbed's relay.
pub fn swt_client(t: &Testbed) -> InteropClient {
    InteropClient::new(t.swt_seller_gateway(), Arc::clone(&t.swt_relay))
}

/// A synthetic multi-org "source network" for proof-scaling benches: `n`
/// organizations, one attesting peer each, plus a requesting client.
pub struct SyntheticSource {
    /// Network id.
    pub network_id: String,
    /// Per-org attesting peers.
    pub peers: Vec<(String, Identity)>,
    /// The shareable configuration.
    pub config: NetworkConfig,
    /// The requesting client (with encryption keys).
    pub requester: Identity,
}

impl SyntheticSource {
    /// Builds the synthetic source with `n` orgs.
    pub fn new(n: usize) -> Self {
        let network_id = "synthetic-net".to_string();
        let mut peers = Vec::with_capacity(n);
        let mut orgs = Vec::with_capacity(n);
        for i in 0..n {
            let org = format!("org-{i}");
            let mut msp = Msp::new(&network_id, &org, Group::test_group(), b"bench");
            let peer = msp.enroll("peer0", CertRole::Peer, false);
            orgs.push(OrgConfig {
                org_id: org.clone(),
                root_cert: encode_certificate(msp.root_certificate()),
                peer_certs: vec![encode_certificate(peer.certificate())],
            });
            peers.push((org, peer));
        }
        let mut req_msp = Msp::new("dest-net", "dest-org", Group::test_group(), b"bench-req");
        let requester = req_msp.enroll("client", CertRole::Client, true);
        SyntheticSource {
            network_id: network_id.clone(),
            peers,
            config: NetworkConfig {
                network_id,
                group_name: "modp768".into(),
                orgs,
            },
            requester,
        }
    }

    /// The canonical address of the synthetic query.
    pub fn address(&self) -> String {
        format!("{}:ledger:DataCC:GetData", self.network_id)
    }

    /// A signed query for the synthetic source.
    pub fn query(&self, confidential: bool) -> Query {
        let orgs: Vec<String> = self.peers.iter().map(|(o, _)| o.clone()).collect();
        let mut policy = VerificationPolicy::all_of_orgs(orgs);
        if confidential {
            policy = policy.with_confidentiality();
        }
        let mut query = Query {
            request_id: "bench-req".into(),
            address: NetworkAddress::new(&self.network_id, "ledger", "DataCC", "GetData")
                .with_arg(b"K".to_vec()),
            policy,
            auth: AuthInfo {
                network_id: "dest-net".into(),
                organization_id: "dest-org".into(),
                certificate: encode_certificate(self.requester.certificate()),
                signature: Vec::new(),
            },
            nonce: vec![7; 16],
            invocation: false,
        };
        query.auth.signature = self
            .requester
            .signing_key()
            .sign(&query_auth_bytes(&query))
            .to_bytes();
        query
    }

    /// Generates an attestation proof over `result` with one attestation
    /// per org, optionally encrypting metadata for the requester.
    pub fn generate_proof(&self, result: &[u8], nonce: &[u8], encrypt_metadata: bool) -> Proof {
        let enc_key = self
            .requester
            .certificate()
            .encryption_key()
            .unwrap() // lint:allow(panic: "bench fixture: abort loudly on broken setup")
            .unwrap();
        let attestations = self
            .peers
            .iter()
            .map(|(org, peer)| {
                let metadata = ResultMetadata {
                    request_id: "bench-req".into(),
                    address: self.address(),
                    result_hash: sha256(result).to_vec(),
                    nonce: nonce.to_vec(),
                    peer_id: peer.qualified_name(),
                    org_id: org.clone(),
                    ledger_height: 10,
                    committed_block_plus_one: 0,
                    txid: String::new(),
                };
                let md = metadata.encode_to_vec();
                let signature = peer.sign(&md);
                let (metadata_out, encrypted) = if encrypt_metadata {
                    let seed = format!("bench:{}", peer.qualified_name());
                    (
                        enc_key
                            .encrypt_deterministic(&md, seed.as_bytes())
                            .to_bytes(),
                        true,
                    )
                } else {
                    (md, false)
                };
                Attestation {
                    signer_cert: encode_certificate(peer.certificate()),
                    signature: signature.to_bytes(),
                    metadata: metadata_out,
                    metadata_encrypted: encrypted,
                }
            })
            .collect();
        Proof {
            request_id: "bench-req".into(),
            address: self.address(),
            nonce: nonce.to_vec(),
            result: result.to_vec(),
            attestations,
        }
    }

    /// Validates a (plaintext-metadata) proof the way the CMDAC does:
    /// authenticate every signer against the config, verify every
    /// signature, and check metadata consistency. Returns the number of
    /// valid attestations.
    ///
    /// # Panics
    ///
    /// Panics when any attestation fails (benches want the happy path).
    pub fn validate_proof(&self, proof: &Proof) -> usize {
        let result_hash = sha256(&proof.result);
        let mut count = 0;
        for att in &proof.attestations {
            let cert = tdt_wire::messages::decode_certificate(&att.signer_cert).unwrap(); // lint:allow(panic: "bench validates the happy path; a failed attestation must abort the run")
            let org = self
                .config
                .orgs
                .iter()
                .find(|o| o.org_id == cert.subject().organization)
                .unwrap(); // lint:allow(panic: "bench validates the happy path; a failed attestation must abort the run")
            let root = tdt_wire::messages::decode_certificate(&org.root_cert).unwrap(); // lint:allow(panic: "bench validates the happy path; a failed attestation must abort the run")
            cert.verify(&root).unwrap(); // covered by the allow above
            let vk = cert.verifying_key().unwrap(); // lint:allow(panic: "bench validates the happy path; a failed attestation must abort the run")
            let sig = tdt_crypto::schnorr::Signature::from_bytes(&att.signature).unwrap(); // covered by the allow above
            vk.verify(&att.metadata, &sig).unwrap(); // lint:allow(panic: "bench validates the happy path; a failed attestation must abort the run")
            let md = ResultMetadata::decode_from_slice(&att.metadata).unwrap(); // covered by the allow above
            assert_eq!(md.result_hash, result_hash.to_vec());
            count += 1;
        }
        count
    }
}

/// The value following `flag` on the command line.
pub fn arg_after(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).cloned()
}

/// The `"runs"` lines of a `BENCH_*.json` trajectory file: the rows `path`
/// already holds under labels other than `label`, then `rows` (this run's,
/// each starting `    {"label": "<label>", `), joined for the array body.
pub fn trajectory_rows(path: &str, label: &str, rows: &[String]) -> String {
    let mine = format!("    {{\"label\": \"{label}\", ");
    let kept = std::fs::read_to_string(path).unwrap_or_default();
    kept.lines()
        .filter(|line| line.starts_with("    {\"label\": ") && !line.starts_with(&mine))
        .map(|line| line.trim_end_matches(','))
        .chain(rows.iter().map(String::as_str))
        .collect::<Vec<_>>()
        .join(",\n")
}
