//! E12's proof-size series: the encoded size of an attestation proof as the
//! verification policy grows from 1 to 8 organizations (one attesting peer
//! each, 768-bit group), with the attestation metadata in the clear and
//! encrypted to the requester.
//!
//! Keys, signature nonces and the metadata encryption are all seeded, so the
//! sizes are exact. A change that moves one changes the proof format or the
//! size of a signature, certificate or ciphertext. Each plaintext proof
//! passes the shared attestation rule under an all-of policy over its orgs
//! before it is measured, so what is pinned is the size of a proof that
//! verifies.

use tdt::contracts::foreign::{verify_attestations, Decoded, Expected, Reason};
use tdt::crypto::cert::CertRole;
use tdt::crypto::group::Group;
use tdt::crypto::sha256::sha256;
use tdt::fabric::msp::{Identity, Msp};
use tdt::wire::codec::Message;
use tdt::wire::messages::{encode_certificate, Attestation, PolicyNode, Proof, ResultMetadata};

const RESULT: &[u8] = b"a bill of lading sized payload: 600 tulip bulbs, carrier X, PO-1001";

/// `(orgs, proof bytes with plaintext metadata, with encrypted metadata)`.
const SIZES: [(usize, usize, usize); 4] = [
    (1, 715, 849),
    (2, 1_295, 1_563),
    (4, 2_455, 2_991),
    (8, 4_775, 5_847),
];

/// A synthetic source network of `n` organizations, one attesting peer
/// each, and the destination client that requested the proof.
struct SyntheticSource {
    network_id: String,
    peers: Vec<(String, Identity)>,
    requester: Identity,
}

impl SyntheticSource {
    fn new(n: usize) -> Self {
        let network_id = "synthetic-net".to_string();
        let peers = (0..n)
            .map(|i| {
                let org = format!("org-{i}");
                let mut msp = Msp::new(&network_id, &org, Group::test_group(), b"bench");
                let peer = msp.enroll("peer0", CertRole::Peer, false);
                (org, peer)
            })
            .collect();
        let mut req_msp = Msp::new("dest-net", "dest-org", Group::test_group(), b"bench-req");
        let requester = req_msp.enroll("client", CertRole::Client, true);
        SyntheticSource {
            network_id,
            peers,
            requester,
        }
    }

    /// A proof over `result` with one attestation per org, the metadata
    /// optionally encrypted to the requester.
    fn generate_proof(&self, result: &[u8], nonce: &[u8], encrypt_metadata: bool) -> Proof {
        let address = format!("{}:ledger:DataCC:GetData", self.network_id);
        let enc_key = self
            .requester
            .certificate()
            .encryption_key()
            .expect("requester certificate decodes")
            .expect("requester enrolled with an encryption key");
        let attestations = self
            .peers
            .iter()
            .map(|(org, peer)| {
                let metadata = ResultMetadata {
                    request_id: "bench-req".into(),
                    address: address.clone(),
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
                let metadata = if encrypt_metadata {
                    let seed = format!("bench:{}", peer.qualified_name());
                    enc_key
                        .encrypt_deterministic(&md, seed.as_bytes())
                        .to_bytes()
                } else {
                    md
                };
                Attestation {
                    signer_cert: encode_certificate(peer.certificate()),
                    signature: signature.to_bytes(),
                    metadata,
                    metadata_encrypted: encrypt_metadata,
                }
            })
            .collect();
        Proof {
            request_id: "bench-req".into(),
            address,
            nonce: nonce.to_vec(),
            result: result.to_vec(),
            attestations,
        }
    }
}

/// Runs a plaintext `proof` through the attestation rule under an all-of
/// policy over `source`'s orgs.
fn assert_verifies(source: &SyntheticSource, proof: &Proof) {
    let decoded: Vec<Decoded<&[u8]>> = proof
        .attestations
        .iter()
        .map(|att| {
            Decoded::new(att, att.metadata.as_slice(), |cert| {
                let key = cert.verifying_key();
                Ok((key.map_err(|e| Reason::Malformed(e.to_string()))?, None))
            })
            .unwrap()
        })
        .collect();
    let expected = Expected {
        request_id: &proof.request_id,
        address: &proof.address,
        nonce: &proof.nonce,
        result_hash: sha256(&proof.result),
    };
    let policy = PolicyNode::all_of(source.peers.iter().map(|(org, _)| org.clone()));
    verify_attestations(&expected, &decoded, &policy).unwrap();
}

#[test]
fn proof_size_per_policy_size_is_pinned() {
    let measured: Vec<(usize, usize, usize)> = SIZES
        .iter()
        .map(|&(n, _, _)| {
            let source = SyntheticSource::new(n);
            let size = |encrypt| {
                let proof = source.generate_proof(RESULT, &[1; 16], encrypt);
                if !encrypt {
                    assert_verifies(&source, &proof);
                }
                proof.encode_to_vec().len()
            };
            (n, size(false), size(true))
        })
        .collect();
    assert_eq!(measured, SIZES);
}
