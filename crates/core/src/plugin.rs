//! The interop endorsement plugin (paper §4.3).
//!
//! For cross-network queries, "the normal peer endorsement process, which
//! produces a signature over query result metadata, is replaced with
//! custom logic that signs the metadata (including the result) and then
//! encrypts it with the SWT-SC's public key". Fabric's pluggable
//! endorsement mechanism (paper ref \[8\]) is modelled by
//! [`tdt_fabric::endorse::EndorsementPlugin`]; this module provides the
//! interop implementation.
//!
//! The metadata is encrypted so that "a verifiable proof associated with
//! the result [cannot be] exfiltrated by a malicious relay to unauthorized
//! networks; only the SWT-SC possesses a decryption key".

use tdt_fabric::chaincode::Proposal;
use tdt_fabric::endorse::{EndorsementPlugin, PluginOutput};
use tdt_fabric::error::FabricError;
use tdt_fabric::msp::Identity;
use tdt_wire::messages::decode_certificate;

pub use tdt_contracts::ecc::{TRANSIENT_CERT, TRANSIENT_NETWORK, TRANSIENT_ORG};

/// Signs metadata with the endorsing peer's key, then (optionally)
/// encrypts it with the requesting client's public key.
#[derive(Debug, Clone, Copy)]
pub struct InteropEndorsement {
    /// When true, the plugin encrypts the metadata payload for the
    /// requester (the confidential-policy path).
    pub encrypt_metadata: bool,
}

impl InteropEndorsement {
    /// Plugin for confidential queries (the paper's configuration).
    pub fn confidential() -> Self {
        InteropEndorsement {
            encrypt_metadata: true,
        }
    }

    /// Plugin that signs but leaves metadata in the clear.
    pub fn plaintext() -> Self {
        InteropEndorsement {
            encrypt_metadata: false,
        }
    }
}

impl EndorsementPlugin for InteropEndorsement {
    fn endorse(
        &self,
        signer: &Identity,
        payload: &[u8],
        proposal: &Proposal,
    ) -> Result<PluginOutput, FabricError> {
        // Sign the *plaintext* metadata: the destination verifies this
        // signature after the client decrypts.
        let signature = signer.sign(payload);
        if !self.encrypt_metadata {
            return Ok(PluginOutput {
                payload: payload.to_vec(),
                signature,
                payload_encrypted: false,
            });
        }
        let cert_bytes = proposal
            .transient
            .get(TRANSIENT_CERT)
            .ok_or_else(|| FabricError::Internal("proposal lacks requester-cert".into()))?;
        let cert = decode_certificate(cert_bytes)
            .map_err(|e| FabricError::Internal(format!("requester cert malformed: {e}")))?;
        let key = cert
            .encryption_key()
            .map_err(|e| FabricError::Internal(format!("requester key invalid: {e}")))?
            .ok_or_else(|| {
                FabricError::Internal("requester certificate has no encryption key".into())
            })?;
        // Deterministic ephemeral per (txid, signer): reproducible fixtures
        // without an RNG dependency inside the endorsement path.
        let seed = format!("interop-md:{}:{}", proposal.txid, signer.qualified_name());
        let ciphertext = key.encrypt_deterministic(payload, seed.as_bytes());
        Ok(PluginOutput {
            payload: ciphertext.to_bytes(),
            signature,
            payload_encrypted: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdt_crypto::cert::CertRole;
    use tdt_crypto::elgamal::Ciphertext;
    use tdt_crypto::group::Group;
    use tdt_fabric::msp::Msp;
    use tdt_wire::messages::encode_certificate;

    fn peer_identity() -> Identity {
        let mut msp = Msp::new("stl", "seller-org", Group::test_group(), b"p");
        msp.enroll("peer0", CertRole::Peer, false)
    }

    fn requester() -> Identity {
        let mut msp = Msp::new("swt", "seller-bank-org", Group::test_group(), b"c");
        msp.enroll("swt-sc", CertRole::Client, true)
    }

    fn proposal_with_cert(requester: &Identity) -> Proposal {
        Proposal::new(
            "tx-1",
            "ch",
            "TradeLensCC",
            "GetBillOfLading",
            vec![],
            requester.certificate().clone(),
        )
        .with_transient(TRANSIENT_CERT, encode_certificate(requester.certificate()))
        .as_relay_query()
    }

    #[test]
    fn confidential_plugin_encrypts_and_signs() {
        let peer = peer_identity();
        let req = requester();
        let proposal = proposal_with_cert(&req);
        let out = InteropEndorsement::confidential()
            .endorse(&peer, b"metadata bytes", &proposal)
            .unwrap();
        assert!(out.payload_encrypted);
        assert_ne!(out.payload, b"metadata bytes");
        // Signature is over the plaintext.
        let vk = peer.certificate().verifying_key().unwrap();
        assert!(vk.verify(b"metadata bytes", &out.signature).is_ok());
        // Requester (and only the requester) decrypts.
        let ct = Ciphertext::from_bytes(&out.payload).unwrap();
        let plaintext = req.decryption_key().unwrap().decrypt(&ct).unwrap();
        assert_eq!(plaintext, b"metadata bytes");
    }

    #[test]
    fn plaintext_plugin_passes_through() {
        let peer = peer_identity();
        let req = requester();
        let proposal = proposal_with_cert(&req);
        let out = InteropEndorsement::plaintext()
            .endorse(&peer, b"md", &proposal)
            .unwrap();
        assert!(!out.payload_encrypted);
        assert_eq!(out.payload, b"md");
    }

    #[test]
    fn missing_cert_fails_confidential() {
        let peer = peer_identity();
        let req = requester();
        let proposal = Proposal::new("tx-1", "ch", "cc", "f", vec![], req.certificate().clone());
        let err = InteropEndorsement::confidential()
            .endorse(&peer, b"md", &proposal)
            .unwrap_err();
        assert!(matches!(err, FabricError::Internal(_)));
    }

    #[test]
    fn cert_without_enc_key_fails_confidential() {
        let peer = peer_identity();
        let mut msp = Msp::new("swt", "org", Group::test_group(), b"x");
        let plain_client = msp.enroll("c", CertRole::Client, false);
        let proposal = Proposal::new(
            "tx",
            "ch",
            "cc",
            "f",
            vec![],
            plain_client.certificate().clone(),
        )
        .with_transient(
            TRANSIENT_CERT,
            encode_certificate(plain_client.certificate()),
        );
        assert!(InteropEndorsement::confidential()
            .endorse(&peer, b"md", &proposal)
            .is_err());
    }

    #[test]
    fn deterministic_per_txid_and_signer() {
        let peer = peer_identity();
        let req = requester();
        let proposal = proposal_with_cert(&req);
        let a = InteropEndorsement::confidential()
            .endorse(&peer, b"md", &proposal)
            .unwrap();
        let b = InteropEndorsement::confidential()
            .endorse(&peer, b"md", &proposal)
            .unwrap();
        assert_eq!(a, b);
        // Different signer -> different ciphertext.
        let mut msp2 = Msp::new("stl", "carrier-org", Group::test_group(), b"p2");
        let peer2 = msp2.enroll("peer0", CertRole::Peer, false);
        let c = InteropEndorsement::confidential()
            .endorse(&peer2, b"md", &proposal)
            .unwrap();
        assert_ne!(a.payload, c.payload);
    }
}
