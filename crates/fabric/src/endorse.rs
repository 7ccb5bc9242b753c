//! Endorsement: proposal responses, endorsement plugins, and the signed
//! transaction envelope that flows to the ordering service.
//!
//! Fabric supports *pluggable transaction endorsement* (paper ref \[8\]); the
//! [`EndorsementPlugin`] trait reproduces that extension point. The default
//! plugin signs the proposal-response payload. The interop layer installs a
//! custom plugin that signs query metadata and then encrypts it with the
//! remote client's public key (paper §4.3).

use crate::chaincode::Proposal;
use crate::error::FabricError;
use crate::msp::Identity;
use tdt_crypto::cert::Certificate;
use tdt_crypto::schnorr::Signature;
use tdt_crypto::sha256::sha256;
use tdt_ledger::rwset::{KvRead, KvWrite, NsRwSet, TxRwSet, Version};
use tdt_wire::codec::{Message, Reader, Writer};
use tdt_wire::messages::{decode_certificate, encode_certificate};
use tdt_wire::WireError;

/// The output of simulating a proposal on one peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationResult {
    /// The chaincode's return value.
    pub result: Vec<u8>,
    /// The recorded read/write set.
    pub rwset: TxRwSet,
}

/// What endorsers sign for regular transactions: a digest binding the
/// transaction id, chaincode, read/write set, and result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProposalResponsePayload {
    /// Transaction id being endorsed.
    pub txid: String,
    /// Chaincode that produced the response.
    pub chaincode: String,
    /// SHA-256 of the rwset's canonical bytes.
    pub rwset_hash: [u8; 32],
    /// SHA-256 of the result bytes.
    pub result_hash: [u8; 32],
}

impl ProposalResponsePayload {
    /// Builds the payload for a simulation result.
    pub fn new(txid: &str, chaincode: &str, sim: &SimulationResult) -> Self {
        ProposalResponsePayload {
            txid: txid.to_string(),
            chaincode: chaincode.to_string(),
            rwset_hash: sha256(&sim.rwset.canonical_bytes()),
            result_hash: sha256(&sim.result),
        }
    }

    /// Canonical bytes covered by endorsement signatures.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.txid.len() + self.chaincode.len());
        out.extend_from_slice(b"tdt-prp-v1");
        out.extend_from_slice(&(self.txid.len() as u32).to_be_bytes());
        out.extend_from_slice(self.txid.as_bytes());
        out.extend_from_slice(&(self.chaincode.len() as u32).to_be_bytes());
        out.extend_from_slice(self.chaincode.as_bytes());
        out.extend_from_slice(&self.rwset_hash);
        out.extend_from_slice(&self.result_hash);
        out
    }
}

/// One peer's endorsement of a transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Endorsement {
    /// The endorsing peer's certificate.
    pub endorser_cert: Certificate,
    /// Signature over the proposal-response payload's canonical bytes.
    pub signature: Signature,
}

/// Output of an [`EndorsementPlugin`].
#[derive(Debug, Clone, PartialEq)]
pub struct PluginOutput {
    /// The payload to return to the caller — the input payload by default,
    /// or a transformed (e.g. encrypted) version of it.
    pub payload: Vec<u8>,
    /// Signature over the *plaintext* input payload.
    pub signature: Signature,
    /// True when `payload` has been encrypted by the plugin.
    pub payload_encrypted: bool,
}

/// Pluggable endorsement logic (Fabric's custom endorsement plugins).
pub trait EndorsementPlugin: Send + Sync {
    /// Produces an endorsement over `payload` on behalf of `signer`.
    ///
    /// `proposal` gives plugins access to transient fields (the interop
    /// plugin reads the requesting client's public key from there).
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] when the plugin cannot endorse (e.g. a
    /// required transient field is missing).
    fn endorse(
        &self,
        signer: &Identity,
        payload: &[u8],
        proposal: &Proposal,
    ) -> Result<PluginOutput, FabricError>;
}

/// The default endorsement plugin: sign the payload, return it unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultEndorsement;

impl EndorsementPlugin for DefaultEndorsement {
    fn endorse(
        &self,
        signer: &Identity,
        payload: &[u8],
        _proposal: &Proposal,
    ) -> Result<PluginOutput, FabricError> {
        Ok(PluginOutput {
            payload: payload.to_vec(),
            signature: signer.sign(payload),
            payload_encrypted: false,
        })
    }
}

/// A fully endorsed transaction, ready for ordering.
///
/// Its codec is hand-written: the rwset, certificate and endorsement
/// fields are computed encodings, not declared fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TransactionEnvelope {
    /// Transaction id.
    pub txid: String,
    /// Channel name.
    pub channel: String,
    /// Chaincode name.
    pub chaincode: String,
    /// The chaincode result agreed on by the endorsers.
    pub result: Vec<u8>,
    /// The read/write set to validate and commit.
    pub rwset: TxRwSet,
    /// Collected endorsements.
    pub endorsements: Vec<Endorsement>,
    /// The submitting client's certificate.
    pub creator_cert: Certificate,
}

impl TransactionEnvelope {
    /// Reconstructs the payload endorsers must have signed.
    pub fn response_payload(&self) -> ProposalResponsePayload {
        ProposalResponsePayload {
            txid: self.txid.clone(),
            chaincode: self.chaincode.clone(),
            rwset_hash: sha256(&self.rwset.canonical_bytes()),
            result_hash: sha256(&self.result),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------------

/// Hand-written codec: a presence flag, and versions written plus one.
struct KvReadMsg(KvRead);

impl Message for KvReadMsg {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.0.key);
        if let Some(v) = self.0.version {
            w.bool(2, true);
            w.u64(3, v.block + 1);
            w.u64(4, v.tx + 1);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut key = String::new();
        let mut has = false;
        let mut block = 0u64;
        let mut tx = 0u64;
        while let Some((field, value)) = r.next_field()? {
            match field {
                1 => key = value.as_string(1, "key")?,
                2 => has = value.as_bool(2)?,
                3 => block = value.as_u64(3)?,
                4 => tx = value.as_u64(4)?,
                _ => {}
            }
        }
        let version = if has {
            if block == 0 || tx == 0 {
                return Err(WireError::Invalid("read version fields missing".into()));
            }
            Some(Version::new(block - 1, tx - 1))
        } else {
            None
        };
        Ok(KvReadMsg(KvRead { key, version }))
    }
}

/// Hand-written codec: a presence flag tells a delete from an empty value.
struct KvWriteMsg(KvWrite);

impl Message for KvWriteMsg {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.0.key);
        if let Some(v) = &self.0.value {
            w.bool(2, true);
            w.bytes(3, v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut key = String::new();
        let mut present = false;
        let mut value = Vec::new();
        while let Some((field, v)) = r.next_field()? {
            match field {
                1 => key = v.as_string(1, "key")?,
                2 => present = v.as_bool(2)?,
                3 => value = v.as_bytes(3)?.to_vec(),
                _ => {}
            }
        }
        Ok(KvWriteMsg(KvWrite {
            key,
            value: present.then_some(value),
        }))
    }
}

/// Hand-written codec: it wraps the ledger's rwset types, not wire structs.
struct NsRwSetMsg(NsRwSet);

impl Message for NsRwSetMsg {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.0.namespace);
        for read in &self.0.reads {
            w.message_always(2, &KvReadMsg(read.clone()));
        }
        for write in &self.0.writes {
            w.message_always(3, &KvWriteMsg(write.clone()));
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = NsRwSet::new("");
        while let Some((field, v)) = r.next_field()? {
            match field {
                1 => out.namespace = v.as_string(1, "namespace")?,
                2 => out.reads.push(v.as_message::<KvReadMsg>(2)?.0),
                3 => out.writes.push(v.as_message::<KvWriteMsg>(3)?.0),
                _ => {}
            }
        }
        Ok(NsRwSetMsg(out))
    }
}

/// Encodes a [`TxRwSet`] to wire bytes.
pub fn encode_rwset(rwset: &TxRwSet) -> Vec<u8> {
    let mut w = Writer::new();
    for ns in &rwset.ns_sets {
        w.message_always(1, &NsRwSetMsg(ns.clone()));
    }
    w.into_bytes()
}

/// Decodes a [`TxRwSet`] from wire bytes.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input.
pub fn decode_rwset(bytes: &[u8]) -> Result<TxRwSet, WireError> {
    let mut r = Reader::new(bytes);
    let mut out = TxRwSet::new();
    while let Some((field, v)) = r.next_field()? {
        if field == 1 {
            out.ns_sets.push(v.as_message::<NsRwSetMsg>(1)?.0);
        }
    }
    Ok(out)
}

impl Message for TransactionEnvelope {
    fn encode(&self, w: &mut Writer) {
        w.string(1, &self.txid);
        w.string(2, &self.channel);
        w.string(3, &self.chaincode);
        w.bytes(4, &self.result);
        w.bytes(5, &encode_rwset(&self.rwset));
        for e in &self.endorsements {
            let mut ew = Writer::new();
            ew.bytes(1, &encode_certificate(&e.endorser_cert));
            ew.bytes(2, &e.signature.to_bytes());
            let bytes = ew.into_bytes();
            w.bytes(6, &bytes);
        }
        w.bytes(7, &encode_certificate(&self.creator_cert));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut txid = String::new();
        let mut channel = String::new();
        let mut chaincode = String::new();
        let mut result = Vec::new();
        let mut rwset = TxRwSet::new();
        let mut endorsements = Vec::new();
        let mut creator: Option<Certificate> = None;
        while let Some((field, v)) = r.next_field()? {
            match field {
                1 => txid = v.as_string(1, "txid")?,
                2 => channel = v.as_string(2, "channel")?,
                3 => chaincode = v.as_string(3, "chaincode")?,
                4 => result = v.as_bytes(4)?.to_vec(),
                5 => rwset = decode_rwset(v.as_bytes(5)?)?,
                6 => {
                    let bytes = v.as_bytes(6)?;
                    let mut er = Reader::new(bytes);
                    let mut cert_bytes = Vec::new();
                    let mut sig_bytes = Vec::new();
                    while let Some((f2, v2)) = er.next_field()? {
                        match f2 {
                            1 => cert_bytes = v2.as_bytes(1)?.to_vec(),
                            2 => sig_bytes = v2.as_bytes(2)?.to_vec(),
                            _ => {}
                        }
                    }
                    let endorser_cert = decode_certificate(&cert_bytes)?;
                    let signature = Signature::from_bytes(&sig_bytes)
                        .map_err(|e| WireError::Invalid(e.to_string()))?;
                    endorsements.push(Endorsement {
                        endorser_cert,
                        signature,
                    });
                }
                7 => creator = Some(decode_certificate(v.as_bytes(7)?)?),
                _ => {}
            }
        }
        Ok(TransactionEnvelope {
            txid,
            channel,
            chaincode,
            result,
            rwset,
            endorsements,
            creator_cert: creator.ok_or(WireError::MissingField("creator_cert"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msp::Msp;
    use tdt_crypto::cert::CertRole;
    use tdt_crypto::group::Group;

    fn identity() -> Identity {
        let mut msp = Msp::new("net", "org", Group::test_group(), b"s");
        msp.enroll("peer0", CertRole::Peer, false)
    }

    fn sample_rwset() -> TxRwSet {
        let mut rw = TxRwSet::new();
        rw.record_read("cc", "k1", Some(Version::new(2, 3)));
        rw.record_read("cc", "k2", None);
        rw.record_write("cc", "k1", Some(b"v".to_vec()));
        rw.record_write("cc", "k3", None);
        rw.record_write("cc2", "x", Some(vec![]));
        rw
    }

    #[test]
    fn rwset_wire_roundtrip() {
        let rw = sample_rwset();
        let decoded = decode_rwset(&encode_rwset(&rw)).unwrap();
        assert_eq!(decoded, rw);
    }

    #[test]
    fn rwset_roundtrip_preserves_version_zero() {
        // Version 0:0 must survive proto3 zero-elision (hence the +1 bias).
        let mut rw = TxRwSet::new();
        rw.record_read("cc", "k", Some(Version::new(0, 0)));
        let decoded = decode_rwset(&encode_rwset(&rw)).unwrap();
        assert_eq!(
            decoded.ns_sets[0].reads[0].version,
            Some(Version::new(0, 0))
        );
    }

    #[test]
    fn rwset_roundtrip_distinguishes_empty_write_from_delete() {
        let mut rw = TxRwSet::new();
        rw.record_write("cc", "del", None);
        rw.record_write("cc", "empty", Some(vec![]));
        let decoded = decode_rwset(&encode_rwset(&rw)).unwrap();
        assert_eq!(decoded.pending_write("cc", "del").unwrap().value, None);
        assert_eq!(
            decoded.pending_write("cc", "empty").unwrap().value,
            Some(vec![])
        );
    }

    #[test]
    fn default_plugin_signs_payload() {
        let id = identity();
        let proposal = Proposal::new("t", "ch", "cc", "f", vec![], id.certificate().clone());
        let out = DefaultEndorsement
            .endorse(&id, b"payload", &proposal)
            .unwrap();
        assert_eq!(out.payload, b"payload");
        assert!(!out.payload_encrypted);
        let vk = id.certificate().verifying_key().unwrap();
        assert!(vk.verify(b"payload", &out.signature).is_ok());
    }

    #[test]
    fn response_payload_binds_everything() {
        let sim = SimulationResult {
            result: b"42".to_vec(),
            rwset: sample_rwset(),
        };
        let p1 = ProposalResponsePayload::new("tx", "cc", &sim);
        let sim2 = SimulationResult {
            result: b"43".to_vec(),
            rwset: sample_rwset(),
        };
        let p2 = ProposalResponsePayload::new("tx", "cc", &sim2);
        assert_ne!(p1.canonical_bytes(), p2.canonical_bytes());
        let p3 = ProposalResponsePayload::new("tx2", "cc", &sim);
        assert_ne!(p1.canonical_bytes(), p3.canonical_bytes());
    }

    #[test]
    fn envelope_wire_roundtrip() {
        let id = identity();
        let sim = SimulationResult {
            result: b"result".to_vec(),
            rwset: sample_rwset(),
        };
        let payload = ProposalResponsePayload::new("tx-9", "cc", &sim);
        let sig = id.sign(&payload.canonical_bytes());
        let env = TransactionEnvelope {
            txid: "tx-9".into(),
            channel: "ch".into(),
            chaincode: "cc".into(),
            result: sim.result.clone(),
            rwset: sim.rwset.clone(),
            endorsements: vec![Endorsement {
                endorser_cert: id.certificate().clone(),
                signature: sig,
            }],
            creator_cert: id.certificate().clone(),
        };
        let decoded = TransactionEnvelope::decode_from_slice(&env.encode_to_vec()).unwrap();
        assert_eq!(decoded, env);
        // Endorsement still verifies after the roundtrip.
        let vk = decoded.endorsements[0]
            .endorser_cert
            .verifying_key()
            .unwrap();
        assert!(vk
            .verify(
                &decoded.response_payload().canonical_bytes(),
                &decoded.endorsements[0].signature
            )
            .is_ok());
    }

    #[test]
    fn envelope_missing_creator_rejected() {
        let mut w = Writer::new();
        w.string(1, "tx");
        let err = TransactionEnvelope::decode_from_slice(&w.into_bytes()).unwrap_err();
        assert_eq!(err, WireError::MissingField("creator_cert"));
    }

    #[test]
    fn response_payload_matches_envelope_reconstruction() {
        let id = identity();
        let sim = SimulationResult {
            result: b"r".to_vec(),
            rwset: sample_rwset(),
        };
        let payload = ProposalResponsePayload::new("t", "cc", &sim);
        let env = TransactionEnvelope {
            txid: "t".into(),
            channel: "ch".into(),
            chaincode: "cc".into(),
            result: sim.result,
            rwset: sim.rwset,
            endorsements: vec![],
            creator_cert: id.certificate().clone(),
        };
        assert_eq!(env.response_payload(), payload);
    }
}
