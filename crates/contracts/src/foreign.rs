//! What a foreign network signed, checked once (paper §4): every verifier
//! of foreign signatures — the CMDAC's `ValidateProof`, the client's
//! response processing and the event-notice check — goes through these
//! rules.
//!
//! * The **signer rule**, [`verify_signer`]: the certificate belongs to the
//!   configured network, names a recorded organization, has the Peer role
//!   and chains to that organization's recorded root.
//! * The **attestation rule**, [`verify_attestations`], over
//!   [`Decoded`] attestations: each metadata answers this request about
//!   this result for its signer's organization, each signer is a peer
//!   attesting at most once, one batch verification covers every
//!   signature, and the attesting organizations satisfy the policy.
//!
//! Both return a [`Rejection`]; each caller maps it to its own error once.

use std::sync::Arc;
use tdt_crypto::cert::{CertRole, Certificate};
use tdt_crypto::certcache::CertChainCache;
use tdt_crypto::group::FixedBaseTable;
use tdt_crypto::schnorr::{batch_verify, BatchItem, BatchVerifyError, Signature, VerifyingKey};
use tdt_wire::codec::Message;
use tdt_wire::messages::{
    decode_certificate, Attestation, NetworkConfig, PolicyNode, ResultMetadata,
};

/// Why foreign-signed data was refused, and which attestation it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Index of the offending attestation, when there is one.
    pub attestation: Option<usize>,
    /// What failed.
    pub reason: Reason,
}

/// What a [`Rejection`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// A part of the signed data does not decode.
    Malformed(String),
    /// The certificate's network (first) is not the configuration's.
    WrongNetwork(String, String),
    /// The signer's organization is not recorded for the network.
    UnknownOrg(String),
    /// The signer (qualified name) holds another role than Peer.
    NotPeer(String, CertRole),
    /// A recorded root certificate does not decode.
    CorruptRoot(String),
    /// The certificate does not chain to its organization's recorded root.
    BadChain(String),
    /// The named metadata field does not match the request.
    Mismatch(&'static str),
    /// The metadata attests another result.
    ResultHash,
    /// The peer attested more than once.
    Duplicate(String),
    /// There is nothing to verify.
    Empty,
    /// The signature does not verify.
    BadSignature,
    /// The signer's key is in another group than the first signer's.
    GroupMismatch,
    /// The attesting organizations do not satisfy the policy.
    Policy(Vec<String>),
}

impl Rejection {
    /// The same rejection, attributed to attestation `index`.
    pub fn at(self, index: usize) -> Self {
        Rejection {
            attestation: Some(index),
            ..self
        }
    }
}

impl From<Reason> for Rejection {
    fn from(reason: Reason) -> Self {
        Rejection {
            attestation: None,
            reason,
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(i) = self.attestation {
            write!(f, "attestation {i}: ")?;
        }
        match &self.reason {
            Reason::Malformed(m) => write!(f, "malformed {m}"),
            Reason::WrongNetwork(cert, config) => write!(
                f,
                "certificate network {cert:?} does not match config network {config:?}"
            ),
            Reason::UnknownOrg(org) => {
                write!(f, "organization {org:?} not in recorded configuration")
            }
            Reason::NotPeer(signer, role) => {
                write!(f, "signer {signer:?} is not a peer: its role is {role:?}")
            }
            Reason::CorruptRoot(e) => write!(f, "stored root cert corrupt: {e}"),
            Reason::BadChain(e) => write!(f, "certificate invalid: {e}"),
            Reason::Mismatch(field) => write!(f, "{field} mismatch"),
            Reason::ResultHash => write!(f, "result hash does not match the submitted result"),
            Reason::Duplicate(peer) => write!(f, "duplicate attestation from peer {peer:?}"),
            Reason::Empty => write!(f, "no attestations"),
            Reason::BadSignature => write!(f, "signature invalid"),
            Reason::GroupMismatch => write!(f, "signer key uses a mismatched group"),
            Reason::Policy(orgs) => write!(f, "verification policy not satisfied by orgs {orgs:?}"),
        }
    }
}

/// The signer rule without the role: `cert` belongs to `config`'s network
/// and to an organization recorded there, and chains to that
/// organization's root. The chain verdict and the decoded key come from
/// `cache`.
///
/// # Errors
///
/// The first check that fails, as a [`Rejection`] without an index.
pub fn verify_member(
    config: &NetworkConfig,
    cert: &Certificate,
    cache: &CertChainCache,
) -> Result<VerifyingKey, Rejection> {
    let subject = cert.subject();
    if subject.network != config.network_id {
        let found = subject.network.clone();
        return Err(Reason::WrongNetwork(found, config.network_id.clone()).into());
    }
    let org = config
        .orgs
        .iter()
        .find(|o| o.org_id == subject.organization)
        .ok_or_else(|| Reason::UnknownOrg(subject.organization.clone()))?;
    let root =
        decode_certificate(&org.root_cert).map_err(|e| Reason::CorruptRoot(e.to_string()))?;
    let key = cache
        .verified_key(cert, &root)
        .map_err(|e| Reason::BadChain(e.to_string()))?;
    Ok(key.map_err(|e| Reason::Malformed(format!("key: {e}")))?)
}

/// The signer rule: [`verify_member`] for a certificate with the Peer role,
/// the only role that speaks for a foreign network's ledger.
///
/// # Errors
///
/// [`Reason::NotPeer`] first, then whatever [`verify_member`] rejects.
pub fn verify_signer(
    config: &NetworkConfig,
    cert: &Certificate,
    cache: &CertChainCache,
) -> Result<VerifyingKey, Rejection> {
    let subject = cert.subject();
    if subject.role != CertRole::Peer {
        return Err(Reason::NotPeer(subject.qualified_name(), subject.role).into());
    }
    verify_member(config, cert, cache)
}

/// What the attestations must answer: the request, its address and nonce,
/// and the hash of the result they vouch for.
#[derive(Debug, Clone, Copy)]
pub struct Expected<'a> {
    /// The request id.
    pub request_id: &'a str,
    /// The queried address (`network:ledger:contract:function`).
    pub address: &'a str,
    /// The requester's nonce.
    pub nonce: &'a [u8],
    /// SHA-256 of the plaintext result.
    pub result_hash: [u8; 32],
}

/// One attestation, decoded: its signer's certificate and key, the
/// signature and the metadata, both as signed bytes and decoded.
#[derive(Debug)]
pub struct Decoded<M> {
    /// The signer's certificate.
    pub cert: Certificate,
    /// The signer's key.
    pub key: VerifyingKey,
    /// The caller's cached fixed-base table for `key`, if it keeps one.
    pub table: Option<Arc<FixedBaseTable>>,
    /// The signature over `bytes`.
    pub signature: Signature,
    /// `bytes`, decoded.
    pub metadata: ResultMetadata,
    /// The signed plaintext metadata.
    pub bytes: M,
}

impl<M: AsRef<[u8]>> Decoded<M> {
    /// Decodes `att` around its plaintext metadata `bytes` (its own
    /// `metadata`, or what that decrypts to); `signer` turns the
    /// certificate into the key and table to verify with.
    ///
    /// # Errors
    ///
    /// [`Reason::Malformed`] for a part that does not decode, or whatever
    /// `signer` rejects.
    pub fn new(
        att: &Attestation,
        bytes: M,
        signer: impl FnOnce(&Certificate) -> Result<SignerKey, Rejection>,
    ) -> Result<Self, Rejection> {
        let malformed =
            |what: &str, e: &dyn std::fmt::Display| Reason::Malformed(format!("{what}: {e}"));
        let cert =
            decode_certificate(&att.signer_cert).map_err(|e| malformed("certificate", &e))?;
        let (key, table) = signer(&cert)?;
        let signature =
            Signature::from_bytes(&att.signature).map_err(|e| malformed("signature", &e))?;
        let metadata = ResultMetadata::decode_from_slice(bytes.as_ref())
            .map_err(|e| malformed("metadata", &e))?;
        Ok(Decoded {
            cert,
            key,
            table,
            signature,
            metadata,
            bytes,
        })
    }
}

/// A signer's key and, when the caller caches them, its fixed-base table.
pub type SignerKey = (VerifyingKey, Option<Arc<FixedBaseTable>>);

/// The attestation rule: every attestation answers `expected` for its own
/// signer's organization, every signer is a peer that attests once, all
/// signatures verify in one batch, and the attesting organizations satisfy
/// `policy`. Checks run in that order, attestation by attestation.
///
/// # Errors
///
/// The first check that fails, indexed by attestation where there is one.
pub fn verify_attestations<M: AsRef<[u8]>>(
    expected: &Expected<'_>,
    attestations: &[Decoded<M>],
    policy: &PolicyNode,
) -> Result<(), Rejection> {
    let mut orgs: Vec<&str> = Vec::new();
    for (i, a) in attestations.iter().enumerate() {
        let (md, subject) = (&a.metadata, a.cert.subject());
        let reason = if md.request_id != expected.request_id {
            Some(Reason::Mismatch("request id"))
        } else if md.address != expected.address {
            Some(Reason::Mismatch("address"))
        } else if md.nonce != expected.nonce {
            Some(Reason::Mismatch("nonce"))
        } else if md.result_hash != expected.result_hash {
            Some(Reason::ResultHash)
        } else if md.org_id != subject.organization {
            Some(Reason::Mismatch("org id"))
        } else if subject.role != CertRole::Peer {
            Some(Reason::NotPeer(subject.qualified_name(), subject.role))
        } else if attestations
            .iter()
            .take(i)
            .any(|b| b.cert.subject() == subject)
        {
            Some(Reason::Duplicate(subject.qualified_name()))
        } else {
            None
        };
        if let Some(reason) = reason {
            return Err(Rejection::from(reason).at(i));
        }
        if !orgs.contains(&md.org_id.as_str()) {
            orgs.push(&md.org_id);
        }
    }
    let items: Vec<BatchItem<'_>> = attestations
        .iter()
        .map(|a| BatchItem {
            key: &a.key,
            message: a.bytes.as_ref(),
            signature: &a.signature,
            table: a.table.clone(),
        })
        .collect();
    batch_verify(&items).map_err(|e| match e {
        BatchVerifyError::Empty => Reason::Empty.into(),
        BatchVerifyError::Invalid { index } => Rejection::from(Reason::BadSignature).at(index),
        BatchVerifyError::GroupMismatch { index } => {
            Rejection::from(Reason::GroupMismatch).at(index)
        }
    })?;
    if !policy.is_satisfied(&orgs) {
        return Err(Reason::Policy(orgs.into_iter().map(String::from).collect()).into());
    }
    Ok(())
}
