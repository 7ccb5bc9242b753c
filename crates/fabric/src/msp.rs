//! Membership Service Providers: organization-rooted identity management.
//!
//! Every organization runs an MSP: a root CA that issues member
//! certificates, a revocation list, and validation logic. Networks share
//! their MSP root certificates with foreign networks so that proofs can be
//! authenticated remotely (paper §4.3: "validate each signature and
//! authenticate each signer using the recorded STL configuration").

use crate::error::FabricError;
use std::collections::{HashMap, HashSet};
use tdt_crypto::cert::{CertRole, Certificate, CertificateAuthority};
use tdt_crypto::certcache::CertChainCache;
use tdt_crypto::elgamal::DecryptionKey;
use tdt_crypto::group::Group;
use tdt_crypto::schnorr::{SigningKey, VerifyingKey};

/// A member identity: certificate plus private keys.
#[derive(Debug, Clone)]
pub struct Identity {
    cert: Certificate,
    signing_key: SigningKey,
    decryption_key: Option<DecryptionKey>,
}

impl Identity {
    /// The member's certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// The member's signing key.
    pub fn signing_key(&self) -> &SigningKey {
        &self.signing_key
    }

    /// The member's decryption key, when issued with one.
    pub fn decryption_key(&self) -> Option<&DecryptionKey> {
        self.decryption_key.as_ref()
    }

    /// Qualified name `network/org/common_name`.
    pub fn qualified_name(&self) -> String {
        self.cert.subject().qualified_name()
    }

    /// The organization this identity belongs to.
    pub fn organization(&self) -> &str {
        &self.cert.subject().organization
    }

    /// Signs arbitrary bytes with the identity's key.
    pub fn sign(&self, message: &[u8]) -> tdt_crypto::schnorr::Signature {
        self.signing_key.sign(message)
    }
}

/// An organization's Membership Service Provider.
#[derive(Debug)]
pub struct Msp {
    org_id: String,
    ca: CertificateAuthority,
    group: Group,
    revoked: HashSet<String>,
    issued: HashMap<String, Certificate>,
}

impl Msp {
    /// Creates the MSP (and root CA) for `org_id` in `network_id`.
    pub fn new(network_id: &str, org_id: &str, group: Group, seed: &[u8]) -> Self {
        Msp {
            org_id: org_id.to_string(),
            ca: CertificateAuthority::new(network_id, org_id, group.clone(), seed),
            group,
            revoked: HashSet::new(),
            issued: HashMap::new(),
        }
    }

    /// The organization id.
    pub fn org_id(&self) -> &str {
        &self.org_id
    }

    /// The root certificate other parties use to authenticate members.
    pub fn root_certificate(&self) -> &Certificate {
        self.ca.root_certificate()
    }

    /// The cryptographic group this MSP issues keys in.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Enrolls a member: generates keys, issues a certificate.
    ///
    /// `with_encryption` additionally issues an ElGamal key pair, required
    /// by clients that receive confidential cross-network query responses.
    pub fn enroll(&mut self, common_name: &str, role: CertRole, with_encryption: bool) -> Identity {
        let seed = format!("{}/{}/{}", self.org_id, common_name, role_tag(role));
        let signing_key = SigningKey::from_seed(self.group.clone(), seed.as_bytes());
        let decryption_key = with_encryption.then(|| {
            DecryptionKey::from_seed(self.group.clone(), format!("{seed}/enc").as_bytes())
        });
        let cert = self.ca.issue(
            common_name,
            role,
            &signing_key.verifying_key(),
            decryption_key
                .as_ref()
                .map(DecryptionKey::encryption_key)
                .as_ref(),
        );
        self.issued.insert(cert.fingerprint(), cert.clone());
        Identity {
            cert,
            signing_key,
            decryption_key,
        }
    }

    /// Revokes a certificate by fingerprint.
    pub fn revoke(&mut self, fingerprint: &str) {
        self.revoked.insert(fingerprint.to_string());
    }

    /// Validates a certificate: CA signature plus revocation status.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::IdentityInvalid`] when the certificate does
    /// not chain to this MSP's root or has been revoked.
    pub fn validate(&self, cert: &Certificate) -> Result<(), FabricError> {
        if self.revoked.contains(&cert.fingerprint()) {
            return Err(FabricError::IdentityInvalid(format!(
                "certificate {} is revoked",
                cert.subject().qualified_name()
            )));
        }
        cert.verify(self.ca.root_certificate())
            .map_err(|e| FabricError::IdentityInvalid(e.to_string()))
    }

    /// Number of certificates issued so far.
    pub fn issued_count(&self) -> usize {
        self.issued.len()
    }
}

fn role_tag(role: CertRole) -> &'static str {
    match role {
        CertRole::RootCa => "ca",
        CertRole::Peer => "peer",
        CertRole::Orderer => "orderer",
        CertRole::Client => "client",
    }
}

/// Validates member certificates across many organizations: the per-network
/// registry of MSP roots (and the shape of the config networks exchange).
///
/// Successful validations are remembered in one [`CertChainCache`] per
/// registry — i.e. per network, shared by every peer holding the same
/// `Arc<MspRegistry>`: the peers of a network re-validate the same few
/// endorser certificates on every block, and a per-peer cache would
/// multiply the memory of the per-key tables by the peer count.
#[derive(Debug, Default)]
pub struct MspRegistry {
    // org_id -> root certificate
    roots: HashMap<String, Certificate>,
    cache: CertChainCache,
}

impl Clone for MspRegistry {
    /// The clone trusts the same roots and starts with an empty cache.
    fn clone(&self) -> Self {
        MspRegistry {
            roots: self.roots.clone(),
            cache: CertChainCache::new(),
        }
    }
}

impl MspRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an organization's root certificate. Verdicts reached under
    /// the previous root set are dropped.
    pub fn register(&mut self, org_id: impl Into<String>, root: Certificate) {
        self.roots.insert(org_id.into(), root);
        self.cache.bump_epoch();
    }

    /// The root certificate of `org_id`, if registered.
    pub fn root(&self, org_id: &str) -> Option<&Certificate> {
        self.roots.get(org_id)
    }

    /// All registered organization ids.
    pub fn organizations(&self) -> impl Iterator<Item = &str> {
        self.roots.keys().map(String::as_str)
    }

    /// Validates `cert` against the root of the organization it claims.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::IdentityInvalid`] when the claimed
    /// organization is unknown or the chain does not verify.
    pub fn validate(&self, cert: &Certificate) -> Result<(), FabricError> {
        self.cache
            .verify_chain(cert, self.claimed_root(cert)?)
            .map_err(|e| FabricError::IdentityInvalid(e.to_string()))
    }

    /// [`Self::validate`], handing back the certificate's decoded verifying
    /// key; for a certificate seen before, neither the chain validation nor
    /// the key's subgroup check runs again.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::IdentityInvalid`] as [`Self::validate`] does,
    /// and when the certified key bytes do not decode.
    pub fn verified_key(&self, cert: &Certificate) -> Result<VerifyingKey, FabricError> {
        self.cache
            .verified_key(cert, self.claimed_root(cert)?)
            .and_then(|decoded| decoded)
            .map_err(|e| FabricError::IdentityInvalid(e.to_string()))
    }

    /// The cache behind [`Self::validate`] / [`Self::verified_key`]: its
    /// hit counters, and the per-key tables that share its epoch.
    pub fn cert_cache(&self) -> &CertChainCache {
        &self.cache
    }

    fn claimed_root(&self, cert: &Certificate) -> Result<&Certificate, FabricError> {
        let org = &cert.subject().organization;
        self.roots.get(org).ok_or_else(|| {
            FabricError::IdentityInvalid(format!("no MSP root registered for org {org:?}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msp() -> Msp {
        Msp::new("stl", "seller-org", Group::test_group(), b"seed")
    }

    #[test]
    fn enroll_and_validate() {
        let mut msp = msp();
        let id = msp.enroll("peer0", CertRole::Peer, false);
        assert!(msp.validate(id.certificate()).is_ok());
        assert_eq!(id.organization(), "seller-org");
        assert_eq!(id.qualified_name(), "stl/seller-org/peer0");
    }

    #[test]
    fn enroll_with_encryption_key() {
        let mut msp = msp();
        let id = msp.enroll("client0", CertRole::Client, true);
        assert!(id.decryption_key().is_some());
        assert!(id.certificate().encryption_key().unwrap().is_some());
        let no_enc = msp.enroll("peer0", CertRole::Peer, false);
        assert!(no_enc.decryption_key().is_none());
    }

    #[test]
    fn foreign_cert_rejected() {
        let mut msp_a = msp();
        let mut msp_b = Msp::new("stl", "carrier-org", Group::test_group(), b"seed-b");
        let foreign = msp_b.enroll("peer0", CertRole::Peer, false);
        assert!(msp_a.validate(foreign.certificate()).is_err());
        let _ = msp_a.enroll("peer0", CertRole::Peer, false);
    }

    #[test]
    fn revoked_cert_rejected() {
        let mut msp = msp();
        let id = msp.enroll("peer0", CertRole::Peer, false);
        msp.revoke(&id.certificate().fingerprint());
        let err = msp.validate(id.certificate()).unwrap_err();
        assert!(matches!(err, FabricError::IdentityInvalid(_)));
    }

    #[test]
    fn identities_sign_verifiably() {
        let mut msp = msp();
        let id = msp.enroll("peer0", CertRole::Peer, false);
        let sig = id.sign(b"endorse this");
        let vk = id.certificate().verifying_key().unwrap();
        assert!(vk.verify(b"endorse this", &sig).is_ok());
    }

    #[test]
    fn registry_validates_multiple_orgs() {
        let mut msp_a = Msp::new("stl", "seller-org", Group::test_group(), b"a");
        let mut msp_b = Msp::new("stl", "carrier-org", Group::test_group(), b"b");
        let mut reg = MspRegistry::new();
        reg.register("seller-org", msp_a.root_certificate().clone());
        reg.register("carrier-org", msp_b.root_certificate().clone());
        let ida = msp_a.enroll("p", CertRole::Peer, false);
        let idb = msp_b.enroll("p", CertRole::Peer, false);
        assert!(reg.validate(ida.certificate()).is_ok());
        assert!(reg.validate(idb.certificate()).is_ok());
        assert_eq!(reg.organizations().count(), 2);
    }

    #[test]
    fn registry_rejects_unknown_org() {
        let mut msp = msp();
        let id = msp.enroll("p", CertRole::Peer, false);
        let reg = MspRegistry::new();
        assert!(matches!(
            reg.validate(id.certificate()),
            Err(FabricError::IdentityInvalid(_))
        ));
    }

    #[test]
    fn registry_rejects_cross_org_masquerade() {
        // A carrier-org member must not validate under the seller-org root
        // even if both roots are registered.
        let mut msp_a = Msp::new("stl", "seller-org", Group::test_group(), b"a");
        let mut msp_b = Msp::new("stl", "carrier-org", Group::test_group(), b"b");
        let mut reg = MspRegistry::new();
        // Deliberately register carrier's root under seller's name.
        reg.register("carrier-org", msp_a.root_certificate().clone());
        let idb = msp_b.enroll("p", CertRole::Peer, false);
        assert!(reg.validate(idb.certificate()).is_err());
        let _ = msp_a.enroll("p", CertRole::Peer, false);
    }

    #[test]
    fn issued_count_tracks() {
        let mut msp = msp();
        assert_eq!(msp.issued_count(), 0);
        msp.enroll("a", CertRole::Peer, false);
        msp.enroll("b", CertRole::Client, true);
        assert_eq!(msp.issued_count(), 2);
    }

    #[test]
    fn deterministic_enrollment_keys() {
        // Same org/name/role seeds produce the same keys across MSP
        // instances (reproducible test networks).
        let mut m1 = Msp::new("stl", "seller-org", Group::test_group(), b"x");
        let mut m2 = Msp::new("stl", "seller-org", Group::test_group(), b"x");
        let i1 = m1.enroll("peer0", CertRole::Peer, false);
        let i2 = m2.enroll("peer0", CertRole::Peer, false);
        assert_eq!(
            i1.certificate().sign_key_bytes(),
            i2.certificate().sign_key_bytes()
        );
    }

    #[test]
    fn registry_serves_repeat_validations_from_its_cache() {
        let mut msp = msp();
        let id = msp.enroll("p", CertRole::Peer, false);
        let mut reg = MspRegistry::new();
        reg.register("seller-org", msp.root_certificate().clone());
        reg.validate(id.certificate()).unwrap();
        let key = reg.verified_key(id.certificate()).unwrap();
        assert_eq!(key, id.certificate().verifying_key().unwrap());
        let cache = reg.cert_cache();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn forged_ca_signature_over_cached_body_never_hits() {
        let mut msp = msp();
        let id = msp.enroll("p", CertRole::Peer, false);
        let mut reg = MspRegistry::new();
        reg.register("seller-org", msp.root_certificate().clone());
        reg.validate(id.certificate()).unwrap();
        // The cached certificate's body under a signature by a CA that only
        // shares the registered one's name.
        let cert = id.certificate();
        let impostor = SigningKey::from_seed(Group::test_group(), b"impostor-ca");
        let forged = Certificate::assemble(
            cert.subject().clone(),
            cert.serial(),
            cert.group_name().to_string(),
            cert.sign_key_bytes().to_vec(),
            None,
            cert.issuer().clone(),
            Some(impostor.sign(&cert.canonical_bytes())),
        );
        assert_eq!(forged.canonical_bytes(), cert.canonical_bytes());
        assert!(reg.validate(&forged).is_err());
        assert!(reg.verified_key(&forged).is_err());
        assert_eq!(reg.cert_cache().hits(), 0);
    }

    #[test]
    fn registering_a_replaced_root_invalidates_earlier_verdicts() {
        let mut old_msp = msp();
        let id = old_msp.enroll("p", CertRole::Peer, false);
        let mut reg = MspRegistry::new();
        reg.register("seller-org", old_msp.root_certificate().clone());
        reg.validate(id.certificate()).unwrap();
        assert_eq!(reg.cert_cache().len(), 1);
        // Same org, new CA key: members of the old CA are out.
        let new_msp = Msp::new("stl", "seller-org", Group::test_group(), b"rotated");
        let epoch = reg.cert_cache().epoch();
        reg.register("seller-org", new_msp.root_certificate().clone());
        assert!(reg.cert_cache().epoch() > epoch);
        assert!(reg.cert_cache().is_empty());
        assert!(reg.validate(id.certificate()).is_err());
        assert!(reg.verified_key(id.certificate()).is_err());
        assert_eq!(reg.cert_cache().hits(), 0);
    }

    #[test]
    fn validations_racing_a_config_change_stay_correct() {
        // The registry itself changes only through `&mut`; what can race
        // is the cache it shares its epoch protocol with (the CMDAC bumps
        // its own from a contract call while other peers validate). The
        // interleaving that protocol must survive is model-checked
        // (`interleave::models::certcache_epoch`); here real threads check
        // that no verdict is ever wrong while epochs turn over.
        let mut msp = msp();
        let member = msp.enroll("p", CertRole::Peer, false);
        let mut other = Msp::new("stl", "seller-org", Group::test_group(), b"other");
        let stranger = other.enroll("p", CertRole::Peer, false);
        let mut reg = MspRegistry::new();
        reg.register("seller-org", msp.root_certificate().clone());
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..40 {
                        assert!(reg.validate(member.certificate()).is_ok());
                        assert!(reg.verified_key(stranger.certificate()).is_err());
                    }
                });
            }
            start.wait();
            for _ in 0..40 {
                reg.cert_cache().bump_epoch();
            }
        });
        assert!(reg.cert_cache().len() <= 1);
    }
}
