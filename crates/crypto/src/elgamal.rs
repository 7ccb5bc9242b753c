//! ElGamal KEM + stream-cipher hybrid public-key encryption.
//!
//! This is the mechanism behind the paper's end-to-end confidentiality
//! (§4.3): the source network's peers encrypt both the query *result* and
//! the endorsement *metadata* with the requesting client's public key, so a
//! malicious relay can neither read the data nor exfiltrate a verifiable
//! proof.
//!
//! Construction (group `G` of order `q`, generator `g`, recipient key
//! `y = g^x`):
//!
//! * keygen: `x ← [1, 2^256)`, `y = g^x`
//! * encrypt(m): ephemeral `k ← [1, 2^256)`, `c1 = g^k`, `shared = y^k`,
//!   `K = SHA256("kem" ‖ c1 ‖ shared)`, `ct = Stream_K(m)`,
//!   `tag = HMAC_K("tag" ‖ c1 ‖ ct)` — encrypt-then-MAC.
//! * decrypt: check `c1` is in the subgroup, `shared = c1^x`, recompute `K`,
//!   check tag, XOR back.
//!
//! Both secrets are short exponents ([`Group::short_exponent`]: twice the
//! security level, not the modulus length), which is sound because `p` is a
//! safe prime and every foreign `y` and `c1` is held to the order-`q`
//! subgroup before a secret touches it. Keys and ciphertexts made with
//! full-width exponents remain valid: nothing here depends on the length.

use crate::bigint::BigUint;
use crate::drbg::HmacDrbg;
use crate::error::CryptoError;
use crate::group::Group;
use crate::hmac::{ct_eq, hmac_sha256};
use crate::sha256::sha256_concat;
use crate::stream::xor_keystream;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An ElGamal-KEM hybrid ciphertext.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ciphertext {
    /// Ephemeral group element `g^k`, fixed-width big-endian.
    c1: Vec<u8>,
    /// Stream-ciphered payload.
    body: Vec<u8>,
    /// HMAC-SHA256 tag over `c1 ‖ body`.
    tag: [u8; 32],
}

impl Ciphertext {
    /// Total serialized size in bytes.
    pub fn len(&self) -> usize {
        self.c1.len() + self.body.len() + self.tag.len()
    }

    /// True if the encrypted payload is empty (headers still present).
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Serializes as `len(c1) ‖ c1 ‖ tag ‖ body`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.len());
        out.extend_from_slice(&(self.c1.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.c1);
        out.extend_from_slice(&self.tag);
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses the [`Ciphertext::to_bytes`] encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] on truncated input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() < 4 {
            return Err(CryptoError::Malformed("ciphertext too short".into()));
        }
        let c1_len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if bytes.len() < 4 + c1_len + 32 {
            return Err(CryptoError::Malformed("ciphertext truncated".into()));
        }
        let c1 = bytes[4..4 + c1_len].to_vec();
        let mut tag = [0u8; 32];
        tag.copy_from_slice(&bytes[4 + c1_len..4 + c1_len + 32]);
        let body = bytes[4 + c1_len + 32..].to_vec();
        Ok(Ciphertext { c1, body, tag })
    }
}

/// An ElGamal decryption (secret) key.
#[derive(Clone)]
pub struct DecryptionKey {
    group: Group,
    x: BigUint,
    y: BigUint,
}

impl fmt::Debug for DecryptionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecryptionKey")
            .field("group", &self.group.name())
            .finish()
    }
}

impl DecryptionKey {
    /// Generates a fresh random key pair.
    pub fn generate<R: rand::RngCore>(group: Group, rng: &mut R) -> Self {
        let x = group.short_exponent(rng);
        let y = group.pow_g(&x);
        DecryptionKey { group, x, y }
    }

    /// Derives a key pair deterministically from seed material.
    pub fn from_seed(group: Group, seed: &[u8]) -> Self {
        let mut drbg = HmacDrbg::from_parts(&[b"tdt-encryption-key", seed]);
        let x = group.short_exponent(&mut drbg);
        let y = group.pow_g(&x);
        DecryptionKey { group, x, y }
    }

    /// The corresponding public encryption key.
    pub fn encryption_key(&self) -> EncryptionKey {
        EncryptionKey {
            group: self.group.clone(),
            y: self.y.clone(),
        }
    }

    /// Decrypts and authenticates a ciphertext.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::InvalidGroupElement`] if `c1` is not a subgroup element.
    /// * [`CryptoError::InvalidMac`] if the tag does not verify (tampering).
    pub fn decrypt(&self, ct: &Ciphertext) -> Result<Vec<u8>, CryptoError> {
        let c1 = BigUint::from_bytes_be(&ct.c1);
        if !self.group.is_element(&c1) {
            return Err(CryptoError::InvalidGroupElement);
        }
        let shared = self.group.pow(&c1, &self.x);
        let key = derive_key(&self.group, &ct.c1, &shared);
        let expected = hmac_sha256(&key, &tag_input(&ct.c1, &ct.body));
        if !ct_eq(&expected, &ct.tag) {
            return Err(CryptoError::InvalidMac);
        }
        Ok(xor_keystream(&key, &ct.c1, &ct.body))
    }

    /// What one [`Self::decrypt`] weighs when work is split over threads
    /// ([`Group::mul_weight`]): `c1^x` with the short `x`, a squaring per
    /// bit and a multiplication per 4-bit window.
    pub fn decrypt_weight(&self) -> usize {
        let bits = self.group.short_exponent_bits();
        self.group.mul_weight(bits + bits / 4)
    }
}

/// An ElGamal encryption (public) key.
#[derive(Clone, PartialEq, Eq)]
pub struct EncryptionKey {
    group: Group,
    y: BigUint,
}

impl fmt::Debug for EncryptionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EncryptionKey")
            .field("group", &self.group.name())
            .field("y", &format!("{:.16}", self.y.to_string()))
            .finish()
    }
}

impl EncryptionKey {
    /// The group this key lives in.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Serializes as fixed-width big-endian bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.group.element_to_bytes(&self.y)
    }

    /// Parses a public key; checks subgroup membership.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidGroupElement`] for out-of-subgroup input.
    pub fn from_bytes(group: Group, bytes: &[u8]) -> Result<Self, CryptoError> {
        let y = BigUint::from_bytes_be(bytes);
        if !group.is_element(&y) {
            return Err(CryptoError::InvalidGroupElement);
        }
        Ok(EncryptionKey { group, y })
    }

    /// Encrypts `plaintext` with a fresh ephemeral key from `rng`.
    pub fn encrypt<R: rand::RngCore>(&self, plaintext: &[u8], rng: &mut R) -> Ciphertext {
        let k = self.group.short_exponent(rng);
        self.encrypt_with_ephemeral(plaintext, &k)
    }

    /// Encrypts with an ephemeral scalar derived deterministically from seed
    /// material (reproducible fixtures).
    pub fn encrypt_deterministic(&self, plaintext: &[u8], seed: &[u8]) -> Ciphertext {
        let mut drbg = HmacDrbg::from_parts(&[b"tdt-elgamal-eph", seed, plaintext]);
        let k = self.group.short_exponent(&mut drbg);
        self.encrypt_with_ephemeral(plaintext, &k)
    }

    fn encrypt_with_ephemeral(&self, plaintext: &[u8], k: &BigUint) -> Ciphertext {
        let c1_elem = self.group.pow_g(k);
        let shared = self.group.pow(&self.y, k);
        let c1 = self.group.element_to_bytes(&c1_elem);
        let key = derive_key(&self.group, &c1, &shared);
        let body = xor_keystream(&key, &c1, plaintext);
        let tag = hmac_sha256(&key, &tag_input(&c1, &body));
        Ciphertext { c1, body, tag }
    }
}

fn derive_key(group: &Group, c1: &[u8], shared: &BigUint) -> [u8; 32] {
    sha256_concat(&[b"tdt-kem", c1, &group.element_to_bytes(shared)])
}

fn tag_input(c1: &[u8], body: &[u8]) -> Vec<u8> {
    let mut input = Vec::with_capacity(4 + c1.len() + body.len());
    input.extend_from_slice(b"tag:");
    input.extend_from_slice(c1);
    input.extend_from_slice(body);
    input
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair() -> DecryptionKey {
        DecryptionKey::from_seed(Group::test_group(), b"unit-test-enc")
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let dk = keypair();
        let mut rng = rand::thread_rng();
        let ct = dk.encryption_key().encrypt(b"bill of lading", &mut rng);
        assert_eq!(dk.decrypt(&ct).unwrap(), b"bill of lading");
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let dk = keypair();
        let ct = dk
            .encryption_key()
            .encrypt_deterministic(b"secret data", b"seed");
        assert_ne!(ct.body.as_slice(), b"secret data".as_slice());
    }

    #[test]
    fn tampered_body_rejected() {
        let dk = keypair();
        let mut ct = dk
            .encryption_key()
            .encrypt_deterministic(b"payload", b"seed");
        ct.body[0] ^= 0xff;
        assert_eq!(dk.decrypt(&ct), Err(CryptoError::InvalidMac));
    }

    #[test]
    fn tampered_tag_rejected() {
        let dk = keypair();
        let mut ct = dk
            .encryption_key()
            .encrypt_deterministic(b"payload", b"seed");
        ct.tag[5] ^= 1;
        assert_eq!(dk.decrypt(&ct), Err(CryptoError::InvalidMac));
    }

    #[test]
    fn wrong_key_cannot_decrypt() {
        let dk = keypair();
        let other = DecryptionKey::from_seed(Group::test_group(), b"other");
        let ct = dk.encryption_key().encrypt_deterministic(b"data", b"s");
        assert!(other.decrypt(&ct).is_err());
    }

    #[test]
    fn empty_plaintext() {
        let dk = keypair();
        let ct = dk.encryption_key().encrypt_deterministic(b"", b"seed");
        assert!(ct.is_empty());
        assert_eq!(dk.decrypt(&ct).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn large_plaintext() {
        let dk = keypair();
        let data = vec![0xabu8; 10_000];
        let ct = dk.encryption_key().encrypt_deterministic(&data, b"seed");
        assert_eq!(dk.decrypt(&ct).unwrap(), data);
    }

    #[test]
    fn bytes_roundtrip() {
        let dk = keypair();
        let ct = dk.encryption_key().encrypt_deterministic(b"wire", b"seed");
        let parsed = Ciphertext::from_bytes(&ct.to_bytes()).unwrap();
        assert_eq!(parsed, ct);
        assert_eq!(dk.decrypt(&parsed).unwrap(), b"wire");
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        assert!(Ciphertext::from_bytes(&[1, 2]).is_err());
        let dk = keypair();
        let full = dk
            .encryption_key()
            .encrypt_deterministic(b"x", b"s")
            .to_bytes();
        assert!(Ciphertext::from_bytes(&full[..20]).is_err());
    }

    #[test]
    fn c1_outside_the_subgroup_is_rejected_before_the_secret_touches_it() {
        // Among them p-1, the order-2 element (a quadratic non-residue
        // since p ≡ 3 mod 4): `c1^x` would leak the parity of `x`.
        let dk = keypair();
        let genuine = dk.encryption_key().encrypt_deterministic(b"x", b"s");
        for (what, bytes, element) in crate::group::hostile_element_encodings(&Group::test_group())
        {
            let mut ct = genuine.clone();
            ct.c1 = bytes;
            // A foreign element passes the membership check and then fails
            // authentication: the key derivation covers the c1 bytes.
            let want = if element {
                CryptoError::InvalidMac
            } else {
                CryptoError::InvalidGroupElement
            };
            assert_eq!(dk.decrypt(&ct), Err(want), "{what}");
        }
    }

    #[test]
    fn secrets_are_short_exponents() {
        let g = Group::test_group();
        let seeded = (0..32u32).map(|i| DecryptionKey::from_seed(g.clone(), &i.to_be_bytes()));
        let fresh = (0..32).map(|_| DecryptionKey::generate(g.clone(), &mut rand::thread_rng()));
        for keys in [seeded.collect::<Vec<_>>(), fresh.collect()] {
            assert_eq!(keys.iter().map(|dk| dk.x.bits()).max(), Some(256));
            // A short x still names a subgroup element.
            assert!(keys.iter().all(|dk| g.is_element(&dk.y)));
        }
    }

    /// Key material and ciphertexts from before exponents were shortened: a
    /// decryption key anywhere in `[1, q)` and an ephemeral `k` anywhere in
    /// `[1, q)` are still what `decrypt` and `encrypt_with_ephemeral` accept.
    #[test]
    fn full_width_keys_and_ciphertexts_still_work() {
        let g = Group::test_group();
        let x = g.q().sub(&BigUint::from_u64(0xBEEF));
        let k = g.q().sub(&BigUint::from_u64(0xCAFE));
        assert!(x.bits() == g.q().bits() && k.bits() == g.q().bits());
        let legacy = DecryptionKey {
            group: g.clone(),
            y: g.pow_g(&x),
            x,
        };
        let short = keypair();
        for dk in [&legacy, &short] {
            let ek = dk.encryption_key();
            let full_k = ek.encrypt_with_ephemeral(b"before the change", &k);
            assert_eq!(dk.decrypt(&full_k).unwrap(), b"before the change");
            let short_k = ek.encrypt_deterministic(b"after the change", b"seed");
            assert_eq!(dk.decrypt(&short_k).unwrap(), b"after the change");
        }
    }

    #[test]
    fn fresh_randomness_gives_distinct_ciphertexts() {
        let dk = keypair();
        let mut rng = rand::thread_rng();
        let a = dk.encryption_key().encrypt(b"same", &mut rng);
        let b = dk.encryption_key().encrypt(b"same", &mut rng);
        assert_ne!(a, b);
        assert_eq!(dk.decrypt(&a).unwrap(), dk.decrypt(&b).unwrap());
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        let dk = keypair();
        let ek = dk.encryption_key();
        let parsed = EncryptionKey::from_bytes(Group::test_group(), &ek.to_bytes()).unwrap();
        assert_eq!(parsed, ek);
    }

    #[test]
    fn public_key_decoding_accepts_exactly_the_subgroup() {
        for group in [Group::modp_768(), Group::modp_1024(), Group::modp_2048()] {
            for (what, bytes, element) in crate::group::hostile_element_encodings(&group) {
                match EncryptionKey::from_bytes(group.clone(), &bytes) {
                    Ok(ek) if element => assert_eq!(ek.y, BigUint::from_bytes_be(&bytes), "{what}"),
                    Err(CryptoError::InvalidGroupElement) if !element => {}
                    other => panic!("{} {what}: {other:?}", group.name()),
                }
            }
        }
    }
}
