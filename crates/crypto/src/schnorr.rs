//! Schnorr signatures over a MODP subgroup of prime order.
//!
//! This is the signature scheme used by peers to endorse transactions and
//! attest query results (the paper's proofs are arrays of peer signatures
//! over result metadata). Nonces are derived deterministically from the
//! secret key and message via HMAC-DRBG, RFC 6979 style, so signing never
//! needs an entropy source and cannot leak the key through nonce reuse.
//!
//! Scheme (group `G` of order `q`, generator `g`) — Schnorr's original sign
//! convention, which keeps the verifier's exponent on `y` as short as the
//! challenge:
//!
//! * keygen: `x ← [1, q)`, `y = g^x`
//! * sign(m): `k = DRBG(x, m) ∈ [1, q)`, `r = g^k`,
//!   `e = SHA256("tdt-schnorr-e256" ‖ r ‖ y ‖ m)` (256 bits),
//!   `s = k − e·x mod q`; signature is `(e, s)`
//! * verify: `r' = g^s · y^e`, accept iff `e == SHA256(… ‖ r' ‖ y ‖ m)`
//!
//! Only `e` is short. The nonce `k` and the key `x` stay uniform in `[1, q)`:
//! every signature states `k ≡ s + e·x (mod q)`, and with `k` known to be
//! 256 bits two signatures make that a linear system with one small solution
//! — `x` falls out (the hidden-number problem at its easiest); verification
//! never touches `x`, so a short key would buy nothing (DESIGN.md "Exponent
//! length").

use crate::bigint::{random_below, BigUint};
use crate::drbg::HmacDrbg;
use crate::error::CryptoError;
use crate::group::{FixedBaseTable, Group};
use crate::sha256::sha256_concat;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A Schnorr signature `(e, s)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    e: Vec<u8>,
    s: Vec<u8>,
}

impl Signature {
    /// The challenge scalar `e`, big-endian.
    pub fn e_bytes(&self) -> &[u8] {
        &self.e
    }

    /// The response scalar `s`, big-endian.
    pub fn s_bytes(&self) -> &[u8] {
        &self.s
    }

    /// Reconstructs a signature from its two scalar components.
    pub fn from_scalars(e: Vec<u8>, s: Vec<u8>) -> Self {
        Signature { e, s }
    }

    /// Serializes as `len(e) ‖ e ‖ s` for transport.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.e.len() + self.s.len());
        out.extend_from_slice(&(self.e.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.e);
        out.extend_from_slice(&self.s);
        out
    }

    /// Parses the [`Signature::to_bytes`] encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] on truncated input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() < 4 {
            return Err(CryptoError::Malformed("signature too short".into()));
        }
        let e_len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if bytes.len() < 4 + e_len {
            return Err(CryptoError::Malformed("signature e truncated".into()));
        }
        Ok(Signature {
            e: bytes[4..4 + e_len].to_vec(),
            s: bytes[4 + e_len..].to_vec(),
        })
    }

    /// Decodes both scalars canonically: the single place that defines what
    /// an acceptable wire encoding is.
    ///
    /// Canonical means exactly what [`SigningKey::sign`] emits — minimal
    /// big-endian (no leading zero bytes), nonzero, `s < q` and `e` no longer
    /// than the challenge hash ([`Group::short_exponent_bits`]). Without the
    /// leading-zero rule the same scalar has many encodings and a signature
    /// becomes malleable on the wire; the bound on `e` is what lets the
    /// verifier's `y^e` and the per-key tables be sized for a short exponent,
    /// and turns away signatures made under the old full-width challenge.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] for any non-canonical
    /// component.
    pub fn scalars(&self, group: &Group) -> Result<(BigUint, BigUint), CryptoError> {
        let decode = |bytes: &[u8], max_bits: usize| -> Result<BigUint, CryptoError> {
            if bytes.is_empty() || bytes.len() > max_bits.div_ceil(8) || bytes[0] == 0 {
                return Err(CryptoError::InvalidSignature);
            }
            let v = BigUint::from_bytes_be(bytes);
            if v.bits() > max_bits || &v >= group.q() {
                return Err(CryptoError::InvalidSignature);
            }
            Ok(v)
        };
        Ok((
            decode(&self.e, group.short_exponent_bits())?,
            decode(&self.s, group.q().bits())?,
        ))
    }
}

/// A Schnorr signing (secret) key.
#[derive(Clone)]
pub struct SigningKey {
    group: Group,
    x: BigUint,
    y: BigUint,
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret scalar.
        f.debug_struct("SigningKey")
            .field("group", &self.group.name())
            .field(
                "public",
                &crate::hex_encode(&self.y.to_bytes_be()[..8.min(self.y.to_bytes_be().len())]),
            )
            .finish()
    }
}

impl SigningKey {
    /// Generates a fresh random key pair.
    pub fn generate<R: rand::RngCore>(group: Group, rng: &mut R) -> Self {
        let x = random_below(group.q(), rng);
        let y = group.pow_g(&x);
        SigningKey { group, x, y }
    }

    /// Derives a key pair deterministically from seed material (useful for
    /// reproducible test networks).
    pub fn from_seed(group: Group, seed: &[u8]) -> Self {
        let mut drbg = HmacDrbg::from_parts(&[b"tdt-signing-key", seed]);
        let x = random_below(group.q(), &mut drbg);
        let y = group.pow_g(&x);
        SigningKey { group, x, y }
    }

    /// The corresponding verification (public) key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            group: self.group.clone(),
            y: self.y.clone(),
        }
    }

    /// The group this key lives in.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Signs `message` with a deterministic nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let x_bytes = self.x.to_bytes_be();
        let mut drbg = HmacDrbg::from_parts(&[b"tdt-schnorr-nonce", &x_bytes, message]);
        // Full-width on purpose, never `Group::short_exponent`: the response
        // below tells everyone `k ≡ s + e·x (mod q)`, and two such relations
        // with nonces known to be short solve for `x`.
        let k = random_below(self.group.q(), &mut drbg);
        let r = self.group.pow_g(&k);
        let e = challenge(&self.group, &r, &self.y, message);
        // s = k − e·x mod q
        let ex = self.group.scalar_mul(&e).by(&self.x);
        let s = k.mod_sub(&ex, self.group.q());
        Signature {
            e: e.to_bytes_be(),
            s: s.to_bytes_be(),
        }
    }

    /// Exports the secret scalar (big-endian). Handle with care.
    pub fn secret_bytes(&self) -> Vec<u8> {
        self.x.to_bytes_be()
    }

    /// Reconstructs a signing key from an exported secret scalar.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] if the scalar is zero or ≥ q.
    pub fn from_secret_bytes(group: Group, bytes: &[u8]) -> Result<Self, CryptoError> {
        let x = BigUint::from_bytes_be(bytes);
        if x.is_zero() || &x >= group.q() {
            return Err(CryptoError::InvalidKey("scalar out of range".into()));
        }
        let y = group.pow_g(&x);
        Ok(SigningKey { group, x, y })
    }
}

/// A Schnorr verification (public) key.
#[derive(Clone, PartialEq, Eq)]
pub struct VerifyingKey {
    group: Group,
    y: BigUint,
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifyingKey")
            .field("group", &self.group.name())
            .field("y", &format!("{:.16}", self.y.to_string()))
            .finish()
    }
}

impl VerifyingKey {
    /// The group this key lives in.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// The public group element `y = g^x`.
    pub fn element(&self) -> &BigUint {
        &self.y
    }

    /// Serializes as fixed-width big-endian bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.group.element_to_bytes(&self.y)
    }

    /// Parses a public key; checks subgroup membership.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidGroupElement`] if the element is not in
    /// the prime-order subgroup.
    pub fn from_bytes(group: Group, bytes: &[u8]) -> Result<Self, CryptoError> {
        let y = BigUint::from_bytes_be(bytes);
        if !group.is_element(&y) {
            return Err(CryptoError::InvalidGroupElement);
        }
        Ok(VerifyingKey { group, y })
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] when verification fails.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        self.verify_inner(message, signature, None)
    }

    /// Like [`Self::verify`] but uses a cached fixed-base table for this
    /// key's element `y` (see [`Self::precompute_table`]), turning the
    /// `y^e` half of the verify equation into one multiplication per
    /// window of the 256-bit challenge.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] when verification fails.
    pub fn verify_with_table(
        &self,
        message: &[u8],
        signature: &Signature,
        table: &FixedBaseTable,
    ) -> Result<(), CryptoError> {
        self.verify_inner(message, signature, Some(table))
    }

    /// Builds the fixed-base window table for this key's element, for use
    /// with [`Self::verify_with_table`] / [`batch_verify`]: 64 windows, the
    /// length of the challenge `e` — the only exponent `y` is ever raised
    /// to. Costs about two plain verifications to build; callers cache it
    /// (see `certcache::CertChainCache::key_table`).
    pub fn precompute_table(&self) -> FixedBaseTable {
        self.group
            .precompute_table(&self.y, self.group.short_exponent_bits())
    }

    fn verify_inner(
        &self,
        message: &[u8],
        signature: &Signature,
        table: Option<&FixedBaseTable>,
    ) -> Result<(), CryptoError> {
        tdt_obs::profile_scope!("crypto.schnorr_verify");
        let (e, s) = signature.scalars(&self.group)?;
        // r' = g^s · y^e: a full-width fixed-base walk for `s`, a 256-bit
        // exponentiation (64 table windows when cached) for `e`.
        let r_prime = self.group.mul_exp_g(&s, &self.y, &e, table);
        let e_prime = challenge(&self.group, &r_prime, &self.y, message);
        // Compare *fixed-width* encodings with ct_eq: `to_bytes_be` strips
        // leading zeros, and a length mismatch takes ct_eq's early exit —
        // which would leak the leading-zero structure of the challenge.
        let width = self.group.short_exponent_bits().div_ceil(8);
        if crate::hmac::ct_eq(
            &e_prime.to_bytes_be_padded(width),
            &e.to_bytes_be_padded(width),
        ) {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }

    /// Stable short identifier for this key (first 16 hex chars of the
    /// SHA-256 of the encoded element).
    pub fn key_id(&self) -> String {
        let digest = crate::sha256(&self.to_bytes());
        crate::hex_encode(&digest[..8])
    }
}

/// The challenge `e = SHA256(tag ‖ r ‖ y ‖ m)`, cut to the group's short
/// exponent length (all 256 bits in the builtin groups). `r` and `y` are
/// fixed-width, so the concatenation is unambiguous. The tag is new with the
/// `s = k − e·x` convention: a signature from before it can never verify.
fn challenge(group: &Group, r: &BigUint, y: &BigUint, message: &[u8]) -> BigUint {
    let digest = sha256_concat(&[
        b"tdt-schnorr-e256",
        &group.element_to_bytes(r),
        &group.element_to_bytes(y),
        message,
    ]);
    BigUint::from_bytes_be(&digest).shr(256 - group.short_exponent_bits())
}

/// One signature in a [`batch_verify`] call.
#[derive(Debug, Clone)]
pub struct BatchItem<'a> {
    /// Key to verify against.
    pub key: &'a VerifyingKey,
    /// Message the signature covers.
    pub message: &'a [u8],
    /// The signature itself.
    pub signature: &'a Signature,
    /// Optional cached fixed-base table for `key`'s element (see
    /// `certcache::CertChainCache::key_table`).
    pub table: Option<Arc<FixedBaseTable>>,
}

/// Failure modes of [`batch_verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchVerifyError {
    /// An empty batch is a caller bug, not a vacuous success.
    Empty,
    /// Item `index` is keyed in a different group than item 0.
    GroupMismatch {
        /// Index of the mismatched item.
        index: usize,
    },
    /// The batch does not verify; `index` names an offending signature
    /// (pinpointed by bisection — with several bad signatures, one of them).
    Invalid {
        /// Index of an offending item.
        index: usize,
    },
}

impl fmt::Display for BatchVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchVerifyError::Empty => write!(f, "empty signature batch"),
            BatchVerifyError::GroupMismatch { index } => {
                write!(f, "batch item {index} uses a different group")
            }
            BatchVerifyError::Invalid { index } => {
                write!(f, "batch item {index} signature invalid")
            }
        }
    }
}

impl std::error::Error for BatchVerifyError {}

/// Verifies a batch of Schnorr signatures with one randomized aggregate
/// check, pinpointing the offender by bisection on failure.
///
/// For `(e, s)`-form Schnorr the commitment `r'_i = g^{s_i}·y_i^{e_i}`
/// must be recomputed per signature (each feeds its own challenge hash),
/// so that part runs as fused multi-exponentiations in parallel across
/// available cores. What *is* aggregated is the challenge comparison: with
/// random 128-bit `z_i`, accept iff `Σ z_i·e'_i ≡ Σ z_i·e_i (mod q)` —
/// a forged item survives only if the attacker predicts `z` (probability
/// ≈ 2⁻¹²⁸). The `z_i` are drawn from an HMAC-DRBG seeded over the whole
/// batch transcript (keys, message digests, signatures), Fiat–Shamir
/// style, so they are fixed only after every item is committed; a counter
/// or other predictable sequence would let an attacker craft offsetting
/// forgeries (Wagner-style) that cancel in the sum.
///
/// # Errors
///
/// [`BatchVerifyError::Empty`] for an empty batch,
/// [`BatchVerifyError::GroupMismatch`] if items span groups, and
/// [`BatchVerifyError::Invalid`] naming an offending index otherwise.
pub fn batch_verify(items: &[BatchItem<'_>]) -> Result<(), BatchVerifyError> {
    tdt_obs::profile_scope!("crypto.batch_verify");
    if items.is_empty() {
        return Err(BatchVerifyError::Empty);
    }
    let group = items[0].key.group();
    for (index, it) in items.iter().enumerate() {
        if it.key.group() != group {
            return Err(BatchVerifyError::GroupMismatch { index });
        }
    }
    // Canonical decode up front; a malformed encoding names its index
    // immediately without costing a group operation.
    let mut scalars = Vec::with_capacity(items.len());
    for (index, it) in items.iter().enumerate() {
        match it.signature.scalars(group) {
            Ok(pair) => scalars.push(pair),
            Err(_) => return Err(BatchVerifyError::Invalid { index }),
        }
    }
    let e_primes = compute_challenges(group, items, &scalars);

    // Randomizers from the batch transcript: reseeding over every key,
    // message and signature means no z_i is known before the whole batch
    // is fixed.
    let mut seed_parts: Vec<Vec<u8>> = vec![b"tdt-batch-verify".to_vec()];
    for it in items {
        seed_parts.push(it.key.to_bytes());
        seed_parts.push(crate::sha256(it.message).to_vec());
        seed_parts.push(it.signature.e_bytes().to_vec());
        seed_parts.push(it.signature.s_bytes().to_vec());
    }
    let part_refs: Vec<&[u8]> = seed_parts.iter().map(Vec::as_slice).collect();
    let mut drbg = HmacDrbg::from_parts(&part_refs);
    let z: Vec<BigUint> = (0..items.len())
        .map(|_| BigUint::from_bytes_be(&drbg.generate_nonzero(16)))
        .collect();

    let width = group.scalar_len();
    if aggregates_match(group, &z, &e_primes, &scalars, 0, items.len(), width) {
        return Ok(());
    }
    let index = bisect(group, &z, &e_primes, &scalars, 0, items.len(), width);
    Err(BatchVerifyError::Invalid { index })
}

/// Recomputes `e'_i = H(g^{s_i}·y_i^{e_i} ‖ y_i ‖ m_i)` for every item,
/// striping the multi-exponentiations across available cores.
fn compute_challenges(
    group: &Group,
    items: &[BatchItem<'_>],
    scalars: &[(BigUint, BigUint)],
) -> Vec<BigUint> {
    let n = items.len();
    let challenge_of = |i: usize| -> BigUint {
        let it = &items[i];
        let (e, s) = &scalars[i];
        let r_prime = group.mul_exp_g(s, it.key.element(), e, it.table.as_deref());
        challenge(group, &r_prime, it.key.element(), it.message)
    };
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        return (0..n).map(challenge_of).collect();
    }
    let mut slots: Vec<Option<BigUint>> = vec![None; n];
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for (ci, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
            let challenge_of = &challenge_of;
            scope.spawn(move || {
                for (j, slot) in slot_chunk.iter_mut().enumerate() {
                    *slot = Some(challenge_of(ci * chunk + j));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("batch challenge worker completed"))
        .collect()
}

/// `Σ z_i·e'_i ≟ Σ z_i·e_i (mod q)` over `lo..hi`, compared on fixed-width
/// encodings.
fn aggregates_match(
    group: &Group,
    z: &[BigUint],
    e_primes: &[BigUint],
    scalars: &[(BigUint, BigUint)],
    lo: usize,
    hi: usize,
    width: usize,
) -> bool {
    let mut lhs = BigUint::zero();
    let mut rhs = BigUint::zero();
    for i in lo..hi {
        lhs = group.scalar_add(&lhs, &group.scalar_mul(&z[i]).by(&e_primes[i]));
        rhs = group.scalar_add(&rhs, &group.scalar_mul(&z[i]).by(&scalars[i].0));
    }
    crate::hmac::ct_eq(
        &lhs.to_bytes_be_padded(width),
        &rhs.to_bytes_be_padded(width),
    )
}

/// Pinpoints an offending index inside a mismatching range: the range sum
/// splits as `left + right (mod q)`, so if the left half matches, the right
/// half must carry a mismatch. Only scalar arithmetic — the expensive
/// exponentiations are already done.
fn bisect(
    group: &Group,
    z: &[BigUint],
    e_primes: &[BigUint],
    scalars: &[(BigUint, BigUint)],
    lo: usize,
    hi: usize,
    width: usize,
) -> usize {
    if hi - lo == 1 {
        return lo;
    }
    let mid = lo + (hi - lo) / 2;
    if !aggregates_match(group, z, e_primes, scalars, lo, mid, width) {
        bisect(group, z, e_primes, scalars, lo, mid, width)
    } else {
        bisect(group, z, e_primes, scalars, mid, hi, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SigningKey {
        SigningKey::from_seed(Group::test_group(), b"unit-test-key")
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = key();
        let sig = sk.sign(b"message");
        assert!(sk.verifying_key().verify(b"message", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let sk = key();
        let sig = sk.sign(b"message");
        assert_eq!(
            sk.verifying_key().verify(b"other", &sig),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let sk = key();
        let other = SigningKey::from_seed(Group::test_group(), b"other-key");
        let sig = sk.sign(b"message");
        assert!(other.verifying_key().verify(b"message", &sig).is_err());
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let sk = key();
        let sig = sk.sign(b"message");
        let mut s = sig.s_bytes().to_vec();
        s[0] ^= 1;
        let forged = Signature::from_scalars(sig.e_bytes().to_vec(), s);
        assert!(sk.verifying_key().verify(b"message", &forged).is_err());
    }

    #[test]
    fn deterministic_signatures() {
        let sk = key();
        assert_eq!(sk.sign(b"m"), sk.sign(b"m"));
        assert_ne!(sk.sign(b"m1"), sk.sign(b"m2"));
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let sig = key().sign(b"roundtrip");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
    }

    #[test]
    fn signature_from_bytes_rejects_truncated() {
        assert!(Signature::from_bytes(&[0, 0]).is_err());
        assert!(Signature::from_bytes(&[0, 0, 0, 99, 1]).is_err());
    }

    #[test]
    fn public_key_roundtrip() {
        let vk = key().verifying_key();
        let parsed = VerifyingKey::from_bytes(Group::test_group(), &vk.to_bytes()).unwrap();
        assert_eq!(parsed, vk);
        // Parsed key still verifies.
        let sig = key().sign(b"x");
        assert!(parsed.verify(b"x", &sig).is_ok());
    }

    #[test]
    fn public_key_decoding_accepts_exactly_the_subgroup() {
        // Among them p-1, the order-2 element: a quadratic non-residue
        // (p ≡ 3 mod 4), outside the subgroup.
        for group in [Group::modp_768(), Group::modp_1024(), Group::modp_2048()] {
            for (what, bytes, element) in crate::group::hostile_element_encodings(&group) {
                let got = VerifyingKey::from_bytes(group.clone(), &bytes);
                match got {
                    Ok(vk) if element => {
                        assert_eq!(vk.element(), &BigUint::from_bytes_be(&bytes), "{what}")
                    }
                    Err(CryptoError::InvalidGroupElement) if !element => {}
                    other => panic!("{} {what}: {other:?}", group.name()),
                }
            }
        }
    }

    #[test]
    fn secret_bytes_roundtrip() {
        let sk = key();
        let restored =
            SigningKey::from_secret_bytes(Group::test_group(), &sk.secret_bytes()).unwrap();
        let sig = restored.sign(b"m");
        assert!(sk.verifying_key().verify(b"m", &sig).is_ok());
    }

    #[test]
    fn from_secret_rejects_zero() {
        assert!(SigningKey::from_secret_bytes(Group::test_group(), &[]).is_err());
    }

    #[test]
    fn key_ids_are_distinct() {
        let a = SigningKey::from_seed(Group::test_group(), b"a");
        let b = SigningKey::from_seed(Group::test_group(), b"b");
        assert_ne!(a.verifying_key().key_id(), b.verifying_key().key_id());
        assert_eq!(a.verifying_key().key_id().len(), 16);
    }

    #[test]
    fn generate_with_rng() {
        let mut rng = rand::thread_rng();
        let sk = SigningKey::generate(Group::test_group(), &mut rng);
        let sig = sk.sign(b"fresh");
        assert!(sk.verifying_key().verify(b"fresh", &sig).is_ok());
    }

    #[test]
    fn empty_message_signs() {
        let sk = key();
        let sig = sk.sign(b"");
        assert!(sk.verifying_key().verify(b"", &sig).is_ok());
    }

    /// Regression: a challenge whose top byte is zero encodes *shorter*
    /// than the 32-byte hash on the wire. The fixed-width compare must keep
    /// such signatures verifying (and must not leak the length through
    /// `ct_eq`'s early exit on unequal lengths).
    #[test]
    fn verify_accepts_challenge_with_leading_zero_bytes() {
        let sk = key();
        let vk = sk.verifying_key();
        let mut found = false;
        for i in 0u32..4096 {
            let msg = format!("leading-zero-search-{i}").into_bytes();
            let sig = sk.sign(&msg);
            assert!(sig.e_bytes().len() <= 32, "e is one SHA-256 long at most");
            if sig.e_bytes().len() < 32 {
                assert!(
                    vk.verify(&msg, &sig).is_ok(),
                    "short-challenge signature must verify"
                );
                found = true;
                break;
            }
        }
        assert!(found, "no challenge with leading zero byte in 4096 tries");
    }

    #[test]
    fn verify_rejects_zero_s() {
        let sk = key();
        let vk = sk.verifying_key();
        let sig = sk.sign(b"m");
        for zero_s in [vec![], vec![0u8]] {
            let forged = Signature::from_scalars(sig.e_bytes().to_vec(), zero_s);
            assert_eq!(vk.verify(b"m", &forged), Err(CryptoError::InvalidSignature));
        }
    }

    #[test]
    fn verify_rejects_zero_e() {
        let sk = key();
        let sig = sk.sign(b"m");
        let forged = Signature::from_scalars(vec![0u8], sig.s_bytes().to_vec());
        assert_eq!(
            sk.verifying_key().verify(b"m", &forged),
            Err(CryptoError::InvalidSignature)
        );
    }

    /// A valid signature re-encoded with a leading zero byte (same scalar
    /// value, different bytes) must be rejected: one scalar, one encoding.
    #[test]
    fn verify_rejects_non_canonical_encodings() {
        let sk = key();
        let vk = sk.verifying_key();
        let sig = sk.sign(b"m");

        let mut padded_e = vec![0u8];
        padded_e.extend_from_slice(sig.e_bytes());
        let forged = Signature::from_scalars(padded_e, sig.s_bytes().to_vec());
        assert_eq!(vk.verify(b"m", &forged), Err(CryptoError::InvalidSignature));

        let mut padded_s = vec![0u8];
        padded_s.extend_from_slice(sig.s_bytes());
        let forged = Signature::from_scalars(sig.e_bytes().to_vec(), padded_s);
        assert_eq!(vk.verify(b"m", &forged), Err(CryptoError::InvalidSignature));

        // Oversized: wider than a scalar can canonically be.
        let oversized = vec![1u8; vk.group().scalar_len() + 1];
        let forged = Signature::from_scalars(oversized, sig.s_bytes().to_vec());
        assert_eq!(vk.verify(b"m", &forged), Err(CryptoError::InvalidSignature));
    }

    /// What `verify` and `batch_verify` must both say about a signature
    /// that is wrong: rejected, and named by its index among valid ones.
    fn assert_rejected_everywhere(vk: &VerifyingKey, msg: &[u8], bad: &Signature, what: &str) {
        assert_eq!(
            vk.verify(msg, bad),
            Err(CryptoError::InvalidSignature),
            "{what}"
        );
        let table = vk.precompute_table();
        assert_eq!(
            vk.verify_with_table(msg, bad, &table),
            Err(CryptoError::InvalidSignature),
            "{what} (table)"
        );
        let fixture = batch_fixture(3);
        for at in 0..=fixture.len() {
            let mut items = as_items(&fixture);
            let bad_item = BatchItem {
                key: vk,
                message: msg,
                signature: bad,
                table: None,
            };
            items.insert(at, bad_item);
            assert_eq!(
                batch_verify(&items),
                Err(BatchVerifyError::Invalid { index: at }),
                "{what} at {at}"
            );
        }
    }

    /// The sign convention this crate used before `s = k − e·x`: same nonce,
    /// same 256-bit challenge, `s = k + e·x`. Valid under the old equation
    /// `g^s·y^(−e)`, so it is the signature a half-migrated signer would emit.
    fn sign_old_convention(sk: &SigningKey, message: &[u8]) -> Signature {
        let mut drbg = HmacDrbg::from_parts(&[b"tdt-schnorr-nonce", &sk.x.to_bytes_be(), message]);
        let k = random_below(sk.group.q(), &mut drbg);
        let e = challenge(&sk.group, &sk.group.pow_g(&k), &sk.y, message);
        let s = sk.group.scalar_add(&k, &sk.group.scalar_mul(&e).by(&sk.x));
        Signature::from_scalars(e.to_bytes_be(), s.to_bytes_be())
    }

    #[test]
    fn old_convention_and_malformed_challenges_fail_closed() {
        let sk = key();
        let vk = sk.verifying_key();
        let g = sk.group().clone();
        let msg = b"fail closed";
        let sig = sk.sign(msg);
        let with_e = |e: Vec<u8>| Signature::from_scalars(e, sig.s_bytes().to_vec());

        let old = sign_old_convention(&sk, msg);
        let (e, s) = old.scalars(&g).unwrap();
        // The oracle really is the old scheme: it verifies under g^s·y^(q−e).
        let r_old = g.mul_exp_g(&s, vk.element(), &g.q().sub(&e), None);
        assert_eq!(challenge(&g, &r_old, vk.element(), msg), e);
        assert_rejected_everywhere(&vk, msg, &old, "old sign convention");

        // A challenge wider than the hash: the pre-change 96-byte `e`, and
        // the shortest over-long one. `scalars` turns both away before any
        // group operation; a 33-byte `e` is still below `q`.
        let wide = g.q().sub(&BigUint::one()).to_bytes_be();
        assert_eq!(wide.len(), g.scalar_len());
        assert_rejected_everywhere(&vk, msg, &with_e(wide), "full-width e");
        let mut e33 = vec![1u8];
        e33.extend_from_slice(&[0x5a; 32]);
        assert!(with_e(e33.clone()).scalars(&g).is_err());
        assert_rejected_everywhere(&vk, msg, &with_e(e33), "33-byte e");

        assert_rejected_everywhere(&vk, msg, &with_e(vec![0]), "e = 0");
        assert_rejected_everywhere(&vk, msg, &with_e(Vec::new()), "empty e");
        let mut padded = vec![0u8];
        padded.extend_from_slice(sig.e_bytes());
        assert_rejected_everywhere(&vk, msg, &with_e(padded), "leading-zero e");
        // A well-formed 32-byte challenge that is simply not this one.
        let mut other = sig.e_bytes().to_vec();
        *other.last_mut().unwrap() ^= 1;
        assert_rejected_everywhere(&vk, msg, &with_e(other), "wrong e");
    }

    /// The regression guard against "finishing the job" on the nonce. Only
    /// the challenge is short: `k` must stay uniform in `[1, q)`, or two
    /// signatures' `k ≡ s + e·x (mod q)` solve for `x`. `s` alone cannot show
    /// the nonce's length (it is uniform mod `q` whenever `x` is), so the
    /// test recovers each `k = s + e·x` and checks it against the DRBG draw
    /// it must be.
    #[test]
    fn nonce_and_response_stay_full_width() {
        let sk = key();
        let g = sk.group().clone();
        let q_bits = g.q().bits();
        let (mut max_s, mut max_k) = (0, 0);
        for i in 0..64u32 {
            let msg = format!("nonce-width-{i}").into_bytes();
            let (e, s) = sk.sign(&msg).scalars(&g).unwrap();
            assert!(e.bits() <= 256);
            let k = g.scalar_add(&s, &g.scalar_mul(&e).by(&sk.x));
            let mut drbg = HmacDrbg::from_parts(&[b"tdt-schnorr-nonce", &sk.x.to_bytes_be(), &msg]);
            assert_eq!(
                k,
                random_below(g.q(), &mut drbg),
                "nonce is the [1, q) draw"
            );
            max_s = max_s.max(s.bits());
            max_k = max_k.max(k.bits());
        }
        assert!(max_s > q_bits - 16, "max |s| = {max_s} of {q_bits} bits");
        assert!(max_k > q_bits - 16, "max |k| = {max_k} of {q_bits} bits");
        // Signing keys keep their range too: verification never touches x.
        let widest_x = (0..16u32)
            .map(|i| SigningKey::from_seed(g.clone(), &i.to_be_bytes()).x.bits())
            .max();
        assert!(widest_x > Some(q_bits - 16));
    }

    #[test]
    fn key_tables_are_sized_for_the_challenge() {
        for g in [Group::modp_768(), Group::modp_2048()] {
            let vk = SigningKey::from_seed(g.clone(), b"table-size").verifying_key();
            let table = vk.precompute_table();
            assert_eq!(table.capacity_bits(), 256);
            assert_eq!(table.approx_bytes(), 64 * 16 * g.element_len());
            assert!(g.generator_table().capacity_bits() >= g.q().bits());
        }
    }

    #[test]
    fn verify_with_table_matches_verify() {
        let sk = key();
        let vk = sk.verifying_key();
        let table = vk.precompute_table();
        let sig = sk.sign(b"tabled");
        assert!(vk.verify_with_table(b"tabled", &sig, &table).is_ok());
        let mut s = sig.s_bytes().to_vec();
        s[1] ^= 1;
        let forged = Signature::from_scalars(sig.e_bytes().to_vec(), s);
        assert!(vk.verify_with_table(b"tabled", &forged, &table).is_err());
    }

    fn batch_fixture(n: usize) -> Vec<(VerifyingKey, Vec<u8>, Signature)> {
        (0..n)
            .map(|i| {
                let sk =
                    SigningKey::from_seed(Group::test_group(), format!("batch-key-{i}").as_bytes());
                let msg = format!("batch-message-{i}").into_bytes();
                let sig = sk.sign(&msg);
                (sk.verifying_key(), msg, sig)
            })
            .collect()
    }

    fn as_items(fixture: &[(VerifyingKey, Vec<u8>, Signature)]) -> Vec<BatchItem<'_>> {
        fixture
            .iter()
            .map(|(vk, msg, sig)| BatchItem {
                key: vk,
                message: msg,
                signature: sig,
                table: None,
            })
            .collect()
    }

    #[test]
    fn batch_verify_accepts_valid_batch() {
        let fixture = batch_fixture(5);
        assert_eq!(batch_verify(&as_items(&fixture)), Ok(()));
    }

    #[test]
    fn batch_verify_empty_batch_is_error() {
        assert_eq!(batch_verify(&[]), Err(BatchVerifyError::Empty));
    }

    #[test]
    fn batch_verify_accepts_duplicate_signatures() {
        let sk = key();
        let vk = sk.verifying_key();
        let sig = sk.sign(b"dup");
        let items: Vec<BatchItem<'_>> = (0..3)
            .map(|_| BatchItem {
                key: &vk,
                message: b"dup",
                signature: &sig,
                table: None,
            })
            .collect();
        assert_eq!(batch_verify(&items), Ok(()));
    }

    #[test]
    fn batch_verify_single_item() {
        let fixture = batch_fixture(1);
        assert_eq!(batch_verify(&as_items(&fixture)), Ok(()));
    }

    #[test]
    fn batch_verify_names_forged_index() {
        for forged_at in [0usize, 2, 4] {
            let mut fixture = batch_fixture(5);
            let mut s = fixture[forged_at].2.s_bytes().to_vec();
            s[3] ^= 0x40;
            fixture[forged_at].2 =
                Signature::from_scalars(fixture[forged_at].2.e_bytes().to_vec(), s);
            assert_eq!(
                batch_verify(&as_items(&fixture)),
                Err(BatchVerifyError::Invalid { index: forged_at })
            );
        }
    }

    #[test]
    fn batch_verify_rejects_group_mismatch() {
        let fixture_768 = batch_fixture(1);
        let sk_1024 = SigningKey::from_seed(Group::modp_1024(), b"other-group");
        let vk_1024 = sk_1024.verifying_key();
        let msg = b"cross-group".to_vec();
        let sig_1024 = sk_1024.sign(&msg);
        let mut items = as_items(&fixture_768);
        items.push(BatchItem {
            key: &vk_1024,
            message: &msg,
            signature: &sig_1024,
            table: None,
        });
        assert_eq!(
            batch_verify(&items),
            Err(BatchVerifyError::GroupMismatch { index: 1 })
        );
    }

    #[test]
    fn batch_verify_with_tables() {
        let fixture = batch_fixture(3);
        let items: Vec<BatchItem<'_>> = fixture
            .iter()
            .map(|(vk, msg, sig)| BatchItem {
                key: vk,
                message: msg,
                signature: sig,
                table: Some(Arc::new(vk.precompute_table())),
            })
            .collect();
        assert_eq!(batch_verify(&items), Ok(()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        // Soundness: a batch with exactly one mutated signature — a bit of
        // `s` or a bit of `e` — is rejected by `verify`, and bisection names
        // precisely that index.
        #[test]
        fn prop_batch_rejects_single_forgery(
            n in 2usize..6,
            forged in 0usize..6,
            byte in 0usize..128,
            bit in 0u8..8,
            flip_e in proptest::prelude::any::<bool>(),
        ) {
            let forged = forged % n;
            let mut fixture = batch_fixture(n);
            let sig = &fixture[forged].2;
            let (mut e, mut s) = (sig.e_bytes().to_vec(), sig.s_bytes().to_vec());
            let target = if flip_e { &mut e } else { &mut s };
            let byte = byte % target.len();
            target[byte] ^= 1 << bit;
            fixture[forged].2 = Signature::from_scalars(e, s);
            let (vk, msg, mutated) = &fixture[forged];
            proptest::prop_assert_eq!(vk.verify(msg, mutated), Err(CryptoError::InvalidSignature));
            proptest::prop_assert_eq!(
                batch_verify(&as_items(&fixture)),
                Err(BatchVerifyError::Invalid { index: forged })
            );
        }
    }
}
