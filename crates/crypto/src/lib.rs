#![warn(missing_docs)]

//! From-scratch cryptographic substrate for the trusted data transfer stack.
//!
//! The paper's proof-of-concept relies on Hyperledger Fabric's crypto stack
//! (ECDSA signatures, X.509 certificates, hybrid encryption of query results).
//! None of the usual Rust crypto crates are available in this reproduction, so
//! this crate implements the required primitives from first principles:
//!
//! * [`sha256`](mod@sha256) — FIPS 180-4 SHA-256.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104).
//! * [`drbg`] — a deterministic HMAC-DRBG (SP 800-90A flavoured) used for
//!   nonce derivation and keystream generation.
//! * [`bigint`] — arbitrary-precision unsigned integers, and Montgomery
//!   multiplication and exponentiation modulo any odd modulus.
//! * [`group`] — named multiplicative groups modulo safe primes (Oakley /
//!   RFC 3526 MODP groups), their primes pinned by a Miller–Rabin test.
//! * [`schnorr`] — Schnorr signatures over a MODP subgroup of prime order.
//! * [`elgamal`] — ElGamal KEM + SHA-256 counter-mode stream cipher with
//!   encrypt-then-MAC, used for end-to-end confidentiality of query results.
//! * [`cert`] — minimal X.509-like certificates and certificate authorities,
//!   the basis for the Fabric-like Membership Service Providers.
//!
//! # Example
//!
//! ```
//! use tdt_crypto::{group::Group, schnorr::SigningKey};
//!
//! let group = Group::test_group();
//! let key = SigningKey::generate(group.clone(), &mut rand::thread_rng());
//! let sig = key.sign(b"bill of lading #42");
//! assert!(key.verifying_key().verify(b"bill of lading #42", &sig).is_ok());
//! ```

pub mod bigint;
pub mod cert;
pub mod certcache;
pub mod drbg;
pub mod elgamal;
pub mod error;
pub mod group;
pub mod hmac;
pub mod schnorr;
pub mod sha256;
pub mod stream;

pub use error::CryptoError;
pub use sha256::{sha256, Sha256};

/// Hex-encode a byte slice (lowercase), used pervasively for digests and ids.
pub fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

/// Decode a lowercase/uppercase hex string into bytes.
///
/// # Errors
///
/// Returns [`CryptoError::Encoding`] if the input has odd length or contains
/// a non-hex character.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, CryptoError> {
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return Err(CryptoError::Encoding("odd-length hex string".into()));
    }
    fn nibble(c: u8) -> Result<u8, CryptoError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(CryptoError::Encoding(format!(
                "invalid hex character {:?}",
                c as char
            ))),
        }
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let data = vec![0u8, 1, 2, 0xfe, 0xff, 0x7f];
        let encoded = hex_encode(&data);
        assert_eq!(encoded, "000102feff7f");
        assert_eq!(hex_decode(&encoded).unwrap(), data);
    }

    #[test]
    fn hex_decode_rejects_odd_length() {
        assert!(hex_decode("abc").is_err());
    }

    #[test]
    fn hex_decode_rejects_bad_chars() {
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn hex_decode_accepts_uppercase() {
        assert_eq!(hex_decode("FF00").unwrap(), vec![0xff, 0x00]);
    }
}
