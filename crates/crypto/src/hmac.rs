//! HMAC-SHA-256 (RFC 2104), used for message authentication tags and as the
//! PRF inside the deterministic random bit generator.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};
use std::fmt;

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the SHA-256 block size are hashed first, per RFC 2104.
///
/// # Example
///
/// ```
/// use tdt_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     tdt_crypto::hex_encode(&tag),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA-256.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    opad_key: [u8; BLOCK_LEN],
}

impl fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the key's pads (or the inner hash they keyed).
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256(key);
            block_key[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = block_key[i] ^ 0x36;
            opad[i] = block_key[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 {
            inner,
            opad_key: opad,
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.inner.update(data);
        self
    }

    /// Produces the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Constant-time equality for MAC tags.
///
/// Avoids early-exit timing side channels when comparing authentication tags.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_encode;

    // RFC 4231 test cases.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex_encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex_encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex_encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex_encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"secret");
        mac.update(b"part one, ");
        mac.update(b"part two");
        assert_eq!(
            mac.finalize(),
            hmac_sha256(b"secret", b"part one, part two")
        );
    }

    #[test]
    fn debug_shows_neither_the_key_nor_its_pads() {
        let key: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(73) ^ 0xc3).collect();
        let mut mac = HmacSha256::new(&key);
        mac.update(b"message");
        let shown = format!("{mac:?}");
        for pad in [0x00, 0x36, 0x5c] {
            let padded: Vec<u8> = key.iter().map(|b| b ^ pad).collect();
            assert!(!crate::sha256::debug_reveals(&shown, &padded), "{shown}");
        }
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_rejects_every_single_bit_flip() {
        let tag = hmac_sha256(b"key", b"message");
        assert!(ct_eq(&tag, &tag));
        for byte in 0..tag.len() {
            for bit in 0..8 {
                let mut flipped = tag;
                flipped[byte] ^= 1 << bit;
                assert!(
                    !ct_eq(&tag, &flipped),
                    "flip of byte {byte} bit {bit} compared equal"
                );
            }
        }
    }

    #[test]
    fn ct_eq_rejects_unequal_lengths() {
        let tag = hmac_sha256(b"key", b"message");
        assert!(!ct_eq(&tag, &tag[..31]));
        assert!(!ct_eq(&tag[..31], &tag));
        assert!(!ct_eq(&tag, b""));
        // A shared prefix must not make truncated tags acceptable.
        let mut extended = tag.to_vec();
        extended.push(0);
        assert!(!ct_eq(&tag, &extended));
    }
}
