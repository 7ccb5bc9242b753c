//! Deterministic random bit generator based on HMAC-SHA-256.
//!
//! Follows the HMAC_DRBG construction of NIST SP 800-90A (without the
//! personalization/reseed-counter machinery, which this codebase does not
//! need). Used for deterministic Schnorr nonces (RFC 6979 flavoured) and as
//! a reproducible entropy source in simulations.

use crate::hmac::hmac_sha256;
use std::fmt;

/// HMAC-DRBG over SHA-256.
///
/// # Example
///
/// ```
/// use tdt_crypto::drbg::HmacDrbg;
///
/// let mut a = HmacDrbg::new(b"seed material");
/// let mut b = HmacDrbg::new(b"seed material");
/// assert_eq!(a.generate(16), b.generate(16)); // deterministic
/// ```
#[derive(Clone)]
pub struct HmacDrbg {
    key: [u8; 32],
    value: [u8; 32],
}

impl fmt::Debug for HmacDrbg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print `key` or `value`: together they are every output to
        // come, Schnorr nonces included.
        f.debug_struct("HmacDrbg").finish_non_exhaustive()
    }
}

impl HmacDrbg {
    /// Instantiates the DRBG from seed material.
    pub fn new(seed: &[u8]) -> Self {
        let mut drbg = HmacDrbg {
            key: [0u8; 32],
            value: [1u8; 32],
        };
        drbg.update(Some(seed));
        drbg
    }

    /// Instantiates from several seed components, length-prefixed so that
    /// `(["ab","c"])` and `(["a","bc"])` seed differently.
    pub fn from_parts(parts: &[&[u8]]) -> Self {
        let mut seed = Vec::new();
        for p in parts {
            seed.extend_from_slice(&(p.len() as u64).to_be_bytes());
            seed.extend_from_slice(p);
        }
        Self::new(&seed)
    }

    fn update(&mut self, provided: Option<&[u8]>) {
        let mut material = Vec::with_capacity(33 + provided.map_or(0, <[u8]>::len));
        material.extend_from_slice(&self.value);
        material.push(0x00);
        if let Some(p) = provided {
            material.extend_from_slice(p);
        }
        self.key = hmac_sha256(&self.key, &material);
        self.value = hmac_sha256(&self.key, &self.value);
        if let Some(p) = provided {
            let mut material = Vec::with_capacity(33 + p.len());
            material.extend_from_slice(&self.value);
            material.push(0x01);
            material.extend_from_slice(p);
            self.key = hmac_sha256(&self.key, &material);
            self.value = hmac_sha256(&self.key, &self.value);
        }
    }

    /// Produces `len` pseudorandom bytes.
    pub fn generate(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            self.value = hmac_sha256(&self.key, &self.value);
            let take = (len - out.len()).min(32);
            out.extend_from_slice(&self.value[..take]);
        }
        self.update(None);
        out
    }

    /// Produces `len` pseudorandom bytes that are not all zero, drawing
    /// again until they aren't. Used for batch-verification randomizers,
    /// where a zero coefficient would drop its item from the aggregate
    /// check entirely.
    pub fn generate_nonzero(&mut self, len: usize) -> Vec<u8> {
        assert!(len > 0, "cannot generate a nonzero empty string");
        loop {
            let out = self.generate(len);
            if out.iter().any(|&b| b != 0) {
                return out;
            }
        }
    }

    /// Fills `buf` with pseudorandom bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let bytes = self.generate(buf.len());
        buf.copy_from_slice(&bytes);
    }

    /// Mixes additional entropy into the state.
    pub fn reseed(&mut self, entropy: &[u8]) {
        self.update(Some(entropy));
    }
}

impl rand::RngCore for HmacDrbg {
    fn next_u32(&mut self) -> u32 {
        let mut buf = [0u8; 4];
        self.fill(&mut buf);
        u32::from_be_bytes(buf)
    }

    fn next_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.fill(&mut buf);
        u64::from_be_bytes(buf)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.fill(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = HmacDrbg::new(b"seed");
        let mut b = HmacDrbg::new(b"seed");
        assert_eq!(a.generate(100), b.generate(100));
        assert_eq!(a.generate(7), b.generate(7));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::new(b"seed-a");
        let mut b = HmacDrbg::new(b"seed-b");
        assert_ne!(a.generate(32), b.generate(32));
    }

    #[test]
    fn consecutive_outputs_differ() {
        let mut d = HmacDrbg::new(b"seed");
        let first = d.generate(32);
        let second = d.generate(32);
        assert_ne!(first, second);
    }

    #[test]
    fn from_parts_length_prefixed() {
        let mut a = HmacDrbg::from_parts(&[b"ab", b"c"]);
        let mut b = HmacDrbg::from_parts(&[b"a", b"bc"]);
        assert_ne!(a.generate(32), b.generate(32));
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HmacDrbg::new(b"seed");
        let mut b = HmacDrbg::new(b"seed");
        b.reseed(b"extra entropy");
        assert_ne!(a.generate(32), b.generate(32));
    }

    #[test]
    fn rngcore_impl_works() {
        let mut d = HmacDrbg::new(b"rng");
        let x = d.next_u64();
        let y = d.next_u64();
        assert_ne!(x, y);
        let mut buf = [0u8; 16];
        d.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 16]);
    }

    #[test]
    fn generate_nonzero_is_nonzero_and_deterministic() {
        let mut a = HmacDrbg::new(b"nz");
        let mut b = HmacDrbg::new(b"nz");
        let x = a.generate_nonzero(16);
        assert!(x.iter().any(|&v| v != 0));
        assert_eq!(x, b.generate_nonzero(16));
    }

    #[test]
    fn debug_shows_none_of_the_state() {
        let mut d = HmacDrbg::new(b"nonce seed");
        d.generate(48);
        let shown = format!("{d:?}");
        for secret in [d.key, d.value] {
            assert!(!crate::sha256::debug_reveals(&shown, &secret), "{shown}");
        }
    }

    #[test]
    fn generate_spanning_multiple_blocks() {
        let mut d = HmacDrbg::new(b"blocks");
        let out = d.generate(100);
        assert_eq!(out.len(), 100);
        // The three 32-byte blocks must all differ.
        assert_ne!(out[0..32], out[32..64]);
        assert_ne!(out[32..64], out[64..96]);
    }
}
