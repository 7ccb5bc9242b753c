//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Provides both an incremental [`Sha256`] hasher and the one-shot
//! [`sha256`] convenience function. The compression function runs on the
//! CPU's SHA extensions where it has them ([`accelerated`]) and on the
//! portable rounds everywhere else ([`compress_blocks_scalar`]); digests
//! are the same either way (DESIGN.md "Hash kernels"). Verified against the
//! official FIPS test vectors, and the two paths against each other, in the
//! unit tests below.

use std::fmt;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

/// One message block.
type Block = [u8; BLOCK_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use tdt_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// let digest = hasher.finalize();
/// assert_eq!(digest, tdt_crypto::sha256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the chaining state or the buffer: inside an HMAC they
        // are the key's pads, absorbed or not.
        f.debug_struct("Sha256")
            .field("absorbed", &self.total_len)
            .finish_non_exhaustive()
    }
}

/// Whether `shown`, a `{:?}` rendering, contains three consecutive bytes
/// of `secret` the way `Debug` prints a byte array, or in hex.
#[cfg(test)]
pub(crate) fn debug_reveals(shown: &str, secret: &[u8]) -> bool {
    secret.windows(3).any(|w| {
        shown.contains(&format!("{}, {}, {}", w[0], w[1], w[2]))
            || shown.contains(&crate::hex_encode(w))
    })
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.absorb(data, compress_blocks)
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.pad(compress_blocks)
    }

    /// [`Self::update`] through a given compression function (the tests
    /// run the scalar one on every CPU).
    fn absorb(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[Block])) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let need = BLOCK_LEN - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == BLOCK_LEN {
                compress(&mut self.state, std::slice::from_ref(&self.buffer));
                self.buffer_len = 0;
            }
        }
        // Every whole block of the input in one call, straight from `data`.
        let (blocks, rest) = input.as_chunks::<BLOCK_LEN>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
        self
    }

    /// [`Self::finalize`] through a given compression function.
    fn pad(mut self, compress: impl Fn(&mut [u32; 8], &[Block])) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit big-endian
        // bit length — built in the block buffer itself (`buffer_len` is
        // always < 64 between calls), spilling into a second block when
        // the length field no longer fits.
        let bit_len = self.total_len.wrapping_mul(8);
        let mut block = self.buffer;
        block[self.buffer_len] = 0x80;
        block[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= BLOCK_LEN - 8 {
            compress(&mut self.state, std::slice::from_ref(&block));
            block = [0u8; BLOCK_LEN];
        }
        block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, std::slice::from_ref(&block));
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The compression function over `blocks`, in order: on SHA-NI where the
/// CPU has it, else [`compress_blocks_scalar`]; the same state either way.
fn compress_blocks(state: &mut [u32; 8], blocks: &[Block]) {
    #[cfg(target_arch = "x86_64")]
    if shani::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_scalar(state, blocks);
}

/// Whether SHA-256 runs on this CPU's SHA extensions (`sha`, `ssse3` and
/// `sse4.1`; sse2 is part of x86_64 itself) rather than on
/// [`compress_blocks_scalar`].
pub fn accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The FIPS 180-4 rounds in portable Rust: the only path off x86_64 or
/// without SHA-NI, and the oracle the kernel is tested against.
pub fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[Block]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The SHA-NI kernel, and all of this crate's `unsafe`.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{Block, K};
    use std::arch::x86_64::*;

    /// Runs [`rounds`] when the CPU has it and says whether it did; `state`
    /// is untouched when it did not.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[Block]) -> bool {
        let detected = super::accelerated();
        if detected {
            // SAFETY: `rounds` enables sha, ssse3 and sse4.1, all three
            // detected on this CPU just above. It reads memory only through
            // `load`, from the 16-byte quarters `as_chunks` cuts out of
            // whole 64-byte blocks, so every load is in bounds by type.
            unsafe { rounds(state, blocks) };
        }
        detected
    }

    /// One unaligned 16-byte load.
    #[inline]
    fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: `bytes` is 16 readable bytes by its type, the width of
        // the load, which has no alignment requirement; sse2 needs no
        // detection on x86_64.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// Four message words `W[t..t+4]` → `W[t+16..t+20]` (FIPS 180-4 §6.2.2
    /// step 1), from the four 4-word groups starting at `W[t]`.
    #[target_feature(enable = "sha,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        let w9 = _mm_alignr_epi8::<4>(w3, w2);
        _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w9), w3)
    }

    /// Intel's SHA-NI round sequence: the state as the two registers the
    /// instructions want, `ABEF` and `CDGH`, four rounds per group of four
    /// words; the words of group `i + 4` are scheduled after group `i`'s
    /// rounds, so four registers hold the whole window.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn rounds(state: &mut [u32; 8], blocks: &[Block]) {
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        let (round_keys, _) = K.as_chunks::<4>();
        let (words, _) = blocks.as_flattened().as_chunks::<16>();
        let (blocks, _) = words.as_chunks::<4>();
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = block.each_ref().map(|m| _mm_shuffle_epi8(load(m), bswap));
            for (i, k) in round_keys.iter().enumerate() {
                let ([w0, w1, w2, w3], [k0, k1, k2, k3]) = (w, k.map(|k| k as i32));
                let wk = _mm_add_epi32(w0, _mm_set_epi32(k3, k2, k1, k0));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
                let next = if i < 12 { schedule(w0, w1, w2, w3) } else { w0 };
                w = [w1, w2, w3, next];
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        // ABEF = lanes 3..0, CDGH likewise.
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|lane| lane as u32);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Example
///
/// ```
/// let d = tdt_crypto::sha256(b"abc");
/// assert_eq!(tdt_crypto::hex_encode(&d),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 over the concatenation of several byte slices, avoiding an
/// intermediate allocation.
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_encode;

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex_encode(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex_encode(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex_encode(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_encode(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for chunk in [1usize, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn concat_matches_oneshot() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(sha256_concat(&[a, b]), sha256(b"hello world"));
    }

    proptest::proptest! {
        // Every padding shape (lengths 0..=300 cross the 55/56 and 63/64
        // boundaries four times) under every way of feeding the message;
        // the one-shot digests are pinned to an outside reference below.
        #[test]
        fn prop_digest_is_independent_of_how_the_message_is_split(
            len in 0usize..301,
            a in 0usize..301,
            b in 0usize..301,
        ) {
            let data = pattern(len);
            let (a, b) = (a.min(b).min(len), a.max(b).min(len));
            let mut h = Sha256::new();
            h.update(&data[..a]).update(&data[a..b]).update(&data[b..]);
            proptest::prop_assert_eq!(h.finalize(), sha256(&data));
        }
    }

    /// The message the length sweeps hash: `len` bytes of a fixed pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    /// Both compression paths, each called by name: the scalar rounds run
    /// here on every CPU, not only on those without SHA-NI.
    type Compress = fn(&mut [u32; 8], &[Block]);

    const PATHS: [(&str, Compress); 2] = [
        ("dispatched", compress_blocks),
        ("scalar", compress_blocks_scalar),
    ];

    #[test]
    fn digests_of_every_length_to_300_are_the_reference_ones() {
        // Hash of the 301 digests of `pattern(0..=300)`, computed with
        // Python's hashlib: every padding shape against an outside
        // implementation, in one constant — through each path.
        for (path, compress) in PATHS {
            let mut all = Sha256::new();
            for len in 0..=300 {
                let mut h = Sha256::new();
                h.absorb(&pattern(len), compress);
                all.absorb(&h.pad(compress), compress);
            }
            assert_eq!(
                hex_encode(&all.pad(compress)),
                "7722024365d27836079cbf29de35d060b9383d7c713083199661392f983216d4",
                "{path}"
            );
        }
    }

    #[test]
    fn kernel_matches_the_scalar_rounds_on_every_run_length_and_offset() {
        // Runs of 0..=40 blocks taken at every offset 0..16 into the
        // buffer, so the kernel's unaligned loads see every alignment.
        let buf = pattern(16 + 40 * BLOCK_LEN);
        for offset in 0..16 {
            let (blocks, _) = buf[offset..].as_chunks::<BLOCK_LEN>();
            for n in 0..=40 {
                let mut want = H0;
                compress_blocks_scalar(&mut want, &blocks[..n]);
                let mut got = H0;
                compress_blocks(&mut got, &blocks[..n]);
                assert_eq!(got, want, "offset {offset}, {n} blocks");
            }
        }
    }

    #[test]
    fn a_multi_block_update_split_anywhere_gives_the_same_digest() {
        let data = pattern(1024);
        let want = sha256(&data);
        for (path, compress) in PATHS {
            for split in 0..=data.len() {
                let mut h = Sha256::new();
                h.absorb(&data[..split], compress)
                    .absorb(&data[split..], compress);
                assert_eq!(h.pad(compress), want, "{path}, split at {split}");
            }
        }
    }

    #[test]
    fn debug_shows_neither_the_buffer_nor_the_chaining_state() {
        let secret = pattern(100);
        let mut h = Sha256::new();
        h.update(&secret[..40]);
        assert!(!debug_reveals(&format!("{h:?}"), &secret[..40]), "{h:?}");
        h.update(&secret[40..]);
        let shown = format!("{h:?}");
        assert!(!debug_reveals(&shown, &secret[64..]), "{shown}");
        for word in h.state {
            assert!(!shown.contains(&word.to_string()), "{shown}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding at block boundaries 55/56/63/64.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x5au8; len];
            let mut h = Sha256::new();
            h.update(&data);
            // Only checking self-consistency across splits here.
            let mut h2 = Sha256::new();
            h2.update(&data[..len / 2]);
            h2.update(&data[len / 2..]);
            assert_eq!(h.finalize(), h2.finalize(), "len {len}");
        }
    }
}
