//! IEEE CRC32 (polynomial `0xedb88320`, reflected).
//!
//! The one checksum of the workspace: WAL frames and snapshots in
//! `tdt_ledger` and the flight recorder's dump trailer all call
//! [`crc32`]. Where the CPU has carry-less multiplication (`pclmulqdq`),
//! inputs of 64 bytes and more are folded 64 bytes per step (Intel, "Fast
//! CRC Computation for Generic Polynomials Using PCLMULQDQ"); slicing-by-8
//! ([`crc32_scalar`]: eight input bytes per step through eight const-built
//! tables) finishes the tail, serves short inputs and is the only path
//! elsewhere. Values are byte-for-byte those of the classic one-table loop
//! on every path, so nothing already on disk changes meaning.

const POLY: u32 = 0xedb8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // lint:allow(panic: "const-eval: i < 256 by the loop bound, so an out-of-range index would be a compile error, never a runtime panic")
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            // lint:allow(panic: "const-eval: k < 8 and i < 256 by the loop bounds; the masked index is < 256")
            let prev = tables[k - 1][i];
            // lint:allow(panic: "const-eval: k < 8 and i < 256 by the loop bounds; the masked index is < 256")
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Looks up byte `shift / 8` of `word` in table `k`.
#[inline(always)]
fn fold(k: usize, word: u32, shift: u32) -> u32 {
    // lint:allow(panic: "k is a literal 0..=7 at every call site and the index is masked to 0..=255, against [[u32; 256]; 8]")
    TABLES[k][((word >> shift) & 0xff) as usize]
}

/// IEEE CRC32 of `bytes`: folded on `pclmulqdq` where the CPU has it and
/// the input is long enough, [`crc32_scalar`] otherwise; same value.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some((crc, tail)) = clmul::update(!0, bytes) {
        return !slicing_by_8(crc, tail);
    }
    crc32_scalar(bytes)
}

/// Whether [`crc32`] folds on this CPU's `pclmulqdq` (sse2, which the
/// kernel also uses, is part of x86_64 itself).
pub fn accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("pclmulqdq");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// IEEE CRC32 of `bytes` by slicing-by-8 alone: the path of CPUs without
/// `pclmulqdq`, and the oracle the folding kernel is tested against.
pub fn crc32_scalar(bytes: &[u8]) -> u32 {
    !slicing_by_8(!0, bytes)
}

/// Advances the CRC register `crc` (not yet inverted) over `bytes`.
fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
    let (chunks, tail) = bytes.as_chunks::<8>();
    for &[a, b, c, d, e, f, g, h] in chunks {
        let lo = u32::from_le_bytes([a, b, c, d]) ^ crc;
        let hi = u32::from_le_bytes([e, f, g, h]);
        crc = fold(7, lo, 0)
            ^ fold(6, lo, 8)
            ^ fold(5, lo, 16)
            ^ fold(4, lo, 24)
            ^ fold(3, hi, 0)
            ^ fold(2, hi, 8)
            ^ fold(1, hi, 16)
            ^ fold(0, hi, 24);
    }
    for &b in tail {
        crc = (crc >> 8) ^ fold(0, crc ^ u32::from(b), 0);
    }
    crc
}

/// The carry-less-multiplication kernel, and all of this crate's `unsafe`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Folds the longest whole-16-byte prefix of `bytes` into the register
    /// `crc` when it is at least 64 bytes long and this CPU has
    /// `pclmulqdq`; returns the new register and the bytes left over.
    pub(super) fn update(crc: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
        let (chunks, tail) = bytes.as_chunks::<16>();
        let (first, rest) = chunks.split_first_chunk::<4>()?;
        if !super::accelerated() {
            return None;
        }
        // SAFETY: `fold` enables pclmulqdq, detected on this CPU just above.
        // It reads memory only through `load`, from the 16-byte arrays
        // `as_chunks` cut out of `bytes`: in bounds by construction, and
        // `split_first_chunk` has checked that there are at least four.
        Some((unsafe { fold(crc, first, rest) }, tail))
    }

    /// One unaligned 16-byte load.
    #[inline]
    fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: `bytes` is 16 readable bytes by its type, the width of
        // the load, which has no alignment requirement; sse2 needs no
        // detection on x86_64.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// `acc` multiplied forward by the distance `k` stands for, plus `next`:
    /// both 64-bit halves of `acc` times their constant, xor-ed in.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The white paper's algorithm with its reflected-IEEE constants:
    /// four 128-bit lanes folded 64 bytes per step, the lanes folded into
    /// one, single 16-byte folds, then 128 → 64 bits and a Barrett
    /// reduction to the 32-bit register.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(crc: u32, first: &[[u8; 16]; 4], rest: &[[u8; 16]]) -> u32 {
        let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0xccaa_009e, 0x1_7519_97d0);
        let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
        let poly_mu = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
        let low32 = _mm_set_epi32(0, !0, 0, !0);

        let [a, b, c, d] = first;
        let a = _mm_xor_si128(load(a), _mm_cvtsi32_si128(crc as i32));
        let mut lanes = [a, load(b), load(c), load(d)];
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (lane, next) in lanes.iter_mut().zip(quad) {
                *lane = fold_into(*lane, k1k2, load(next));
            }
        }
        let [x0, x1, x2, x3] = lanes;
        let mut x = fold_into(fold_into(fold_into(x0, k3k4, x1), k3k4, x2), k3k4, x3);
        for single in singles {
            x = fold_into(x, k3k4, load(single));
        }

        // 128 → 64 bits, then 64 → 32 + 32 via k5.
        let high = _mm_clmulepi64_si128::<0x10>(x, k3k4);
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), high);
        let low = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5);
        x = _mm_xor_si128(low, _mm_srli_si128::<4>(x));
        // Barrett: q = (x mod 2^32) · μ, keep its low 32 bits, times P.
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly_mu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, qp))) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-table loop this module replaced (both former copies).
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_ieee_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(crc32(b"abc"), 0x3524_41c2);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190a_55ad);
        assert_eq!(crc32(&[0xffu8; 32]), 0xff6c_ab0b);
    }

    #[test]
    fn every_length_to_1024_at_16_alignments_matches_bytewise() {
        // Both paths, each called by name, over every split of an input
        // between the 64-byte folds, the 16-byte folds and the scalar tail,
        // wherever the slice starts relative to a 16-byte boundary.
        let buf: Vec<u8> = (0..1040u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..16 {
            for len in 0..=1024 {
                let slice = &buf[start..start + len];
                let want = bytewise(slice);
                assert_eq!(crc32(slice), want, "start {start} len {len}");
                assert_eq!(crc32_scalar(slice), want, "start {start} len {len}");
            }
        }
    }

    #[test]
    fn every_short_length_at_every_alignment_matches_bytewise() {
        // 8 start offsets into an 8-aligned buffer x lengths 0..=64: every
        // split between the 8-byte body and the tail, wherever the slice
        // starts in memory.
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(crc32(slice), bytewise(slice), "start {start} len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_long_inputs_match_bytewise(
            bytes in prop::collection::vec(any::<u8>(), 0..4096),
            start in 0usize..8,
        ) {
            let slice = bytes.get(start..).unwrap_or(&[]);
            prop_assert_eq!(crc32(slice), bytewise(slice));
        }

        #[test]
        fn prop_inputs_to_64_kib_match_bytewise_on_both_paths(
            bytes in prop::collection::vec(any::<u8>(), 0..65_536),
            start in 0usize..16,
        ) {
            let slice = bytes.get(start..).unwrap_or(&[]);
            let want = bytewise(slice);
            prop_assert_eq!(crc32(slice), want);
            prop_assert_eq!(crc32_scalar(slice), want);
        }
    }
}
