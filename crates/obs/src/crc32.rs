//! IEEE CRC32 (polynomial `0xedb88320`, reflected), slicing-by-8.
//!
//! The one checksum of the workspace: WAL frames and snapshots in
//! `tdt_ledger` and the flight recorder's dump trailer all call
//! [`crc32`]. Eight input bytes are folded per step through eight
//! const-built tables; values are byte-for-byte those of the classic
//! one-table loop, so nothing already on disk changes meaning.

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

/// IEEE CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
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
    !crc
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
    }
}
