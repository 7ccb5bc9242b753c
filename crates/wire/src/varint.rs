//! LEB128 variable-length integers, as used by the proto3 wire format.

use crate::error::WireError;

/// Maximum encoded size of a 64-bit varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the varint encoding of `value` to `buf`.
pub fn encode_u64(mut value: u64, buf: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes a varint from the front of `buf`, returning `(value, bytes_read)`.
///
/// # Errors
///
/// * [`WireError::UnexpectedEof`] if the buffer ends mid-varint.
/// * [`WireError::VarintOverflow`] if the encoding exceeds 64 bits.
pub fn decode_u64(buf: &[u8]) -> Result<(u64, usize), WireError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(WireError::VarintOverflow);
        }
        let low = (byte & 0x7f) as u64;
        if shift == 63 && low > 1 {
            return Err(WireError::VarintOverflow);
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(WireError::UnexpectedEof)
}

/// Number of bytes [`encode_u64`] would produce for `value`.
pub fn encoded_len(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_one_byte() {
        for v in [0u64, 1, 127] {
            let mut buf = Vec::new();
            encode_u64(v, &mut buf);
            assert_eq!(buf.len(), 1);
            assert_eq!(decode_u64(&buf).unwrap(), (v, 1));
        }
    }

    #[test]
    fn proto_reference_vectors() {
        // 150 encodes as 0x96 0x01 (the canonical protobuf docs example).
        let mut buf = Vec::new();
        encode_u64(150, &mut buf);
        assert_eq!(buf, vec![0x96, 0x01]);
        // 300 encodes as 0xAC 0x02.
        buf.clear();
        encode_u64(300, &mut buf);
        assert_eq!(buf, vec![0xac, 0x02]);
    }

    #[test]
    fn max_value() {
        let mut buf = Vec::new();
        encode_u64(u64::MAX, &mut buf);
        assert_eq!(buf.len(), 10);
        assert_eq!(decode_u64(&buf).unwrap(), (u64::MAX, 10));
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        encode_u64(300, &mut buf);
        assert_eq!(decode_u64(&buf[..1]).unwrap_err(), WireError::UnexpectedEof);
        assert_eq!(decode_u64(&[]).unwrap_err(), WireError::UnexpectedEof);
    }

    #[test]
    fn overlong_encoding_rejected() {
        // 11 continuation bytes.
        let buf = [0x80u8; 11];
        assert_eq!(decode_u64(&buf).unwrap_err(), WireError::VarintOverflow);
        // 10 bytes but the last carries bits beyond 2^64.
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert_eq!(decode_u64(&buf).unwrap_err(), WireError::VarintOverflow);
    }

    #[test]
    fn encoded_len_matches() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            encode_u64(v, &mut buf);
            assert_eq!(buf.len(), encoded_len(v), "value {v}");
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            encode_u64(v, &mut buf);
            let (decoded, read) = decode_u64(&buf).unwrap();
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(read, buf.len());
        }

        #[test]
        fn prop_trailing_bytes_ignored(v in any::<u64>(), extra in any::<Vec<u8>>()) {
            let mut buf = Vec::new();
            encode_u64(v, &mut buf);
            let len = buf.len();
            buf.extend_from_slice(&extra);
            let (decoded, read) = decode_u64(&buf).unwrap();
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(read, len);
        }
    }
}
