//! Proto3-compatible field codec.
//!
//! Implements the protobuf binary wire rules — tags of
//! `(field_number << 3) | wire_type`, varint scalars, and length-delimited
//! byte fields — so that messages produced here are parseable by any proto3
//! implementation given the matching schema, fulfilling the paper's
//! "network-neutral language" requirement without an offline protobuf crate.
//!
//! Unknown fields are skipped on decode (forward compatibility), and all
//! encoding is deterministic: fields are written in ascending field-number
//! order by the [`Message`] implementations in [`crate::messages`].

use crate::error::WireError;
use crate::varint;

/// Proto3 wire types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    /// Variable-length integer.
    Varint,
    /// Fixed 64-bit little-endian.
    I64,
    /// Length-delimited bytes (strings, bytes, embedded messages).
    Len,
    /// Fixed 32-bit little-endian.
    I32,
}

impl WireType {
    fn code(self) -> u64 {
        match self {
            WireType::Varint => 0,
            WireType::I64 => 1,
            WireType::Len => 2,
            WireType::I32 => 5,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        match code {
            0 => Ok(WireType::Varint),
            1 => Ok(WireType::I64),
            2 => Ok(WireType::Len),
            5 => Ok(WireType::I32),
            other => Err(WireError::UnknownWireType(other)),
        }
    }
}

/// Serializer that appends proto3-encoded fields to a buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Finishes and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn tag(&mut self, field: u32, ty: WireType) {
        varint::encode_u64(((field as u64) << 3) | ty.code(), &mut self.buf);
    }

    /// Writes a `uint64`/`uint32`/`bool`/enum field. Zero values are
    /// skipped, matching proto3 default-elision semantics.
    pub fn u64(&mut self, field: u32, value: u64) -> &mut Self {
        if value != 0 {
            self.tag(field, WireType::Varint);
            varint::encode_u64(value, &mut self.buf);
        }
        self
    }

    /// Writes a `bool` field (false elided).
    pub fn bool(&mut self, field: u32, value: bool) -> &mut Self {
        self.u64(field, value as u64)
    }

    /// Writes a length-delimited bytes field (empty elided).
    pub fn bytes(&mut self, field: u32, value: &[u8]) -> &mut Self {
        if !value.is_empty() {
            self.tag(field, WireType::Len);
            varint::encode_u64(value.len() as u64, &mut self.buf);
            self.buf.extend_from_slice(value);
        }
        self
    }

    /// Writes a `string` field (empty elided).
    pub fn string(&mut self, field: u32, value: &str) -> &mut Self {
        self.bytes(field, value.as_bytes())
    }

    /// Writes an embedded message field. Unlike scalars, an *empty* embedded
    /// message is still written when `always` is false only if non-empty;
    /// use [`Writer::message_always`] for presence-significant submessages.
    pub fn message<M: Message>(&mut self, field: u32, value: &M) -> &mut Self {
        let inner = value.encode_to_vec();
        if !inner.is_empty() {
            self.tag(field, WireType::Len);
            varint::encode_u64(inner.len() as u64, &mut self.buf);
            self.buf.extend_from_slice(&inner);
        }
        self
    }

    /// Writes an embedded message even when its encoding is empty, so the
    /// receiver can distinguish "present but default" from "absent".
    pub fn message_always<M: Message>(&mut self, field: u32, value: &M) -> &mut Self {
        let inner = value.encode_to_vec();
        self.tag(field, WireType::Len);
        varint::encode_u64(inner.len() as u64, &mut self.buf);
        self.buf.extend_from_slice(&inner);
        self
    }

    /// Writes a repeated bytes/string/message field, one entry per element.
    pub fn repeated_bytes<I, B>(&mut self, field: u32, values: I) -> &mut Self
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        for v in values {
            let v = v.as_ref();
            self.tag(field, WireType::Len);
            varint::encode_u64(v.len() as u64, &mut self.buf);
            self.buf.extend_from_slice(v);
        }
        self
    }

    /// Writes each message in `values` as a repeated field entry.
    pub fn repeated_messages<'a, M: Message + 'a, I>(&mut self, field: u32, values: I) -> &mut Self
    where
        I: IntoIterator<Item = &'a M>,
    {
        for v in values {
            self.message_always(field, v);
        }
        self
    }
}

/// One decoded field: number, wire type, and its raw value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue<'a> {
    /// A varint scalar.
    Varint(u64),
    /// Fixed 64-bit value.
    I64(u64),
    /// Length-delimited payload (bytes, string, or embedded message).
    Len(&'a [u8]),
    /// Fixed 32-bit value.
    I32(u32),
}

impl<'a> FieldValue<'a> {
    /// Interprets the field as `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::WireTypeMismatch`] for non-varint fields.
    pub fn as_u64(&self, field: u32) -> Result<u64, WireError> {
        match self {
            FieldValue::Varint(v) => Ok(*v),
            _ => Err(WireError::WireTypeMismatch {
                field,
                expected: "varint",
            }),
        }
    }

    /// Interprets the field as `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::WireTypeMismatch`] for non-varint fields.
    pub fn as_bool(&self, field: u32) -> Result<bool, WireError> {
        Ok(self.as_u64(field)? != 0)
    }

    /// Interprets the field as raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::WireTypeMismatch`] for non-length-delimited fields.
    pub fn as_bytes(&self, field: u32) -> Result<&'a [u8], WireError> {
        match self {
            FieldValue::Len(b) => Ok(b),
            _ => Err(WireError::WireTypeMismatch {
                field,
                expected: "length-delimited",
            }),
        }
    }

    /// Interprets the field as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidUtf8`] for invalid text and
    /// [`WireError::WireTypeMismatch`] for non-length-delimited fields.
    pub fn as_string(&self, field: u32, name: &'static str) -> Result<String, WireError> {
        let bytes = self.as_bytes(field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8(name))
    }

    /// Decodes the field as an embedded message.
    ///
    /// # Errors
    ///
    /// Propagates decoding errors from the inner message.
    pub fn as_message<M: Message>(&self, field: u32) -> Result<M, WireError> {
        M::decode_from_slice(self.as_bytes(field)?)
    }
}

/// Largest field number proto3 allows (2^29 - 1).
pub const MAX_FIELD_NUMBER: u64 = (1 << 29) - 1;

/// Streaming decoder over an encoded message.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not yet read.
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let (value, read) = varint::decode_u64(self.rest)?;
        self.rest = self.rest.get(read..).unwrap_or_default();
        Ok(value)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(WireError::UnexpectedEof)?;
        self.rest = rest;
        Ok(*head)
    }

    /// Returns the next `(field_number, value)` pair, or `None` at the end.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input, including a field number
    /// of zero or above [`MAX_FIELD_NUMBER`].
    pub fn next_field(&mut self) -> Result<Option<(u32, FieldValue<'a>)>, WireError> {
        if self.rest.is_empty() {
            return Ok(None);
        }
        let tag = self.varint()?;
        let field = tag >> 3;
        if field == 0 || field > MAX_FIELD_NUMBER {
            return Err(WireError::Invalid(format!(
                "field number {field} outside 1..={MAX_FIELD_NUMBER}"
            )));
        }
        let value = match WireType::from_code((tag & 0x7) as u8)? {
            WireType::Varint => FieldValue::Varint(self.varint()?),
            WireType::I64 => FieldValue::I64(u64::from_le_bytes(self.take_array()?)),
            WireType::I32 => FieldValue::I32(u32::from_le_bytes(self.take_array()?)),
            WireType::Len => {
                let declared = self.varint()?;
                let remaining = self.rest.len();
                let split = usize::try_from(declared).ok();
                let Some((head, rest)) = split.and_then(|n| self.rest.split_at_checked(n)) else {
                    return Err(WireError::LengthOutOfBounds {
                        declared,
                        remaining,
                    });
                };
                self.rest = rest;
                FieldValue::Len(head)
            }
        };
        Ok(Some((field as u32, value)))
    }
}

/// A type encodable to / decodable from the proto3 wire format.
pub trait Message: Sized {
    /// Writes all fields to `w` in ascending field-number order.
    fn encode(&self, w: &mut Writer);

    /// Decodes from a field reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed or incomplete input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes to a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes from a byte slice.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed or incomplete input.
    fn decode_from_slice(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        Self::decode(&mut r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    crate::message! {
        /// One field of each scalar kind, declared like a relay message.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct Sample {
            1 u64 id: u64,
            2 string name: String,
            3 bytes payload: Vec<u8>,
            4 bool flag: bool,
            5 repeated_string tags: Vec<String>,
        }
    }

    #[test]
    fn roundtrip_full() {
        let s = Sample {
            id: 42,
            name: "tradelens".into(),
            payload: vec![1, 2, 3],
            flag: true,
            tags: vec!["a".into(), "b".into()],
        };
        let decoded = Sample::decode_from_slice(&s.encode_to_vec()).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn default_encodes_empty() {
        let s = Sample::default();
        assert!(s.encode_to_vec().is_empty());
        assert_eq!(Sample::decode_from_slice(&[]).unwrap(), s);
    }

    #[test]
    fn proto3_reference_encoding() {
        // Field 1 varint 150 => 08 96 01 (protobuf docs reference message).
        let mut w = Writer::new();
        w.u64(1, 150);
        assert_eq!(w.into_bytes(), vec![0x08, 0x96, 0x01]);
        // Field 2 string "testing" => 12 07 74 65 73 74 69 6e 67.
        let mut w = Writer::new();
        w.string(2, "testing");
        assert_eq!(
            w.into_bytes(),
            vec![0x12, 0x07, 0x74, 0x65, 0x73, 0x74, 0x69, 0x6e, 0x67]
        );
    }

    #[test]
    fn unknown_fields_skipped() {
        let mut w = Writer::new();
        w.u64(1, 7);
        w.string(99, "future field");
        w.string(2, "kept");
        let s = Sample::decode_from_slice(&w.into_bytes()).unwrap();
        assert_eq!(s.id, 7);
        assert_eq!(s.name, "kept");
    }

    #[test]
    fn truncated_len_field_errors() {
        let mut w = Writer::new();
        w.bytes(3, &[1, 2, 3, 4, 5]);
        let bytes = w.into_bytes();
        let err = Sample::decode_from_slice(&bytes[..bytes.len() - 2]).unwrap_err();
        assert!(matches!(err, WireError::LengthOutOfBounds { .. }));
    }

    #[test]
    fn wire_type_mismatch_detected() {
        let mut w = Writer::new();
        w.string(1, "not a varint");
        let err = Sample::decode_from_slice(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::WireTypeMismatch { field: 1, .. }));
    }

    #[test]
    fn invalid_utf8_detected() {
        let mut w = Writer::new();
        w.bytes(2, &[0xff, 0xfe]);
        let err = Sample::decode_from_slice(&w.into_bytes()).unwrap_err();
        assert_eq!(err, WireError::InvalidUtf8("name"));
    }

    #[test]
    fn wire_type_codes_roundtrip() {
        for ty in [
            WireType::Varint,
            WireType::I64,
            WireType::Len,
            WireType::I32,
        ] {
            assert_eq!(WireType::from_code(ty.code() as u8).unwrap(), ty);
        }
        assert!(WireType::from_code(3).is_err()); // deprecated group type
        assert!(WireType::from_code(7).is_err());
    }

    #[test]
    fn fixed_width_fields_decode() {
        // Hand-encode an I64 and an I32 field and ensure the reader handles them.
        let mut buf = Vec::new();
        crate::varint::encode_u64((1 << 3) | 1, &mut buf); // field 1, I64
        buf.extend_from_slice(&123456789u64.to_le_bytes());
        crate::varint::encode_u64((2 << 3) | 5, &mut buf); // field 2, I32
        buf.extend_from_slice(&42u32.to_le_bytes());
        let mut r = Reader::new(&buf);
        assert_eq!(
            r.next_field().unwrap(),
            Some((1, FieldValue::I64(123456789)))
        );
        assert_eq!(r.next_field().unwrap(), Some((2, FieldValue::I32(42))));
        assert_eq!(r.next_field().unwrap(), None);
    }

    #[test]
    fn embedded_messages() {
        crate::message! {
            /// A message embedding [`Sample`]s.
            #[derive(Debug, PartialEq, Default)]
            pub struct Outer {
                1 message inner: Sample,
                2 repeated_messages others: Vec<Sample>,
            }
        }
        let o = Outer {
            inner: Sample {
                id: 1,
                name: "in".into(),
                ..Default::default()
            },
            others: vec![
                Sample {
                    id: 2,
                    ..Default::default()
                },
                Sample::default(),
            ],
        };
        let decoded = Outer::decode_from_slice(&o.encode_to_vec()).unwrap();
        assert_eq!(decoded, o);
    }

    proptest! {
        #[test]
        fn prop_sample_roundtrip(
            id in any::<u64>(),
            name in "[a-zA-Z0-9 ]{0,40}",
            payload in proptest::collection::vec(any::<u8>(), 0..100),
            flag in any::<bool>(),
            tags in proptest::collection::vec("[a-z]{1,8}", 0..5),
        ) {
            let s = Sample { id, name, payload, flag, tags };
            let decoded = Sample::decode_from_slice(&s.encode_to_vec()).unwrap();
            prop_assert_eq!(decoded, s);
        }

        #[test]
        fn prop_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            // Arbitrary bytes must decode or error, never panic.
            let _ = Sample::decode_from_slice(&data);
        }
    }
}
