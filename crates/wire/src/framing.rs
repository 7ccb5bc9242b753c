//! Length-prefixed frames for stream transports.
//!
//! Relay-to-relay communication over TCP wraps every encoded
//! [`crate::messages::RelayEnvelope`] in a 4-byte big-endian length prefix.
//! A configurable maximum frame size protects receivers from memory
//! exhaustion (part of the DoS mitigation discussed in paper §5).

use crate::error::WireError;
use std::io::{Read, Write};

/// Default maximum frame size: 16 MiB.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Upper bound on what [`read_frame`] allocates before any payload bytes
/// have actually arrived. The length prefix is attacker-controlled: a
/// 4-byte header claiming a 16 MiB payload must not cost the receiver a
/// 16 MiB allocation up front. Buffers grow past this only as fast as
/// real bytes are read.
pub const MAX_EAGER_FRAME_ALLOC: usize = 64 * 1024;

/// Writes one length-prefixed frame to `w`.
///
/// A mutable reference to any `Write` can be passed as `w`.
///
/// # Errors
///
/// * [`WireError::FrameTooLarge`] if `payload` exceeds `max_frame`.
/// * [`WireError::Io`] on write failure.
pub fn write_frame<W: Write>(mut w: W, payload: &[u8], max_frame: usize) -> Result<(), WireError> {
    if payload.len() > max_frame {
        return Err(WireError::FrameTooLarge {
            size: payload.len(),
            max: max_frame,
        });
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame from `r`.
///
/// A mutable reference to any `Read` can be passed as `r`.
///
/// # Errors
///
/// * [`WireError::FrameTooLarge`] if the declared size exceeds `max_frame`.
/// * [`WireError::UnexpectedEof`] if the stream ends mid-frame.
/// * [`WireError::Io`] on read failure.
pub fn read_frame<R: Read>(mut r: R, max_frame: usize) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    read_exact_or_eof(&mut r, &mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(WireError::FrameTooLarge {
            size: len,
            max: max_frame,
        });
    }
    // Allocate at most MAX_EAGER_FRAME_ALLOC ahead of the bytes that have
    // really arrived (`read_to_end` grows the buffer only as it fills), so
    // the declared length alone cannot exhaust memory.
    let mut payload = Vec::with_capacity(len.min(MAX_EAGER_FRAME_ALLOC));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(WireError::UnexpectedEof);
    }
    Ok(payload)
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), WireError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(WireError::UnexpectedEof),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_single_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", DEFAULT_MAX_FRAME).unwrap();
        let frame = read_frame(Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(frame, b"hello");
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"third frame", DEFAULT_MAX_FRAME).unwrap();
        let mut cursor = Cursor::new(&buf);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(),
            b"first"
        );
        assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(), b"");
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(),
            b"third frame"
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap_err(),
            WireError::UnexpectedEof
        );
    }

    #[test]
    fn oversized_write_rejected() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &[0u8; 100], 10).unwrap_err();
        assert_eq!(err, WireError::FrameTooLarge { size: 100, max: 10 });
        assert!(buf.is_empty());
    }

    #[test]
    fn oversized_read_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1_000u32.to_be_bytes());
        buf.extend_from_slice(&[0u8; 1000]);
        let err = read_frame(Cursor::new(&buf), 10).unwrap_err();
        assert_eq!(
            err,
            WireError::FrameTooLarge {
                size: 1000,
                max: 10
            }
        );
    }

    #[test]
    fn truncated_payload_is_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"complete", DEFAULT_MAX_FRAME).unwrap();
        buf.truncate(buf.len() - 3);
        assert_eq!(
            read_frame(Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap_err(),
            WireError::UnexpectedEof
        );
    }

    /// Records the largest read buffer the frame reader asks for.
    struct BufSizeProbe<R> {
        inner: R,
        max_requested: usize,
    }

    impl<R: Read> Read for BufSizeProbe<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.max_requested = self.max_requested.max(buf.len());
            self.inner.read(buf)
        }
    }

    #[test]
    fn huge_declared_length_with_tiny_body_is_eof_not_alloc() {
        // A 4-byte header claiming the full 16 MiB followed by nothing:
        // must fail with EOF, and must never have asked the underlying
        // reader to fill more than the eager-allocation cap at once.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(DEFAULT_MAX_FRAME as u32).to_be_bytes());
        buf.extend_from_slice(&[0u8; 3]);
        let mut probe = BufSizeProbe {
            inner: Cursor::new(&buf),
            max_requested: 0,
        };
        assert_eq!(
            read_frame(&mut probe, DEFAULT_MAX_FRAME).unwrap_err(),
            WireError::UnexpectedEof
        );
        assert!(
            probe.max_requested <= MAX_EAGER_FRAME_ALLOC,
            "reader asked for {} bytes at once",
            probe.max_requested
        );
    }

    #[test]
    fn frame_larger_than_eager_cap_roundtrips() {
        let payload: Vec<u8> = (0..3 * MAX_EAGER_FRAME_ALLOC).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload, DEFAULT_MAX_FRAME).unwrap();
        let frame = read_frame(Cursor::new(&buf), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(frame, payload);
    }

    /// Dribbles bytes out one at a time, as a slow or adversarial peer
    /// would.
    struct OneByteReader<R>(R);

    impl<R: Read> Read for OneByteReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.read(&mut buf[..1])
        }
    }

    #[test]
    fn short_reads_reassemble_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"dribbled payload", DEFAULT_MAX_FRAME).unwrap();
        let frame = read_frame(OneByteReader(Cursor::new(&buf)), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(frame, b"dribbled payload");
    }

    #[test]
    fn truncated_header_is_eof() {
        let buf = [0u8, 0];
        assert_eq!(
            read_frame(Cursor::new(&buf[..]), DEFAULT_MAX_FRAME).unwrap_err(),
            WireError::UnexpectedEof
        );
    }
}
