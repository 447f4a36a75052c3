//! The byte-level frame format of the socket backend.
//!
//! A frame is the unit the two processes of a socket session exchange:
//!
//! ```text
//! +-------+------+-------------+---------+----------+
//! | magic | kind | payload_len | payload | checksum |
//! | 4 B   | 1 B  | varint      | ...     | 8 B LE   |
//! +-------+------+-------------+---------+----------+
//! ```
//!
//! * `magic` is [`MAGIC`] (`b"CGT1"`), catching endpoint or protocol mixups.
//! * `kind` is a [`FrameKind`] tag.
//! * `payload_len` is an LEB128 varint (same codec as message payloads),
//!   bounded by [`MAX_PAYLOAD`] so a corrupt length cannot request absurd
//!   allocations.
//! * `checksum` is the FNV-1a 64-bit hash of `kind` followed by the payload,
//!   little-endian — cheap, dependency-free corruption detection.
//!
//! Every malformed input surfaces as a typed [`FrameError`]; nothing in this
//! module panics on bytes from the wire.

use congest_sim::message::{decode_varint, encode_varint};
use std::fmt;
use std::io::{Read, Write};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"CGT1";

/// Upper bound on a frame payload, in bytes. Far above anything the engine
/// produces per round at supported scales, far below anything that would let
/// a corrupt length prefix exhaust memory.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Session handshake: protocol version, topology fingerprint, split and
    /// executor configuration.
    Hello = 0,
    /// One round's traffic: sub-totals, newly-halted outputs, first error and
    /// the cross-shard `(slot, msg)` batch.
    Round = 1,
}

impl FrameKind {
    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Hello),
            1 => Some(FrameKind::Round),
            _ => None,
        }
    }
}

/// Typed decoding/transport failures. Every way a frame can be bad is its own
/// variant so tests (and operators) can tell corruption from truncation from
/// version skew.
#[derive(Debug)]
pub enum FrameError {
    /// The input ended before a complete frame was read.
    Truncated,
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: u64,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown [`FrameKind`] tag.
    BadKind(u8),
    /// The checksum does not match the payload.
    BadChecksum,
    /// The payload's content failed to decode as the expected shape.
    BadPayload(&'static str),
    /// The peer closed the connection.
    Closed,
    /// An OS-level I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_PAYLOAD}")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::BadPayload(what) => write!(f, "malformed frame payload: {what}"),
            FrameError::Closed => write!(f, "peer closed the connection"),
            FrameError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            _ => FrameError::Io(e),
        }
    }
}

/// FNV-1a 64-bit hash — the frame checksum.
fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Appends one complete frame to `out`.
pub fn encode_frame(kind: FrameKind, payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.push(kind as u8);
    encode_varint(payload.len() as u64, out);
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(&[&[kind as u8], payload]).to_le_bytes());
}

/// Decodes one frame from `buf` at `*pos`, advancing past it. The payload is
/// returned as a borrowed slice — callers decode it in place.
pub fn decode_frame<'a>(
    buf: &'a [u8],
    pos: &mut usize,
) -> Result<(FrameKind, &'a [u8]), FrameError> {
    let magic: [u8; 4] = buf
        .get(*pos..*pos + 4)
        .ok_or(FrameError::Truncated)?
        .try_into()
        .expect("slice of length 4");
    *pos += 4;
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let kind_byte = *buf.get(*pos).ok_or(FrameError::Truncated)?;
    *pos += 1;
    let kind = FrameKind::from_byte(kind_byte).ok_or(FrameError::BadKind(kind_byte))?;
    let len = decode_varint(buf, pos).ok_or(FrameError::Truncated)?;
    if len > MAX_PAYLOAD as u64 {
        return Err(FrameError::Oversized { len });
    }
    let len = len as usize;
    let payload = buf.get(*pos..*pos + len).ok_or(FrameError::Truncated)?;
    *pos += len;
    let sum: [u8; 8] = buf
        .get(*pos..*pos + 8)
        .ok_or(FrameError::Truncated)?
        .try_into()
        .expect("slice of length 8");
    *pos += 8;
    if u64::from_le_bytes(sum) != fnv1a64(&[&[kind_byte], payload]) {
        return Err(FrameError::BadChecksum);
    }
    Ok((kind, payload))
}

/// Writes one frame to a byte stream (one buffered `write_all`, so a frame is
/// a single syscall on a socket).
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), FrameError> {
    let mut buf = Vec::with_capacity(payload.len() + 24);
    encode_frame(kind, payload, &mut buf);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from a byte stream. A clean EOF at a frame boundary is
/// [`FrameError::Closed`]; EOF inside a frame is [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), FrameError> {
    let mut magic = [0u8; 4];
    // Distinguish "peer hung up between frames" from "frame cut short".
    let mut got = 0;
    while got < magic.len() {
        let k = r.read(&mut magic[got..])?;
        if k == 0 {
            return Err(if got == 0 {
                FrameError::Closed
            } else {
                FrameError::Truncated
            });
        }
        got += k;
    }
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let mut byte = [0u8; 1];
    r.read_exact(&mut byte)?;
    let kind = FrameKind::from_byte(byte[0]).ok_or(FrameError::BadKind(byte[0]))?;
    let kind_byte = byte[0];
    // Varint length, byte by byte off the stream.
    let mut len: u64 = 0;
    let mut shift = 0u32;
    loop {
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift == 63 && (b & 0x7f) > 1 {
            return Err(FrameError::Oversized { len: u64::MAX });
        }
        len |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 63 {
            return Err(FrameError::Oversized { len: u64::MAX });
        }
    }
    if len > MAX_PAYLOAD as u64 {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    if u64::from_le_bytes(sum) != fnv1a64(&[&[kind_byte], &payload]) {
        return Err(FrameError::BadChecksum);
    }
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_a_buffer() {
        let mut buf = Vec::new();
        encode_frame(FrameKind::Round, b"hello world", &mut buf);
        encode_frame(FrameKind::Hello, b"", &mut buf);
        let mut pos = 0;
        let (kind, payload) = decode_frame(&buf, &mut pos).unwrap();
        assert_eq!(kind, FrameKind::Round);
        assert_eq!(payload, b"hello world");
        let (kind, payload) = decode_frame(&buf, &mut pos).unwrap();
        assert_eq!(kind, FrameKind::Hello);
        assert!(payload.is_empty());
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn frame_round_trips_through_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Round, &[1, 2, 3]).unwrap();
        let mut cursor = &buf[..];
        let (kind, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!(kind, FrameKind::Round);
        assert_eq!(payload, vec![1, 2, 3]);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn corruption_is_detected_with_typed_errors() {
        let mut good = Vec::new();
        encode_frame(FrameKind::Round, b"payload", &mut good);

        // Flip a payload byte: checksum mismatch.
        let mut bad = good.clone();
        bad[8] ^= 0x40;
        assert!(matches!(
            decode_frame(&bad, &mut 0),
            Err(FrameError::BadChecksum)
        ));

        // Break the magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame(&bad, &mut 0),
            Err(FrameError::BadMagic(_))
        ));

        // Unknown kind (checksum never consulted).
        let mut bad = good.clone();
        bad[4] = 77;
        assert!(matches!(
            decode_frame(&bad, &mut 0),
            Err(FrameError::BadKind(77))
        ));

        // Truncations at every prefix length.
        for cut in 0..good.len() {
            assert!(
                matches!(
                    decode_frame(&good[..cut], &mut 0),
                    Err(FrameError::Truncated)
                ),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(FrameKind::Round as u8);
        congest_sim::message::encode_varint(u64::MAX, &mut buf);
        assert!(matches!(
            decode_frame(&buf, &mut 0),
            Err(FrameError::Oversized { .. })
        ));
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized { .. })
        ));
    }
}
