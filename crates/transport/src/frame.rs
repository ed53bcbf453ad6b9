//! Length-prefixed message framing over a TCP stream.
//!
//! Stream layout: a one-shot handshake (`b"INIV"`, protocol version, sender
//! node id, sender *incarnation epoch*), then a sequence of frames. The
//! epoch starts at 0 and is bumped each time the sender heals from an
//! injected crash (see `crate::faults`): sequence numbers restart per
//! epoch, so the receiver's duplicate filter treats a healed replica as a
//! fresh sender instead of wrongly deduping its restarted sequence space.
//! Each frame is
//!
//! ```text
//! u32-le body length | u64-le sender sequence number | message bytes
//! ```
//!
//! where the message bytes are one complete
//! [`Codec`](iniva_net::wire::Codec) encoding — the same bytes whose
//! *size* the simulator models, now actually on the wire.

use iniva_net::NodeId;
use std::io::{self, Write};
use std::net::TcpStream;

/// Handshake magic.
pub const MAGIC: [u8; 4] = *b"INIV";

/// Protocol version of the framing layer (v2 added the handshake epoch).
pub const VERSION: u8 = 2;

/// Handshake length: magic + version + node id + epoch.
pub const HANDSHAKE_BYTES: usize = 13;

/// Upper bound on a frame body; a peer claiming more is treated as corrupt
/// rather than allocated for.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// The handshake bytes identifying `node` in incarnation `epoch` — the
/// buffer form used by the reactor's non-blocking lanes, which may need
/// several partial writes to ship it.
pub fn handshake_bytes(node: NodeId, epoch: u32) -> [u8; HANDSHAKE_BYTES] {
    let mut hello = [0u8; HANDSHAKE_BYTES];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4] = VERSION;
    hello[5..9].copy_from_slice(&node.to_le_bytes());
    hello[9..].copy_from_slice(&epoch.to_le_bytes());
    hello
}

/// Writes the connection handshake identifying `node` in incarnation
/// `epoch`.
pub fn write_handshake(stream: &mut TcpStream, node: NodeId, epoch: u32) -> io::Result<()> {
    stream.write_all(&handshake_bytes(node, epoch))
}

/// Writes one frame: `seq` plus the encoded message.
pub fn write_frame(stream: &mut TcpStream, seq: u64, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len() + 8).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "frame body exceeds u32 length")
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    // One buffered write per frame: header + seq + body.
    // CAP: encode side — `body.len() + 8` passed the u32 / MAX_FRAME_BYTES
    // checks above, so the allocation is bounded by MAX_FRAME_BYTES.
    let mut buf = Vec::with_capacity(12 + body.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(body);
    stream.write_all(&buf)
}

/// Incremental handshake parser: `Ok(Some((consumed, peer, epoch)))` once
/// the [`HANDSHAKE_BYTES`] handshake bytes are buffered, `Ok(None)` while
/// incomplete.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] on wrong magic or version.
pub fn parse_handshake(buf: &[u8]) -> io::Result<Option<(usize, NodeId, u32)>> {
    if buf.len() < HANDSHAKE_BYTES {
        return Ok(None);
    }
    if buf[..4] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad handshake magic",
        ));
    }
    if buf[4] != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported frame version {}", buf[4]),
        ));
    }
    Ok(Some((
        HANDSHAKE_BYTES,
        NodeId::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]),
        u32::from_le_bytes([buf[9], buf[10], buf[11], buf[12]]),
    )))
}

/// Outcome of [`parse_frame`] over a receive buffer.
#[derive(Debug)]
pub enum FrameParse {
    /// Not enough buffered bytes for a complete frame yet.
    Incomplete,
    /// One complete frame: consume `consumed` bytes from the buffer.
    Complete {
        /// Total bytes of the frame (header + seq + body).
        consumed: usize,
        /// Sender sequence number.
        seq: u64,
        /// Offset range of the message body within the buffer.
        body: std::ops::Range<usize>,
    },
}

/// Incremental frame parser over a receive buffer — the transport's one
/// read path: a non-blocking socket hands over whatever bytes have
/// arrived, so a frame may be split across any number of reads.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] on a length prefix outside
/// `8..=MAX_FRAME_BYTES` (framing is unrecoverable; drop the connection).
pub fn parse_frame(buf: &[u8]) -> io::Result<FrameParse> {
    if buf.len() < 4 {
        return Ok(FrameParse::Incomplete);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if !(8..=MAX_FRAME_BYTES).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(FrameParse::Incomplete);
    }
    let seq = u64::from_le_bytes([
        buf[4], buf[5], buf[6], buf[7], buf[8], buf[9], buf[10], buf[11],
    ]);
    Ok(FrameParse::Complete {
        consumed: total,
        seq,
        body: 12..total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iniva_net::wire::{Codec, DecodeError, Decoder, Encoder, WireDecode, WireEncode};

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct TestMsg(u64, Vec<u8>);

    impl WireEncode for TestMsg {
        fn encode(&self, enc: &mut Encoder) {
            enc.put_u64(self.0).put_bytes(&self.1);
        }
    }

    impl WireDecode for TestMsg {
        fn decode(dec: &mut Decoder) -> Result<Self, DecodeError> {
            Ok(TestMsg(dec.get_u64()?, dec.get_bytes()?.to_vec()))
        }
    }

    #[test]
    fn corrupt_magic_rejected() {
        let err = parse_handshake(b"JUNKJUNKJUNKJ").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn incremental_handshake_parses_epoch() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(VERSION);
        wire.extend_from_slice(&9u32.to_le_bytes());
        wire.extend_from_slice(&3u32.to_le_bytes());
        for cut in 0..wire.len() {
            assert!(parse_handshake(&wire[..cut]).unwrap().is_none());
        }
        assert_eq!(
            parse_handshake(&wire).unwrap(),
            Some((HANDSHAKE_BYTES, 9, 3))
        );
        // Old (v1) handshakes are rejected, not misparsed.
        let mut v1 = wire.clone();
        v1[4] = 1;
        assert!(parse_handshake(&v1).is_err());
        // So is a handshake whose magic is off by one byte.
        let mut bad_magic = wire.clone();
        bad_magic[0] ^= 0xff;
        assert!(parse_handshake(&bad_magic).is_err());
    }

    #[test]
    fn incremental_parser_handles_split_frames() {
        let m = TestMsg(7, vec![1, 2, 3]);
        let body = m.to_frame();
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32 + 8).to_le_bytes());
        wire.extend_from_slice(&9u64.to_le_bytes());
        wire.extend_from_slice(&body);
        // Every split point of the byte stream parses to Incomplete, then
        // the full buffer yields exactly one frame.
        for cut in 0..wire.len() {
            assert!(matches!(
                parse_frame(&wire[..cut]).unwrap(),
                FrameParse::Incomplete
            ));
        }
        match parse_frame(&wire).unwrap() {
            FrameParse::Complete {
                consumed,
                seq,
                body: range,
            } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(seq, 9);
                let decoded =
                    TestMsg::from_frame(bytes::Bytes::from(wire[range].to_vec())).unwrap();
                assert_eq!(decoded, m);
            }
            other => panic!("expected a complete frame, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parser_rejects_bad_lengths() {
        assert!(parse_frame(&0u32.to_le_bytes()).is_err());
        assert!(parse_frame(&(MAX_FRAME_BYTES + 1).to_le_bytes()).is_err());
    }
}
