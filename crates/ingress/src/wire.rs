//! Client-facing wire protocol: submit / ack / query on the shared
//! [`iniva_net::wire`] codec stack.
//!
//! The replica-to-replica protocol trusts its peers to the extent that
//! they hold committee keys; clients are untrusted by construction, so
//! this codec is stricter than the internal one: every variable-length
//! field carries an explicit cap checked *before* the bytes are copied
//! ([`Decoder::get_bytes_capped`]), and the stream framing enforces a
//! hard frame ceiling so a hostile length prefix can never drive an
//! allocation.
//!
//! Stream framing is the same shape as the peer transport: a
//! little-endian `u32` body length followed by one [`ClientMsg`] frame
//! body, one message per frame ([`Codec::from_frame`] rejects trailing
//! bytes).

use std::io::{self, Read, Write};

use bytes::Bytes;
use iniva_net::wire::{Codec, DecodeError, Decoder, Encoder, WireDecode, WireEncode};

/// Hard cap on a single client payload. Anything larger is rejected at
/// decode time with [`DecodeError::Malformed`] before allocation.
pub const MAX_CLIENT_PAYLOAD: usize = 64 * 1024;

/// Hard cap on a client frame body: the payload cap plus fixed-field
/// headroom. The stream reader drops the connection on anything larger.
pub const MAX_CLIENT_FRAME: usize = MAX_CLIENT_PAYLOAD + 64;

/// Admission verdict carried in a [`ClientMsg::SubmitAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitStatus {
    /// Admitted to the mempool; will be drafted into a block fee-first.
    Accepted,
    /// Shed: rate limit exceeded or mempool full at this fee level.
    /// The client may retry later (ideally with a higher fee).
    Busy,
    /// A submission with this (client, nonce) is already queued,
    /// in-flight, or was just committed.
    Duplicate,
}

impl SubmitStatus {
    fn tag(self) -> u8 {
        match self {
            SubmitStatus::Accepted => 0,
            SubmitStatus::Busy => 1,
            SubmitStatus::Duplicate => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, DecodeError> {
        match tag {
            0 => Ok(SubmitStatus::Accepted),
            1 => Ok(SubmitStatus::Busy),
            2 => Ok(SubmitStatus::Duplicate),
            tag => Err(DecodeError::InvalidTag {
                tag,
                context: "SubmitStatus",
            }),
        }
    }
}

/// One message of the client protocol, in either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Client → replica: submit a request with a fee bid.
    Submit {
        /// Fee bid; the mempool drafts highest-fee-first and evicts
        /// lowest-fee-first when full.
        fee: u64,
        /// Client-chosen sequence number; (connection, nonce) pairs are
        /// deduplicated until the request commits or leaves the pool
        /// (evicted, or abandoned past the ledger bound); a request taken
        /// back from a dead block stays reserved.
        nonce: u64,
        /// Opaque request body, at most [`MAX_CLIENT_PAYLOAD`] bytes.
        payload: Bytes,
    },
    /// Replica → client: admission verdict for one `Submit`.
    SubmitAck {
        /// Echo of the submitted nonce.
        nonce: u64,
        /// The verdict.
        status: SubmitStatus,
    },
    /// Client → replica: has this block height committed yet?
    Query {
        /// The height being asked about.
        height: u64,
    },
    /// Replica → client: answer to a `Query`.
    QueryResponse {
        /// Echo of the queried height.
        height: u64,
        /// Highest committed height this replica's ingress tier has
        /// observed.
        committed_height: u64,
        /// Whether `height` is at or below the committed frontier.
        committed: bool,
    },
    /// Client → replica: push commit notifications for this connection's
    /// submissions over the connection instead of being polled via
    /// `Query`. Opt-in and sticky for the connection's lifetime; there is
    /// no reply — the acknowledgement is the first `Committed` push.
    Follow,
    /// Replica → client: a followed connection's submission committed.
    Committed {
        /// Echo of the submitted nonce.
        nonce: u64,
        /// Height of the block that carried it.
        height: u64,
    },
}

impl WireEncode for ClientMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ClientMsg::Submit {
                fee,
                nonce,
                payload,
            } => {
                enc.put_u8(0)
                    .put_u64(*fee)
                    .put_u64(*nonce)
                    .put_bytes(payload);
            }
            ClientMsg::SubmitAck { nonce, status } => {
                enc.put_u8(1).put_u64(*nonce).put_u8(status.tag());
            }
            ClientMsg::Query { height } => {
                enc.put_u8(2).put_u64(*height);
            }
            ClientMsg::QueryResponse {
                height,
                committed_height,
                committed,
            } => {
                enc.put_u8(3)
                    .put_u64(*height)
                    .put_u64(*committed_height)
                    .put_u8(u8::from(*committed));
            }
            ClientMsg::Follow => {
                enc.put_u8(4);
            }
            ClientMsg::Committed { nonce, height } => {
                enc.put_u8(5).put_u64(*nonce).put_u64(*height);
            }
        }
    }
}

impl WireDecode for ClientMsg {
    fn decode(dec: &mut Decoder) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(ClientMsg::Submit {
                fee: dec.get_u64()?,
                nonce: dec.get_u64()?,
                payload: dec.get_bytes_capped(MAX_CLIENT_PAYLOAD, "client payload cap")?,
            }),
            1 => Ok(ClientMsg::SubmitAck {
                nonce: dec.get_u64()?,
                status: SubmitStatus::from_tag(dec.get_u8()?)?,
            }),
            2 => Ok(ClientMsg::Query {
                height: dec.get_u64()?,
            }),
            3 => {
                let height = dec.get_u64()?;
                let committed_height = dec.get_u64()?;
                let committed = match dec.get_u8()? {
                    0 => false,
                    1 => true,
                    tag => {
                        return Err(DecodeError::InvalidTag {
                            tag,
                            context: "QueryResponse.committed",
                        })
                    }
                };
                Ok(ClientMsg::QueryResponse {
                    height,
                    committed_height,
                    committed,
                })
            }
            4 => Ok(ClientMsg::Follow),
            5 => Ok(ClientMsg::Committed {
                nonce: dec.get_u64()?,
                height: dec.get_u64()?,
            }),
            tag => Err(DecodeError::InvalidTag {
                tag,
                context: "ClientMsg",
            }),
        }
    }
}

/// Writes one length-prefixed [`ClientMsg`] frame to `w`.
pub fn write_frame<W: Write>(w: &mut W, msg: &ClientMsg) -> io::Result<()> {
    let body = msg.to_frame();
    let len = u32::try_from(body.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "client frame exceeds u32 length",
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&body)?;
    Ok(())
}

/// Reads one length-prefixed [`ClientMsg`] frame from `r`.
///
/// Returns `Ok(None)` on clean end-of-stream at a frame boundary. A
/// read timeout *before the first header byte* propagates as the
/// underlying `WouldBlock`/`TimedOut` error so pollers can check their
/// stop flag; once the header has started, the read persists until the
/// frame completes or the stream dies mid-frame (`UnexpectedEof`).
///
/// # Errors
/// `InvalidData` on frames over [`MAX_CLIENT_FRAME`] or bodies that fail
/// [`Codec::from_frame`] — both mean the peer is broken or hostile and
/// the connection should be dropped.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<ClientMsg>> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if got > 0
                    && (e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut) =>
            {
                // Mid-header: keep waiting, the frame has started.
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_CLIENT_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("client frame length {len} exceeds cap {MAX_CLIENT_FRAME}"),
        ));
    }
    // CAP: `len` was checked against MAX_CLIENT_FRAME above; a hostile
    // length prefix can not size this allocation.
    let mut body = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut body[got..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    }
    ClientMsg::from_frame(Bytes::from(body))
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: ClientMsg) {
        assert_eq!(ClientMsg::from_frame(msg.to_frame()).unwrap(), msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(ClientMsg::Submit {
            fee: 17,
            nonce: u64::MAX,
            payload: Bytes::copy_from_slice(b"pay"),
        });
        roundtrip(ClientMsg::SubmitAck {
            nonce: 3,
            status: SubmitStatus::Busy,
        });
        roundtrip(ClientMsg::Query { height: 9 });
        roundtrip(ClientMsg::QueryResponse {
            height: 9,
            committed_height: 12,
            committed: true,
        });
        roundtrip(ClientMsg::Follow);
        roundtrip(ClientMsg::Committed {
            nonce: 41,
            height: 7,
        });
    }

    #[test]
    fn oversized_payload_rejected_at_decode() {
        // Encode a Submit whose length prefix claims more than the cap;
        // the decoder must refuse before trying to copy the payload.
        let mut enc = Encoder::new();
        enc.put_u8(0).put_u64(1).put_u64(2);
        enc.put_u32((MAX_CLIENT_PAYLOAD + 1) as u32);
        let err = ClientMsg::from_frame(enc.finish()).unwrap_err();
        assert!(matches!(err, DecodeError::Malformed { .. }), "{err:?}");
    }

    #[test]
    fn max_sized_payload_accepted() {
        roundtrip(ClientMsg::Submit {
            fee: 0,
            nonce: 0,
            payload: Bytes::from(vec![0xabu8; MAX_CLIENT_PAYLOAD]),
        });
    }

    #[test]
    fn non_canonical_bool_rejected() {
        let mut enc = Encoder::new();
        enc.put_u8(3).put_u64(1).put_u64(2).put_u8(2);
        assert_eq!(
            ClientMsg::from_frame(enc.finish()),
            Err(DecodeError::InvalidTag {
                tag: 2,
                context: "QueryResponse.committed",
            })
        );
    }

    #[test]
    fn stream_framing_roundtrips_and_caps() {
        let msg = ClientMsg::Submit {
            fee: 5,
            nonce: 6,
            payload: Bytes::copy_from_slice(b"abc"),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        write_frame(&mut buf, &ClientMsg::Query { height: 1 }).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(msg));
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some(ClientMsg::Query { height: 1 })
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None);

        // A hostile frame header over the cap is refused without allocating.
        let huge = (MAX_CLIENT_FRAME as u32 + 1).to_le_bytes();
        let mut cursor = io::Cursor::new(huge.to_vec());
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
