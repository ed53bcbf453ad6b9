//! The inbound side of the peer fabric: the listener accepting peers'
//! dials, and one [`PeerConn`] per accepted socket.

use super::{accept_all, would_block, NodeCx, READ_CHUNK};
use crate::frame;
use crate::reactor::{Action, Ctl, Source};
use crate::transport::TransportStats;
use iniva_net::wire::Codec;
use iniva_net::NodeId;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Accepts inbound peer connections and spawns a [`PeerConn`] per socket.
pub(crate) struct PeerListener {
    pub(crate) listener: TcpListener,
}

impl<M: Codec + Send + 'static> Source<NodeCx<M>> for PeerListener {
    fn ready(&mut self, ctl: &mut Ctl<'_, NodeCx<M>>, _readable: bool, _writable: bool) -> Action {
        accept_all(&self.listener, ctl, |stream| {
            Box::new(PeerConn::new(stream))
        })
    }
}

/// One inbound peer connection: handshake, then a stream of frames
/// decoded from a shared receive buffer into the node's inbox.
pub(super) struct PeerConn {
    stream: TcpStream,
    /// Bytes read but not yet parsed (at most a partial frame once a
    /// drain completes).
    pub(super) pending: Vec<u8>,
    /// Set once the handshake parses: (peer id, peer incarnation epoch).
    from: Option<(NodeId, u32)>,
}

impl PeerConn {
    pub(super) fn new(stream: TcpStream) -> Self {
        PeerConn {
            stream,
            pending: Vec::with_capacity(READ_CHUNK),
            from: None,
        }
    }

    /// Parses everything buffered into `cx`'s inbox. The zero-copy step:
    /// once at least one complete frame is buffered, the buffer is frozen
    /// into a single shared allocation and each body is decoded from a
    /// zero-copy slice of it — one `Arc<[u8]>` per read batch instead of
    /// one `Vec` per frame.
    pub(super) fn drain<M: Codec>(&mut self, cx: &mut NodeCx<M>) -> Action {
        if self.from.is_none() {
            match frame::parse_handshake(&self.pending) {
                Ok(Some((consumed, peer, epoch))) => {
                    self.pending.drain(..consumed);
                    self.from = Some((peer, epoch));
                }
                Ok(None) => return Action::Keep,
                Err(_) => return Action::Drop,
            }
        }
        let Some((sender, sender_epoch)) = self.from else {
            // Unreachable by construction (the handshake arm above either
            // set `from` or returned), but a hostile peer must never be
            // able to turn a broken assumption into a poller panic.
            return Action::Drop;
        };
        // Fast path: no complete frame buffered — no allocation at all.
        match frame::parse_frame(&self.pending) {
            Ok(frame::FrameParse::Incomplete) => return Action::Keep,
            Ok(frame::FrameParse::Complete { .. }) => {}
            Err(_) => return Action::Drop, // corrupt framing: peer redials
        }
        let shared = bytes::Bytes::from(std::mem::take(&mut self.pending));
        let read_at = Instant::now();
        let mut offset = 0usize;
        let verdict = loop {
            match frame::parse_frame(&shared[offset..]) {
                Ok(frame::FrameParse::Incomplete) => break Action::Keep,
                Err(_) => break Action::Drop,
                Ok(frame::FrameParse::Complete {
                    consumed,
                    seq,
                    body,
                }) => {
                    let start = offset;
                    offset += consumed;
                    // Fault filter first: a frame a crashed node would
                    // never have received, or one crossing a blocked
                    // link, vanishes exactly as in the simulator.
                    if cx.node_faults.is_down() || cx.link_faults.blocked(sender, cx.node) {
                        TransportStats::bump(&cx.stats.faults_dropped, 1);
                        continue;
                    }
                    let frame_body = shared.slice(start + body.start..start + body.end);
                    let Ok(msg) = M::from_frame(frame_body) else {
                        break Action::Drop; // undecodable body: drop the connection
                    };
                    if !cx.dedup.insert(sender, sender_epoch, seq) {
                        TransportStats::bump(&cx.stats.dups_dropped, 1);
                        continue;
                    }
                    TransportStats::bump(&cx.stats.msgs_received, 1);
                    TransportStats::bump(&cx.stats.bytes_received, (consumed - 12) as u64);
                    cx.inbox.push_back((read_at, sender, msg));
                }
            }
        };
        if verdict == Action::Keep && offset < shared.len() {
            // Carry the partial tail into the next read batch.
            self.pending.extend_from_slice(&shared[offset..]);
        }
        verdict
    }
}

impl<M: Codec + Send + 'static> Source<NodeCx<M>> for PeerConn {
    fn ready(&mut self, ctl: &mut Ctl<'_, NodeCx<M>>, readable: bool, _writable: bool) -> Action {
        if !readable {
            return Action::Keep;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Action::Drop, // EOF
                Ok(n) => {
                    self.pending.extend_from_slice(&chunk[..n]);
                    if self.drain(ctl.cx()) == Action::Drop {
                        return Action::Drop;
                    }
                    if n < chunk.len() {
                        break; // socket drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if would_block(&e) => break,
                Err(_) => return Action::Drop,
            }
        }
        Action::Keep
    }
}
