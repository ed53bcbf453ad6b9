//! The connection engine: the [`Source`](crate::reactor::Source)s for
//! every socket a node owns, one module per socket role — `peer` (the
//! listener and inbound connections), `lane` (one outbound lane per peer)
//! and `client` (the ingress-client listener and sessions) — on the
//! node's one [`crate::reactor`], driven by the node's thread. The peer
//! sources share [`NodeCx`], the reactor's context.
//!
//! Two hot-path disciplines: inbound frames are decoded from a *shared*
//! receive buffer (`bytes` shim slices of one `Arc<[u8]>` per read batch,
//! no per-frame `Vec`), and outbound lanes flush with coalesced `writev`
//! batches, not one write per frame.

mod client;
mod lane;
mod peer;

pub(crate) use client::{ClientCtx, ClientListener};
pub(crate) use lane::{LaneQueue, OutboundLane};
pub(crate) use peer::PeerListener;

use crate::dedup::DedupCache;
use crate::faults::{LinkFaults, NodeFaults};
use crate::reactor::{Action, Ctl, Interest, Source};
use crate::transport::TransportStats;
use iniva_net::NodeId;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;

/// Read chunk per syscall; also the early-exit threshold (a short read
/// means the socket is drained, skipping the final `EAGAIN` round trip).
const READ_CHUNK: usize = 64 * 1024;

/// The node state the peer sources share, owned by the node's reactor and
/// lent to one callback at a time.
pub(crate) struct NodeCx<M> {
    pub(crate) node: NodeId,
    /// Decoded messages waiting for the runtime, oldest first.
    pub(crate) inbox: VecDeque<(NodeId, M)>,
    /// The node-wide duplicate filter: one across all connections, so a
    /// replay on a *new* connection is still recognized.
    pub(crate) dedup: DedupCache,
    /// One outbound queue per peer, drained by that peer's lane.
    pub(crate) lanes: HashMap<NodeId, LaneQueue>,
    pub(crate) stats: Arc<TransportStats>,
    pub(crate) node_faults: Arc<NodeFaults>,
    pub(crate) link_faults: Arc<LinkFaults>,
}

/// Accepts every pending connection on `listener` (non-blocking, Nagle
/// off) and registers the source `session` builds for it. Stops at
/// `EAGAIN` or a transient accept error; the listener stays registered.
fn accept_all<C>(
    listener: &TcpListener,
    ctl: &mut Ctl<'_, C>,
    mut session: impl FnMut(TcpStream) -> Box<dyn Source<C>>,
) -> Action {
    while let Ok((stream, _)) = listener.accept() {
        if stream.set_nonblocking(true).is_ok() {
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            ctl.spawn(session(stream), Some(fd), Interest::READ);
        }
    }
    Action::Keep
}

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

#[cfg(test)]
mod tests {
    use super::peer::PeerConn;
    use super::*;
    use crate::frame;
    use iniva_net::wire::{Codec, DecodeError, Decoder, Encoder, WireDecode, WireEncode};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct TestMsg(u64);

    impl WireEncode for TestMsg {
        fn encode(&self, enc: &mut Encoder) {
            enc.put_u64(self.0);
        }
    }
    impl WireDecode for TestMsg {
        fn decode(dec: &mut Decoder) -> Result<Self, DecodeError> {
            Ok(TestMsg(dec.get_u64()?))
        }
    }

    /// A `PeerConn` on a connected socket `drain` never touches, and the
    /// node context it drains into.
    fn peer_conn() -> (PeerConn, NodeCx<TestMsg>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let _accepted = listener.accept().unwrap();
        let cx = NodeCx {
            node: 0,
            inbox: VecDeque::new(),
            dedup: DedupCache::new(64),
            lanes: HashMap::new(),
            stats: Arc::new(TransportStats::default()),
            node_faults: Arc::new(NodeFaults::new()),
            link_faults: Arc::new(LinkFaults::new()),
        };
        (PeerConn::new(stream), cx)
    }

    /// Handshake from peer 7 followed by one frame carrying `msg`.
    fn wire_bytes(seq: u64, msg: TestMsg) -> Vec<u8> {
        let mut bytes = frame::handshake_bytes(7, 1).to_vec();
        bytes.extend(frame::encode(seq, &msg.to_frame()).unwrap());
        bytes
    }

    /// Regression: corrupt framing from a hostile peer must tear down that
    /// one connection (`Action::Drop`), never unwind the poller.
    #[test]
    fn corrupt_frame_drops_connection_without_panic() {
        let (mut conn, mut cx) = peer_conn();
        let mut bytes = frame::handshake_bytes(7, 1).to_vec();
        // Length prefix below the 8-byte minimum: unrecoverable framing.
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        conn.pending = bytes;
        assert_eq!(conn.drain(&mut cx), Action::Drop);
        assert!(cx.inbox.is_empty() && cx.dedup.is_empty());
    }

    /// Regression: an undecodable body after valid framing is a hostile
    /// input, not an invariant violation — the connection drops and
    /// already-parsed frames stay delivered.
    #[test]
    fn undecodable_body_drops_connection_after_delivering_good_frames() {
        let (mut conn, mut cx) = peer_conn();
        let mut bytes = wire_bytes(1, TestMsg(9));
        // Second frame: valid length/seq, 3-byte body no TestMsg decodes.
        bytes.extend_from_slice(&11u32.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xff, 0xff]);
        conn.pending = bytes;
        assert_eq!(conn.drain(&mut cx), Action::Drop);
        assert_eq!(
            Vec::from(cx.inbox),
            vec![(7, TestMsg(9))],
            "first frame delivered"
        );
    }
}
