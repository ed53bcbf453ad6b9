//! The peer fabric: a listener accepting inbound connections and a
//! reconnecting outbound lane per peer, every socket of the node — and,
//! via [`Transport::serve_clients`], its ingress clients' — on one epoll
//! [`Reactor`] the transport owns (the socket state machines are the
//! [`Source`](crate::reactor::Source)s in `fabric/`). The transport
//! spawns no thread: whoever owns it — the node's
//! [`Runtime`](crate::runtime::Runtime), on the node's one thread — moves
//! its sockets by calling [`Transport::poll`].
//!
//! The node's socket state — inbox, duplicate filter, one queue per lane —
//! is the reactor's context, which it lends to the sources in their
//! callbacks and to the transport between polls. Decoded messages wait in
//! the inbox for the runtime to drain; [`Transport::send`] pushes onto the
//! destination lane's queue and marks the lane, which flushes in the next
//! poll without a syscall to wake anyone.
//!
//! Connections are asymmetric: each node *dials* every peer for its own
//! outbound traffic and *accepts* the peers' dials for inbound traffic, so
//! a pair of nodes shares two TCP connections and no tie-breaking is
//! needed. Outbound lanes queue frames while the peer is unreachable and
//! reconnect with capped exponential backoff — a replica that restarts is
//! re-integrated without any action from the others.
//!
//! Lanes are **bounded** ([`TransportOptions::lane_capacity`], drop-oldest
//! policy): a peer that stays partitioned or crashed for a long chaos run
//! cannot grow the sender's memory without bound. Fault injection — crash
//! via [`NodeFaults`], link block/delay via [`LinkFaults`] — is filtered
//! on the send path, in the lanes and on the inbound connections; every
//! injected drop is counted in [`TransportStats::faults_dropped`].

use crate::dedup::DedupCache;
use crate::fabric::{ClientCtx, ClientListener, LaneQueue, NodeCx, OutboundLane, PeerListener};
use crate::faults::{LinkFaults, NodeFaults};
use crate::frame;
use crate::reactor::{Interest, Reactor};
use iniva_net::wire::Codec;
use iniva_net::NodeId;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for a [`Transport`].
#[derive(Debug, Clone, Copy)]
pub struct TransportOptions {
    /// Max frames queued per outbound lane; when full the **oldest**
    /// queued frame is evicted (counted in
    /// [`TransportStats::lane_evicted`]). Protocol traffic is dominated by
    /// the freshest view, so shedding the stalest backlog first is the
    /// policy that lets a healed peer catch up fastest.
    pub lane_capacity: usize,
}

impl Default for TransportOptions {
    fn default() -> Self {
        TransportOptions {
            lane_capacity: 16_384,
        }
    }
}

/// Transport-level counters (monotonic except the `queue_depth` gauge).
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Frames sent (including loopback self-sends).
    pub msgs_sent: AtomicU64,
    /// Encoded body bytes sent.
    pub bytes_sent: AtomicU64,
    /// Frames delivered to the receiver.
    pub msgs_received: AtomicU64,
    /// Encoded body bytes received.
    pub bytes_received: AtomicU64,
    /// Duplicate frames dropped by the dedup cache.
    pub dups_dropped: AtomicU64,
    /// Outbound reconnect attempts that succeeded.
    pub reconnects: AtomicU64,
    /// Frames dropped by injected faults (node down, link blocked, stale
    /// incarnation epoch) across the send path, lanes and inbound
    /// connections.
    pub faults_dropped: AtomicU64,
    /// Frames evicted from full outbound lanes (drop-oldest policy).
    pub lane_evicted: AtomicU64,
    /// Frames queued across all outbound lanes: a gauge, refreshed by
    /// [`Transport::snapshot`] (the counters above are monotonic).
    pub queue_depth: AtomicU64,
}

/// A plain-value copy of [`TransportStats`], taken at a point in time.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportSnapshot {
    /// Frames sent (including loopback self-sends).
    pub msgs_sent: u64,
    /// Encoded body bytes sent.
    pub bytes_sent: u64,
    /// Frames delivered to the receiver.
    pub msgs_received: u64,
    /// Encoded body bytes received.
    pub bytes_received: u64,
    /// Duplicate frames dropped by the dedup cache.
    pub dups_dropped: u64,
    /// Outbound reconnect attempts that succeeded.
    pub reconnects: u64,
    /// Frames dropped by injected faults.
    pub faults_dropped: u64,
    /// Frames evicted from full outbound lanes.
    pub lane_evicted: u64,
    /// Frames queued across all outbound lanes at snapshot time.
    pub queue_depth: u64,
}

impl TransportStats {
    pub(crate) fn bump(counter: &AtomicU64, by: u64) {
        // ORDER: monotone stat counter; readers only observe totals via
        // `snapshot`, no other memory is published through it.
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// Reads one stat counter for a snapshot.
    fn read(counter: &AtomicU64) -> u64 {
        // ORDER: snapshots are advisory observability reads; each counter
        // is independently monotone and no cross-counter consistency is
        // promised.
        counter.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            msgs_sent: Self::read(&self.msgs_sent),
            bytes_sent: Self::read(&self.bytes_sent),
            msgs_received: Self::read(&self.msgs_received),
            bytes_received: Self::read(&self.bytes_received),
            dups_dropped: Self::read(&self.dups_dropped),
            reconnects: Self::read(&self.reconnects),
            faults_dropped: Self::read(&self.faults_dropped),
            lane_evicted: Self::read(&self.lane_evicted),
            queue_depth: Self::read(&self.queue_depth),
        }
    }
}

/// Mirrors a transport snapshot into `registry` under the `transport.`
/// prefix (idempotent: values are stored, not added). `queue_depth` lands
/// as a gauge; everything else as counters.
pub fn export_transport_snapshot(snap: &TransportSnapshot, registry: &iniva_obs::Registry) {
    registry
        .counter("transport.msgs_sent")
        .store(snap.msgs_sent);
    registry
        .counter("transport.bytes_sent")
        .store(snap.bytes_sent);
    registry
        .counter("transport.msgs_received")
        .store(snap.msgs_received);
    registry
        .counter("transport.bytes_received")
        .store(snap.bytes_received);
    registry
        .counter("transport.dups_dropped")
        .store(snap.dups_dropped);
    registry
        .counter("transport.reconnects")
        .store(snap.reconnects);
    registry
        .counter("transport.faults_dropped")
        .store(snap.faults_dropped);
    registry
        .counter("transport.lane_evicted")
        .store(snap.lane_evicted);
    registry
        .gauge("transport.queue_depth")
        .set(snap.queue_depth);
}

/// How many `(sender, epoch, seq)` triples the duplicate filter remembers.
const DEDUP_CAPACITY: usize = 4096;

/// The TCP message fabric for one node. Dropping it closes every socket.
pub struct Transport<M> {
    local_addr: SocketAddr,
    /// The node's poller: every socket is a source registered on it, and
    /// the node's socket state is its context.
    reactor: Reactor<NodeCx<M>>,
    seq: u64,
    /// Incarnation under which `seq` counts; a heal resets the sequence.
    sent_epoch: u32,
}

impl<M: Codec + Send + 'static> Transport<M> {
    /// Starts the fabric over an already-bound listener with default
    /// options and a private (unshared) fault surface, with outbound lanes
    /// towards every peer in `peers` (entries whose id equals `node` are
    /// ignored, so a full cluster map can be passed).
    pub fn start(
        node: NodeId,
        listener: TcpListener,
        peers: &[(NodeId, SocketAddr)],
    ) -> io::Result<Self> {
        Self::start_with_stats(
            node,
            listener,
            peers,
            TransportOptions::default(),
            Arc::new(NodeFaults::new()),
            Arc::new(LinkFaults::new()),
            Arc::new(TransportStats::default()),
        )
    }

    /// Starts the fabric over an already-bound listener, counting into
    /// `stats`. `node_faults` is this node's crash switch; `link_faults` is
    /// the (typically cluster-shared) link filter. Useful when a whole
    /// cluster binds ephemeral ports first and exchanges the actual
    /// addresses afterwards (see [`crate::cluster`]).
    ///
    /// A restart-capable harness passes the *same* `stats` to every
    /// incarnation of a node, so the counters are cumulative across
    /// rebuilds: nothing a dying lane counted (evictions, fault drops) is
    /// lost when the next incarnation starts from zero. Callers doing so
    /// must treat the final snapshot as the node's total, not fold
    /// per-incarnation snapshots on top (that would double-count).
    #[allow(clippy::too_many_arguments)]
    pub fn start_with_stats(
        node: NodeId,
        listener: TcpListener,
        peers: &[(NodeId, SocketAddr)],
        options: TransportOptions,
        node_faults: Arc<NodeFaults>,
        link_faults: Arc<LinkFaults>,
        stats: Arc<TransportStats>,
    ) -> io::Result<Self> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let mut reactor = Reactor::new(NodeCx {
            node,
            inbox: VecDeque::new(),
            dedup: DedupCache::new(DEDUP_CAPACITY),
            lanes: HashMap::new(),
            stats,
            node_faults,
            link_faults,
        })?;
        let listener_fd = listener.as_raw_fd();
        reactor.register(
            Box::new(PeerListener { listener }),
            Some(listener_fd),
            Interest::READ,
        )?;
        for &(peer, addr) in peers.iter().filter(|(peer, _)| *peer != node) {
            // No fd yet: the lane dials lazily, on its first frame.
            let token = reactor.register(
                Box::new(OutboundLane::new(peer, addr)),
                None,
                Interest::NONE,
            )?;
            let queue = LaneQueue::new(options.lane_capacity, token);
            reactor.cx_mut().lanes.insert(peer, queue);
        }
        Ok(Transport {
            local_addr,
            reactor,
            seq: 0,
            sent_epoch: 0,
        })
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.reactor.cx().node
    }

    /// The listener's actual address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Transport counters.
    pub fn stats(&self) -> &TransportStats {
        &self.reactor.cx().stats
    }

    /// A point-in-time copy of the counters with the lane-queue gauge
    /// refreshed.
    pub fn snapshot(&self) -> TransportSnapshot {
        let depth = self.queue_depth() as u64;
        // ORDER: advisory gauge refresh; the value is read back only via
        // `TransportStats::snapshot`, with no ordering dependency.
        self.stats().queue_depth.store(depth, Ordering::Relaxed);
        self.stats().snapshot()
    }

    /// Frames currently queued across all outbound lanes.
    pub fn queue_depth(&self) -> usize {
        self.reactor.cx().lanes.values().map(LaneQueue::len).sum()
    }

    /// This node's crash/heal switch.
    pub fn node_faults(&self) -> Arc<NodeFaults> {
        Arc::clone(&self.reactor.cx().node_faults)
    }

    /// Sends `msg` to `to`. Self-sends are delivered directly; unknown
    /// destinations and oversized messages are dropped (matching the
    /// simulator, where a send to a crashed node vanishes). Never blocks:
    /// frames queue on the (bounded) outbound lane, which writes them in
    /// the next [`Self::poll`] once the peer is reachable. A crashed
    /// (killed) node or a blocked link drops the frame instead, counted in
    /// [`TransportStats::faults_dropped`].
    pub fn send(&mut self, to: NodeId, msg: &M) {
        let cx = self.reactor.cx_mut();
        if cx.node_faults.is_down() {
            TransportStats::bump(&cx.stats.faults_dropped, 1);
            return;
        }
        let epoch = cx.node_faults.epoch();
        if epoch != self.sent_epoch {
            // Healed under a new incarnation: restart the sequence space.
            self.sent_epoch = epoch;
            self.seq = 0;
        }
        let body = msg.to_frame();
        if to == cx.node {
            TransportStats::bump(&cx.stats.msgs_sent, 1);
            TransportStats::bump(&cx.stats.bytes_sent, body.len() as u64);
            TransportStats::bump(&cx.stats.msgs_received, 1);
            TransportStats::bump(&cx.stats.bytes_received, body.len() as u64);
            // Re-decode instead of cloning: M need not be Clone, and the
            // loopback path then exercises the same codec as the sockets.
            if let Ok(decoded) = M::from_frame(body) {
                cx.inbox.push_back((to, decoded));
            }
            return;
        }
        if cx.link_faults.blocked(cx.node, to) {
            TransportStats::bump(&cx.stats.faults_dropped, 1);
            return;
        }
        let Some(queue) = cx.lanes.get_mut(&to) else {
            return;
        };
        // A frame the receiver's parser would reject as corrupt is never
        // queued (the lane would reconnect and replay it forever).
        let Some(framed) = frame::encode(self.seq + 1, &body) else {
            return;
        };
        self.seq += 1;
        TransportStats::bump(&cx.stats.msgs_sent, 1);
        TransportStats::bump(&cx.stats.bytes_sent, body.len() as u64);
        if queue.push(epoch, framed) {
            TransportStats::bump(&cx.stats.lane_evicted, 1);
        }
        let lane = queue.lane;
        self.reactor.mark(lane);
    }

    /// Runs one iteration of the node's event loop: flushes the lanes
    /// [`Self::send`] marked, waits up to `wait` for socket readiness (not
    /// at all with a lane marked; less if a socket timer falls due
    /// sooner), and serves it. Frames read land in the inbox. Sockets move
    /// only while their owner polls.
    pub fn poll(&mut self, wait: Duration) {
        self.reactor.poll(wait);
    }

    /// Whether decoded messages wait in the inbox.
    pub(crate) fn has_incoming(&self) -> bool {
        !self.reactor.cx().inbox.is_empty()
    }

    /// Takes up to `max` messages from the inbox, oldest first.
    pub(crate) fn take_incoming(&mut self, max: usize) -> Vec<(NodeId, M)> {
        let inbox = &mut self.reactor.cx_mut().inbox;
        let n = inbox.len().min(max);
        inbox.drain(..n).collect()
    }

    /// Registers `listener`'s client sockets on this transport's reactor:
    /// accepted connections speak the `iniva-ingress` client wire protocol
    /// (submit/ack, query, commit follow) against `mempool`, multiplexed on
    /// the *same* poller as the peer fabric — client count never implies
    /// thread count. The listener closes when the transport is dropped.
    pub fn serve_clients(
        &mut self,
        listener: TcpListener,
        mempool: Arc<iniva_ingress::Mempool>,
        opts: &iniva_ingress::IngressOptions,
    ) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let fd = listener.as_raw_fd();
        let ctx = Arc::new(ClientCtx {
            mempool,
            opts: opts.clone(),
            handle: self.reactor.handle(),
        });
        self.reactor.register(
            Box::new(ClientListener { listener, ctx }),
            Some(fd),
            Interest::READ,
        )?;
        Ok(())
    }
}
