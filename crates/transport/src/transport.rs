//! The peer fabric: a listener accepting inbound connections and a
//! reconnecting outbound lane per peer, every socket of the node — and,
//! via [`Transport::serve_clients`], its ingress clients' — driven by one
//! epoll poller thread ([`crate::reactor`]; the socket state machines are
//! the [`Source`](crate::reactor::Source)s in `fabric.rs`). Decoded
//! messages cross to the node's handler thread on an mpsc channel
//! ([`Transport::recv_timeout`]); [`Transport::send`] pushes onto the
//! destination lane's queue and wakes the poller.
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
use crate::faults::{LinkFaults, NodeFaults};
use crate::frame;
use iniva_net::wire::Codec;
use iniva_net::NodeId;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// A message delivered by the transport.
#[derive(Debug)]
pub struct Incoming<M> {
    /// Sending node.
    pub from: NodeId,
    /// Decoded message.
    pub msg: M,
}

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
pub(crate) const DEDUP_CAPACITY: usize = 4096;

/// Backoff bounds for outbound reconnects.
pub(crate) const BACKOFF_START: Duration = Duration::from_millis(10);
pub(crate) const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// A bounded, epoch-tagged frame queue feeding one outbound lane: the
/// handler thread pushes and notifies the poller, whose
/// [`OutboundLane`](crate::fabric::OutboundLane) source pops.
///
/// Drop-oldest on overflow; closable. A hand-rolled `Mutex` queue instead
/// of `mpsc` because the bound and the eviction must happen on the
/// *sender* side, which channels cannot do.
pub(crate) struct LaneQueue {
    state: Mutex<LaneState>,
    capacity: usize,
}

struct LaneState {
    frames: VecDeque<(u32, Vec<u8>)>,
    closed: bool,
}

impl LaneQueue {
    fn new(capacity: usize) -> Self {
        LaneQueue {
            state: Mutex::new(LaneState {
                frames: VecDeque::new(),
                closed: false,
            }),
            capacity,
        }
    }

    /// Enqueues a frame under `epoch`; returns `true` if the oldest queued
    /// frame was evicted to make room.
    fn push(&self, epoch: u32, framed: Vec<u8>) -> bool {
        let mut st = crate::reactor::relock(&self.state);
        if st.closed {
            return false;
        }
        let evicted = if st.frames.len() >= self.capacity.max(1) {
            st.frames.pop_front();
            true
        } else {
            false
        };
        st.frames.push_back((epoch, framed));
        evicted
    }

    /// Pops without waiting: the lane drains when the poller is notified
    /// or its socket turns writable, never by blocking on the queue.
    pub(crate) fn try_pop(&self) -> Option<(u32, Vec<u8>)> {
        crate::reactor::relock(&self.state).frames.pop_front()
    }

    fn close(&self) {
        crate::reactor::relock(&self.state).closed = true;
    }

    pub(crate) fn len(&self) -> usize {
        crate::reactor::relock(&self.state).frames.len()
    }
}

/// The TCP message fabric for one node.
pub struct Transport<M> {
    node: NodeId,
    local_addr: SocketAddr,
    /// The node's poller: every socket is a source registered on it.
    reactor: crate::reactor::Handle,
    thread: Option<JoinHandle<()>>,
    /// Per-peer outbound queue and the token of the lane source draining it.
    lanes: HashMap<NodeId, (Arc<LaneQueue>, crate::reactor::Token)>,
    /// Loopback: self-sends skip the socket layer entirely.
    incoming_tx: Sender<Incoming<M>>,
    incoming_rx: Receiver<Incoming<M>>,
    stats: Arc<TransportStats>,
    node_faults: Arc<NodeFaults>,
    link_faults: Arc<LinkFaults>,
    seq: u64,
    /// Incarnation under which `seq` counts; a heal resets the sequence.
    sent_epoch: u32,
}

impl<M: Codec + Send + 'static> Transport<M> {
    /// Binds a listener on `listen` (use port 0 for an ephemeral port) and
    /// starts outbound lanes towards every peer in `peers` (entries whose
    /// id equals `node` are ignored, so a full cluster map can be passed).
    pub fn bind(
        node: NodeId,
        listen: SocketAddr,
        peers: &[(NodeId, SocketAddr)],
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        Self::start(node, listener, peers)
    }

    /// Starts the fabric over an already-bound listener with default
    /// options and a private (unshared) fault surface.
    pub fn start(
        node: NodeId,
        listener: TcpListener,
        peers: &[(NodeId, SocketAddr)],
    ) -> io::Result<Self> {
        Self::start_with(
            node,
            listener,
            peers,
            TransportOptions::default(),
            Arc::new(NodeFaults::new()),
            Arc::new(LinkFaults::new()),
        )
    }

    /// Starts the fabric over an already-bound listener. `node_faults` is
    /// this node's crash switch; `link_faults` is the (typically
    /// cluster-shared) link filter. Useful when a whole cluster binds
    /// ephemeral ports first and exchanges the actual addresses afterwards
    /// (see [`crate::cluster`]).
    pub fn start_with(
        node: NodeId,
        listener: TcpListener,
        peers: &[(NodeId, SocketAddr)],
        options: TransportOptions,
        node_faults: Arc<NodeFaults>,
        link_faults: Arc<LinkFaults>,
    ) -> io::Result<Self> {
        Self::start_with_stats(
            node,
            listener,
            peers,
            options,
            node_faults,
            link_faults,
            Arc::new(TransportStats::default()),
        )
    }

    /// [`Transport::start_with`], but counting into a caller-provided
    /// stats block instead of a fresh one. A restart-capable harness
    /// passes the *same* `Arc` to every incarnation of a node, so the
    /// counters are cumulative across rebuilds: nothing a dying lane
    /// counted (evictions, fault drops) is lost when the next
    /// incarnation starts from zero. Callers doing so must treat the
    /// final snapshot as the node's total, not fold per-incarnation
    /// snapshots on top (that would double-count).
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
        let (incoming_tx, incoming_rx) = mpsc::channel();
        listener.set_nonblocking(true)?;

        let mut reactor = crate::reactor::Reactor::new()?;
        let ctx = Arc::new(crate::fabric::PeerCtx {
            node,
            tx: incoming_tx.clone(),
            stats: Arc::clone(&stats),
            node_faults: Arc::clone(&node_faults),
            link_faults: Arc::clone(&link_faults),
            dedup: Mutex::new(DedupCache::new(DEDUP_CAPACITY)),
        });
        let listener_fd = listener.as_raw_fd();
        reactor.register(
            Box::new(crate::fabric::PeerListener::new(listener, Arc::clone(&ctx))),
            Some(listener_fd),
            crate::reactor::Interest::READ,
        )?;
        let mut lanes = HashMap::new();
        for &(peer, addr) in peers {
            if peer == node {
                continue;
            }
            let queue = Arc::new(LaneQueue::new(options.lane_capacity));
            // No fd yet: the lane dials lazily, on its first frame.
            let token = reactor.register(
                Box::new(crate::fabric::OutboundLane::new(
                    peer,
                    addr,
                    Arc::clone(&queue),
                    Arc::clone(&ctx),
                )),
                None,
                crate::reactor::Interest::NONE,
            )?;
            lanes.insert(peer, (queue, token));
        }
        let handle = reactor.handle();
        let thread = thread::Builder::new()
            .name(format!("iniva-reactor-{node}"))
            .spawn(move || {
                pin_node_thread(node);
                reactor.run()
            })?;

        Ok(Transport {
            node,
            local_addr,
            reactor: handle,
            thread: Some(thread),
            lanes,
            incoming_tx,
            incoming_rx,
            stats,
            node_faults,
            link_faults,
            seq: 0,
            sent_epoch: 0,
        })
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The listener's actual address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Transport counters.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// A point-in-time copy of the counters with the lane-queue gauge
    /// refreshed.
    pub fn snapshot(&self) -> TransportSnapshot {
        let depth = self.queue_depth() as u64;
        // ORDER: advisory gauge refresh; the value is read back only via
        // `TransportStats::snapshot`, with no ordering dependency.
        self.stats.queue_depth.store(depth, Ordering::Relaxed);
        self.stats.snapshot()
    }

    /// Frames currently queued across all outbound lanes.
    pub fn queue_depth(&self) -> usize {
        self.lanes.values().map(|(q, _)| q.len()).sum()
    }

    /// This node's crash/heal switch.
    pub fn node_faults(&self) -> Arc<NodeFaults> {
        Arc::clone(&self.node_faults)
    }

    /// The link filter this transport consults.
    pub fn link_faults(&self) -> Arc<LinkFaults> {
        Arc::clone(&self.link_faults)
    }

    /// Sends `msg` to `to`. Self-sends are delivered directly; unknown
    /// destinations and oversized messages are dropped (matching the
    /// simulator, where a send to a crashed node vanishes). Never blocks:
    /// frames queue on the (bounded) outbound lane until the peer is
    /// reachable. A crashed (killed) node or a blocked link drops the
    /// frame instead, counted in [`TransportStats::faults_dropped`].
    pub fn send(&mut self, to: NodeId, msg: &M) {
        if self.node_faults.is_down() {
            TransportStats::bump(&self.stats.faults_dropped, 1);
            return;
        }
        let epoch = self.node_faults.epoch();
        if epoch != self.sent_epoch {
            // Healed under a new incarnation: restart the sequence space.
            self.sent_epoch = epoch;
            self.seq = 0;
        }
        let body = msg.to_frame();
        if to == self.node {
            TransportStats::bump(&self.stats.msgs_sent, 1);
            TransportStats::bump(&self.stats.bytes_sent, body.len() as u64);
            TransportStats::bump(&self.stats.msgs_received, 1);
            TransportStats::bump(&self.stats.bytes_received, body.len() as u64);
            // Re-decode instead of cloning: M need not be Clone, and the
            // loopback path then exercises the same codec as the sockets.
            if let Ok(decoded) = M::from_frame(body) {
                let _ = self.incoming_tx.send(Incoming {
                    from: to,
                    msg: decoded,
                });
            }
            return;
        }
        if self.link_faults.blocked(self.node, to) {
            TransportStats::bump(&self.stats.faults_dropped, 1);
            return;
        }
        let Some((queue, token)) = self.lanes.get(&to) else {
            return;
        };
        // Enforce the same bound the receiver's parser enforces: a frame it
        // would reject as corrupt must never be queued (the lane would
        // reconnect and replay it forever).
        let Ok(len) = u32::try_from(body.len() + 8) else {
            return;
        };
        if len > frame::MAX_FRAME_BYTES {
            return;
        }
        TransportStats::bump(&self.stats.msgs_sent, 1);
        TransportStats::bump(&self.stats.bytes_sent, body.len() as u64);
        self.seq += 1;
        let mut framed = Vec::with_capacity(12 + body.len());
        framed.extend_from_slice(&len.to_le_bytes());
        framed.extend_from_slice(&self.seq.to_le_bytes());
        framed.extend_from_slice(&body);
        if queue.push(epoch, framed) {
            TransportStats::bump(&self.stats.lane_evicted, 1);
        }
        self.reactor.notify(*token);
    }

    /// Receives the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Incoming<M>> {
        self.incoming_rx.recv_timeout(timeout).ok()
    }

    /// Receives without waiting.
    pub fn try_recv(&self) -> Option<Incoming<M>> {
        self.incoming_rx.try_recv().ok()
    }

    /// Registers `listener`'s client sockets on this transport's reactor:
    /// accepted connections speak the `iniva-ingress` client wire protocol
    /// (submit/ack, query, commit follow) against `mempool`, multiplexed on
    /// the *same* poller as the peer fabric — client count never implies
    /// thread count. The listener closes when the transport shuts down.
    pub fn serve_clients(
        &self,
        listener: TcpListener,
        mempool: Arc<iniva_ingress::Mempool>,
        opts: &iniva_ingress::IngressOptions,
    ) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let fd = listener.as_raw_fd();
        let ctx = Arc::new(crate::fabric::ClientCtx {
            mempool,
            opts: opts.clone(),
            handle: self.reactor.clone(),
        });
        self.reactor.register(
            Box::new(crate::fabric::ClientListener::new(listener, ctx)),
            Some(fd),
            crate::reactor::Interest::READ,
        );
        Ok(())
    }
}

impl<M> Transport<M> {
    /// Closes the lanes, stops the poller thread — closing every socket
    /// it owns — and joins it (idempotent). Called by `Drop`; exposed for
    /// explicit, joined shutdown in tests.
    pub fn shutdown(&mut self) {
        for (_, (queue, _)) in self.lanes.drain() {
            queue.close();
        }
        self.reactor.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl<M> Drop for Transport<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Puts the calling thread on node `node`'s CPU: nodes are dealt round
/// the CPUs the process may use, and a node's poller and handler threads
/// — which hand every message to each other — share one. Left to the
/// scheduler, a cluster whose threads mostly sleep settles one of two
/// ways, each self-sustaining: every thread packed on one CPU, or spread
/// over all of them, where a wake-up crosses CPUs and costs an
/// inter-processor interrupt (in a VM, an exit to wake the halted vCPU).
/// Which one follows what the machine ran before the launch, and the
/// process's CPU per request differs by a quarter between them
/// (`crash21`: 80 against 100 µs). Fixed placement takes the choice away.
pub(crate) fn pin_node_thread(node: NodeId) {
    crate::reactor::sys::pin_current_thread(node as usize);
}

pub(crate) fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}
