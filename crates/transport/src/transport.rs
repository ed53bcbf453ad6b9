//! The peer fabric: a listener accepting inbound connections and a
//! reconnecting outbound lane per peer, driven by one of two engines
//! selected via [`TransportOptions::backend`] — the epoll reactor
//! ([`crate::reactor`], default: every socket on one poller thread) or the
//! original thread-per-connection fabric (one reader thread per inbound
//! connection plus one blocking lane thread per peer).
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
//! on the send path, in the lanes and on the reader path; every injected
//! drop is counted in [`TransportStats::faults_dropped`].

use crate::dedup::DedupCache;
use crate::faults::{LinkFaults, NodeFaults};
use crate::frame;
use iniva_net::wire::Codec;
use iniva_net::NodeId;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A message delivered by the transport.
#[derive(Debug)]
pub struct Incoming<M> {
    /// Sending node.
    pub from: NodeId,
    /// Decoded message.
    pub msg: M,
}

/// Which connection engine a [`Transport`] runs on.
///
/// Both speak the identical wire protocol and fault semantics; they
/// differ only in how sockets are driven, so the two can be compared
/// differentially on the same test suite (CI runs both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportBackend {
    /// Thread-per-connection: one reader thread per inbound connection
    /// plus one blocking outbound-lane thread per peer. Simple, but
    /// thread count scales with cluster size.
    Threaded,
    /// One epoll reactor thread ([`crate::reactor`]) owning every socket:
    /// non-blocking I/O, coalesced `writev` flushes, zero-copy frame
    /// decode, and (via [`Transport::serve_clients`]) client ingress on
    /// the same poller. The default.
    Reactor,
}

impl Default for TransportBackend {
    /// Reads `INIVA_TRANSPORT_BACKEND` (`"threaded"` / `"reactor"`), so
    /// CI can run the whole suite against either engine; defaults to
    /// [`TransportBackend::Reactor`].
    fn default() -> Self {
        match std::env::var("INIVA_TRANSPORT_BACKEND").as_deref() {
            Ok("threaded") => TransportBackend::Threaded,
            _ => TransportBackend::Reactor,
        }
    }
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
    /// The connection engine (see [`TransportBackend`]).
    pub backend: TransportBackend,
}

impl Default for TransportOptions {
    fn default() -> Self {
        TransportOptions {
            lane_capacity: 16_384,
            backend: TransportBackend::default(),
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
    /// incarnation epoch) across the send path, lanes and reader path.
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

/// Read timeout on inbound connections; bounds how long a reader thread
/// takes to observe shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// Idle gap after which an outbound lane probes its connection for a dead
/// peer before the next write (a busy lane learns from write errors
/// instead, keeping the hot path probe-free).
const PROBE_AFTER_IDLE: Duration = Duration::from_millis(50);

/// A bounded, epoch-tagged frame queue feeding one outbound lane (a
/// blocking thread on the threaded backend, a reactor source on the epoll
/// backend).
///
/// Drop-oldest on overflow; closable. A hand-rolled `Mutex` + `Condvar`
/// queue instead of `mpsc` because the bound and the eviction must happen
/// on the *sender* side, which channels cannot do.
pub(crate) struct LaneQueue {
    state: Mutex<LaneState>,
    cv: Condvar,
    capacity: usize,
}

struct LaneState {
    frames: VecDeque<(u32, Vec<u8>)>,
    closed: bool,
}

enum LanePop {
    Frame(u32, Vec<u8>),
    Timeout,
    Closed,
}

impl LaneQueue {
    fn new(capacity: usize) -> Self {
        LaneQueue {
            state: Mutex::new(LaneState {
                frames: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
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
        drop(st);
        self.cv.notify_one();
        evicted
    }

    fn pop_timeout(&self, timeout: Duration) -> LanePop {
        let mut st = crate::reactor::relock(&self.state);
        let deadline = Instant::now() + timeout;
        loop {
            if let Some((epoch, framed)) = st.frames.pop_front() {
                return LanePop::Frame(epoch, framed);
            }
            if st.closed {
                return LanePop::Closed;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return LanePop::Timeout;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, left)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
        }
    }

    /// Pops without waiting — the reactor lane drains under readiness
    /// notifications instead of blocking on the condvar.
    pub(crate) fn try_pop(&self) -> Option<(u32, Vec<u8>)> {
        crate::reactor::relock(&self.state).frames.pop_front()
    }

    fn close(&self) {
        crate::reactor::relock(&self.state).closed = true;
        self.cv.notify_all();
    }

    pub(crate) fn len(&self) -> usize {
        crate::reactor::relock(&self.state).frames.len()
    }
}

struct PeerLane {
    queue: Arc<LaneQueue>,
    handle: JoinHandle<()>,
}

/// The connection engine behind a [`Transport`]: either the original
/// thread-per-connection fabric or the epoll reactor (see
/// [`TransportBackend`]). Both feed the same `incoming_tx` channel and
/// count into the same [`TransportStats`].
enum Fabric {
    Threaded {
        lanes: HashMap<NodeId, PeerLane>,
        shutdown: Arc<AtomicBool>,
        listener_handle: Option<JoinHandle<()>>,
    },
    Reactor {
        handle: crate::reactor::Handle,
        thread: Option<JoinHandle<()>>,
        lanes: HashMap<NodeId, (Arc<LaneQueue>, crate::reactor::Token)>,
    },
}

/// What a lane thread shares with its `Transport`.
struct LaneShared {
    node: NodeId,
    peer: NodeId,
    addr: SocketAddr,
    queue: Arc<LaneQueue>,
    stats: Arc<TransportStats>,
    shutdown: Arc<AtomicBool>,
    node_faults: Arc<NodeFaults>,
    link_faults: Arc<LinkFaults>,
}

/// The TCP message fabric for one node.
pub struct Transport<M> {
    node: NodeId,
    local_addr: SocketAddr,
    fabric: Fabric,
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

        let fabric = match options.backend {
            TransportBackend::Threaded => {
                let shutdown = Arc::new(AtomicBool::new(false));
                let listener_handle = {
                    let tx = incoming_tx.clone();
                    let stats = Arc::clone(&stats);
                    let shutdown = Arc::clone(&shutdown);
                    let node_faults = Arc::clone(&node_faults);
                    let link_faults = Arc::clone(&link_faults);
                    thread::Builder::new()
                        .name(format!("iniva-accept-{node}"))
                        .spawn(move || {
                            accept_loop(
                                node,
                                listener,
                                tx,
                                stats,
                                shutdown,
                                node_faults,
                                link_faults,
                            )
                        })?
                };

                let mut lanes = HashMap::new();
                for &(peer, addr) in peers {
                    if peer == node {
                        continue;
                    }
                    let queue = Arc::new(LaneQueue::new(options.lane_capacity));
                    let shared = LaneShared {
                        node,
                        peer,
                        addr,
                        queue: Arc::clone(&queue),
                        stats: Arc::clone(&stats),
                        shutdown: Arc::clone(&shutdown),
                        node_faults: Arc::clone(&node_faults),
                        link_faults: Arc::clone(&link_faults),
                    };
                    let handle = thread::Builder::new()
                        .name(format!("iniva-out-{node}-to-{peer}"))
                        .spawn(move || outbound_loop(shared))?;
                    lanes.insert(peer, PeerLane { queue, handle });
                }
                Fabric::Threaded {
                    lanes,
                    shutdown,
                    listener_handle: Some(listener_handle),
                }
            }
            TransportBackend::Reactor => {
                use std::os::fd::AsRawFd;
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
                    // No fd yet: the lane dials lazily on its first frame,
                    // exactly like the threaded backend.
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
                Fabric::Reactor {
                    handle,
                    thread: Some(thread),
                    lanes,
                }
            }
        };

        Ok(Transport {
            node,
            local_addr,
            fabric,
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
        match &self.fabric {
            Fabric::Threaded { lanes, .. } => lanes.values().map(|l| l.queue.len()).sum(),
            Fabric::Reactor { lanes, .. } => lanes.values().map(|(q, _)| q.len()).sum(),
        }
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
        // Locate the destination lane on whichever fabric is running; the
        // reactor lane additionally needs a wakeup after the push.
        let (queue, wake) = match &self.fabric {
            Fabric::Threaded { lanes, .. } => {
                let Some(lane) = lanes.get(&to) else {
                    return;
                };
                (&lane.queue, None)
            }
            Fabric::Reactor { lanes, handle, .. } => {
                let Some((queue, token)) = lanes.get(&to) else {
                    return;
                };
                (queue, Some((handle, *token)))
            }
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
        if let Some((handle, token)) = wake {
            handle.notify(token);
        }
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
    /// thread count. Only available on the [`TransportBackend::Reactor`]
    /// backend; the threaded backend keeps the thread-per-client
    /// [`iniva_ingress::IngressServer`] and returns `Unsupported` here.
    pub fn serve_clients(
        &self,
        listener: TcpListener,
        mempool: Arc<iniva_ingress::Mempool>,
        opts: &iniva_ingress::IngressOptions,
    ) -> io::Result<()> {
        match &self.fabric {
            Fabric::Reactor { handle, .. } => {
                use std::os::fd::AsRawFd;
                listener.set_nonblocking(true)?;
                let fd = listener.as_raw_fd();
                let ctx = Arc::new(crate::fabric::ClientCtx {
                    mempool,
                    opts: opts.clone(),
                    handle: handle.clone(),
                });
                handle.register(
                    Box::new(crate::fabric::ClientListener::new(listener, ctx)),
                    Some(fd),
                    crate::reactor::Interest::READ,
                );
                Ok(())
            }
            Fabric::Threaded { .. } => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "client ingress on the shared poller requires the reactor backend",
            )),
        }
    }

    /// Stops all threads and closes the listener. Called by `Drop`; exposed
    /// for explicit, joined shutdown in tests.
    pub fn shutdown(&mut self) {
        teardown(&mut self.fabric);
    }
}

impl<M> Drop for Transport<M> {
    fn drop(&mut self) {
        teardown(&mut self.fabric);
    }
}

/// Stops whichever engine is running and joins its threads (idempotent).
fn teardown(fabric: &mut Fabric) {
    match fabric {
        Fabric::Threaded {
            lanes,
            shutdown,
            listener_handle,
        } => {
            shutdown.store(true, Ordering::SeqCst);
            for (_, lane) in lanes.drain() {
                lane.queue.close();
                let _ = lane.handle.join();
            }
            if let Some(h) = listener_handle.take() {
                let _ = h.join();
            }
        }
        Fabric::Reactor {
            handle,
            thread,
            lanes,
        } => {
            for (_, (queue, _)) in lanes.drain() {
                queue.close();
            }
            handle.shutdown();
            if let Some(t) = thread.take() {
                let _ = t.join();
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop<M: Codec + Send + 'static>(
    node: NodeId,
    listener: TcpListener,
    tx: Sender<Incoming<M>>,
    stats: Arc<TransportStats>,
    shutdown: Arc<AtomicBool>,
    node_faults: Arc<NodeFaults>,
    link_faults: Arc<LinkFaults>,
) {
    // One duplicate filter for the whole node, shared across connections:
    // a frame replayed on a *new* connection after a reconnect must still
    // be recognized as already delivered.
    let dedup = Arc::new(Mutex::new(DedupCache::new(DEDUP_CAPACITY)));
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let tx = tx.clone();
                let stats = Arc::clone(&stats);
                let shutdown = Arc::clone(&shutdown);
                let dedup = Arc::clone(&dedup);
                let node_faults = Arc::clone(&node_faults);
                let link_faults = Arc::clone(&link_faults);
                let reader = thread::Builder::new()
                    .name("iniva-reader".into())
                    .spawn(move || {
                        reader_loop(
                            node,
                            stream,
                            tx,
                            stats,
                            shutdown,
                            dedup,
                            node_faults,
                            link_faults,
                        )
                    });
                // Shed the connection if the OS refuses a reader thread —
                // the peer redials; a spawn failure must not kill the
                // accept loop for every other peer.
                match reader {
                    Ok(handle) => readers.push(handle),
                    Err(_) => continue,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => break,
        }
    }
    for r in readers {
        let _ = r.join();
    }
}

#[allow(clippy::too_many_arguments)]
fn reader_loop<M: Codec>(
    node: NodeId,
    mut stream: TcpStream,
    tx: Sender<Incoming<M>>,
    stats: Arc<TransportStats>,
    shutdown: Arc<AtomicBool>,
    dedup: Arc<Mutex<DedupCache>>,
    node_faults: Arc<NodeFaults>,
    link_faults: Arc<LinkFaults>,
) {
    // The accept loop may hand over a non-blocking socket; readers block
    // with a timeout instead so they can observe shutdown. Reads append to
    // a buffer and frames are parsed incrementally, so a timeout landing
    // mid-frame never loses stream position.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
    {
        return;
    }
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = [0u8; 64 * 1024];
    let mut from: Option<(NodeId, u32)> = None;
    while !shutdown.load(Ordering::SeqCst) {
        // Drain every complete unit currently buffered.
        loop {
            if from.is_none() {
                match frame::parse_handshake(&buf) {
                    Ok(Some((consumed, peer, epoch))) => {
                        buf.drain(..consumed);
                        from = Some((peer, epoch));
                        continue;
                    }
                    Ok(None) => break,
                    Err(_) => return,
                }
            }
            match frame::parse_frame(&buf) {
                Ok(frame::FrameParse::Incomplete) => break,
                Ok(frame::FrameParse::Complete {
                    consumed,
                    seq,
                    body,
                }) => {
                    let Some((sender, sender_epoch)) = from else {
                        // Unreachable by construction (the handshake arm
                        // above either set `from` or broke out), but a
                        // hostile peer must not be able to turn a broken
                        // assumption into a reader panic.
                        return;
                    };
                    // Fault filter first: a frame a crashed node would
                    // never have received, or one crossing a blocked
                    // link, vanishes exactly as in the simulator.
                    if node_faults.is_down() || link_faults.blocked(sender, node) {
                        buf.drain(..consumed);
                        TransportStats::bump(&stats.faults_dropped, 1);
                        continue;
                    }
                    let decoded = M::from_frame(bytes::Bytes::from(buf[body].to_vec()));
                    buf.drain(..consumed);
                    let Ok(msg) = decoded else {
                        return; // undecodable body: drop the connection
                    };
                    let fresh = crate::reactor::relock(&dedup).insert(sender, sender_epoch, seq);
                    if !fresh {
                        TransportStats::bump(&stats.dups_dropped, 1);
                        continue;
                    }
                    TransportStats::bump(&stats.msgs_received, 1);
                    TransportStats::bump(&stats.bytes_received, (consumed - 12) as u64);
                    if tx.send(Incoming { from: sender, msg }).is_err() {
                        return; // receiver gone
                    }
                }
                Err(_) => return, // corrupt framing: the peer will redial
            }
        }
        match io::Read::read(&mut stream, &mut chunk) {
            Ok(0) => return, // EOF
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if would_block(&e) => continue,
            Err(_) => return,
        }
    }
}

/// Probes an outbound (write-only) connection for peer shutdown: lanes
/// never expect inbound data, so a successful zero-byte read means EOF and
/// a reset means the peer is gone. Unexpected data is discarded.
fn conn_is_dead(stream: &mut TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 256];
    let dead = match io::Read::read(stream, &mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if would_block(&e) => false,
        Err(_) => true,
    };
    if stream.set_nonblocking(false).is_err() {
        return true;
    }
    dead
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

fn outbound_loop(shared: LaneShared) {
    let LaneShared {
        node,
        peer,
        addr,
        queue,
        stats,
        shutdown,
        node_faults,
        link_faults,
    } = shared;
    let mut conn: Option<TcpStream> = None;
    // Incarnation the current connection's handshake was written under; a
    // frame from a newer epoch forces a re-handshake so the receiver keys
    // its dedup entries by the fresh epoch.
    let mut conn_epoch = 0u32;
    let mut backoff = BACKOFF_START;
    let mut last_write = Instant::now();
    // The first successful dial is the lane coming up, not a *re*connect:
    // only count once a previously-working connection had to be rebuilt.
    let mut ever_connected = false;
    'main: while !shutdown.load(Ordering::SeqCst) {
        let (epoch, framed) = match queue.pop_timeout(Duration::from_millis(200)) {
            LanePop::Frame(epoch, framed) => (epoch, framed),
            LanePop::Closed => return,
            LanePop::Timeout => continue,
        };
        // Deliver this frame, reconnecting as often as needed.
        let mut delayed = false;
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Injected faults: a crashed sender's backlog, a frame from a
            // dead incarnation, or a blocked link all drop the frame.
            if node_faults.is_down()
                || epoch != node_faults.epoch()
                || link_faults.blocked(node, peer)
            {
                TransportStats::bump(&stats.faults_dropped, 1);
                continue 'main;
            }
            // Slow-link injection: once per frame (not per reconnect
            // retry of the same frame), sliced so a pending shutdown is
            // observed within ~20 ms instead of after the whole delay.
            if !delayed {
                delayed = true;
                if let Some(delay) = link_faults.delay(node, peer) {
                    let deadline = Instant::now() + delay;
                    loop {
                        if shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break;
                        }
                        thread::sleep(left.min(Duration::from_millis(20)));
                    }
                }
            }
            if conn.is_some() && conn_epoch != epoch {
                conn = None; // re-handshake under the new incarnation
            }
            if conn.is_none() {
                if let Ok(mut stream) =
                    TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                {
                    if stream.set_nodelay(true).is_ok()
                        && frame::write_handshake(&mut stream, node, epoch).is_ok()
                    {
                        if ever_connected {
                            TransportStats::bump(&stats.reconnects, 1);
                        } else {
                            ever_connected = true;
                        }
                        conn = Some(stream);
                        conn_epoch = epoch;
                        backoff = BACKOFF_START;
                    }
                }
                if conn.is_none() {
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                    continue;
                }
            }
            let Some(stream) = conn.as_mut() else {
                continue; // unreachable: the dial above just set `conn`
            };
            // A dead peer turns writes into silent local-buffer successes
            // until the RST arrives. Probe for EOF before writing — but
            // only after an idle gap: on a busy lane the previous write
            // would have surfaced the error, and probing every frame costs
            // three syscalls on the hot path.
            if last_write.elapsed() >= PROBE_AFTER_IDLE && conn_is_dead(stream) {
                conn = None;
                continue;
            }
            let Some(stream) = conn.as_mut() else {
                continue; // unreachable: the probe above kept `conn`
            };
            match std::io::Write::write_all(stream, &framed) {
                Ok(()) => {
                    last_write = Instant::now();
                    continue 'main;
                }
                Err(_) => {
                    // Connection died mid-write: reconnect and resend this
                    // frame. The receiver's dedup cache absorbs the case
                    // where the write had actually gone through.
                    conn = None;
                }
            }
        }
    }
}
