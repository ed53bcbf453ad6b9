//! The connection engine: [`Source`] implementations for every socket a
//! node owns — the peer listener, inbound peer connections, outbound
//! lanes, and (via `Transport::serve_clients`) the ingress-client
//! listener and its sessions — all multiplexed on one [`crate::reactor`]
//! poller thread.
//!
//! Two hot-path disciplines: inbound frames are decoded from a *shared*
//! receive buffer (`bytes` shim slices of one `Arc<[u8]>` per read batch,
//! no per-frame `Vec`), and outbound lanes flush with coalesced `writev`
//! batches, not one write per frame.

use crate::dedup::DedupCache;
use crate::faults::{LinkFaults, NodeFaults};
use crate::frame;
use crate::reactor::{sys, Action, Ctl, Handle, Interest, Source};
use crate::transport::{
    would_block, Incoming, LaneQueue, TransportStats, BACKOFF_CAP, BACKOFF_START,
};
use iniva_ingress::{
    ClientMsg, CommitInbox, IngressOptions, Mempool, SubmitStatus, TokenBucket, MAX_CLIENT_FRAME,
};
use iniva_net::wire::Codec;
use iniva_net::NodeId;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Read chunk per syscall; also the early-exit threshold (a short read
/// means the socket is drained, skipping the final `EAGAIN` round trip).
const READ_CHUNK: usize = 64 * 1024;

/// Frames pulled from a lane queue into the in-flight flush window. Also
/// caps the `writev` iovec count.
const MAX_INFLIGHT: usize = 64;

/// Give up on a non-blocking connect after this long and back off.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// A client session buffering more than this much un-flushed reply data
/// is judged non-draining and dropped: consensus never waits on, and the
/// node never buffers without bound for, a slow client socket.
const CLIENT_WBUF_CAP: usize = 256 * 1024;

/// What every peer-fabric source shares: the delivery channel, counters,
/// fault switches, and the node-wide duplicate filter (one filter across
/// all connections, so a replay on a *new* connection after a reconnect
/// is still recognized).
pub(crate) struct PeerCtx<M> {
    pub(crate) node: NodeId,
    pub(crate) tx: Sender<Incoming<M>>,
    pub(crate) stats: Arc<TransportStats>,
    pub(crate) node_faults: Arc<NodeFaults>,
    pub(crate) link_faults: Arc<LinkFaults>,
    pub(crate) dedup: Mutex<DedupCache>,
}

/// Accepts inbound peer connections and spawns a [`PeerConn`] per socket.
pub(crate) struct PeerListener<M> {
    listener: TcpListener,
    ctx: Arc<PeerCtx<M>>,
}

impl<M> PeerListener<M> {
    pub(crate) fn new(listener: TcpListener, ctx: Arc<PeerCtx<M>>) -> Self {
        PeerListener { listener, ctx }
    }
}

impl<M: Codec + Send + 'static> Source for PeerListener<M> {
    fn ready(&mut self, ctl: &mut Ctl<'_>, _readable: bool, _writable: bool) -> Action {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    ctl.spawn(
                        Box::new(PeerConn {
                            stream,
                            pending: Vec::with_capacity(READ_CHUNK),
                            from: None,
                            ctx: Arc::clone(&self.ctx),
                        }),
                        Some(fd),
                        Interest::READ,
                    );
                }
                Err(e) if would_block(&e) => break,
                Err(_) => break, // transient accept error; stay registered
            }
        }
        Action::Keep
    }
}

/// One inbound peer connection: handshake, then a stream of frames
/// decoded from a shared receive buffer.
struct PeerConn<M> {
    stream: TcpStream,
    /// Bytes read but not yet parsed (at most a partial frame once a
    /// drain completes).
    pending: Vec<u8>,
    /// Set once the handshake parses: (peer id, peer incarnation epoch).
    from: Option<(NodeId, u32)>,
    ctx: Arc<PeerCtx<M>>,
}

impl<M: Codec> PeerConn<M> {
    /// Parses everything buffered. The zero-copy step: once at least one
    /// complete frame is buffered, the buffer is frozen into a single
    /// shared allocation and each body is decoded from a zero-copy slice
    /// of it — one `Arc<[u8]>` per read batch instead of one `Vec` per
    /// frame.
    fn drain(&mut self) -> Action {
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
                    if self.ctx.node_faults.is_down()
                        || self.ctx.link_faults.blocked(sender, self.ctx.node)
                    {
                        TransportStats::bump(&self.ctx.stats.faults_dropped, 1);
                        continue;
                    }
                    let frame_body = shared.slice(start + body.start..start + body.end);
                    let Ok(msg) = M::from_frame(frame_body) else {
                        break Action::Drop; // undecodable body: drop the connection
                    };
                    let fresh =
                        crate::reactor::relock(&self.ctx.dedup).insert(sender, sender_epoch, seq);
                    if !fresh {
                        TransportStats::bump(&self.ctx.stats.dups_dropped, 1);
                        continue;
                    }
                    TransportStats::bump(&self.ctx.stats.msgs_received, 1);
                    TransportStats::bump(&self.ctx.stats.bytes_received, (consumed - 12) as u64);
                    if self.ctx.tx.send(Incoming { from: sender, msg }).is_err() {
                        break Action::Drop; // receiver gone
                    }
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

impl<M: Codec + Send + 'static> Source for PeerConn<M> {
    fn ready(&mut self, _ctl: &mut Ctl<'_>, readable: bool, _writable: bool) -> Action {
        if !readable {
            return Action::Keep;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Action::Drop, // EOF
                Ok(n) => {
                    self.pending.extend_from_slice(&chunk[..n]);
                    if self.drain() == Action::Drop {
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

/// Connection state of an outbound lane.
enum LaneConn {
    /// No socket; dials on the next frame (after any pending backoff).
    Idle,
    /// Non-blocking connect in flight; completion arrives as writability.
    Connecting {
        stream: TcpStream,
        epoch: u32,
        started: Instant,
    },
    /// Established; the handshake leads the byte stream.
    Connected {
        stream: TcpStream,
        epoch: u32,
        hs: [u8; frame::HANDSHAKE_BYTES],
        hs_written: usize,
    },
}

impl LaneConn {
    fn epoch(&self) -> Option<u32> {
        match self {
            LaneConn::Idle => None,
            LaneConn::Connecting { epoch, .. } | LaneConn::Connected { epoch, .. } => Some(*epoch),
        }
    }
}

enum Flush {
    /// Everything in flight (and the handshake) hit the socket.
    Done,
    /// `EAGAIN` mid-flush: wait for writability.
    Blocked,
    /// The connection died; tear down and redial.
    Dead,
}

/// The outbound lane to one peer: drains the bounded drop-oldest
/// [`LaneQueue`] through a reconnecting non-blocking socket, flushing
/// with coalesced `writev` batches.
pub(crate) struct OutboundLane<M> {
    peer: NodeId,
    addr: SocketAddr,
    queue: Arc<LaneQueue>,
    ctx: Arc<PeerCtx<M>>,
    conn: LaneConn,
    /// Frames claimed from the queue, awaiting (or mid-) flush, tagged
    /// with the incarnation epoch they were admitted under.
    inflight: VecDeque<(u32, Vec<u8>)>,
    /// Bytes of `inflight[0]` already written.
    written: usize,
    /// A frame held back by an injected slow-link delay, released at the
    /// stored instant. Blocks admission behind it: delays are serial per
    /// frame, which is what makes an injected delay model a congested link
    /// (see `LinkFaults::slow_link`).
    delayed: Option<(Instant, u32, Vec<u8>)>,
    backoff: Duration,
    /// Earliest next dial (backoff after a failed dial; `None` = now).
    next_attempt: Option<Instant>,
    /// The first successful dial is the lane coming up, not a reconnect.
    ever_connected: bool,
}

impl<M> OutboundLane<M> {
    pub(crate) fn new(
        peer: NodeId,
        addr: SocketAddr,
        queue: Arc<LaneQueue>,
        ctx: Arc<PeerCtx<M>>,
    ) -> Self {
        OutboundLane {
            peer,
            addr,
            queue,
            ctx,
            conn: LaneConn::Idle,
            inflight: VecDeque::new(),
            written: 0,
            delayed: None,
            backoff: BACKOFF_START,
            next_attempt: None,
            ever_connected: false,
        }
    }

    /// Drops the socket (deregistering its fd first) without touching the
    /// backlog; in-flight frames are replayed on the next connection and
    /// the receiver's dedup cache absorbs any double delivery.
    fn drop_conn(&mut self, ctl: &mut Ctl<'_>) {
        if !matches!(self.conn, LaneConn::Idle) {
            ctl.set_fd(None, Interest::NONE);
            self.conn = LaneConn::Idle;
        }
        self.written = 0;
    }

    /// Drops every queued, in-flight and held frame (a crashed sender's
    /// backlog vanishes), counting each as an injected-fault drop.
    fn purge_backlog(&mut self) {
        let mut dropped = self.inflight.len() as u64;
        self.inflight.clear();
        self.written = 0;
        if self.delayed.take().is_some() {
            dropped += 1;
        }
        while self.queue.try_pop().is_some() {
            dropped += 1;
        }
        if dropped > 0 {
            TransportStats::bump(&self.ctx.stats.faults_dropped, dropped);
        }
    }

    /// Drops claimed frames admitted under a dead incarnation.
    fn purge_stale(&mut self, epoch: u32) {
        let before = self.inflight.len();
        self.inflight.retain(|(e, _)| *e == epoch);
        let mut dropped = (before - self.inflight.len()) as u64;
        if self.delayed.as_ref().is_some_and(|(_, e, _)| *e != epoch) {
            self.delayed = None;
            dropped += 1;
        }
        if dropped > 0 {
            self.written = 0; // any partial front write died with its conn
            TransportStats::bump(&self.ctx.stats.faults_dropped, dropped);
        }
    }

    /// Claims frames from the queue into the flush window, applying the
    /// per-frame fault filters at the last moment before the wire: stale
    /// epoch and blocked link drop the frame; a slow link parks it in the
    /// delay slot (stalling admission, so delays stay serial).
    fn admit(&mut self, epoch: u32) {
        if self.delayed.is_some() {
            return;
        }
        while self.inflight.len() < MAX_INFLIGHT {
            let Some((e, framed)) = self.queue.try_pop() else {
                break;
            };
            if e != epoch || self.ctx.link_faults.blocked(self.ctx.node, self.peer) {
                TransportStats::bump(&self.ctx.stats.faults_dropped, 1);
                continue;
            }
            if let Some(delay) = self.ctx.link_faults.delay(self.ctx.node, self.peer) {
                self.delayed = Some((Instant::now() + delay, e, framed));
                break;
            }
            self.inflight.push_back((e, framed));
        }
    }

    fn dial_failed(&mut self) {
        self.next_attempt = Some(Instant::now() + self.backoff);
        self.backoff = (self.backoff * 2).min(BACKOFF_CAP);
    }

    fn promote(&mut self, stream: TcpStream, epoch: u32) {
        let _ = stream.set_nodelay(true);
        if self.ever_connected {
            TransportStats::bump(&self.ctx.stats.reconnects, 1);
        } else {
            self.ever_connected = true;
        }
        self.backoff = BACKOFF_START;
        self.next_attempt = None;
        self.written = 0;
        self.conn = LaneConn::Connected {
            stream,
            epoch,
            hs: frame::handshake_bytes(self.ctx.node, epoch),
            hs_written: 0,
        };
    }

    /// Writes the handshake, then `writev`-flushes up to [`MAX_INFLIGHT`]
    /// frames per syscall, popping fully-written frames as the byte count
    /// comes back.
    fn flush_conn(
        &mut self,
        stream: &mut TcpStream,
        hs: &[u8; frame::HANDSHAKE_BYTES],
        hs_written: &mut usize,
    ) -> Flush {
        while *hs_written < hs.len() {
            match stream.write(&hs[*hs_written..]) {
                Ok(0) => return Flush::Dead,
                Ok(n) => *hs_written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if would_block(&e) => return Flush::Blocked,
                Err(_) => return Flush::Dead,
            }
        }
        let fd = stream.as_raw_fd();
        loop {
            if self.inflight.is_empty() {
                return Flush::Done;
            }
            let mut iovs: Vec<sys::IoVec> =
                Vec::with_capacity(self.inflight.len().min(MAX_INFLIGHT));
            for (i, (_, framed)) in self.inflight.iter().enumerate().take(MAX_INFLIGHT) {
                let seg: &[u8] = if i == 0 {
                    &framed[self.written..]
                } else {
                    framed
                };
                iovs.push(sys::IoVec {
                    base: seg.as_ptr(),
                    len: seg.len(),
                });
            }
            match sys::writev_fd(fd, &iovs) {
                Ok(mut n) => {
                    while n > 0 {
                        let front_left = self.inflight[0].1.len() - self.written;
                        if n >= front_left {
                            n -= front_left;
                            self.written = 0;
                            self.inflight.pop_front();
                        } else {
                            self.written += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if would_block(&e) => return Flush::Blocked,
                Err(_) => return Flush::Dead,
            }
        }
    }

    /// The lane state machine, run after every readiness / notify /
    /// deadline event. Loops until there is nothing actionable, then
    /// re-arms the deadline (delay release, dial backoff, connect
    /// timeout).
    fn pump(&mut self, ctl: &mut Ctl<'_>) -> Action {
        let action = self.pump_inner(ctl);
        self.arm_deadline(ctl);
        action
    }

    fn pump_inner(&mut self, ctl: &mut Ctl<'_>) -> Action {
        loop {
            if self.ctx.node_faults.is_down() {
                self.purge_backlog();
                self.drop_conn(ctl);
                return Action::Keep;
            }
            let epoch = self.ctx.node_faults.epoch();
            self.purge_stale(epoch);
            if self.conn.epoch().is_some_and(|e| e != epoch) {
                // Healed under a new incarnation: re-handshake so the
                // receiver keys its dedup entries by the fresh epoch.
                self.drop_conn(ctl);
                self.next_attempt = None;
            }
            if let Some((at, e, framed)) = self.delayed.take() {
                if at <= Instant::now() {
                    self.inflight.push_back((e, framed));
                } else {
                    self.delayed = Some((at, e, framed));
                }
            }
            match std::mem::replace(&mut self.conn, LaneConn::Idle) {
                LaneConn::Idle => {
                    // Claiming frames waits until a connection is up, so
                    // while the peer is unreachable the *queue* fills and
                    // sheds oldest — the lane must not become a second,
                    // unbounded buffer. Dialing peeks at the queue depth
                    // instead.
                    if self.inflight.is_empty() && self.delayed.is_none() && self.queue.len() == 0 {
                        return Action::Keep; // nothing to send; dials are lazy
                    }
                    if self.next_attempt.is_some_and(|at| at > Instant::now()) {
                        return Action::Keep; // backoff pending; deadline re-arms us
                    }
                    self.next_attempt = None;
                    match sys::connect_nonblocking(&self.addr) {
                        Ok((stream, done)) => {
                            let fd = stream.as_raw_fd();
                            ctl.set_fd(Some(fd), Interest::BOTH);
                            if done {
                                self.promote(stream, epoch);
                            } else {
                                self.conn = LaneConn::Connecting {
                                    stream,
                                    epoch,
                                    started: Instant::now(),
                                };
                                return Action::Keep;
                            }
                        }
                        Err(_) => {
                            self.dial_failed();
                            return Action::Keep;
                        }
                    }
                }
                LaneConn::Connecting {
                    stream,
                    epoch: conn_epoch,
                    started,
                } => match stream.take_error() {
                    Ok(None) => match stream.peer_addr() {
                        Ok(_) => self.promote(stream, conn_epoch),
                        Err(e) if e.kind() == io::ErrorKind::NotConnected => {
                            if started.elapsed() >= CONNECT_TIMEOUT {
                                ctl.set_fd(None, Interest::NONE);
                                drop(stream);
                                self.dial_failed();
                            } else {
                                self.conn = LaneConn::Connecting {
                                    stream,
                                    epoch: conn_epoch,
                                    started,
                                };
                            }
                            return Action::Keep;
                        }
                        Err(_) => {
                            ctl.set_fd(None, Interest::NONE);
                            drop(stream);
                            self.dial_failed();
                            return Action::Keep;
                        }
                    },
                    Ok(Some(_)) | Err(_) => {
                        ctl.set_fd(None, Interest::NONE);
                        drop(stream);
                        self.dial_failed();
                        return Action::Keep;
                    }
                },
                LaneConn::Connected {
                    mut stream,
                    epoch: conn_epoch,
                    hs,
                    mut hs_written,
                } => {
                    self.admit(epoch);
                    match self.flush_conn(&mut stream, &hs, &mut hs_written) {
                        Flush::Done => {
                            self.conn = LaneConn::Connected {
                                stream,
                                epoch: conn_epoch,
                                hs,
                                hs_written,
                            };
                            ctl.set_interest(Interest::READ);
                            if self.queue.len() == 0 || self.delayed.is_some() {
                                return Action::Keep;
                            }
                            // More frames arrived while flushing: go again.
                        }
                        Flush::Blocked => {
                            self.conn = LaneConn::Connected {
                                stream,
                                epoch: conn_epoch,
                                hs,
                                hs_written,
                            };
                            ctl.set_interest(Interest::BOTH);
                            return Action::Keep;
                        }
                        Flush::Dead => {
                            // Died mid-write: the peer was reachable a
                            // moment ago, so redial immediately (backoff
                            // is for failed dials) and replay in-flight
                            // frames; receiver dedup absorbs double
                            // delivery.
                            ctl.set_fd(None, Interest::NONE);
                            drop(stream);
                            self.written = 0;
                            self.next_attempt = None;
                        }
                    }
                }
            }
        }
    }

    fn arm_deadline(&mut self, ctl: &mut Ctl<'_>) {
        let mut at: Option<Instant> = None;
        let mut consider = |t: Instant| {
            at = Some(at.map_or(t, |a| a.min(t)));
        };
        if let Some((t, _, _)) = &self.delayed {
            consider(*t);
        }
        if let Some(t) = self.next_attempt {
            if !self.inflight.is_empty() || self.delayed.is_some() || self.queue.len() > 0 {
                consider(t);
            }
        }
        if let LaneConn::Connecting { started, .. } = &self.conn {
            consider(*started + CONNECT_TIMEOUT);
        }
        ctl.set_deadline(at);
    }
}

impl<M: Codec + Send + 'static> Source for OutboundLane<M> {
    fn ready(&mut self, ctl: &mut Ctl<'_>, readable: bool, _writable: bool) -> Action {
        if readable {
            if let LaneConn::Connected { stream, .. } = &mut self.conn {
                // Lanes never expect inbound data: readability is the EOF
                // / reset probe. Without it a dead peer turns writes into
                // silent local-buffer successes until the RST arrives.
                let mut probe = [0u8; 1024];
                loop {
                    match stream.read(&mut probe) {
                        Ok(0) => {
                            self.drop_conn(ctl);
                            self.next_attempt = None;
                            break;
                        }
                        Ok(_) => continue, // unexpected data: discard
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) if would_block(&e) => break,
                        Err(_) => {
                            self.drop_conn(ctl);
                            self.next_attempt = None;
                            break;
                        }
                    }
                }
            }
        }
        self.pump(ctl)
    }

    fn notified(&mut self, ctl: &mut Ctl<'_>) -> Action {
        self.pump(ctl)
    }

    fn deadline(&mut self, ctl: &mut Ctl<'_>) -> Action {
        self.pump(ctl)
    }
}

/// What every ingress-client source shares.
pub(crate) struct ClientCtx {
    pub(crate) mempool: Arc<Mempool>,
    pub(crate) opts: IngressOptions,
    /// For commit-push wakers: the inbox fills on a consensus thread and
    /// must wake the poller to flush.
    pub(crate) handle: Handle,
}

/// Accepts ingress-client connections onto the shared poller.
pub(crate) struct ClientListener {
    listener: TcpListener,
    ctx: Arc<ClientCtx>,
}

impl ClientListener {
    pub(crate) fn new(listener: TcpListener, ctx: Arc<ClientCtx>) -> Self {
        ClientListener { listener, ctx }
    }
}

impl Source for ClientListener {
    fn ready(&mut self, ctl: &mut Ctl<'_>, _readable: bool, _writable: bool) -> Action {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let bucket =
                        TokenBucket::new(self.ctx.opts.rate_per_client, self.ctx.opts.burst);
                    ctl.spawn(
                        Box::new(ClientSession {
                            stream,
                            client: self.ctx.mempool.next_client_id(),
                            ctx: Arc::clone(&self.ctx),
                            bucket,
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            wpos: 0,
                            inbox: None,
                        }),
                        Some(fd),
                        Interest::READ,
                    );
                }
                Err(e) if would_block(&e) => break,
                Err(_) => break,
            }
        }
        Action::Keep
    }
}

/// One ingress-client connection: the `iniva-ingress` submit / query /
/// follow protocol served on the poller, without a thread per client.
/// Per submit: bounded frame decode → token-bucket check (a client over
/// budget gets a `Busy` ack that touches no shared state) → mempool
/// admission → ack.
struct ClientSession {
    stream: TcpStream,
    client: u64,
    ctx: Arc<ClientCtx>,
    bucket: TokenBucket,
    rbuf: Vec<u8>,
    /// Pending reply bytes; `wpos` bytes of the front already written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Present after a `Follow`: commit notes to push.
    inbox: Option<Arc<CommitInbox>>,
}

impl ClientSession {
    /// Queues a reply frame; `false` (tear the session down) if the encoded
    /// body can not be framed.
    #[must_use]
    fn enqueue(&mut self, msg: &ClientMsg) -> bool {
        let body = msg.to_frame();
        let Ok(len) = u32::try_from(body.len()) else {
            return false; // reply exceeds the u32 length prefix: drop client
        };
        self.wbuf.extend_from_slice(&len.to_le_bytes());
        self.wbuf.extend_from_slice(&body);
        true
    }

    /// Decodes every complete frame buffered, sharing one allocation
    /// across the batch (the peer path's zero-copy discipline; a Submit
    /// payload is never copied before admission inspects it).
    fn drain(&mut self, ctl: &mut Ctl<'_>) -> Action {
        let complete = |buf: &[u8]| -> io::Result<Option<usize>> {
            if buf.len() < 4 {
                return Ok(None);
            }
            let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            if len > MAX_CLIENT_FRAME {
                return Err(io::ErrorKind::InvalidData.into());
            }
            if buf.len() < 4 + len {
                return Ok(None);
            }
            Ok(Some(len))
        };
        match complete(&self.rbuf) {
            Ok(Some(_)) => {}
            Ok(None) => return Action::Keep,
            Err(_) => return Action::Drop, // hostile length prefix
        }
        let shared = bytes::Bytes::from(std::mem::take(&mut self.rbuf));
        let mut offset = 0usize;
        let verdict = loop {
            match complete(&shared[offset..]) {
                Ok(None) => break Action::Keep,
                Err(_) => break Action::Drop,
                Ok(Some(len)) => {
                    let body = shared.slice(offset + 4..offset + 4 + len);
                    offset += 4 + len;
                    let Ok(msg) = ClientMsg::from_frame(body) else {
                        break Action::Drop;
                    };
                    if self.handle_msg(ctl, msg) == Action::Drop {
                        break Action::Drop;
                    }
                }
            }
        };
        if verdict == Action::Keep && offset < shared.len() {
            self.rbuf.extend_from_slice(&shared[offset..]);
        }
        verdict
    }

    fn handle_msg(&mut self, ctl: &mut Ctl<'_>, msg: ClientMsg) -> Action {
        match msg {
            ClientMsg::Submit {
                fee,
                nonce,
                payload,
            } => {
                let status = if self.bucket.try_take() {
                    self.ctx
                        .mempool
                        .submit(self.client, nonce, fee, payload.len())
                } else {
                    self.ctx.mempool.note_rate_limited();
                    SubmitStatus::Busy
                };
                if !self.enqueue(&ClientMsg::SubmitAck { nonce, status }) {
                    return Action::Drop;
                }
            }
            ClientMsg::Query { height } => {
                let committed_height = self.ctx.mempool.committed_height();
                if !self.enqueue(&ClientMsg::QueryResponse {
                    height,
                    committed_height,
                    committed: height <= committed_height && committed_height > 0,
                }) {
                    return Action::Drop;
                }
            }
            ClientMsg::Follow => {
                if self.inbox.is_none() {
                    let inbox = self.ctx.mempool.follow(self.client);
                    let handle = self.ctx.handle.clone();
                    let token = ctl.token();
                    inbox.set_waker(Box::new(move || handle.notify(token)));
                    self.inbox = Some(inbox);
                }
            }
            // Server-to-client messages arriving here mean a broken peer.
            ClientMsg::SubmitAck { .. }
            | ClientMsg::QueryResponse { .. }
            | ClientMsg::Committed { .. } => return Action::Drop,
        }
        Action::Keep
    }

    /// Turns pending commit notes into `Committed` frames; `false` tears
    /// the session down.
    #[must_use]
    fn push_commits(&mut self) -> bool {
        if let Some(inbox) = self.inbox.clone() {
            for note in inbox.drain() {
                if !self.enqueue(&ClientMsg::Committed {
                    nonce: note.nonce,
                    height: note.height,
                }) {
                    return false;
                }
            }
        }
        true
    }

    fn flush(&mut self, ctl: &mut Ctl<'_>) -> Action {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Action::Drop,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if would_block(&e) => {
                    if self.wbuf.len() - self.wpos > CLIENT_WBUF_CAP {
                        return Action::Drop; // non-draining client
                    }
                    ctl.set_interest(Interest::BOTH);
                    return Action::Keep;
                }
                Err(_) => return Action::Drop,
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        ctl.set_interest(Interest::READ);
        Action::Keep
    }
}

impl Source for ClientSession {
    fn ready(&mut self, ctl: &mut Ctl<'_>, readable: bool, _writable: bool) -> Action {
        if readable {
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => return Action::Drop,
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        if self.drain(ctl) == Action::Drop {
                            return Action::Drop;
                        }
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if would_block(&e) => break,
                    Err(_) => return Action::Drop,
                }
            }
        }
        if !self.push_commits() {
            return Action::Drop;
        }
        self.flush(ctl)
    }

    fn notified(&mut self, ctl: &mut Ctl<'_>) -> Action {
        if !self.push_commits() {
            return Action::Drop;
        }
        self.flush(ctl)
    }
}

impl Drop for ClientSession {
    fn drop(&mut self) {
        if self.inbox.is_some() {
            self.ctx.mempool.unfollow(self.client);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iniva_net::wire::{DecodeError, Decoder, Encoder, WireDecode, WireEncode};
    use std::sync::mpsc;

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

    /// A socket for `PeerConn`'s `stream` field; `drain` never touches it.
    fn dummy_stream() -> TcpStream {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let _accepted = listener.accept().unwrap();
        stream
    }

    fn peer_conn(tx: Sender<Incoming<TestMsg>>) -> PeerConn<TestMsg> {
        PeerConn {
            stream: dummy_stream(),
            pending: Vec::new(),
            from: None,
            ctx: Arc::new(PeerCtx {
                node: 0,
                tx,
                stats: Arc::new(TransportStats::default()),
                node_faults: Arc::new(NodeFaults::new()),
                link_faults: Arc::new(LinkFaults::new()),
                dedup: Mutex::new(DedupCache::new(64)),
            }),
        }
    }

    /// Handshake from peer 7 followed by one frame carrying `msg`.
    fn wire_bytes(seq: u64, msg: TestMsg) -> Vec<u8> {
        let body = msg.to_frame();
        let mut bytes = frame::handshake_bytes(7, 1).to_vec();
        bytes.extend_from_slice(&u32::try_from(body.len() + 8).unwrap().to_le_bytes());
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes
    }

    /// Regression: a panic on any thread holding the shared dedup filter
    /// used to poison it, and the next inbound frame — hostile or honest —
    /// panicked the poller thread, killing every connection of the node.
    /// `relock` recovers the guard instead.
    #[test]
    fn poisoned_dedup_does_not_panic_the_poller() {
        let (tx, rx) = mpsc::channel();
        let mut conn = peer_conn(tx);
        std::thread::scope(|s| {
            let dedup = &conn.ctx.dedup;
            let _ = s
                .spawn(|| {
                    let _g = dedup.lock().unwrap();
                    panic!("poison");
                })
                .join();
        });
        assert!(conn.ctx.dedup.lock().is_err(), "dedup should be poisoned");

        conn.pending = wire_bytes(1, TestMsg(42));
        assert_eq!(conn.drain(), Action::Keep);
        let got = rx.try_recv().expect("frame should be delivered");
        assert_eq!(got.from, 7);
        assert_eq!(got.msg, TestMsg(42));
    }

    /// Regression: corrupt framing from a hostile peer must tear down that
    /// one connection (`Action::Drop`), never unwind the poller.
    #[test]
    fn corrupt_frame_drops_connection_without_panic() {
        let (tx, _rx) = mpsc::channel();
        let mut conn = peer_conn(tx);
        let mut bytes = frame::handshake_bytes(7, 1).to_vec();
        // Length prefix below the 8-byte minimum: unrecoverable framing.
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        conn.pending = bytes;
        assert_eq!(conn.drain(), Action::Drop);
    }

    /// Regression: an undecodable body after valid framing is a hostile
    /// input, not an invariant violation — the connection drops and
    /// already-parsed frames stay delivered.
    #[test]
    fn undecodable_body_drops_connection_after_delivering_good_frames() {
        let (tx, rx) = mpsc::channel();
        let mut conn = peer_conn(tx);
        let mut bytes = wire_bytes(1, TestMsg(9));
        // Second frame: valid length/seq, 3-byte body no TestMsg decodes.
        bytes.extend_from_slice(&11u32.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xff, 0xff]);
        conn.pending = bytes;
        assert_eq!(conn.drain(), Action::Drop);
        assert_eq!(
            rx.try_recv().expect("first frame delivered").msg,
            TestMsg(9)
        );
    }
}
