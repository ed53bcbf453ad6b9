//! The outbound side of the peer fabric: one [`OutboundLane`] per peer,
//! draining that peer's [`LaneQueue`] in the node's context through a
//! reconnecting non-blocking socket.

use super::{would_block, NodeCx};
use crate::frame;
use crate::reactor::{sys, Action, Ctl, Interest, Source, Token};
use crate::transport::TransportStats;
use iniva_net::NodeId;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Frames pulled from a lane queue into the in-flight flush window. Also
/// caps the `writev` iovec count.
const MAX_INFLIGHT: usize = 64;

/// Give up on a non-blocking connect after this long and back off.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Backoff bounds for outbound reconnects.
const BACKOFF_START: Duration = Duration::from_millis(10);
const BACKOFF_CAP: Duration = Duration::from_millis(500);

/// A bounded, epoch-tagged frame queue feeding one outbound lane:
/// [`Transport::send`](crate::Transport::send) pushes and marks the lane,
/// the peer's [`OutboundLane`] pops, both on the node's thread.
///
/// Drop-oldest on overflow: the bound and the eviction happen on the
/// sender side, and the frames a slow link holds count toward the bound.
pub(crate) struct LaneQueue {
    frames: VecDeque<(u32, Vec<u8>)>,
    /// Frames the lane admitted on a slow link, oldest first, each with
    /// the instant it is released to the wire: its admission plus the
    /// link's delay. Frames admitted within one delay overlap.
    held: VecDeque<(Instant, u32, Vec<u8>)>,
    capacity: usize,
    /// The reactor token of the lane draining this queue.
    pub(crate) lane: Token,
}

impl LaneQueue {
    pub(crate) fn new(capacity: usize, lane: Token) -> Self {
        LaneQueue {
            frames: VecDeque::new(),
            held: VecDeque::new(),
            capacity: capacity.max(1),
            lane,
        }
    }

    /// Enqueues a frame under `epoch`; returns `true` if the oldest frame
    /// the lane has not claimed, held or queued, was evicted to make room.
    pub(crate) fn push(&mut self, epoch: u32, framed: Vec<u8>) -> bool {
        let evicted = self.len() >= self.capacity;
        if evicted && self.held.pop_front().is_none() {
            self.frames.pop_front();
        }
        self.frames.push_back((epoch, framed));
        evicted
    }

    /// Frames not yet claimed by the lane: queued and held.
    pub(crate) fn len(&self) -> usize {
        self.frames.len() + self.held.len()
    }

    /// Whether a frame waits to be admitted, or a held one is due.
    fn ready(&self) -> bool {
        !self.frames.is_empty()
            || self
                .held
                .front()
                .is_some_and(|(at, ..)| *at <= Instant::now())
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

/// The outbound lane to one peer: drains the peer's bounded drop-oldest
/// [`LaneQueue`] through a reconnecting non-blocking socket, flushing
/// with coalesced `writev` batches.
pub(crate) struct OutboundLane {
    peer: NodeId,
    addr: SocketAddr,
    conn: LaneConn,
    /// Frames claimed from the queue, awaiting (or mid-) flush, tagged
    /// with the incarnation epoch they were admitted under.
    inflight: VecDeque<(u32, Vec<u8>)>,
    /// Bytes of `inflight[0]` already written.
    written: usize,
    backoff: Duration,
    /// Earliest next dial (backoff after a failed dial; `None` = now).
    next_attempt: Option<Instant>,
    /// The first successful dial is the lane coming up, not a reconnect.
    ever_connected: bool,
}

impl OutboundLane {
    pub(crate) fn new(peer: NodeId, addr: SocketAddr) -> Self {
        OutboundLane {
            peer,
            addr,
            conn: LaneConn::Idle,
            inflight: VecDeque::new(),
            written: 0,
            backoff: BACKOFF_START,
            next_attempt: None,
            ever_connected: false,
        }
    }

    /// Frames waiting in this lane's queue.
    fn queued<M>(&self, cx: &NodeCx<M>) -> usize {
        cx.lanes.get(&self.peer).map_or(0, LaneQueue::len)
    }

    /// Whether anything waits to go out: queued, held or claimed.
    fn has_work<M>(&self, cx: &NodeCx<M>) -> bool {
        !self.inflight.is_empty() || self.queued(cx) > 0
    }

    /// Drops the socket (deregistering its fd first) without touching the
    /// backlog. The next connection writes every claimed frame again from
    /// its first byte — the frames a lane holds are exactly those it never
    /// fully wrote, so the receiver parsed none of them and nothing it
    /// delivered is sent twice.
    fn drop_conn<M>(&mut self, ctl: &mut Ctl<'_, NodeCx<M>>) {
        if !matches!(self.conn, LaneConn::Idle) {
            ctl.set_fd(None, Interest::NONE);
            self.conn = LaneConn::Idle;
        }
        self.written = 0;
    }

    /// Drops every queued, held and in-flight frame (a crashed sender's
    /// backlog vanishes), counting each as an injected-fault drop.
    fn purge_backlog<M>(&mut self, cx: &mut NodeCx<M>) {
        let mut dropped = self.inflight.len() as u64;
        self.inflight.clear();
        self.written = 0;
        if let Some(queue) = cx.lanes.get_mut(&self.peer) {
            dropped += queue.len() as u64;
            queue.frames.clear();
            queue.held.clear();
        }
        if dropped > 0 {
            TransportStats::bump(&cx.stats.faults_dropped, dropped);
        }
    }

    /// Drops claimed frames admitted under a dead incarnation.
    fn purge_stale(&mut self, epoch: u32, stats: &TransportStats) {
        let before = self.inflight.len();
        self.inflight.retain(|(e, _)| *e == epoch);
        let dropped = (before - self.inflight.len()) as u64;
        if dropped > 0 {
            self.written = 0; // any partial front write died with its conn
            TransportStats::bump(&stats.faults_dropped, dropped);
        }
    }

    /// Claims frames into the flush window: first the held frames that
    /// are due, then the queue's, applying the per-frame fault filters at
    /// the last moment before the wire. A stale epoch or a blocked link
    /// drops the frame; a slow link holds it for its delay, and so does a
    /// frame behind held ones, which keeps the lane FIFO.
    fn admit<M>(&mut self, epoch: u32, cx: &mut NodeCx<M>) {
        let Some(queue) = cx.lanes.get_mut(&self.peer) else {
            return;
        };
        if !queue.held.is_empty() {
            let now = Instant::now();
            while self.inflight.len() < MAX_INFLIGHT {
                let Some((_, e, framed)) = queue.held.pop_front_if(|(at, ..)| *at <= now) else {
                    break;
                };
                if e != epoch {
                    TransportStats::bump(&cx.stats.faults_dropped, 1);
                    continue;
                }
                self.inflight.push_back((e, framed));
            }
        }
        while self.inflight.len() < MAX_INFLIGHT {
            let Some((e, framed)) = queue.frames.pop_front() else {
                break;
            };
            if e != epoch || cx.link_faults.blocked(cx.node, self.peer) {
                TransportStats::bump(&cx.stats.faults_dropped, 1);
                continue;
            }
            let delay = cx.link_faults.delay(cx.node, self.peer);
            if delay.is_none() && queue.held.is_empty() {
                self.inflight.push_back((e, framed));
            } else {
                let at = Instant::now() + Duration::from_nanos(delay.unwrap_or(0));
                queue.held.push_back((at, e, framed));
            }
        }
    }

    fn dial_failed(&mut self) {
        self.next_attempt = Some(Instant::now() + self.backoff);
        self.backoff = (self.backoff * 2).min(BACKOFF_CAP);
    }

    fn promote<M>(&mut self, stream: TcpStream, epoch: u32, cx: &NodeCx<M>) {
        let _ = stream.set_nodelay(true);
        if self.ever_connected {
            TransportStats::bump(&cx.stats.reconnects, 1);
        } else {
            self.ever_connected = true;
        }
        self.backoff = BACKOFF_START;
        self.next_attempt = None;
        self.written = 0;
        self.conn = LaneConn::Connected {
            stream,
            epoch,
            hs: frame::handshake_bytes(cx.node, epoch),
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
    /// re-arms the deadline (held-frame release, dial backoff, connect
    /// timeout).
    fn pump<M>(&mut self, ctl: &mut Ctl<'_, NodeCx<M>>) -> Action {
        let action = self.pump_inner(ctl);
        self.arm_deadline(ctl);
        action
    }

    fn pump_inner<M>(&mut self, ctl: &mut Ctl<'_, NodeCx<M>>) -> Action {
        loop {
            let cx = ctl.cx();
            if cx.node_faults.is_down() {
                self.purge_backlog(cx);
                self.drop_conn(ctl);
                return Action::Keep;
            }
            let epoch = cx.node_faults.epoch();
            self.purge_stale(epoch, &cx.stats);
            if self.conn.epoch().is_some_and(|e| e != epoch) {
                // Healed under a new incarnation: re-handshake so the
                // receiver keys its dedup entries by the fresh epoch.
                self.drop_conn(ctl);
                self.next_attempt = None;
            }
            match std::mem::replace(&mut self.conn, LaneConn::Idle) {
                LaneConn::Idle => {
                    // Claiming frames waits until a connection is up, so
                    // while the peer is unreachable the *queue* fills and
                    // sheds oldest — the lane must not become a second,
                    // unbounded buffer. Dialing peeks at the queue depth
                    // instead.
                    if !self.has_work(ctl.cx()) {
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
                                self.promote(stream, epoch, ctl.cx());
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
                } => {
                    let in_flight = match stream.take_error() {
                        Ok(None) => match stream.peer_addr() {
                            Ok(_) => {
                                self.promote(stream, conn_epoch, ctl.cx());
                                continue;
                            }
                            Err(e) => e.kind() == io::ErrorKind::NotConnected,
                        },
                        Ok(Some(_)) | Err(_) => false,
                    };
                    if in_flight && started.elapsed() < CONNECT_TIMEOUT {
                        self.conn = LaneConn::Connecting {
                            stream,
                            epoch: conn_epoch,
                            started,
                        };
                    } else {
                        ctl.set_fd(None, Interest::NONE);
                        drop(stream);
                        self.dial_failed();
                    }
                    return Action::Keep;
                }
                LaneConn::Connected {
                    mut stream,
                    epoch: conn_epoch,
                    hs,
                    mut hs_written,
                } => {
                    self.admit(epoch, ctl.cx());
                    let flushed = self.flush_conn(&mut stream, &hs, &mut hs_written);
                    if let Flush::Dead = flushed {
                        // Died mid-write: the peer was reachable a moment
                        // ago, so redial immediately (backoff is for
                        // failed dials). The claimed frames go out again
                        // whole on the new connection; none of them was
                        // fully written on this one.
                        ctl.set_fd(None, Interest::NONE);
                        drop(stream);
                        self.written = 0;
                        self.next_attempt = None;
                        continue;
                    }
                    self.conn = LaneConn::Connected {
                        stream,
                        epoch: conn_epoch,
                        hs,
                        hs_written,
                    };
                    if let Flush::Blocked = flushed {
                        ctl.set_interest(Interest::BOTH);
                        return Action::Keep;
                    }
                    ctl.set_interest(Interest::READ);
                    let ready = ctl.cx().lanes.get(&self.peer).is_some_and(LaneQueue::ready);
                    if !ready {
                        return Action::Keep;
                    }
                    // More frames arrived or fell due while flushing: go
                    // again.
                }
            }
        }
    }

    fn arm_deadline<M>(&mut self, ctl: &mut Ctl<'_, NodeCx<M>>) {
        let mut at: Option<Instant> = None;
        let mut consider = |t: Instant| {
            at = Some(at.map_or(t, |a| a.min(t)));
        };
        if let LaneConn::Connected { .. } = self.conn {
            // Held frames are released into a connection only.
            if let Some((t, ..)) = ctl.cx().lanes.get(&self.peer).and_then(|q| q.held.front()) {
                consider(*t);
            }
        }
        if let Some(t) = self.next_attempt {
            if self.has_work(ctl.cx()) {
                consider(t);
            }
        }
        if let LaneConn::Connecting { started, .. } = &self.conn {
            consider(*started + CONNECT_TIMEOUT);
        }
        ctl.set_deadline(at);
    }
}

impl<M: Send> Source<NodeCx<M>> for OutboundLane {
    fn ready(&mut self, ctl: &mut Ctl<'_, NodeCx<M>>, readable: bool, _writable: bool) -> Action {
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

    fn notified(&mut self, ctl: &mut Ctl<'_, NodeCx<M>>) -> Action {
        self.pump(ctl)
    }

    fn deadline(&mut self, ctl: &mut Ctl<'_, NodeCx<M>>) -> Action {
        self.pump(ctl)
    }
}
