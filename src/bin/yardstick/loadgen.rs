//! The load generator (the `loadgen` layer): one thread, two non-blocking
//! client connections, an open-loop Poisson phase and a closed-loop
//! saturation phase. Everything the cluster receives is derived from the
//! seed; nothing else crosses the socket.

use iniva_ingress::{ClientMsg, SubmitStatus, MAX_CLIENT_FRAME};
use iniva_net::wire::Codec;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Requests sent and not yet `Committed`, `Busy` or `Duplicate` in the
/// closed-loop phase, across both connections.
pub const WINDOW: usize = 4096;

/// An open-loop request with no `Committed` ack this long after a send
/// is resubmitted under a fresh nonce, as a client would do when the
/// block that carried it was orphaned. Well above every view timeout, so
/// a stalled view never turns into a resubmission storm.
const RESUBMIT_AFTER: Duration = Duration::from_millis(2500);

/// Sends of one open-loop request before it counts as failed.
const MAX_ATTEMPTS: u8 = 4;

/// How long the generator sleeps when nothing is due: short enough that
/// lateness stays far below every workload's latency.
const POLL: Duration = Duration::from_micros(100);

/// How long it sleeps between turns of the closed loop, where no latency
/// is measured and a window is tens of milliseconds of work. Refilling
/// the window a few hundred requests at a time instead of a handful made
/// the machine-bound workloads' goodput twice as steady from run to run
/// (inter-quartile distance 6% instead of 13% of the median on `wire4`).
const SAT_POLL: Duration = Duration::from_millis(3);

/// splitmix64, the only randomness in the benchmark.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrival instants (ns from the start) at `rate` per second,
/// ascending, all before `horizon_ns`.
pub fn poisson_schedule(seed: u64, rate: f64, horizon_ns: u64) -> Vec<u64> {
    let mut rng = SplitMix64(seed);
    let mut due = Vec::with_capacity((rate * horizon_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -rng.next_unit().ln() / rate * 1e9;
        if t >= horizon_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

fn nonce_of(id: u32, attempt: u8) -> u64 {
    u64::from(id) | u64::from(attempt) << 32
}

/// The length-prefixed `Submit` frame of request `id`: fee in 10..14 and
/// 64 payload bytes, both a function of `(seed, id)` alone. A resubmit
/// outbids every first submit, as the ingress protocol advises a
/// retrying client, so it does not queue behind the closed loop's window.
fn submit_frame(seed: u64, id: u32, attempt: u8) -> Vec<u8> {
    let mut rng = SplitMix64(seed ^ (u64::from(id) + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let bid = 10 + rng.next_u64() % 4;
    let fee = if attempt == 0 { bid } else { 14 };
    let payload: Vec<u8> = (0..8).flat_map(|_| rng.next_u64().to_le_bytes()).collect();
    frame(&ClientMsg::Submit {
        fee,
        nonce: nonce_of(id, attempt),
        payload: payload.into(),
    })
}

fn frame(msg: &ClientMsg) -> Vec<u8> {
    let body = msg.to_frame();
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Reassembles length-prefixed client frames from arbitrary read chunks.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuf {
    pub fn push(&mut self, chunk: &[u8]) {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// The next complete message, `None` while its bytes are still
    /// arriving, an error on a frame the server can not have sent.
    pub fn next_msg(&mut self) -> io::Result<Option<ClientMsg>> {
        let rest = &self.buf[self.pos..];
        if rest.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_CLIENT_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "oversized frame",
            ));
        }
        if rest.len() < 4 + len {
            if self.pos > 1 << 16 {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            return Ok(None);
        }
        let body = &rest[4..4 + len];
        let msg = ClientMsg::from_frame(body.into())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.pos += 4 + len;
        Ok(Some(msg))
    }
}

/// The four instants of one open-loop request, ns from the start; 0 is
/// "not yet".
#[derive(Clone, Copy, Default)]
pub struct Stamps {
    /// When the schedule wanted it sent.
    pub due: u64,
    /// When its last byte was handed to the socket.
    pub written: u64,
    /// When the `Accepted` ack arrived.
    pub acked: u64,
    /// When the first `Committed` ack arrived.
    pub committed: u64,
}

/// `Committed` acks of the closed-loop phase.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct SatWindow {
    pub committed: u64,
    /// Instants of the first and the last ack, and the acks after the
    /// first instant.
    first: u64,
    last: u64,
    after_first: u64,
}

impl SatWindow {
    fn ack(&mut self, now: u64) {
        if self.committed == 0 {
            self.first = now;
        }
        if now > self.first {
            self.after_first += 1;
        }
        self.last = now;
        self.committed += 1;
    }

    /// Requests per second between the first and the last ack instant.
    /// Acks come a block at a time, so counting whole blocks over the
    /// whole phase would quantise a slow workload by a block per phase.
    pub fn goodput_rps(&self, window_ns: u64) -> f64 {
        if self.last > self.first {
            self.after_first as f64 * 1e9 / (self.last - self.first) as f64
        } else {
            self.committed as f64 * 1e9 / window_ns as f64
        }
    }
}

#[derive(Clone, Copy, Default)]
struct Slot {
    /// Submits sent for this request (attempt numbers below this exist).
    attempts: u8,
    /// Bit per attempt whose nonce was acked `Committed`.
    commits: u8,
    /// Gave up: `Busy`, `Duplicate` or out of attempts.
    failed: bool,
}

/// Where every request stands. Pure bookkeeping, no I/O, so the window
/// and oracle rules are unit-tested without a cluster.
pub struct Ledger {
    slots: Vec<Slot>,
    /// Ids `base_first..base_first + base.len()` are the measured
    /// open-loop requests.
    base_first: u32,
    pub base: Vec<Stamps>,
    /// Sent, and neither committed nor failed.
    pub outstanding: usize,
    /// Instant of the first `Committed` ack of the run.
    pub first_commit: Option<u64>,
    /// The closed-loop phase `[from, to)` and the acks that fell in it.
    sat: (u64, u64),
    pub sat_acks: SatWindow,
    /// Closed-loop requests that committed or failed, at any time.
    pub sat_completed: u64,
    sat_first: u32,
    pub busy: u64,
    pub duplicate: u64,
    pub failed: u64,
    pub retried: u64,
    /// Longest gap between consecutive `Committed` acks inside
    /// `stall_window`.
    stall_window: (u64, u64),
    last_commit: u64,
    pub stall_max: u64,
    /// Oracle: a `Committed` or ack for a nonce never sent, a nonce
    /// committed twice, a message a server never sends.
    pub violations: Vec<String>,
}

impl Ledger {
    /// `base_window` is where stalls are measured, `sat` where goodput is.
    pub fn new(base_window: (u64, u64), sat: (u64, u64)) -> Self {
        Ledger {
            slots: Vec::new(),
            base_first: 0,
            base: Vec::new(),
            outstanding: 0,
            first_commit: None,
            sat,
            sat_acks: SatWindow::default(),
            sat_completed: 0,
            sat_first: u32::MAX,
            busy: 0,
            duplicate: 0,
            failed: 0,
            retried: 0,
            stall_window: base_window,
            last_commit: base_window.0,
            stall_max: 0,
            violations: Vec::new(),
        }
    }

    /// Registers the first send of a new request and returns its id.
    /// `measured` requests are the open-loop ones whose stamps are kept.
    pub fn open(&mut self, due: u64, measured: bool, closed_loop: bool) -> u32 {
        let id = self.slots.len() as u32;
        self.slots.push(Slot {
            attempts: 1,
            ..Slot::default()
        });
        if measured {
            if self.base.is_empty() {
                self.base_first = id;
            }
            self.base.push(Stamps {
                due,
                ..Stamps::default()
            });
        }
        if closed_loop && self.sat_first == u32::MAX {
            self.sat_first = id;
        }
        self.outstanding += 1;
        id
    }

    fn stamps(&mut self, id: u32) -> Option<&mut Stamps> {
        let idx = id.checked_sub(self.base_first)? as usize;
        self.base.get_mut(idx)
    }

    /// The last byte of the first submit of `id` reached the socket.
    pub fn written(&mut self, id: u32, now: u64) {
        if let Some(s) = self.stamps(id) {
            if s.written == 0 {
                s.written = now;
            }
        }
    }

    fn resolve(&mut self, id: u32) {
        self.outstanding -= 1;
        if id >= self.sat_first {
            self.sat_completed += 1;
        }
    }

    fn fail(&mut self, id: u32) {
        let slot = &mut self.slots[id as usize];
        if slot.commits == 0 && !slot.failed {
            slot.failed = true;
            self.failed += 1;
            self.resolve(id);
        }
    }

    /// [`RESUBMIT_AFTER`] passed without a `Committed` ack:
    /// returns the attempt number to resend under, or `None` when the
    /// request is already settled or out of attempts (then it failed).
    pub fn retry(&mut self, id: u32) -> Option<u8> {
        let slot = &mut self.slots[id as usize];
        if slot.commits != 0 || slot.failed {
            return None;
        }
        if slot.attempts == MAX_ATTEMPTS {
            self.fail(id);
            return None;
        }
        slot.attempts += 1;
        self.retried += 1;
        Some(slot.attempts - 1)
    }

    /// The slot a server message's nonce names, if that nonce was sent.
    fn sent(&mut self, nonce: u64, what: &str) -> Option<(u32, u8)> {
        let (id, attempt) = (nonce as u32, (nonce >> 32) as u8);
        match self.slots.get(id as usize) {
            Some(slot) if nonce >> 40 == 0 && attempt < slot.attempts => Some((id, attempt)),
            _ => {
                self.violations
                    .push(format!("{what} for nonce {nonce:#x}, which was never sent"));
                None
            }
        }
    }

    /// Applies one server message received at `now`.
    pub fn on_msg(&mut self, msg: &ClientMsg, now: u64) {
        match *msg {
            ClientMsg::SubmitAck { nonce, status } => {
                let Some((id, attempt)) = self.sent(nonce, "SubmitAck") else {
                    return;
                };
                match status {
                    SubmitStatus::Accepted => {
                        if let Some(s) = self.stamps(id).filter(|_| attempt == 0) {
                            s.acked = now;
                        }
                    }
                    SubmitStatus::Busy => {
                        self.busy += 1;
                        self.fail(id);
                    }
                    SubmitStatus::Duplicate => {
                        self.duplicate += 1;
                        self.fail(id);
                    }
                }
            }
            ClientMsg::Committed { nonce, .. } => {
                let Some((id, attempt)) = self.sent(nonce, "Committed") else {
                    return;
                };
                let slot = &mut self.slots[id as usize];
                let bit = 1u8 << attempt;
                if slot.commits & bit != 0 {
                    self.violations
                        .push(format!("nonce {nonce:#x} acked Committed twice"));
                    return;
                }
                let first = slot.commits == 0 && !slot.failed;
                slot.commits |= bit;
                if !first {
                    return; // a resubmitted request whose earlier copy also landed
                }
                self.resolve(id);
                self.first_commit.get_or_insert(now);
                if let Some(s) = self.stamps(id) {
                    s.committed = now;
                }
                if (self.sat.0..self.sat.1).contains(&now) {
                    self.sat_acks.ack(now);
                }
                if (self.stall_window.0..self.stall_window.1).contains(&now) {
                    self.stall_max = self.stall_max.max(now - self.last_commit);
                    self.last_commit = now;
                }
            }
            _ => self
                .violations
                .push(format!("server sent a client-side message: {msg:?}")),
        }
    }

    /// Open-loop requests that never got a `Committed` ack.
    pub fn base_uncommitted(&self) -> u64 {
        self.base.iter().filter(|s| s.committed == 0).count() as u64
    }
}

/// One non-blocking client connection with its own write queue.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    /// Bytes ever queued / ever written, to tell when a frame has left.
    queued: u64,
    flushed: u64,
    /// `(queued offset of the frame's end, request id)` awaiting a
    /// `written` stamp.
    unstamped: VecDeque<(u64, u32)>,
    frames: FrameBuf,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut conn = Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            queued: 0,
            flushed: 0,
            unstamped: VecDeque::new(),
            frames: FrameBuf::default(),
        };
        conn.queue(&frame(&ClientMsg::Follow), None);
        Ok(conn)
    }

    fn queue(&mut self, bytes: &[u8], stamp: Option<u32>) {
        self.out.extend_from_slice(bytes);
        self.queued += bytes.len() as u64;
        if let Some(id) = stamp {
            self.unstamped.push_back((self.queued, id));
        }
    }

    /// Writes what the socket takes; `Ok(true)` if any byte left.
    fn flush(&mut self) -> io::Result<bool> {
        let before = self.flushed;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.flushed += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(self.flushed > before)
    }

    /// Reads what the socket holds into the frame buffer.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "the replica closed the client connection",
                    ))
                }
                Ok(n) => self.frames.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }
}

/// When each phase ends, ns from the start. `warm` and `base` are open
/// loop, `drain` sends nothing, `sat` is closed loop.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warm_end: u64,
    pub base_end: u64,
    pub drain_end: u64,
    pub sat_end: u64,
}

pub struct LoadSpec {
    /// Client addresses of replicas 0 and 1.
    pub addrs: [SocketAddr; 2],
    pub seed: u64,
    /// Open-loop arrivals per second in `warm` and `base`.
    pub rate: f64,
    pub plan: Plan,
}

/// A phase boundary the caller may want to sample counters at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// `warm` ended: requests due from here on are measured.
    BaseStart,
    /// `drain` ended: the closed loop starts.
    SatStart,
    /// The closed loop ended.
    End,
}

/// Drives the whole plan against a running cluster; `start` is the
/// instant every phase boundary and stamp is measured from, and `mark`
/// is called once as each boundary is crossed.
pub fn drive(spec: &LoadSpec, start: Instant, mark: &mut dyn FnMut(Mark)) -> io::Result<Ledger> {
    let plan = spec.plan;
    let now_ns = || start.elapsed().as_nanos() as u64;
    let schedule = poisson_schedule(spec.seed, spec.rate, plan.base_end);
    let mut conns = [Conn::connect(spec.addrs[0])?, Conn::connect(spec.addrs[1])?];
    let mut ledger = Ledger::new(
        (plan.warm_end, plan.base_end),
        (plan.drain_end, plan.sat_end),
    );
    // (resubmit deadline, id) of open-loop requests, ascending. Closed-loop
    // requests are never resubmitted: they wait behind a whole window.
    let mut deadlines: VecDeque<(u64, u32)> = VecDeque::new();
    let send = |conns: &mut [Conn; 2], id: u32, attempt| {
        let stamp = (attempt == 0).then_some(id);
        conns[id as usize % 2].queue(&submit_frame(spec.seed, id, attempt), stamp);
    };
    let mut next_due = 0usize;
    let mut marks = [
        (plan.warm_end, Mark::BaseStart),
        (plan.drain_end, Mark::SatStart),
        (plan.sat_end, Mark::End),
    ]
    .into_iter()
    .peekable();

    loop {
        let now = now_ns();
        while let Some((_, m)) = marks.next_if(|&(at, _)| at <= now) {
            mark(m);
        }
        if now >= plan.sat_end {
            return Ok(ledger);
        }
        if now < plan.base_end {
            while next_due < schedule.len() && schedule[next_due] <= now {
                let due = schedule[next_due];
                next_due += 1;
                let id = ledger.open(due, due >= plan.warm_end, false);
                send(&mut conns, id, 0);
                deadlines.push_back((now + RESUBMIT_AFTER.as_nanos() as u64, id));
            }
        } else if now >= plan.drain_end {
            while ledger.outstanding < WINDOW {
                let id = ledger.open(now, false, true);
                send(&mut conns, id, 0);
            }
        }
        while deadlines.front().is_some_and(|&(at, _)| at <= now) {
            let (_, id) = deadlines.pop_front().expect("front was checked");
            if let Some(attempt) = ledger.retry(id) {
                send(&mut conns, id, attempt);
                deadlines.push_back((now + RESUBMIT_AFTER.as_nanos() as u64, id));
            }
        }
        for conn in &mut conns {
            if conn.flush()? {
                let now = now_ns();
                while conn
                    .unstamped
                    .front()
                    .is_some_and(|&(end, _)| end <= conn.flushed)
                {
                    let (_, id) = conn.unstamped.pop_front().expect("front was checked");
                    ledger.written(id, now);
                }
            }
            conn.fill()?;
            let now = now_ns();
            while let Some(msg) = conn.frames.next_msg()? {
                ledger.on_msg(&msg, now);
            }
        }
        let now = now_ns();
        let wake = match schedule.get(next_due) {
            Some(&due) if now < plan.base_end => due.min(now + POLL.as_nanos() as u64),
            _ if now >= plan.drain_end => now + SAT_POLL.as_nanos() as u64,
            _ => now + POLL.as_nanos() as u64,
        };
        if wake > now {
            std::thread::sleep(Duration::from_nanos(wake - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(id: u32, attempt: u8) -> ClientMsg {
        ClientMsg::Committed {
            nonce: nonce_of(id, attempt),
            height: 1,
        }
    }

    fn ack(id: u32, status: SubmitStatus) -> ClientMsg {
        ClientMsg::SubmitAck {
            nonce: nonce_of(id, 0),
            status,
        }
    }

    #[test]
    fn poisson_schedule_is_reproducible_from_the_seed() {
        let a = poisson_schedule(7, 1000.0, 2_000_000_000);
        assert_eq!(a, poisson_schedule(7, 1000.0, 2_000_000_000));
        assert_ne!(a, poisson_schedule(8, 1000.0, 2_000_000_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending");
        assert!(a.iter().all(|&t| t < 2_000_000_000));
        // 2000 expected arrivals, sigma ~45.
        assert!((1750..2250).contains(&a.len()), "{} arrivals", a.len());
        assert_eq!(submit_frame(7, 3, 0), submit_frame(7, 3, 0));
        assert_ne!(submit_frame(7, 3, 0), submit_frame(7, 4, 0));
    }

    #[test]
    fn lateness_is_due_to_written_and_latency_is_due_to_committed() {
        let mut l = Ledger::new((1_000, 10_000), (20_000, 30_000));
        let warm = l.open(500, false, false);
        let id = l.open(2_000, true, false);
        l.written(warm, 600);
        l.written(id, 2_300);
        l.written(id, 9_999); // a resubmit never moves the stamp
        l.on_msg(&ack(id, SubmitStatus::Accepted), 2_450);
        l.on_msg(&committed(warm, 0), 1_500);
        l.on_msg(&committed(id, 0), 7_000);
        assert_eq!(l.base.len(), 1, "the warm request is not measured");
        let s = l.base[0];
        assert_eq!(
            (s.due, s.written, s.acked, s.committed),
            (2_000, 2_300, 2_450, 7_000)
        );
        assert_eq!(l.first_commit, Some(1_500));
        // Stalls are gaps between acks inside the base window, which opens at 1000.
        assert_eq!(l.stall_max, 5_500);
        assert_eq!(l.base_uncommitted(), 0);
        assert!(l.violations.is_empty());
    }

    #[test]
    fn window_reopens_on_busy_and_on_commit_but_not_on_accept() {
        let mut l = Ledger::new((0, 0), (100, 200));
        let ids: Vec<u32> = (0..4).map(|_| l.open(100, false, true)).collect();
        assert_eq!(l.outstanding, 4);
        l.on_msg(&ack(ids[0], SubmitStatus::Accepted), 110);
        assert_eq!(l.outstanding, 4);
        l.on_msg(&ack(ids[1], SubmitStatus::Busy), 110);
        l.on_msg(&ack(ids[2], SubmitStatus::Duplicate), 110);
        assert_eq!((l.outstanding, l.busy, l.duplicate, l.failed), (2, 1, 1, 2));
        l.on_msg(&committed(ids[0], 0), 150);
        l.on_msg(&committed(ids[3], 0), 250); // after the phase closed
        assert_eq!(
            (l.outstanding, l.sat_acks.committed, l.sat_completed),
            (0, 1, 4)
        );
        // A late Committed for a request that was already given up on
        // neither reopens the window twice nor counts as goodput.
        l.on_msg(&committed(ids[1], 0), 160);
        assert_eq!((l.outstanding, l.sat_acks.committed), (0, 1));
        assert!(l.violations.is_empty());
    }

    #[test]
    fn goodput_runs_from_the_first_ack_instant_to_the_last() {
        let mut w = SatWindow::default();
        assert_eq!(w.goodput_rps(1_000_000_000), 0.0);
        // Three blocks of 100 at 0.1 s, 0.35 s and 0.6 s: 200 requests in 0.5 s.
        for at in [100_000_000, 350_000_000, 600_000_000] {
            (0..100).for_each(|_| w.ack(at));
        }
        assert_eq!(w.committed, 300);
        assert_eq!(w.goodput_rps(1_000_000_000), 400.0);
        // One instant alone falls back to the count over the window.
        let mut one = SatWindow::default();
        (0..100).for_each(|_| one.ack(5));
        assert_eq!(one.goodput_rps(2_000_000_000), 50.0);
    }

    #[test]
    fn resubmits_use_fresh_nonces_and_the_oracle_catches_bad_acks() {
        let mut l = Ledger::new((0, 0), (0, 0));
        let id = l.open(0, false, false);
        assert_eq!(l.retry(id), Some(1));
        l.on_msg(&committed(id, 1), 10);
        assert_eq!(l.retry(id), None, "settled requests are not resent");
        l.on_msg(&committed(id, 0), 11); // the first copy landed too: fine
        assert!(l.violations.is_empty());
        l.on_msg(&committed(id, 1), 12);
        l.on_msg(&committed(id, 2), 13);
        l.on_msg(&committed(99, 0), 14);
        l.on_msg(&ClientMsg::Follow, 15);
        assert_eq!(l.violations.len(), 4, "{:?}", l.violations);

        let lost = l.open(0, false, false);
        for attempt in 1..MAX_ATTEMPTS {
            assert_eq!(l.retry(lost), Some(attempt));
        }
        assert_eq!(l.retry(lost), None);
        assert_eq!((l.failed, l.outstanding), (1, 0));
    }

    #[test]
    fn frames_reassemble_across_split_reads() {
        let msgs = [
            committed(1, 0),
            ack(2, SubmitStatus::Busy),
            ClientMsg::Committed {
                nonce: u64::MAX >> 24,
                height: 9,
            },
        ];
        let bytes: Vec<u8> = msgs.iter().flat_map(frame).collect();
        for chunk in [1, 3, 7, bytes.len()] {
            let mut buf = FrameBuf::default();
            let mut got = Vec::new();
            for piece in bytes.chunks(chunk) {
                buf.push(piece);
                while let Some(m) = buf.next_msg().unwrap() {
                    got.push(m);
                }
            }
            assert_eq!(got, msgs, "chunk size {chunk}");
        }
        let mut buf = FrameBuf::default();
        buf.push(&(MAX_CLIENT_FRAME as u32 + 1).to_le_bytes());
        assert!(buf.next_msg().is_err());
    }
}
