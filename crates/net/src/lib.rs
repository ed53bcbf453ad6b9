//! # iniva-net
//!
//! A deterministic discrete-event network simulator, substituting for the
//! paper's 25-machine cluster (Section VIII-B: 10 Gbps switch, <1 ms
//! latency, 12-core Xeons).
//!
//! Protocol code is written as [`Actor`]s driven by a virtual clock; the
//! simulator models
//!
//! * **propagation latency** per message (base + seeded jitter),
//! * **serialization/bandwidth cost** (bytes / link rate, charged to the
//!   sender's CPU),
//! * **CPU time** for expensive operations (signature verification etc.),
//!   charged explicitly by actors via [`Context::charge_cpu`] with values
//!   calibrated from the real BLS12-381 benchmarks (see [`cost`]),
//! * **crash and link faults** (a crashed node receives nothing and sends
//!   nothing; a blocked link drops, a slow link delays), replayed from a
//!   [`faults::FaultPlan`] into one [`faults::LinkFaults`] state, the one
//!   the live transport reads too.
//!
//! Each node is a single-server queue with an inbox: while a handler's
//! CPU charge keeps the node busy, arrivals and due timers wait, and the
//! node takes them up under the one delivery rule (written on
//! [`Actor::on_messages`]) when it frees up. So CPU saturation translates
//! into latency and throughput loss exactly as on real hardware, and the
//! live runtime hands its actor the same batches. Virtual time makes
//! 150-second experiments run in milliseconds and bit-identical across
//! runs (seeded RNG).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod faults;
pub mod sync;
pub mod wire;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Identity of a simulated node.
pub type NodeId = u32;

/// Virtual time in nanoseconds.
pub type Time = u64;

/// One millisecond in [`Time`] units.
pub const MILLIS: Time = 1_000_000;
/// One microsecond in [`Time`] units.
pub const MICROS: Time = 1_000;
/// One second in [`Time`] units.
pub const SECS: Time = 1_000_000_000;

/// Network parameters.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Base one-way propagation delay between any two nodes.
    pub base_latency: Time,
    /// Uniform jitter added on top of the base latency (`0..=jitter`).
    pub jitter: Time,
    /// Link bandwidth in bytes/second; serialization time `size/bandwidth`
    /// is charged to the sender.
    pub bandwidth_bps: u64,
    /// RNG seed (all runs with the same seed are bit-identical).
    pub seed: u64,
}

impl Default for NetConfig {
    /// The paper's cluster: <1 ms LAN latency, 10 Gbps TOR switch.
    fn default() -> Self {
        NetConfig {
            base_latency: 300 * MICROS,
            jitter: 200 * MICROS,
            bandwidth_bps: 10_000_000_000 / 8,
            seed: 42,
        }
    }
}

/// Most deliveries handed to an actor in one [`Actor::on_messages`] turn,
/// by the simulator and by the live runtime alike. The cap keeps a
/// pairing-verifying replica's batch window full (a view's worth of
/// signatures arrives back to back) while bounding how long a message
/// flood can hold back a due timer.
pub const MAX_DELIVERY_BATCH: usize = 32;

/// How many of a node's queued deliveries, given by their arrival times
/// oldest first, its next turn takes under the delivery rule
/// ([`Actor::on_messages`]): those that arrived by `deadline`, the
/// earliest due timer's if one is due, at most [`MAX_DELIVERY_BATCH`].
/// 0 with a timer due means the timer fires first.
pub fn due_deliveries<T: PartialOrd>(
    arrivals: impl IntoIterator<Item = T>,
    deadline: Option<T>,
) -> usize {
    arrivals
        .into_iter()
        .take(MAX_DELIVERY_BATCH)
        .take_while(|at| deadline.as_ref().is_none_or(|d| at <= d))
        .count()
}

/// A protocol state machine driven by the simulator or the live runtime.
pub trait Actor {
    /// Message type exchanged between actors.
    type Msg;

    /// Called once at simulation start.
    fn on_start(&mut self, _ctx: &mut Context<Self::Msg>) {}

    /// Hands the actor deliveries, oldest first, in one handler turn.
    ///
    /// **The delivery rule.** Both loops that drive actors — [`Simulation`]
    /// and the live transport's runtime — hand them what is due the same
    /// way:
    ///
    /// * a node handles what is due in due order: a delivery is due when
    ///   it arrives, a timer at its deadline;
    /// * consecutive deliveries with no due timer between them go to the
    ///   actor in one `on_messages` turn, at most [`MAX_DELIVERY_BATCH`]
    ///   per turn;
    /// * a timer fires only after every delivery that arrived by its
    ///   deadline; a delivery that arrives after the deadline waits for
    ///   the timer.
    ///
    /// A node busy with an earlier turn's CPU charge therefore gets
    /// everything that arrived meanwhile in as few turns as the rule
    /// allows. Actors whose verification cost amortizes across messages
    /// (batch pairing verification over a view's signatures) fold the
    /// batch; others iterate it.
    fn on_messages(&mut self, ctx: &mut Context<Self::Msg>, batch: Vec<(NodeId, Self::Msg)>);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<Self::Msg>, _timer: u64) {}
}

/// Handler-side interface to the simulator: queued sends, timers and CPU
/// charges are applied when the handler returns.
#[derive(Debug)]
pub struct Context<M> {
    /// This node's id.
    pub node: NodeId,
    now: Time,
    outbox: Vec<(NodeId, M, usize)>,
    timers: Vec<(Time, u64)>,
    cpu: Time,
}

impl<M> Context<M> {
    /// Current virtual time (start of this handler's execution).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` of `wire_bytes` size to `to` (delivered after
    /// serialization + propagation delay).
    pub fn send(&mut self, to: NodeId, msg: M, wire_bytes: usize) {
        self.outbox.push((to, msg, wire_bytes));
    }

    /// Schedules `on_timer(timer)` after `delay` of virtual time.
    pub fn set_timer(&mut self, delay: Time, timer: u64) {
        self.timers.push((delay, timer));
    }

    /// Charges `ns` of CPU time to this node: the node is busy (delaying its
    /// later events and all messages queued by this handler) and the time is
    /// recorded for the CPU-utilization metric.
    pub fn charge_cpu(&mut self, ns: Time) {
        self.cpu += ns;
    }

    /// Creates the context of one handler turn of `node` starting at
    /// `now`, the driving loop's clock reading in nanoseconds (the
    /// simulator's virtual clock, or a real-socket runtime's monotonic one
    /// in `iniva-transport`).
    pub fn external(node: NodeId, now: Time) -> Self {
        Context {
            node,
            now,
            outbox: Vec::new(),
            timers: Vec::new(),
            cpu: 0,
        }
    }

    /// Consumes the context, handing the queued effects to an external
    /// runtime to apply (sends to ship, timers to schedule, CPU to charge).
    pub fn into_effects(self) -> ContextEffects<M> {
        ContextEffects {
            outbox: self.outbox,
            timers: self.timers,
            cpu: self.cpu,
        }
    }
}

/// The effects an [`Actor`] handler queued on its [`Context`], drained via
/// [`Context::into_effects`] by runtimes other than [`Simulation`].
#[derive(Debug)]
pub struct ContextEffects<M> {
    /// Queued sends: `(destination, message, modeled wire bytes)`.
    pub outbox: Vec<(NodeId, M, usize)>,
    /// Queued timers: `(delay from handler start, timer id)`.
    pub timers: Vec<(Time, u64)>,
    /// CPU time the handler charged.
    pub cpu: Time,
}

enum EventKind<M> {
    /// A message arrives at the node's inbox.
    Deliver { from: NodeId, msg: M },
    /// A timer comes due.
    Timer { id: u64 },
    /// The node is free to take its next turn.
    Turn,
}

struct Event<M> {
    at: Time,
    seq: u64,
    node: NodeId,
    kind: EventKind<M>,
}

// Ordering for the BinaryHeap (min-heap via Reverse): by (time, seq).
impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Per-node statistics.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Cumulative CPU busy time (charges + serialization).
    pub cpu_busy: Time,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Messages received (delivered and processed).
    pub msgs_received: u64,
}

/// What waits at a node for its next turn.
struct Inbox<M> {
    /// Arrivals not yet handed over: `(arrival, sender, message)`.
    msgs: VecDeque<(Time, NodeId, M)>,
    /// Due timers not yet fired: `(deadline, id)`, in deadline order.
    timers: VecDeque<(Time, u64)>,
    /// A `Turn` event for the node is queued.
    turn_queued: bool,
}

impl<M> Inbox<M> {
    fn new() -> Self {
        Inbox {
            msgs: VecDeque::new(),
            timers: VecDeque::new(),
            turn_queued: false,
        }
    }

    fn is_empty(&self) -> bool {
        self.msgs.is_empty() && self.timers.is_empty()
    }
}

/// The discrete-event simulation engine.
pub struct Simulation<A: Actor> {
    actors: Vec<A>,
    crashed: Vec<bool>,
    available: Vec<Time>,
    inboxes: Vec<Inbox<A::Msg>>,
    stats: Vec<NodeStats>,
    queue: BinaryHeap<Reverse<Event<A::Msg>>>,
    now: Time,
    seq: u64,
    config: NetConfig,
    rng: StdRng,
    started: bool,
    /// Injected partitions and slow links.
    links: faults::LinkFaults,
    /// Deliveries dropped by blocked links (monotonic).
    link_drops: u64,
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation over the given actors (node `i` runs
    /// `actors[i]`).
    pub fn new(config: NetConfig, actors: Vec<A>) -> Self {
        let n = actors.len();
        let rng = StdRng::seed_from_u64(config.seed);
        Simulation {
            actors,
            crashed: vec![false; n],
            available: vec![0; n],
            inboxes: (0..n).map(|_| Inbox::new()).collect(),
            stats: vec![NodeStats::default(); n],
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            config,
            rng,
            started: false,
            links: faults::LinkFaults::new(),
            link_drops: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// True when no actors exist.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Marks a node crashed: it stops processing and emitting events, and
    /// what waited in its inbox is lost.
    pub fn crash(&mut self, node: NodeId) {
        let ni = node as usize;
        self.crashed[ni] = true;
        self.inboxes[ni].msgs.clear();
        self.inboxes[ni].timers.clear();
    }

    /// Revives a crashed node. Events that came due while it was down are
    /// gone (a crashed node neither receives nor fires timers); it resumes
    /// inert and rejoins when the protocol next contacts it — exactly the
    /// live runtime's heal semantics.
    pub fn revive(&mut self, node: NodeId) {
        self.crashed[node as usize] = false;
    }

    /// True if `node` has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node as usize]
    }

    /// The simulation's link faults. A blocked link drops its deliveries
    /// on arrival (messages already in flight are lost too; those already
    /// in the receiver's inbox are not); a slow link's delay is added to
    /// every message sent on it.
    pub fn links(&self) -> &faults::LinkFaults {
        &self.links
    }

    /// Deliveries dropped so far by blocked links.
    pub fn link_drops(&self) -> u64 {
        self.link_drops
    }

    /// Statistics for a node.
    pub fn stats(&self, node: NodeId) -> &NodeStats {
        &self.stats[node as usize]
    }

    /// Immutable access to an actor (for metric extraction).
    pub fn actor(&self, node: NodeId) -> &A {
        &self.actors[node as usize]
    }

    /// Mutable access to an actor (for test instrumentation).
    pub fn actor_mut(&mut self, node: NodeId) -> &mut A {
        &mut self.actors[node as usize]
    }

    fn push(&mut self, at: Time, node: NodeId, kind: EventKind<A::Msg>) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            at,
            seq: self.seq,
            node,
            kind,
        }));
    }

    fn start(&mut self) {
        self.started = true;
        for i in 0..self.actors.len() {
            if self.crashed[i] {
                continue;
            }
            let mut ctx = Context::external(i as NodeId, 0);
            self.actors[i].on_start(&mut ctx);
            self.apply(i as NodeId, 0, ctx);
        }
    }

    /// Applies a drained context: CPU charge extends the node's busy window;
    /// messages depart after the handler (plus per-message serialization).
    fn apply(&mut self, node: NodeId, handler_start: Time, ctx: Context<A::Msg>) {
        let ni = node as usize;
        let mut t = handler_start + ctx.cpu;
        self.stats[ni].cpu_busy += ctx.cpu;
        for (to, msg, bytes) in ctx.outbox {
            let ser = (bytes as u128 * SECS as u128 / self.config.bandwidth_bps as u128) as Time;
            t += ser;
            self.stats[ni].cpu_busy += ser;
            self.stats[ni].msgs_sent += 1;
            self.stats[ni].bytes_sent += bytes as u64;
            let jitter = if self.config.jitter > 0 {
                self.rng.gen_range(0..=self.config.jitter)
            } else {
                0
            };
            let extra = self.links.delay(node, to).unwrap_or(0);
            let deliver_at = t + self.config.base_latency + jitter + extra;
            self.push(deliver_at, to, EventKind::Deliver { from: node, msg });
        }
        self.available[ni] = self.available[ni].max(t);
        for (delay, id) in ctx.timers {
            self.push(
                handler_start + ctx.cpu + delay,
                node,
                EventKind::Timer { id },
            );
        }
    }

    /// Executes one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        if !self.started {
            self.start();
        }
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(ev.at);
        let ni = ev.node as usize;
        match ev.kind {
            EventKind::Turn => {
                self.inboxes[ni].turn_queued = false;
                if !self.crashed[ni] {
                    self.turn(ev.node, ev.at);
                }
            }
            _ if self.crashed[ni] => {}
            // A partitioned link drops its deliveries on arrival, so a
            // partition injected while messages are in flight loses them
            // too — matching the live transport's reader-path filter.
            EventKind::Deliver { from, .. } if self.links.blocked(from, ev.node) => {
                self.link_drops += 1;
            }
            EventKind::Deliver { from, msg } => {
                self.inboxes[ni].msgs.push_back((ev.at, from, msg));
                self.queue_turn(ev.node, ev.at);
            }
            EventKind::Timer { id } => {
                self.inboxes[ni].timers.push_back((ev.at, id));
                self.queue_turn(ev.node, ev.at);
            }
        }
        true
    }

    /// Queues the node's next turn for when it is free, from `at` on,
    /// unless one is queued already.
    fn queue_turn(&mut self, node: NodeId, at: Time) {
        let ni = node as usize;
        if !self.inboxes[ni].turn_queued {
            self.inboxes[ni].turn_queued = true;
            let at = at.max(self.available[ni]);
            self.push(at, node, EventKind::Turn);
        }
    }

    /// One handler turn under the delivery rule ([`Actor::on_messages`]):
    /// the arrivals up to the earliest due timer's deadline, at most
    /// [`MAX_DELIVERY_BATCH`] of them, or else that timer.
    fn turn(&mut self, node: NodeId, at: Time) {
        let ni = node as usize;
        let start = at.max(self.available[ni]);
        let mut ctx = Context::external(node, start);
        let inbox = &mut self.inboxes[ni];
        let due = due_deliveries(
            inbox.msgs.iter().map(|&(arrival, _, _)| arrival),
            inbox.timers.front().map(|&(deadline, _)| deadline),
        );
        if due > 0 {
            let batch = inbox
                .msgs
                .drain(..due)
                .map(|(_, from, msg)| (from, msg))
                .collect();
            self.stats[ni].msgs_received += due as u64;
            self.actors[ni].on_messages(&mut ctx, batch);
        } else if let Some((_, id)) = inbox.timers.pop_front() {
            self.actors[ni].on_timer(&mut ctx, id);
        } else {
            return;
        }
        self.apply(node, start, ctx);
        if !self.inboxes[ni].is_empty() {
            self.queue_turn(node, start);
        }
    }

    /// Runs until the virtual clock passes `deadline` or the event queue
    /// drains. Returns the number of events executed.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        if !self.started {
            self.start();
        }
        let mut events = 0;
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.at > deadline {
                break;
            }
            self.step();
            events += 1;
        }
        self.now = self.now.max(deadline);
        events
    }

    /// Runs until the event queue is empty (only safe for protocols that
    /// quiesce, e.g. single-shot aggregations).
    pub fn run_to_quiescence(&mut self) -> u64 {
        if !self.started {
            self.start();
        }
        let mut events = 0;
        while self.step() {
            events += 1;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ping-pong actor: node 0 pings 1, each pong bounces back, `count`
    /// round trips.
    struct PingPong {
        peer: NodeId,
        initiator: bool,
        remaining: u32,
        pub completed_at: Option<Time>,
    }

    impl Actor for PingPong {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<u32>) {
            if self.initiator {
                ctx.send(self.peer, self.remaining, 100);
            }
        }

        fn on_messages(&mut self, ctx: &mut Context<u32>, batch: Vec<(NodeId, u32)>) {
            for (from, msg) in batch {
                if msg == 0 {
                    self.completed_at = Some(ctx.now());
                } else {
                    ctx.send(from, msg - 1, 100);
                }
            }
        }
    }

    fn net(seed: u64) -> NetConfig {
        NetConfig {
            base_latency: MILLIS,
            jitter: 0,
            bandwidth_bps: u64::MAX, // effectively free serialization
            seed,
        }
    }

    #[test]
    fn ping_pong_latency_adds_up() {
        let actors = vec![
            PingPong {
                peer: 1,
                initiator: true,
                remaining: 10,
                completed_at: None,
            },
            PingPong {
                peer: 0,
                initiator: false,
                remaining: 0,
                completed_at: None,
            },
        ];
        let mut sim = Simulation::new(net(1), actors);
        sim.run_to_quiescence();
        // Values 10..=0 travel one hop each (11 hops, 1 ms per hop); the
        // final "0" lands at node 1.
        assert_eq!(sim.actor(1).completed_at, Some(11 * MILLIS));
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mk = || {
            vec![
                PingPong {
                    peer: 1,
                    initiator: true,
                    remaining: 6,
                    completed_at: None,
                },
                PingPong {
                    peer: 0,
                    initiator: false,
                    remaining: 0,
                    completed_at: None,
                },
            ]
        };
        let mut a = Simulation::new(
            NetConfig {
                jitter: MILLIS,
                ..net(7)
            },
            mk(),
        );
        let mut b = Simulation::new(
            NetConfig {
                jitter: MILLIS,
                ..net(7)
            },
            mk(),
        );
        a.run_to_quiescence();
        b.run_to_quiescence();
        assert_eq!(a.actor(1).completed_at, b.actor(1).completed_at);
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn crashed_node_stops_responding() {
        let actors = vec![
            PingPong {
                peer: 1,
                initiator: true,
                remaining: 10,
                completed_at: None,
            },
            PingPong {
                peer: 0,
                initiator: false,
                remaining: 0,
                completed_at: None,
            },
        ];
        let mut sim = Simulation::new(net(1), actors);
        sim.crash(1);
        sim.run_to_quiescence();
        assert_eq!(sim.actor(1).completed_at, None);
        assert_eq!(sim.stats(1).msgs_received, 0);
    }

    struct Burner {
        fired: Vec<Time>,
    }
    impl Actor for Burner {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<()>) {
            ctx.set_timer(10 * MILLIS, 1);
            ctx.set_timer(20 * MILLIS, 2);
        }
        fn on_messages(&mut self, _ctx: &mut Context<()>, _batch: Vec<(NodeId, ())>) {}
        fn on_timer(&mut self, ctx: &mut Context<()>, id: u64) {
            self.fired.push(ctx.now());
            if id == 1 {
                // Burn 15 ms of CPU: the second timer (due at 20 ms) must be
                // delayed until 25 ms by the single-server queue.
                ctx.charge_cpu(15 * MILLIS);
            }
        }
    }

    #[test]
    fn cpu_charge_delays_subsequent_events() {
        let mut sim = Simulation::new(net(1), vec![Burner { fired: vec![] }]);
        sim.run_to_quiescence();
        assert_eq!(sim.actor(0).fired, vec![10 * MILLIS, 25 * MILLIS]);
        assert_eq!(sim.stats(0).cpu_busy, 15 * MILLIS);
    }

    struct Sender;
    impl Actor for Sender {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Context<()>) {
            ctx.send(1, (), 1_000_000); // 1 MB
        }
        fn on_messages(&mut self, _ctx: &mut Context<()>, _batch: Vec<(NodeId, ())>) {}
    }

    #[test]
    fn serialization_time_respects_bandwidth() {
        // 1 MB over 1 MB/s = 1 s of serialization, plus 1 ms latency.
        let cfg = NetConfig {
            base_latency: MILLIS,
            jitter: 0,
            bandwidth_bps: 1_000_000,
            seed: 1,
        };
        let mut sim = Simulation::new(cfg, vec![Sender, Sender]);
        sim.run_to_quiescence();
        assert_eq!(sim.now(), SECS + MILLIS);
        assert_eq!(sim.stats(0).bytes_sent, 1_000_000);
        assert_eq!(sim.stats(0).cpu_busy, SECS);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let actors = vec![
            PingPong {
                peer: 1,
                initiator: true,
                remaining: 1000,
                completed_at: None,
            },
            PingPong {
                peer: 0,
                initiator: false,
                remaining: 0,
                completed_at: None,
            },
        ];
        let mut sim = Simulation::new(net(3), actors);
        sim.run_until(5 * MILLIS);
        assert_eq!(sim.now(), 5 * MILLIS);
        assert!(sim.actor(1).completed_at.is_none());
    }

    /// The delivery rule on [`Actor::on_messages`], one clause per test.
    mod delivery_rule {
        use super::*;

        #[derive(Debug, PartialEq)]
        enum Seen {
            Msgs(Vec<u32>),
            Timer(u64),
        }

        /// Node 0 sends `sends[i].1` to node 1 at `sends[i].0`.
        /// Node 1 is busy for `busy` from the start, sets `timer` in
        /// `on_start` (`(delay, id)`), charges `charge` on the message
        /// `1`, and logs every turn with its start time.
        struct Node {
            sends: Vec<(Time, u32)>,
            busy: Time,
            timer: Option<(Time, u64)>,
            charge: Time,
            log: Vec<(Time, Seen)>,
        }

        impl Actor for Node {
            type Msg = u32;

            fn on_start(&mut self, ctx: &mut Context<u32>) {
                for (i, &(at, _)) in self.sends.iter().enumerate() {
                    ctx.set_timer(at, i as u64);
                }
                if let Some((delay, id)) = self.timer {
                    ctx.set_timer(delay, id);
                }
                ctx.charge_cpu(self.busy);
            }

            fn on_messages(&mut self, ctx: &mut Context<u32>, batch: Vec<(NodeId, u32)>) {
                let msgs: Vec<u32> = batch.into_iter().map(|(_, m)| m).collect();
                if msgs.contains(&1) {
                    ctx.charge_cpu(self.charge);
                }
                self.log.push((ctx.now(), Seen::Msgs(msgs)));
            }

            fn on_timer(&mut self, ctx: &mut Context<u32>, id: u64) {
                if ctx.node == 0 {
                    ctx.send(1, self.sends[id as usize].1, 8);
                } else {
                    self.log.push((ctx.now(), Seen::Timer(id)));
                }
            }
        }

        /// A sender and a receiver one 1 ms hop apart.
        fn pair(
            sends: Vec<(Time, u32)>,
            busy: Time,
            timer: Option<(Time, u64)>,
            charge: Time,
        ) -> Simulation<Node> {
            let node = |sends, busy, timer, charge| Node {
                sends,
                busy,
                timer,
                charge,
                log: Vec::new(),
            };
            let actors = vec![
                node(sends, 0, None, 0),
                node(Vec::new(), busy, timer, charge),
            ];
            Simulation::new(net(1), actors)
        }

        #[test]
        fn a_busy_node_gets_its_arrivals_in_one_turn() {
            let sends = vec![(0, 1), (MILLIS, 2), (2 * MILLIS, 3)];
            let mut sim = pair(sends, 5 * MILLIS, None, 0);
            sim.run_to_quiescence();
            assert_eq!(
                sim.actor(1).log,
                vec![(5 * MILLIS, Seen::Msgs(vec![1, 2, 3]))]
            );
            assert_eq!(sim.stats(1).msgs_received, 3);
        }

        #[test]
        fn forty_arrivals_are_handed_over_as_thirty_two_then_eight() {
            let sends = (1..=40).map(|v| (0, v)).collect();
            let mut sim = pair(sends, 5 * MILLIS, None, 0);
            sim.run_to_quiescence();
            let turns: Vec<usize> = sim
                .actor(1)
                .log
                .iter()
                .map(|(_, seen)| match seen {
                    Seen::Msgs(m) => m.len(),
                    Seen::Timer(_) => 0,
                })
                .collect();
            assert_eq!(turns, vec![MAX_DELIVERY_BATCH, 40 - MAX_DELIVERY_BATCH]);
        }

        /// Arrivals at 2 and 4 ms and a timer due at 3 ms all wait behind
        /// a charge that ends at 11 ms; they are taken up in due order.
        #[test]
        fn a_timer_due_between_two_arrivals_splits_them() {
            let sends = vec![(0, 1), (MILLIS, 2), (3 * MILLIS, 3)];
            let mut sim = pair(sends, 0, Some((3 * MILLIS, 9)), 10 * MILLIS);
            sim.run_to_quiescence();
            assert_eq!(
                sim.actor(1).log,
                vec![
                    (MILLIS, Seen::Msgs(vec![1])),
                    (11 * MILLIS, Seen::Msgs(vec![2])),
                    (11 * MILLIS, Seen::Timer(9)),
                    (11 * MILLIS, Seen::Msgs(vec![3])),
                ]
            );
        }

        /// What waited in a crashed node's inbox is lost, even when the
        /// node revives before it would have freed up.
        #[test]
        fn a_crashed_nodes_queued_arrivals_are_dropped() {
            let sends = vec![(0, 2), (0, 3), (15 * MILLIS, 4)];
            let mut sim = pair(sends, 10 * MILLIS, None, 0);
            sim.run_until(5 * MILLIS);
            sim.crash(1);
            sim.run_until(6 * MILLIS);
            sim.revive(1);
            sim.run_to_quiescence();
            assert_eq!(sim.actor(1).log, vec![(16 * MILLIS, Seen::Msgs(vec![4]))]);
            assert_eq!(sim.stats(1).msgs_received, 1);
        }

        /// A link blocked after a message arrived does not reach into the
        /// inbox; one blocked before the next arrival drops it.
        #[test]
        fn a_blocked_link_drops_at_arrival() {
            let sends = vec![(0, 2), (5 * MILLIS, 3)];
            let mut sim = pair(sends, 10 * MILLIS, None, 0);
            sim.run_until(3 * MILLIS);
            sim.links().block(&[0], &[1]);
            sim.run_to_quiescence();
            assert_eq!(sim.actor(1).log, vec![(10 * MILLIS, Seen::Msgs(vec![2]))]);
            assert_eq!(sim.link_drops(), 1);
        }
    }
}
