//! The event loop driving an [`Actor`] over real sockets and a real clock.
//!
//! [`Runtime`] implements the contract the discrete-event simulator gives
//! its actors, with wall-clock semantics:
//!
//! * `ctx.now()` is nanoseconds of monotonic time since the runtime epoch
//!   (the simulator's virtual clock becomes a real one);
//! * `ctx.send(..)` hands the encoded message to the TCP transport;
//! * `ctx.set_timer(..)` schedules on a monotonic-clock timer wheel;
//! * `ctx.charge_cpu(..)` **spends the charged time** (the handler thread
//!   stays busy for it), so the calibrated verification costs shape the
//!   live cluster's latency exactly as they shape the simulator's — see
//!   [`CpuMode`] for scaling or disabling this.
//!
//! Messages are delivered in arrival order (the order frames drained from
//! the sockets into the inbound queue); timers fire in deadline order and
//! take priority over messages once due, mirroring the simulator's
//! single-server queue per node.

use crate::faults::NodeFaults;
use crate::transport::{Incoming, Transport};
use iniva_net::wire::Codec;
use iniva_net::{Actor, Context, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most messages delivered to an actor in one handler turn. The drain
/// keeps a pairing-verifying replica's batch window full (a view's worth
/// of signatures arrives back-to-back) while bounding how long due timers
/// can be deferred behind a message flood.
const MAX_DELIVERY_BATCH: usize = 32;

/// Longest the event loop blocks before it looks at the run deadline, the
/// stop hook and the crash/heal switch again.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// How `charge_cpu` translates to real time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpuMode {
    /// Spend the charged nanoseconds on the handler thread (default): the
    /// cost model calibrated from the BLS benchmarks shapes live latency.
    Real,
    /// Spend a scaled fraction (e.g. `0.1` to model 10× faster CPUs).
    Scaled(f64),
    /// Ignore charges entirely (pure transport benchmarking).
    Off,
}

/// Counters mirroring the simulator's per-node [`iniva_net::NodeStats`].
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Total CPU time charged by handlers (ns, before [`CpuMode`] scaling).
    pub cpu_charged: Time,
    /// Real time spent busy in handlers, including charges (ns).
    pub busy: Time,
    /// Messages delivered to the actor.
    pub msgs_delivered: u64,
    /// Timers fired.
    pub timers_fired: u64,
}

/// Registry handles kept by an observed runtime (see
/// [`Runtime::set_observability`]).
struct RuntimeObs {
    /// How late past its deadline each timer fired — the live analogue
    /// of the simulator's zero-lag timer wheel, and the series
    /// [`tune_for_real_crypto`](iniva_net::Actor) consumers use to size
    /// Δ against scheduling noise rather than guesswork.
    timer_lag_ns: iniva_obs::Histogram,
    /// Real time per handler dispatch (including charged CPU spends).
    handler_ns: iniva_obs::Histogram,
}

/// Drives one [`Actor`] over a [`Transport`].
pub struct Runtime<A: Actor>
where
    A::Msg: Codec + Send + 'static,
{
    actor: A,
    transport: Transport<A::Msg>,
    cpu_mode: CpuMode,
    epoch: Instant,
    timers: BinaryHeap<Reverse<(Time, u64, u64)>>,
    timer_seq: u64,
    stats: RuntimeStats,
    started: bool,
    obs: Option<RuntimeObs>,
}

impl<A: Actor> Runtime<A>
where
    A::Msg: Codec + Send + 'static,
{
    /// Creates a runtime for `actor` over `transport`.
    pub fn new(actor: A, transport: Transport<A::Msg>, cpu_mode: CpuMode) -> Self {
        Self::with_epoch(actor, transport, cpu_mode, Instant::now())
    }

    /// Creates a runtime whose clock reads nanoseconds since `epoch`
    /// rather than since construction. A restart-capable harness passes
    /// the *cluster's* time zero here, so a replica rebuilt from its WAL
    /// mid-run keeps stamping metrics (commit points, latencies) on the
    /// same time axis as every other replica — and as its own previous
    /// incarnation.
    pub fn with_epoch(
        actor: A,
        transport: Transport<A::Msg>,
        cpu_mode: CpuMode,
        epoch: Instant,
    ) -> Self {
        Runtime {
            actor,
            transport,
            cpu_mode,
            epoch,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            stats: RuntimeStats::default(),
            started: false,
            obs: None,
        }
    }

    /// Nanoseconds of monotonic time since the runtime epoch.
    pub fn now(&self) -> Time {
        self.epoch.elapsed().as_nanos() as Time
    }

    /// The instant this runtime's clock reads zero at. Harnesses use it
    /// to build a live [`iniva_obs::Tracer`] on the same time axis.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Registers the runtime's latency series (`runtime.timer_lag_ns`,
    /// `runtime.handler_ns`) in `registry` and starts recording into
    /// them. Unobserved runtimes skip both `Instant` reads.
    pub fn set_observability(&mut self, registry: &iniva_obs::Registry) {
        self.obs = Some(RuntimeObs {
            timer_lag_ns: registry.histogram("runtime.timer_lag_ns"),
            handler_ns: registry.histogram("runtime.handler_ns"),
        });
    }

    /// Mirrors the runtime's and transport's cumulative counters into
    /// `registry` (idempotent: values are stored, not added). Counters
    /// land under `runtime.` and `transport.`; `transport.queue_depth`
    /// is a gauge of frames currently queued in outbound lanes.
    pub fn export_stats(&self, registry: &iniva_obs::Registry) {
        export_runtime_stats(&self.stats, registry);
        crate::transport::export_transport_snapshot(&self.transport.snapshot(), registry);
    }

    /// The driven actor (for metric harvesting).
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// Mutable access to the driven actor, for harvesting between run
    /// slices (periodic metric exports need `&mut` to track what was
    /// already exported). Only call between `run_*` calls.
    pub fn actor_mut(&mut self) -> &mut A {
        &mut self.actor
    }

    /// Runtime counters.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Transport counters.
    pub fn transport_stats(&self) -> &crate::transport::TransportStats {
        self.transport.stats()
    }

    /// This node's crash/heal switch (shared with the transport). Killing
    /// it silences the actor — due timers are discarded, messages dropped —
    /// and healing resumes it under a fresh incarnation epoch, mirroring
    /// the simulator's crash semantics (`Simulation::crash`/`revive`).
    pub fn fault_handle(&self) -> Arc<NodeFaults> {
        self.transport.node_faults()
    }

    /// Runs the event loop for `wall` of real time, calling `on_start`
    /// first if this is the first run.
    pub fn run_for(&mut self, wall: Duration) {
        self.run_deadline(Instant::now() + wall, || false);
    }

    /// Runs the event loop until `deadline`, or until `stop` returns
    /// `true` (polled once per loop iteration, so within ~50 ms of being
    /// raised). The stop hook is what lets a restart-capable harness tear
    /// a replica down mid-run — a process-level `kill -9` — and later
    /// rebuild it from its write-ahead log.
    pub fn run_deadline<F: Fn() -> bool>(&mut self, deadline: Instant, stop: F) {
        let faults = self.transport.node_faults();
        while Instant::now() < deadline && !stop() {
            // A killed node is inert: due timers are discarded (as the
            // simulator discards a crashed node's events) and inbound
            // messages drain to the floor until a heal. The start event is
            // consumed too — a node crashed before its first dispatch
            // never runs `on_start`, even after a heal, exactly like the
            // simulator's crash-before-start + `revive` ("resumes inert,
            // rejoins when the protocol next contacts it").
            if faults.is_down() {
                self.started = true;
                while matches!(
                    self.timers.peek(),
                    Some(Reverse((at, _, _))) if *at <= self.now()
                ) {
                    self.timers.pop();
                }
                while self.transport.try_recv().is_some() {}
                // Look again at the cadence an idle live node wakes at: a
                // dead replica polling every 2 ms was a fifth of the
                // process's thread wake-ups on `crash21`.
                std::thread::sleep(
                    IDLE_POLL.min(deadline.saturating_duration_since(Instant::now())),
                );
                continue;
            }
            if !self.started {
                self.started = true;
                let node = self.transport.node();
                let ctx = Context::external(node, self.now());
                let ctx = self.dispatch(ctx, |actor, ctx| actor.on_start(ctx));
                self.apply(ctx);
            }
            // Fire every due timer, in deadline order.
            loop {
                let due = matches!(
                    self.timers.peek(),
                    Some(Reverse((at, _, _))) if *at <= self.now()
                );
                if !due {
                    break;
                }
                let Reverse((at, _, id)) = self.timers.pop().expect("peeked a due timer");
                self.stats.timers_fired += 1;
                if let Some(obs) = &self.obs {
                    obs.timer_lag_ns.record(self.now().saturating_sub(at));
                }
                let node = self.transport.node();
                let ctx = Context::external(node, self.now());
                let ctx = self.dispatch(ctx, |actor, ctx| actor.on_timer(ctx, id));
                self.apply(ctx);
            }
            // Wait for the next message, but no longer than the next timer
            // deadline or the run deadline.
            let now = self.now();
            let until_timer = self
                .timers
                .peek()
                .map(|Reverse((at, _, _))| Duration::from_nanos(at.saturating_sub(now)))
                .unwrap_or(IDLE_POLL);
            let until_deadline = deadline.saturating_duration_since(Instant::now());
            let wait = until_timer.min(until_deadline).min(IDLE_POLL);
            if let Some(Incoming { from, msg }) = self.transport.recv_timeout(wait) {
                // Drain whatever else is already queued into the same
                // handler turn (bounded, so a flood cannot starve timers):
                // actors that batch same-view signature verification get
                // their batch from here, and per-message actors see the
                // identical per-message callbacks via the trait default.
                let mut batch = vec![(from, msg)];
                while batch.len() < MAX_DELIVERY_BATCH {
                    match self.transport.try_recv() {
                        Some(Incoming { from, msg }) => batch.push((from, msg)),
                        None => break,
                    }
                }
                self.stats.msgs_delivered += batch.len() as u64;
                let node = self.transport.node();
                let ctx = Context::external(node, self.now());
                let ctx = self.dispatch(ctx, |actor, ctx| actor.on_messages(ctx, batch));
                self.apply(ctx);
            }
        }
    }

    /// Tears down the transport and returns the actor plus final counters.
    pub fn finish(mut self) -> (A, RuntimeStats, crate::transport::TransportSnapshot) {
        let transport = self.transport.snapshot();
        self.transport.shutdown();
        (self.actor, self.stats, transport)
    }

    fn dispatch<F>(&mut self, mut ctx: Context<A::Msg>, f: F) -> Context<A::Msg>
    where
        F: FnOnce(&mut A, &mut Context<A::Msg>),
    {
        let start = Instant::now();
        f(&mut self.actor, &mut ctx);
        let elapsed = start.elapsed().as_nanos() as Time;
        self.stats.busy += elapsed;
        if let Some(obs) = &self.obs {
            obs.handler_ns.record(elapsed);
        }
        ctx
    }

    /// Applies drained context effects: burn charged CPU, ship sends,
    /// schedule timers (relative to the post-charge instant, matching the
    /// simulator's `handler_start + cpu + delay`).
    fn apply(&mut self, ctx: Context<A::Msg>) {
        let effects = ctx.into_effects();
        self.stats.cpu_charged += effects.cpu;
        let spend = match self.cpu_mode {
            CpuMode::Real => effects.cpu,
            CpuMode::Scaled(k) => (effects.cpu as f64 * k) as Time,
            CpuMode::Off => 0,
        };
        if spend > 0 {
            busy_spend(Duration::from_nanos(spend));
            self.stats.busy += spend;
        }
        for (to, msg, _modeled_bytes) in effects.outbox {
            self.transport.send(to, &msg);
        }
        let now = self.now();
        for (delay, id) in effects.timers {
            self.timer_seq += 1;
            self.timers.push(Reverse((now + delay, self.timer_seq, id)));
        }
    }
}

/// Mirrors event-loop counters into `registry` under the `runtime.`
/// prefix (idempotent: values are stored, not added). Pass per-node
/// *totals* — a restart-capable harness folds incarnations first.
pub fn export_runtime_stats(stats: &RuntimeStats, registry: &iniva_obs::Registry) {
    registry
        .counter("runtime.cpu_charged_ns")
        .store(stats.cpu_charged);
    registry.counter("runtime.busy_ns").store(stats.busy);
    registry
        .counter("runtime.msgs_delivered")
        .store(stats.msgs_delivered);
    registry
        .counter("runtime.timers_fired")
        .store(stats.timers_fired);
}

/// Shortest spend that sleeps. `thread::sleep` returns late, never early:
/// measured on the 2-core reference host, sleeps of 0.1–4 ms overshoot by
/// ~0.1 ms at the median and ~0.2 ms at p90, alone or with 16 threads
/// sleeping at once — a quarter to a half of a spend this short, so
/// anything shorter spins. A constant of the host, not a setting.
const SLEEP_FLOOR: Duration = Duration::from_micros(400);

/// Spends `d` of real time on this thread and never returns early: sleeps
/// it whole from [`SLEEP_FLOOR`] up, spins it below. A charge models CPU
/// the replica would have burned, but burning the host's cores for it
/// starves the other replicas sharing them (21 replicas' spin tails on 2
/// cores); the wall-clock cost to the handler thread is what shapes
/// latency. A slept spend ends late by the overshoot rather than waking
/// early to spin to the deadline: the spin would burn whatever the
/// wake-up latency leaves of its margin, so the process's CPU would
/// follow how fast the host wakes sleepers — which changes with what else
/// keeps a core awake (a 200 µs margin: 13 µs per `crash21` request on a
/// quiet host, 40–50 µs beside a part-time spinner) — to shorten an
/// 18 ms view by under 1 ms.
fn busy_spend(d: Duration) {
    let start = Instant::now();
    if d >= SLEEP_FLOOR {
        std::thread::sleep(d);
    }
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iniva_net::NodeId;
    use std::net::{IpAddr, Ipv4Addr, SocketAddr};

    fn loopback(port: u16) -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), port)
    }

    /// A tiny codec-capable message for transport-level tests.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Num(pub u64);

    impl iniva_net::wire::WireEncode for Num {
        fn encode(&self, enc: &mut iniva_net::wire::Encoder) {
            enc.put_u64(self.0);
        }
    }

    impl iniva_net::wire::WireDecode for Num {
        fn decode(
            dec: &mut iniva_net::wire::Decoder,
        ) -> Result<Self, iniva_net::wire::DecodeError> {
            Ok(Num(dec.get_u64()?))
        }
    }

    /// Echoes every received number back, decremented, until zero.
    struct Countdown {
        peer: NodeId,
        initiator: bool,
        start: u64,
        done: bool,
    }

    impl Actor for Countdown {
        type Msg = Num;

        fn on_start(&mut self, ctx: &mut Context<Num>) {
            if self.initiator {
                ctx.send(self.peer, Num(self.start), 8);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<Num>, from: NodeId, msg: Num) {
            if msg.0 == 0 {
                self.done = true;
            } else {
                ctx.send(from, Num(msg.0 - 1), 8);
            }
        }
    }

    #[test]
    fn two_runtimes_ping_pong_over_tcp() {
        let la = std::net::TcpListener::bind(loopback(0)).unwrap();
        let lb = std::net::TcpListener::bind(loopback(0)).unwrap();
        let peers = vec![(0, la.local_addr().unwrap()), (1, lb.local_addr().unwrap())];
        let ta = Transport::<Num>::start(0, la, &peers).unwrap();
        let tb = Transport::<Num>::start(1, lb, &peers).unwrap();

        let a = Countdown {
            peer: 1,
            initiator: true,
            start: 20,
            done: false,
        };
        let b = Countdown {
            peer: 0,
            initiator: false,
            start: 0,
            done: false,
        };
        let mut ra = Runtime::new(a, ta, CpuMode::Off);
        let mut rb = Runtime::new(b, tb, CpuMode::Off);
        let ha = std::thread::spawn(move || {
            ra.run_for(Duration::from_millis(1500));
            ra.finish().0
        });
        let hb = std::thread::spawn(move || {
            rb.run_for(Duration::from_millis(1500));
            rb.finish().0
        });
        let a = ha.join().unwrap();
        let b = hb.join().unwrap();
        assert!(a.done || b.done, "countdown should have completed");
    }

    #[test]
    fn timers_fire_in_order_and_on_time() {
        struct TimerActor {
            fired: Vec<(u64, Time)>,
        }
        impl Actor for TimerActor {
            type Msg = Num;
            fn on_start(&mut self, ctx: &mut Context<Num>) {
                ctx.set_timer(60 * iniva_net::MILLIS, 2);
                ctx.set_timer(20 * iniva_net::MILLIS, 1);
            }
            fn on_message(&mut self, _: &mut Context<Num>, _: NodeId, _: Num) {}
            fn on_timer(&mut self, ctx: &mut Context<Num>, id: u64) {
                self.fired.push((id, ctx.now()));
            }
        }
        let t = Transport::<Num>::bind(0, loopback(0), &[]).unwrap();
        let mut rt = Runtime::new(TimerActor { fired: vec![] }, t, CpuMode::Real);
        rt.run_for(Duration::from_millis(200));
        let fired = &rt.actor().fired;
        assert_eq!(fired.len(), 2, "both timers fire");
        assert_eq!(fired[0].0, 1);
        assert_eq!(fired[1].0, 2);
        assert!(fired[0].1 >= 20 * iniva_net::MILLIS);
        assert!(fired[1].1 >= 60 * iniva_net::MILLIS);
        assert_eq!(rt.stats().timers_fired, 2);
    }

    #[test]
    fn busy_spend_never_returns_early() {
        for micros in [50, 500, 4_000] {
            let d = Duration::from_micros(micros);
            for _ in 0..20 {
                let start = Instant::now();
                busy_spend(d);
                assert!(start.elapsed() >= d, "a {d:?} spend returned early");
            }
        }
    }

    /// Nanoseconds this thread has spent on a CPU (Linux scheduler
    /// accounting; current up to the thread's last context switch).
    fn thread_on_cpu_ns() -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        stat.split_whitespace().next()?.parse().ok()
    }

    /// 16 leaves receive a proposal at the same instant and each charge a
    /// 4 ms verification. What the spends cost the *host* is bounded: a
    /// slept spend burns only its sleep call and wake-up (0.11–0.26 ms per
    /// round of 16, barrier included, on the 2-CPU reference host; a 1 ms
    /// spin tail burns 1.0 ms there and fails the bound). CPU burned is
    /// the quantity to bound, not the finishing time: a descheduled
    /// spinner finds its deadline passed and returns at once, so the
    /// slowest spender ends at ~4.5 ms whatever the tail.
    #[test]
    fn concurrent_spends_leave_the_cores_to_others() {
        const THREADS: usize = 16;
        const ROUNDS: u32 = 50;
        if thread_on_cpu_ns().is_none() {
            eprintln!("no /proc/thread-self/schedstat on this host; skipping");
            return;
        }
        let spend = Duration::from_millis(4);
        let barrier = std::sync::Barrier::new(THREADS);
        let burned: Duration = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let before = thread_on_cpu_ns().expect("probed above");
                        for _ in 0..ROUNDS {
                            barrier.wait();
                            busy_spend(spend);
                        }
                        // Fold the running slice into the counter.
                        std::thread::yield_now();
                        Duration::from_nanos(thread_on_cpu_ns().expect("probed above") - before)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("spender thread"))
                .sum()
        });
        let bound = Duration::from_micros(600);
        let per_round = burned / ROUNDS;
        assert!(
            per_round < bound,
            "{THREADS} concurrent {spend:?} spends burned {per_round:?} of CPU per round \
             (bound {bound:?})"
        );
    }

    #[test]
    fn cpu_charges_become_real_elapsed_time() {
        struct Burner;
        impl Actor for Burner {
            type Msg = Num;
            fn on_start(&mut self, ctx: &mut Context<Num>) {
                ctx.charge_cpu(30 * iniva_net::MILLIS);
            }
            fn on_message(&mut self, _: &mut Context<Num>, _: NodeId, _: Num) {}
        }
        let t = Transport::<Num>::bind(0, loopback(0), &[]).unwrap();
        let mut rt = Runtime::new(Burner, t, CpuMode::Real);
        let wall = Instant::now();
        rt.run_for(Duration::from_millis(1));
        assert!(
            wall.elapsed() >= Duration::from_millis(30),
            "a 30 ms charge must cost 30 ms of real time"
        );
        assert_eq!(rt.stats().cpu_charged, 30 * iniva_net::MILLIS);

        let t = Transport::<Num>::bind(0, loopback(0), &[]).unwrap();
        let mut rt = Runtime::new(Burner, t, CpuMode::Off);
        let wall = Instant::now();
        rt.run_for(Duration::from_millis(1));
        assert!(
            wall.elapsed() < Duration::from_millis(25),
            "Off skips the spend"
        );
    }
}
