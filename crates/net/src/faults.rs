//! Deterministic fault scenarios shared by both backends.
//!
//! A [`FaultPlan`] is a time-indexed script of crash, restart, partition
//! and slow-link events. The same plan replays against the discrete-event
//! simulator (via [`FaultPlan::run_on_sim`]) and against the live TCP
//! runtime (via `iniva_transport::cluster::ClusterBuilder::faults`),
//! which is what lets the Fig. 4 resilience sweeps — and any chaos test —
//! compare the two backends cell by cell: one seeded scenario, two
//! executions.
//!
//! Both read a plan through [`FaultEvent::apply`] into one [`LinkFaults`]
//! state, so a slow link is propagation delay on both: messages sent on
//! it close together overlap in flight.
//!
//! Victim selection for the paper's random-crash sweeps uses the seeded
//! shuffle the simulator-only harness (`iniva_sim::resilience`) has used
//! since the seed, so historical numbers are unchanged.

use crate::{Actor, NodeId, Simulation, Time};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One injectable fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash `node`: it stops receiving, sending and firing timers.
    Crash(NodeId),
    /// Restart a crashed `node` under a fresh incarnation; it resumes
    /// inert and rejoins when the protocol next contacts it.
    ///
    /// A replica with durable storage (the live harness with a
    /// write-ahead log) comes back as a new process instead: its runtime
    /// and sockets, torn down by the [`Self::Crash`], are rebuilt, its
    /// committed prefix and view are recovered from the log, and it
    /// catches up on what it missed via state transfer. Without a disk,
    /// as on the simulator, the revived node keeps its memory.
    Restart(NodeId),
    /// Symmetric partition: every link between group `a` and group `b`
    /// is cut, both directions.
    Partition {
        /// One side of the cut.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
    },
    /// Asymmetric partition: only `from → to` links are cut; replies
    /// still flow.
    PartitionOneWay {
        /// Senders whose frames are dropped.
        from: Vec<NodeId>,
        /// Receivers they cannot reach.
        to: Vec<NodeId>,
    },
    /// Heal every cut link and remove every injected delay.
    HealAllLinks,
    /// Add `extra` one-way propagation delay to every message on
    /// `from → to`; 0 removes it.
    SlowLink {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Injected delay (ns).
        extra: Time,
    },
}

/// The node half of a [`FaultEvent`], which each backend carries out its
/// own way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFault {
    /// Crash the node.
    Crash(NodeId),
    /// Restart the crashed node.
    Restart(NodeId),
}

impl FaultEvent {
    /// Injects this event: a link fault goes into `links`, the state both
    /// backends read; a crash or restart is returned for the backend to
    /// carry out.
    pub fn apply(&self, links: &LinkFaults) -> Option<NodeFault> {
        match self {
            FaultEvent::Crash(node) => return Some(NodeFault::Crash(*node)),
            FaultEvent::Restart(node) => return Some(NodeFault::Restart(*node)),
            FaultEvent::Partition { a, b } => {
                links.block(a, b);
                links.block(b, a);
            }
            FaultEvent::PartitionOneWay { from, to } => links.block(from, to),
            FaultEvent::HealAllLinks => links.heal_all(),
            FaultEvent::SlowLink { from, to, extra } => links.slow_link(*from, *to, *extra),
        }
        None
    }
}

/// The link-fault state both backends read: directed `(from, to)` links
/// that drop what is sent on them, and links that delay it. A live
/// cluster's transports share one, written by its fault driver thread.
///
/// `active` short-circuits the per-message checks: in fault-free operation
/// (every benchmark, every figure and every non-chaos test) a check costs
/// one relaxed atomic load, no lock.
#[derive(Debug, Default)]
pub struct LinkFaults {
    active: AtomicBool,
    links: Mutex<Links>,
}

#[derive(Debug, Default)]
struct Links {
    blocked: HashSet<(NodeId, NodeId)>,
    delays: HashMap<(NodeId, NodeId), Time>,
}

impl LinkFaults {
    /// A fault-free link map.
    pub fn new() -> Self {
        LinkFaults::default()
    }

    /// Locks the link map, recovering it if a holder panicked: every
    /// update leaves both sets valid, so poisoning is only a signal.
    fn lock(&self) -> MutexGuard<'_, Links> {
        self.links
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Rewrites the link map under one lock and refreshes `active`.
    fn update(&self, f: impl FnOnce(&mut Links)) {
        let mut links = self.lock();
        f(&mut links);
        let any = !links.blocked.is_empty() || !links.delays.is_empty();
        self.active.store(any, Ordering::SeqCst);
    }

    /// Blocks every directed link from a node of `from` to a node of
    /// `to`: what is sent on it is dropped, and so is what was in flight.
    pub fn block(&self, from: &[NodeId], to: &[NodeId]) {
        self.update(|links| {
            for &x in from {
                links.blocked.extend(to.iter().map(|&y| (x, y)));
            }
        });
    }

    /// Removes every blocked link and every injected delay.
    pub fn heal_all(&self) {
        self.update(|links| {
            links.blocked.clear();
            links.delays.clear();
        });
    }

    /// Adds `delay` ns of propagation delay to every message sent on
    /// `from → to` (0 removes it).
    pub fn slow_link(&self, from: NodeId, to: NodeId, delay: Time) {
        self.update(|links| {
            if delay == 0 {
                links.delays.remove(&(from, to));
            } else {
                links.delays.insert((from, to), delay);
            }
        });
    }

    /// True if messages on `from → to` must be dropped.
    pub fn blocked(&self, from: NodeId, to: NodeId) -> bool {
        // ORDER: fast-path gate only; fault injection promises no
        // happens-before with in-flight messages, and a stale read merely
        // delays when an injected fault takes effect by one message.
        self.active.load(Ordering::Relaxed) && self.lock().blocked.contains(&(from, to))
    }

    /// The propagation delay injected on `from → to` (ns), if any.
    pub fn delay(&self, from: NodeId, to: NodeId) -> Option<Time> {
        // ORDER: fast-path gate only; see `blocked`.
        if !self.active.load(Ordering::Relaxed) {
            return None;
        }
        self.lock().delays.get(&(from, to)).copied()
    }
}

/// A fault scheduled at a point in run time (ns from start).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedFault {
    /// When to inject, in ns of virtual (simulator) or wall (live) time.
    pub at: Time,
    /// What to inject.
    pub fault: FaultEvent,
}

/// A deterministic, replayable chaos scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<TimedFault>,
}

impl FaultPlan {
    /// An empty plan (a fault-free run).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// The scheduled events, in injection order.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// The sub-plan of events scheduled strictly after time zero. The
    /// live cluster harness injects time-zero events once, before any
    /// replica thread starts, and hands only this remainder to its
    /// wall-clock driver — `Restart` bumps an incarnation epoch, so
    /// re-applying it is **not** idempotent.
    pub fn deferred(&self) -> FaultPlan {
        FaultPlan {
            events: self.events.iter().filter(|e| e.at > 0).cloned().collect(),
        }
    }

    fn push(mut self, at: Time, fault: FaultEvent) -> Self {
        self.events.push(TimedFault { at, fault });
        // Keep injection order: by time, insertion order breaking ties.
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Schedules a crash of `node` at `at`.
    pub fn crash(self, at: Time, node: NodeId) -> Self {
        self.push(at, FaultEvent::Crash(node))
    }

    /// Schedules a restart of `node` at `at`.
    pub fn restart(self, at: Time, node: NodeId) -> Self {
        self.push(at, FaultEvent::Restart(node))
    }

    /// Schedules a symmetric partition of `a` from `b` at `at`.
    pub fn partition(self, at: Time, a: &[NodeId], b: &[NodeId]) -> Self {
        self.push(
            at,
            FaultEvent::Partition {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        )
    }

    /// Schedules a one-way partition (`from → to` cut) at `at`.
    pub fn partition_one_way(self, at: Time, from: &[NodeId], to: &[NodeId]) -> Self {
        self.push(
            at,
            FaultEvent::PartitionOneWay {
                from: from.to_vec(),
                to: to.to_vec(),
            },
        )
    }

    /// Schedules a heal of all links at `at`.
    pub fn heal_links(self, at: Time) -> Self {
        self.push(at, FaultEvent::HealAllLinks)
    }

    /// Schedules `extra` ns of injected delay on `from → to` at `at`.
    pub fn slow_link(self, at: Time, from: NodeId, to: NodeId, extra: Time) -> Self {
        self.push(at, FaultEvent::SlowLink { from, to, extra })
    }

    /// The committee `0..n` in the seeded shuffle order the resilience
    /// sweeps have always used: crash victims are `[..faults]`, and
    /// `[faults]` is a guaranteed-correct observer.
    pub fn shuffled_members(n: usize, seed: u64) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
        ids.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
        ids
    }

    /// The Fig. 4 fault model: `faults` crash victims chosen by the seeded
    /// shuffle, all crashed at `at`.
    pub fn random_crashes(n: usize, faults: usize, at: Time, seed: u64) -> Self {
        Self::shuffled_members(n, seed)
            .into_iter()
            .take(faults)
            .fold(FaultPlan::new(), |plan, node| plan.crash(at, node))
    }

    /// Replays the plan against the simulator, running it up to `until`.
    /// Events at time 0 are injected **before** the simulation starts
    /// (a node crashed at 0 never runs `on_start`, exactly as the
    /// pre-plan `Sim::crash()` harnesses behaved). Returns the number of
    /// simulator events executed.
    pub fn run_on_sim<A: Actor>(&self, sim: &mut Simulation<A>, until: Time) -> u64 {
        let mut executed = 0;
        for TimedFault { at, fault } in &self.events {
            if *at > until {
                break;
            }
            if *at > 0 {
                executed += sim.run_until(*at);
            }
            match fault.apply(sim.links()) {
                Some(NodeFault::Crash(node)) => sim.crash(node),
                Some(NodeFault::Restart(node)) => sim.revive(node),
                None => {}
            }
        }
        executed + sim.run_until(until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, NetConfig, MILLIS};

    /// A node that pings its successor every 10 ms and counts receipts.
    struct Pinger {
        next: NodeId,
        received: u64,
    }

    impl Actor for Pinger {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Context<()>) {
            ctx.set_timer(10 * MILLIS, 0);
        }

        fn on_messages(&mut self, _ctx: &mut Context<()>, batch: Vec<(NodeId, ())>) {
            self.received += batch.len() as u64;
        }

        fn on_timer(&mut self, ctx: &mut Context<()>, _id: u64) {
            ctx.send(self.next, (), 16);
            ctx.set_timer(10 * MILLIS, 0);
        }
    }

    fn ring(n: usize) -> Simulation<Pinger> {
        let actors = (0..n)
            .map(|i| Pinger {
                next: ((i + 1) % n) as NodeId,
                received: 0,
            })
            .collect();
        Simulation::new(
            NetConfig {
                base_latency: MILLIS,
                jitter: 0,
                bandwidth_bps: u64::MAX,
                seed: 1,
            },
            actors,
        )
    }

    #[test]
    fn events_stay_time_sorted() {
        let plan = FaultPlan::new()
            .heal_links(300)
            .crash(100, 2)
            .restart(200, 2)
            .crash(100, 3);
        let ats: Vec<Time> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![100, 100, 200, 300]);
        // Ties keep insertion order.
        assert_eq!(plan.events()[0].fault, FaultEvent::Crash(2));
        assert_eq!(plan.events()[1].fault, FaultEvent::Crash(3));
    }

    #[test]
    fn random_crashes_match_the_historic_shuffle() {
        let victims: Vec<NodeId> = FaultPlan::random_crashes(21, 4, 0, 9)
            .events()
            .iter()
            .map(|e| match e.fault {
                FaultEvent::Crash(n) => n,
                _ => panic!("only crashes expected"),
            })
            .collect();
        assert_eq!(victims.len(), 4);
        assert_eq!(victims, FaultPlan::shuffled_members(21, 9)[..4].to_vec());
        // Deterministic per seed.
        assert_eq!(
            FaultPlan::random_crashes(21, 4, 0, 9),
            FaultPlan::random_crashes(21, 4, 0, 9)
        );
    }

    #[test]
    fn crash_and_restart_on_sim() {
        let mut sim = ring(2);
        let plan = FaultPlan::new().crash(0, 1);
        plan.run_on_sim(&mut sim, 100 * MILLIS);
        assert_eq!(sim.actor(1).received, 0, "crashed-at-0 receives nothing");
        assert!(sim.is_crashed(1));

        // A restarted node receives again (its own timers are gone, but
        // peers still reach it).
        let mut sim = ring(2);
        let plan = FaultPlan::new().crash(0, 1).restart(50 * MILLIS, 1);
        plan.run_on_sim(&mut sim, 200 * MILLIS);
        assert!(!sim.is_crashed(1));
        assert!(
            sim.actor(1).received >= 10,
            "revived node must receive deliveries again ({})",
            sim.actor(1).received
        );
    }

    #[test]
    fn partition_cuts_and_heals_on_sim() {
        let mut sim = ring(2);
        let plan = FaultPlan::new()
            .partition(0, &[0], &[1])
            .heal_links(100 * MILLIS);
        plan.run_on_sim(&mut sim, 200 * MILLIS);
        // While cut, node 0's pings to 1 vanish (≈10 drops); after the
        // heal they land again.
        assert!(sim.link_drops() >= 8, "{} drops", sim.link_drops());
        assert!(
            sim.actor(1).received >= 8,
            "deliveries must resume after heal ({})",
            sim.actor(1).received
        );
    }

    #[test]
    fn one_way_partition_is_asymmetric_on_sim() {
        let mut sim = ring(2);
        let plan = FaultPlan::new().partition_one_way(0, &[0], &[1]);
        plan.run_on_sim(&mut sim, 100 * MILLIS);
        assert_eq!(sim.actor(1).received, 0, "0 → 1 is cut");
        assert!(sim.actor(0).received >= 8, "1 → 0 still flows");
    }

    #[test]
    fn slow_link_delays_deliveries_on_sim() {
        let mut sim = ring(2);
        let plan = FaultPlan::new().slow_link(0, 0, 1, 500 * MILLIS);
        plan.run_on_sim(&mut sim, 200 * MILLIS);
        // 10 ms cadence + 1 ms latency + 500 ms injected delay: nothing
        // sent by node 0 lands within 200 ms.
        assert_eq!(sim.actor(1).received, 0);
        assert!(sim.actor(0).received >= 8, "reverse direction unaffected");
    }

    #[test]
    fn partition_blocks_both_directions_until_healed() {
        let l = LinkFaults::new();
        assert!(!l.blocked(0, 3));
        let cut = FaultEvent::Partition {
            a: vec![0, 1],
            b: vec![2, 3],
        };
        assert_eq!(cut.apply(&l), None);
        assert!(l.blocked(0, 2) && l.blocked(2, 0));
        assert!(l.blocked(1, 3) && l.blocked(3, 1));
        assert!(!l.blocked(0, 1), "intra-group links stay up");
        assert!(!l.blocked(2, 3));
        l.heal_all();
        assert!(!l.blocked(0, 2));
    }

    #[test]
    fn one_way_blocks_are_asymmetric() {
        let l = LinkFaults::new();
        l.block(&[4], &[5]);
        assert!(l.blocked(4, 5));
        assert!(!l.blocked(5, 4));
    }

    #[test]
    fn slow_link_is_directed_and_removable() {
        let l = LinkFaults::new();
        assert_eq!(l.delay(1, 2), None);
        l.slow_link(1, 2, 30 * MILLIS);
        assert_eq!(l.delay(1, 2), Some(30 * MILLIS));
        assert_eq!(l.delay(2, 1), None);
        l.slow_link(1, 2, 0);
        assert_eq!(l.delay(1, 2), None);
    }
}
