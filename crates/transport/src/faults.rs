//! Fault injection for the live transport: crash/heal a node, partition
//! or slow individual links.
//!
//! The simulator has had `Sim::crash()` since the seed; this module gives
//! the socket runtime the same surface so the paper's resilience sweeps
//! (Fig. 4) can run where they matter — over real connections. Faults are
//! switches the transport and runtime read, so a single test drives
//! crash → partition → heal sequences from one plan without racing the OS:
//!
//! * [`NodeFaults`] is one node's crash switch. While down, the node's
//!   transport neither sends (queued frames are discarded by the lanes)
//!   nor delivers (frames read off its sockets are dropped), and its
//!   [`Runtime`] discards due timers — exactly the simulator's
//!   crashed-node semantics. [`NodeFaults::heal`] bumps the node's
//!   *incarnation epoch*: outbound sequence numbers restart and every lane
//!   re-handshakes, so peers' duplicate filters treat the healed node as a
//!   fresh sender. A replica with a write-ahead log reads the same switch
//!   as its process's life: a kill tears its runtime and sockets down, and
//!   a heal rebuilds them from disk ([`ClusterBuilder::wal`]).
//! * [`LinkFaults`] is the cluster-wide link filter, shared by every
//!   in-process transport: directed `(from, to)` pairs can be blocked
//!   (checked on the send path *and* on inbound connections, so asymmetric
//!   partitions work) or slowed by a per-frame delay in the outbound lane.
//!
//! [`Runtime`]: crate::runtime::Runtime
//! [`ClusterBuilder::wal`]: crate::cluster::ClusterBuilder::wal

use iniva_net::NodeId;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One node's crash/heal switch plus its incarnation epoch.
#[derive(Debug, Default)]
pub struct NodeFaults {
    down: AtomicBool,
    epoch: AtomicU32,
}

impl NodeFaults {
    /// A fresh, healthy node (epoch 0).
    pub fn new() -> Self {
        NodeFaults::default()
    }

    /// A healthy node whose first incarnation is `epoch`. A process that
    /// starts again after a crash takes a new one, so peers' duplicate
    /// filters do not mistake its restarted sequence numbers for replays.
    pub(crate) fn starting_at(epoch: u32) -> Self {
        NodeFaults {
            epoch: AtomicU32::new(epoch),
            ..NodeFaults::default()
        }
    }

    /// Crashes the node: no sends, no deliveries, no timers until healed.
    pub fn kill(&self) {
        self.down.store(true, Ordering::SeqCst);
    }

    /// Heals the node under a fresh incarnation epoch.
    pub fn heal(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.down.store(false, Ordering::SeqCst);
    }

    /// True while the node is crashed.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// The current incarnation epoch (the first, 0 unless started at
    /// another, until the first heal).
    pub fn epoch(&self) -> u32 {
        self.epoch.load(Ordering::SeqCst)
    }
}

/// Cluster-wide link fault state, shared across transports.
///
/// `active` short-circuits the per-frame checks: in fault-free operation
/// (every benchmark and non-chaos test) the hot path costs one relaxed
/// atomic load, no lock.
#[derive(Debug, Default)]
pub struct LinkFaults {
    active: AtomicBool,
    blocked: Mutex<HashSet<(NodeId, NodeId)>>,
    delays: Mutex<HashMap<(NodeId, NodeId), Duration>>,
}

impl LinkFaults {
    /// A fault-free link map.
    pub fn new() -> Self {
        LinkFaults::default()
    }

    fn refresh_active(&self) {
        let any = !self.blocked.lock().expect("blocked lock").is_empty()
            || !self.delays.lock().expect("delays lock").is_empty();
        self.active.store(any, Ordering::SeqCst);
    }

    /// Blocks the directed link `from → to` (frames are dropped, counted
    /// in `TransportStats::faults_dropped`).
    pub fn block_one_way(&self, from: NodeId, to: NodeId) {
        self.blocked
            .lock()
            .expect("blocked lock")
            .insert((from, to));
        self.active.store(true, Ordering::SeqCst);
    }

    /// Symmetrically partitions group `a` from group `b`: every cross
    /// link, both directions.
    pub fn partition(&self, a: &[NodeId], b: &[NodeId]) {
        let mut blocked = self.blocked.lock().expect("blocked lock");
        for &x in a {
            for &y in b {
                blocked.insert((x, y));
                blocked.insert((y, x));
            }
        }
        drop(blocked);
        self.active.store(true, Ordering::SeqCst);
    }

    /// Removes every blocked link and every injected delay.
    pub fn heal_all(&self) {
        self.blocked.lock().expect("blocked lock").clear();
        self.delays.lock().expect("delays lock").clear();
        self.active.store(false, Ordering::SeqCst);
    }

    /// Injects `delay` before every frame shipped on `from → to`
    /// (`Duration::ZERO` removes the injection).
    ///
    /// The lane holds back one frame at a time, so the delay also
    /// **serializes** the link — throughput caps near `1/delay`. This
    /// models a slow, congested link; the simulator's `SlowLink` instead
    /// adds pure propagation delay (frames overlap, throughput
    /// unchanged), so scope cross-backend comparisons of slow-link
    /// scenarios accordingly.
    pub fn slow_link(&self, from: NodeId, to: NodeId, delay: Duration) {
        let mut delays = self.delays.lock().expect("delays lock");
        if delay.is_zero() {
            delays.remove(&(from, to));
        } else {
            delays.insert((from, to), delay);
        }
        drop(delays);
        self.refresh_active();
    }

    /// True if frames on `from → to` must be dropped.
    pub fn blocked(&self, from: NodeId, to: NodeId) -> bool {
        // ORDER: fast-path gate only; fault injection promises no
        // happens-before with in-flight frames, and a stale read merely
        // delays when an injected fault takes effect by one frame.
        if !self.active.load(Ordering::Relaxed) {
            return false;
        }
        crate::reactor::relock(&self.blocked).contains(&(from, to))
    }

    /// The injected delay on `from → to`, if any.
    pub fn delay(&self, from: NodeId, to: NodeId) -> Option<Duration> {
        // ORDER: fast-path gate only; see `blocked`.
        if !self.active.load(Ordering::Relaxed) {
            return None;
        }
        crate::reactor::relock(&self.delays)
            .get(&(from, to))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_heal_bumps_epoch() {
        let f = NodeFaults::new();
        assert!(!f.is_down());
        assert_eq!(f.epoch(), 0);
        f.kill();
        assert!(f.is_down());
        assert_eq!(f.epoch(), 0, "kill alone keeps the incarnation");
        f.heal();
        assert!(!f.is_down());
        assert_eq!(f.epoch(), 1);
        f.kill();
        f.heal();
        assert_eq!(f.epoch(), 2);
    }

    #[test]
    fn partition_blocks_both_directions_until_healed() {
        let l = LinkFaults::new();
        assert!(!l.blocked(0, 3));
        l.partition(&[0, 1], &[2, 3]);
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
        l.block_one_way(4, 5);
        assert!(l.blocked(4, 5));
        assert!(!l.blocked(5, 4));
    }

    #[test]
    fn slow_link_is_directed_and_removable() {
        let l = LinkFaults::new();
        assert_eq!(l.delay(1, 2), None);
        l.slow_link(1, 2, Duration::from_millis(30));
        assert_eq!(l.delay(1, 2), Some(Duration::from_millis(30)));
        assert_eq!(l.delay(2, 1), None);
        l.slow_link(1, 2, Duration::ZERO);
        assert_eq!(l.delay(1, 2), None);
    }
}
