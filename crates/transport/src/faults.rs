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
//! * [`LinkFaults`] is the link-fault state of `iniva_net::faults`, the
//!   one the simulator reads, shared here by every in-process transport:
//!   a blocked `(from, to)` link is checked on the send path *and* on
//!   inbound connections, so asymmetric partitions work; a slowed one
//!   holds each frame in the outbound lane for the link's delay after
//!   admitting it, so frames overlap in flight as on the simulator.
//!
//! [`Runtime`]: crate::runtime::Runtime
//! [`ClusterBuilder::wal`]: crate::cluster::ClusterBuilder::wal

pub use iniva_net::faults::LinkFaults;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

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
}
