//! A bounded seen-message cache.
//!
//! Outbound lanes stamp every frame with a per-sender sequence number; the
//! receive path records `(sender, epoch, seq)` triples and drops
//! duplicates. The transport itself never repeats a triple: a lane that
//! redials writes again only the frames it never fully wrote, which the
//! receiver never parsed. Duplicates come from hand-made or hostile
//! frames, which may replay a triple on any connection. One honest case
//! looks alike: a replica *process* restarted by `kill -9` starts again at
//! epoch 0, so a frame whose sequence number the filter still remembers
//! from the previous process is dropped — an honest frame lost, not a
//! duplicate.
//!
//! The *epoch* is the sender's incarnation counter from the connection
//! handshake: a replica healed from an injected crash restarts its
//! sequence numbers under a bumped epoch, so its fresh `(epoch', 1)`
//! frames are distinct from the pre-crash `(epoch, 1)` entries and are
//! never falsely deduped.
//!
//! The cache is a FIFO ring over a hash set: O(1) insert/lookup, strictly
//! bounded memory, oldest entries evicted first.

use iniva_net::NodeId;
use std::collections::{HashSet, VecDeque};

/// One remembered delivery: sender, sender incarnation epoch, sequence.
type Key = (NodeId, u32, u64);

/// Bounded `(sender, epoch, sequence)` duplicate filter.
#[derive(Debug)]
pub struct DedupCache {
    seen: HashSet<Key>,
    order: VecDeque<Key>,
    capacity: usize,
}

impl DedupCache {
    /// Creates a cache remembering the most recent `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "dedup cache needs capacity");
        DedupCache {
            seen: HashSet::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Records `(from, epoch, seq)`. Returns `true` if the triple is new
    /// (deliver) and `false` if it was already seen (drop).
    pub fn insert(&mut self, from: NodeId, epoch: u32, seq: u64) -> bool {
        if !self.seen.insert((from, epoch, seq)) {
            return false;
        }
        // Evict before recording: a full ring that pushed first would
        // outgrow its buffer, and the deque would double it.
        if self.order.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.seen.remove(&oldest);
            }
        }
        self.order.push_back((from, epoch, seq));
        true
    }

    /// Entries currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_delivery_accepted_duplicate_dropped() {
        let mut c = DedupCache::new(8);
        assert!(c.insert(1, 0, 10));
        assert!(!c.insert(1, 0, 10));
        assert!(
            c.insert(2, 0, 10),
            "same seq from another sender is distinct"
        );
        assert!(c.insert(1, 0, 11));
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut c = DedupCache::new(3);
        for seq in 0..3 {
            assert!(c.insert(0, 0, seq));
        }
        assert!(c.insert(0, 0, 3), "new entry");
        assert_eq!(c.len(), 3);
        // seq 0 was evicted: a replay of it is (wrongly but boundedly)
        // accepted again, while the still-cached ones are dropped.
        assert!(c.insert(0, 0, 0));
        assert!(!c.insert(0, 0, 2));
    }

    #[test]
    fn cache_never_grows_past_its_bound() {
        let mut c = DedupCache::new(16);
        let ring = c.order.capacity();
        for seq in 0..10_000u64 {
            c.insert(3, (seq % 5) as u32, seq);
            assert!(c.len() <= 16);
        }
        assert_eq!(c.len(), 16);
        assert_eq!(c.order.capacity(), ring, "the ring kept its buffer");
    }

    #[test]
    fn replay_across_reconnect_same_epoch_dropped() {
        // A frame replayed on a new connection under the *same* epoch (a
        // hand-made or hostile sender; a lane never does this): still a
        // duplicate.
        let mut c = DedupCache::new(64);
        assert!(c.insert(5, 2, 41));
        // ... connection drops, the sender redials, replays seq 41 ...
        assert!(!c.insert(5, 2, 41));
        assert!(c.insert(5, 2, 42));
    }

    #[test]
    fn healed_replica_with_fresh_epoch_not_falsely_deduped() {
        let mut c = DedupCache::new(64);
        // First incarnation sends seqs 1..=3.
        for seq in 1..=3 {
            assert!(c.insert(7, 0, seq));
        }
        // Healed incarnation restarts its sequence space under epoch 1:
        // the same numeric seqs must be delivered, not deduped.
        for seq in 1..=3 {
            assert!(c.insert(7, 1, seq), "epoch 1 seq {seq} falsely deduped");
        }
        // But replays *within* the new epoch are still dropped.
        assert!(!c.insert(7, 1, 2));
        // And a late replay from the dead epoch stays dropped too.
        assert!(!c.insert(7, 0, 3));
    }
}
