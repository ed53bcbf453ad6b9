//! The retained window of the committed prefix, and the reads it serves.

use super::ChainState;
use crate::leader::CAROUSEL_WINDOW_EPOCH;
use crate::types::{Block, BlockHash, Qc};
use iniva_crypto::multisig::VoteScheme;

/// Committed blocks (with their certificates) kept in memory. It must
/// cover what the protocol reads back from the committed prefix:
/// Carousel's recent-leader sample, `f` heights ending up to
/// [`CAROUSEL_WINDOW_EPOCH`] below the tip (`f + 8 ≤ 256` up to 745
/// replicas), and the three-chain rule's 3. Beyond that it is the
/// in-memory catch-up horizon: ≈ 4.7 s of `tree21` commits. A fixed
/// constant, not an option — the WAL, not this window, is the record.
pub const RETAINED_COMMITS: usize = 256;

const _: () = assert!(RETAINED_COMMITS as u64 > CAROUSEL_WINDOW_EPOCH + 3);

/// One committed block as the retention window holds it.
pub(super) struct Retained<S: VoteScheme> {
    pub(super) height: u64,
    pub(super) hash: BlockHash,
    /// The certificate proving the commit, when one was observed.
    pub(super) qc: Option<Qc<S>>,
}

impl<S: VoteScheme> ChainState<S> {
    /// Records one committed block: the prefix moves to its height, it is
    /// reported to the audit and joins the window (its body goes to
    /// `blocks`), and a full window drops its oldest entry's body. The
    /// commit step runs [`Self::prune`] once after its last block.
    pub(super) fn record_commit(&mut self, block: Block, qc: Option<Qc<S>>) {
        let (height, hash) = (block.height, block.hash());
        self.committed_height = height;
        if let Some((audit, member)) = &self.audit {
            audit.record(*member, height, hash);
        }
        self.insert_block(block);
        self.window.push_back(Retained { height, hash, qc });
        if self.window.len() > RETAINED_COMMITS {
            if let Some(old) = self.window.pop_front() {
                self.blocks.remove(&old.hash);
            }
        }
    }

    /// Ends a commit step that moved the prefix up from `since`. Drops
    /// every stored block below the window's oldest entry — blocks that
    /// slid out of it and old forks (a forged proposal stored against a
    /// held QC included) — and every block that lost its height to this
    /// step: one at a height in `since + 1..=committed_height` where the
    /// window holds a different block. Those are the dead forks, and the
    /// ones this replica drafted go back to the request source. A height
    /// the step skipped (an ancestor never delivered, a state-transfer
    /// gap) proves nothing, so its blocks stay until the floor passes.
    /// What stays is the window plus the uncommitted blocks above it.
    ///
    /// One pass over the store, and a window lookup only for the few
    /// blocks at the heights this step committed: every commit of every
    /// replica runs it.
    pub(super) fn prune(&mut self, since: u64) {
        let Some(floor) = self.window.front().map(|e| e.height) else {
            return;
        };
        let committed = self.committed_height;
        let (window, source, proposed) = (&self.window, &self.source, &mut self.proposed);
        self.blocks.retain(|hash, b| {
            if b.height <= since || b.height > committed {
                return b.height >= floor;
            }
            let Ok(idx) = window.binary_search_by_key(&b.height, |e| e.height) else {
                return b.height >= floor;
            };
            if window[idx].hash == *hash {
                return true;
            }
            if let Some(i) = proposed.iter().position(|(_, h)| h == hash) {
                proposed.swap_remove(i);
                if let Some(src) = source {
                    src.release(b);
                }
            }
            false
        });
        self.proposed.retain(|&(height, _)| height > committed);
    }

    /// A window entry as a provable pair, if both the body and a
    /// certificate are held.
    fn provable<'a>(&'a self, entry: &'a Retained<S>) -> Option<(&'a Block, &'a Qc<S>)> {
        Some((self.blocks.get(&entry.hash)?, entry.qc.as_ref()?))
    }

    /// The committed block at `height` together with its certificate, if
    /// the window holds both — the lookup a state-transfer responder
    /// serves from. Heights below the window or committed without an
    /// observed QC return `None` (the requester adopts across the gap,
    /// asks someone else or catches up via 2ND-CHANCE delivery). The
    /// window is ascending but not necessarily dense: committing a tip
    /// whose ancestors were never delivered records only the blocks this
    /// replica actually has.
    pub fn committed_entry(&self, height: u64) -> Option<(&Block, &Qc<S>)> {
        let idx = self
            .window
            .binary_search_by_key(&height, |e| e.height)
            .ok()?;
        self.provable(&self.window[idx])
    }

    /// Up to `max` provable committed entries from `from_height` upward,
    /// ascending — the chunk a state-transfer responder ships. Heights the
    /// replica cannot prove (no retained block or QC) are skipped rather
    /// than ending the chunk, so one gap in the responder's own window
    /// does not strand a requester behind it forever; a `from_height`
    /// below the window starts at the window's oldest entry.
    pub fn committed_range(&self, from_height: u64, max: usize) -> Vec<(&Block, &Qc<S>)> {
        let start = self.window.partition_point(|e| e.height < from_height);
        self.window
            .range(start..)
            .filter_map(|e| self.provable(e))
            .take(max)
            .collect()
    }
}
