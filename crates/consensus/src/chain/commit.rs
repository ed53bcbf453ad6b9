//! The three-chain rule, and the one commit step every block joins by.

use super::ChainState;
use crate::types::{Block, Qc};
use iniva_crypto::multisig::VoteScheme;
use iniva_net::Time;

/// Observer of durable chain events, called synchronously **inside** the
/// commit step: when `committed` returns, the blocks are expected to be as
/// durable as the sink makes them (the WAL sink in `iniva-storage` fsyncs
/// before returning). Implementations must be fail-stop on persistence
/// errors — a replica that keeps voting past state it cannot remember
/// after a crash is the safety violation durability exists to prevent.
pub trait CommitSink<S: VoteScheme> {
    /// A chain of blocks joined the committed prefix in one step (the
    /// three-chain rule can commit a tip plus several ancestors at once,
    /// state transfer adopts a chunk), ascending by height; each block's
    /// certificate rides with it when the replica had observed one by
    /// commit time. Durable sinks persist the whole batch under a
    /// **single** sync — with BLS-sized QC records, per-block fsyncs would
    /// multiply the commit path's sync stalls. The durability contract is
    /// batch-level: when this returns, *every* entry is as durable as the
    /// sink makes it.
    fn committed(&mut self, items: &[(Block, Option<Qc<S>>)]);

    /// The replica entered `view` (for restoring pacemaker position on
    /// recovery). Default: ignored.
    fn entered_view(&mut self, _view: u64) {}
}

/// Where the blocks of one commit step come from: the three-chain rule at
/// a time, state transfer from a peer, or WAL replay. Only `Protocol`
/// commits settle with the request source and count as this run's
/// commits; `Disk` blocks are durable already and bypass the sink.
pub(super) enum Origin {
    Protocol(Time),
    Peer,
    Disk,
}

impl<S: VoteScheme> ChainState<S> {
    /// Records a freshly formed or observed QC; updates the high QC and runs
    /// the three-chain commit rule. Returns the newly committed height, if
    /// any.
    ///
    /// Three-chain rule (chained HotStuff): a QC for block `b` with
    /// `b.parent = b1`, `b1.parent = b2` and consecutive views
    /// (`b.view == b1.view + 1 == b2.view + 2`) commits `b2` and its
    /// ancestors.
    pub fn on_qc(&mut self, qc: Qc<S>, now: Time, scheme: &S) -> Option<u64> {
        self.metrics.qc_signers_sum += qc.signer_count(scheme) as u64;
        self.metrics.qc_count += 1;
        // Remember the certificate for the block it certifies: if that
        // block later commits, the QC moves into the window so state
        // transfer can serve it as proof of the committed prefix.
        if qc.height > self.committed_height {
            self.seen_qcs
                .entry(qc.block_hash)
                .or_insert_with(|| qc.clone());
        }
        if !self.outranks_high_qc(&qc) {
            return None;
        }
        let certified = qc.block_hash;
        self.highest_qc = Some(qc);
        let b = self.blocks.get(&certified)?;
        let b1 = self.blocks.get(&b.parent)?;
        let b2 = self.blocks.get(&b1.parent)?;
        if b.view == b1.view + 1 && b1.view == b2.view + 1 && b2.height > self.committed_height {
            self.commit_chain(b2.clone(), now);
            return Some(self.committed_height);
        }
        None
    }

    fn commit_chain(&mut self, tip: Block, now: Time) {
        let mut items = Vec::new();
        let mut cur = Some(tip);
        while let Some(b) = cur.filter(|b| b.height > self.committed_height) {
            cur = self.blocks.get(&b.parent).cloned();
            let qc = self.seen_qcs.remove(&b.hash());
            items.push((b, qc));
        }
        items.reverse();
        self.join_prefix(items, Origin::Protocol(now));
    }

    /// The commit step: `items` join the committed prefix, oldest first.
    /// They reach the sink under one call *before* any is acted on; each
    /// then skips if it is not above the prefix (a WAL's duplicated tail
    /// append), is counted by origin, may raise the high QC and enters the
    /// window; last, the step prunes what can no longer commit.
    pub(super) fn join_prefix(&mut self, items: Vec<(Block, Option<Qc<S>>)>, origin: Origin) {
        let since = self.committed_height;
        if !matches!(origin, Origin::Disk) {
            if let Some(sink) = &mut self.sink {
                sink.committed(&items);
            }
        }
        for (block, qc) in items {
            if block.height <= self.committed_height {
                continue;
            }
            match origin {
                Origin::Protocol(now) => self.count_commit(&block, now),
                Origin::Peer => self.metrics.state_transfer_blocks += 1,
                Origin::Disk => self.metrics.recovered_blocks += 1,
            }
            if let Some(qc) = qc.as_ref().filter(|qc| self.outranks_high_qc(qc)) {
                self.highest_qc = Some(qc.clone());
            }
            self.record_commit(block, qc);
        }
        // Certificates for blocks at or below the new committed height
        // can no longer graduate; drop them so the map stays bounded by
        // the number of in-flight (uncommitted) blocks.
        self.seen_qcs
            .retain(|_, q| q.height > self.committed_height);
        self.prune(since);
    }
}
