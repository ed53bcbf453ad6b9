//! Joining the prefix outside the three-chain rule: state transfer, WAL replay.

use super::commit::Origin;
use super::ChainState;
use crate::types::{quorum, vote_message, Block, Qc};
use iniva_crypto::multisig::VoteScheme;

/// What a call to [`ChainState::adopt_committed_batch`] did: how many
/// blocks joined the prefix, and how much of the chunk actually reached
/// cryptographic verification — the caller's basis for charging modeled
/// CPU (structurally rejected entries cost no pairing work).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchAdoption {
    /// Blocks grafted onto the committed prefix.
    pub adopted: usize,
    /// Entries that passed the structural pass and entered the batch
    /// verification (0 = no multi-pairing ran at all).
    pub verified_entries: usize,
    /// Total distinct signers across the verified entries.
    pub verified_signers: usize,
}

impl<S: VoteScheme> ChainState<S> {
    /// Replays a committed prefix recovered from durable storage into a
    /// **fresh** chain: the committed height advances, recovered
    /// QCs seed the high QC, the last [`super::RETAINED_COMMITS`] entries
    /// fill the window, and the draft cursor skips past every recovered
    /// batch so a recovered leader never re-proposes requests it already
    /// committed. Recovered blocks are counted in
    /// [`super::ChainMetrics::recovered_blocks`] only — this run's
    /// throughput/latency metrics start from zero, and no request source
    /// settles them.
    ///
    /// Entries must be strictly ascending in height (the committed prefix may
    /// legitimately contain gaps — see [`Self::committed_entry`]);
    /// duplicates and regressions are skipped, matching the WAL reader's
    /// tolerance of duplicated tail appends.
    ///
    /// Nothing is echoed to the commit sink: the prefix is already
    /// durable. Attach the sink after rehydrating (or before — the replay
    /// bypasses it either way).
    pub fn rehydrate(&mut self, commits: Vec<(Block, Option<Qc<S>>)>) {
        self.join_prefix(commits, Origin::Disk);
    }

    /// Grafts a state-transfer chunk onto the prefix with **one** batch
    /// verification: the structural checks run per entry (against the
    /// prefix as it would advance), then every surviving QC verifies under
    /// a single multi-pairing — `1 + #entries` Miller loops and one final
    /// exponentiation instead of two Miller loops and a final
    /// exponentiation per entry. Adoption stops at the first entry that
    /// fails structurally or cryptographically (later entries chain past
    /// a hole the requester cannot trust yet).
    ///
    /// Adopted blocks are durably logged via the sink but counted only in
    /// [`super::ChainMetrics::state_transfer_blocks`] — `committed_blocks`
    /// and the progress curve keep meaning "commits reached through the
    /// protocol", which is what chaos tests assert resumed after a heal.
    pub fn adopt_committed_batch(
        &mut self,
        items: Vec<(Block, Qc<S>)>,
        scheme: &S,
    ) -> BatchAdoption {
        // Structural pass against the prefix as it would advance: a block
        // must sit past the one before it, and its QC must certify exactly
        // it with a quorum of distinct signers. Any height past the prefix
        // is adoptable (not just `+1`): the serving peer's own log may have
        // gaps, or start at its window's floor, and the QC alone proves
        // commitment.
        let needed = quorum(scheme.committee_size());
        let mut height = self.committed_height;
        let mut checked: Vec<(Block, Qc<S>)> = Vec::new();
        let mut msgs: Vec<Vec<u8>> = Vec::new();
        let mut verified_signers = 0usize;
        for (block, qc) in items {
            let signers = qc.signer_count(scheme);
            if block.height <= height
                || qc.block_hash != block.hash()
                || qc.height != block.height
                || signers < needed
            {
                break;
            }
            height = block.height;
            verified_signers += signers;
            msgs.push(vote_message(&block.hash(), qc.view));
            checked.push((block, qc));
        }
        if checked.is_empty() {
            return BatchAdoption::default();
        }
        // One multi-pairing across the chunk: each QC certifies its own
        // message, so every entry is its own single-aggregate group.
        let groups: Vec<(&[u8], &[S::Aggregate])> = msgs
            .iter()
            .zip(&checked)
            .map(|(msg, (_, qc))| (msg.as_slice(), std::slice::from_ref(&qc.agg)))
            .collect();
        // The entries before the first culprit adopt.
        let adopted = scheme
            .verify_batch(&groups)
            .culprits()
            .first()
            .map_or(checked.len(), |&(group, _)| group);
        let verified_entries = checked.len();
        let entries = checked.into_iter().take(adopted);
        self.join_prefix(entries.map(|(b, qc)| (b, Some(qc))).collect(), Origin::Peer);
        BatchAdoption {
            adopted,
            verified_entries,
            verified_signers,
        }
    }
}
