//! The request models behind drafts: synthetic arrivals or a [`RequestSource`].

use super::{batch_end, ChainState, RETAINED_COMMITS};
use crate::types::Block;
use iniva_crypto::multisig::VoteScheme;
use iniva_net::Time;

/// An external supply of client requests backing the proposer's block
/// drafts — the hook a live mempool (`iniva-ingress`) plugs into. When a
/// source is attached ([`ChainState::set_request_source`]) it replaces
/// the synthetic `ns_per_req` arrival model as the block source: `draft`
/// decides how many admitted requests fill a block's sequence range,
/// `committed` settles a committed range and reports each request's
/// submit-to-commit latency on the *source's* clock (the chain's `now`
/// and the source's admission timestamps need not share an epoch), and
/// `release` takes back the range of a block that can no longer commit.
///
/// Blocks keep carrying pure `(batch_start, batch_len)` ranges either
/// way, so the wire format and the committed ≤ admitted ≤ offered
/// accounting invariant are identical in both modes.
pub trait RequestSource: Send + Sync {
    /// Claims up to `max` admitted requests for the contiguous sequence
    /// range beginning at `start`, returning how many were claimed. Each
    /// sequence number names at most one claim: a draft starting below
    /// [`Self::drafted_end`] claims nothing.
    fn draft(&self, start: u64, max: u32) -> u32;

    /// One past the highest sequence number this source has drafted (0
    /// when it keeps no such mark). The chain starts each draft at or
    /// above it, so a range claimed by a block this replica never
    /// received does not leave its drafts empty.
    fn drafted_end(&self) -> u64 {
        0
    }

    /// Settles the committed range `start..start+len` at block `height`,
    /// returning the submit-to-commit latency (ns) of every request in
    /// the range this source still had in flight. A range may settle
    /// fewer than `len` entries (another replica already settled it, or
    /// the source gave part of it up to its own memory bound).
    fn committed(&self, height: u64, start: u64, len: u32) -> Vec<u64>;

    /// Puts the requests `dead` claimed back in the queue: a different
    /// block has joined the committed prefix at `dead.height`, so `dead`
    /// never commits. The chain calls it once per block this replica
    /// drafted that lost its height, and never on a timeout or a view
    /// change alone. Releasing a range twice changes nothing.
    fn release(&self, _dead: &Block) {}
}

impl<S: VoteScheme> ChainState<S> {
    /// Inserts a block (idempotent). Any stored block — own draft or a
    /// validated peer proposal — advances the draft cursor past its
    /// request range, so later drafts never re-batch it.
    pub fn insert_block(&mut self, b: Block) {
        self.draft_cursor = self.draft_cursor.max(batch_end(&b));
        self.blocks.entry(b.hash()).or_insert(b);
    }

    /// Drafts the next block for `view`, batching up to `max_batch` pending
    /// requests that have arrived by `now`. With a request source the
    /// range starts at or past [`RequestSource::drafted_end`], and a
    /// non-empty draft is remembered as this replica's, to be released
    /// if another block commits at its height.
    pub fn draft_block(
        &mut self,
        view: u64,
        proposer: u32,
        now: Time,
        max_batch: u32,
        payload_per_req: u32,
    ) -> Block {
        let (parent_hash, parent_height) = self.high_tip();
        let mut batch_start = self.draft_cursor;
        let mut batch_len = 0u32;
        if let Some(src) = &self.source {
            batch_start = batch_start.max(src.drafted_end());
            batch_len = src.draft(batch_start, max_batch);
        } else if let Some(arrived) = now.checked_div(self.ns_per_req) {
            // Requests 0..=arrived have arrived by `now`; those below the
            // draft cursor are already claimed by in-flight blocks.
            let pending = (arrived + 1).saturating_sub(batch_start);
            batch_len = pending.min(max_batch as u64) as u32;
        }
        let block = Block {
            view,
            height: parent_height + 1,
            parent: parent_hash,
            proposer,
            batch_start,
            batch_len,
            payload_per_req,
        };
        if batch_len > 0 && self.source.is_some() {
            if self.proposed.len() == RETAINED_COMMITS {
                self.proposed.remove(0);
            }
            self.proposed.push((block.height, block.hash()));
        }
        block
    }
}
