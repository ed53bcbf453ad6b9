//! Block store, the chained-HotStuff commit rule and chain metrics.
//!
//! Durability: a [`CommitSink`] plugged into the chain observes every
//! commit (and view entry) *as it happens*, which is how `iniva-storage`'s
//! write-ahead log makes the committed prefix survive a `kill -9` —
//! [`ChainState::rehydrate`] replays the recovered prefix on restart, and
//! [`ChainState::adopt_committed_batch`] lets a lagging replica graft blocks
//! fetched from peers via state transfer directly onto its prefix.
//!
//! Retention: memory holds a *window* of the chain, not the chain. The
//! last [`RETAINED_COMMITS`] committed blocks, each with the certificate
//! that proves it where one was observed, are what state transfer serves,
//! what Carousel samples its recent leaders from and where the committed
//! tip's QC comes from; the block store keeps that window plus the
//! uncommitted blocks above it. Every commit step — three-chain commit,
//! state-transfer adoption, WAL replay — slides the window and drops every
//! block below its oldest entry, forks included, and every fork at a
//! height the step committed (a dead fork this replica drafted hands its
//! requests back to the [`RequestSource`] there), so memory stays flat
//! however long a replica runs (the 21-replica `tree21` benchmark process
//! on a 2-vCPU host peaked at 41.4 MB at 30 s and 68.3 MB at 60 s keeping
//! the whole chain; with the window, 23.6 and 30.5 MB). The WAL keeps
//! everything; a WAL longer than the window recovers into the window.
//!
//! Below the window a responder serves what it holds: a requester more
//! than a window behind adopts the responder's window across the gap
//! (adoption accepts any height past its prefix, because the QC alone
//! proves commitment), exactly as it would past a hole in a peer's log.
//!
//! Seams: `window` (the retained prefix and pruning), `draft` (request
//! models), `commit` (the three-chain rule and the one commit step every
//! path ends in), `adopt` (state transfer, WAL replay) and `metrics`. This
//! module holds the state, its hooks and its reads.

mod adopt;
mod commit;
mod draft;
mod metrics;
mod window;

pub use adopt::BatchAdoption;
pub use commit::CommitSink;
pub use draft::RequestSource;
pub use metrics::{ChainMetrics, COMMIT_POINTS_CAP, LATENCY_SAMPLE_CAP};
pub use window::RETAINED_COMMITS;

use crate::audit::CommitAudit;
use crate::types::{Block, BlockHash, Qc, GENESIS_HASH};
use iniva_crypto::multisig::VoteScheme;
use iniva_net::Time;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use window::Retained;

/// The replica-local chain: stores blocks, tracks the highest QC and applies
/// the chained-HotStuff three-chain commit rule.
pub struct ChainState<S: VoteScheme> {
    blocks: HashMap<BlockHash, Block>,
    /// QC over the highest block seen (`None` until the first QC, which
    /// conceptually certifies genesis).
    highest_qc: Option<Qc<S>>,
    committed_height: u64,
    /// Request arrival model: arrival_time(i) = i * ns_per_req.
    ns_per_req: Time,
    /// Proposer-side draft cursor: the end of the highest request range
    /// seen in *any* stored block, committed (each is stored) or not.
    /// Drafting from it keeps the 2-view commit pipeline from
    /// re-batching ranges that are drafted but not yet committed — without
    /// it, committed throughput exceeds the offered rate at saturation
    /// (each request would be counted by up to three overlapping blocks).
    ///
    /// A range batched by a block whose view fails is skipped for good.
    /// Under the synthetic model those requests are lost (≤ `max_batch`
    /// per disseminated-then-failed view, open-loop clients that would
    /// have to resubmit); a request source gets them back through
    /// [`RequestSource::release`] once a conflicting block commits, and
    /// re-drafts them under fresh sequence numbers. The conservative
    /// direction — committed ≤ offered — is the invariant the metrics
    /// rely on.
    draft_cursor: u64,
    /// The cluster's commit audit and this replica's id in it: every
    /// block joining the prefix is reported there. Never read by the
    /// protocol.
    audit: Option<(Arc<CommitAudit>, u32)>,
    /// QCs observed for not-yet-committed blocks, keyed by certified block
    /// hash; pruned at each commit. When a block commits, its certificate
    /// moves into `window` so state transfer can serve it as proof.
    seen_qcs: HashMap<BlockHash, Qc<S>>,
    /// The last [`RETAINED_COMMITS`] committed blocks, ascending by height
    /// (not necessarily dense). Bodies live in `blocks`, which holds
    /// nothing below the oldest entry.
    window: VecDeque<Retained<S>>,
    /// Durability hook: observes commits and view entries as they happen.
    sink: Option<Box<dyn CommitSink<S> + Send>>,
    /// Client-request supply: when set, drafts pull admitted requests
    /// from here instead of the synthetic arrival model.
    source: Option<Arc<dyn RequestSource>>,
    /// `(height, hash)` of the blocks this replica drafted with requests
    /// claimed from `source` whose height has not committed yet: the
    /// blocks it releases if another block commits at their height. At
    /// most [`RETAINED_COMMITS`], oldest dropped first (a replica that
    /// keeps proposing while nothing commits leaves those to the source's
    /// own bound).
    proposed: Vec<(u64, BlockHash)>,
    /// Metrics.
    pub metrics: ChainMetrics,
}

impl<S: VoteScheme> ChainState<S> {
    /// Creates a chain containing only genesis. `request_rate_per_sec` models
    /// the open-loop client workload (0 = no clients).
    pub fn new(request_rate_per_sec: u64) -> Self {
        let mut blocks = HashMap::new();
        blocks.insert(GENESIS_HASH, Block::genesis());
        ChainState {
            blocks,
            highest_qc: None,
            committed_height: 0,
            ns_per_req: 1_000_000_000u64
                .checked_div(request_rate_per_sec)
                .unwrap_or(0),
            draft_cursor: 0,
            audit: None,
            seen_qcs: HashMap::new(),
            // Full size up front: grown by doubling, the window's buffer
            // would end at 512 slots for the 257 it ever holds.
            window: VecDeque::with_capacity(RETAINED_COMMITS + 1),
            sink: None,
            source: None,
            proposed: Vec::new(),
            metrics: ChainMetrics::default(),
        }
    }

    /// Attaches a client-request source (a live mempool): subsequent
    /// drafts claim admitted requests from it, commits settle their
    /// ranges against it, and a block drafted here that loses its height
    /// to another commit is released back to it; the synthetic
    /// `request_rate_per_sec` arrival model stops applying.
    pub fn set_request_source(&mut self, source: Arc<dyn RequestSource>) {
        self.source = Some(source);
    }

    /// Attaches a durability sink: every subsequent commit (and view entry
    /// reported via [`Self::note_view`]) is handed to it synchronously.
    pub fn set_commit_sink(&mut self, sink: Box<dyn CommitSink<S> + Send>) {
        self.sink = Some(sink);
    }

    /// Reports every block that joins the committed prefix from now on —
    /// through the three-chain rule, state transfer or WAL replay — to
    /// `audit` as replica `member`'s.
    pub fn set_commit_audit(&mut self, audit: Arc<CommitAudit>, member: u32) {
        self.audit = Some((audit, member));
    }

    /// Reports a view entry to the attached sink (no-op without one).
    pub fn note_view(&mut self, view: u64) {
        if let Some(sink) = &mut self.sink {
            sink.entered_view(view);
        }
    }

    /// `(hash, height)` of the chain tip certified by the highest known QC
    /// (genesis if none). Always available even when the certified block
    /// itself has not been delivered (a replica may learn a QC from the
    /// next proposal without ever seeing the block it certifies).
    pub fn high_tip(&self) -> (BlockHash, u64) {
        match &self.highest_qc {
            None => (GENESIS_HASH, 0),
            Some(qc) => (qc.block_hash, qc.height),
        }
    }

    /// The highest QC, if any.
    pub fn highest_qc(&self) -> Option<&Qc<S>> {
        self.highest_qc.as_ref()
    }

    /// The *verified* certificate the chain already holds for
    /// `(view, block_hash)` — the high QC or one of the certificates of
    /// uncommitted blocks. Everything stored there passed verification (or
    /// was assembled locally from verified shares), so a carrier of the
    /// same `(view, hash)` teaches nothing and needs no second pairing.
    pub fn held_qc(&self, view: u64, block_hash: &BlockHash) -> Option<&Qc<S>> {
        let same = |q: &&Qc<S>| q.view == view && q.block_hash == *block_hash;
        self.highest_qc
            .as_ref()
            .filter(same)
            .or_else(|| self.seen_qcs.get(block_hash).filter(same))
    }

    /// Highest committed height.
    pub fn committed_height(&self) -> u64 {
        self.committed_height
    }

    /// The QC certifying the latest *committed* block, if retained — the
    /// stable anchor Carousel derives its leader pool from. Unlike the
    /// volatile high QC (which diverges across replicas during failed
    /// views), the committed prefix is converged by state transfer, so
    /// every replica sharing it derives the same pool. `None` until the
    /// first commit, or if the tip committed without an observed QC (a
    /// 2ND-CHANCE catch-up can do that) — callers keep their previous pool.
    pub fn committed_tip_qc(&self) -> Option<&Qc<S>> {
        self.window
            .back()
            .filter(|e| e.height == self.committed_height)?
            .qc
            .as_ref()
    }

    /// Proposers of the `count` committed blocks at heights in
    /// `(boundary - count, boundary]`, oldest first — the recent-leader
    /// window Carousel excludes (Cohen et al.), read from the retention
    /// window, so identical on every replica that shares the committed
    /// prefix. This is the epoch-sampled window: callers pass a `boundary`
    /// quantized to a fixed epoch length, so the result only changes when
    /// the committed height crosses an epoch boundary. A window that slid
    /// with *every* commit would differ between two replicas whose
    /// committed heights are transiently skewed (one missed a proposal and
    /// is catching up via state transfer) — and a divergent window means
    /// divergent leaders and failed views. Quantizing the boundary keeps
    /// the window identical across replicas whose skew stays inside one
    /// epoch. Heights the window has no entry for are skipped.
    pub fn committed_proposers_ending_at(&self, boundary: u64, count: usize) -> Vec<u32> {
        // The window is ascending by height: locate the sample's two ends.
        let w = &self.window;
        let start = w.partition_point(|e| e.height.saturating_add(count as u64) <= boundary);
        let end = w.partition_point(|e| e.height <= boundary);
        w.range(start..end)
            .filter_map(|e| self.blocks.get(&e.hash).map(|b| b.proposer))
            .collect()
    }

    /// Looks up a block.
    pub fn block(&self, h: &BlockHash) -> Option<&Block> {
        self.blocks.get(h)
    }

    /// Whether `qc` certifies a higher block than the high QC, and so replaces it.
    fn outranks_high_qc(&self, qc: &Qc<S>) -> bool {
        self.highest_qc
            .as_ref()
            .is_none_or(|old| qc.height > old.height)
    }
}

/// One past the last request `block` batches. Saturating: the range is
/// peer-supplied, and a hostile `batch_start` near `u64::MAX` must pin the
/// cursor, not overflow it.
fn batch_end(block: &Block) -> u64 {
    block.batch_start.saturating_add(block.batch_len as u64)
}

#[cfg(test)]
mod tests;
