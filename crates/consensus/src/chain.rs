//! Block store, the chained-HotStuff commit rule and chain metrics.
//!
//! Durability: a [`CommitSink`] plugged into the chain observes every
//! commit (and view entry) *as it happens*, which is how `iniva-storage`'s
//! write-ahead log makes the committed prefix survive a `kill -9` —
//! [`ChainState::rehydrate`] replays the recovered prefix on restart, and
//! [`ChainState::adopt_committed`] lets a lagging replica graft blocks
//! fetched from peers via state transfer directly onto its prefix.
//!
//! Retention: memory holds a *window* of the chain, not the chain. The
//! last [`RETAINED_COMMITS`] committed blocks, each with the certificate
//! that proves it where one was observed, are what state transfer serves,
//! what Carousel samples its recent leaders from and where the committed
//! tip's QC comes from; the block store keeps that window plus the
//! uncommitted blocks above it. Every commit step — three-chain commit,
//! state-transfer adoption, WAL replay — slides the window and drops every
//! block below its oldest entry, forks included, so memory stays flat
//! however long a replica runs (the 21-replica `tree21` benchmark process
//! on a 2-vCPU host peaked at 41.4 MB at 30 s and 68.3 MB at 60 s keeping
//! the whole chain; with the window, 23.6 and 30.5 MB). The WAL keeps
//! everything; a WAL longer than the window recovers into the window.
//!
//! Below the window a responder serves what it holds: a requester more
//! than a window behind adopts the responder's window across the gap
//! (adoption accepts any height past its prefix, because the QC alone
//! proves commitment), exactly as it would past a hole in a peer's log.

use crate::audit::CommitAudit;
use crate::leader::CAROUSEL_WINDOW_EPOCH;
use crate::types::{quorum, vote_message, Block, BlockHash, Qc, GENESIS_HASH};
use iniva_crypto::multisig::VoteScheme;
use iniva_net::Time;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Cap on recorded per-request latency samples (for percentile metrics);
/// past it only the running sum continues, so long simulator runs don't
/// grow without bound while short live-cluster runs get exact percentiles.
pub const LATENCY_SAMPLE_CAP: usize = 100_000;

/// Cap on the recorded progress curve ([`ChainMetrics::commit_points`]):
/// past it the curve stops growing.
pub const COMMIT_POINTS_CAP: usize = 65_536;

/// Committed blocks (with their certificates) kept in memory. It must
/// cover what the protocol reads back from the committed prefix:
/// Carousel's recent-leader sample, `f` heights ending up to
/// [`CAROUSEL_WINDOW_EPOCH`] below the tip (`f + 8 ≤ 256` up to 745
/// replicas), and the three-chain rule's 3. Beyond that it is the
/// in-memory catch-up horizon: ≈ 4.7 s of `tree21` commits. A fixed
/// constant, not an option — the WAL, not this window, is the record.
pub const RETAINED_COMMITS: usize = 256;

const _: () = assert!(RETAINED_COMMITS as u64 > CAROUSEL_WINDOW_EPOCH + 3);

/// An external supply of client requests backing the proposer's block
/// drafts — the hook a live mempool (`iniva-ingress`) plugs into. When a
/// source is attached ([`ChainState::set_request_source`]) it replaces
/// the synthetic `ns_per_req` arrival model as the block source: `draft`
/// decides how many admitted requests fill a block's sequence range, and
/// `committed` settles a committed range and reports each request's
/// submit-to-commit latency on the *source's* clock (the chain's `now`
/// and the source's admission timestamps need not share an epoch).
///
/// Blocks keep carrying pure `(batch_start, batch_len)` ranges either
/// way, so the wire format and the committed ≤ admitted ≤ offered
/// accounting invariant are identical in both modes.
pub trait RequestSource: Send + Sync {
    /// Claims up to `max` admitted requests for the contiguous sequence
    /// range beginning at `start`, returning how many were claimed.
    /// Ranges claimed for views that later fail are abandoned by the
    /// source — the same open-loop trade-off as the draft cursor.
    fn draft(&self, start: u64, max: u32) -> u32;

    /// Settles the committed range `start..start+len` at block `height`,
    /// returning the submit-to-commit latency (ns) of every request in
    /// the range this source still had in flight. A range may settle
    /// fewer than `len` entries (another replica already settled it, or
    /// part of it was abandoned).
    fn committed(&self, height: u64, start: u64, len: u32) -> Vec<u64>;
}

/// Per-chain metrics harvested by the experiment harness.
#[derive(Debug, Clone, Default)]
pub struct ChainMetrics {
    /// Committed client requests.
    pub committed_reqs: u64,
    /// Sum of request latencies (commit time − arrival time), ns.
    pub latency_sum: u128,
    /// Per-request latency samples (ns), first [`LATENCY_SAMPLE_CAP`] only.
    pub latency_samples: Vec<u64>,
    /// Committed blocks.
    pub committed_blocks: u64,
    /// Sum of distinct signers over all QCs formed/observed.
    pub qc_signers_sum: u64,
    /// Number of QCs counted in `qc_signers_sum`.
    pub qc_count: u64,
    /// Views entered via timeout (failed views).
    pub failed_views: u64,
    /// Total views entered.
    pub total_views: u64,
    /// When the most recent commit landed (ns of run time; 0 = never).
    /// Chaos harnesses assert on this to show a cluster resumed
    /// committing *after* a heal, not merely that totals grew.
    pub last_commit_time: Time,
    /// `(time, committed height)` per commit, ascending (first
    /// [`COMMIT_POINTS_CAP`] commits) — the chain's progress curve.
    pub commit_points: Vec<(Time, u64)>,
    /// Committed blocks rehydrated from a write-ahead log at startup
    /// (excluded from `committed_blocks` and the progress curve: they were
    /// committed by a *previous* incarnation of this replica).
    pub recovered_blocks: u64,
    /// Committed blocks adopted from peers via state transfer (also
    /// excluded from `committed_blocks`/`commit_points`, so those keep
    /// meaning "commits this replica reached through the protocol").
    pub state_transfer_blocks: u64,
    /// How many of `latency_samples` have been fed to the registry
    /// histogram already (see [`ChainMetrics::export`]).
    pub exported_latency_samples: usize,
}

impl ChainMetrics {
    /// Mean request latency in nanoseconds (0 if nothing committed).
    pub fn mean_latency(&self) -> f64 {
        if self.committed_reqs == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.committed_reqs as f64
        }
    }

    /// Median request latency in nanoseconds over the recorded samples
    /// (0 if nothing committed).
    pub fn median_latency(&self) -> f64 {
        if self.latency_samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latency_samples.clone();
        let mid = sorted.len() / 2;
        let (_, m, _) = sorted.select_nth_unstable(mid);
        *m as f64
    }

    /// Mean QC size (distinct signers).
    pub fn mean_qc_size(&self) -> f64 {
        if self.qc_count == 0 {
            0.0
        } else {
            self.qc_signers_sum as f64 / self.qc_count as f64
        }
    }

    /// Fraction of views that failed.
    pub fn failed_view_fraction(&self) -> f64 {
        if self.total_views == 0 {
            0.0
        } else {
            self.failed_views as f64 / self.total_views as f64
        }
    }

    /// Blocks committed at or after `t` (from the recorded progress
    /// curve) — the chaos harness's "did it resume after the heal" hook.
    pub fn commits_since(&self, t: Time) -> u64 {
        self.commit_points
            .iter()
            .filter(|&&(at, _)| at >= t)
            .count() as u64
    }

    /// Mirrors the chain's cumulative stats into `registry` under the
    /// `chain.` prefix, and feeds the recorded per-request latencies
    /// into a `chain.commit_latency_ns` histogram. Counters are stored
    /// (not added), so re-exporting the same metrics is idempotent; the
    /// histogram only ingests samples recorded since the last export.
    pub fn export(&mut self, registry: &iniva_obs::Registry) {
        registry
            .counter("chain.committed_reqs")
            .store(self.committed_reqs);
        registry
            .counter("chain.committed_blocks")
            .store(self.committed_blocks);
        registry
            .counter("chain.failed_views")
            .store(self.failed_views);
        registry
            .counter("chain.total_views")
            .store(self.total_views);
        registry
            .counter("chain.qc_signers_sum")
            .store(self.qc_signers_sum);
        registry.counter("chain.qc_count").store(self.qc_count);
        registry
            .counter("chain.recovered_blocks")
            .store(self.recovered_blocks);
        registry
            .counter("chain.state_transfer_blocks")
            .store(self.state_transfer_blocks);
        let hist = registry.histogram("chain.commit_latency_ns");
        for &ns in &self.latency_samples[self.exported_latency_samples..] {
            hist.record(ns);
        }
        self.exported_latency_samples = self.latency_samples.len();
    }
}

/// Observer of durable chain events, called synchronously **inside** the
/// commit path: when `committed` returns, the block is expected to be as
/// durable as the sink makes it (the WAL sink in `iniva-storage` fsyncs
/// before returning). Implementations must be fail-stop on persistence
/// errors — a replica that keeps voting past state it cannot remember
/// after a crash is the safety violation durability exists to prevent.
pub trait CommitSink<S: VoteScheme> {
    /// `block` joined the committed prefix; `qc` certifies it when the
    /// replica had observed that certificate by commit time.
    fn committed(&mut self, block: &Block, qc: Option<&Qc<S>>);

    /// A chain of blocks joined the committed prefix in one step (the
    /// three-chain rule can commit a tip plus several ancestors at once).
    /// The default forwards each block to [`Self::committed`]; durable
    /// sinks override it to persist the whole batch under a **single**
    /// sync — with BLS-sized QC records, per-block fsyncs would multiply
    /// the commit path's sync stalls. The durability contract is
    /// batch-level: when this returns, *every* entry is as durable as the
    /// sink makes it.
    fn committed_batch(&mut self, items: &[(Block, Option<Qc<S>>)]) {
        for (block, qc) in items {
            self.committed(block, qc.as_ref());
        }
    }

    /// The replica entered `view` (for restoring pacemaker position on
    /// recovery). Default: ignored.
    fn entered_view(&mut self, _view: u64) {}
}

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

/// One committed block as the retention window holds it.
struct Retained<S: VoteScheme> {
    height: u64,
    hash: BlockHash,
    /// The certificate proving the commit, when one was observed.
    qc: Option<Qc<S>>,
}

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
    /// Next uncommitted request sequence number.
    next_req: u64,
    /// Proposer-side draft cursor: the end of the highest request range
    /// seen in *any* stored block, committed or not. Drafting from
    /// `max(next_req, draft_cursor)` keeps the 2-view commit pipeline from
    /// re-batching ranges that are drafted but not yet committed — without
    /// it, committed throughput exceeds the offered rate at saturation
    /// (each request would be counted by up to three overlapping blocks).
    ///
    /// Deliberate trade-off: a range batched by a block whose view fails
    /// is abandoned (≤ `max_batch` requests per disseminated-then-failed
    /// view), modeling open-loop clients whose in-flight requests need
    /// resubmission rather than being replayed by the protocol. The
    /// conservative direction — committed ≤ offered — is the invariant
    /// the metrics rely on.
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
            next_req: 0,
            draft_cursor: 0,
            audit: None,
            seen_qcs: HashMap::new(),
            // Full size up front: grown by doubling, the window's buffer
            // would end at 512 slots for the 257 it ever holds.
            window: VecDeque::with_capacity(RETAINED_COMMITS + 1),
            sink: None,
            source: None,
            metrics: ChainMetrics::default(),
        }
    }

    /// Attaches a client-request source (a live mempool): subsequent
    /// drafts claim admitted requests from it, and commits settle their
    /// ranges against it; the synthetic `request_rate_per_sec` arrival
    /// model stops applying.
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

    /// Mirrors [`ChainMetrics::export`] into `registry`, plus the two
    /// retention gauges: `chain.retained_commits` (entries in the window,
    /// at most [`RETAINED_COMMITS`]) and `chain.retained_blocks` (the block
    /// store: the window plus the uncommitted blocks above it). Stores,
    /// not adds, so re-exporting is idempotent.
    pub fn export(&mut self, registry: &iniva_obs::Registry) {
        self.metrics.export(registry);
        registry
            .gauge("chain.retained_commits")
            .set(self.window.len() as u64);
        registry
            .gauge("chain.retained_blocks")
            .set(self.blocks.len() as u64);
    }

    /// Replays a committed prefix recovered from durable storage into a
    /// **fresh** chain: the committed height advances, recovered
    /// QCs seed the high QC, the last [`RETAINED_COMMITS`] entries fill the
    /// window, and the request cursors skip past every recovered batch so
    /// a recovered leader never re-proposes requests it already committed.
    /// Recovered blocks are counted in [`ChainMetrics::recovered_blocks`]
    /// only — this run's throughput/latency metrics start from zero.
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
        for (block, qc) in commits {
            if block.height <= self.committed_height {
                continue;
            }
            self.metrics.recovered_blocks += 1;
            self.graft(block, qc);
        }
        self.prune_below_window();
    }

    /// Grafts one peer-served committed block onto the prefix (state
    /// transfer): [`Self::adopt_committed_batch`] with a chunk of one.
    /// Returns `true` if the prefix advanced.
    pub fn adopt_committed(&mut self, block: Block, qc: Qc<S>, scheme: &S) -> bool {
        self.adopt_committed_batch(vec![(block, qc)], scheme)
            .adopted
            == 1
    }

    /// Grafts a whole state-transfer chunk onto the prefix with **one**
    /// batch verification: the structural checks of
    /// [`Self::adopt_committed`] run per entry (against the prefix as it
    /// would advance), then every surviving QC verifies under a single
    /// multi-pairing — `1 + #entries` Miller loops and one final
    /// exponentiation instead of two Miller loops and a final
    /// exponentiation per entry. Adoption stops at the first entry that
    /// fails structurally or cryptographically (later entries chain past
    /// a hole the requester cannot trust yet).
    ///
    /// Adopted blocks are durably logged via the sink but counted only in
    /// [`ChainMetrics::state_transfer_blocks`] — `committed_blocks` and
    /// the progress curve keep meaning "commits reached through the
    /// protocol", which is what chaos tests assert resumed after a heal.
    pub fn adopt_committed_batch(
        &mut self,
        items: Vec<(Block, Qc<S>)>,
        scheme: &S,
    ) -> BatchAdoption {
        // Structural pass against the advancing (simulated) prefix.
        let mut height = self.committed_height;
        let mut checked: Vec<(Block, Qc<S>)> = Vec::new();
        let mut msgs: Vec<Vec<u8>> = Vec::new();
        let mut verified_signers = 0usize;
        for (block, qc) in items {
            if !self.adoptable_at(height, &block, &qc, scheme) {
                break;
            }
            height = block.height;
            verified_signers += qc.signer_count(scheme);
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
        let outcome = scheme.verify_batch(&groups);
        let first_bad = outcome
            .culprits()
            .first()
            .map_or(checked.len(), |&(group, _)| group);
        let verified_entries = checked.len();
        // Durability first, for the whole adopted prefix under ONE sink
        // call (a single fsync for a WAL sink — the same batch contract
        // the three-chain commit path uses), then in-memory bookkeeping.
        let adopted_entries: Vec<(Block, Option<Qc<S>>)> = checked
            .into_iter()
            .take(first_bad)
            .map(|(block, qc)| (block, Some(qc)))
            .collect();
        let adopted = adopted_entries.len();
        if let Some(sink) = &mut self.sink {
            sink.committed_batch(&adopted_entries);
        }
        for (block, qc) in adopted_entries {
            self.metrics.state_transfer_blocks += 1;
            self.graft(block, qc);
        }
        self.prune_below_window();
        BatchAdoption {
            adopted,
            verified_entries,
            verified_signers,
        }
    }

    /// Structural adoption checks against an explicit prefix height (the
    /// batch path tracks its own advancing height): the block must sit
    /// past the prefix and the QC must certify exactly this block with a
    /// quorum of distinct signers.
    ///
    /// Any height past the prefix is adoptable (not just `+1`): the
    /// serving peer's own log may have gaps, or start at its window's
    /// floor, and the QC alone proves commitment.
    fn adoptable_at(&self, min_height: u64, block: &Block, qc: &Qc<S>, scheme: &S) -> bool {
        block.height > min_height
            && qc.block_hash == block.hash()
            && qc.height == block.height
            && qc.signer_count(scheme) >= quorum(scheme.committee_size())
    }

    /// Joins `block` to the committed prefix outside the three-chain rule
    /// (WAL replay, state transfer): the prefix moves to its height and
    /// its certificate may raise the high QC.
    fn graft(&mut self, block: Block, qc: Option<Qc<S>>) {
        self.committed_height = block.height;
        if let Some(qc) = &qc {
            if self
                .highest_qc
                .as_ref()
                .is_none_or(|old| qc.height > old.height)
            {
                self.highest_qc = Some(qc.clone());
            }
        }
        self.record_commit(block, qc);
    }

    /// Records one committed block: the request cursor skips its batch, it
    /// is reported to the audit and joins the window (its body goes to
    /// `blocks`), and a full window drops its oldest entry's body. Callers
    /// advance `committed_height` and run [`Self::prune_below_window`] once
    /// per commit step.
    fn record_commit(&mut self, block: Block, qc: Option<Qc<S>>) {
        self.next_req = self.next_req.max(batch_end(&block));
        let (height, hash) = (block.height, block.hash());
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

    /// Drops every stored block below the window's oldest entry: blocks
    /// that slid out of it and forks that can no longer commit (a forged
    /// proposal stored against a held QC included). What stays is the
    /// window plus the uncommitted blocks above it.
    fn prune_below_window(&mut self) {
        if let Some(floor) = self.window.front().map(|e| e.height) {
            self.blocks.retain(|_, b| b.height >= floor);
        }
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

    /// The block certified by the highest known QC, if it was delivered
    /// (genesis if no QC is known yet).
    pub fn high_block(&self) -> Option<&Block> {
        let (hash, _) = self.high_tip();
        self.blocks.get(&hash)
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

    /// Inserts a block (idempotent). Any stored block — own draft or a
    /// validated peer proposal — advances the draft cursor past its
    /// request range, so later drafts never re-batch it.
    pub fn insert_block(&mut self, b: Block) {
        self.draft_cursor = self.draft_cursor.max(batch_end(&b));
        self.blocks.entry(b.hash()).or_insert(b);
    }

    /// Drafts the next block for `view`, batching up to `max_batch` pending
    /// requests that have arrived by `now`.
    pub fn draft_block(
        &self,
        view: u64,
        proposer: u32,
        now: Time,
        max_batch: u32,
        payload_per_req: u32,
    ) -> Block {
        let (parent_hash, parent_height) = self.high_tip();
        let batch_start = self.next_req.max(self.draft_cursor);
        let mut batch_len = 0u32;
        if let Some(src) = &self.source {
            batch_len = src.draft(batch_start, max_batch);
        } else if let Some(arrived) = now.checked_div(self.ns_per_req) {
            // Requests 0..=arrived have arrived by `now`; those below the
            // draft cursor are already claimed by in-flight blocks.
            let pending = (arrived + 1).saturating_sub(batch_start);
            batch_len = pending.min(max_batch as u64) as u32;
        }
        Block {
            view,
            height: parent_height + 1,
            parent: parent_hash,
            proposer,
            batch_start,
            batch_len,
            payload_per_req,
        }
    }

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
        let better = match &self.highest_qc {
            None => true,
            Some(old) => qc.height > old.height,
        };
        if !better {
            return None;
        }
        self.highest_qc = Some(qc);
        let qc = self.highest_qc.as_ref().unwrap();
        let b = self.blocks.get(&qc.block_hash)?.clone();
        let b1 = self.blocks.get(&b.parent)?.clone();
        let b2 = self.blocks.get(&b1.parent)?.clone();
        if b.view == b1.view + 1 && b1.view == b2.view + 1 && b2.height > self.committed_height {
            let target = b2.height;
            self.commit_chain(&b2, now);
            return Some(target);
        }
        None
    }

    fn commit_chain(&mut self, tip: &Block, now: Time) {
        let source = self.source.clone();
        // Commit tip and all uncommitted ancestors (recursively, oldest
        // first for metric ordering; order does not affect the totals).
        let mut chain = Vec::new();
        let mut cur = tip.clone();
        while cur.height > self.committed_height {
            chain.push(cur.clone());
            match self.blocks.get(&cur.parent) {
                Some(p) => cur = p.clone(),
                None => break,
            }
        }
        // Persist the whole newly committed suffix under one sink call
        // (one fsync for a durable sink) *before* any of it is acted on.
        let batch: Vec<(Block, Option<Qc<S>>)> = chain
            .into_iter()
            .rev()
            .map(|b| {
                let qc = self.seen_qcs.remove(&b.hash());
                (b, qc)
            })
            .collect();
        if let Some(sink) = &mut self.sink {
            sink.committed_batch(&batch);
        }
        for (b, qc) in batch {
            self.metrics.last_commit_time = now;
            if self.metrics.commit_points.len() < COMMIT_POINTS_CAP {
                self.metrics.commit_points.push((now, b.height));
            }
            self.metrics.committed_blocks += 1;
            self.metrics.committed_reqs += b.batch_len as u64;
            if let Some(src) = &source {
                // Live mempool: settle the range and take the latencies
                // it measured on its own clock (only one replica settles
                // a shared pool's range — the others record none).
                for latency in src.committed(b.height, b.batch_start, b.batch_len) {
                    self.metrics.latency_sum += latency as u128;
                    if self.metrics.latency_samples.len() < LATENCY_SAMPLE_CAP {
                        self.metrics.latency_samples.push(latency);
                    }
                }
            } else if self.ns_per_req > 0 {
                for i in 0..b.batch_len as u64 {
                    let arrival = b
                        .batch_start
                        .saturating_add(i)
                        .saturating_mul(self.ns_per_req);
                    let latency = now.saturating_sub(arrival);
                    self.metrics.latency_sum += latency as u128;
                    if self.metrics.latency_samples.len() < LATENCY_SAMPLE_CAP {
                        self.metrics.latency_samples.push(latency);
                    }
                }
            }
            self.record_commit(b, qc);
        }
        self.committed_height = tip.height;
        // Certificates for blocks at or below the new committed height can
        // no longer graduate; drop them so the map stays bounded by the
        // number of in-flight (uncommitted) blocks.
        self.seen_qcs.retain(|_, q| q.height > tip.height);
        self.prune_below_window();
    }
}

/// One past the last request `block` batches. Saturating: the range is
/// peer-supplied, and a hostile `batch_start` near `u64::MAX` must pin the
/// cursors, not overflow them.
fn batch_end(block: &Block) -> u64 {
    block.batch_start.saturating_add(block.batch_len as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::vote_message;
    use iniva_crypto::sim_scheme::SimScheme;

    fn scheme() -> SimScheme {
        SimScheme::new(4, b"chain-test")
    }

    fn qc_for(s: &SimScheme, b: &Block) -> Qc<SimScheme> {
        let msg = vote_message(&b.hash(), b.view);
        let mut agg = s.sign(0, &msg);
        for i in 1..3 {
            agg = s.combine(&agg, &s.sign(i, &msg));
        }
        Qc {
            block_hash: b.hash(),
            view: b.view,
            height: b.height,
            agg,
        }
    }

    /// The window as `(height, hash)` pairs: in these short chains, the
    /// whole committed prefix.
    fn window_log(chain: &ChainState<SimScheme>) -> Vec<(u64, BlockHash)> {
        chain.window.iter().map(|e| (e.height, e.hash)).collect()
    }

    fn extend(chain: &mut ChainState<SimScheme>, view: u64, s: &SimScheme) -> Block {
        let b = chain.draft_block(view, 0, 0, 0, 0);
        chain.insert_block(b.clone());
        chain.on_qc(qc_for(s, &b), 1000, s);
        b
    }

    #[test]
    fn three_consecutive_views_commit() {
        let s = scheme();
        let mut chain = ChainState::new(0);
        extend(&mut chain, 1, &s);
        assert_eq!(chain.committed_height(), 0);
        extend(&mut chain, 2, &s);
        assert_eq!(chain.committed_height(), 0);
        extend(&mut chain, 3, &s);
        // Blocks at views 1,2,3: the QC for view 3 commits the view-1 block.
        assert_eq!(chain.committed_height(), 1);
        extend(&mut chain, 4, &s);
        assert_eq!(chain.committed_height(), 2);
        // The window records the prefix in order.
        let log = window_log(&chain);
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].0, 1);
        assert_eq!(log[1].0, 2);
        assert_ne!(log[0].1, log[1].1);
    }

    #[test]
    fn view_gap_delays_commit() {
        let s = scheme();
        let mut chain = ChainState::new(0);
        extend(&mut chain, 1, &s);
        extend(&mut chain, 2, &s);
        extend(&mut chain, 5, &s); // gap: 2 -> 5
        assert_eq!(
            chain.committed_height(),
            0,
            "non-consecutive views must not commit"
        );
        extend(&mut chain, 6, &s);
        assert_eq!(chain.committed_height(), 0);
        extend(&mut chain, 7, &s);
        // 5,6,7 consecutive: commits the block from view 5 (height 3).
        assert_eq!(chain.committed_height(), 3);
    }

    #[test]
    fn batching_respects_arrival_times() {
        let chain: ChainState<SimScheme> = ChainState::new(1000); // 1 req/ms
                                                                  // At t = 10 ms, 11 requests have arrived (0..=10).
        let b = chain.draft_block(1, 0, 10_000_000, 100, 64);
        assert_eq!(b.batch_len, 11);
        // Batch cap applies.
        let b = chain.draft_block(1, 0, 1_000_000_000, 100, 64);
        assert_eq!(b.batch_len, 100);
    }

    #[test]
    fn pipelined_drafts_never_rebatch_uncommitted_ranges() {
        let chain: &mut ChainState<SimScheme> = &mut ChainState::new(1000); // 1 req/ms
        let s = scheme();
        // The 2-view commit pipeline: each block is drafted with the
        // previous one QC'd but **not yet committed** — `next_req` alone
        // cannot see those in-flight ranges, only the draft cursor can.
        let b1 = chain.draft_block(1, 0, 1_000_000, 100, 64);
        assert_eq!((b1.batch_start, b1.batch_len), (0, 2));
        chain.insert_block(b1.clone());
        chain.on_qc(qc_for(&s, &b1), 1_500_000, &s);
        assert_eq!(chain.committed_height(), 0, "b1 is QC'd, not committed");
        let b2 = chain.draft_block(2, 1, 2_000_000, 100, 64);
        assert_eq!(
            b2.batch_start,
            b1.batch_start + b1.batch_len as u64,
            "draft cursor must skip the in-flight range"
        );
        chain.insert_block(b2.clone());
        chain.on_qc(qc_for(&s, &b2), 2_500_000, &s);
        // Nothing new arrived since b2's draft: an empty batch, not a
        // replay of b1/b2's requests (the pre-cursor code re-batched here).
        let b3 = chain.draft_block(3, 2, 2_000_000, 100, 64);
        assert_eq!(b3.batch_len, 0);
        chain.insert_block(b3.clone());
        chain.on_qc(qc_for(&s, &b3), 5_000_000, &s); // commits b1
                                                     // Two filler views flush b2 and b3 through the three-chain rule:
                                                     // the disjoint ranges count each request exactly once.
        let b4 = chain.draft_block(4, 0, 2_000_000, 100, 64);
        chain.insert_block(b4.clone());
        chain.on_qc(qc_for(&s, &b4), 5_000_000, &s); // commits b2
        let b5 = chain.draft_block(5, 0, 2_000_000, 100, 64);
        chain.insert_block(b5.clone());
        chain.on_qc(qc_for(&s, &b5), 6_000_000, &s); // commits b3
        assert_eq!(chain.committed_height(), 3, "b1..b3 committed");
        assert_eq!(
            chain.metrics.committed_reqs, 3,
            "each request commits exactly once"
        );
        assert_eq!(chain.metrics.last_commit_time, 6_000_000);
        assert_eq!(chain.metrics.commits_since(6_000_000), 1);
        assert_eq!(chain.metrics.commits_since(6_000_001), 0);
    }

    #[test]
    fn committed_requests_accumulate_latency() {
        let s = scheme();
        let mut chain = ChainState::new(1_000_000); // 1 req/µs
        for v in 1..=4 {
            let b = chain.draft_block(v, 0, v * 1_000_000, 10, 64);
            chain.insert_block(b.clone());
            chain.on_qc(qc_for(&s, &b), v * 1_000_000 + 500_000, &s);
        }
        assert!(chain.metrics.committed_reqs > 0);
        assert!(chain.metrics.mean_latency() > 0.0);
    }

    /// A sink that records everything it is shown.
    #[derive(Default)]
    struct RecordingSink {
        commits: std::sync::Arc<std::sync::Mutex<Vec<(u64, bool)>>>,
        views: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    }

    impl CommitSink<SimScheme> for RecordingSink {
        fn committed(&mut self, block: &Block, qc: Option<&Qc<SimScheme>>) {
            self.commits
                .lock()
                .unwrap()
                .push((block.height, qc.is_some()));
        }
        fn entered_view(&mut self, view: u64) {
            self.views.lock().unwrap().push(view);
        }
    }

    #[test]
    fn sink_observes_commits_with_their_certificates() {
        let s = scheme();
        let mut chain = ChainState::new(0);
        let sink = RecordingSink::default();
        let commits = std::sync::Arc::clone(&sink.commits);
        let views = std::sync::Arc::clone(&sink.views);
        chain.set_commit_sink(Box::new(sink));
        chain.note_view(1);
        for v in 1..=5 {
            extend(&mut chain, v, &s);
        }
        assert_eq!(chain.committed_height(), 3);
        // Each committed block was certified by an observed QC (the QC for
        // its child arrived via `extend`), so the sink saw proofs.
        assert_eq!(
            &*commits.lock().unwrap(),
            &[(1, true), (2, true), (3, true)]
        );
        assert_eq!(&*views.lock().unwrap(), &[1]);
        // The committed entries are servable for state transfer.
        for h in 1..=3 {
            let (b, qc) = chain.committed_entry(h).expect("entry retained");
            assert_eq!(b.height, h);
            assert_eq!(qc.block_hash, b.hash());
        }
        assert!(chain.committed_entry(4).is_none());
        assert!(chain.committed_entry(0).is_none());
    }

    #[test]
    fn committed_tip_qc_tracks_commits_not_high_qc() {
        let s = scheme();
        let mut chain = ChainState::new(0);
        assert!(chain.committed_tip_qc().is_none(), "no commit yet");
        extend(&mut chain, 1, &s);
        extend(&mut chain, 2, &s);
        assert!(
            chain.committed_tip_qc().is_none(),
            "high QC advanced but nothing committed"
        );
        extend(&mut chain, 3, &s); // commits height 1
        let qc = chain.committed_tip_qc().expect("committed tip QC retained");
        assert_eq!(qc.height, 1);
        assert_eq!(qc.view, 1);
        extend(&mut chain, 4, &s); // commits height 2
        assert_eq!(chain.committed_tip_qc().unwrap().height, 2);
    }

    #[test]
    fn committed_proposers_ending_at_ignores_commits_past_the_boundary() {
        let s = scheme();
        let mut chain = ChainState::new(0);
        assert!(chain.committed_proposers_ending_at(3, 3).is_empty());
        // Each view's block is proposed by a distinct replica.
        for v in 1..=6u64 {
            let mut b = chain.draft_block(v, 0, 0, 0, 0);
            b.proposer = v as u32;
            chain.insert_block(b.clone());
            chain.on_qc(qc_for(&s, &b), 1000, &s);
        }
        // Views 1..=6 commit heights 1..=4 (three-chain lag of 2).
        assert_eq!(chain.committed_height(), 4);
        // Boundary 2: heights (0, 2] regardless of how far the tip ran.
        assert_eq!(chain.committed_proposers_ending_at(2, 2), vec![1, 2]);
        // A replica one commit behind derives the same window for the same
        // boundary — the agreement property the quantization buys.
        let mut lagging = ChainState::new(1);
        for v in 1..=5u64 {
            let mut b = lagging.draft_block(v, 0, 0, 0, 0);
            b.proposer = v as u32;
            lagging.insert_block(b.clone());
            lagging.on_qc(qc_for(&s, &b), 1000, &s);
        }
        assert_eq!(lagging.committed_height(), 3);
        assert_eq!(
            lagging.committed_proposers_ending_at(2, 2),
            chain.committed_proposers_ending_at(2, 2)
        );
        // Boundary at the tip degenerates to the sliding window: the last
        // two committed blocks were proposed in views 3 and 4.
        assert_eq!(chain.committed_proposers_ending_at(4, 2), vec![3, 4]);
        // Asking for more than the chain holds returns all of it.
        assert_eq!(chain.committed_proposers_ending_at(4, 10), vec![1, 2, 3, 4]);
        // Boundary 0 (no epoch completed yet): empty window.
        assert!(chain.committed_proposers_ending_at(0, 2).is_empty());
    }

    /// Past the old fill-and-stop cap of the per-replica commit log, everything the
    /// protocol reads back — the tip's certificate, a state-transfer
    /// range, Carousel's sample — still tracks the tip, and memory holds
    /// a window plus the in-flight blocks.
    #[test]
    fn reads_track_the_tip_past_the_old_log_cap() {
        let s = scheme();
        let mut chain = ChainState::new(0);
        // One aggregate for every QC: the chain never verifies, and
        // signing 66k blocks would dominate a debug test run.
        let agg = qc_for(&s, &Block::genesis()).agg;
        let target = (COMMIT_POINTS_CAP + 1_000) as u64;
        let mut view = 0u64;
        while chain.committed_height() < target {
            view += 1;
            let mut b = chain.draft_block(view, 0, 0, 0, 0);
            b.proposer = (view % 4) as u32;
            chain.insert_block(b.clone());
            let qc = Qc {
                block_hash: b.hash(),
                view,
                height: b.height,
                agg: agg.clone(),
            };
            chain.on_qc(qc, view, &s);
        }
        let tip = chain.committed_height();
        assert_eq!(tip, target);
        assert_eq!(
            chain.metrics.commit_points.len(),
            COMMIT_POINTS_CAP,
            "progress curve cap"
        );

        let tip_qc = chain.committed_tip_qc().expect("the tip is certified");
        let (tip_block, _) = chain.committed_entry(tip).expect("tip retained");
        assert_eq!((tip_qc.height, tip_qc.block_hash), (tip, tip_block.hash()));

        let range = chain.committed_range(tip - 9, 10);
        let heights: Vec<u64> = range.iter().map(|(b, _)| b.height).collect();
        assert_eq!(heights, (tip - 9..=tip).collect::<Vec<_>>());
        assert!(range.iter().all(|(b, qc)| qc.block_hash == b.hash()));

        let f = 1; // (4 - 1) / 3
        let boundary = tip - tip % CAROUSEL_WINDOW_EPOCH;
        assert_eq!(
            chain.committed_proposers_ending_at(boundary, f),
            vec![(boundary % 4) as u32]
        );

        // In flight: the two QC'd blocks above the tip, and their QCs.
        assert_eq!(chain.window.len(), RETAINED_COMMITS);
        assert!(chain.window.iter().all(|e| e.qc.is_some()));
        assert!(chain.blocks.len() <= RETAINED_COMMITS + 2);
        assert!(chain.seen_qcs.len() <= 2);
        assert!(chain
            .committed_entry(tip - RETAINED_COMMITS as u64)
            .is_none());
    }

    #[test]
    fn rehydrate_restores_prefix_without_counting_metrics() {
        let s = scheme();
        // Build a source chain and harvest its committed prefix + QCs.
        let mut source = ChainState::new(0);
        for v in 1..=6 {
            extend(&mut source, v, &s);
        }
        assert_eq!(source.committed_height(), 4);
        let prefix: Vec<(Block, Option<Qc<SimScheme>>)> = (1..=4)
            .map(|h| {
                let (b, qc) = source.committed_entry(h).unwrap();
                (b.clone(), Some(qc.clone()))
            })
            .collect();

        let mut recovered: ChainState<SimScheme> = ChainState::new(0);
        recovered.rehydrate(prefix);
        assert_eq!(recovered.committed_height(), 4);
        assert_eq!(recovered.metrics.recovered_blocks, 4);
        assert_eq!(recovered.metrics.committed_blocks, 0, "previous run's work");
        assert_eq!(recovered.metrics.commit_points.len(), 0);
        assert_eq!(window_log(&recovered).len(), 4);
        assert_eq!(window_log(&recovered), window_log(&source)[..4]);
        // The high QC is the certificate of the recovered tip, so the
        // replica proposes/votes from where it left off.
        assert_eq!(recovered.high_tip().1, 4);
    }

    #[test]
    fn adopt_committed_verifies_and_extends() {
        let s = scheme();
        let mut source = ChainState::new(0);
        for v in 1..=6 {
            extend(&mut source, v, &s);
        }
        assert_eq!(source.committed_height(), 4);
        let mut lagging: ChainState<SimScheme> = ChainState::new(0);
        let (b1, q1) = source.committed_entry(1).unwrap();
        let (b2, q2) = source.committed_entry(2).unwrap();
        let (b1, q1, b2, q2) = (b1.clone(), q1.clone(), b2.clone(), q2.clone());

        // A mismatched certificate is rejected.
        assert!(!lagging.adopt_committed(b2.clone(), q1.clone(), &s));
        assert!(lagging.adopt_committed(b1.clone(), q1.clone(), &s));
        assert!(lagging.adopt_committed(b2, q2, &s));
        assert_eq!(lagging.committed_height(), 2);
        assert_eq!(lagging.metrics.state_transfer_blocks, 2);
        assert_eq!(lagging.metrics.committed_blocks, 0);
        assert_eq!(window_log(&lagging), window_log(&source)[..2]);
        // Heights at or below the prefix are refused (already adopted).
        assert!(!lagging.adopt_committed(b1, q1, &s));
        // Gap adoption: height 4 grafts past a hole the server could not
        // prove, and the log stays ascending.
        let (b4, q4) = source.committed_entry(4).unwrap();
        let (b4, q4) = (b4.clone(), q4.clone());
        assert!(lagging.adopt_committed(b4, q4, &s));
        assert_eq!(lagging.committed_height(), 4);
        let heights: Vec<u64> = window_log(&lagging).iter().map(|&(h, _)| h).collect();
        assert_eq!(heights, vec![1, 2, 4]);
        // The range lookup serves around the hole.
        assert_eq!(lagging.committed_range(1, 10).len(), 3);
        assert_eq!(lagging.committed_range(3, 10).len(), 1);
    }

    #[test]
    fn adopt_committed_batch_stops_at_first_invalid_entry() {
        let s = scheme();
        let mut source = ChainState::new(0);
        for v in 1..=7 {
            extend(&mut source, v, &s);
        }
        assert_eq!(source.committed_height(), 5);
        let entries: Vec<(Block, Qc<SimScheme>)> = (1..=5)
            .map(|h| {
                let (b, qc) = source.committed_entry(h).unwrap();
                (b.clone(), qc.clone())
            })
            .collect();

        // The clean chunk adopts wholesale in one batch — and hands the
        // whole adopted prefix to the durability sink in ONE batch call
        // (one fsync for a WAL sink), not one call per block.
        #[derive(Default)]
        struct BatchCountingSink {
            calls: std::sync::Arc<std::sync::Mutex<Vec<usize>>>,
        }
        impl CommitSink<SimScheme> for BatchCountingSink {
            fn committed(&mut self, _block: &Block, _qc: Option<&Qc<SimScheme>>) {
                self.calls.lock().unwrap().push(1);
            }
            fn committed_batch(&mut self, items: &[(Block, Option<Qc<SimScheme>>)]) {
                self.calls.lock().unwrap().push(items.len());
            }
        }
        let mut lagging: ChainState<SimScheme> = ChainState::new(0);
        let sink = BatchCountingSink::default();
        let sink_calls = std::sync::Arc::clone(&sink.calls);
        lagging.set_commit_sink(Box::new(sink));
        let outcome = lagging.adopt_committed_batch(entries.clone(), &s);
        assert_eq!(outcome.adopted, 5);
        assert_eq!(outcome.verified_entries, 5);
        assert_eq!(outcome.verified_signers, 15, "3 signers per QC");
        assert_eq!(lagging.committed_height(), 5);
        assert_eq!(lagging.metrics.state_transfer_blocks, 5);
        assert_eq!(window_log(&lagging), window_log(&source));
        assert_eq!(
            &*sink_calls.lock().unwrap(),
            &[5],
            "one batch sink call for the whole chunk"
        );

        // A chunk whose third entry carries a forged QC adopts exactly the
        // two entries before it — cryptographic failure stops the chunk.
        let mut forged = entries.clone();
        forged[2].1.agg.mults = iniva_crypto::multisig::Multiplicities::singleton(0);
        let mut lagging: ChainState<SimScheme> = ChainState::new(0);
        assert_eq!(lagging.adopt_committed_batch(forged, &s).adopted, 2);
        assert_eq!(lagging.committed_height(), 2);

        // A structural mismatch (QC certifying the wrong block) stops the
        // chunk before any pairing-equivalent work on later entries, and
        // only the structurally surviving prefix is billed as verified.
        let mut swapped = entries.clone();
        let other_qc = entries[0].1.clone();
        swapped[1].1 = other_qc;
        let mut lagging: ChainState<SimScheme> = ChainState::new(0);
        let outcome = lagging.adopt_committed_batch(swapped, &s);
        assert_eq!(outcome.adopted, 1);
        assert_eq!(outcome.verified_entries, 1);
        assert_eq!(outcome.verified_signers, 3);
        assert_eq!(lagging.committed_height(), 1);

        // Batch and per-item adoption agree.
        let mut per_item: ChainState<SimScheme> = ChainState::new(0);
        for (b, qc) in entries {
            if !per_item.adopt_committed(b, qc, &s) {
                break;
            }
        }
        assert_eq!(per_item.committed_height(), 5);
        assert_eq!(window_log(&per_item), window_log(&source));
    }

    #[test]
    fn stale_qc_does_not_regress() {
        let s = scheme();
        let mut chain = ChainState::new(0);
        let b1 = extend(&mut chain, 1, &s);
        extend(&mut chain, 2, &s);
        let high = chain.high_block().unwrap().height;
        // Replaying the old QC must not move the high block backwards.
        chain.on_qc(qc_for(&s, &b1), 99, &s);
        assert_eq!(chain.high_block().unwrap().height, high);
    }
}
