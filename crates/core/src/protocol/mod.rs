//! The Iniva replica: Algorithm 1 (block propagation + signature
//! aggregation over the tree, with ACK and 2ND-CHANCE fallback paths)
//! integrated into round-based chained HotStuff.
//!
//! Dissemination (paper Fig. 1): `L_v` sends the proposal directly to the
//! tree root (`L_{v+1}`) *and* the root's internal children (and the
//! leaves of a child known to be silent); internal nodes
//! forward to their leaves (on round-robin views before they verify the QC
//! the proposal carries — the cut-through relay in `fanin`). Leaves sign
//! immediately and send their vote to their parent; internal nodes
//! aggregate with multiplicity 2 per child (plus their own signature once
//! per child + once), send the aggregate to the root and an ACK
//! (inclusion proof) to their children. The root gives
//! missing processes a 2ND-CHANCE; replies carry the parent ACK aggregate if
//! available (so a malicious root cannot use the reply to surgically omit
//! the replier), otherwise the individual signature (which the reward
//! mechanism can then distinguish by multiplicity — the basis for the
//! incentive analysis).
//!
//! The replica is split along its seams: `msg` holds the wire messages,
//! `fanin` the tree dissemination and fan-in, `pacemaker` views and
//! timeouts, `sync` state transfer, and `leader` the per-view tree and
//! leader context. This module holds the configuration, the replica, the
//! message dispatch and the QC handling the seams share.

mod fanin;
mod leader;
mod msg;
mod pacemaker;
mod sync;

#[cfg(test)]
mod batching_tests;
#[cfg(test)]
mod fanin_once_tests;
#[cfg(test)]
mod leader_agreement_tests;
#[cfg(test)]
mod pacemaker_tests;
#[cfg(test)]
mod silence_tests;
#[cfg(test)]
mod state_sync_tests;
#[cfg(test)]
mod testkit;
#[cfg(test)]
mod wire_tests;

pub use leader::tree_for_view;
pub use msg::InivaMsg;

use fanin::AggState;
use iniva_consensus::chain::ChainState;
use iniva_consensus::leader::{LeaderContext, LeaderPolicy};
use iniva_consensus::types::{quorum, vote_message, Block, Qc, GENESIS_HASH};
use iniva_crypto::multisig::{BatchOutcome, Multiplicities, VoteScheme};
use iniva_net::cost::CostModel;
use iniva_net::wire::WireEncode;
use iniva_net::{Actor, Context, NodeId, Time};
use iniva_obs::trace::EventKind;
use iniva_obs::{Registry, Tracer};
use iniva_tree::Topology;
use pacemaker::{
    timer_kind, ViewClock, MAX_VIEW, TIMER_AGG, TIMER_RELAYED, TIMER_SECOND_CHANCE, TIMER_VIEW,
};
use std::sync::Arc;

/// Configuration of an Iniva replica fleet.
#[derive(Debug, Clone)]
pub struct InivaConfig {
    /// Committee size.
    pub n: usize,
    /// Internal (aggregator) nodes per tree.
    pub internal: u32,
    /// Max requests batched per block.
    pub max_batch: u32,
    /// Payload bytes per request.
    pub payload_per_req: u32,
    /// Open-loop client request rate (requests/second).
    pub request_rate: u64,
    /// The view timeout before any view was measured, and its ceiling.
    /// Once a replica has timed a view, its pacemaker arms the view timer
    /// from its measured view spans, never below the floor
    /// `2Δ·(height(root) + 1) + δ`, except in a view whose leader is
    /// known-silent, which it skips at 0 (the ruling is on `enter_view` in
    /// `protocol/pacemaker.rs`); a floor above this value wins.
    pub view_timeout: Time,
    /// The network-delay bound Δ used by the timer heuristics: the
    /// aggregation timer is `2Δ·height(p)` and the second-chance timer is
    /// `δ = 2Δ` (paper Section VIII-C.3).
    pub delta: Time,
    /// Explicit second-chance timer δ (defaults to `2Δ` if `None`).
    pub second_chance_timer: Option<Time>,
    /// Whether and when the root gives missing members their 2ND-CHANCE.
    pub second_chance: SecondChance,
    /// Leader election policy (root of the aggregation tree).
    pub leader_policy: LeaderPolicy,
    /// CPU cost model.
    pub cost: CostModel,
    /// Epoch seed for the deterministic per-view shuffle.
    pub epoch_seed: [u8; 32],
}

impl InivaConfig {
    /// A small default configuration for tests: committee size and
    /// internal-node count are the caller's, the rest fast fault-free defaults.
    pub fn for_tests(n: usize, internal: u32) -> Self {
        InivaConfig {
            n,
            internal,
            max_batch: 100,
            payload_per_req: 64,
            request_rate: 10_000,
            view_timeout: 400 * iniva_net::MILLIS,
            // Δ must cover propagation *and* the verification pipeline
            // (~1.4 ms per aggregate on the root's critical path); too-small
            // values make the aggregation timer fire before the tree
            // completes — the exact tension Section VIII-C.3 studies with
            // δ ∈ {5, 10} ms.
            delta: 15 * iniva_net::MILLIS,
            second_chance_timer: None,
            second_chance: SecondChance::OnCompletion,
            leader_policy: LeaderPolicy::RoundRobin,
            cost: CostModel::default(),
            epoch_seed: [7u8; 32],
        }
    }

    /// Retunes the config for **genuinely paid** crypto (e.g. `BlsScheme`
    /// over the live transport): zeroes the modeled CPU cost — the
    /// pairing work now burns real CPU inside the handlers, and charging
    /// the calibrated model on top would double-count it — and widens Δ
    /// and the view timeout's ceiling so the timer heuristics cover real
    /// pairing verification on the critical path.
    ///
    /// The widening is sized from measured histograms, not guesswork: on
    /// the live 4-replica BLS cell, `consensus.verify_wall_ns` tops out
    /// at ~117 ms (p99; ~50 ms typical per aggregate) and
    /// `runtime.timer_lag_ns` — OS scheduling noise on timer deadlines —
    /// at ~57 ms (p99). A child's share is therefore ready within
    /// ~175 ms of the proposal, which the `2Δ·height` aggregation window
    /// covers at Δ = 100 ms with margin. The earlier hand-guessed
    /// Δ = 300 ms left the same cell *timer-bound* (views paced by the
    /// aggregation wait, ~3.4 s median commit latency); the measured
    /// value roughly doubles committed throughput (to offered-rate
    /// saturation on the bench cell) and cuts median commit latency 3×,
    /// without shrinking QCs. The view timeout's 1 s is a ceiling: the
    /// pacemaker arms the timer from the replica's measured view spans,
    /// and Δ = 100 ms puts its floor at 800 ms (the root's 400 ms window,
    /// δ = 200 ms, and 200 ms more for the next proposal to reach a leaf).
    pub fn tune_for_real_crypto(&mut self) {
        self.cost = self.cost.scaled(0.0);
        self.delta = 100 * iniva_net::MILLIS;
        self.view_timeout = iniva_net::SECS;
    }

    fn sc_timer(&self) -> Time {
        self.second_chance_timer.unwrap_or(2 * self.delta)
    }
}

/// When the root of a view's tree sends 2ND-CHANCE (Algorithm 1, lines
/// 21–25), if at all, and when it finalizes. Only the root's policy
/// (`root_step` in `protocol/fanin.rs`) tells the four apart: every setting
/// holds an aggregator's fan-in and verifies it in one batch, and with
/// 2ND-CHANCE on nothing waits on a known-silent member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecondChance {
    /// Never, and the root finalizes at its first verified quorum, before
    /// its tree completes: the paper's HotStuff-star baseline (Section
    /// II-B.1) when the tree has height one (`internal = n − 1`, every
    /// member a child of the root). This is the rule that lets a proposer
    /// omit votes, Table I's "Star: m" row.
    FirstQuorum,
    /// Never: the paper's Iniva-No2C ablation.
    Off,
    /// The paper's trigger: once a quorum is in, then always wait out δ.
    OnQuorum,
    /// At tree completion, so the fallback stays dormant in fault-free
    /// views (Section V-C). The default.
    OnCompletion,
}

/// Registry handles the replica keeps once observability is bound (see
/// [`InivaReplica::set_observability`]). Updates are relaxed atomics on
/// the hot path; nothing here is consulted when observability is off.
struct ReplicaObs {
    verify_wall_ns: iniva_obs::Histogram,
    commits: iniva_obs::Counter,
    views_entered: iniva_obs::Counter,
    views_failed: iniva_obs::Counter,
    second_chances: iniva_obs::Counter,
    state_chunks: iniva_obs::Counter,
    leader_fallbacks: iniva_obs::Counter,
    /// Carried QCs not re-verified because the chain already held a
    /// verified certificate for the same `(view, hash)`.
    qc_verify_skipped: iniva_obs::Counter,
}

/// Each member's run of consecutive certified QCs without it, the record
/// a replica reads to stop waiting on a member that has stopped answering
/// (see `maybe_second_chance_or_finalize`). Soft state, never
/// journaled: a replica rebuilt from its WAL starts from zero.
struct Silence {
    /// This replica, which never waives itself: it hears its own vote.
    own: u32,
    /// Per member: consecutive counted QCs that lack it.
    streak: Vec<u32>,
    /// The view of the last QC counted; each QC counts once, in view order.
    counted_view: u64,
    /// Whether an aggregator may stop waiting at all: only with
    /// 2ND-CHANCE on, the fallback a waived member still gets in by.
    waives: bool,
}

impl Silence {
    fn new(own: u32, cfg: &InivaConfig) -> Self {
        Silence {
            own,
            streak: vec![0; cfg.n],
            counted_view: 0,
            waives: match cfg.second_chance {
                SecondChance::FirstQuorum | SecondChance::Off => false,
                SecondChance::OnQuorum | SecondChance::OnCompletion => true,
            },
        }
    }

    /// Counts the QC of `view` signed by `signers`, unless a QC of that
    /// view or a later one was counted already.
    fn count(&mut self, view: u64, signers: &Multiplicities) {
        if view <= self.counted_view {
            return;
        }
        self.counted_view = view;
        for (member, streak) in (0u32..).zip(self.streak.iter_mut()) {
            *streak = if signers.contains(member) {
                0
            } else {
                streak.saturating_add(1)
            };
        }
    }

    /// Whether nothing waits on `member`: 2ND-CHANCE is on, and `member`
    /// is another member that is *known-silent*, missing from the last `n`
    /// counted QCs, one full leader rotation. No aggregator waits for its
    /// share, no replica waits out its view as leader, and no leader
    /// routes a proposal only through it or drafts requests into a block
    /// it roots. The ruling is on `maybe_second_chance_or_finalize` in
    /// `protocol/fanin.rs`.
    fn waived(&self, member: u32) -> bool {
        self.waives
            && member != self.own
            && self
                .streak
                .get(member as usize)
                .is_some_and(|&streak| streak as usize >= self.streak.len())
    }
}

/// Per-view metrics of the aggregation layer.
#[derive(Debug, Clone, Default)]
pub struct AggMetrics {
    /// 2ND-CHANCE messages sent (root role).
    pub second_chances_sent: u64,
    /// Signatures recovered via 2ND-CHANCE replies.
    pub second_chance_recoveries: u64,
    /// Views finalized without needing 2ND-CHANCE.
    pub clean_views: u64,
}

/// An Iniva replica (Algorithm 1 + chained HotStuff).
pub struct InivaReplica<S: VoteScheme> {
    /// Committee id (== simulator NodeId).
    pub id: u32,
    cfg: InivaConfig,
    /// The tree shape every view's tree takes, validated at construction.
    topology: Topology,
    scheme: Arc<S>,
    /// Chain state (public for metric harvesting).
    pub chain: ChainState<S>,
    /// Aggregation-layer metrics.
    pub agg_metrics: AggMetrics,
    current_view: u64,
    /// The measured view spans the view timer is armed from.
    clock: ViewClock,
    last_voted_view: u64,
    leader_ctx: LeaderContext,
    agg: Option<AggState<S>>,
    /// Who has been missing from the certified record, and for how long.
    silence: Silence,
    /// The highest view this replica relayed a proposal down its tree in:
    /// it relays at most once per view.
    relayed_view: u64,
    /// A proposal relayed before its carried QC was verified, taken up in
    /// the handler turn after the relay (see
    /// [`Self::receive_proposal`]).
    relayed: Option<(Block, Option<Qc<S>>)>,
    /// Signatures that arrived before their view's proposal (message
    /// reordering under jitter); replayed once the proposal is delivered.
    early_sigs: Vec<(NodeId, u64, S::Aggregate)>,
    /// Rate limiter for state-transfer requests: committed height at the
    /// last request, when it was sent, and whom it was sent to. A new
    /// request goes out only after progress (a response advanced the
    /// prefix) or a view-timeout of silence — and a retry after silence
    /// never re-asks the peer that just stayed silent (it may be dead; the
    /// next *different* sender gets the request instead).
    last_state_request: Option<(u64, Time, NodeId)>,
    /// Consensus event tracer; disabled (free) unless
    /// [`Self::set_observability`] was called.
    tracer: Tracer,
    /// Metric handles; `None` unless observability is bound.
    obs: Option<ReplicaObs>,
}

impl<S: VoteScheme> InivaReplica<S>
where
    S::Aggregate: WireEncode,
{
    /// Creates a replica.
    ///
    /// # Panics
    /// Panics if a committee of `cfg.n` cannot host `cfg.internal`
    /// aggregators.
    pub fn new(id: u32, cfg: InivaConfig, scheme: Arc<S>) -> Self {
        let topology = Topology::new(cfg.n as u32, cfg.internal)
            // lint: allow(hot-path-panic) a configuration error, caught at construction; no message reaches this
            .expect("committee hosts the tree shape");
        let chain = ChainState::new(cfg.request_rate);
        let silence = Silence::new(id, &cfg);
        InivaReplica {
            id,
            cfg,
            topology,
            scheme,
            chain,
            agg_metrics: AggMetrics::default(),
            current_view: 1,
            clock: ViewClock::default(),
            last_voted_view: 0,
            leader_ctx: LeaderContext::default(),
            agg: None,
            silence,
            relayed_view: 0,
            relayed: None,
            early_sigs: Vec::new(),
            last_state_request: None,
            tracer: Tracer::disabled(),
            obs: None,
        }
    }

    /// Binds this replica to a metrics registry and event tracer. Without
    /// this call the replica records nothing and traces nothing: the
    /// default tracer reduces every emit to one branch, and no registry
    /// series exist (the tier-1 tests assert the disabled path never
    /// constructs an event).
    pub fn set_observability(&mut self, registry: &Registry, tracer: Tracer) {
        self.obs = Some(ReplicaObs {
            verify_wall_ns: registry.histogram("consensus.verify_wall_ns"),
            commits: registry.counter("consensus.commits"),
            views_entered: registry.counter("consensus.views_entered"),
            views_failed: registry.counter("consensus.views_failed"),
            second_chances: registry.counter("consensus.second_chances"),
            state_chunks: registry.counter("consensus.state_chunks"),
            leader_fallbacks: registry.counter("consensus.leader_fallbacks"),
            qc_verify_skipped: registry.counter("consensus.qc_verify_skipped"),
        });
        self.tracer = tracer;
    }

    /// The bound tracer (disabled by default) — harvest hook for dumps.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Charges one batch verification of `aggs` over `msg`, carrying
    /// `signers` distinct signers in all, runs it, and records its wall
    /// time against `view` in the histogram and the trace. The clock is
    /// read only when either sink is attached.
    fn verify_recorded(
        &self,
        ctx: &mut Context<InivaMsg<S>>,
        view: u64,
        msg: &[u8],
        aggs: &[S::Aggregate],
        signers: usize,
    ) -> BatchOutcome {
        let charged_ns = self.cfg.cost.verify_batch(1, signers);
        ctx.charge_cpu(charged_ns);
        let observing = self.tracer.enabled() || self.obs.is_some();
        let t0 = observing.then(std::time::Instant::now);
        let outcome = self.scheme.verify_batch(&[(msg, aggs)]);
        if let Some(t0) = t0 {
            let wall_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            if let Some(obs) = &self.obs {
                obs.verify_wall_ns.record(wall_ns);
            }
            self.tracer.emit(
                ctx.now(),
                EventKind::VerifyBatch {
                    view,
                    items: aggs.len() as u32,
                    wall_ns,
                    charged_ns,
                },
            );
        }
        outcome
    }

    /// Checks a certificate this replica does not hold yet: the quorum
    /// check runs before anything is charged, then the aggregate is
    /// verified once, recorded against `view` (the view the check
    /// serves).
    fn verify_qc(&self, ctx: &mut Context<InivaMsg<S>>, view: u64, qc: &Qc<S>) -> bool {
        let signers = qc.signer_count(&self.scheme);
        if signers < quorum(self.cfg.n) {
            return false;
        }
        let msg = vote_message(&qc.block_hash, qc.view);
        self.verify_recorded(ctx, view, &msg, std::slice::from_ref(&qc.agg), signers)
            .all_valid()
    }

    /// Adopts a certificate that verified or that this replica formed: its
    /// signers are counted into the silence record, the chain advances
    /// (committing what the three-chain rule allows), the commits are
    /// traced, and the Carousel context follows.
    fn adopt_qc(&mut self, now: Time, qc: Qc<S>) {
        self.silence
            .count(qc.view, self.scheme.multiplicities(&qc.agg));
        let before = self.chain.committed_height();
        self.chain.on_qc(qc, now, &self.scheme);
        self.trace_commits(now, before);
        self.update_carousel();
    }

    /// Emits `Committed` events, each with its block's hash prefix (and
    /// bumps the commit counter), for every height the chain's committed
    /// prefix gained since `before` — one choke point for all three
    /// commit paths (proposal-carried QC, root finalization,
    /// state-transfer adoption).
    fn trace_commits(&self, now: Time, before: u64) {
        let after = self.chain.committed_height();
        if after <= before {
            return;
        }
        if let Some(obs) = &self.obs {
            obs.commits.add(after - before);
        }
        if self.tracer.enabled() {
            for height in before + 1..=after {
                // The hash prefix is what lets the timeline check that
                // replicas, in one process or many, committed alike.
                let hash = self.chain.committed_entry(height).map(|(_, qc)| {
                    let [a, b, c, d, e, f, g, h, ..] = qc.block_hash;
                    u64::from_be_bytes([a, b, c, d, e, f, g, h])
                });
                self.tracer.emit(
                    now,
                    EventKind::Committed {
                        view: self.current_view,
                        height,
                        hash,
                    },
                );
            }
        }
    }

    /// Reconstructs a replica from durable state: the committed prefix
    /// (with per-block QCs where the log has them) and the highest view
    /// entered before the crash, as recovered from an
    /// `iniva-storage::ChainWal`. The chain is rehydrated (see
    /// [`ChainState::rehydrate`]), the pacemaker resumes at the recovered
    /// view, and `last_voted_view` is pinned to it — the replica may have
    /// voted in that view before dying, and voting twice in a view is the
    /// equivocation safety forbids. Anything committed by the cluster
    /// while the replica was down arrives via state transfer once the
    /// first peer message reveals the gap.
    ///
    /// Why pinning to the *journaled view* covers every possible vote:
    /// both vote paths (`handle_proposal` and the 2ND-CHANCE fresh-vote
    /// path) set `last_voted_view = W` and then, in the same handler,
    /// either enter view `W + 1` — journaling it via
    /// [`ChainState::note_view`] *inside* the handler — or were already
    /// past `W` (the `block.view == 1` late-vote exception), in which
    /// case a view `> W` is journaled. The runtime ships a handler's
    /// outbox only **after** the handler returns, i.e. after that fsync,
    /// so no vote for a view above the journaled one can ever have left
    /// the process. A crash between the vote's fsync and its send just
    /// loses an unsent vote.
    ///
    /// # Panics
    /// Panics if a committee of `cfg.n` cannot host `cfg.internal`
    /// aggregators.
    pub fn recover(
        id: u32,
        cfg: InivaConfig,
        scheme: Arc<S>,
        commits: Vec<(Block, Option<Qc<S>>)>,
        view: u64,
    ) -> Self {
        let mut replica = Self::new(id, cfg, scheme);
        replica.resume(commits, view);
        replica
    }

    /// [`Self::recover`]'s second half, for a fresh replica whose chain
    /// already has its hooks attached (a commit audit that should see the
    /// replayed prefix, say): rehydrates `commits` and resumes the
    /// pacemaker at `view`, pinning `last_voted_view` to it.
    pub fn resume(&mut self, commits: Vec<(Block, Option<Qc<S>>)>, view: u64) {
        self.chain.rehydrate(commits);
        self.current_view = view.max(1);
        self.last_voted_view = view;
    }

    /// Whether `block` sits where the certificate it carries puts it —
    /// linked to the certified block (genesis without one) and one above
    /// it — and, if so, whether that certificate still has to be
    /// verified. Charges nothing, so it runs before anything is verified,
    /// relayed or stored: a replayed QC under forged blocks must not park
    /// them at heights no retention floor reaches. A held certificate's
    /// own height counts, not the carrier's — the height field is not
    /// signed.
    fn placement(&self, block: &Block, qc: &Option<Qc<S>>) -> Option<bool> {
        let linked = match qc {
            Some(q) => q.block_hash == block.parent,
            None => block.parent == GENESIS_HASH,
        };
        let held_height = qc
            .as_ref()
            .and_then(|q| self.chain.held_qc(q.view, &q.block_hash))
            .map(|held| held.height);
        let parent_height = held_height.or(qc.as_ref().map(|q| q.height));
        let placed = linked && parent_height.unwrap_or(0).checked_add(1) == Some(block.height);
        placed.then_some(qc.is_some() && held_height.is_none())
    }

    fn validate_and_store(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        block: &Block,
        qc: &Option<Qc<S>>,
    ) -> bool {
        let Some(unverified) = self.placement(block, qc) else {
            return false;
        };
        match qc {
            Some(q) if unverified => {
                if !self.verify_qc(ctx, block.view, q) {
                    return false;
                }
                self.adopt_qc(ctx.now(), q.clone());
            }
            // Verify each QC once: a certificate the chain already holds
            // for this `(view, hash)` was verified when it was stored (own
            // finalization, a TIMEOUT broadcast, an earlier proposal). The
            // held one stays and the carried aggregate is never stored, so
            // a forgery under a known `(view, hash)` costs no pairing and
            // cannot displace the QC rewards are computed from.
            Some(_) => {
                if let Some(obs) = &self.obs {
                    obs.qc_verify_skipped.inc();
                }
            }
            None => {}
        }
        ctx.charge_cpu(self.cfg.cost.validate_block(block.payload_bytes()));
        self.chain.insert_block(block.clone());
        true
    }

    /// The view this replica is currently in (progress hook for chaos
    /// harnesses: surviving replicas must keep advancing views while a
    /// partition stalls commits, and converge again after a heal).
    pub fn current_view(&self) -> u64 {
        self.current_view
    }
}

impl<S: VoteScheme> Actor for InivaReplica<S>
where
    S::Aggregate: WireEncode,
{
    type Msg = InivaMsg<S>;

    fn on_start(&mut self, ctx: &mut Context<InivaMsg<S>>) {
        self.start(ctx);
    }

    /// Consecutive SIGNATURE messages in one handler turn are folded
    /// through `handle_signatures` as one batch (a view's fan-in at the
    /// root verifies under a single multi-pairing); every other message
    /// type dispatches in arrival order, flushing the pending signature run
    /// first so per-sender ordering is preserved.
    fn on_messages(&mut self, ctx: &mut Context<InivaMsg<S>>, batch: Vec<(NodeId, InivaMsg<S>)>) {
        let mut sigs: Vec<(NodeId, u64, S::Aggregate)> = Vec::new();
        let mut senders: Vec<NodeId> = Vec::new();
        for (from, msg) in batch {
            ctx.charge_cpu(self.cfg.cost.msg_overhead);
            if !senders.contains(&from) {
                senders.push(from);
            }
            if !matches!(msg, InivaMsg::Signature { .. }) && !sigs.is_empty() {
                self.handle_signatures(ctx, std::mem::take(&mut sigs));
            }
            match msg {
                InivaMsg::Signature { view, agg } => sigs.push((from, view, agg)),
                // `block.view` is raw wire input that picks the tree
                // (`view + 1`) and the timer ids (`view * 4`): a view past
                // `MAX_VIEW` is refused before anything is derived from
                // it, charged or stored.
                InivaMsg::Proposal { block, .. } | InivaMsg::SecondChance { block, .. }
                    if block.view > MAX_VIEW => {}
                InivaMsg::Proposal { block, qc } => self.receive_proposal(ctx, from, block, qc),
                InivaMsg::Ack { view, agg } => self.handle_ack(view, agg),
                InivaMsg::SecondChance { block, qc } => {
                    self.handle_second_chance(ctx, from, block, qc)
                }
                InivaMsg::StateRequest(req) => {
                    self.handle_state_request(ctx, from, req.from_height)
                }
                InivaMsg::StateResponse(resp) => self.handle_state_response(ctx, from, resp),
                InivaMsg::Timeout { view, high_qc } => {
                    self.handle_timeout(ctx, from, view, high_qc)
                }
            }
        }
        if !sigs.is_empty() {
            self.handle_signatures(ctx, sigs);
        }
        for from in senders {
            self.maybe_request_state(ctx, from);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<InivaMsg<S>>, id: u64) {
        let (view, kind) = timer_kind(id);
        match kind {
            TIMER_VIEW => self.on_view_timer(ctx, view),
            TIMER_AGG => self.on_agg_timer(ctx, view),
            TIMER_SECOND_CHANCE => self.on_second_chance_timer(ctx, view),
            TIMER_RELAYED => self.on_relayed_timer(ctx, view),
            // Ids are minted only by `timer_id`, with the kinds above.
            _ => {}
        }
    }
}
