//! The Iniva replica: Algorithm 1 (block propagation + signature
//! aggregation over the tree, with ACK and 2ND-CHANCE fallback paths)
//! integrated into round-based chained HotStuff.
//!
//! Dissemination (paper Fig. 1): `L_v` sends the proposal directly to the
//! tree root (`L_{v+1}`) *and* the root's internal children; internal nodes
//! forward to their leaves. Leaves sign immediately and send their vote to
//! their parent; internal nodes aggregate with multiplicity 2 per child
//! (plus their own signature once per child + once), send the aggregate to
//! the root and an ACK (inclusion proof) to their children. The root gives
//! missing processes a 2ND-CHANCE; replies carry the parent ACK aggregate if
//! available (so a malicious root cannot use the reply to surgically omit
//! the replier), otherwise the individual signature (which the reward
//! mechanism can then distinguish by multiplicity — the basis for the
//! incentive analysis).

use crate::rewards::validate_subtree_multiplicities;
use iniva_consensus::chain::ChainState;
use iniva_consensus::leader::{LeaderContext, LeaderPolicy, CAROUSEL_WINDOW_EPOCH};
use iniva_consensus::types::{
    quorum, vote_message, Block, Qc, AGG_SIG_BYTES, GENESIS_HASH, PER_SIGNER_BYTES,
};
use iniva_crypto::multisig::{Multiplicities, VoteScheme};
use iniva_crypto::shuffle::Assignment;
use iniva_net::cost::CostModel;
use iniva_net::sync::{StateRequest, StateResponse, MAX_STATE_BLOCKS, MAX_STATE_RESPONSE_BYTES};
use iniva_net::wire::{DecodeError, Decoder, Encoder, WireDecode, WireEncode};
use iniva_net::{Actor, Context, NodeId, Time};
use iniva_obs::trace::{EventKind, TimerKind};
use iniva_obs::{Registry, Tracer};
use iniva_tree::{Role, Topology, TreeView};
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
    /// View timeout (pacemaker).
    pub view_timeout: Time,
    /// The network-delay bound Δ used by the timer heuristics: the
    /// aggregation timer is `2Δ·height(p)` and the second-chance timer is
    /// `δ = 2Δ` (paper Section VIII-C.3).
    pub delta: Time,
    /// Explicit second-chance timer δ (defaults to `2Δ` if `None`).
    pub second_chance_timer: Option<Time>,
    /// Whether 2ND-CHANCE messages are sent at all (`false` = the paper's
    /// Iniva-No2C ablation).
    pub second_chance: bool,
    /// When to trigger 2ND-CHANCE: `true` (paper-faithful) sends as soon as
    /// a *quorum* is collected (or on timer), always spending the δ wait;
    /// `false` waits for tree *completion* (or the timer), keeping the
    /// fallback dormant in fault-free runs — an optimization ablation
    /// benchmarked separately.
    pub sc_on_quorum: bool,
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
            second_chance: true,
            sc_on_quorum: false,
            leader_policy: LeaderPolicy::RoundRobin,
            cost: CostModel::default(),
            epoch_seed: [7u8; 32],
        }
    }

    /// Retunes the config for **genuinely paid** crypto (e.g. `BlsScheme`
    /// over the live transport): zeroes the modeled CPU cost — the
    /// pairing work now burns real CPU inside the handlers, and charging
    /// the calibrated model on top would double-count it — and widens Δ
    /// and the view timeout so the timer heuristics cover real pairing
    /// verification on the critical path.
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
    /// without shrinking QCs. The view timeout similarly drops from a
    /// blanket 2 s to 1 s — still > 2× the worst observed healthy view
    /// span.
    pub fn tune_for_real_crypto(&mut self) {
        self.cost = self.cost.scaled(0.0);
        self.delta = 100 * iniva_net::MILLIS;
        self.view_timeout = iniva_net::SECS;
    }

    fn sc_timer(&self) -> Time {
        self.second_chance_timer.unwrap_or(2 * self.delta)
    }
}

/// Messages of the Iniva protocol (Algorithm 1).
#[derive(Debug)]
pub enum InivaMsg<S: VoteScheme> {
    /// Tree dissemination of a proposal with its justifying QC.
    Proposal {
        /// Proposed block.
        block: Block,
        /// QC certifying the parent (None only when extending genesis).
        qc: Option<Qc<S>>,
    },
    /// `SIGNATURE`: a vote or partial aggregate sent up the tree (or as a
    /// 2ND-CHANCE reply).
    Signature {
        /// View being voted.
        view: u64,
        /// The aggregate (single vote, subtree aggregate, or ACK echo).
        agg: S::Aggregate,
    },
    /// `ACK`: inclusion proof from a parent to its aggregated children.
    Ack {
        /// View.
        view: u64,
        /// The parent's subtree aggregate (contains the child's signature).
        agg: S::Aggregate,
    },
    /// `2ND-CHANCE`: the root re-solicits processes missing from its
    /// aggregate. Carries the block for processes that never received it.
    SecondChance {
        /// The block (processes that missed dissemination deliver it here —
        /// this is what makes Iniva's *Reliable Dissemination* hold).
        block: Block,
        /// Justifying QC for the block's parent.
        qc: Option<Qc<S>>,
    },
    /// State transfer: a replica behind the committed prefix (typically
    /// one that just restarted from its write-ahead log) asks a peer for
    /// the committed blocks it is missing.
    StateRequest(StateRequest),
    /// State transfer: a chunk of committed blocks, each paired with the
    /// QC certifying it, so the requester verifies before adopting.
    StateResponse(StateResponse<Block, Qc<S>>),
    /// `TIMEOUT` (HotStuff-style new-view exchange): broadcast when a view
    /// times out, carrying the sender's high QC so replicas that diverged
    /// during failed views converge on one certificate — and therefore one
    /// Carousel leader — within a single timeout round. The carried QC is
    /// verified before adoption; the unauthenticated `view` field is never
    /// trusted on its own (the pacemaker only fast-forwards to a view a
    /// *verified* QC proves the cluster reached).
    Timeout {
        /// The view that timed out at the sender.
        view: u64,
        /// The sender's highest known QC (None before any QC forms).
        high_qc: Option<Qc<S>>,
    },
}

impl<S: VoteScheme> Clone for InivaMsg<S> {
    fn clone(&self) -> Self {
        match self {
            InivaMsg::Proposal { block, qc } => InivaMsg::Proposal {
                block: block.clone(),
                qc: qc.clone(),
            },
            InivaMsg::Signature { view, agg } => InivaMsg::Signature {
                view: *view,
                agg: agg.clone(),
            },
            InivaMsg::Ack { view, agg } => InivaMsg::Ack {
                view: *view,
                agg: agg.clone(),
            },
            InivaMsg::SecondChance { block, qc } => InivaMsg::SecondChance {
                block: block.clone(),
                qc: qc.clone(),
            },
            InivaMsg::StateRequest(req) => InivaMsg::StateRequest(*req),
            InivaMsg::StateResponse(resp) => InivaMsg::StateResponse(StateResponse {
                blocks: resp.blocks.clone(),
                qcs: resp.qcs.clone(),
            }),
            InivaMsg::Timeout { view, high_qc } => InivaMsg::Timeout {
                view: *view,
                high_qc: high_qc.clone(),
            },
        }
    }
}

impl<S: VoteScheme> WireEncode for InivaMsg<S>
where
    S::Aggregate: WireEncode,
{
    fn encode(&self, enc: &mut Encoder) {
        match self {
            InivaMsg::Proposal { block, qc } => {
                enc.put_u8(0);
                block.encode(enc);
                enc.put_opt(qc);
            }
            InivaMsg::Signature { view, agg } => {
                enc.put_u8(1).put_u64(*view);
                agg.encode(enc);
            }
            InivaMsg::Ack { view, agg } => {
                enc.put_u8(2).put_u64(*view);
                agg.encode(enc);
            }
            InivaMsg::SecondChance { block, qc } => {
                enc.put_u8(3);
                block.encode(enc);
                enc.put_opt(qc);
            }
            InivaMsg::StateRequest(req) => {
                enc.put_u8(4);
                req.encode(enc);
            }
            InivaMsg::StateResponse(resp) => {
                enc.put_u8(5);
                resp.encode(enc);
            }
            InivaMsg::Timeout { view, high_qc } => {
                enc.put_u8(6).put_u64(*view);
                enc.put_opt(high_qc);
            }
        }
    }
}

impl<S: VoteScheme> WireDecode for InivaMsg<S>
where
    S::Aggregate: WireDecode,
{
    fn decode(dec: &mut Decoder) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(InivaMsg::Proposal {
                block: Block::decode(dec)?,
                qc: dec.get_opt()?,
            }),
            1 => Ok(InivaMsg::Signature {
                view: dec.get_u64()?,
                agg: S::Aggregate::decode(dec)?,
            }),
            2 => Ok(InivaMsg::Ack {
                view: dec.get_u64()?,
                agg: S::Aggregate::decode(dec)?,
            }),
            3 => Ok(InivaMsg::SecondChance {
                block: Block::decode(dec)?,
                qc: dec.get_opt()?,
            }),
            4 => Ok(InivaMsg::StateRequest(StateRequest::decode(dec)?)),
            5 => Ok(InivaMsg::StateResponse(StateResponse::decode(dec)?)),
            6 => Ok(InivaMsg::Timeout {
                view: dec.get_u64()?,
                high_qc: dec.get_opt()?,
            }),
            tag => Err(DecodeError::InvalidTag {
                tag,
                context: "InivaMsg",
            }),
        }
    }
}

const TIMER_VIEW: u64 = 0;
const TIMER_AGG: u64 = 1;
const TIMER_SECOND_CHANCE: u64 = 2;

/// How far the high QC may run ahead of the committed prefix before the
/// replica asks a peer for state transfer. The healthy pipeline keeps the
/// gap at 2 (the two uncommitted blocks of the three-chain rule), so 3+
/// means commits happened that this replica never saw.
const STATE_SYNC_GAP: u64 = 3;

/// Bound on the `early_sigs` reorder buffer, as a multiple of committee
/// size: the buffer keeps at most one signature per `(sender, view)` pair
/// (honest senders send one per view), at most `n` entries per view, and
/// at most `EARLY_SIGS_TOTAL_FACTOR · n` entries overall, dropping the
/// oldest on overflow. Without the caps a hostile peer flooding one
/// future view would grow the buffer without bound.
const EARLY_SIGS_TOTAL_FACTOR: usize = 4;

fn timer_id(view: u64, kind: u64) -> u64 {
    view * 4 + kind
}

fn timer_kind(id: u64) -> (u64, u64) {
    (id / 4, id % 4)
}

/// Per-view aggregation state.
struct AggState<S: VoteScheme> {
    view: u64,
    /// The tree derived when the proposal was accepted — pinned so that a
    /// Carousel-context update mid-view cannot re-derive a different tree.
    tree: TreeView,
    block: Block,
    /// Accumulated aggregate (starts with the node's own vote).
    agg: S::Aggregate,
    /// Children whose signatures have been folded in.
    children_in: Vec<u32>,
    /// ACK aggregate received from the parent (inclusion proof).
    ack_agg: Option<S::Aggregate>,
    /// Whether this node already sent its aggregate/vote up.
    sent_up: bool,
    /// Root only: subtree aggregates received from internal children.
    subtrees_in: u32,
    /// Root only: whether 2ND-CHANCE messages have been sent.
    second_chance_sent: bool,
    /// Root only: whether the second-chance timer has expired.
    sc_expired: bool,
    /// Root only: whether the final QC was emitted.
    finalized: bool,
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
    scheme: Arc<S>,
    /// Chain state (public for metric harvesting).
    pub chain: ChainState<S>,
    /// Aggregation-layer metrics.
    pub agg_metrics: AggMetrics,
    current_view: u64,
    last_voted_view: u64,
    leader_ctx: LeaderContext,
    agg: Option<AggState<S>>,
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
    pub fn new(id: u32, cfg: InivaConfig, scheme: Arc<S>) -> Self {
        let chain = ChainState::new(cfg.request_rate);
        InivaReplica {
            id,
            cfg,
            scheme,
            chain,
            agg_metrics: AggMetrics::default(),
            current_view: 1,
            last_voted_view: 0,
            leader_ctx: LeaderContext::default(),
            agg: None,
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

    /// Whether verification wall time is worth measuring (either sink is
    /// attached); gates the `Instant::now` pair so the disabled path
    /// never touches the clock.
    fn observing_verify(&self) -> bool {
        self.tracer.enabled() || self.obs.is_some()
    }

    /// Records one verification batch into the histogram and the trace.
    fn note_verify(
        &self,
        now: Time,
        view: u64,
        items: u32,
        t0: std::time::Instant,
        charged_ns: Time,
    ) {
        let wall_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if let Some(obs) = &self.obs {
            obs.verify_wall_ns.record(wall_ns);
        }
        self.tracer.emit(
            now,
            EventKind::VerifyBatch {
                view,
                items,
                wall_ns,
                charged_ns,
            },
        );
    }

    /// Emits `Committed` events (and bumps the commit counter) for every
    /// height the chain's committed prefix gained since `before` — one
    /// choke point for all three commit paths (proposal-carried QC,
    /// root finalization, state-transfer adoption).
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
                self.tracer.emit(
                    now,
                    EventKind::Committed {
                        view: self.current_view,
                        height,
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
    pub fn recover(
        id: u32,
        cfg: InivaConfig,
        scheme: Arc<S>,
        commits: Vec<(Block, Option<Qc<S>>)>,
        view: u64,
    ) -> Self {
        let mut replica = Self::new(id, cfg, scheme);
        replica.chain.rehydrate(commits);
        replica.current_view = view.max(1);
        replica.last_voted_view = view;
        replica
    }

    /// The deterministic tree for `view`: a shuffled assignment with the
    /// policy-chosen next leader swapped into the root position. (In the
    /// paper the shuffle itself defines the rotation; pinning the root keeps
    /// leader election pluggable — round-robin or Carousel — while the other
    /// roles stay uniformly random, which is what all analyses require.)
    pub fn tree_for_view(&self, view: u64) -> TreeView {
        tree_for_view(
            self.cfg.n,
            self.cfg.internal,
            &self.cfg.epoch_seed,
            view,
            &self.cfg.leader_policy,
            &self.leader_ctx,
        )
    }

    /// Leader of `view` = root of the tree of view `view - 1`; equivalently
    /// the policy pick for `view`. If the policy yields an id outside the
    /// committee (a Carousel pool corrupted by a hostile aggregate's signer
    /// claims), the round-robin pick stands in — mirroring the fallback in
    /// [`tree_for_view`] so this function always names the pinned tree
    /// root — and the event is counted in `consensus.leader_fallbacks`
    /// instead of aborting consensus.
    fn leader_of(&self, view: u64) -> u32 {
        let pick = self
            .cfg
            .leader_policy
            .leader(view, self.cfg.n, &self.leader_ctx);
        if pick < self.cfg.n as u32 {
            return pick;
        }
        if let Some(obs) = &self.obs {
            obs.leader_fallbacks.inc();
        }
        (view % self.cfg.n as u64) as u32
    }

    fn enter_view(&mut self, ctx: &mut Context<InivaMsg<S>>, view: u64, failed: bool) {
        if view <= self.current_view && self.chain.metrics.total_views > 0 {
            return;
        }
        self.current_view = view;
        self.chain.metrics.total_views += 1;
        if failed {
            self.chain.metrics.failed_views += 1;
        }
        if let Some(obs) = &self.obs {
            obs.views_entered.inc();
            if failed {
                obs.views_failed.inc();
            }
        }
        self.tracer.emit_with(ctx.now(), || EventKind::ViewEntered {
            view,
            leader: self.leader_of(view),
            failed,
        });
        // Durably record the pacemaker position (no-op without a sink): a
        // replica restarting from its WAL must not re-vote a view it
        // already entered.
        self.chain.note_view(view);
        ctx.set_timer(self.cfg.view_timeout, timer_id(view, TIMER_VIEW));
    }

    /// `L_v` proposes: sends the block to the tree root and the root's
    /// children (paper Fig. 1-A), then processes it locally.
    fn propose(&mut self, ctx: &mut Context<InivaMsg<S>>) {
        let view = self.current_view;
        let block = self.chain.draft_block(
            view,
            self.id,
            ctx.now(),
            self.cfg.max_batch,
            self.cfg.payload_per_req,
        );
        let qc = self.chain.highest_qc().cloned();
        self.chain.insert_block(block.clone());
        self.tracer.emit(
            ctx.now(),
            EventKind::ProposalSent {
                view,
                height: block.height,
                txs: block.batch_len,
            },
        );
        // Process the proposal locally *first* so the pinned tree (and the
        // Carousel leader bookkeeping) is derived in exactly the same order
        // as on every receiver.
        self.handle_proposal(ctx, block.clone(), qc.clone());
        let Some(st) = &self.agg else { return };
        if st.view != view {
            return;
        }
        let tree = st.tree.clone();
        let bytes = block.wire_bytes() + qc.as_ref().map_or(0, |q| q.wire_bytes(&self.scheme));
        let root = tree.root();
        let mut targets: Vec<u32> = vec![root];
        targets.extend(tree.children_of(root));
        for t in targets {
            if t != self.id {
                ctx.send(
                    t,
                    InivaMsg::Proposal {
                        block: block.clone(),
                        qc: qc.clone(),
                    },
                    bytes,
                );
            }
        }
    }

    fn validate_and_store(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        block: &Block,
        qc: &Option<Qc<S>>,
    ) -> bool {
        match qc {
            // Verify each QC once: a certificate the chain already holds
            // for this `(view, hash)` was verified when it was stored (own
            // finalization, a TIMEOUT broadcast, an earlier proposal). The
            // held one stays and the carried aggregate is never stored, so
            // a forgery under a known `(view, hash)` costs no pairing and
            // cannot displace the QC rewards are computed from.
            Some(q)
                if q.block_hash == block.parent && self.chain.holds_qc(q.view, &q.block_hash) =>
            {
                if let Some(obs) = &self.obs {
                    obs.qc_verify_skipped.inc();
                }
            }
            Some(q) => {
                let signers = q.signer_count(&self.scheme);
                ctx.charge_cpu(self.cfg.cost.verify_aggregate(signers));
                let msg = vote_message(&q.block_hash, q.view);
                if signers < quorum(self.cfg.n)
                    || q.block_hash != block.parent
                    || !self.scheme.verify(&msg, &q.agg)
                {
                    return false;
                }
                let before = self.chain.committed_height();
                self.chain.on_qc(q.clone(), ctx.now(), &self.scheme);
                self.trace_commits(ctx.now(), before);
                self.update_carousel();
            }
            None => {
                if block.parent != GENESIS_HASH {
                    return false;
                }
            }
        }
        ctx.charge_cpu(self.cfg.cost.validate_block(block.payload_bytes()));
        self.chain.insert_block(block.clone());
        true
    }

    /// Lines 7–17 of Algorithm 1.
    fn handle_proposal(&mut self, ctx: &mut Context<InivaMsg<S>>, block: Block, qc: Option<Qc<S>>) {
        if !self.validate_and_store(ctx, &block, &qc) {
            return;
        }
        if block.view <= self.last_voted_view {
            return;
        }
        if block.view < self.current_view && block.view != 1 {
            return;
        }
        self.last_voted_view = block.view;
        let view = block.view;
        self.tracer.emit(
            ctx.now(),
            EventKind::ProposalReceived {
                view,
                height: block.height,
                leader: block.proposer,
            },
        );
        let tree = self.tree_for_view(view);
        let role = tree.role_of(self.id);

        // Forward down the tree.
        let bytes = block.wire_bytes() + qc.as_ref().map_or(0, |q| q.wire_bytes(&self.scheme));
        if role == Role::Internal {
            for c in tree.children_of(self.id) {
                if c != self.id {
                    ctx.send(
                        c,
                        InivaMsg::Proposal {
                            block: block.clone(),
                            qc: qc.clone(),
                        },
                        bytes,
                    );
                }
            }
        }

        // deliver(B); vote(B).
        ctx.charge_cpu(self.cfg.cost.sign);
        let own = self
            .scheme
            .sign(self.id, &vote_message(&block.hash(), view));
        let mut st = AggState {
            view,
            tree: tree.clone(),
            block: block.clone(),
            agg: own.clone(),
            children_in: Vec::new(),
            ack_agg: None,
            sent_up: false,
            subtrees_in: 0,
            second_chance_sent: false,
            sc_expired: false,
            finalized: false,
        };

        match role {
            Role::Leaf => {
                // Leaves send their signature to their parent immediately.
                let parent = tree.parent_of(self.id).expect("leaf has a parent");
                st.sent_up = true;
                ctx.send(
                    parent,
                    InivaMsg::Signature { view, agg: own },
                    AGG_SIG_BYTES + PER_SIGNER_BYTES + 16,
                );
            }
            Role::Internal | Role::Root => {
                // Aggregators start the aggregation timer 2Δ·height(p).
                let t = 2 * self.cfg.delta * tree.height_of(self.id) as Time;
                ctx.set_timer(t, timer_id(view, TIMER_AGG));
            }
        }
        self.agg = Some(st);
        self.enter_view(ctx, view + 1, false);
        // Replay signatures that raced ahead of this proposal — as one
        // batch, so the whole buffered fan-in costs a single
        // multi-pairing.
        let ready: Vec<_> = {
            let (ready, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.early_sigs)
                .into_iter()
                .partition(|(_, v, _)| *v == view);
            self.early_sigs = keep;
            ready
        };
        if !ready.is_empty() {
            self.handle_signatures(ctx, ready);
        }
    }

    /// Lines 18–20 (and 2ND-CHANCE replies landing at the root), single
    /// arrival: a batch of one. (Production traffic reaches
    /// [`Self::handle_signatures`] through the `Actor` dispatch; this is
    /// the single-arrival convenience used by tests.)
    #[cfg(test)]
    fn handle_signature(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        from: NodeId,
        view: u64,
        agg: S::Aggregate,
    ) {
        self.handle_signatures(ctx, vec![(from, view, agg)]);
    }

    /// Buffers a signature that raced ahead of its view's proposal.
    /// Bounded three ways, so a hostile peer flooding future views cannot
    /// grow the buffer without bound: newest-wins per `(sender, view)`
    /// pair, drop-oldest per view at `n` entries, and at
    /// [`EARLY_SIGS_TOTAL_FACTOR`]`·n` overall the entry for the
    /// *farthest-future* view yields — near views are the ones whose
    /// proposals arrive next, so evicting far views keeps one flooding
    /// peer from displacing other senders' imminent votes.
    fn buffer_early_sig(&mut self, from: NodeId, view: u64, agg: S::Aggregate) {
        // Saturating: `view` is raw wire input, and an entry buffered at
        // `u64::MAX` must not turn this prune into a debug-build
        // overflow panic.
        self.early_sigs
            .retain(|(_, v, _)| v.saturating_add(2) > self.current_view);
        if let Some(slot) = self
            .early_sigs
            .iter_mut()
            .find(|(f, v, _)| *f == from && *v == view)
        {
            slot.2 = agg;
            return;
        }
        let per_view_cap = self.cfg.n.max(1);
        if self
            .early_sigs
            .iter()
            .filter(|(_, v, _)| *v == view)
            .count()
            >= per_view_cap
        {
            if let Some(oldest) = self.early_sigs.iter().position(|(_, v, _)| *v == view) {
                self.early_sigs.remove(oldest);
            }
        }
        if self.early_sigs.len() >= EARLY_SIGS_TOTAL_FACTOR * per_view_cap {
            let farthest = self
                .early_sigs
                .iter()
                .enumerate()
                .max_by_key(|(_, (_, v, _))| *v)
                .map(|(i, (_, v, _))| (i, *v))
                .expect("buffer is at capacity, hence non-empty");
            if view >= farthest.1 {
                return; // incoming is the farthest future — drop it instead
            }
            self.early_sigs.remove(farthest.0);
        }
        self.early_sigs.push((from, view, agg));
    }

    /// Lines 18–20 over a *batch* of SIGNATURE messages: everything queued
    /// in one handler turn (live-transport drain) plus the `early_sigs`
    /// replay lands here together, so one multi-pairing batch
    /// verification covers the whole fan-in instead of two Miller loops
    /// per message. Cheap structural checks (duplicates, membership,
    /// multiplicity patterns) run *before* any pairing, so spam that
    /// would be rejected anyway never reaches the expensive path.
    fn handle_signatures(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        sigs: Vec<(NodeId, u64, S::Aggregate)>,
    ) {
        // Split off the signatures addressed to the live aggregation
        // state; buffer the early ones, drop stale ones.
        let mut batch: Vec<(NodeId, S::Aggregate)> = Vec::new();
        let mut batch_view = 0;
        for (from, view, agg) in sigs {
            let early = match &self.agg {
                None => true,
                Some(st) => st.view < view,
            };
            if early {
                // The proposal has not reached us yet: buffer and replay
                // later.
                if view >= self.current_view {
                    self.buffer_early_sig(from, view, agg);
                }
                continue;
            }
            let Some(st) = &self.agg else { continue };
            if st.view != view || st.finalized {
                continue;
            }
            batch_view = view;
            batch.push((from, agg));
        }
        if batch.is_empty() {
            return;
        }
        let Some(st) = &self.agg else { return };
        let tree = st.tree.clone();
        match tree.role_of(self.id) {
            Role::Leaf => {}
            Role::Internal => self.fold_internal_signatures(ctx, &tree, batch_view, batch),
            Role::Root => self.fold_root_signatures(ctx, &tree, batch_view, batch),
        }
    }

    /// Internal node: fold leaf votes in. Wave loop: structurally select
    /// a set of distinct valid children, verify the whole wave in one
    /// batch, fold the survivors; items skipped only because an in-batch
    /// peer claimed the same signer are retried in the next wave when
    /// that peer turned out to be a forgery.
    fn fold_internal_signatures(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        tree: &TreeView,
        view: u64,
        mut queue: Vec<(NodeId, S::Aggregate)>,
    ) {
        let msg = {
            let Some(st) = &self.agg else { return };
            vote_message(&st.block.hash(), view)
        };
        let children = tree.children_of(self.id);
        loop {
            let Some(st) = &self.agg else { return };
            if st.view != view || st.finalized {
                return;
            }
            let mut selected: Vec<S::Aggregate> = Vec::new();
            let mut selected_signers: Vec<u32> = Vec::new();
            let mut retry: Vec<(NodeId, S::Aggregate)> = Vec::new();
            for (from, agg) in queue.drain(..) {
                // Expect single votes from leaf children — all cheap
                // metadata checks, no pairing yet.
                let mults = self.scheme.multiplicities(&agg);
                if mults.distinct() != 1 || mults.total() != 1 {
                    continue;
                }
                let signer = mults.signers().next().unwrap();
                if !children.contains(&signer) || st.children_in.contains(&signer) {
                    continue;
                }
                if selected_signers.contains(&signer) {
                    // Blocked by an in-batch rival claiming the same
                    // signer; retry if the rival fails verification.
                    retry.push((from, agg));
                    continue;
                }
                selected_signers.push(signer);
                selected.push(agg);
            }
            if selected.is_empty() {
                return;
            }
            // assert verifies(sig, sig.signers), batched — charge the
            // multi-pairing, not per-item pairings.
            let charged_ns = self.cfg.cost.verify_batch(1, selected.len());
            ctx.charge_cpu(charged_ns);
            let verify_t0 = self.observing_verify().then(std::time::Instant::now);
            let outcome = self
                .scheme
                .verify_batch(&[(msg.as_slice(), selected.as_slice())]);
            if let Some(t0) = verify_t0 {
                self.note_verify(ctx.now(), view, selected.len() as u32, t0, charged_ns);
            }
            let culprits = outcome.culprits();
            let any_culprit = !culprits.is_empty();
            let st = self.agg.as_mut().expect("agg state checked above");
            for (i, agg) in selected.iter().enumerate() {
                if culprits.contains(&(0, i)) {
                    continue;
                }
                ctx.charge_cpu(self.cfg.cost.aggregate_combine);
                st.children_in.push(selected_signers[i]);
                st.agg = self.scheme.combine(&st.agg, agg);
            }
            if !st.sent_up && st.children_in.len() == children.len() {
                self.send_subtree_up(ctx, tree);
            }
            if !any_culprit || retry.is_empty() {
                return;
            }
            queue = retry;
        }
    }

    /// Root: fold subtree aggregates and 2ND-CHANCE replies in, batched
    /// the same way as [`Self::fold_internal_signatures`] — structural
    /// selection (disjointness against the accumulated multiset,
    /// subtree-multiplicity validation) first, one batch verification per
    /// wave, survivors folded, finalization checked once per wave.
    fn fold_root_signatures(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        tree: &TreeView,
        view: u64,
        mut queue: Vec<(NodeId, S::Aggregate)>,
    ) {
        let msg = {
            let Some(st) = &self.agg else { return };
            vote_message(&st.block.hash(), view)
        };
        loop {
            let Some(st) = &self.agg else { return };
            if st.view != view || st.finalized {
                return;
            }
            // Structural selection: accepted state plus in-batch
            // tentatively-selected signers must stay disjoint.
            let current = self.scheme.multiplicities(&st.agg);
            let mut tentative = Multiplicities::new();
            let mut selected: Vec<S::Aggregate> = Vec::new();
            let mut selected_from: Vec<NodeId> = Vec::new();
            let mut selected_signers = 0usize;
            let mut retry: Vec<(NodeId, S::Aggregate)> = Vec::new();
            for (from, agg) in queue.drain(..) {
                let mults = self.scheme.multiplicities(&agg);
                // Overlapping or redundant against accepted state — skip
                // for good (keeps multiplicities canonical).
                if mults.is_empty() || mults.signers().any(|s| current.contains(s)) {
                    continue;
                }
                if mults.signers().any(|s| tentative.contains(s)) {
                    // Disjoint from accepted state but blocked by an
                    // in-batch rival; retry if the rival fails.
                    retry.push((from, agg));
                    continue;
                }
                // Validate the multiplicity pattern for subtree aggregates.
                let from_internal = tree.role_of(from) == Role::Internal && from != self.id;
                if from_internal && mults.distinct() > 1 {
                    if !validate_subtree_multiplicities(tree, from, mults) {
                        continue; // malformed multiplicities: reject share
                    }
                } else if mults.distinct() == 1 && mults.total() != 1 {
                    continue;
                }
                tentative = tentative.merge(mults);
                selected_signers += mults.distinct();
                selected_from.push(from);
                selected.push(agg);
            }
            if selected.is_empty() {
                return;
            }
            let charged_ns = self.cfg.cost.verify_batch(1, selected_signers);
            ctx.charge_cpu(charged_ns);
            let verify_t0 = self.observing_verify().then(std::time::Instant::now);
            let outcome = self
                .scheme
                .verify_batch(&[(msg.as_slice(), selected.as_slice())]);
            if let Some(t0) = verify_t0 {
                self.note_verify(ctx.now(), view, selected.len() as u32, t0, charged_ns);
            }
            let culprits = outcome.culprits();
            let any_culprit = !culprits.is_empty();
            let mut folded = false;
            {
                let st = self.agg.as_mut().expect("agg state checked above");
                for (i, agg) in selected.iter().enumerate() {
                    if culprits.contains(&(0, i)) {
                        continue;
                    }
                    let mults = self.scheme.multiplicities(agg);
                    ctx.charge_cpu(self.cfg.cost.aggregate_combine);
                    if st.second_chance_sent {
                        self.agg_metrics.second_chance_recoveries += mults.distinct() as u64;
                    }
                    let from = selected_from[i];
                    let from_internal = tree.role_of(from) == Role::Internal && from != self.id;
                    if from_internal && tree.children_of(self.id).contains(&from) {
                        st.subtrees_in += 1;
                    }
                    st.agg = self.scheme.combine(&st.agg, agg);
                    folded = true;
                }
            }
            if folded {
                if self.agg.as_ref().is_some_and(|s| s.sc_expired) {
                    // Late quorum after the second-chance window: finalize
                    // as soon as it is possible again.
                    self.finalize(ctx);
                } else {
                    self.maybe_second_chance_or_finalize(ctx, tree, false);
                }
            }
            if !any_culprit || retry.is_empty() {
                return;
            }
            queue = retry;
        }
    }

    /// Internal node: send the subtree aggregate to the root and ACKs to the
    /// included children (lines 27–28). Children are folded in with
    /// multiplicity 2 and the own signature 1 + #children times (Eq. 1).
    fn send_subtree_up(&mut self, ctx: &mut Context<InivaMsg<S>>, tree: &TreeView) {
        let st = self.agg.as_mut().expect("agg state exists");
        if st.sent_up {
            return;
        }
        st.sent_up = true;
        // Eq. 1 from `st.agg` = own×1 + Σ children×1, without subtraction
        // (indivisible): doubling gives children×2 and own×2; own needs k + 1.
        let subtree = match st.children_in.len() as u64 {
            0 => st.agg.clone(),
            1 => self.scheme.scale(&st.agg, 2),
            k => {
                let own = self
                    .scheme
                    .sign(self.id, &vote_message(&st.block.hash(), st.view));
                self.scheme.combine(
                    &self.scheme.scale(&st.agg, 2),
                    &self.scheme.scale(&own, k - 1),
                )
            }
        };
        let root = tree.root();
        let wire =
            AGG_SIG_BYTES + PER_SIGNER_BYTES * self.scheme.multiplicities(&subtree).distinct() + 16;
        if root != self.id {
            ctx.send(
                root,
                InivaMsg::Signature {
                    view: st.view,
                    agg: subtree.clone(),
                },
                wire,
            );
        }
        let children = st.children_in.clone();
        for c in children {
            ctx.send(
                c,
                InivaMsg::Ack {
                    view: st.view,
                    agg: subtree.clone(),
                },
                wire,
            );
        }
    }

    /// Root: give missing processes a 2ND-CHANCE (lines 22–25) once the
    /// tree has reported (all subtree aggregates in) or the aggregation
    /// timer fired, then finalize when the second-chance timer expires
    /// (lines 39–40).
    ///
    /// Deviation from the paper's "once a QC has been collected" trigger:
    /// we wait for tree *completion* rather than a bare quorum, so the
    /// fallback stays dormant in fault-free runs (the paper's own claim in
    /// Section V-C); under faults the aggregation timer provides the same
    /// bound the paper's analysis uses.
    fn maybe_second_chance_or_finalize(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        tree: &TreeView,
        timer_fired: bool,
    ) {
        let n = self.cfg.n;
        let internal_children = tree.children_of(tree.root()).len() as u32;
        let st = self.agg.as_mut().expect("agg state exists");
        if st.finalized {
            return;
        }
        let included = self.scheme.multiplicities(&st.agg).distinct();
        let have_quorum = included >= quorum(n);
        let tree_complete = st.subtrees_in >= internal_children;

        if !self.cfg.second_chance {
            // Iniva-No2C: finalize when the tree has reported (or the
            // timer forces the issue) and a quorum exists.
            if (tree_complete && have_quorum) || timer_fired {
                self.finalize(ctx);
            }
            return;
        }

        let trigger = if self.cfg.sc_on_quorum {
            have_quorum || tree_complete || timer_fired
        } else {
            tree_complete || timer_fired
        };
        if !st.second_chance_sent && trigger {
            st.second_chance_sent = true;
            let current = self.scheme.multiplicities(&st.agg).clone();
            let missing: Vec<u32> = (0..n as u32).filter(|m| !current.contains(*m)).collect();
            if missing.is_empty() {
                self.agg_metrics.clean_views += 1;
                self.finalize(ctx);
                return;
            }
            if let Some(obs) = &self.obs {
                obs.second_chances.inc();
            }
            self.tracer.emit(
                ctx.now(),
                EventKind::SecondChance {
                    view: tree.view,
                    missing: missing.len() as u32,
                },
            );
            let qc = self.chain.highest_qc().cloned();
            let bytes =
                st.block.wire_bytes() + qc.as_ref().map_or(0, |q| q.wire_bytes(&self.scheme));
            let block = st.block.clone();
            for m in missing {
                self.agg_metrics.second_chances_sent += 1;
                ctx.send(
                    m,
                    InivaMsg::SecondChance {
                        block: block.clone(),
                        qc: qc.clone(),
                    },
                    bytes,
                );
            }
            ctx.set_timer(
                self.cfg.sc_timer(),
                timer_id(tree.view, TIMER_SECOND_CHANCE),
            );
        }
    }

    /// Root: emit the QC and, as `L_{v+1}`, propose the next block.
    fn finalize(&mut self, ctx: &mut Context<InivaMsg<S>>) {
        let st = self.agg.as_mut().expect("agg state exists");
        if st.finalized {
            return;
        }
        let included = self.scheme.multiplicities(&st.agg).distinct();
        if included < quorum(self.cfg.n) {
            return; // cannot form a QC; the view will time out
        }
        st.finalized = true;
        let qc = Qc {
            block_hash: st.block.hash(),
            view: st.view,
            height: st.block.height,
            agg: st.agg.clone(),
        };
        let view = st.view;
        let height = st.block.height;
        self.tracer
            .emit(ctx.now(), EventKind::QcFormed { view, height });
        let before = self.chain.committed_height();
        self.chain.on_qc(qc, ctx.now(), &self.scheme);
        self.trace_commits(ctx.now(), before);
        self.update_carousel();
        self.enter_view(ctx, view + 1, false);
        // The tree root *is* L_{v+1} by construction (every replica pinned
        // this node into the root slot when building the view-v tree), so
        // it proposes unconditionally — re-deriving leader_of(v+1) here
        // would use the *new* QC's voter set, which the tree predates.
        self.propose(ctx);
    }

    fn handle_ack(&mut self, _ctx: &mut Context<InivaMsg<S>>, view: u64, agg: S::Aggregate) {
        let Some(st) = &mut self.agg else { return };
        if st.view != view {
            return;
        }
        // Line 30's `assert verifies(sig)` is applied *lazily*: the ACK is
        // only a proof forwarded verbatim in a 2ND-CHANCE reply (the root
        // verifies it then), so eager pairing verification here would burn
        // CPU on every block for no protocol effect. We check the cheap
        // metadata claim (our signature must be inside).
        if !self.scheme.multiplicities(&agg).contains(self.id) {
            return; // an ACK that does not include us is no inclusion proof
        }
        st.ack_agg = Some(agg);
    }

    /// Lines 32–38: reply to 2ND-CHANCE with the parent's ACK aggregate when
    /// available (so the sender cannot exclude us), otherwise our signature.
    fn handle_second_chance(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        from: NodeId,
        block: Block,
        qc: Option<Qc<S>>,
    ) {
        let view = block.view;
        // isValid: the sender must be the root of this view's tree (derive
        // it from the pinned state when available).
        let tree = match &self.agg {
            Some(st) if st.view == view => st.tree.clone(),
            _ => self.tree_for_view(view),
        };
        if tree.root() != from {
            return;
        }
        // If the block is new (we never received the proposal), deliver and
        // vote now (lines 34–37) — this is Reliable Dissemination's fallback.
        let fresh = self.agg.as_ref().is_none_or(|st| st.view < view);
        if fresh {
            if !self.validate_and_store(ctx, &block, &qc) {
                return;
            }
            if view > self.last_voted_view {
                self.last_voted_view = view;
                ctx.charge_cpu(self.cfg.cost.sign);
                let own = self
                    .scheme
                    .sign(self.id, &vote_message(&block.hash(), view));
                self.agg = Some(AggState {
                    view,
                    tree: tree.clone(),
                    block: block.clone(),
                    agg: own,
                    children_in: Vec::new(),
                    ack_agg: None,
                    sent_up: true,
                    subtrees_in: 0,
                    second_chance_sent: false,
                    sc_expired: false,
                    finalized: false,
                });
                self.enter_view(ctx, view + 1, false);
            }
        }
        let Some(st) = &self.agg else { return };
        if st.view != view {
            return;
        }
        let reply = match &st.ack_agg {
            Some(ack) => ack.clone(),
            None => {
                let msg = vote_message(&st.block.hash(), view);
                self.scheme.sign(self.id, &msg)
            }
        };
        let wire =
            AGG_SIG_BYTES + PER_SIGNER_BYTES * self.scheme.multiplicities(&reply).distinct() + 16;
        ctx.send(from, InivaMsg::Signature { view, agg: reply }, wire);
    }

    /// Sends a [`StateRequest`] to `from` when the high QC has run further
    /// ahead of the committed prefix than the pipeline explains
    /// ([`STATE_SYNC_GAP`]) — the catch-up trigger for replicas that
    /// restarted from their WAL or were partitioned past 2ND-CHANCE
    /// reach. Rate-limited: one request per prefix-advance or per
    /// view-timeout of silence, so a busy cluster is not flooded while a
    /// transfer is in flight.
    fn maybe_request_state(&mut self, ctx: &mut Context<InivaMsg<S>>, from: NodeId) {
        if from == self.id {
            return;
        }
        let committed = self.chain.committed_height();
        let (_, high) = self.chain.high_tip();
        if high <= committed + STATE_SYNC_GAP {
            return;
        }
        let now = ctx.now();
        if let Some((at_height, at_time, target)) = self.last_state_request {
            let progressed = committed > at_height;
            let timed_out = now.saturating_sub(at_time) > self.cfg.view_timeout;
            if !progressed && !timed_out {
                return;
            }
            // The previous target went a full view-timeout without helping
            // (likely dead): retry only against a *different* peer, or the
            // limiter re-arms on the dead one and the gap never closes.
            if !progressed && timed_out && from == target {
                return;
            }
        }
        self.last_state_request = Some((committed, now, from));
        ctx.send(
            from,
            InivaMsg::StateRequest(StateRequest {
                from_height: committed + 1,
            }),
            16,
        );
    }

    /// Serves a [`StateRequest`]: committed blocks (with their QCs) from
    /// the requested height, bounded by **encoded bytes**
    /// ([`MAX_STATE_RESPONSE_BYTES`]) rather than block count — a QC's
    /// encoding grows with its signer set (48 bytes of compressed point
    /// plus per-signer entries under BLS), so a count-only cap could
    /// overshoot the frame budget on large committees. At least one entry
    /// always ships (progress even past an oversized one);
    /// [`MAX_STATE_BLOCKS`] still caps the entry count for the decoder's
    /// sake. An empty answerable range sends nothing — the requester
    /// retries against the next peer it hears from.
    fn handle_state_request(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        from: NodeId,
        from_height: u64,
    ) {
        if from == self.id {
            return;
        }
        let mut blocks = Vec::new();
        let mut qcs = Vec::new();
        let mut modeled = 4usize;
        let mut encoded = 4usize; // count prefix
        for (block, qc) in self.chain.committed_range(from_height, MAX_STATE_BLOCKS) {
            // Measuring by actually encoding costs a second serialization
            // when the transport later ships the response; accepted —
            // state transfer is a rare catch-up path, and arithmetic size
            // formulas would silently drift from the real codec.
            let entry = block.to_wire().len() + qc.to_wire().len();
            if !blocks.is_empty() && encoded + entry > MAX_STATE_RESPONSE_BYTES {
                break;
            }
            encoded += entry;
            modeled += block.wire_bytes() + qc.wire_bytes(&self.scheme);
            blocks.push(block.clone());
            qcs.push(qc.clone());
        }
        if blocks.is_empty() {
            return;
        }
        ctx.send(
            from,
            InivaMsg::StateResponse(StateResponse { blocks, qcs }),
            modeled,
        );
    }

    /// Adopts a [`StateResponse`] chunk: the whole chunk's QCs are
    /// verified in **one** multi-pairing batch (each QC certifies a
    /// distinct message, so the batch costs `1 + #blocks` Miller loops
    /// and a single final exponentiation instead of two Miller loops per
    /// block — see [`ChainState::adopt_committed_batch`]); the first
    /// invalid or non-contiguous entry stops the chunk. A still-open gap
    /// re-triggers [`Self::maybe_request_state`] on the next QC observed.
    fn handle_state_response(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        from: NodeId,
        response: StateResponse<Block, Qc<S>>,
    ) {
        let items: Vec<(Block, Qc<S>)> = response.blocks.into_iter().zip(response.qcs).collect();
        if !items.is_empty() {
            let before = self.chain.committed_height();
            let outcome = self.chain.adopt_committed_batch(items, &self.scheme);
            // Bill only what actually reached crypto: a chunk rejected by
            // the cheap structural pass costs no pairing-equivalent time.
            if outcome.verified_entries > 0 {
                ctx.charge_cpu(
                    self.cfg
                        .cost
                        .verify_batch(outcome.verified_entries, outcome.verified_signers),
                );
            }
            if outcome.adopted > 0 {
                if let Some(obs) = &self.obs {
                    obs.state_chunks.inc();
                }
                self.tracer.emit(
                    ctx.now(),
                    EventKind::StateChunk {
                        from,
                        blocks: outcome.adopted as u64,
                    },
                );
            }
            self.trace_commits(ctx.now(), before);
        }
        self.update_carousel();
    }

    /// Handles a peer's `TIMEOUT` broadcast: verifies the carried high QC
    /// and, if it beats the local one, adopts it — converging leader
    /// election with the sender — and fast-forwards the pacemaker to the
    /// view *the certificate proves* the cluster reached. Ordering is
    /// strict: cheap structural checks (quorum size) run before the
    /// pairing-equivalent batch verification, and nothing about the
    /// message is trusted until the QC verifies; in particular the
    /// unauthenticated `view` field alone never moves the pacemaker, so a
    /// hostile flood of far-future TIMEOUTs cannot drag honest replicas
    /// out of their views.
    fn handle_timeout(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        from: NodeId,
        timeout_view: u64,
        high_qc: Option<Qc<S>>,
    ) {
        if from == self.id {
            return;
        }
        let Some(qc) = high_qc else { return };
        // Dedup before crypto: a QC no better than what we hold teaches us
        // nothing (the height comparison mirrors `ChainState::on_qc`).
        if self
            .chain
            .highest_qc()
            .is_some_and(|held| qc.height <= held.height)
        {
            return;
        }
        let signers = qc.signer_count(&self.scheme);
        if signers < quorum(self.cfg.n) {
            return;
        }
        // The existing batch path: one group, one multi-pairing under BLS.
        let charged_ns = self.cfg.cost.verify_batch(1, signers);
        ctx.charge_cpu(charged_ns);
        let msg = vote_message(&qc.block_hash, qc.view);
        let verify_t0 = self.observing_verify().then(std::time::Instant::now);
        let outcome = self
            .scheme
            .verify_batch(&[(msg.as_slice(), std::slice::from_ref(&qc.agg))]);
        if let Some(t0) = verify_t0 {
            self.note_verify(ctx.now(), timeout_view, 1, t0, charged_ns);
        }
        if !outcome.culprits().is_empty() {
            return;
        }
        let qc_view = qc.view;
        let before = self.chain.committed_height();
        self.chain.on_qc(qc, ctx.now(), &self.scheme);
        self.trace_commits(ctx.now(), before);
        self.update_carousel();
        self.tracer.emit(
            ctx.now(),
            EventKind::TimeoutQcAdopted {
                view: timeout_view,
                qc_view,
            },
        );
        // Certificate-anchored fast-forward: a verified QC for view `v`
        // proves a quorum reached `v`, so entering `v + 1` is safe and
        // re-synchronizes a replica whose pacemaker fell behind. (The
        // post-dispatch state-transfer probe then closes any committed-
        // prefix gap the adopted QC just revealed.)
        if qc_view >= self.current_view {
            let next = qc_view + 1;
            self.enter_view(ctx, next, false);
            // Same shape as the view-timer path: if the fast-forwarded view
            // elects this replica, proposing now saves a full timeout.
            if self.leader_of(next) == self.id {
                self.propose(ctx);
            }
        }
    }

    /// Refreshes the Carousel context from chain state: voters of the QC
    /// certifying the latest *committed* block, and the proposers of the
    /// last `f` committed blocks — sampled at [`CAROUSEL_WINDOW_EPOCH`]
    /// boundaries — as the recent-leader window (Cohen et al.'s
    /// exclusion). Both are pure functions of the committed prefix — which
    /// state transfer already converges across replicas — so every replica
    /// sharing the prefix elects the same leader. (The previous
    /// implementation read the volatile high QC, which diverges during
    /// failed views with nothing circulating certificates: the root cause
    /// of the live Carousel collapse.) The window additionally must not
    /// slide with every commit: replicas transiently skewed by one
    /// committed block would exclude different candidates and diverge
    /// again — quantizing the sample boundary keeps them in agreement
    /// whenever the skew stays inside one epoch. The pool's anchor view
    /// arms the fault-adaptive fallback in [`LeaderPolicy::Carousel`].
    fn update_carousel(&mut self) {
        // Anchor on the committed tip once one exists. Before the first
        // commit the high QC is the only certificate available, and the
        // TIMEOUT exchange converges it across replicas within one
        // timeout round — rotating over its voters beats burning view
        // timeouts on crashed replicas picked round-robin from the full
        // committee. After the first commit the high QC is never
        // consulted again: post-commit high QCs legitimately diverge
        // across replicas during failed views, and electing from them
        // is exactly what caused the live collapse.
        let qc = if self.chain.committed_height() == 0 {
            self.chain.highest_qc()
        } else {
            self.chain.committed_tip_qc()
        };
        if let Some(qc) = qc {
            let voters: Vec<u32> = self.scheme.multiplicities(&qc.agg).signers().collect();
            let anchor = qc.view;
            self.leader_ctx.set_committed_voters(voters);
            self.leader_ctx.anchor_view = anchor;
            let f = (self.cfg.n - 1) / 3;
            let h = self.chain.committed_height();
            let boundary = h - h % CAROUSEL_WINDOW_EPOCH;
            self.leader_ctx
                .set_recent_leaders(self.chain.committed_proposers_ending_at(boundary, f));
        }
    }

    /// The view this replica is currently in (progress hook for chaos
    /// harnesses: surviving replicas must keep advancing views while a
    /// partition stalls commits, and converge again after a heal).
    pub fn current_view(&self) -> u64 {
        self.current_view
    }

    /// The final QC formed for the current aggregation (test/metric hook).
    pub fn current_agg_signers(&self) -> usize {
        self.agg
            .as_ref()
            .map_or(0, |st| self.scheme.multiplicities(&st.agg).distinct())
    }
}

/// Builds the deterministic tree for `view` with the policy-chosen leader of
/// `view + 1` pinned to the root position.
pub fn tree_for_view(
    n: usize,
    internal: u32,
    epoch_seed: &[u8; 32],
    view: u64,
    policy: &LeaderPolicy,
    leader_ctx: &LeaderContext,
) -> TreeView {
    let mut perm: Vec<u32> = {
        let a = Assignment::shuffle(n, epoch_seed, view);
        (0..n as u32).map(|p| a.member_at(p)).collect()
    };
    let next_leader = policy.leader(view + 1, n, leader_ctx);
    // A policy fed corrupt context (e.g. a Carousel pool holding an
    // out-of-committee id from a hostile aggregate) must not abort
    // consensus: fall back to the round-robin pick, which is always a
    // committee member. Callers with metrics count the event via
    // [`InivaReplica::tree_for_view`].
    let pos = perm
        .iter()
        .position(|&m| m == next_leader)
        .unwrap_or_else(|| {
            let rr = (view + 1) % n as u64;
            perm.iter()
                .position(|&m| m as u64 == rr)
                .expect("round-robin leader in committee")
        });
    perm.swap(0, pos);
    let topology = Topology::new(n as u32, internal).expect("valid topology");
    TreeView::with_assignment(topology, Assignment::from_permutation(perm), view)
}

impl<S: VoteScheme> Actor for InivaReplica<S>
where
    S::Aggregate: WireEncode,
{
    type Msg = InivaMsg<S>;

    fn on_start(&mut self, ctx: &mut Context<InivaMsg<S>>) {
        // A fresh replica starts in view 1; a WAL-recovered one resumes at
        // the view it had entered before the crash and waits to be
        // contacted (its view timer keeps the pacemaker rotating if the
        // cluster is gone too). Entering through `enter_view` (its guard
        // passes here: no view has been counted yet) journals the starting
        // view via `ChainState::note_view` — a replica crashing in view 1
        // must not restart believing it never entered it.
        let view = self.current_view;
        self.enter_view(ctx, view, false);
        if view == 1 && self.leader_of(1) == self.id {
            self.propose(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<InivaMsg<S>>, from: NodeId, msg: InivaMsg<S>) {
        // One dispatch table for both delivery paths: a single message is
        // a batch of one (identical behavior, including the per-message
        // overhead charge and the post-dispatch state-transfer probe).
        self.on_messages(ctx, vec![(from, msg)]);
    }

    /// Live-transport drain: consecutive SIGNATURE messages queued in one
    /// handler turn are folded through [`Self::handle_signatures`] as one
    /// batch (a view's fan-in at the root verifies under a single
    /// multi-pairing); every other message type dispatches in arrival
    /// order, flushing the pending signature run first so per-sender
    /// ordering is preserved.
    fn on_messages(&mut self, ctx: &mut Context<InivaMsg<S>>, batch: Vec<(NodeId, InivaMsg<S>)>) {
        let mut sigs: Vec<(NodeId, u64, S::Aggregate)> = Vec::new();
        let mut senders: Vec<NodeId> = Vec::new();
        for (from, msg) in batch {
            ctx.charge_cpu(self.cfg.cost.msg_overhead);
            if !senders.contains(&from) {
                senders.push(from);
            }
            match msg {
                InivaMsg::Signature { view, agg } => sigs.push((from, view, agg)),
                other => {
                    if !sigs.is_empty() {
                        self.handle_signatures(ctx, std::mem::take(&mut sigs));
                    }
                    match other {
                        InivaMsg::Proposal { block, qc } => self.handle_proposal(ctx, block, qc),
                        InivaMsg::Ack { view, agg } => self.handle_ack(ctx, view, agg),
                        InivaMsg::SecondChance { block, qc } => {
                            self.handle_second_chance(ctx, from, block, qc)
                        }
                        InivaMsg::StateRequest(req) => {
                            self.handle_state_request(ctx, from, req.from_height)
                        }
                        InivaMsg::StateResponse(resp) => {
                            self.handle_state_response(ctx, from, resp)
                        }
                        InivaMsg::Timeout { view, high_qc } => {
                            self.handle_timeout(ctx, from, view, high_qc)
                        }
                        InivaMsg::Signature { .. } => unreachable!("matched above"),
                    }
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
            TIMER_VIEW => {
                if view != self.current_view {
                    return;
                }
                self.tracer.emit(
                    ctx.now(),
                    EventKind::TimerFired {
                        view,
                        kind: TimerKind::View,
                    },
                );
                // New-view exchange: broadcast our high QC so replicas that
                // diverged during the failed view converge on one
                // certificate (and one Carousel pool) before re-electing.
                // Without this nothing circulates QCs while views fail, and
                // divergent replicas elect divergent leaders indefinitely.
                let high_qc = self.chain.highest_qc().cloned();
                self.tracer.emit_with(ctx.now(), || EventKind::TimeoutSent {
                    view,
                    high_qc_view: high_qc.as_ref().map_or(0, |q| q.view),
                });
                let bytes = 16 + high_qc.as_ref().map_or(0, |q| q.wire_bytes(&self.scheme));
                for peer in 0..self.cfg.n as u32 {
                    if peer != self.id {
                        ctx.send(
                            peer,
                            InivaMsg::Timeout {
                                view,
                                high_qc: high_qc.clone(),
                            },
                            bytes,
                        );
                    }
                }
                let next = self.current_view + 1;
                self.enter_view(ctx, next, true);
                if self.leader_of(next) == self.id {
                    self.propose(ctx);
                }
            }
            TIMER_AGG => {
                let Some(st) = &self.agg else { return };
                if st.view != view || st.finalized {
                    return;
                }
                self.tracer.emit(
                    ctx.now(),
                    EventKind::TimerFired {
                        view,
                        kind: TimerKind::Agg,
                    },
                );
                let tree = st.tree.clone();
                match tree.role_of(self.id) {
                    Role::Internal => self.send_subtree_up(ctx, &tree),
                    Role::Root => self.maybe_second_chance_or_finalize(ctx, &tree, true),
                    Role::Leaf => {}
                }
            }
            TIMER_SECOND_CHANCE => {
                let Some(st) = &mut self.agg else { return };
                if st.view != view || st.finalized {
                    return;
                }
                st.sc_expired = true;
                self.tracer.emit(
                    ctx.now(),
                    EventKind::TimerFired {
                        view,
                        kind: TimerKind::SecondChance,
                    },
                );
                self.finalize(ctx);
            }
            _ => unreachable!("unknown timer kind"),
        }
    }
}

#[cfg(test)]
mod batching_tests {
    use super::*;
    use iniva_crypto::multisig::{BatchOutcome, Multiplicities, SignerId};
    use iniva_crypto::sim_scheme::{SimAggregate, SimScheme};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A [`SimScheme`] wrapper counting how many aggregates were actually
    /// handed to cryptographic verification — the regression hook for
    /// "cheap structural checks run before expensive pairings".
    struct CountingScheme {
        inner: SimScheme,
        verified_items: AtomicUsize,
    }

    impl CountingScheme {
        fn new(n: usize, seed: &[u8]) -> Self {
            CountingScheme {
                inner: SimScheme::new(n, seed),
                verified_items: AtomicUsize::new(0),
            }
        }

        fn verified(&self) -> usize {
            self.verified_items.load(Ordering::Relaxed)
        }
    }

    impl VoteScheme for CountingScheme {
        type Aggregate = SimAggregate;

        fn sign(&self, signer: SignerId, msg: &[u8]) -> SimAggregate {
            self.inner.sign(signer, msg)
        }
        fn combine(&self, a: &SimAggregate, b: &SimAggregate) -> SimAggregate {
            self.inner.combine(a, b)
        }
        fn scale(&self, a: &SimAggregate, k: u64) -> SimAggregate {
            self.inner.scale(a, k)
        }
        fn verify(&self, msg: &[u8], agg: &SimAggregate) -> bool {
            self.verified_items.fetch_add(1, Ordering::Relaxed);
            self.inner.verify(msg, agg)
        }
        fn verify_batch(&self, groups: &[(&[u8], &[SimAggregate])]) -> BatchOutcome {
            let items: usize = groups.iter().map(|(_, aggs)| aggs.len()).sum();
            self.verified_items.fetch_add(items, Ordering::Relaxed);
            self.inner.verify_batch(groups)
        }
        fn multiplicities<'a>(&self, agg: &'a SimAggregate) -> &'a Multiplicities {
            &agg.mults
        }
        fn committee_size(&self) -> usize {
            self.inner.committee_size()
        }
    }

    fn genesis_block(view: u64) -> Block {
        Block {
            view,
            height: 1,
            parent: GENESIS_HASH,
            proposer: 0,
            batch_start: 0,
            batch_len: 0,
            payload_per_req: 0,
        }
    }

    /// A replica holding a given role in the view-1 tree, with the view-1
    /// proposal already delivered.
    fn replica_with_role(
        role: Role,
        scheme: Arc<CountingScheme>,
    ) -> (InivaReplica<CountingScheme>, Block, TreeView) {
        let cfg = InivaConfig::for_tests(7, 2);
        let tree = tree_for_view(
            cfg.n,
            cfg.internal,
            &cfg.epoch_seed,
            1,
            &cfg.leader_policy,
            &LeaderContext::default(),
        );
        let id = (0..cfg.n as u32)
            .find(|&id| {
                tree.role_of(id) == role
                    && (role != Role::Internal || !tree.children_of(id).is_empty())
            })
            .expect("role present in a 7-node tree");
        let mut replica = InivaReplica::new(id, cfg, scheme);
        let block = genesis_block(1);
        let mut ctx = Context::external(id, 0);
        replica.handle_proposal(&mut ctx, block.clone(), None);
        assert!(replica.agg.is_some(), "proposal accepted");
        (replica, block, tree)
    }

    #[test]
    fn duplicate_spam_costs_no_extra_verifications() {
        let scheme = Arc::new(CountingScheme::new(7, b"dup-spam"));
        let (mut replica, block, tree) = replica_with_role(Role::Internal, Arc::clone(&scheme));
        let child = tree.children_of(replica.id)[0];
        let msg = vote_message(&block.hash(), 1);
        let sig = scheme.sign(child, &msg);
        let mut ctx = Context::external(replica.id, 0);
        let before = scheme.verified();
        replica.handle_signature(&mut ctx, child, 1, sig.clone());
        assert_eq!(scheme.verified() - before, 1, "first copy verifies once");
        // The spammed duplicates must be rejected by the cheap duplicate
        // check *before* any verification is charged.
        for _ in 0..50 {
            replica.handle_signature(&mut ctx, child, 1, sig.clone());
        }
        assert_eq!(
            scheme.verified() - before,
            1,
            "duplicates reached the crypto layer"
        );
        // Out-of-committee / malformed multiplicity shapes are also free.
        let double = scheme.scale(&scheme.sign(child, &msg), 2);
        replica.handle_signature(&mut ctx, child, 1, double);
        assert_eq!(scheme.verified() - before, 1);
    }

    #[test]
    fn root_batch_folds_honest_signatures_and_drops_forgeries() {
        let scheme = Arc::new(CountingScheme::new(7, b"root-batch"));
        let (mut replica, block, _tree) = replica_with_role(Role::Root, Arc::clone(&scheme));
        let msg = vote_message(&block.hash(), 1);
        let root = replica.id;
        let others: Vec<u32> = (0..7).filter(|&m| m != root).collect();
        // Three honest single votes and one forgery (wrong message bytes
        // under a plausible claimed signer), delivered as ONE batch — the
        // live transport's drain shape.
        let honest: Vec<u32> = others[..3].to_vec();
        let forger = others[3];
        let mut batch: Vec<(NodeId, u64, SimAggregate)> = honest
            .iter()
            .map(|&m| (m, 1, scheme.sign(m, &msg)))
            .collect();
        let mut forged = scheme.sign(forger, b"wrong message");
        forged.mults = Multiplicities::singleton(forger);
        batch.insert(1, (forger, 1, forged));
        let before = scheme.verified();
        let mut ctx = Context::external(root, 0);
        replica.handle_signatures(&mut ctx, batch);
        // One batched pass over the four candidates (the SimScheme default
        // per-item fallback counts each item once), no per-item retries.
        assert_eq!(scheme.verified() - before, 4);
        let st = replica.agg.as_ref().expect("aggregation live");
        let mults = scheme.multiplicities(&st.agg);
        assert!(mults.contains(root), "own vote");
        for m in honest {
            assert!(mults.contains(m), "honest vote {m} folded");
        }
        assert!(!mults.contains(forger), "forgery dropped");
        assert!(scheme.inner.verify(&msg, &st.agg), "accumulator verifies");
    }

    /// The block at `height == view` extending `parent`.
    fn child_block(parent: &Block) -> Block {
        Block {
            view: parent.view + 1,
            height: parent.height + 1,
            parent: parent.hash(),
            ..genesis_block(1)
        }
    }

    /// A genuine full-committee QC over `block`.
    fn qc_over(scheme: &CountingScheme, block: &Block) -> Qc<CountingScheme> {
        let msg = vote_message(&block.hash(), block.view);
        let agg = (1..7).fold(scheme.sign(0, &msg), |agg, s| {
            scheme.combine(&agg, &scheme.sign(s, &msg))
        });
        Qc {
            block_hash: block.hash(),
            view: block.view,
            height: block.height,
            agg,
        }
    }

    /// `qc_over(block)` with the aggregate swapped for a forgery claiming
    /// the same signers.
    fn forged_qc_over(scheme: &CountingScheme, block: &Block) -> Qc<CountingScheme> {
        let mut qc = qc_over(scheme, block);
        let mults = qc.agg.mults.clone();
        qc.agg = scheme.sign(1, b"wrong message");
        qc.agg.mults = mults;
        qc
    }

    #[test]
    fn proposer_never_reverifies_the_qc_it_formed() {
        let scheme = Arc::new(CountingScheme::new(7, b"qc-once"));
        let (mut root, block, _) = replica_with_role(Role::Root, Arc::clone(&scheme));
        let registry = Registry::new();
        root.set_observability(&registry, Tracer::disabled());
        let msg = vote_message(&block.hash(), 1);
        let votes: Vec<(NodeId, u64, SimAggregate)> = (0..7)
            .filter(|&m| m != root.id)
            .map(|m| (m, 1, scheme.sign(m, &msg)))
            .collect();
        // All six votes in: the root finalizes view 1 and proposes view 2
        // in the same handler turn, carrying the QC it just assembled.
        let before = scheme.verified();
        let mut ctx = Context::external(root.id, 0);
        root.handle_signatures(&mut ctx, votes);
        assert_eq!(root.agg.as_ref().map(|st| st.view), Some(2), "proposed v+1");
        assert_eq!(
            scheme.verified() - before,
            6,
            "six shares verified, the QC formed from them not again"
        );
        assert_eq!(registry.counter("consensus.qc_verify_skipped").get(), 1);
        let (block2, qc) = ctx
            .into_effects()
            .outbox
            .into_iter()
            .find_map(|(_, msg, _)| match msg {
                InivaMsg::Proposal { block, qc } => Some((block, qc)),
                _ => None,
            })
            .expect("the root sends its proposal out");
        assert!(qc.is_some(), "the proposal carries the QC");

        // A replica that did not form the QC pays for it exactly once.
        let (mut leaf, _, _) = replica_with_role(Role::Leaf, Arc::clone(&scheme));
        let before = scheme.verified();
        let mut ctx = Context::external(leaf.id, 0);
        leaf.handle_proposal(&mut ctx, block2, qc);
        assert_eq!(leaf.agg.as_ref().map(|st| st.view), Some(2), "voted v+1");
        assert_eq!(scheme.verified() - before, 1);
    }

    #[test]
    fn held_qc_is_not_reverified_and_a_forged_carrier_cannot_displace_it() {
        let scheme = Arc::new(CountingScheme::new(7, b"qc-memo"));
        // Replica 0 leads none of views 1..=5, so it only ever receives.
        let mut r = InivaReplica::new(0, InivaConfig::for_tests(7, 2), Arc::clone(&scheme));
        let b1 = genesis_block(1);
        let b2 = child_block(&b1);
        let b3 = child_block(&b2);
        let b4 = child_block(&b3);
        let mut ctx = Context::external(0, 0);
        r.handle_proposal(&mut ctx, b1.clone(), None);

        // The QC for b1 arrives on a TIMEOUT broadcast: verified, adopted.
        let genuine = qc_over(&scheme, &b1);
        let before = scheme.verified();
        r.handle_timeout(&mut ctx, 3, 1, Some(genuine.clone()));
        assert_eq!(scheme.verified() - before, 1, "adoption verifies once");
        let held = r.chain.highest_qc().expect("adopted").to_wire();
        assert_eq!(held, genuine.to_wire());

        // The next proposal carries a *forged* aggregate under the held
        // `(view, hash)`: no pairing, the block is accepted and voted, the
        // held certificate is untouched.
        let before = scheme.verified();
        r.handle_proposal(&mut ctx, b2.clone(), Some(forged_qc_over(&scheme, &b1)));
        assert_eq!(scheme.verified() - before, 0, "held QC is not re-verified");
        assert_eq!(r.agg.as_ref().map(|st| st.view), Some(2), "block accepted");
        assert!(r.chain.block(&b2.hash()).is_some());
        assert_eq!(r.chain.highest_qc().expect("still held").to_wire(), held);

        // Two more honest views commit b1; the certificate that graduates
        // with it (what state transfer serves, what rewards read) is the
        // genuine one — the forgery was never stored anywhere.
        r.handle_proposal(&mut ctx, b3.clone(), Some(qc_over(&scheme, &b2)));
        r.handle_proposal(&mut ctx, b4.clone(), Some(qc_over(&scheme, &b3)));
        assert_eq!(r.chain.committed_height(), 1);
        let (_, committed_qc) = r.chain.committed_entry(1).expect("b1 committed with proof");
        assert_eq!(committed_qc.to_wire(), held);

        // A forged aggregate under an *unknown* `(view, hash)` still goes
        // to verification and is rejected.
        let high = r.chain.highest_qc().expect("high QC").to_wire();
        let b5 = child_block(&b4);
        let before = scheme.verified();
        r.handle_proposal(&mut ctx, b5.clone(), Some(forged_qc_over(&scheme, &b4)));
        assert_eq!(scheme.verified() - before, 1);
        assert!(r.chain.block(&b5.hash()).is_none(), "proposal rejected");
        assert_eq!(r.chain.highest_qc().expect("high QC").to_wire(), high);
    }

    #[test]
    fn early_sig_buffer_is_bounded_against_floods() {
        let scheme = Arc::new(CountingScheme::new(7, b"early-flood"));
        let cfg = InivaConfig::for_tests(7, 2);
        let n = cfg.n;
        let mut replica = InivaReplica::new(0, cfg, Arc::clone(&scheme));
        let mut ctx = Context::external(0, 0);
        // No proposal delivered: every future-view signature is buffered.
        // One hostile sender flooding a single future view occupies ONE
        // slot (newest wins per sender/view pair).
        for i in 0..100u32 {
            let sig = scheme.sign(i % 7, b"spam");
            replica.handle_signature(&mut ctx, 3, 40, sig);
        }
        assert_eq!(replica.early_sigs.len(), 1);
        // Distinct senders to one view are capped at committee size.
        for sender in 0..100u32 {
            let sig = scheme.sign(sender % 7, b"spam");
            replica.handle_signature(&mut ctx, sender, 40, sig);
        }
        assert!(
            replica.early_sigs.len() <= n,
            "per-view cap exceeded: {}",
            replica.early_sigs.len()
        );
        // Flooding many views hits the total cap; the farthest-future
        // entries yield, so the views whose proposals arrive next are the
        // ones that survive.
        for view in 2..200u64 {
            let sig = scheme.sign((view % 7) as u32, b"spam");
            replica.handle_signature(&mut ctx, (view % 7) as NodeId, view, sig);
        }
        assert!(
            replica.early_sigs.len() <= EARLY_SIGS_TOTAL_FACTOR * n,
            "total cap exceeded: {}",
            replica.early_sigs.len()
        );
        assert!(
            replica.early_sigs.iter().any(|(_, v, _)| *v == 2),
            "the nearest future view must survive the flood"
        );
        assert!(
            !replica.early_sigs.iter().any(|(_, v, _)| *v == 199),
            "the farthest future view must have yielded"
        );
        // Verification was never charged for buffered signatures.
        assert_eq!(scheme.verified(), 0);
    }

    #[test]
    fn extreme_view_numbers_do_not_panic_the_buffer() {
        // `view` is raw wire input: buffering u64::MAX and then pruning
        // must not overflow (debug builds panic on `u64::MAX + 2`).
        let scheme = Arc::new(CountingScheme::new(7, b"early-extreme"));
        let cfg = InivaConfig::for_tests(7, 2);
        let mut replica = InivaReplica::new(0, cfg, Arc::clone(&scheme));
        let mut ctx = Context::external(0, 0);
        replica.handle_signature(&mut ctx, 1, u64::MAX, scheme.sign(1, b"spam"));
        // The next buffered signature re-runs the prune over the
        // u64::MAX entry.
        replica.handle_signature(&mut ctx, 2, 5, scheme.sign(2, b"spam"));
        assert!(replica.early_sigs.iter().any(|(_, v, _)| *v == 5));
        assert_eq!(scheme.verified(), 0);
    }
}

#[cfg(test)]
mod state_sync_tests {
    use super::*;
    use iniva_crypto::multisig::Multiplicities;
    use iniva_crypto::sim_scheme::{SimAggregate, SimScheme, Tag};
    use iniva_net::wire::Codec;

    /// A committed prefix of `count` chained blocks, each certified by a
    /// QC carrying `signers` distinct signers (what a long-lived large
    /// committee accumulates). Serving never verifies, so the aggregates
    /// are constructed directly — `count × signers` sequential
    /// sign/combine calls would be quadratic in the multiplicity-table
    /// size and dominate test wall time at the sizes used here.
    fn committed_prefix(count: u64, signers: u32) -> Vec<(Block, Option<Qc<SimScheme>>)> {
        let mults = Multiplicities::from_iter((0..signers).map(|s| (s, 1)));
        let mut parent = GENESIS_HASH;
        let mut out = Vec::new();
        for h in 1..=count {
            let block = Block {
                view: h,
                height: h,
                parent,
                proposer: 0,
                batch_start: 0,
                batch_len: 0,
                payload_per_req: 0,
            };
            parent = block.hash();
            let qc = Qc {
                block_hash: block.hash(),
                view: h,
                height: h,
                agg: SimAggregate {
                    tag: Tag(h as u128, 0),
                    mults: mults.clone(),
                },
            };
            out.push((block, Some(qc)));
        }
        out
    }

    /// Serves one StateRequest against a replica holding `prefix`,
    /// returning the responded chunk (None if nothing was sent).
    fn serve(
        scheme: &Arc<SimScheme>,
        cfg: &InivaConfig,
        prefix: Vec<(Block, Option<Qc<SimScheme>>)>,
        from_height: u64,
    ) -> Option<StateResponse<Block, Qc<SimScheme>>> {
        let view = prefix.last().map_or(1, |(b, _)| b.view + 1);
        let mut replica = InivaReplica::recover(0, cfg.clone(), Arc::clone(scheme), prefix, view);
        let mut ctx = Context::external(0, 0);
        replica.handle_state_request(&mut ctx, 1, from_height);
        let effects = ctx.into_effects();
        let mut responses = effects.outbox.into_iter().map(|(to, msg, _)| {
            assert_eq!(to, 1);
            match msg {
                InivaMsg::StateResponse(resp) => resp,
                other => panic!("unexpected message {other:?}"),
            }
        });
        responses.next()
    }

    /// With a large committee the per-entry QC encoding dominates, and the
    /// chunk must stop at the encoded-byte budget — well before the
    /// MAX_STATE_BLOCKS count cap — with the boundary exactly tight: one
    /// more entry would cross it.
    #[test]
    fn state_response_chunks_by_encoded_bytes_at_the_boundary() {
        let n = 200usize;
        let signers = 150u32;
        let scheme = Arc::new(SimScheme::new(n, b"state-sync"));
        let cfg = InivaConfig::for_tests(n, 2);
        let total = 300u64;
        let prefix = committed_prefix(total, signers);

        let resp = serve(&scheme, &cfg, prefix.clone(), 1).expect("a chunk is served");
        let served = resp.blocks.len() as u64;
        assert!(
            served < total,
            "byte budget must bind before the range ends"
        );
        assert!(served > 0);
        let body = resp.to_frame().len();
        assert!(
            body <= MAX_STATE_RESPONSE_BYTES,
            "encoded chunk {body} exceeds the byte budget"
        );
        // Tight at the boundary: the first unserved entry would not fit.
        let (next_block, next_qc) = &prefix[served as usize];
        let next = next_block.to_wire().len() + next_qc.as_ref().unwrap().to_wire().len();
        assert!(
            body + next > MAX_STATE_RESPONSE_BYTES,
            "chunk stopped early: {body} + {next} fits the budget"
        );

        // Follow-up rounds (the requester's gap detector re-fires) cover
        // the remainder: chunks tile the range without holes or overlap.
        let resp2 = serve(&scheme, &cfg, prefix.clone(), served + 1).expect("second chunk");
        assert_eq!(resp2.blocks[0].height, served + 1);
        let covered = served + resp2.blocks.len() as u64;
        assert!(covered > served, "second round advances");
    }

    /// A single entry larger than the whole budget must still ship —
    /// alone — or the requester would be stranded behind it forever.
    #[test]
    fn oversized_single_entry_still_makes_progress() {
        // ~22k signers × 12 bytes/entry ≈ 264 KiB: one QC alone crosses
        // MAX_STATE_RESPONSE_BYTES (256 KiB).
        let n = 22_000usize;
        let scheme = Arc::new(SimScheme::new(n, b"state-sync-huge"));
        let cfg = InivaConfig::for_tests(n, 2);
        let prefix = committed_prefix(2, n as u32);
        let entry_bytes =
            prefix[0].0.to_wire().len() + prefix[0].1.as_ref().unwrap().to_wire().len();
        assert!(entry_bytes > MAX_STATE_RESPONSE_BYTES, "test premise");

        let resp = serve(&scheme, &cfg, prefix.clone(), 1).expect("progress");
        assert_eq!(resp.blocks.len(), 1, "exactly the oversized head entry");
        assert_eq!(resp.blocks[0].height, 1);
        let resp2 = serve(&scheme, &cfg, prefix, 2).expect("next round");
        assert_eq!(resp2.blocks[0].height, 2);
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use iniva_crypto::sim_scheme::{SimAggregate, SimScheme};
    use iniva_net::wire::Codec;

    fn sample_block() -> Block {
        Block {
            view: 3,
            height: 2,
            parent: [9u8; 32],
            proposer: 1,
            batch_start: 77,
            batch_len: 10,
            payload_per_req: 64,
        }
    }

    fn sample_qc(s: &SimScheme, b: &Block) -> Qc<SimScheme> {
        let msg = vote_message(&b.hash(), b.view);
        let agg = s.combine(&s.sign(0, &msg), &s.scale(&s.sign(2, &msg), 2));
        Qc {
            block_hash: b.hash(),
            view: b.view,
            height: b.height,
            agg,
        }
    }

    fn variants() -> Vec<InivaMsg<SimScheme>> {
        let s = SimScheme::new(4, b"wire-tests");
        let b = sample_block();
        let qc = sample_qc(&s, &b);
        let agg = s.combine(&s.sign(1, b"m"), &s.sign(3, b"m"));
        vec![
            InivaMsg::Proposal {
                block: b.clone(),
                qc: Some(qc.clone()),
            },
            InivaMsg::Proposal {
                block: b.clone(),
                qc: None,
            },
            InivaMsg::Signature {
                view: 5,
                agg: agg.clone(),
            },
            InivaMsg::Ack { view: 6, agg },
            InivaMsg::SecondChance {
                block: b.clone(),
                qc: Some(qc.clone()),
            },
            InivaMsg::StateRequest(StateRequest { from_height: 42 }),
            InivaMsg::StateResponse(StateResponse {
                blocks: vec![b.clone(), b],
                qcs: vec![qc.clone(), qc.clone()],
            }),
            InivaMsg::Timeout {
                view: 7,
                high_qc: Some(qc),
            },
            InivaMsg::Timeout {
                view: 8,
                high_qc: None,
            },
        ]
    }

    fn assert_msg_eq(a: &InivaMsg<SimScheme>, b: &InivaMsg<SimScheme>) {
        // InivaMsg has no PartialEq (aggregates are scheme-defined);
        // compare through the canonical encoding instead.
        assert_eq!(&a.to_frame()[..], &b.to_frame()[..]);
    }

    #[test]
    fn every_variant_roundtrips() {
        for m in variants() {
            let frame = m.to_frame();
            let back: InivaMsg<SimScheme> = Codec::from_frame(frame).unwrap();
            assert_msg_eq(&m, &back);
        }
    }

    #[test]
    fn truncation_never_panics() {
        for m in variants() {
            let frame = m.to_frame();
            for cut in 0..frame.len() {
                assert!(
                    InivaMsg::<SimScheme>::from_frame(frame.slice(0..cut)).is_err(),
                    "prefix of {cut} bytes decoded as a full message"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        for m in variants() {
            let mut enc = iniva_net::wire::Encoder::new();
            m.encode(&mut enc);
            enc.put_u8(0);
            assert!(matches!(
                InivaMsg::<SimScheme>::from_frame(enc.finish()),
                Err(DecodeError::TrailingBytes { .. })
            ));
        }
    }

    #[test]
    fn unknown_discriminant_rejected() {
        let mut enc = iniva_net::wire::Encoder::new();
        enc.put_u8(9).put_u64(1);
        assert!(matches!(
            InivaMsg::<SimScheme>::from_frame(enc.finish()),
            Err(DecodeError::InvalidTag { tag: 9, .. })
        ));
    }

    #[test]
    fn decoded_aggregates_still_verify() {
        let s = SimScheme::new(4, b"wire-tests");
        let msg = b"payload";
        let agg = s.combine(&s.sign(0, msg), &s.sign(1, msg));
        let m: InivaMsg<SimScheme> = InivaMsg::Signature { view: 2, agg };
        let back: InivaMsg<SimScheme> = Codec::from_frame(m.to_frame()).unwrap();
        match back {
            InivaMsg::Signature { view, agg } => {
                assert_eq!(view, 2);
                assert!(s.verify(msg, &agg));
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[allow(clippy::extra_unused_type_parameters)]
    fn assert_codec<T: Codec>() {}

    #[test]
    fn protocol_messages_satisfy_the_codec_contract() {
        // Compile-time check that both backends can ship these enums,
        // under either vote scheme.
        use iniva_crypto::bls::{BlsAggregate, BlsScheme};
        assert_codec::<InivaMsg<SimScheme>>();
        assert_codec::<iniva_consensus::StarMsg<SimScheme>>();
        assert_codec::<SimAggregate>();
        assert_codec::<Qc<SimScheme>>();
        assert_codec::<InivaMsg<BlsScheme>>();
        assert_codec::<iniva_consensus::StarMsg<BlsScheme>>();
        assert_codec::<BlsAggregate>();
        assert_codec::<Qc<BlsScheme>>();
        assert_codec::<Block>();
    }
}

#[cfg(test)]
mod leader_agreement_tests {
    use super::*;
    use iniva_crypto::multisig::Multiplicities;
    use iniva_crypto::sim_scheme::SimScheme;

    const N: usize = 4;

    fn carousel_cfg() -> InivaConfig {
        let mut cfg = InivaConfig::for_tests(N, 2);
        cfg.leader_policy = LeaderPolicy::Carousel;
        cfg
    }

    /// A properly signed committed prefix of `count` chained blocks —
    /// unlike `state_sync_tests::committed_prefix`, the QCs here are real
    /// sign/combine aggregates over `vote_message`, so the adopting
    /// replica's batch verification accepts them. Proposers rotate so the
    /// recent-leader window is non-trivial.
    fn signed_prefix(
        scheme: &SimScheme,
        count: u64,
        signers: &[u32],
    ) -> Vec<(Block, Qc<SimScheme>)> {
        let mut parent = GENESIS_HASH;
        let mut out = Vec::new();
        for h in 1..=count {
            let block = Block {
                view: h,
                height: h,
                parent,
                proposer: (h % N as u64) as u32,
                batch_start: 0,
                batch_len: 0,
                payload_per_req: 0,
            };
            parent = block.hash();
            let msg = vote_message(&block.hash(), block.view);
            let mut agg = scheme.sign(signers[0], &msg);
            for &s in &signers[1..] {
                agg = scheme.combine(&agg, &scheme.sign(s, &msg));
            }
            let qc = Qc {
                block_hash: block.hash(),
                view: block.view,
                height: block.height,
                agg,
            };
            out.push((block, qc));
        }
        out
    }

    /// Delivers one message through the full dispatch path (including the
    /// post-dispatch state-transfer probe) and returns the outbox.
    fn deliver(
        r: &mut InivaReplica<SimScheme>,
        from: u32,
        msg: InivaMsg<SimScheme>,
        now: Time,
    ) -> Vec<(NodeId, InivaMsg<SimScheme>, usize)> {
        let mut ctx = Context::external(r.id, now);
        r.on_message(&mut ctx, from, msg);
        ctx.into_effects().outbox
    }

    fn fire_view_timer(
        r: &mut InivaReplica<SimScheme>,
        now: Time,
    ) -> Vec<(NodeId, InivaMsg<SimScheme>, usize)> {
        let view = r.current_view();
        let mut ctx = Context::external(r.id, now);
        r.on_timer(&mut ctx, timer_id(view, TIMER_VIEW));
        ctx.into_effects().outbox
    }

    /// The tentpole property: two replicas whose QC knowledge diverged (one
    /// saw a committed prefix the other never did) elect divergent leaders;
    /// a single timeout round — the TIMEOUT broadcast plus the state
    /// transfer its adopted QC triggers — converges them.
    #[test]
    fn timeout_round_converges_diverged_leader_election() {
        let scheme = Arc::new(SimScheme::new(N, b"leader-agree"));
        let cfg = carousel_cfg();
        let mut a = InivaReplica::new(0, cfg.clone(), Arc::clone(&scheme));
        let mut b = InivaReplica::new(1, cfg, Arc::clone(&scheme));

        // Deliver a committed prefix (voters {0, 2, 3}) to A only.
        let prefix = signed_prefix(&scheme, 6, &[0, 2, 3]);
        let (blocks, qcs): (Vec<_>, Vec<_>) = prefix.into_iter().unzip();
        deliver(
            &mut a,
            2,
            InivaMsg::StateResponse(StateResponse { blocks, qcs }),
            0,
        );
        assert_eq!(a.chain.committed_height(), 6, "A adopted the prefix");
        assert_eq!(b.chain.committed_height(), 0, "B never saw it");

        // Divergence: A elects from its Carousel pool, B round-robins.
        assert!(
            (1..=8).any(|v| a.leader_of(v) != b.leader_of(v)),
            "diverged replicas should elect divergent leaders"
        );

        // One timeout round. A's view timer fires: it broadcasts TIMEOUT
        // with its high QC to every peer.
        let out = fire_view_timer(&mut a, 1);
        let to_b = out
            .iter()
            .find_map(|(to, msg, _)| match (to, msg) {
                (1, InivaMsg::Timeout { .. }) => Some(msg.clone()),
                _ => None,
            })
            .expect("A broadcasts TIMEOUT to B");
        // B verifies + adopts the carried QC, fast-forwards, and its
        // state-transfer probe fires at A.
        let out = deliver(&mut b, 0, to_b, 2);
        assert!(
            b.chain.highest_qc().is_some_and(|qc| qc.height == 6),
            "B adopted A's high QC"
        );
        let req = out
            .into_iter()
            .find(|(to, msg, _)| *to == 0 && matches!(msg, InivaMsg::StateRequest(_)))
            .map(|(_, msg, _)| msg)
            .expect("the adopted QC opens a gap; B asks A for state");
        // A serves the request; B adopts the committed prefix.
        let out = deliver(&mut a, 1, req, 3);
        let resp = out
            .into_iter()
            .find(|(to, msg, _)| *to == 1 && matches!(msg, InivaMsg::StateResponse(_)))
            .map(|(_, msg, _)| msg)
            .expect("A serves the committed prefix");
        deliver(&mut b, 0, resp, 4);
        assert_eq!(b.chain.committed_height(), 6, "B caught up");

        // Agreement: both replicas now elect the same leader for every
        // upcoming view.
        for v in 1..=20 {
            assert_eq!(
                a.leader_of(v),
                b.leader_of(v),
                "replicas disagree on the leader of view {v}"
            );
        }
        // And the pool really is the committed-tip voter set (minus the
        // recent-leader window), not round-robin.
        assert!(
            (7..=15).any(|v| a.leader_of(v) != (v % N as u64) as u32),
            "Carousel should deviate from round-robin for some view"
        );
    }

    /// The recent-leader window is sampled at [`CAROUSEL_WINDOW_EPOCH`]
    /// boundaries of the committed height, not slid on every commit: a
    /// per-commit window differs between replicas transiently skewed by
    /// one block, re-diverging the very election the committed-tip pool
    /// just converged.
    #[test]
    fn recent_leader_window_is_epoch_sampled() {
        let scheme = Arc::new(SimScheme::new(N, b"epoch-window"));
        let mut r = InivaReplica::new(0, carousel_cfg(), Arc::clone(&scheme));
        // One block past an epoch boundary; proposers rotate `h % N`.
        let count = CAROUSEL_WINDOW_EPOCH + 1;
        let prefix = signed_prefix(&scheme, count, &[0, 2, 3]);
        let (blocks, qcs): (Vec<_>, Vec<_>) = prefix.into_iter().unzip();
        deliver(
            &mut r,
            2,
            InivaMsg::StateResponse(StateResponse { blocks, qcs }),
            0,
        );
        assert_eq!(r.chain.committed_height(), count);
        // f = (4-1)/3 = 1: the window holds the proposer of the *boundary*
        // block (height 8), not the tip (height 9) a sliding window would
        // name.
        let window: Vec<u32> = r.leader_ctx.recent_leaders.iter().copied().collect();
        let boundary_proposer = (CAROUSEL_WINDOW_EPOCH % N as u64) as u32;
        let tip_proposer = (count % N as u64) as u32;
        assert_eq!(window, vec![boundary_proposer]);
        assert_ne!(window, vec![tip_proposer]);
    }

    /// Hostile TIMEOUT: a forged high QC (claimed quorum, bad signature)
    /// and a sub-quorum one are both rejected — nothing adopted, the
    /// pacemaker unmoved; the unauthenticated `view` field alone never
    /// drags the replica forward.
    #[test]
    fn hostile_timeout_qc_is_rejected_and_not_adopted() {
        let scheme = Arc::new(SimScheme::new(N, b"hostile-timeout"));
        let mut r = InivaReplica::new(0, carousel_cfg(), Arc::clone(&scheme));

        let block = Block {
            view: 9,
            height: 9,
            parent: [7u8; 32],
            proposer: 1,
            batch_start: 0,
            batch_len: 0,
            payload_per_req: 0,
        };
        // Forged: signature over the wrong message, multiplicity table
        // rewritten to claim a quorum of signers.
        let mut forged = scheme.sign(1, b"wrong message");
        forged.mults = Multiplicities::from_iter((0..3).map(|s| (s, 1)));
        let forged_qc = Qc {
            block_hash: block.hash(),
            view: block.view,
            height: block.height,
            agg: forged,
        };
        deliver(
            &mut r,
            1,
            InivaMsg::Timeout {
                view: 50,
                high_qc: Some(forged_qc),
            },
            0,
        );
        assert!(r.chain.highest_qc().is_none(), "forged QC must not adopt");
        assert_eq!(
            r.current_view(),
            1,
            "claimed view must not move the pacemaker"
        );
        assert!(r.leader_ctx.committed_voters.is_empty());

        // Sub-quorum: honestly signed by 2 of 4 (< quorum of 3); rejected
        // by the cheap structural check before any crypto.
        let msg = vote_message(&block.hash(), block.view);
        let weak = scheme.combine(&scheme.sign(0, &msg), &scheme.sign(1, &msg));
        let weak_qc = Qc {
            block_hash: block.hash(),
            view: block.view,
            height: block.height,
            agg: weak,
        };
        deliver(
            &mut r,
            2,
            InivaMsg::Timeout {
                view: 50,
                high_qc: Some(weak_qc),
            },
            1,
        );
        assert!(
            r.chain.highest_qc().is_none(),
            "sub-quorum QC must not adopt"
        );
        assert_eq!(r.current_view(), 1);

        // A TIMEOUT with no QC at all is a no-op.
        deliver(
            &mut r,
            3,
            InivaMsg::Timeout {
                view: 50,
                high_qc: None,
            },
            2,
        );
        assert_eq!(r.current_view(), 1);
    }

    /// A valid TIMEOUT QC fast-forwards the pacemaker only to the view the
    /// *certificate* proves (qc.view + 1), never to the sender's claimed
    /// timeout view.
    #[test]
    fn timeout_fast_forward_is_certificate_anchored() {
        let scheme = Arc::new(SimScheme::new(N, b"ff-timeout"));
        let mut r = InivaReplica::new(0, carousel_cfg(), Arc::clone(&scheme));
        let prefix = signed_prefix(&scheme, 1, &[0, 1, 2]);
        let (_, qc) = prefix.into_iter().next().unwrap();
        deliver(
            &mut r,
            1,
            InivaMsg::Timeout {
                view: 1_000_000, // hostile far-future claim
                high_qc: Some(qc),
            },
            0,
        );
        assert!(r.chain.highest_qc().is_some_and(|q| q.height == 1));
        assert_eq!(
            r.current_view(),
            2,
            "pacemaker follows the certified view (qc.view + 1), not the claim"
        );
    }

    /// The Carousel pool is derived from the *committed* tip, not the
    /// volatile high QC: adopting a bare QC (no committed block) must not
    /// move the pool.
    #[test]
    fn carousel_pool_anchors_to_committed_tip_not_high_qc() {
        let scheme = Arc::new(SimScheme::new(N, b"pool-anchor"));
        let mut r = InivaReplica::new(0, carousel_cfg(), Arc::clone(&scheme));

        // Before the first commit, the pool bootstraps from the high QC:
        // it is the only certificate there is, and the TIMEOUT exchange
        // converges it, so rotating over its voters beats round-robin
        // over a committee that may include crashed replicas.
        let (_, qc) = signed_prefix(&scheme, 1, &[1, 2, 3])
            .into_iter()
            .next()
            .unwrap();
        deliver(
            &mut r,
            1,
            InivaMsg::Timeout {
                view: 1,
                high_qc: Some(qc),
            },
            0,
        );
        assert!(r.chain.highest_qc().is_some(), "QC adopted");
        assert_eq!(
            r.leader_ctx.committed_voters,
            vec![1, 2, 3],
            "pre-commit, the pool bootstraps from the high QC"
        );

        // Commit a prefix: the pool re-anchors to the committed tip's QC.
        let prefix = signed_prefix(&scheme, 6, &[0, 2, 3]);
        let (blocks, qcs): (Vec<_>, Vec<_>) = prefix.into_iter().unzip();
        deliver(
            &mut r,
            2,
            InivaMsg::StateResponse(StateResponse { blocks, qcs }),
            0,
        );
        assert!(r.chain.committed_height() > 0, "prefix committed");
        assert_eq!(r.leader_ctx.committed_voters, vec![0, 2, 3]);
        let anchored = r.leader_ctx.anchor_view;

        // Once a commit exists, a higher uncommitted QC must NOT move the
        // pool: post-commit high QCs diverge across replicas during
        // failed views, and following them is the live-collapse bug.
        let (_, high) = signed_prefix(&scheme, 8, &[0, 1, 2])
            .into_iter()
            .last()
            .unwrap();
        deliver(
            &mut r,
            1,
            InivaMsg::Timeout {
                view: 8,
                high_qc: Some(high),
            },
            1,
        );
        assert_eq!(
            r.leader_ctx.committed_voters,
            vec![0, 2, 3],
            "post-commit, the pool must not follow an uncommitted QC"
        );
        assert_eq!(r.leader_ctx.anchor_view, anchored);
    }

    /// An out-of-committee id in the Carousel pool (hostile aggregate
    /// claiming phantom signers) must not panic tree derivation: the
    /// round-robin pick takes the root instead.
    #[test]
    fn out_of_committee_pool_falls_back_to_round_robin() {
        let scheme = Arc::new(SimScheme::new(N, b"oob-pool"));
        let mut r = InivaReplica::new(0, carousel_cfg(), Arc::clone(&scheme));
        r.leader_ctx.set_committed_voters(vec![99]);
        for view in 1..=6u64 {
            r.leader_ctx.anchor_view = view; // keep the stall fallback quiet
            let rr = ((view + 1) % N as u64) as u32;
            assert_eq!(r.leader_of(view + 1), rr, "leader_of falls back");
            let tree = r.tree_for_view(view);
            assert_eq!(tree.root(), rr, "tree root matches the fallback leader");
        }
    }

    /// A timed-out state request is retried against a *different* peer —
    /// re-asking the silent (likely dead) target would wedge catch-up.
    #[test]
    fn state_request_retry_avoids_the_silent_target() {
        let scheme = Arc::new(SimScheme::new(N, b"retry-target"));
        let cfg = carousel_cfg();
        let timeout = cfg.view_timeout;
        let mut r = InivaReplica::new(0, cfg, Arc::clone(&scheme));
        // Open a gap: a high QC at height 6 with nothing committed.
        let (_, qc) = signed_prefix(&scheme, 6, &[0, 1, 2]).pop().unwrap();
        r.chain.on_qc(qc, 0, &scheme);
        assert_eq!(r.chain.committed_height(), 0);

        let probe = |r: &mut InivaReplica<SimScheme>, from: u32, now: Time| {
            let mut ctx = Context::external(0, now);
            r.maybe_request_state(&mut ctx, from);
            ctx.into_effects().outbox
        };
        // First probe: request goes to peer 1.
        let out = probe(&mut r, 1, 0);
        assert!(
            matches!(out.as_slice(), [(1, InivaMsg::StateRequest(_), _)]),
            "first request targets peer 1"
        );
        // Within the timeout: rate-limited, regardless of sender.
        assert!(probe(&mut r, 2, timeout / 2).is_empty());
        // Past the timeout with no progress: the silent target is skipped…
        assert!(
            probe(&mut r, 1, timeout + 1).is_empty(),
            "the dead peer must not be re-asked"
        );
        // …but a different live peer gets the retry.
        let out = probe(&mut r, 2, timeout + 2);
        assert!(
            matches!(out.as_slice(), [(2, InivaMsg::StateRequest(_), _)]),
            "retry targets a different peer"
        );
    }

    /// `on_start` journals the starting view: a replica crashing in view 1
    /// must not restart believing it never entered it.
    #[test]
    fn on_start_journals_the_first_view() {
        use iniva_consensus::chain::CommitSink;
        #[derive(Default)]
        struct ViewSink(std::sync::Arc<std::sync::Mutex<Vec<u64>>>);
        impl CommitSink<SimScheme> for ViewSink {
            fn committed(&mut self, _: &Block, _: Option<&Qc<SimScheme>>) {}
            fn entered_view(&mut self, view: u64) {
                self.0.lock().unwrap().push(view);
            }
        }
        let scheme = Arc::new(SimScheme::new(N, b"start-journal"));
        let mut r = InivaReplica::new(2, carousel_cfg(), Arc::clone(&scheme));
        let sink = ViewSink::default();
        let views = std::sync::Arc::clone(&sink.0);
        r.chain.set_commit_sink(Box::new(sink));
        let mut ctx = Context::external(2, 0);
        r.on_start(&mut ctx);
        assert_eq!(&*views.lock().unwrap(), &[1], "view 1 journaled on start");
        assert_eq!(r.chain.metrics.total_views, 1, "counted exactly once");
        let timers = ctx.into_effects().timers;
        assert!(
            timers.iter().any(|&(_, id)| id == timer_id(1, TIMER_VIEW)),
            "view timer armed"
        );
    }

    /// Every view timeout broadcasts TIMEOUT to all peers, carrying the
    /// sender's high QC (None before any QC forms).
    #[test]
    fn view_timeout_broadcasts_to_all_peers() {
        let scheme = Arc::new(SimScheme::new(N, b"timeout-bcast"));
        let mut r = InivaReplica::new(0, carousel_cfg(), Arc::clone(&scheme));
        let out = fire_view_timer(&mut r, 1);
        let mut targets: Vec<u32> = out
            .iter()
            .filter_map(|(to, msg, _)| {
                matches!(
                    msg,
                    InivaMsg::Timeout {
                        view: 1,
                        high_qc: None
                    }
                )
                .then_some(*to)
            })
            .collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![1, 2, 3], "every peer hears the timeout");
        assert_eq!(r.current_view(), 2, "the pacemaker still advances");
    }
}
