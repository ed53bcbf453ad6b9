//! The baseline HotStuff replica with *star* aggregation: every replica
//! votes directly to the next leader, which verifies each signature
//! individually and aggregates them into a QC (paper Section II-B.1).
//!
//! The replica is round-based, as in the paper's evaluation ("a new block is
//! only proposed after the votes for the previous block have been
//! aggregated"), with LSO leader rotation: the proposal for view `v` is
//! disseminated by `L_v` and votes are aggregated by `L_{v+1}`.

use crate::chain::ChainState;
use crate::leader::{LeaderContext, LeaderPolicy};
use crate::types::{quorum, vote_message, Block, Qc, AGG_SIG_BYTES, PER_SIGNER_BYTES};
use iniva_crypto::multisig::VoteScheme;
use iniva_net::cost::CostModel;
use iniva_net::wire::{DecodeError, Decoder, Encoder, WireDecode, WireEncode};
use iniva_net::{Actor, Context, NodeId, Time};
use std::sync::Arc;

/// Configuration shared by all replicas of a run.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Committee size.
    pub n: usize,
    /// Max requests batched per block.
    pub max_batch: u32,
    /// Payload bytes per request.
    pub payload_per_req: u32,
    /// Open-loop client request rate (requests/second; 0 = no payload).
    pub request_rate: u64,
    /// View timeout (pacemaker).
    pub view_timeout: Time,
    /// Leader election policy.
    pub leader_policy: LeaderPolicy,
    /// CPU cost model.
    pub cost: CostModel,
}

impl ReplicaConfig {
    /// A small default configuration for tests.
    pub fn for_tests(n: usize) -> Self {
        ReplicaConfig {
            n,
            max_batch: 100,
            payload_per_req: 64,
            request_rate: 10_000,
            view_timeout: 200 * iniva_net::MILLIS,
            leader_policy: LeaderPolicy::RoundRobin,
            cost: CostModel::default(),
        }
    }
}

/// Messages of the star protocol.
#[derive(Debug)]
pub enum StarMsg<S: VoteScheme> {
    /// A proposal from `L_v` carrying the justifying QC for its parent.
    Proposal {
        /// The proposed block.
        block: Block,
        /// QC certifying `block.parent` (`None` only for view-1 proposals
        /// extending genesis).
        qc: Option<Qc<S>>,
    },
    /// A vote sent to the aggregating next leader.
    Vote {
        /// Voted view.
        view: u64,
        /// Voted block.
        block: Block,
        /// The voter's signature (multiplicity-1 aggregate).
        agg: S::Aggregate,
    },
}

impl<S: VoteScheme> Clone for StarMsg<S> {
    fn clone(&self) -> Self {
        match self {
            StarMsg::Proposal { block, qc } => StarMsg::Proposal {
                block: block.clone(),
                qc: qc.clone(),
            },
            StarMsg::Vote { view, block, agg } => StarMsg::Vote {
                view: *view,
                block: block.clone(),
                agg: agg.clone(),
            },
        }
    }
}

impl<S: VoteScheme> WireEncode for StarMsg<S>
where
    S::Aggregate: WireEncode,
{
    fn encode(&self, enc: &mut Encoder) {
        match self {
            StarMsg::Proposal { block, qc } => {
                enc.put_u8(0);
                block.encode(enc);
                enc.put_opt(qc);
            }
            StarMsg::Vote { view, block, agg } => {
                enc.put_u8(1).put_u64(*view);
                block.encode(enc);
                agg.encode(enc);
            }
        }
    }
}

impl<S: VoteScheme> WireDecode for StarMsg<S>
where
    S::Aggregate: WireDecode,
{
    fn decode(dec: &mut Decoder) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(StarMsg::Proposal {
                block: Block::decode(dec)?,
                qc: dec.get_opt()?,
            }),
            1 => Ok(StarMsg::Vote {
                view: dec.get_u64()?,
                block: Block::decode(dec)?,
                agg: S::Aggregate::decode(dec)?,
            }),
            tag => Err(DecodeError::InvalidTag {
                tag,
                context: "StarMsg",
            }),
        }
    }
}

/// Vote accumulation at the next leader. Structural checks (one signer,
/// multiplicity 1, no duplicates) run on arrival; the expensive pairing
/// verification is *deferred* until a quorum's worth of votes is queued,
/// at which point the whole set verifies under one multi-pairing batch
/// (all votes of a view sign the same message, so the batch costs two
/// Miller loops total instead of two per vote — the star leader's CPU
/// hotspot the paper's Section II-B.1 describes).
struct PendingVotes<S: VoteScheme> {
    view: u64,
    block: Block,
    /// Batch-verified accumulated aggregate.
    verified: Option<S::Aggregate>,
    /// Structurally-accepted votes awaiting batch verification.
    queued: Vec<S::Aggregate>,
}

impl<S: VoteScheme> PendingVotes<S> {
    /// Distinct signers in the batch-verified accumulator alone. Only
    /// these count toward displacement protection: queued votes are
    /// unverified, and letting them confer stickiness would let one
    /// forged vote lock in a junk accumulation.
    fn verified_distinct(&self, scheme: &S) -> usize {
        self.verified
            .as_ref()
            .map_or(0, |acc| scheme.multiplicities(acc).distinct())
    }

    /// Distinct signers across the verified accumulator and the queue
    /// (the quorum trigger).
    fn collected(&self, scheme: &S) -> usize {
        self.verified_distinct(scheme) + self.queued.len()
    }
}

/// A star-topology HotStuff replica.
pub struct StarReplica<S: VoteScheme> {
    /// This replica's committee id (== its simulator NodeId).
    pub id: u32,
    cfg: ReplicaConfig,
    scheme: Arc<S>,
    /// The replica's view of the chain (public for metric harvesting).
    pub chain: ChainState<S>,
    current_view: u64,
    last_voted_view: u64,
    leader_ctx: LeaderContext,
    /// Vote accumulation at the next leader.
    pending: Option<PendingVotes<S>>,
    qc_formed_for_view: u64,
}

impl<S: VoteScheme> StarReplica<S> {
    /// Creates a replica.
    pub fn new(id: u32, cfg: ReplicaConfig, scheme: Arc<S>) -> Self {
        let chain = ChainState::new(cfg.request_rate);
        StarReplica {
            id,
            cfg,
            scheme,
            chain,
            current_view: 1,
            last_voted_view: 0,
            leader_ctx: LeaderContext::default(),
            pending: None,
            qc_formed_for_view: 0,
        }
    }

    fn leader_of(&self, view: u64) -> u32 {
        self.cfg
            .leader_policy
            .leader(view, self.cfg.n, &self.leader_ctx)
    }

    fn qc_wire(&self, qc: &Option<Qc<S>>) -> usize {
        qc.as_ref().map_or(0, |q| q.wire_bytes(&self.scheme))
    }

    fn propose(&mut self, ctx: &mut Context<StarMsg<S>>) {
        let block = self.chain.draft_block(
            self.current_view,
            self.id,
            ctx.now(),
            self.cfg.max_batch,
            self.cfg.payload_per_req,
        );
        let qc = self.chain.highest_qc().cloned();
        self.chain.insert_block(block.clone());
        let bytes = block.wire_bytes() + self.qc_wire(&qc);
        for peer in 0..self.cfg.n as NodeId {
            if peer != self.id {
                ctx.send(
                    peer,
                    StarMsg::Proposal {
                        block: block.clone(),
                        qc: qc.clone(),
                    },
                    bytes,
                );
            }
        }
        // The proposer also processes its own proposal (votes for it).
        self.handle_proposal(ctx, block, qc);
    }

    fn enter_view(&mut self, ctx: &mut Context<StarMsg<S>>, view: u64, failed: bool) {
        if view <= self.current_view && self.chain.metrics.total_views > 0 {
            return;
        }
        self.current_view = view;
        self.chain.metrics.total_views += 1;
        if failed {
            self.chain.metrics.failed_views += 1;
        }
        ctx.set_timer(self.cfg.view_timeout, view);
    }

    fn handle_proposal(&mut self, ctx: &mut Context<StarMsg<S>>, block: Block, qc: Option<Qc<S>>) {
        let cost = self.cfg.cost.clone();
        // Validate the justifying QC.
        match &qc {
            Some(q) => {
                let signers = q.signer_count(&self.scheme);
                ctx.charge_cpu(cost.verify_aggregate(signers));
                let msg = vote_message(&q.block_hash, q.view);
                if signers < quorum(self.cfg.n)
                    || q.block_hash != block.parent
                    || !self.scheme.verify(&msg, &q.agg)
                {
                    return;
                }
                self.chain.on_qc(q.clone(), ctx.now(), &self.scheme);
                self.update_carousel();
            }
            None => {
                if block.parent != crate::types::GENESIS_HASH {
                    return;
                }
            }
        }
        ctx.charge_cpu(cost.validate_block(block.payload_bytes()));
        self.chain.insert_block(block.clone());

        // Vote once per view, only for proposals not older than our view.
        if block.view < self.current_view && block.view != 1 {
            return;
        }
        if block.view <= self.last_voted_view {
            return;
        }
        self.last_voted_view = block.view;
        ctx.charge_cpu(cost.sign);
        let sig = self
            .scheme
            .sign(self.id, &vote_message(&block.hash(), block.view));
        let next_leader = self.leader_of(block.view + 1);
        let vote = StarMsg::Vote {
            view: block.view,
            block: block.clone(),
            agg: sig.clone(),
        };
        let vote_bytes = AGG_SIG_BYTES + PER_SIGNER_BYTES + 64;
        if next_leader == self.id {
            self.handle_vote(ctx, block.view, block, sig);
        } else {
            ctx.send(next_leader, vote, vote_bytes);
        }
        self.enter_view(ctx, self.last_voted_view + 1, false);
    }

    fn handle_vote(
        &mut self,
        ctx: &mut Context<StarMsg<S>>,
        view: u64,
        block: Block,
        agg: S::Aggregate,
    ) {
        if self.qc_formed_for_view >= view {
            return; // already done with this view
        }
        // Votes implausibly far ahead of this replica's own pacemaker are
        // hostile or hopeless (the round-based pipeline keeps honest
        // views within a step or two of each other); accepting one would
        // let it squat `pending` at a view no honest vote reaches soon.
        if view > self.current_view + 2 {
            return;
        }
        // Cheap structural checks before any pairing: a vote is exactly
        // one signer of multiplicity 1, not yet collected.
        let mults = self.scheme.multiplicities(&agg);
        if mults.distinct() != 1 || mults.total() != 1 {
            return;
        }
        let signer = mults.signers().next().unwrap();
        let matches_pending = self
            .pending
            .as_ref()
            .is_some_and(|p| p.view == view && p.block.hash() == block.hash());
        if !matches_pending {
            // Starting (or replacing) an accumulation is the cold path.
            // Displacement rules: an accumulation with at most one
            // *verified* signer is always displaceable (so a junk
            // squatter is recovered from by the very next verified vote —
            // no wedge is possible), and a newer view displaces
            // regardless (the pipeline moved on). What is protected is
            // verified progress — two-plus *batch-verified* signatures on
            // one block (a quorum batch that dropped forgeries can leave
            // such a sub-quorum accumulator); unverified queued votes
            // confer no stickiness, or one forged vote could lock in a
            // junk accumulation.
            let displaceable = match &self.pending {
                None => true,
                Some(p) => view > p.view || p.verified_distinct(&self.scheme) <= 1,
            };
            if !displaceable {
                return;
            }
            // Verify the single vote *before* letting it displace pending
            // state, so an unverified flood cannot wipe collected votes.
            ctx.charge_cpu(self.cfg.cost.verify_single);
            let msg = vote_message(&block.hash(), view);
            if !self.scheme.verify(&msg, &agg) {
                return;
            }
            self.pending = Some(PendingVotes {
                view,
                block: block.clone(),
                verified: Some(agg),
                queued: Vec::new(),
            });
        } else {
            let pend = self.pending.as_mut().expect("matched above");
            // A signer already in the *verified* accumulator is a plain
            // duplicate — rejected before any crypto. A signer already in
            // the *unverified* queue means one of the two votes is a
            // forgery; resolve the conflict now with one verification
            // (the cost the pre-batch code paid per vote) so a forged
            // squatter cannot suppress the honest vote it raced.
            let in_verified = pend
                .verified
                .as_ref()
                .is_some_and(|acc| self.scheme.multiplicities(acc).contains(signer));
            if in_verified {
                return;
            }
            if let Some(pos) = pend
                .queued
                .iter()
                .position(|v| self.scheme.multiplicities(v).contains(signer))
            {
                ctx.charge_cpu(self.cfg.cost.verify_single);
                let msg = vote_message(&block.hash(), view);
                let queued_vote = pend.queued.remove(pos);
                if self.scheme.verify(&msg, &queued_vote) {
                    // Genuine: promote it to the verified accumulator —
                    // the verification is paid for, so later duplicates
                    // hit the cheap check and the quorum batch never
                    // re-verifies this vote. The newcomer is the dup.
                    ctx.charge_cpu(self.cfg.cost.aggregate_combine);
                    pend.verified = Some(match pend.verified.take() {
                        None => queued_vote,
                        Some(acc) => self.scheme.combine(&acc, &queued_vote),
                    });
                    return;
                }
                // Forged squatter evicted; the newcomer takes the slot
                // (and gets batch-verified like any queued vote).
            }
            pend.queued.push(agg);
        }
        let pend = self.pending.as_ref().expect("set above");
        if pend.collected(&self.scheme) < quorum(self.cfg.n) {
            return;
        }
        // Quorum's worth queued: verify the whole queue under one
        // multi-pairing (every vote signs the same message), drop the
        // culprits, and keep collecting if forgeries broke the quorum.
        let pend = self.pending.as_mut().expect("set above");
        let queued = std::mem::take(&mut pend.queued);
        let mut acc = pend.verified.take();
        if !queued.is_empty() {
            ctx.charge_cpu(self.cfg.cost.verify_batch(1, queued.len()));
            let msg = vote_message(&block.hash(), view);
            let outcome = self
                .scheme
                .verify_batch(&[(msg.as_slice(), queued.as_slice())]);
            let culprits = outcome.culprits();
            for (i, vote) in queued.iter().enumerate() {
                if culprits.contains(&(0, i)) {
                    continue;
                }
                ctx.charge_cpu(self.cfg.cost.aggregate_combine);
                acc = Some(match acc {
                    None => vote.clone(),
                    Some(a) => self.scheme.combine(&a, vote),
                });
            }
        }
        let pend = self.pending.as_mut().expect("set above");
        pend.verified = acc;
        let entry = match &pend.verified {
            Some(acc) => acc.clone(),
            None => return,
        };
        let distinct = self.scheme.multiplicities(&entry).distinct();
        if distinct >= quorum(self.cfg.n) {
            self.qc_formed_for_view = view;
            let qc = Qc {
                block_hash: block.hash(),
                view,
                height: block.height,
                agg: entry,
            };
            self.chain.on_qc(qc, ctx.now(), &self.scheme);
            self.update_carousel();
            self.pending = None;
            // As L_{v+1}, propose immediately (round-based pipeline).
            self.enter_view(ctx, view + 1, false);
            if self.leader_of(view + 1) == self.id {
                self.propose(ctx);
            }
        }
    }

    /// Refreshes the Carousel context from the chain (see the `iniva`
    /// crate's replica for the consistency rationale).
    fn update_carousel(&mut self) {
        if let Some(qc) = self.chain.highest_qc() {
            let voters: Vec<u32> = self.scheme.multiplicities(&qc.agg).signers().collect();
            self.leader_ctx.set_committed_voters(voters);
        }
    }
}

impl<S: VoteScheme> Actor for StarReplica<S> {
    type Msg = StarMsg<S>;

    fn on_start(&mut self, ctx: &mut Context<StarMsg<S>>) {
        self.chain.metrics.total_views += 1;
        ctx.set_timer(self.cfg.view_timeout, 1);
        if self.leader_of(1) == self.id {
            self.propose(ctx);
        }
    }

    fn on_messages(&mut self, ctx: &mut Context<StarMsg<S>>, batch: Vec<(NodeId, StarMsg<S>)>) {
        for (_, msg) in batch {
            ctx.charge_cpu(self.cfg.cost.msg_overhead);
            match msg {
                StarMsg::Proposal { block, qc } => self.handle_proposal(ctx, block, qc),
                StarMsg::Vote { view, block, agg } => self.handle_vote(ctx, view, block, agg),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<StarMsg<S>>, timer: u64) {
        if timer != self.current_view {
            return; // stale timer; progress happened
        }
        // View timed out: advance and, if we lead the new view, propose
        // extending the highest QC.
        let next = self.current_view + 1;
        self.enter_view(ctx, next, true);
        if self.leader_of(next) == self.id {
            self.propose(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iniva_crypto::sim_scheme::SimScheme;
    use iniva_net::{NetConfig, Simulation, SECS};

    fn build(n: usize, rate: u64) -> Simulation<StarReplica<SimScheme>> {
        let scheme = Arc::new(SimScheme::new(n, b"star-test"));
        let cfg = ReplicaConfig {
            request_rate: rate,
            ..ReplicaConfig::for_tests(n)
        };
        let replicas = (0..n as u32)
            .map(|id| StarReplica::new(id, cfg.clone(), Arc::clone(&scheme)))
            .collect();
        Simulation::new(NetConfig::default(), replicas)
    }

    #[test]
    fn fault_free_chain_grows_and_commits() {
        let mut sim = build(4, 10_000);
        sim.run_until(2 * SECS);
        let h = sim.actor(0).chain.committed_height();
        assert!(h > 10, "committed height {h} too small");
        assert!(sim.actor(0).chain.metrics.committed_reqs > 0);
    }

    #[test]
    fn all_replicas_agree_on_committed_prefix() {
        let mut sim = build(4, 10_000);
        sim.run_until(2 * SECS);
        let heights: Vec<u64> = (0..4)
            .map(|i| sim.actor(i).chain.committed_height())
            .collect();
        let min = *heights.iter().min().unwrap();
        let max = *heights.iter().max().unwrap();
        assert!(min > 0);
        assert!(max - min <= 3, "replicas too far apart: {heights:?}");
    }

    #[test]
    fn quorum_sized_qcs() {
        let mut sim = build(7, 10_000);
        sim.run_until(SECS);
        let m = &sim.actor(0).chain.metrics;
        assert!(m.qc_count > 0);
        // In the star protocol the leader stops at exactly a quorum.
        assert!(m.mean_qc_size() >= quorum(7) as f64 - 0.01);
    }

    #[test]
    fn crashed_leader_causes_failed_views_but_liveness_persists() {
        // Note: n = 7, not 4 — chained HotStuff's consecutive-view commit
        // rule needs windows of 4 consecutive honest leaders (BeeGees [29]);
        // with n = 4 and one fixed crash, round-robin never provides one.
        let mut sim = build(7, 10_000);
        sim.crash(2);
        sim.run_until(6 * SECS);
        let m = &sim.actor(0).chain.metrics;
        assert!(
            m.failed_views > 0,
            "round-robin must hit the crashed leader"
        );
        assert!(
            sim.actor(0).chain.committed_height() > 3,
            "liveness must persist with 1 crash of 7 (got {})",
            sim.actor(0).chain.committed_height()
        );
    }

    #[test]
    fn throughput_increases_with_load_until_saturation() {
        let mut low = build(4, 1_000);
        low.run_until(2 * SECS);
        let mut high = build(4, 50_000);
        high.run_until(2 * SECS);
        let tl = low.actor(0).chain.metrics.committed_reqs;
        let th = high.actor(0).chain.metrics.committed_reqs;
        assert!(th > tl, "higher load must commit more ({tl} vs {th})");
    }

    #[test]
    fn leader_cpu_dominates_in_star() {
        let mut sim = build(7, 20_000);
        sim.run_until(2 * SECS);
        // Aggregate CPU at any leader (round-robin hits everyone) must be
        // well above zero; with rotation all replicas do leader work, so
        // check the total is dominated by verify costs.
        let total: u64 = (0..7).map(|i| sim.stats(i).cpu_busy).sum();
        assert!(total > 0);
    }

    #[test]
    fn forged_votes_dropped_by_batch_verification_and_qc_still_forms() {
        use crate::types::{vote_message, GENESIS_HASH};
        use iniva_net::Context;
        let n = 4;
        let scheme = Arc::new(SimScheme::new(n, b"star-batch"));
        let mut r = StarReplica::new(2, ReplicaConfig::for_tests(n), Arc::clone(&scheme));
        let block = Block {
            view: 1,
            height: 1,
            parent: GENESIS_HASH,
            proposer: 1,
            batch_start: 0,
            batch_len: 0,
            payload_per_req: 0,
        };
        r.chain.insert_block(block.clone());
        let msg = vote_message(&block.hash(), 1);
        let mut ctx = Context::external(2, 0);
        // Honest vote opens the accumulation (cold path verifies it).
        r.handle_vote(&mut ctx, 1, block.clone(), scheme.sign(1, &msg));
        // A forged vote claiming signer 0 queues structurally...
        let mut forged = scheme.sign(0, b"some other message");
        forged.mults = iniva_crypto::multisig::Multiplicities::singleton(0);
        r.handle_vote(&mut ctx, 1, block.clone(), forged);
        // ...and the quorum-triggering batch must identify and drop it
        // without blocking the honest votes.
        r.handle_vote(&mut ctx, 1, block.clone(), scheme.sign(2, &msg));
        assert!(r.chain.highest_qc().is_none(), "forgery broke the quorum");
        r.handle_vote(&mut ctx, 1, block.clone(), scheme.sign(3, &msg));
        let qc = r.chain.highest_qc().expect("quorum of honest votes");
        let mults = scheme.multiplicities(&qc.agg);
        assert!(!mults.contains(0), "forged signer must not enter the QC");
        for s in [1, 2, 3] {
            assert!(mults.contains(s));
        }
        assert!(scheme.verify(&msg, &qc.agg));
    }

    #[test]
    fn forged_squatter_cannot_suppress_the_honest_vote_it_raced() {
        use crate::types::{vote_message, GENESIS_HASH};
        use iniva_net::Context;
        let n = 4;
        let scheme = Arc::new(SimScheme::new(n, b"star-squat"));
        let mut r = StarReplica::new(2, ReplicaConfig::for_tests(n), Arc::clone(&scheme));
        let block = Block {
            view: 1,
            height: 1,
            parent: GENESIS_HASH,
            proposer: 1,
            batch_start: 0,
            batch_len: 0,
            payload_per_req: 0,
        };
        r.chain.insert_block(block.clone());
        let msg = vote_message(&block.hash(), 1);
        let mut ctx = Context::external(2, 0);
        r.handle_vote(&mut ctx, 1, block.clone(), scheme.sign(1, &msg));
        // Forged votes squat signers 2 and 3 in the unverified queue
        // (quorum is 3, so no batch fires yet)...
        for squat in [2u32, 3] {
            let mut forged = scheme.sign(squat, b"junk");
            forged.mults = iniva_crypto::multisig::Multiplicities::singleton(squat);
            r.handle_vote(&mut ctx, 1, block.clone(), forged);
        }
        assert!(r.chain.highest_qc().is_none());
        // ...but the honest votes they raced must still be able to claim
        // their slots: the conflict is resolved on arrival, the squatters
        // are evicted, and the quorum forms from genuine votes.
        r.handle_vote(&mut ctx, 1, block.clone(), scheme.sign(2, &msg));
        r.handle_vote(&mut ctx, 1, block.clone(), scheme.sign(3, &msg));
        let qc = r.chain.highest_qc().expect("honest quorum must form");
        assert!(scheme.verify(&msg, &qc.agg));
        assert!(scheme.multiplicities(&qc.agg).distinct() >= quorum(n));
    }

    #[test]
    fn far_future_junk_vote_cannot_wedge_vote_collection() {
        use crate::types::{vote_message, GENESIS_HASH};
        use iniva_net::Context;
        let n = 4;
        let scheme = Arc::new(SimScheme::new(n, b"star-wedge"));
        let mut r = StarReplica::new(2, ReplicaConfig::for_tests(n), Arc::clone(&scheme));
        let block = Block {
            view: 1,
            height: 1,
            parent: GENESIS_HASH,
            proposer: 1,
            batch_start: 0,
            batch_len: 0,
            payload_per_req: 0,
        };
        r.chain.insert_block(block.clone());
        let mut ctx = Context::external(2, 0);
        // A validly-signed junk vote for an absurdly future view is
        // refused outright (outside the pacemaker window)...
        let junk_far = Block {
            view: u64::MAX - 1,
            ..block.clone()
        };
        let far_vote = scheme.sign(0, &vote_message(&junk_far.hash(), u64::MAX - 1));
        r.handle_vote(&mut ctx, u64::MAX - 1, junk_far, far_vote);
        assert!(r.pending.is_none(), "far-future vote must not squat");
        // ...and a junk vote *inside* the window squats only until the
        // next verified vote: a singleton accumulation is always
        // displaceable, so the honest quorum still forms.
        let junk_near = Block {
            view: 3,
            ..block.clone()
        };
        let near_vote = scheme.sign(0, &vote_message(&junk_near.hash(), 3));
        r.handle_vote(&mut ctx, 3, junk_near, near_vote);
        assert!(r.pending.is_some(), "in-window vote accumulates");
        let msg = vote_message(&block.hash(), 1);
        for signer in [1, 2, 3] {
            r.handle_vote(&mut ctx, 1, block.clone(), scheme.sign(signer, &msg));
        }
        let qc = r.chain.highest_qc().expect("honest quorum must form");
        assert_eq!(qc.view, 1);
        assert!(scheme.verify(&msg, &qc.agg));
    }

    #[test]
    fn forged_queued_votes_confer_no_displacement_protection() {
        use crate::types::{vote_message, GENESIS_HASH};
        use iniva_net::Context;
        let n = 4;
        let scheme = Arc::new(SimScheme::new(n, b"star-sticky"));
        let mut r = StarReplica::new(2, ReplicaConfig::for_tests(n), Arc::clone(&scheme));
        let block = Block {
            view: 1,
            height: 1,
            parent: GENESIS_HASH,
            proposer: 1,
            batch_start: 0,
            batch_len: 0,
            payload_per_req: 0,
        };
        r.chain.insert_block(block.clone());
        let mut ctx = Context::external(2, 0);
        // Byzantine member 0 opens a junk-block accumulation with a
        // validly signed vote (cold path verifies it)...
        let junk = Block {
            proposer: 0,
            ..block.clone()
        };
        let junk_vote = scheme.sign(0, &vote_message(&junk.hash(), 1));
        r.handle_vote(&mut ctx, 1, junk.clone(), junk_vote);
        // ...and pads it with a forged vote (garbage signature claiming
        // signer 3) that queues unverified. The padded count must NOT
        // protect the junk accumulation from displacement.
        let mut forged = scheme.sign(3, b"garbage");
        forged.mults = iniva_crypto::multisig::Multiplicities::singleton(3);
        r.handle_vote(&mut ctx, 1, junk, forged);
        let msg = vote_message(&block.hash(), 1);
        for signer in [1, 2, 3] {
            r.handle_vote(&mut ctx, 1, block.clone(), scheme.sign(signer, &msg));
        }
        let qc = r.chain.highest_qc().expect("honest quorum must form");
        assert_eq!(qc.view, 1);
        assert!(scheme.verify(&msg, &qc.agg));
    }

    #[test]
    fn duplicate_votes_rejected_before_any_verification() {
        use crate::types::{vote_message, GENESIS_HASH};
        use iniva_net::Context;
        let n = 7;
        let scheme = Arc::new(SimScheme::new(n, b"star-dup"));
        let mut r = StarReplica::new(2, ReplicaConfig::for_tests(n), Arc::clone(&scheme));
        let block = Block {
            view: 1,
            height: 1,
            parent: GENESIS_HASH,
            proposer: 1,
            batch_start: 0,
            batch_len: 0,
            payload_per_req: 0,
        };
        let msg = vote_message(&block.hash(), 1);
        let mut ctx = Context::external(2, 0);
        r.handle_vote(&mut ctx, 1, block.clone(), scheme.sign(1, &msg));
        // Spamming the same signer never reaches the quorum counter: the
        // QC must still be missing after many duplicates (quorum is 5).
        for _ in 0..20 {
            r.handle_vote(&mut ctx, 1, block.clone(), scheme.sign(1, &msg));
        }
        assert!(r.chain.highest_qc().is_none());
        let pend = r.pending.as_ref().expect("accumulating");
        assert_eq!(pend.collected(&scheme), 1, "duplicates must not queue");
        // A duplicate of a *queued* (not yet batch-verified) vote pays
        // one conflict-resolving verification and promotes the genuine
        // vote; every further duplicate then hits the cheap
        // verified-accumulator check.
        r.handle_vote(&mut ctx, 1, block.clone(), scheme.sign(2, &msg));
        r.handle_vote(&mut ctx, 1, block.clone(), scheme.sign(2, &msg));
        let pend = r.pending.as_ref().expect("accumulating");
        assert_eq!(pend.verified_distinct(&scheme), 2, "genuine vote promoted");
        assert!(pend.queued.is_empty(), "promotion drains the queue slot");
        assert_eq!(pend.collected(&scheme), 2);
    }

    #[test]
    fn star_messages_roundtrip_on_the_wire() {
        use crate::types::GENESIS_HASH;
        use iniva_net::wire::Codec;
        let s = SimScheme::new(4, b"star-wire");
        let block = Block {
            view: 2,
            height: 1,
            parent: GENESIS_HASH,
            proposer: 1,
            batch_start: 0,
            batch_len: 4,
            payload_per_req: 64,
        };
        let msg = vote_message(&block.hash(), block.view);
        let qc = Qc::<SimScheme> {
            block_hash: block.hash(),
            view: 2,
            height: 1,
            agg: s.combine(&s.sign(0, &msg), &s.sign(1, &msg)),
        };
        let variants: Vec<StarMsg<SimScheme>> = vec![
            StarMsg::Proposal {
                block: block.clone(),
                qc: Some(qc.clone()),
            },
            StarMsg::Proposal {
                block: block.clone(),
                qc: None,
            },
            StarMsg::Vote {
                view: 2,
                block,
                agg: s.sign(3, &msg),
            },
        ];
        for m in &variants {
            let frame = m.to_frame();
            let back: StarMsg<SimScheme> = Codec::from_frame(frame.clone()).unwrap();
            // No PartialEq on scheme aggregates: compare canonical bytes.
            assert_eq!(&back.to_frame()[..], &frame[..]);
            // Every strict prefix fails cleanly.
            for cut in 0..frame.len() {
                assert!(StarMsg::<SimScheme>::from_frame(frame.slice(0..cut)).is_err());
            }
        }
        // The QC itself roundtrips and still verifies.
        let back = Qc::<SimScheme>::from_frame(qc.to_frame()).unwrap();
        assert_eq!(back.block_hash, qc.block_hash);
        assert_eq!(back.signer_count(&s), 2);
        assert!(s.verify(&msg, &back.agg));
    }
}
