//! Tree dissemination and fan-in (Algorithm 1): the proposal travels down
//! the view's tree and votes travel up it, folded in verified batches,
//! with ACK inclusion proofs, the root's 2ND-CHANCE fallback, and
//! finalization into a QC.
//!
//! An aggregator verifies its fan-in once: an internal node and the root
//! hold their children's shares, unverified, until every child they still
//! expect has sent one (or a timer, 2ND-CHANCE, the quorum trigger or the
//! hold's bound calls for a decision), then verify them all in one batch.
//! The ruling is on [`InivaReplica::handle_signatures`].
//!
//! With 2ND-CHANCE on, nothing waits on a *known-silent* member, one
//! missing from the last `n` certified QCs: an internal node sends its
//! subtree up without it, the root completes its tree without it, a
//! leader reaches its leaves directly and drafts no requests into a block
//! it roots, and no replica waits out its view as leader.
//! `Silence::waived` decides it; the ruling is on
//! `InivaReplica::maybe_second_chance_or_finalize`. The [`SecondChance`]
//! setting decides only the root's policy, `InivaReplica::root_step`.

use super::pacemaker::{timer_id, TIMER_AGG, TIMER_RELAYED, TIMER_SECOND_CHANCE};
use super::{InivaMsg, InivaReplica, SecondChance};
use crate::rewards::validate_subtree_multiplicities;
use iniva_consensus::leader::LeaderPolicy;
use iniva_consensus::types::{quorum, vote_message, Block, Qc, AGG_SIG_BYTES, PER_SIGNER_BYTES};
use iniva_crypto::multisig::{Multiplicities, VoteScheme};
use iniva_net::wire::WireEncode;
use iniva_net::{Context, NodeId, Time};
use iniva_obs::trace::{EventKind, TimerKind};
use iniva_tree::{Role, TreeView};

/// Bound on the `early_sigs` reorder buffer, as a multiple of committee
/// size: the buffer keeps at most one signature per `(sender, view)` pair
/// (honest senders send one per view), at most `n` entries per view, and
/// at most `EARLY_SIGS_TOTAL_FACTOR · n` entries overall, dropping the
/// oldest on overflow. Without the caps a hostile peer flooding one
/// future view would grow the buffer without bound.
pub(super) const EARLY_SIGS_TOTAL_FACTOR: usize = 4;

/// What the root does next (`InivaReplica::root_step`): wait, give every
/// missing member its 2ND-CHANCE, or emit the QC.
#[derive(PartialEq)]
enum RootStep {
    Wait,
    SecondChance,
    Finalize,
}

/// Per-view aggregation state.
pub(super) struct AggState<S: VoteScheme> {
    pub(super) view: u64,
    /// The tree derived when the proposal was accepted — pinned so that a
    /// Carousel-context update mid-view cannot re-derive a different tree.
    tree: TreeView,
    block: Block,
    /// Accumulated aggregate (starts with the node's own vote).
    pub(super) agg: S::Aggregate,
    /// The node's own vote, signed (and charged) once by `vote` and
    /// reused wherever it is sent again.
    own: S::Aggregate,
    /// The children folded in, by id: an internal node's leaves whose
    /// votes it folded, the root's children whose subtree aggregates (or
    /// lone votes) it folded. By id, so a waived child's late share cannot
    /// stand in for a live child's.
    children_in: Vec<u32>,
    /// ACK aggregate received from the parent (inclusion proof).
    ack_agg: Option<S::Aggregate>,
    /// Whether this node already sent its aggregate/vote up.
    sent_up: bool,
    /// Root only: whether 2ND-CHANCE messages have been sent.
    second_chance_sent: bool,
    /// Root only: whether the second-chance timer has expired.
    sc_expired: bool,
    /// Root only: whether the final QC was emitted.
    finalized: bool,
    /// Shares that passed the cheap checks and wait, unverified, for the
    /// node's next decision (see `handle_signatures`). Nothing reads them
    /// until they are verified and folded.
    pub(super) held: Vec<(NodeId, S::Aggregate)>,
}

impl<S: VoteScheme> AggState<S> {
    /// The state of a view whose block this node just voted, holding its
    /// own vote `own`.
    fn new(view: u64, tree: TreeView, block: Block, own: S::Aggregate, sent_up: bool) -> Self {
        AggState {
            view,
            tree,
            block,
            agg: own.clone(),
            own,
            children_in: Vec::new(),
            ack_agg: None,
            sent_up,
            second_chance_sent: false,
            sc_expired: false,
            finalized: false,
            held: Vec::new(),
        }
    }
}

impl<S: VoteScheme> InivaReplica<S>
where
    S::Aggregate: WireEncode,
{
    /// `L_v` proposes: sends the block to the tree root and the root's
    /// children (paper Fig. 1-A), and to the leaves of each known-silent
    /// child, then processes it locally. A block whose root is known-silent
    /// is drafted empty (the ruling is on `maybe_second_chance_or_finalize`).
    pub(super) fn propose(&mut self, ctx: &mut Context<InivaMsg<S>>) {
        let view = self.current_view;
        let max_batch = if self.leader_waived(view + 1) {
            0
        } else {
            self.cfg.max_batch
        };
        let block = self.chain.draft_block(
            view,
            self.id,
            ctx.now(),
            max_batch,
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
        for child in tree.children_of(root) {
            targets.push(child);
            if self.silence.waived(child) {
                targets.extend(tree.children_of(child));
            }
        }
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

    /// A proposal off the wire. Cut-through: an internal node relays its
    /// leader's proposal to its leaves *before* it verifies the QC the
    /// proposal carries, and takes the proposal up (verify, store, vote)
    /// in the handler turn right after, so the relay does not wait out
    /// the verification and the leaves start theirs one verification
    /// earlier. An unverified relay costs each leaf the verification it
    /// pays for the proposal anyway, and it is bounded: only the view's
    /// leader is relayed, only in the view this node is in, at most once
    /// per view, and only a block placed right on its certificate.
    ///
    /// Round-robin views only. The tree of view `v` is rooted at the
    /// leader of `v + 1`; under Carousel that leader is drawn from the
    /// committed prefix, which the carried QC may extend, so the relay set
    /// would be derived from context the proposal has not proven yet.
    /// Under round-robin the tree is a function of the view alone, so no
    /// carrier, genuine or forged, changes which leaves are relayed to.
    /// Carousel views verify first and relay after, as every proposal did
    /// before.
    pub(super) fn receive_proposal(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        from: NodeId,
        block: Block,
        qc: Option<Qc<S>>,
    ) {
        let view = block.view;
        let cut_through = matches!(self.cfg.leader_policy, LeaderPolicy::RoundRobin)
            && view == self.current_view
            && view > self.last_voted_view.max(self.relayed_view)
            && from == block.proposer
            && from == self.leader_of(view)
            && self.placement(&block, &qc) == Some(true);
        let tree = cut_through.then(|| self.tree_for_view(view));
        match tree {
            Some(tree) if tree.role_of(self.id) == Role::Internal => {
                self.relay(ctx, &tree, &block, &qc);
                self.relayed = Some((block, qc));
                ctx.set_timer(0, timer_id(view, TIMER_RELAYED));
            }
            _ => self.handle_proposal(ctx, block, qc),
        }
    }

    /// The turn after a cut-through relay: the relayed proposal is taken
    /// up like any other.
    pub(super) fn on_relayed_timer(&mut self, ctx: &mut Context<InivaMsg<S>>, view: u64) {
        if let Some((block, qc)) = self.relayed.take_if(|(block, _)| block.view == view) {
            self.handle_proposal(ctx, block, qc);
        }
    }

    /// Forwards `block` from this internal node to its children in `tree`,
    /// at most once per view. The block's proposer is skipped: it
    /// processed the proposal when it made it.
    fn relay(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        tree: &TreeView,
        block: &Block,
        qc: &Option<Qc<S>>,
    ) {
        if block.view <= self.relayed_view {
            return;
        }
        self.relayed_view = block.view;
        let bytes = block.wire_bytes() + qc.as_ref().map_or(0, |q| q.wire_bytes(&self.scheme));
        for c in tree.children_of(self.id) {
            if c != self.id && c != block.proposer {
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

    /// Lines 7–17 of Algorithm 1.
    pub(super) fn handle_proposal(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        block: Block,
        qc: Option<Qc<S>>,
    ) {
        if !self.validate_and_store(ctx, &block, &qc) {
            return;
        }
        if block.view <= self.last_voted_view {
            return;
        }
        if block.view < self.current_view && block.view != 1 {
            return;
        }
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
        let parent = tree.parent_of(self.id);
        let agg_timer = 2 * self.cfg.delta * tree.height_of(self.id) as Time;

        if role == Role::Internal {
            self.relay(ctx, &tree, &block, &qc);
        }
        let own = self.vote(ctx, tree, block, role == Role::Leaf);
        if role != Role::Leaf {
            // Aggregators start the aggregation timer 2Δ·height(p).
            ctx.set_timer(agg_timer, timer_id(view, TIMER_AGG));
        } else if let Some(parent) = parent {
            // Leaves send their signature to their parent immediately.
            ctx.send(
                parent,
                InivaMsg::Signature { view, agg: own },
                AGG_SIG_BYTES + PER_SIGNER_BYTES + 16,
            );
        }
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
        // An internal node that waits for none of its children, every one
        // waived, sends its own vote up in this turn; the aggregation
        // timer stays armed as the backstop.
        if role == Role::Internal && self.agg.as_ref().is_some_and(|st| self.complete(st)) {
            self.send_subtree_up(ctx);
        }
    }

    /// Whether `st`'s node still waits for its child `c`: neither folded
    /// in nor waived.
    fn awaits(&self, st: &AggState<S>, c: u32) -> bool {
        !st.children_in.contains(&c) && !self.silence.waived(c)
    }

    /// Whether `st`'s node waits for none of its children: an internal
    /// node then sends its subtree up, and the root's tree has reported.
    fn complete(&self, st: &AggState<S>) -> bool {
        !st.tree
            .children_of(self.id)
            .into_iter()
            .any(|c| self.awaits(st, c))
    }

    /// deliver(B); vote(B): signs `block`, opens its view's aggregation
    /// state with that vote, and enters the next view. Both vote paths
    /// come through here, so `last_voted_view` never moves without the
    /// pacemaker journaling a view past it (see [`Self::recover`]).
    fn vote(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        tree: TreeView,
        block: Block,
        sent_up: bool,
    ) -> S::Aggregate {
        let view = block.view;
        self.last_voted_view = view;
        ctx.charge_cpu(self.cfg.cost.sign);
        let own = self
            .scheme
            .sign(self.id, &vote_message(&block.hash(), view));
        self.agg = Some(AggState::new(view, tree, block, own.clone(), sent_up));
        self.enter_view(ctx, view + 1);
        own
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
                .map(|(i, (_, v, _))| (i, *v));
            if let Some((i, farthest_view)) = farthest {
                if view >= farthest_view {
                    return; // incoming is the farthest future — drop it instead
                }
                self.early_sigs.remove(i);
            }
        }
        self.early_sigs.push((from, view, agg));
    }

    /// Lines 18–20 over a *batch* of SIGNATURE messages: everything queued
    /// in one handler turn (`Actor::on_messages`) plus the `early_sigs`
    /// replay lands here together. Cheap structural checks run on
    /// arrival, before any pairing, so a share that can never fold is
    /// never held and spam that would be rejected anyway never reaches
    /// the expensive path: empty, overlapping what is already folded, a
    /// shape not [`Self::well_formed`] for the sender's place, or an
    /// identical copy of a share already held.
    ///
    /// The survivors are *held*, unverified, and verified together —
    /// one multi-pairing batch for the node's whole fan-in — as soon as
    /// the node has a decision to make ([`Self::flush_due`]):
    ///
    /// - every child it still expects has a held share. A child is no
    ///   longer expected once folded, or once waived (known-silent, with
    ///   2ND-CHANCE on; see `maybe_second_chance_or_finalize`). The same
    ///   rule decides whom the node waits for: an internal node sends its
    ///   subtree up, and the root's tree is complete, once it expects no
    ///   child (`complete`). So a waived child neither holds its siblings
    ///   back nor splits its parent's fan-in into two batches;
    /// - more shares are held than the node has children, which bounds
    ///   the hold. A share forged under a child's id forces at most this
    ///   one early batch, where it is dropped as a culprit; the child's
    ///   real share, held beside it or arriving later, still folds. The
    ///   hold is therefore not newest-wins per sender: a later forgery
    ///   would push out the honest share;
    /// - at the root, its policy (`root_step`) would act on the signers
    ///   folded and held, read from multiplicities before any pairing:
    ///   under the quorum trigger and `FirstQuorum`, once they reach a
    ///   quorum, so the hold never delays it. A share forged to claim
    ///   signers forces at most its own early batch, no more than the
    ///   verification on receipt;
    /// - the root has sent 2ND-CHANCE: replies fold as they arrive;
    /// - the aggregation or second-chance timer fired: the hold is
    ///   flushed before the timer's decision.
    ///
    /// Why holding cannot cost an honest member its place or its
    /// multiplicity: every decision — sending the subtree up and its ACKs,
    /// 2ND-CHANCE, finalizing — reads only the verified, folded aggregate,
    /// and the hold is verified and folded right before each one. A held
    /// share is never dropped unverified except as an identical copy of
    /// another held share, so an honest share that arrived before a
    /// decision is in the state that decision reads, exactly as if it had
    /// been verified on arrival.
    pub(super) fn handle_signatures(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        sigs: Vec<(NodeId, u64, S::Aggregate)>,
    ) {
        // Split off the signatures addressed to the live aggregation
        // state; buffer the early ones, drop stale ones.
        let live = self.agg.as_ref().map(|st| st.view);
        let mut arrived: Vec<(NodeId, S::Aggregate)> = Vec::new();
        for (from, view, agg) in sigs {
            if live == Some(view) {
                arrived.push((from, agg));
            } else if live.is_none_or(|live| live < view) && view >= self.current_view {
                // The proposal has not reached us yet: buffer and replay
                // later.
                self.buffer_early_sig(from, view, agg);
            }
        }
        if arrived.is_empty() {
            return;
        }
        self.hold(arrived);
        if self.flush_due() {
            self.flush(ctx);
        }
    }

    /// Runs the cheap checks on the live view's arriving shares and holds
    /// the survivors (see [`Self::handle_signatures`]).
    fn hold(&mut self, arrived: Vec<(NodeId, S::Aggregate)>) {
        let Some(st) = &self.agg else { return };
        let role = st.tree.role_of(self.id);
        let children = st.tree.children_of(self.id);
        let folded = self.scheme.multiplicities(&st.agg);
        let mut held = Vec::new();
        for (from, agg) in arrived {
            let mults = self.scheme.multiplicities(&agg);
            let copy = || {
                st.held.iter().chain(&held).any(|(f, h)| {
                    *f == from
                        && self.scheme.multiplicities(h) == mults
                        && h.to_wire() == agg.to_wire()
                })
            };
            if mults.is_empty()
                || mults.signers().any(|s| folded.contains(s))
                || !self.well_formed(&st.tree, role, &children, from, mults)
                || copy()
            {
                continue;
            }
            held.push((from, agg));
        }
        if let Some(st) = self.agg.as_mut() {
            st.held.extend(held);
        }
    }

    /// Whether the held shares must be verified now (the rule on
    /// [`Self::handle_signatures`]).
    fn flush_due(&self) -> bool {
        let Some(st) = &self.agg else { return false };
        if st.held.is_empty() {
            return false;
        }
        let children = st.tree.children_of(self.id);
        if st.second_chance_sent || st.held.len() > children.len() {
            return true;
        }
        let held_all = children
            .into_iter()
            .all(|c| !self.awaits(st, c) || st.held.iter().any(|(from, _)| *from == c));
        if held_all || st.tree.role_of(self.id) != Role::Root {
            return held_all;
        }
        let mut signers = self.scheme.multiplicities(&st.agg).clone();
        for (_, held) in &st.held {
            signers = signers.merge(self.scheme.multiplicities(held));
        }
        self.root_step(st, &signers, false) != RootStep::Wait
    }

    /// Verifies and folds everything held.
    fn flush(&mut self, ctx: &mut Context<InivaMsg<S>>) {
        let Some(st) = self.agg.as_mut() else { return };
        let held = std::mem::take(&mut st.held);
        if !held.is_empty() {
            self.fold_signatures(ctx, held);
        }
    }

    /// Folds one view's held signatures, which passed the cheap checks on
    /// arrival, into its aggregate in waves: each wave structurally
    /// selects pairwise-disjoint shares, verifies the whole wave in one
    /// batch, and folds the survivors; items skipped only because an
    /// in-batch rival claimed the same signer are retried in the next wave
    /// when that rival turned out to be a forgery. An internal node folds
    /// its leaves' votes and sends its subtree up once it expects no more
    /// (every leaf folded or waived); the root folds subtree aggregates
    /// and 2ND-CHANCE replies, then checks for 2ND-CHANCE or finalization.
    fn fold_signatures(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        mut queue: Vec<(NodeId, S::Aggregate)>,
    ) {
        let Some(st) = &self.agg else { return };
        let view = st.view;
        let role = st.tree.role_of(self.id);
        let children = st.tree.children_of(self.id);
        let msg = vote_message(&st.block.hash(), view);
        loop {
            let Some(st) = self.agg.as_ref() else { return };
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
            for (from, agg) in queue {
                let mults = self.scheme.multiplicities(&agg);
                // Overlapping what an earlier wave folded — skip for good
                // (keeps multiplicities canonical).
                if mults.signers().any(|s| current.contains(s)) {
                    continue;
                }
                if mults.signers().any(|s| tentative.contains(s)) {
                    // Blocked by an in-batch rival; retry if the rival
                    // fails verification.
                    retry.push((from, agg));
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
            // assert verifies(sig, sig.signers), batched — charge the
            // multi-pairing, not per-item pairings.
            let outcome = self.verify_recorded(ctx, view, &msg, &selected, selected_signers);
            let culprits = outcome.culprits();
            let Some(st) = self.agg.as_mut() else { return };
            let mut folded = false;
            for (i, (from, agg)) in selected_from.iter().zip(&selected).enumerate() {
                if culprits.contains(&(0, i)) {
                    continue;
                }
                ctx.charge_cpu(self.cfg.cost.aggregate_combine);
                let mults = self.scheme.multiplicities(agg);
                if role == Role::Internal {
                    st.children_in.extend(mults.signers());
                } else {
                    if st.second_chance_sent {
                        self.agg_metrics.second_chance_recoveries += mults.distinct() as u64;
                    }
                    if children.contains(from) && !st.children_in.contains(from) {
                        st.children_in.push(*from);
                    }
                }
                st.agg = self.scheme.combine(&st.agg, agg);
                folded = true;
            }
            if folded {
                match role {
                    Role::Internal if self.agg.as_ref().is_some_and(|st| self.complete(st)) => {
                        self.send_subtree_up(ctx)
                    }
                    Role::Root => self.maybe_second_chance_or_finalize(ctx, false),
                    _ => {}
                }
            }
            if culprits.is_empty() || retry.is_empty() {
                return;
            }
            queue = retry;
        }
    }

    /// Whether a share from `from` carrying `mults` has a shape this node
    /// may fold: an internal node takes single votes from its own leaves;
    /// the root takes single votes, Eq. 1 subtree aggregates from internal
    /// nodes, and any other aggregate (an ACK echoed back as a 2ND-CHANCE
    /// reply).
    fn well_formed(
        &self,
        tree: &TreeView,
        role: Role,
        children: &[u32],
        from: NodeId,
        mults: &Multiplicities,
    ) -> bool {
        let single_vote = mults.distinct() == 1 && mults.total() == 1;
        match role {
            Role::Internal => single_vote && mults.signers().all(|s| children.contains(&s)),
            Role::Root if mults.distinct() == 1 => single_vote,
            Role::Root if tree.role_of(from) == Role::Internal && from != self.id => {
                validate_subtree_multiplicities(tree, from, mults)
            }
            Role::Root => true,
            Role::Leaf => false,
        }
    }

    /// Internal node: send the subtree aggregate to the root and ACKs to the
    /// included children (lines 27–28). Children are folded in with
    /// multiplicity 2 and the own signature 1 + #children times (Eq. 1).
    fn send_subtree_up(&mut self, ctx: &mut Context<InivaMsg<S>>) {
        let Some(st) = self.agg.as_mut() else { return };
        if st.sent_up {
            return;
        }
        st.sent_up = true;
        // Eq. 1 from `st.agg` = own×1 + Σ children×1, without subtraction
        // (indivisible): doubling gives children×2 and own×2; own needs k + 1.
        let subtree = match st.children_in.len() as u64 {
            0 => st.agg.clone(),
            1 => self.scheme.scale(&st.agg, 2),
            k => self.scheme.combine(
                &self.scheme.scale(&st.agg, 2),
                &self.scheme.scale(&st.own, k - 1),
            ),
        };
        let root = st.tree.root();
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
        for &c in &st.children_in {
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

    /// Root: give missing processes a 2ND-CHANCE (lines 22–25) and
    /// finalize (lines 39–40) when [`Self::root_step`] calls for it.
    ///
    /// With 2ND-CHANCE on, nothing waits on a *known-silent* member: one
    /// missing from each of the last `n` certified QCs this replica
    /// counted (one leader rotation; see `Silence`). Such a member is
    /// *waived* (`Silence::waived`, the one place the record is read; it
    /// answers no for the replica itself, and in Iniva-No2C and the star,
    /// which have no 2ND-CHANCE for a waived member to get in by). Six
    /// waits change:
    /// - an internal node sends its Eq. 1 subtree aggregate up, and ACKs
    ///   to the leaves in it, as soon as every leaf it does not waive is
    ///   folded; if it waives them all, it sends its own vote up in the
    ///   turn it votes. Its `2Δ·height` timer stays armed as the backstop;
    /// - the root's tree is complete once every internal child it does
    ///   not waive has reported;
    /// - under the tree-completion trigger, after 2ND-CHANCE the root
    ///   finalizes as soon as every member still missing is waived,
    ///   instead of sleeping out δ. The quorum trigger always sleeps out
    ///   δ: that wait is the cost the paper's Fig. 3a measures;
    /// - a replica that enters a view whose leader is waived arms that
    ///   view's timer at 0 (`enter_view`): the view is skipped, counted as
    ///   failed, and the next leader proposes on its high QC;
    /// - a leader also sends its proposal to the leaves of every waived
    ///   child of the root. They vote during the fan-in, so they answer
    ///   the root's 2ND-CHANCE at once, without first verifying the QC
    ///   the 2ND-CHANCE carries;
    /// - a leader whose view's root (the next leader) is waived drafts an
    ///   empty block: the block cannot be certified, so no request waits
    ///   for its release as a dead fork.
    ///
    /// Everything else stands. Every missing member, waived or not, still
    /// gets the 2ND-CHANCE, and a reply that lands before finalization is
    /// folded. A waived leaf's vote that reaches its parent before the
    /// parent sends up is folded there, at multiplicity 2. Timers and
    /// dissemination do not touch safety: what a replica votes for and
    /// what it commits depend on QCs and the three-chain rule alone, and
    /// who leads a view is unchanged.
    ///
    /// Why a member that answers an honest root within δ never becomes
    /// known-silent: take the first honest replica to call a member X
    /// silent. It counted `n` consecutive QCs without X, all formed before
    /// any honest replica called X silent. So no honest replica waived X
    /// in any of those views, every honest root among them sent X a
    /// 2ND-CHANCE and waited δ for it, and X answered none in time. A
    /// replica that missed some of those QCs counts fewer, so it only
    /// waits longer. The streak is soft state, never journaled: a replica
    /// rebuilt from its WAL starts from zero and waits for everyone again.
    ///
    /// So no honest-but-slow leaf loses its place or its reward. A leaf
    /// that answers within δ is never waived by an honest replica: its
    /// parent waits for it exactly as long as before, up to `2Δ·height`,
    /// folds it at multiplicity 2, and no honest root finalizes without
    /// giving it its δ.
    ///
    /// How a returning member X gets back in: the first QC that holds X
    /// resets X's streak at every replica that adopts it. X gets into one
    /// as a leaf if its vote reaches its parent's hold before the parent's
    /// last expected child does: the two are verified in one batch and X
    /// goes up at multiplicity 2. Or its 2ND-CHANCE reply lands before the
    /// root finalizes, at multiplicity 1: under the quorum trigger always,
    /// under the tree-completion trigger when a member the root waits for
    /// is missing too. Or, as an aggregator, its subtree reaches the root
    /// before the root's last expected child does. And in the view X roots
    /// it forms a QC holding its own vote, which its next proposal carries
    /// to the next tree's root and the root's children, though the view X
    /// leads is skipped by the replicas that call it silent, so no block
    /// is voted on that QC. Being skipped as a leader closes none of the
    /// other ways. That is the waiver's price: until its streak resets, a
    /// returning leaf folded by the root and not by its parent earns
    /// multiplicity 1, not 2.
    fn maybe_second_chance_or_finalize(
        &mut self,
        ctx: &mut Context<InivaMsg<S>>,
        timer_fired: bool,
    ) {
        let Some(st) = self.agg.as_ref().filter(|st| !st.finalized) else {
            return;
        };
        let current = self.scheme.multiplicities(&st.agg);
        match self.root_step(st, current, self.complete(st) || timer_fired) {
            RootStep::Wait => return,
            RootStep::Finalize => return self.finalize(ctx),
            RootStep::SecondChance => {}
        }
        let missing: Vec<u32> = (0..self.cfg.n as u32)
            .filter(|m| !current.contains(*m))
            .collect();
        if missing.is_empty() {
            self.agg_metrics.clean_views += 1;
            self.finalize(ctx);
            return;
        }
        if let Some(obs) = &self.obs {
            obs.second_chances.inc();
        }
        self.tracer
            .emit_with(ctx.now(), || EventKind::SecondChance {
                view: st.view,
                missing: missing.len() as u32,
                silent: missing.iter().filter(|&&m| self.silence.waived(m)).count() as u32,
            });
        let qc = self.chain.highest_qc().cloned();
        let bytes = st.block.wire_bytes() + qc.as_ref().map_or(0, |q| q.wire_bytes(&self.scheme));
        for m in missing {
            self.agg_metrics.second_chances_sent += 1;
            ctx.send(
                m,
                InivaMsg::SecondChance {
                    block: st.block.clone(),
                    qc: qc.clone(),
                },
                bytes,
            );
        }
        ctx.set_timer(self.cfg.sc_timer(), timer_id(st.view, TIMER_SECOND_CHANCE));
        if let Some(st) = self.agg.as_mut() {
            st.second_chance_sent = true;
        }
        // The policy may finalize at once, before δ.
        self.maybe_second_chance_or_finalize(ctx, timer_fired);
    }

    /// The root's 2ND-CHANCE policy, the one place the [`SecondChance`]
    /// values are told apart: what the root does next with `signers` in,
    /// once its tree has `reported` (complete, or its aggregation timer
    /// fired) or before.
    fn root_step(&self, st: &AggState<S>, signers: &Multiplicities, reported: bool) -> RootStep {
        let have_quorum = signers.distinct() >= quorum(self.cfg.n);
        let sent = st.second_chance_sent;
        let only_waived_missing =
            || (0..self.cfg.n as u32).all(|m| signers.contains(m) || self.silence.waived(m));
        match self.cfg.second_chance {
            // A quorum completed after δ ran out finalizes at once.
            _ if st.sc_expired => RootStep::Finalize,
            SecondChance::FirstQuorum if have_quorum => RootStep::Finalize,
            SecondChance::Off if reported && have_quorum => RootStep::Finalize,
            SecondChance::OnQuorum if !sent && (reported || have_quorum) => RootStep::SecondChance,
            SecondChance::OnCompletion if !sent && reported => RootStep::SecondChance,
            SecondChance::OnCompletion if sent && only_waived_missing() => RootStep::Finalize,
            _ => RootStep::Wait,
        }
    }

    /// Root: emit the QC and, as `L_{v+1}`, propose the next block.
    fn finalize(&mut self, ctx: &mut Context<InivaMsg<S>>) {
        let Some(st) = self.agg.as_mut() else { return };
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
        self.adopt_qc(ctx.now(), qc);
        self.enter_view(ctx, view + 1);
        // The tree root *is* L_{v+1} by construction (every replica pinned
        // this node into the root slot when building the view-v tree), so
        // it proposes unconditionally — re-deriving leader_of(v+1) here
        // would use the *new* QC's voter set, which the tree predates.
        self.propose(ctx);
    }

    /// `view`'s aggregation state, while it is live and not finalized.
    fn open_agg(&self, view: u64) -> Option<&AggState<S>> {
        self.agg
            .as_ref()
            .filter(|st| st.view == view && !st.finalized)
    }

    /// The aggregation timer of `view` fired: the held shares are verified
    /// and folded, then an internal node sends up what it has and the root
    /// moves on to 2ND-CHANCE. An internal node that sent up already has
    /// nothing left for the timer to decide.
    pub(super) fn on_agg_timer(&mut self, ctx: &mut Context<InivaMsg<S>>, view: u64) {
        if self.open_agg(view).is_none_or(|st| st.sent_up) {
            return;
        }
        self.tracer.emit(
            ctx.now(),
            EventKind::TimerFired {
                view,
                kind: TimerKind::Agg,
            },
        );
        self.flush(ctx);
        // The flush may have decided already (and the root moved on).
        let Some(st) = self.open_agg(view) else {
            return;
        };
        match st.tree.role_of(self.id) {
            Role::Internal => self.send_subtree_up(ctx),
            Role::Root => self.maybe_second_chance_or_finalize(ctx, true),
            Role::Leaf => {}
        }
    }

    /// The second-chance timer of `view` fired: the root verifies and
    /// folds what it holds, then finalizes with what it has. (Nothing is
    /// held once 2ND-CHANCE is out, as every reply folds on arrival; the
    /// flush keeps the rule that each decision reads a verified hold.)
    pub(super) fn on_second_chance_timer(&mut self, ctx: &mut Context<InivaMsg<S>>, view: u64) {
        let Some(st) = self
            .agg
            .as_mut()
            .filter(|st| st.view == view && !st.finalized)
        else {
            return;
        };
        st.sc_expired = true;
        self.tracer.emit(
            ctx.now(),
            EventKind::TimerFired {
                view,
                kind: TimerKind::SecondChance,
            },
        );
        self.flush(ctx);
        if self.open_agg(view).is_some() {
            self.finalize(ctx);
        }
    }

    pub(super) fn handle_ack(&mut self, view: u64, agg: S::Aggregate) {
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
    pub(super) fn handle_second_chance(
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
                self.vote(ctx, tree, block, true);
            }
        }
        let Some(st) = &self.agg else { return };
        if st.view != view {
            return;
        }
        let reply = st.ack_agg.as_ref().unwrap_or(&st.own).clone();
        let wire =
            AGG_SIG_BYTES + PER_SIGNER_BYTES * self.scheme.multiplicities(&reply).distinct() + 16;
        ctx.send(from, InivaMsg::Signature { view, agg: reply }, wire);
    }
}
