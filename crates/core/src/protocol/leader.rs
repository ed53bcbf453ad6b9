//! Leader context: the per-view aggregation tree, the leader of a view, and
//! the Carousel context both are derived from.

use super::InivaReplica;
use iniva_consensus::leader::{LeaderContext, LeaderPolicy, CAROUSEL_WINDOW_EPOCH};
use iniva_crypto::multisig::VoteScheme;
use iniva_crypto::shuffle::Assignment;
use iniva_net::wire::WireEncode;
use iniva_tree::{Topology, TreeView};

/// Builds the deterministic tree for `view` with the policy-chosen leader of
/// `view + 1` pinned to the root position.
///
/// # Panics
/// Panics if a committee of `n` cannot host `internal` aggregators.
pub fn tree_for_view(
    n: usize,
    internal: u32,
    epoch_seed: &[u8; 32],
    view: u64,
    policy: &LeaderPolicy,
    leader_ctx: &LeaderContext,
) -> TreeView {
    // lint: allow(hot-path-panic) replicas derive trees from the topology they validated at construction; no message reaches this
    let topology = Topology::new(n as u32, internal).expect("committee hosts the tree shape");
    tree_on(topology, epoch_seed, view, policy, leader_ctx)
}

/// The tree of `view` over a validated `topology`: a shuffled assignment
/// with the next leader swapped into the root position.
pub(super) fn tree_on(
    topology: Topology,
    epoch_seed: &[u8; 32],
    view: u64,
    policy: &LeaderPolicy,
    leader_ctx: &LeaderContext,
) -> TreeView {
    let n = topology.len() as usize;
    let shuffled = Assignment::shuffle(n, epoch_seed, view);
    let mut perm: Vec<u32> = (0..n as u32).map(|p| shuffled.member_at(p)).collect();
    let (next_leader, _) = committee_leader(policy, view + 1, n, leader_ctx);
    perm.swap(0, shuffled.position_of(next_leader) as usize);
    TreeView::with_assignment(topology, Assignment::from_permutation(perm), view)
}

/// The policy's leader of `view`, always a committee member: a policy fed
/// corrupt context (a Carousel pool holding an out-of-committee id from a
/// hostile aggregate's signer claims) must not abort consensus, so the
/// round-robin pick stands in. The flag reports that fallback.
fn committee_leader(
    policy: &LeaderPolicy,
    view: u64,
    n: usize,
    ctx: &LeaderContext,
) -> (u32, bool) {
    let pick = policy.leader(view, n, ctx);
    if pick < n as u32 {
        (pick, false)
    } else {
        ((view % n as u64) as u32, true)
    }
}

impl<S: VoteScheme> InivaReplica<S>
where
    S::Aggregate: WireEncode,
{
    /// The deterministic tree for `view`: a shuffled assignment with the
    /// policy-chosen next leader swapped into the root position. (In the
    /// paper the shuffle itself defines the rotation; pinning the root keeps
    /// leader election pluggable — round-robin or Carousel — while the other
    /// roles stay uniformly random, which is what all analyses require.)
    pub fn tree_for_view(&self, view: u64) -> TreeView {
        tree_on(
            self.topology,
            &self.cfg.epoch_seed,
            view,
            &self.cfg.leader_policy,
            &self.leader_ctx,
        )
    }

    /// Leader of `view` = root of the tree of view `view - 1`; equivalently
    /// the policy pick for `view`, with the same round-robin fallback the
    /// tree derivation takes, counted in `consensus.leader_fallbacks`.
    pub(super) fn leader_of(&self, view: u64) -> u32 {
        let (leader, fell_back) =
            committee_leader(&self.cfg.leader_policy, view, self.cfg.n, &self.leader_ctx);
        if fell_back {
            if let Some(obs) = &self.obs {
                obs.leader_fallbacks.inc();
            }
        }
        leader
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
    pub(super) fn update_carousel(&mut self) {
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
}
