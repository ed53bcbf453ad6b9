//! Leader election policies: round-robin (the default LSO rotation) and
//! Carousel (reputation-based, Cohen et al. \[10\]).

use std::collections::VecDeque;

/// How many views past the pool's anchor Carousel trusts its committed-voter
/// pool before degrading to full-committee round-robin.
///
/// The pool is derived from the QC of the latest committed block
/// ([`LeaderContext::anchor_view`] records that QC's view). Under a healthy
/// pipeline the current view runs only ~2–3 views ahead of the committed
/// tip, so the fallback never triggers. Under sustained view failures the
/// gap grows without bound — and if the pool itself is the problem (every
/// pooled voter crashed after signing, or replicas hold diverged pools),
/// electing from it wedges the cluster forever. Once `view` outruns the
/// anchor by this many views, every replica — *regardless* of which pool it
/// holds — switches to the same `view % n` rotation over the full
/// committee, which is guaranteed to reach a live proposer within `f`
/// views.
///
/// The constant is deliberately generous. The full-committee rotation
/// includes crashed replicas, so every fallback view has an `f/n` chance
/// of burning a whole view timeout on a dead leader — re-importing the
/// exact failure mode Carousel exists to avoid. Live traces of the
/// 4-crash cell with an 8-view fallback showed transient no-quorum
/// hiccups (scheduling noise, not divergence) staling the anchor, the
/// fallback engaging, and crashed round-robin leaders then *extending*
/// the stall they were meant to break. Since the pool is anchored to the
/// committed tip — identical across replicas by construction — pool
/// divergence is now the rare case, and patience is cheap: stay with the
/// all-alive pool through transient stalls, keep the committee-wide
/// rotation as the last-resort un-wedge.
pub const CAROUSEL_FALLBACK_VIEWS: u64 = 24;

/// How many committed heights pass between refreshes of the recent-leader
/// window.
///
/// The window is the proposers of the last `f` committed blocks — but
/// sampled only when the committed height crosses a multiple of this
/// epoch, not on every commit. A window that slid with every commit is
/// agreement-unsafe: two replicas whose committed heights are transiently
/// skewed (one missed a proposal and is catching up via state transfer)
/// would hold windows shifted by one block, exclude different candidates,
/// and elect *different leaders* — which is exactly the divergence this
/// module exists to prevent. The committed-voter *pool* does not have this
/// problem (the same live replicas sign every QC, so the set is stable
/// across adjacent heights); the window's content by construction is not.
/// Quantizing the sample point means replicas agree on the window whenever
/// their skew stays inside one epoch, which state transfer guarantees
/// within a few views; a skew that straddles a boundary diverges briefly
/// and is bounded by the [`CAROUSEL_FALLBACK_VIEWS`] rotation.
pub const CAROUSEL_WINDOW_EPOCH: u64 = 8;

/// A leader election policy.
#[derive(Debug, Clone)]
pub enum LeaderPolicy {
    /// `leader(v) = v mod n`.
    RoundRobin,
    /// Carousel \[10\]: pick leaders among the voters of the QC of the latest
    /// *committed* block, never re-picking the proposers of the last `f`
    /// committed blocks (the recent-leader exclusion of Cohen et al.).
    /// Falls back to round-robin until a commit is known. This avoids
    /// electing crashed processes, whose votes stop appearing — the
    /// property the paper's Fig. 4c exercises.
    ///
    /// The exclusion is enforced *by construction*, not by filtering:
    /// rotating an index over the pool never re-picks the previous
    /// `|pool| - 1` leaders, so any window of `f < |pool|` recent leaders
    /// is excluded without the pick depending on per-replica chain
    /// history. The explicit [`LeaderContext::recent_leaders`] window is
    /// consulted only when the pool has degenerated to `f` voters or
    /// fewer, where rotation alone could wrap onto a recent leader.
    ///
    /// Anchoring the pool to the *committed* tip (instead of the volatile
    /// high QC) keeps it identical across replicas: state transfer already
    /// converges the committed prefix, so the voter set is the same on
    /// every replica that shares it. The recent-leader window is sampled
    /// only at [`CAROUSEL_WINDOW_EPOCH`] boundaries of the committed
    /// height, so replicas whose committed tips are transiently skewed by
    /// a few blocks still exclude the same candidates (see the constant's
    /// docs for why a per-commit sliding window diverges).
    /// Fault adaptivity: if the current view runs more than
    /// [`CAROUSEL_FALLBACK_VIEWS`] past [`LeaderContext::anchor_view`]
    /// (sustained failed views), the policy degrades to round-robin over
    /// the full committee so a pool of dead voters cannot wedge the
    /// cluster.
    Carousel,
}

/// Tracks the state Carousel needs (latest committed voters, recent leaders,
/// and the view the pool was derived from).
#[derive(Debug, Clone, Default)]
pub struct LeaderContext {
    /// Distinct signers of the QC of the latest *committed* block.
    pub committed_voters: Vec<u32>,
    /// Recent leaders (most recent last).
    pub recent_leaders: VecDeque<u32>,
    /// View of the QC the committed-voter pool was derived from (0 until the
    /// first commit). Views more than [`CAROUSEL_FALLBACK_VIEWS`] past this
    /// anchor elect round-robin over the full committee instead of the pool.
    pub anchor_view: u64,
}

impl LeaderContext {
    /// Records that `leader` led a view.
    pub fn push_leader(&mut self, leader: u32, f: usize) {
        self.recent_leaders.push_back(leader);
        while self.recent_leaders.len() > f {
            self.recent_leaders.pop_front();
        }
    }

    /// Replaces the recent-leader window wholesale (used when deriving it
    /// from the chain: the proposers of the last `f` *committed* blocks,
    /// sampled at [`CAROUSEL_WINDOW_EPOCH`] boundaries so replicas with a
    /// transiently skewed committed tip still hold the same window). The
    /// policy consults it only for degenerate pools — on the healthy path
    /// the rotation excludes recent leaders by construction.
    pub fn set_recent_leaders(&mut self, leaders: Vec<u32>) {
        self.recent_leaders = leaders.into();
    }

    /// Updates the committed-voter set (called on commit).
    pub fn set_committed_voters(&mut self, voters: Vec<u32>) {
        self.committed_voters = voters;
    }
}

impl LeaderPolicy {
    /// The leader of `view` in a committee of `n`.
    pub fn leader(&self, view: u64, n: usize, ctx: &LeaderContext) -> u32 {
        match self {
            LeaderPolicy::RoundRobin => (view % n as u64) as u32,
            LeaderPolicy::Carousel => {
                // Fault-adaptive fallback: a pool anchored too many views in
                // the past means sustained failures — rotate over the full
                // committee, which every replica computes identically from
                // `view` alone.
                if ctx.committed_voters.is_empty()
                    || view > ctx.anchor_view + CAROUSEL_FALLBACK_VIEWS
                {
                    return (view % n as u64) as u32;
                }
                let pool = &ctx.committed_voters;
                // Cohen et al.'s exclusion of the last `f` leaders holds *by
                // construction* on this path: rotating the index over a
                // height-stable pool never re-picks the previous
                // `|pool| - 1` leaders (`v % len ≠ (v-i) % len` for any
                // `0 < i < len`, across fast-forward jumps too). Crucially,
                // the pick is a function of `(view, pool)` alone — it never
                // consults the recent-leader window, whose content is
                // derived from the committed chain and can transiently
                // differ between replicas whose committed heights are
                // skewed. A window-dependent pick (filtering the pool
                // changes the rotation modulus) turns one block of skew
                // into a different leader on every view: the live-collapse
                // divergence this policy exists to prevent.
                if pool.len() > ctx.recent_leaders.len() {
                    return pool[(view % pool.len() as u64) as usize];
                }
                // Degenerate pool (no bigger than the window): rotation
                // alone can wrap onto a recent leader, so apply the
                // explicit window — agreement matters less here because a
                // pool this small means the cluster is already degraded and
                // the round-robin fallback above is at most
                // `CAROUSEL_FALLBACK_VIEWS` away.
                let candidates: Vec<u32> = pool
                    .iter()
                    .copied()
                    .filter(|c| !ctx.recent_leaders.contains(c))
                    .collect();
                let pool = if candidates.is_empty() {
                    &ctx.committed_voters
                } else {
                    &candidates
                };
                pool[(view % pool.len() as u64) as usize]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let p = LeaderPolicy::RoundRobin;
        let ctx = LeaderContext::default();
        assert_eq!(p.leader(0, 4, &ctx), 0);
        assert_eq!(p.leader(5, 4, &ctx), 1);
        assert_eq!(p.leader(7, 4, &ctx), 3);
    }

    #[test]
    fn carousel_falls_back_to_round_robin() {
        let p = LeaderPolicy::Carousel;
        let ctx = LeaderContext::default();
        assert_eq!(p.leader(9, 4, &ctx), 1);
    }

    #[test]
    fn carousel_picks_committed_voters() {
        let p = LeaderPolicy::Carousel;
        let mut ctx = LeaderContext::default();
        ctx.set_committed_voters(vec![2, 5, 7]);
        for v in 0..20 {
            // Keep the anchor tracking the view, as a healthy pipeline does.
            ctx.anchor_view = v;
            let l = p.leader(v, 10, &ctx);
            assert!([2, 5, 7].contains(&l));
        }
    }

    #[test]
    fn carousel_never_repicks_recent_leaders_by_construction() {
        // With a pool larger than the window, rotation alone guarantees
        // the last `f` leaders are excluded — for consecutive views and
        // across fast-forward jumps — without the pick ever reading the
        // window (which is what keeps skewed replicas in agreement).
        let p = LeaderPolicy::Carousel;
        let mut ctx = LeaderContext::default();
        ctx.set_committed_voters(vec![1, 2, 3, 4]);
        let f = 3;
        for v in 10..60u64 {
            ctx.anchor_view = v;
            let l = p.leader(v, 10, &ctx);
            for i in 1..=f {
                ctx.anchor_view = v - i;
                assert_ne!(
                    l,
                    p.leader(v - i, 10, &ctx),
                    "leader of view {v} repeats the leader of view {}",
                    v - i
                );
            }
        }
        // A fast-forward jump (pacemaker skips from view 100 to 102)
        // preserves the property: index distance mod |pool| is still
        // non-zero for lags ≤ f.
        ctx.anchor_view = 100;
        let jumped = p.leader(102, 10, &ctx);
        assert_ne!(jumped, p.leader(100, 10, &ctx));
        assert_ne!(jumped, p.leader(99, 10, &ctx));
    }

    #[test]
    fn carousel_degenerate_pool_applies_the_explicit_window() {
        // Pool no bigger than the window: rotation could wrap onto a
        // recent leader, so the explicit window filters the candidates.
        let p = LeaderPolicy::Carousel;
        let mut ctx = LeaderContext::default();
        ctx.set_committed_voters(vec![1, 2]);
        ctx.push_leader(2, 2);
        ctx.push_leader(7, 2);
        for v in 0..8 {
            ctx.anchor_view = v;
            assert_eq!(p.leader(v, 10, &ctx), 1, "only non-recent voter wins");
        }
    }

    #[test]
    fn carousel_survives_all_voters_recent() {
        let p = LeaderPolicy::Carousel;
        let mut ctx = LeaderContext::default();
        ctx.set_committed_voters(vec![1]);
        ctx.push_leader(1, 3);
        // Degenerate case: every voter is a recent leader; fall back to the
        // committed pool rather than panicking.
        assert_eq!(p.leader(0, 10, &ctx), 1);
    }

    #[test]
    fn carousel_degrades_to_full_committee_after_stall() {
        let p = LeaderPolicy::Carousel;
        let mut ctx = LeaderContext::default();
        ctx.set_committed_voters(vec![2, 5, 7]);
        ctx.anchor_view = 10;
        // Within the window: pooled election.
        let v = ctx.anchor_view + CAROUSEL_FALLBACK_VIEWS;
        assert!([2, 5, 7].contains(&p.leader(v, 10, &ctx)));
        // One past the window: full-committee round-robin, computable from
        // the view alone — identical on replicas with diverged pools.
        let v = ctx.anchor_view + CAROUSEL_FALLBACK_VIEWS + 1;
        assert_eq!(p.leader(v, 10, &ctx), (v % 10) as u32);
        let v = v + 4;
        assert_eq!(p.leader(v, 10, &ctx), (v % 10) as u32);
    }

    #[test]
    fn carousel_fallback_ignores_pool_divergence() {
        // Two replicas with *different* pools (the live-collapse scenario)
        // still agree once the fallback engages.
        let p = LeaderPolicy::Carousel;
        let mut a = LeaderContext::default();
        a.set_committed_voters(vec![1, 2, 3]);
        let mut b = LeaderContext::default();
        b.set_committed_voters(vec![4, 5]);
        let view = CAROUSEL_FALLBACK_VIEWS + 50;
        assert_eq!(p.leader(view, 10, &a), p.leader(view, 10, &b));
    }

    #[test]
    fn recent_leader_window_is_bounded() {
        let mut ctx = LeaderContext::default();
        for i in 0..10 {
            ctx.push_leader(i, 3);
        }
        assert_eq!(ctx.recent_leaders.len(), 3);
        assert_eq!(ctx.recent_leaders, VecDeque::from(vec![7, 8, 9]));
    }
}
