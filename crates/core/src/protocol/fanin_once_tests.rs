//! Fan-in verified once, driven by hand: in the tree-completion trigger
//! mode an internal node and the root hold their children's shares until
//! every child they still expect has sent one, then verify them in one
//! batch; a timer, 2ND-CHANCE or the hold's bound flushes it earlier, and
//! the paper-faithful mode verifies every delivery. Each test names the
//! broken rule it catches.

use super::pacemaker::{timer_id, TIMER_AGG};
use super::testkit::{chain, qc_over};
use super::*;
use iniva_crypto::sim_scheme::{SimAggregate, SimScheme};
use iniva_net::ContextEffects;
use iniva_tree::{Role, TreeView};

/// Committee size: a root, three internal nodes, nine leaves (three each).
const N: u32 = 13;

fn config() -> InivaConfig {
    InivaConfig::for_tests(N as usize, 3)
}

/// One node of one view's tree, with the view's proposal taken up.
struct Node {
    r: InivaReplica<SimScheme>,
    scheme: Arc<SimScheme>,
    block: Block,
    tree: TreeView,
    /// Batches recorded before the first delivery (the carried QC's).
    base: usize,
}

impl Node {
    /// The node holding `role` in `view`'s tree (an internal node with
    /// children), after it adopted the QCs of views `1..view`, each signed
    /// by every member but `absent`, and took up `view`'s proposal.
    fn new(cfg: InivaConfig, view: u64, role: Role, absent: &[u32]) -> Self {
        let tree = tree_for_view(
            cfg.n,
            cfg.internal,
            &cfg.epoch_seed,
            view,
            &cfg.leader_policy,
            &LeaderContext::default(),
        );
        let id = (0..N)
            .find(|&m| tree.role_of(m) == role && !tree.children_of(m).is_empty())
            .expect("the role is held in a 13-member tree");
        let scheme = Arc::new(SimScheme::new(N as usize, b"fanin-once"));
        let mut r = InivaReplica::new(id, cfg, Arc::clone(&scheme));
        r.set_observability(&Registry::new(), Tracer::new(id, 4096));
        let blocks = chain(view, N);
        let signers: Vec<u32> = (0..N).filter(|m| !absent.contains(m)).collect();
        for block in &blocks[..view as usize - 1] {
            r.chain.insert_block(block.clone());
            r.adopt_qc(0, qc_over(&scheme, block, &signers));
        }
        let block = blocks[view as usize - 1].clone();
        let carried = (view > 1).then(|| qc_over(&scheme, &blocks[view as usize - 2], &signers));
        r.handle_proposal(&mut Context::external(id, 0), block.clone(), carried);
        assert_eq!(r.agg.as_ref().map(|st| st.view), Some(view), "voted");
        let mut node = Node {
            r,
            scheme,
            block,
            tree,
            base: 0,
        };
        node.base = node.batches().len();
        node
    }

    fn id(&self) -> u32 {
        self.r.id
    }

    fn children(&self) -> Vec<u32> {
        self.tree.children_of(self.id())
    }

    fn vote(&self, member: u32) -> SimAggregate {
        self.scheme
            .sign(member, &vote_message(&self.block.hash(), self.block.view))
    }

    /// `member`'s vote over the wrong message, under its own id.
    fn forged(&self, member: u32, junk: u64) -> SimAggregate {
        self.scheme.sign(member, &junk.to_be_bytes())
    }

    /// Internal node `child`'s Eq. 1 subtree aggregate with the votes of
    /// `leaves` folded in.
    fn subtree(&self, child: u32, leaves: &[u32]) -> SimAggregate {
        let own = self
            .scheme
            .scale(&self.vote(child), 1 + leaves.len() as u64);
        leaves.iter().fold(own, |agg, &leaf| {
            self.scheme
                .combine(&agg, &self.scheme.scale(&self.vote(leaf), 2))
        })
    }

    /// `child`'s full subtree aggregate.
    fn full_subtree(&self, child: u32) -> SimAggregate {
        self.subtree(child, &self.tree.children_of(child))
    }

    /// Delivers `shares` in one turn; returns what the node queued.
    fn deliver(
        &mut self,
        shares: Vec<(NodeId, SimAggregate)>,
    ) -> ContextEffects<InivaMsg<SimScheme>> {
        let view = self.block.view;
        let mut ctx = Context::external(self.id(), 0);
        let sigs = shares.into_iter().map(|(f, agg)| (f, view, agg)).collect();
        self.r.handle_signatures(&mut ctx, sigs);
        ctx.into_effects()
    }

    /// Fires the aggregation timer; returns what the node queued.
    fn agg_timer(&mut self) -> ContextEffects<InivaMsg<SimScheme>> {
        let mut ctx = Context::external(self.id(), 0);
        self.r
            .on_timer(&mut ctx, timer_id(self.block.view, TIMER_AGG));
        ctx.into_effects()
    }

    /// `(items, charged ns)` of every batch verified since the proposal.
    fn batches(&self) -> Vec<(u32, u64)> {
        let all: Vec<(u32, u64)> = self
            .r
            .tracer()
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::VerifyBatch {
                    items, charged_ns, ..
                } => Some((items, charged_ns)),
                _ => None,
            })
            .collect();
        all[self.base..].to_vec()
    }

    fn held(&self) -> usize {
        self.r.agg.as_ref().map_or(0, |st| st.held.len())
    }

    /// Whether `member` is folded into the node's verified aggregate.
    fn folded(&self, member: u32) -> bool {
        self.r
            .agg
            .as_ref()
            .is_some_and(|st| self.scheme.multiplicities(&st.agg).contains(member))
    }

    /// The QC the root formed for this view, once it has.
    fn qc(&self) -> Option<&Qc<SimScheme>> {
        self.r
            .chain
            .highest_qc()
            .filter(|qc| qc.view == self.block.view)
    }

    /// The charge of one batch over `signers` distinct signers.
    fn one_batch(&self, items: u32, signers: usize) -> (u32, u64) {
        (items, self.r.cfg.cost.verify_batch(1, signers))
    }
}

/// The aggregate an internal node sent its root, if it did.
fn sent_up(effects: &ContextEffects<InivaMsg<SimScheme>>, root: u32) -> Option<&SimAggregate> {
    effects.outbox.iter().find_map(|(to, msg, _)| match msg {
        InivaMsg::Signature { agg, .. } if *to == root => Some(agg),
        _ => None,
    })
}

/// Members the root sent a 2ND-CHANCE to, ascending.
fn second_chances(effects: &ContextEffects<InivaMsg<SimScheme>>) -> Vec<NodeId> {
    let mut to: Vec<NodeId> = effects
        .outbox
        .iter()
        .filter(|(_, msg, _)| matches!(msg, InivaMsg::SecondChance { .. }))
        .map(|&(to, _, _)| to)
        .collect();
    to.sort_unstable();
    to
}

/// An internal node given its leaves' votes across two deliveries verifies
/// them in one batch and sends the subtree up. Catches verify-on-receipt
/// (`flush_due` always true).
#[test]
fn an_internal_node_verifies_its_leaves_in_one_batch() {
    let mut p = Node::new(config(), 1, Role::Internal, &[]);
    let leaves = p.children();
    assert_eq!(leaves.len(), 3);
    let effects = p.deliver(vec![(leaves[0], p.vote(leaves[0]))]);
    assert!(
        p.batches().is_empty() && p.held() == 1,
        "held, not verified"
    );
    assert!(sent_up(&effects, p.tree.root()).is_none());
    let effects = p.deliver(
        leaves[1..]
            .iter()
            .map(|&leaf| (leaf, p.vote(leaf)))
            .collect(),
    );
    assert_eq!(p.batches(), vec![p.one_batch(3, 3)], "one batch, k = 3");
    assert_eq!(p.held(), 0);
    let up = sent_up(&effects, p.tree.root()).expect("the subtree went up");
    assert!(leaves.iter().all(|&leaf| up.mults.get(leaf) == 2));
}

/// The root given its subtree aggregates across two deliveries verifies
/// them in one batch and finalizes clean. Catches verify-on-receipt at the
/// root.
#[test]
fn the_root_verifies_its_subtrees_in_one_batch() {
    let mut p = Node::new(config(), 1, Role::Root, &[]);
    let children = p.children();
    assert_eq!(children.len(), 3);
    p.deliver(vec![(children[0], p.full_subtree(children[0]))]);
    assert!(p.batches().is_empty() && p.held() == 1);
    p.deliver(
        children[1..]
            .iter()
            .map(|&c| (c, p.full_subtree(c)))
            .collect(),
    );
    assert_eq!(p.batches(), vec![p.one_batch(3, N as usize - 1)]);
    let qc = p.qc().expect("finalized at tree completion");
    assert_eq!(p.scheme.multiplicities(&qc.agg).distinct(), N as usize);
}

/// A known-silent leaf does not hold its siblings back, and neither does
/// an internal child whose subtree holds one: the others are verified as
/// soon as they are all in. Whom the node waits for does not change: the
/// internal node still sends up on its timer, the root still waits for
/// the silent leaf's parent. Catches the waiver left out of `flush_due`,
/// and the waiver without its subtree half (only a silent child itself).
#[test]
fn a_known_silent_child_does_not_hold_the_others_back() {
    // An internal node whose leaf x is known-silent.
    let view = N as u64 + 1;
    let probe = Node::new(config(), view, Role::Internal, &[]);
    let x = probe.children()[0];
    let mut p = Node::new(config(), view, Role::Internal, &[x]);
    assert_eq!(p.id(), probe.id(), "the same internal node");
    let live: Vec<u32> = p.children().into_iter().filter(|&l| l != x).collect();
    let effects = p.deliver(live.iter().map(|&l| (l, p.vote(l))).collect());
    assert_eq!(p.batches(), vec![p.one_batch(2, 2)], "verified without x");
    assert!(live.iter().all(|&l| p.folded(l)));
    assert!(sent_up(&effects, p.tree.root()).is_none(), "still waits 2Δ");
    let up = p.agg_timer();
    assert!(sent_up(&up, p.tree.root()).is_some());

    // The root, whose child c holds the silent leaf x in its subtree.
    let probe = Node::new(config(), view, Role::Root, &[]);
    let c = probe.children()[0];
    let x = probe.tree.children_of(c)[0];
    let mut p = Node::new(config(), view, Role::Root, &[x]);
    let others: Vec<u32> = p.children().into_iter().filter(|&k| k != c).collect();
    let effects = p.deliver(others.iter().map(|&k| (k, p.full_subtree(k))).collect());
    assert_eq!(p.batches().len(), 1, "verified without c");
    assert!(others.iter().all(|&k| p.folded(k)));
    assert!(second_chances(&effects).is_empty(), "still waits for c");
    let rest: Vec<u32> = p
        .tree
        .children_of(c)
        .into_iter()
        .filter(|&l| l != x)
        .collect();
    let effects = p.deliver(vec![(c, p.subtree(c, &rest))]);
    assert_eq!(p.batches().len(), 2);
    assert_eq!(second_chances(&effects), vec![x]);
    assert!(p.qc().is_some(), "x is silent: finalized");
}

/// A share forged under a child's id, sent before or after the real one,
/// costs at most one extra batch, and the real share folds. Catches a hold
/// that is newest-wins per sender (the later forgery pushes the real share
/// out).
#[test]
fn a_forged_share_costs_at_most_one_extra_batch() {
    for forged_first in [true, false] {
        let mut p = Node::new(config(), 1, Role::Internal, &[]);
        let leaves = p.children();
        let (real, forged) = (p.vote(leaves[0]), p.forged(leaves[0], 7));
        let mut order = vec![(leaves[0], real), (leaves[0], forged)];
        if forged_first {
            order.reverse();
        }
        for share in order {
            p.deliver(vec![share]);
        }
        let mut effects = p.deliver(vec![(leaves[1], p.vote(leaves[1]))]);
        if p.held() > 0 {
            effects = p.deliver(vec![(leaves[2], p.vote(leaves[2]))]);
        }
        assert!(p.batches().len() <= 2, "forged first: {forged_first}");
        assert!(leaves.iter().all(|&l| p.folded(l)), "the real share folds");
        let up = sent_up(&effects, p.tree.root()).expect("complete, sent up");
        assert!(leaves.iter().all(|&leaf| up.mults.get(leaf) == 2));
    }
}

/// A flood of distinct well-shaped shares never grows the hold past the
/// child count plus one delivery: the delivery that passes the child count
/// flushes it. Catches the bound left out of `flush_due`.
#[test]
fn the_hold_never_exceeds_the_child_count_plus_one_delivery() {
    for role in [Role::Internal, Role::Root] {
        let mut p = Node::new(config(), 1, role, &[]);
        let k = p.children().len();
        // Shares claiming the one child that never sends: forgeries at the
        // internal node, a forged single vote at the root.
        let target = p.tree.children_of(p.children()[0]).first().copied();
        let claimed = if role == Role::Internal {
            p.children()[0]
        } else {
            target.expect("an internal child has leaves")
        };
        for junk in 0..40u64 {
            p.deliver(vec![(claimed, p.forged(claimed, junk))]);
            assert!(p.held() <= k, "{role:?} held {} > {k}", p.held());
        }
        let flood: Vec<_> = (100..110u64)
            .map(|junk| (claimed, p.forged(claimed, junk)))
            .collect();
        p.deliver(flood);
        assert!(p.held() <= k, "{role:?} after one delivery of ten");
        assert!(!p.batches().is_empty(), "the bound flushed");
        assert!(!p.folded(claimed), "no forgery folded");
    }
}

/// Each timer verifies and folds the hold before it decides: the internal
/// node's subtree carries the held leaf, the root's 2ND-CHANCE skips the
/// held subtree, and the second-chance timer finalizes with a held share.
/// (Once 2ND-CHANCE is out every reply folds on arrival, so the last case
/// plants its share by hand.) Catches a timer that decides first.
#[test]
fn each_timer_flushes_before_it_decides() {
    // Aggregation timer, internal node: the held leaf is in the subtree.
    let mut p = Node::new(config(), 1, Role::Internal, &[]);
    let leaf = p.children()[0];
    p.deliver(vec![(leaf, p.vote(leaf))]);
    assert_eq!(p.held(), 1);
    let effects = p.agg_timer();
    let up = sent_up(&effects, p.tree.root()).expect("sent up on the timer");
    assert_eq!(up.mults.get(leaf), 2, "the held leaf is in the subtree");
    assert_eq!(p.batches(), vec![p.one_batch(1, 1)]);

    // Aggregation timer, root: the held subtrees are not given a
    // 2ND-CHANCE.
    let mut p = Node::new(config(), 1, Role::Root, &[]);
    let children = p.children();
    p.deliver(
        children[..2]
            .iter()
            .map(|&c| (c, p.full_subtree(c)))
            .collect(),
    );
    assert_eq!(p.held(), 2);
    let effects = p.agg_timer();
    let mut missing = p.tree.children_of(children[2]);
    missing.push(children[2]);
    missing.sort_unstable();
    assert_eq!(second_chances(&effects), missing);

    // Second-chance timer: a held share is in the QC.
    let late = missing[0];
    let share = (late, p.vote(late));
    if let Some(st) = p.r.agg.as_mut() {
        st.held.push(share);
    }
    let mut ctx = Context::external(p.id(), 0);
    p.r.on_second_chance_timer(&mut ctx, 1);
    let qc = p.qc().expect("finalized on δ");
    assert!(p.scheme.multiplicities(&qc.agg).contains(late));
}

/// The paper-faithful mode verifies every delivery on receipt, at an
/// internal node and at the root. Catches the hold applied in that mode.
#[test]
fn paper_faithful_mode_verifies_every_delivery() {
    let mut cfg = config();
    cfg.sc_on_quorum = true;
    let mut p = Node::new(cfg.clone(), 1, Role::Internal, &[]);
    for (i, leaf) in p.children().into_iter().enumerate() {
        p.deliver(vec![(leaf, p.vote(leaf))]);
        assert_eq!(p.batches().len(), i + 1);
        assert_eq!(p.held(), 0);
    }
    let mut p = Node::new(cfg, 1, Role::Root, &[]);
    for (i, c) in p.children().into_iter().enumerate() {
        p.deliver(vec![(c, p.full_subtree(c))]);
        assert_eq!(p.batches().len(), i + 1);
    }
}
