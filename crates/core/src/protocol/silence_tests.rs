//! Known-silence, driven by hand: a replica that counted a member missing
//! from the last `n` certified QCs stops waiting for it, as the member's
//! parent (it sends its subtree up without it) and as the root (at tree
//! completion, and after 2ND-CHANCE under the tree-completion trigger),
//! under either trigger but never without 2ND-CHANCE. Each test names the
//! broken rule it catches.

use super::pacemaker::{timer_id, TIMER_AGG, TIMER_SECOND_CHANCE};
use super::testkit::{chain, qc_over};
use super::*;
use crate::rewards::validate_subtree_multiplicities;
use iniva_crypto::sim_scheme::{SimAggregate, SimScheme};
use iniva_net::ContextEffects;
use iniva_tree::{Role, TreeView};

/// Committee size: a root, two internal nodes, four leaves.
const N: u64 = 7;

fn config() -> InivaConfig {
    InivaConfig::for_tests(N as usize, 2)
}

/// The tree of `view` under `cfg`'s round-robin rotation.
fn tree_at(cfg: &InivaConfig, view: u64) -> TreeView {
    tree_for_view(
        cfg.n,
        cfg.internal,
        &cfg.epoch_seed,
        view,
        &cfg.leader_policy,
        &LeaderContext::default(),
    )
}

/// One member of one view's tree, primed with a chosen certified record.
struct Primed {
    node: InivaReplica<SimScheme>,
    scheme: Arc<SimScheme>,
    block: Block,
    /// What the node queued in the turn it took up the proposal.
    proposed: ContextEffects<InivaMsg<SimScheme>>,
}

impl Primed {
    /// The root of `view`'s tree, primed as [`Self::at`] primes a member.
    fn new(
        cfg: InivaConfig,
        view: u64,
        qc_views: &[u64],
        absent: impl Fn(u64) -> Vec<u32>,
    ) -> Self {
        let root = tree_at(&cfg, view).root();
        Self::at(root, cfg, view, qc_views, absent)
    }

    /// Member `id` of `view`'s tree after it adopted one QC for each entry
    /// of `qc_views`, in that order, the QC of view `v` signed by every
    /// member but `absent(v)`, and then took up `view`'s proposal, which
    /// carries the QC of `view - 1` (the last entry of `qc_views`).
    fn at(
        id: u32,
        cfg: InivaConfig,
        view: u64,
        qc_views: &[u64],
        absent: impl Fn(u64) -> Vec<u32>,
    ) -> Self {
        assert_eq!(qc_views.last(), Some(&(view - 1)), "the carried QC is held");
        let scheme = Arc::new(SimScheme::new(N as usize, b"silence"));
        let mut node = InivaReplica::new(id, cfg, Arc::clone(&scheme));
        node.set_observability(&Registry::new(), Tracer::new(id, 256));
        let blocks = chain(view, N as u32);
        let qc_of = |v: u64| {
            let signers: Vec<u32> = (0..N as u32).filter(|m| !absent(v).contains(m)).collect();
            qc_over(&scheme, &blocks[v as usize - 1], &signers)
        };
        for block in &blocks[..view as usize - 1] {
            node.chain.insert_block(block.clone());
        }
        for &v in qc_views {
            node.adopt_qc(0, qc_of(v));
        }
        let block = blocks[view as usize - 1].clone();
        let mut ctx = Context::external(id, 0);
        node.handle_proposal(&mut ctx, block.clone(), Some(qc_of(view - 1)));
        assert_eq!(
            node.agg.as_ref().map(|st| st.view),
            Some(view),
            "the member voted"
        );
        Primed {
            node,
            scheme,
            block,
            proposed: ctx.into_effects(),
        }
    }

    fn sign(&self, member: u32) -> SimAggregate {
        self.scheme
            .sign(member, &vote_message(&self.block.hash(), self.block.view))
    }

    /// Delivers `shares` to the node in one turn; returns what it queued.
    fn deliver(
        &mut self,
        shares: Vec<(NodeId, SimAggregate)>,
    ) -> ContextEffects<InivaMsg<SimScheme>> {
        let view = self.block.view;
        let mut ctx = Context::external(self.node.id, 0);
        self.node.handle_signatures(
            &mut ctx,
            shares
                .into_iter()
                .map(|(from, agg)| (from, view, agg))
                .collect(),
        );
        ctx.into_effects()
    }

    /// Internal node `child`'s Eq. 1 subtree aggregate with the votes of
    /// `leaves` folded in, delivered to the root.
    fn subtree(&mut self, child: u32, leaves: &[u32]) -> ContextEffects<InivaMsg<SimScheme>> {
        let agg = leaves.iter().fold(
            self.scheme
                .scale(&self.sign(child), 1 + leaves.len() as u64),
            |agg, &leaf| {
                self.scheme
                    .combine(&agg, &self.scheme.scale(&self.sign(leaf), 2))
            },
        );
        self.deliver(vec![(child, agg)])
    }

    /// `member`'s own vote, delivered to the node: a leaf's vote to its
    /// parent, or a 2ND-CHANCE reply to the root.
    fn reply(&mut self, member: u32) -> ContextEffects<InivaMsg<SimScheme>> {
        let vote = self.sign(member);
        self.deliver(vec![(member, vote)])
    }

    /// The QC the root formed for this view, once it has.
    fn qc(&self) -> Option<&Qc<SimScheme>> {
        self.node
            .chain
            .highest_qc()
            .filter(|qc| qc.view == self.block.view)
    }

    fn qc_holds(&self, member: u32) -> bool {
        self.qc()
            .is_some_and(|qc| self.scheme.multiplicities(&qc.agg).contains(member))
    }

    fn sc_timer(&self) -> (Time, u64) {
        (
            2 * self.node.cfg.delta,
            timer_id(self.block.view, TIMER_SECOND_CHANCE),
        )
    }

    /// Fires the aggregation timer; returns what the node queued.
    fn agg_timer(&mut self) -> ContextEffects<InivaMsg<SimScheme>> {
        let mut ctx = Context::external(self.node.id, 0);
        self.node
            .on_timer(&mut ctx, timer_id(self.block.view, TIMER_AGG));
        ctx.into_effects()
    }

    /// The number of items in each batch the node verified.
    fn batches(&self) -> Vec<u32> {
        self.node
            .tracer()
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::VerifyBatch { view, items, .. } if view == self.block.view => {
                    Some(items)
                }
                _ => None,
            })
            .collect()
    }
}

/// The aggregate an internal node sent its root, if it did.
fn sent_up<'a>(
    effects: &'a ContextEffects<InivaMsg<SimScheme>>,
    tree: &TreeView,
) -> Option<&'a SimAggregate> {
    effects.outbox.iter().find_map(|(to, msg, _)| match msg {
        InivaMsg::Signature { agg, .. } if *to == tree.root() => Some(agg),
        _ => None,
    })
}

/// Members an internal node sent an ACK to, ascending.
fn acked(effects: &ContextEffects<InivaMsg<SimScheme>>) -> Vec<NodeId> {
    let mut to: Vec<NodeId> = effects
        .outbox
        .iter()
        .filter(|(_, msg, _)| matches!(msg, InivaMsg::Ack { .. }))
        .map(|&(to, _, _)| to)
        .collect();
    to.sort_unstable();
    to
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

/// A leaf of `view`'s tree, the tree, and the leaf's parent, the other
/// leaf under that parent, and the root's other child.
fn leaf_setup(cfg: &InivaConfig, view: u64) -> (u32, TreeView, u32, u32, u32) {
    let tree = tree_at(cfg, view);
    let leaf = (0..N as u32)
        .find(|&m| tree.role_of(m) == Role::Leaf)
        .expect("a 7-node tree has leaves");
    let parent = tree.parent_of(leaf).expect("a leaf has a parent");
    let sibling = tree
        .children_of(parent)
        .into_iter()
        .find(|&c| c != leaf)
        .expect("two leaves per internal node");
    let other = tree
        .children_of(tree.root())
        .into_iter()
        .find(|&c| c != parent)
        .expect("the root has two children");
    (leaf, tree, parent, sibling, other)
}

/// Views `1..view`, each adopted once, in order.
fn views_before(view: u64) -> Vec<u64> {
    (1..view).collect()
}

/// `view`'s root after both subtrees reported without a leaf `x`, which
/// the QCs of `qc_views` lack wherever `absent(v)` holds. Returns the
/// root, `x`, and what the second subtree made the root queue.
fn leaf_missing(
    cfg: InivaConfig,
    view: u64,
    qc_views: &[u64],
    absent: impl Fn(u64) -> bool,
) -> (Primed, u32, ContextEffects<InivaMsg<SimScheme>>) {
    let (x, tree, parent, sibling, other) = leaf_setup(&cfg, view);
    let mut p = Primed::new(cfg, view, qc_views, |v| {
        if absent(v) {
            vec![x]
        } else {
            vec![]
        }
    });
    p.subtree(other, &tree.children_of(other));
    let effects = p.subtree(parent, &[sibling]);
    (p, x, effects)
}

/// The root gave `x` its 2ND-CHANCE, armed δ and waits: `x`'s reply
/// lands in the QC.
fn assert_waits_for(mut p: Primed, x: u32, effects: &ContextEffects<InivaMsg<SimScheme>>) {
    assert_eq!(second_chances(effects), vec![x]);
    assert!(effects.timers.contains(&p.sc_timer()), "δ is armed");
    assert!(p.qc().is_none(), "the root waits for the reply");
    p.reply(x);
    assert!(p.qc_holds(x), "the reply is in the QC");
}

/// `n − 1` QCs without a leaf: the root gives it a 2ND-CHANCE, arms δ and
/// waits for the reply. Catches a threshold of `n − 1`.
#[test]
fn n_minus_one_absent_qcs_still_arm_delta_and_wait_for_the_reply() {
    let (p, x, effects) = leaf_missing(config(), N, &views_before(N), |_| true);
    assert_waits_for(p, x, &effects);
}

/// `n` QCs without a leaf: the root still sends it a 2ND-CHANCE but
/// finalizes at tree completion. Catches the rule left out (a threshold
/// above `n`).
#[test]
fn n_absent_qcs_finalize_at_tree_completion() {
    let (p, x, effects) = leaf_missing(config(), N + 1, &views_before(N + 1), |_| true);
    assert_eq!(second_chances(&effects), vec![x], "silent, still asked");
    let qc = p.qc().expect("finalized at tree completion");
    assert_eq!(p.scheme.multiplicities(&qc.agg).distinct(), N as usize - 1);
    let dump = p.node.tracer().dump_jsonl();
    assert!(
        dump.contains("\"second_chance\", \"view\": 8, \"missing\": 1, \"silent\": 1"),
        "the trace names the member not waited for: {dump}"
    );
}

/// One QC with the member in it resets its streak: `n` absences in all,
/// but only `n − 1` since it was last certified, so the root waits.
/// Catches a streak that is never reset.
#[test]
fn one_qc_with_the_member_resets_the_streak() {
    let (p, x, effects) = leaf_missing(config(), N + 2, &views_before(N + 2), |v| v != 2);
    assert_waits_for(p, x, &effects);
}

/// QCs adopted again, or below a view already counted, count nothing: the
/// nine adoptions here are six QCs, so the root waits. Catches counting
/// every adoption.
#[test]
fn a_qc_adopted_twice_or_out_of_view_order_counts_once() {
    let (p, x, effects) = leaf_missing(config(), N, &[1, 2, 3, 3, 2, 1, 4, 5, 6], |_| true);
    assert_waits_for(p, x, &effects);
}

/// A known-silent internal child does not hold tree completion, yet its
/// leaves get their 2ND-CHANCE and their replies are folded. And its own
/// late aggregate does not stand in for the live child's: completion
/// counts children by id. Catches count-based completion.
#[test]
fn a_known_silent_internal_child_does_not_hold_tree_completion() {
    let cfg = config();
    let view = N + 1;
    let tree = tree_at(&cfg, view);
    let children = tree.children_of(tree.root());
    let (s, live) = (children[0], children[1]);
    let views = views_before(view);

    // The silent child stays silent: the live subtree completes the tree.
    let mut p = Primed::new(cfg.clone(), view, &views, |_| vec![s]);
    let effects = p.subtree(live, &tree.children_of(live));
    let mut expected = tree.children_of(s);
    expected.push(s);
    expected.sort_unstable();
    assert_eq!(
        second_chances(&effects),
        expected,
        "the child and its leaves"
    );
    assert!(p.qc().is_none(), "the leaves are not silent");
    for leaf in tree.children_of(s) {
        p.reply(leaf);
    }
    assert!(tree.children_of(s).into_iter().all(|leaf| p.qc_holds(leaf)));
    assert!(!p.qc_holds(s), "finalized without the silent child");

    // The silent child comes back first: the tree still waits for the
    // live child, then finalizes clean.
    let mut p = Primed::new(cfg, view, &views, |_| vec![s]);
    let effects = p.subtree(s, &tree.children_of(s));
    assert!(second_chances(&effects).is_empty(), "the live child is out");
    assert!(p.qc().is_none());
    let effects = p.subtree(live, &tree.children_of(live));
    assert!(second_chances(&effects).is_empty());
    assert_eq!(
        p.qc().map(|qc| p.scheme.multiplicities(&qc.agg).distinct()),
        Some(N as usize)
    );
}

/// After 2ND-CHANCE the root waits for a live missing leaf, and finalizes
/// before δ once only the known-silent one is left. Catches finalizing
/// only when δ runs out.
#[test]
fn the_root_finalizes_before_delta_once_only_silent_members_are_left() {
    let cfg = config();
    let view = N + 1;
    let (x, tree, parent, sibling, other) = leaf_setup(&cfg, view);
    let y = tree.children_of(other)[0];
    let mut p = Primed::new(cfg, view, &views_before(view), |_| vec![x]);
    p.subtree(parent, &[sibling]);
    let others: Vec<u32> = tree
        .children_of(other)
        .into_iter()
        .filter(|&l| l != y)
        .collect();
    let effects = p.subtree(other, &others);
    assert_eq!(second_chances(&effects), {
        let mut both = vec![x, y];
        both.sort_unstable();
        both
    });
    assert!(effects.timers.contains(&p.sc_timer()));
    assert!(p.qc().is_none(), "the live leaf is outstanding");
    p.reply(y);
    assert!(p.qc_holds(y), "finalized on the live leaf's reply");
    assert!(!p.qc_holds(x));
}

/// The paper's trigger sleeps out δ after 2ND-CHANCE, though the root
/// knows the leaf is silent, and even once every member is in: that wait
/// belongs to the trigger, not to the waiver. Catches the early finalize
/// applied under the quorum trigger.
#[test]
fn paper_faithful_mode_still_sleeps_out_delta() {
    let mut cfg = config();
    cfg.second_chance = SecondChance::OnQuorum;
    let (mut p, x, effects) = leaf_missing(cfg, N + 1, &views_before(N + 1), |_| true);
    assert_eq!(second_chances(&effects), vec![x]);
    assert!(p
        .node
        .tracer()
        .dump_jsonl()
        .contains("\"missing\": 1, \"silent\": 1"));
    p.reply(x);
    assert!(p.qc().is_none(), "the root sleeps out δ, every member in");
    let mut ctx = Context::external(p.node.id, 0);
    p.node.on_second_chance_timer(&mut ctx, N + 1);
    assert!(p.qc_holds(x), "finalized on δ, with the reply");
}

/// The parent of a leaf `x` of `view`'s tree, after the QCs of `qc_views`,
/// which lack `x` wherever `absent(v)` holds. Returns the parent, `x`, the
/// other leaf under that parent, and the tree.
fn parent_of_leaf(
    cfg: InivaConfig,
    view: u64,
    qc_views: &[u64],
    absent: impl Fn(u64) -> bool,
) -> (Primed, u32, u32, TreeView) {
    let (x, tree, parent, sibling, _) = leaf_setup(&cfg, view);
    let p = Primed::at(parent, cfg, view, qc_views, |v| {
        if absent(v) {
            vec![x]
        } else {
            vec![]
        }
    });
    (p, x, sibling, tree)
}

/// A parent whose leaf is known-silent sends its subtree up as soon as its
/// live leaf is in, without its timer: Eq. 1 over the `k = 1` leaf it
/// folded, which the root's multiplicity check accepts, and an ACK to that
/// leaf. Catches completion by child count (the parent waits out `2Δ`),
/// and Eq. 1 counted over every child, the waived one included.
#[test]
fn a_parent_sends_its_live_leaves_up_without_the_silent_one() {
    let (mut p, x, sibling, tree) = parent_of_leaf(config(), N + 1, &views_before(N + 1), |_| true);
    let effects = p.reply(sibling);
    let up = sent_up(&effects, &tree).expect("sent up without the timer");
    let mults = p.scheme.multiplicities(up);
    assert!(validate_subtree_multiplicities(&tree, p.node.id, mults));
    assert_eq!(
        (mults.get(sibling), mults.get(p.node.id), mults.get(x)),
        (2, 2, 0)
    );
    assert_eq!(acked(&effects), vec![sibling]);
}

/// A dead leaf missing from only `n − 1` QCs is still waited for: its
/// parent holds the live leaf's vote and sends up on its timer, not
/// before. Catches a threshold of `n − 1` at the aggregator.
#[test]
fn a_leaf_at_streak_n_minus_one_is_still_waited_for_until_the_timer() {
    let (mut p, x, sibling, tree) = parent_of_leaf(config(), N, &views_before(N), |_| true);
    let effects = p.reply(sibling);
    assert!(sent_up(&effects, &tree).is_none(), "the parent waits for x");
    let effects = p.agg_timer();
    let up = sent_up(&effects, &tree).expect("sent up on the timer");
    assert_eq!((up.mults.get(sibling), up.mults.get(x)), (2, 0));
}

/// A parent whose every leaf is known-silent sends its own vote up in the
/// turn it takes up the proposal, and still arms its aggregation timer as
/// the backstop. Catches a send-up that only a fold can trigger (the
/// parent would wait out `2Δ` for leaves it no longer expects).
#[test]
fn a_parent_of_only_silent_leaves_sends_up_in_the_proposal_turn() {
    let cfg = config();
    let view = N + 1;
    let (_, tree, parent, _, _) = leaf_setup(&cfg, view);
    let leaves = tree.children_of(parent);
    let delta = cfg.delta;
    let p = Primed::at(parent, cfg, view, &views_before(view), |_| leaves.clone());
    let up = sent_up(&p.proposed, &tree).expect("sent up in the proposal turn");
    assert_eq!(
        (p.scheme.multiplicities(up).distinct(), up.mults.get(parent)),
        (1, 1),
        "its own vote, alone"
    );
    let agg_timer = (
        2 * delta * tree.height_of(parent) as Time,
        timer_id(view, TIMER_AGG),
    );
    assert!(
        p.proposed.timers.contains(&agg_timer),
        "the backstop is armed"
    );
}

/// The paper's trigger waives a silent leaf at its parent as the default
/// one does: the parent sends up on its live leaf. Iniva-No2C and the
/// star's `FirstQuorum` do not, as no 2ND-CHANCE would let the leaf back
/// in: the parent sends up on its timer. Catches a `Silence` that reads
/// the trigger, or that drops its 2ND-CHANCE guard.
#[test]
fn the_parent_waiver_follows_second_chance_not_the_trigger() {
    for (mode, waives) in [
        (SecondChance::OnQuorum, true),
        (SecondChance::Off, false),
        (SecondChance::FirstQuorum, false),
    ] {
        let mut cfg = config();
        cfg.second_chance = mode;
        let (mut p, _, sibling, tree) = parent_of_leaf(cfg, N + 1, &views_before(N + 1), |_| true);
        let on_reply = sent_up(&p.reply(sibling), &tree).is_some();
        assert_eq!(on_reply, waives, "{mode:?}");
        let on_timer = sent_up(&p.agg_timer(), &tree).is_some();
        assert_eq!(on_timer, !waives, "{mode:?}");
    }
}

/// A silent leaf that comes back before its sibling is held beside it and
/// verified in the same batch: it goes up at multiplicity 2, with an ACK,
/// and the QC that carries it resets its streak. Catches a hold that drops
/// a waived child's share.
#[test]
fn a_returning_silent_leaf_is_folded_beside_its_sibling_and_resets_its_streak() {
    let (mut p, x, sibling, tree) = parent_of_leaf(config(), N + 1, &views_before(N + 1), |_| true);
    let effects = p.reply(x);
    assert!(sent_up(&effects, &tree).is_none(), "waits for the sibling");
    let effects = p.reply(sibling);
    assert_eq!(p.batches(), vec![2], "one batch of both votes");
    let up = sent_up(&effects, &tree).expect("sent up");
    assert_eq!(
        (
            up.mults.get(x),
            up.mults.get(sibling),
            up.mults.get(p.node.id)
        ),
        (2, 2, 3)
    );
    assert_eq!(acked(&effects), {
        let mut both = vec![x, sibling];
        both.sort_unstable();
        both
    });

    // The view's QC: the subtree plus every other member's vote.
    assert!(p.node.silence.streak[x as usize] >= N as u32);
    let agg = (0..N as u32)
        .filter(|&m| up.mults.get(m) == 0)
        .fold(up.clone(), |agg, m| p.scheme.combine(&agg, &p.sign(m)));
    let qc = Qc {
        block_hash: p.block.hash(),
        view: p.block.view,
        height: p.block.height,
        agg,
    };
    p.node.adopt_qc(0, qc);
    assert_eq!(p.node.silence.streak[x as usize], 0, "the streak is reset");
}
