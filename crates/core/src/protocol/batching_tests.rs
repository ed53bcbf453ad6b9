use super::fanin::EARLY_SIGS_TOTAL_FACTOR;
use super::pacemaker::{timer_id, TIMER_RELAYED};
use super::testkit::{chain, child_block, genesis_block, qc_over};
use super::*;
use iniva_crypto::multisig::{BatchOutcome, Multiplicities, SignerId};
use iniva_crypto::sim_scheme::{SimAggregate, SimScheme};
use iniva_tree::{Role, TreeView};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The whole 7-replica committee these tests run.
const COMMITTEE: &[u32] = &[0, 1, 2, 3, 4, 5, 6];

/// A [`SimScheme`] wrapper counting how many aggregates were actually
/// handed to cryptographic verification — the regression hook for
/// "cheap structural checks run before expensive pairings".
struct CountingScheme {
    inner: SimScheme,
    verified_items: AtomicUsize,
    signed: AtomicUsize,
}

impl CountingScheme {
    fn new(n: usize, seed: &[u8]) -> Self {
        CountingScheme {
            inner: SimScheme::new(n, seed),
            verified_items: AtomicUsize::new(0),
            signed: AtomicUsize::new(0),
        }
    }

    fn verified(&self) -> usize {
        self.verified_items.load(Ordering::SeqCst)
    }

    fn signed(&self) -> usize {
        self.signed.load(Ordering::SeqCst)
    }
}

impl VoteScheme for CountingScheme {
    type Aggregate = SimAggregate;

    fn sign(&self, signer: SignerId, msg: &[u8]) -> SimAggregate {
        self.signed.fetch_add(1, Ordering::SeqCst);
        self.inner.sign(signer, msg)
    }
    fn combine(&self, a: &SimAggregate, b: &SimAggregate) -> SimAggregate {
        self.inner.combine(a, b)
    }
    fn scale(&self, a: &SimAggregate, k: u64) -> SimAggregate {
        self.inner.scale(a, k)
    }
    fn verify(&self, msg: &[u8], agg: &SimAggregate) -> bool {
        self.verified_items.fetch_add(1, Ordering::SeqCst);
        self.inner.verify(msg, agg)
    }
    fn verify_batch(&self, groups: &[(&[u8], &[SimAggregate])]) -> BatchOutcome {
        let items: usize = groups.iter().map(|(_, aggs)| aggs.len()).sum();
        self.verified_items.fetch_add(items, Ordering::SeqCst);
        self.inner.verify_batch(groups)
    }
    fn multiplicities<'a>(&self, agg: &'a SimAggregate) -> &'a Multiplicities {
        &agg.mults
    }
    fn committee_size(&self) -> usize {
        self.inner.committee_size()
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
            tree.role_of(id) == role && (role != Role::Internal || !tree.children_of(id).is_empty())
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
    // Out-of-committee / malformed multiplicity shapes.
    let double = scheme.scale(&scheme.sign(child, &msg), 2);
    let mut ctx = Context::external(replica.id, 0);
    let before = scheme.verified();
    // The spammed duplicates and the malformed share must be rejected by
    // the cheap checks *before* any verification is charged.
    let spam = |replica: &mut InivaReplica<CountingScheme>, ctx: &mut Context<_>| {
        for _ in 0..50 {
            replica.handle_signatures(ctx, vec![(child, 1, sig.clone())]);
        }
        replica.handle_signatures(ctx, vec![(child, 1, double.clone())]);
    };
    // The first copy is held while the other leaf is still expected.
    replica.handle_signatures(&mut ctx, vec![(child, 1, sig.clone())]);
    spam(&mut replica, &mut ctx);
    assert_eq!(
        scheme.verified() - before,
        0,
        "spam reached the crypto layer"
    );
    // The aggregation timer verifies the held share and folds it.
    replica.on_agg_timer(&mut ctx, 1);
    assert_eq!(scheme.verified() - before, 1, "first copy verifies once");
    spam(&mut replica, &mut ctx);
    assert_eq!(
        scheme.verified() - before,
        1,
        "duplicates reached the crypto layer"
    );
}

/// An internal node signs (and is charged for) its vote once per view:
/// the subtree aggregate for two or more children and a 2ND-CHANCE reply
/// without an ACK reuse the vote instead of signing again.
#[test]
fn an_internal_node_signs_its_vote_once() {
    let scheme = Arc::new(CountingScheme::new(7, b"sign-once"));
    let (mut replica, block, tree) = replica_with_role(Role::Internal, Arc::clone(&scheme));
    let id = replica.id;
    assert_eq!(scheme.signed(), 1, "the vote");
    let children = tree.children_of(id);
    assert!(children.len() >= 2, "k >= 2 children");
    let msg = vote_message(&block.hash(), 1);
    let votes = children
        .iter()
        .map(|&c| (c, 1, scheme.inner.sign(c, &msg)))
        .collect();
    let mut ctx = Context::external(id, 0);
    replica.handle_signatures(&mut ctx, votes);
    replica.handle_second_chance(&mut ctx, tree.root(), block, None);
    assert_eq!(scheme.signed(), 1, "signed again");
    let sent: Vec<SimAggregate> = ctx
        .into_effects()
        .outbox
        .into_iter()
        .filter_map(|(to, msg, _)| match msg {
            InivaMsg::Signature { agg, .. } if to == tree.root() => Some(agg),
            _ => None,
        })
        .collect();
    // Eq. 1: own vote 1 + #children times, each child twice; then the
    // plain vote for the 2ND-CHANCE. Both verify.
    assert_eq!(sent.len(), 2);
    assert_eq!(sent[0].mults.get(id), 1 + children.len() as u64);
    assert!(children.iter().all(|&c| sent[0].mults.get(c) == 2));
    assert_eq!(sent[1].mults, Multiplicities::singleton(id));
    assert!(sent.iter().all(|agg| scheme.inner.verify(&msg, agg)));
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

/// A full-committee `qc_over(block)` with the aggregate swapped for a
/// forgery claiming the same signers.
fn forged_qc_over(scheme: &Arc<CountingScheme>, block: &Block) -> Qc<CountingScheme> {
    let mut qc = qc_over(scheme, block, COMMITTEE);
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
    let genuine = qc_over(&scheme, &b1, COMMITTEE);
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
    r.handle_proposal(&mut ctx, b3.clone(), Some(qc_over(&scheme, &b2, COMMITTEE)));
    r.handle_proposal(&mut ctx, b4.clone(), Some(qc_over(&scheme, &b3, COMMITTEE)));
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

/// A peer replaying a held QC under forged blocks: at any height but
/// the certificate's + 1 every frame is refused before anything is
/// charged or stored (at `batch_start = u64::MAX` the cursor
/// arithmetic used to overflow); at the right height the forgeries
/// are stored, and pruned once the retention floor passes them.
#[test]
fn forged_heights_under_a_held_qc_are_refused_and_the_rest_pruned() {
    use iniva_consensus::chain::RETAINED_COMMITS;
    let scheme = Arc::new(CountingScheme::new(7, b"forged-height"));
    let mut r = InivaReplica::new(0, InivaConfig::for_tests(7, 2), Arc::clone(&scheme));
    let b1 = genesis_block(1);
    let mut ctx = Context::external(0, 0);
    r.handle_proposal(&mut ctx, b1.clone(), None);
    let held = qc_over(&scheme, &b1, COMMITTEE);
    r.handle_timeout(&mut ctx, 3, 1, Some(held.clone()));
    let cursor = r.chain.draft_block(9, 0, 0, 0, 0).batch_start;
    let voted = r.agg.as_ref().map(|st| st.view);
    let verified = scheme.verified();

    // Half the frames carry the held QC as is, half a copy whose
    // unsigned height field claims the block's height is right.
    for i in 0..1_000u64 {
        let mut qc = held.clone();
        if i % 2 == 1 {
            qc.height = u64::MAX - 1;
        }
        let forged = Block {
            view: 2,
            height: u64::MAX,
            parent: b1.hash(),
            proposer: 1,
            batch_start: u64::MAX - i,
            batch_len: u32::MAX,
            payload_per_req: 0,
        };
        let hash = forged.hash();
        r.on_messages(
            &mut ctx,
            vec![(
                1,
                InivaMsg::Proposal {
                    block: forged,
                    qc: Some(qc),
                },
            )],
        );
        assert!(r.chain.block(&hash).is_none(), "frame {i} stored");
    }
    assert_eq!(scheme.verified(), verified, "no verify charged");
    assert_eq!(r.chain.draft_block(9, 0, 0, 0, 0).batch_start, cursor);
    assert_eq!(r.agg.as_ref().map(|st| st.view), voted, "nothing voted");

    // At the right height the forgeries are ordinary forks of b2, and
    // storing them pins the draft cursor instead of overflowing it.
    let forks: Vec<Block> = (0..100u64)
        .map(|i| Block {
            proposer: 1,
            batch_start: u64::MAX - i,
            batch_len: u32::MAX,
            ..child_block(&b1)
        })
        .collect();
    for fork in &forks {
        r.handle_proposal(&mut ctx, fork.clone(), Some(held.clone()));
    }
    assert!(forks.iter().all(|b| r.chain.block(&b.hash()).is_some()));
    // The honest chain commits until the window's floor passes them.
    let mut tip = b1;
    while r.chain.committed_height() < RETAINED_COMMITS as u64 + 2 {
        let next = child_block(&tip);
        r.chain.insert_block(next.clone());
        r.chain
            .on_qc(qc_over(&scheme, &next, COMMITTEE), 0, &scheme);
        tip = next;
    }
    assert!(forks.iter().all(|b| r.chain.block(&b.hash()).is_none()));
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
        replica.handle_signatures(&mut ctx, vec![(3, 40, sig)]);
    }
    assert_eq!(replica.early_sigs.len(), 1);
    // Distinct senders to one view are capped at committee size.
    for sender in 0..100u32 {
        let sig = scheme.sign(sender % 7, b"spam");
        replica.handle_signatures(&mut ctx, vec![(sender, 40, sig)]);
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
        replica.handle_signatures(&mut ctx, vec![((view % 7) as NodeId, view, sig)]);
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
    replica.handle_signatures(&mut ctx, vec![(1, u64::MAX, scheme.sign(1, b"spam"))]);
    // The next buffered signature re-runs the prune over the
    // u64::MAX entry.
    replica.handle_signatures(&mut ctx, vec![(2, 5, scheme.sign(2, b"spam"))]);
    assert!(replica.early_sigs.iter().any(|(_, v, _)| *v == 5));
    assert_eq!(scheme.verified(), 0);
}

/// A round-robin view of the 7-member committee whose leader is a leaf,
/// and that leaf's parent: the internal node that relays the view's
/// proposal to it, and with it the view's chain (block `h` at view and
/// height `h`, proposed by its round-robin leader `h % 7`).
fn relay_setup(
    scheme: &Arc<CountingScheme>,
) -> (InivaReplica<CountingScheme>, Vec<Block>, TreeView) {
    let cfg = InivaConfig::for_tests(7, 2);
    let blocks = chain(40, 7);
    let tree_of = |view| {
        let ctx = LeaderContext::default();
        tree_for_view(7, 2, &cfg.epoch_seed, view, &cfg.leader_policy, &ctx)
    };
    let (view, parent) = (2..40u64)
        .find_map(|view| {
            let leader = (view % 7) as u32;
            let tree = tree_of(view);
            (tree.role_of(leader) == Role::Leaf)
                .then(|| tree.parent_of(leader))
                .flatten()
                .map(|parent| (view, parent))
        })
        .expect("some view's leader is a leaf");
    // In `view`, having voted in the view before.
    let tree = tree_of(view);
    let mut r = InivaReplica::recover(parent, cfg, Arc::clone(scheme), Vec::new(), view - 1);
    r.enter_view(&mut Context::external(parent, 0), view);
    (r, blocks, tree)
}

/// The proposals in an outbox, by destination, ascending.
fn proposals_to(outbox: &[(NodeId, InivaMsg<CountingScheme>, usize)]) -> Vec<NodeId> {
    let mut to: Vec<NodeId> = outbox
        .iter()
        .filter(|(_, msg, _)| matches!(msg, InivaMsg::Proposal { .. }))
        .map(|&(to, _, _)| to)
        .collect();
    to.sort_unstable();
    to
}

/// Cut-through: an internal node relays its leader's proposal before it
/// verifies the carried QC — the relay turn verifies nothing and votes
/// nothing — skipping the proposer, which needs no copy of its own
/// proposal. The next turn verifies once and votes, relaying nothing
/// again. Under round-robin no carrier changes the relay set: the tree
/// does not read the leader context a QC could update.
#[test]
fn an_internal_node_relays_before_it_verifies() {
    let scheme = Arc::new(CountingScheme::new(7, b"cut-through"));
    let (mut r, blocks, tree) = relay_setup(&scheme);
    let view = r.current_view();
    let block = blocks[view as usize - 1].clone();
    let leader = block.proposer;
    let qc = qc_over(&scheme, &blocks[view as usize - 2], COMMITTEE);

    let mut ctx = Context::external(r.id, 0);
    r.on_messages(
        &mut ctx,
        vec![(
            leader,
            InivaMsg::Proposal {
                block,
                qc: Some(qc),
            },
        )],
    );
    let effects = ctx.into_effects();
    let mut leaves = tree.children_of(r.id);
    assert!(leaves.contains(&leader));
    leaves.retain(|&c| c != leader);
    leaves.sort_unstable();
    assert_eq!(proposals_to(&effects.outbox), leaves);
    assert_eq!(scheme.verified(), 0, "relayed before any verification");
    assert_eq!(r.last_voted_view, view - 1, "nothing voted yet");
    assert_eq!(effects.timers, vec![(0, timer_id(view, TIMER_RELAYED))]);

    let mut ctx = Context::external(r.id, 1);
    r.on_timer(&mut ctx, timer_id(view, TIMER_RELAYED));
    assert_eq!(scheme.verified(), 1, "the carried QC, once");
    assert_eq!(r.last_voted_view, view);
    assert!(proposals_to(&ctx.into_effects().outbox).is_empty());

    let mut pool = LeaderContext::default();
    pool.set_committed_voters(vec![3, 5]);
    pool.anchor_view = view;
    let cfg = InivaConfig::for_tests(7, 2);
    let carried = tree_for_view(7, 2, &cfg.epoch_seed, view, &cfg.leader_policy, &pool);
    assert!((0..7).all(|m| carried.children_of(m) == tree.children_of(m)));
}

/// The relay's amplification is bounded: only the view's leader is
/// relayed unverified, once per view. Anyone else's proposal — and the
/// leader's second one — is verified before it is relayed, so a forged
/// carrier from them goes nowhere; the relayed forgery is refused in its
/// own turn, after each leaf was sent the one copy it verifies anyway.
#[test]
fn a_relay_is_the_leaders_and_once_per_view() {
    let scheme = Arc::new(CountingScheme::new(7, b"relay-bound"));
    let (mut r, blocks, _) = relay_setup(&scheme);
    let view = r.current_view();
    let block = blocks[view as usize - 1].clone();
    let leader = block.proposer;
    let forged = forged_qc_over(&scheme, &blocks[view as usize - 2]);
    let send = |r: &mut InivaReplica<CountingScheme>, from, block: &Block| {
        let mut ctx = Context::external(r.id, 0);
        let qc = Some(forged.clone());
        let block = block.clone();
        r.on_messages(&mut ctx, vec![(from, InivaMsg::Proposal { block, qc })]);
        proposals_to(&ctx.into_effects().outbox).len()
    };
    let bystander = (0..7).find(|&m| m != leader && m != r.id).unwrap_or(0);
    assert_eq!(send(&mut r, bystander, &block), 0);
    assert_eq!(scheme.verified(), 1, "a bystander's copy is verified first");
    assert!(send(&mut r, leader, &block) > 0, "the leader's is relayed");
    assert_eq!(scheme.verified(), 1);
    let second = Block {
        batch_len: 1,
        ..block.clone()
    };
    assert_eq!(send(&mut r, leader, &second), 0, "once per view");
    assert_eq!(send(&mut r, leader, &block), 0);
    assert_eq!(scheme.verified(), 3);

    let mut ctx = Context::external(r.id, 1);
    r.on_timer(&mut ctx, timer_id(view, TIMER_RELAYED));
    assert_eq!(scheme.verified(), 4);
    assert_eq!(r.last_voted_view, view - 1, "the forgery is never voted");
    assert!(proposals_to(&ctx.into_effects().outbox).is_empty());
}
