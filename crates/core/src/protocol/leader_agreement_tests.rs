use super::pacemaker::{timer_id, TIMER_VIEW};
use super::testkit::{chain, genesis_block, qc_over, signed_prefix};
use super::*;
use iniva_consensus::leader::CAROUSEL_WINDOW_EPOCH;
use iniva_crypto::multisig::Multiplicities;
use iniva_crypto::sim_scheme::SimScheme;
use iniva_net::sync::StateResponse;
use iniva_tree::Role;

const N: usize = 4;

fn carousel_cfg() -> InivaConfig {
    let mut cfg = InivaConfig::for_tests(N, 2);
    cfg.leader_policy = LeaderPolicy::Carousel;
    cfg
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
    r.on_messages(&mut ctx, vec![(from, msg)]);
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
        fn committed(&mut self, _: &[(Block, Option<Qc<SimScheme>>)]) {}
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

/// `block.view` is raw wire input: a PROPOSAL or 2ND-CHANCE at a view
/// whose tree (`view + 1`) or timer ids (`view * 4`) would overflow is
/// refused before anything is derived from it, charged or stored — the
/// view, the last voted view and the outbox stay as they were.
#[test]
fn hostile_view_numbers_are_refused_before_any_derivation() {
    let scheme = Arc::new(SimScheme::new(N, b"hostile-view"));
    let mut r = InivaReplica::new(0, InivaConfig::for_tests(N, 2), Arc::clone(&scheme));
    for view in [u64::MAX, u64::MAX / 4 + 1] {
        let block = genesis_block(view);
        for from in 1..N as u32 {
            for msg in [
                InivaMsg::Proposal {
                    block: block.clone(),
                    qc: None,
                },
                InivaMsg::SecondChance {
                    block: block.clone(),
                    qc: None,
                },
            ] {
                let out = deliver(&mut r, from, msg, 0);
                assert!(out.is_empty(), "view {view} from {from} sent {out:?}");
                assert_eq!(r.current_view(), 1);
                assert_eq!(r.last_voted_view, 0);
            }
        }
    }
    assert!(r.chain.block(&genesis_block(u64::MAX).hash()).is_none());
}

/// The QC a proposal carries is verified once, and that verification is
/// recorded like every other: one `consensus.verify_wall_ns` sample and
/// one `VerifyBatch` event.
#[test]
fn a_carried_qc_verification_is_recorded() {
    let scheme = Arc::new(SimScheme::new(N, b"qc-record"));
    let mut r = InivaReplica::new(0, InivaConfig::for_tests(N, 2), Arc::clone(&scheme));
    let registry = Registry::new();
    r.set_observability(&registry, Tracer::new(0, 1024));
    let prefix = signed_prefix(&scheme, 2, &[1, 2, 3]);
    let (b1, qc1) = prefix[0].clone();
    let (b2, _) = prefix[1].clone();
    deliver(
        &mut r,
        1,
        InivaMsg::Proposal {
            block: b1,
            qc: None,
        },
        0,
    );
    deliver(
        &mut r,
        2,
        InivaMsg::Proposal {
            block: b2,
            qc: Some(qc1),
        },
        1,
    );
    assert_eq!(r.current_view(), 3, "both proposals voted");
    assert_eq!(registry.histogram("consensus.verify_wall_ns").count(), 1);
    let verifies = r
        .tracer()
        .events()
        .into_iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::VerifyBatch {
                    view: 2,
                    items: 1,
                    ..
                }
            )
        })
        .count();
    assert_eq!(verifies, 1);
}

/// The cut-through ruling: under Carousel the tree of view `v` is rooted
/// at a leader drawn from context the carried QC may update, so a relay
/// set derived before verification could be the wrong one. A Carousel
/// replica therefore verifies before it relays: a forged carrier from the
/// view's leader is refused with nothing relayed, and the genuine one is
/// relayed, in the same turn, along the tree the adopted QC picked.
#[test]
fn carousel_views_verify_before_they_relay() {
    // Seven members, so the relaying node has leaves besides the leader.
    const M: usize = 7;
    let scheme = Arc::new(SimScheme::new(M, b"carousel-relay"));
    let mut cfg = InivaConfig::for_tests(M, 2);
    cfg.leader_policy = LeaderPolicy::Carousel;
    let blocks = chain(40, M as u32);
    let ctx_free = |view| {
        let ctx = LeaderContext::default();
        tree_for_view(M, 2, &cfg.epoch_seed, view, &cfg.leader_policy, &ctx)
    };
    // A view whose leader has a parent that relays to it.
    let (view, parent) = (2..40u64)
        .find_map(|view| {
            let tree = ctx_free(view);
            tree.parent_of((view % M as u64) as u32)
                .filter(|&p| tree.role_of(p) == Role::Internal)
                .map(|p| (view, p))
        })
        .expect("some view's leader sits below an internal node");
    let mut r = InivaReplica::recover(
        parent,
        cfg.clone(),
        Arc::clone(&scheme),
        Vec::new(),
        view - 1,
    );
    r.enter_view(&mut Context::external(parent, 0), view, false);
    let block = blocks[view as usize - 1].clone();
    let leader = block.proposer;
    let genuine = qc_over(&scheme, &blocks[view as usize - 2], &[0, 1, 2, 3, 4]);
    let mut forged = genuine.clone();
    forged.agg = scheme.sign(1, b"wrong message");
    forged.agg.mults = genuine.agg.mults.clone();
    let relayed = |out: &[(NodeId, InivaMsg<SimScheme>, usize)]| {
        out.iter()
            .filter(|(_, msg, _)| matches!(msg, InivaMsg::Proposal { .. }))
            .count()
    };

    let out = deliver(
        &mut r,
        leader,
        InivaMsg::Proposal {
            block: block.clone(),
            qc: Some(forged),
        },
        0,
    );
    assert_eq!(relayed(&out), 0, "a forged carrier is refused unrelayed");
    let out = deliver(
        &mut r,
        leader,
        InivaMsg::Proposal {
            block,
            qc: Some(genuine),
        },
        1,
    );
    assert_eq!(r.last_voted_view, view, "verified and voted in one turn");
    let tree = r.tree_for_view(view);
    let expected = match tree.role_of(parent) {
        Role::Internal => tree.children_of(parent),
        _ => Vec::new(),
    };
    let expected = expected.iter().filter(|&&c| c != leader).count();
    assert_eq!(relayed(&out), expected);
    // The adopted QC moved the Carousel pool off round-robin, and with it
    // the trees: what a relay before verification would have read.
    assert!(
        (2..40).any(|v| r.tree_for_view(v).root() != ctx_free(v).root()),
        "the carried QC changes which trees Carousel derives"
    );
}
