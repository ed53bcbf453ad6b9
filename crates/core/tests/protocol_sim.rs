//! End-to-end simulation tests of the Iniva protocol (Algorithm 1) under
//! fault-free and crash-fault conditions — the behaviours behind the
//! paper's Theorems 1–2 (Reliable Dissemination, Inclusiveness) and the
//! Fig. 4 resiliency claims.

use iniva::protocol::{tree_for_view, InivaConfig, InivaReplica, SecondChance};
use iniva::rewards::{classify_inclusions, Inclusion};
use iniva_consensus::leader::LeaderContext;
use iniva_consensus::quorum;
use iniva_crypto::sim_scheme::SimScheme;
use iniva_net::faults::FaultPlan;
use iniva_net::{NetConfig, Simulation, MILLIS, SECS};
use iniva_obs::trace::{EventKind, TimerKind};
use iniva_tree::Role;
use std::sync::Arc;

fn build(
    n: usize,
    internal: u32,
    mutate: impl Fn(&mut InivaConfig),
) -> Simulation<InivaReplica<SimScheme>> {
    let scheme = Arc::new(SimScheme::new(n, b"protocol-sim"));
    let mut cfg = InivaConfig::for_tests(n, internal);
    mutate(&mut cfg);
    let replicas = (0..n as u32)
        .map(|id| InivaReplica::new(id, cfg.clone(), Arc::clone(&scheme)))
        .collect();
    Simulation::new(NetConfig::default(), replicas)
}

/// Observability is opt-in and must cost nothing when left off: a
/// default-constructed replica carries the disabled no-op tracer, retains
/// no events across a full run, and an identically-seeded run with
/// tracing enabled commits the exact same chain — the instrumentation
/// observes the protocol, it never perturbs it.
#[test]
fn default_tracing_is_disabled_and_free() {
    let mut sim = build(7, 2, |_| {});
    sim.run_until(3 * SECS);
    let baseline = sim.actor(0).chain.committed_height();
    assert!(baseline > 5, "baseline run must make progress");
    for id in 0..7 {
        let t = sim.actor(id).tracer();
        assert!(!t.enabled(), "replica {id}: tracing must default off");
        assert_eq!(
            t.dump_jsonl(),
            "",
            "replica {id}: a disabled tracer must retain nothing"
        );
    }

    // The same seeded run with tracing on: identical protocol outcome,
    // and this time the events are actually retained.
    let registry = iniva_obs::Registry::new();
    let mut traced = build(7, 2, |_| {});
    for id in 0..7u32 {
        traced
            .actor_mut(id)
            .set_observability(&registry, iniva_obs::Tracer::new(id, 4096));
    }
    traced.run_until(3 * SECS);
    assert_eq!(
        traced.actor(0).chain.committed_height(),
        baseline,
        "enabling tracing must not change what the protocol does"
    );
    let dump = traced.actor(0).tracer().dump_jsonl();
    assert!(
        dump.contains("view_entered") && dump.contains("committed"),
        "traced run must have recorded consensus events"
    );
}

/// `consensus.qc_verify_skipped` counts the carried QCs a replica did not
/// verify a second time. Fault-free under round-robin those are only the
/// QCs it formed itself, one view in `n`: once in its own proposal, and
/// once more in the views where it is not an aggregator of the next tree
/// and its parent relays that proposal back to it.
#[test]
fn qc_verify_skipped_counts_only_self_formed_qcs() {
    let n = 7u64;
    let mut sim = build(n as usize, 2, |_| {});
    let registries: Vec<_> = (0..n as u32)
        .map(|id| {
            let registry = iniva_obs::Registry::new();
            sim.actor_mut(id)
                .set_observability(&registry, iniva_obs::Tracer::disabled());
            registry
        })
        .collect();
    sim.run_until(3 * SECS);
    for (id, registry) in registries.iter().enumerate() {
        let views = registry.counter("consensus.views_entered").get();
        let skipped = registry.counter("consensus.qc_verify_skipped").get();
        assert!(views > 5 * n, "replica {id} made progress ({views} views)");
        let led = views / n;
        assert!(
            (led - 1..=2 * (led + 1)).contains(&skipped),
            "replica {id}: skipped {skipped} of {views} views, led about {led}"
        );
        assert!(
            registry.to_json().contains("consensus.qc_verify_skipped"),
            "the counter is part of the registry dump"
        );
    }
}

#[test]
fn fault_free_run_commits_blocks() {
    let mut sim = build(21, 4, |_| {});
    sim.run_until(5 * SECS);
    let h = sim.actor(0).chain.committed_height();
    assert!(h > 10, "committed height {h}");
}

#[test]
fn fault_free_inclusiveness_all_votes_in_qc() {
    // Theorem 2: with correct leaders, *every* correct process's signature
    // ends up in the QC — mean QC size must be n, not just a quorum.
    let mut sim = build(21, 4, |_| {});
    sim.run_until(5 * SECS);
    let m = &sim.actor(0).chain.metrics;
    assert!(m.qc_count > 0);
    assert!(
        m.mean_qc_size() > 20.5,
        "fault-free Iniva must include all 21 votes (got {})",
        m.mean_qc_size()
    );
}

#[test]
fn all_replicas_agree_on_committed_prefix() {
    let mut sim = build(21, 4, |_| {});
    sim.run_until(4 * SECS);
    let heights: Vec<u64> = (0..21)
        .map(|i| sim.actor(i).chain.committed_height())
        .collect();
    let min = *heights.iter().min().unwrap();
    let max = *heights.iter().max().unwrap();
    assert!(min > 0, "all replicas commit");
    assert!(max - min <= 3, "replicas diverge: {heights:?}");
}

#[test]
fn crash_faults_still_include_all_correct_processes() {
    // The paper's headline resiliency result (Fig. 4d): with 4 crashed of
    // 21, Iniva still includes >99% of *correct* processes thanks to
    // 2ND-CHANCE.
    let mut sim = build(21, 4, |c| {
        c.view_timeout = 600 * MILLIS;
    });
    for f in [3, 8, 13, 20] {
        sim.crash(f);
    }
    sim.run_until(20 * SECS);
    let m = &sim.actor(0).chain.metrics;
    assert!(m.qc_count > 0, "liveness with 4 crashes");
    let correct = 21.0 - 4.0;
    assert!(
        m.mean_qc_size() >= correct * 0.99,
        "QC size {:.2} below 99% of {correct} correct processes",
        m.mean_qc_size()
    );
}

#[test]
fn no2c_variant_commits_but_loses_inclusion_under_faults() {
    // Iniva-No2C keeps liveness (quorum still forms through the tree) but
    // can no longer re-add processes under faults.
    let mk = |second_chance: SecondChance| {
        let mut sim = build(21, 4, |c| {
            c.second_chance = second_chance;
            c.view_timeout = 600 * MILLIS;
        });
        for f in [3, 8] {
            sim.crash(f);
        }
        sim.run_until(20 * SECS);
        let m = &sim.actor(0).chain.metrics;
        (m.mean_qc_size(), m.qc_count)
    };
    let (with_2c, qcs_2c) = mk(SecondChance::OnCompletion);
    let (without_2c, qcs_no2c) = mk(SecondChance::Off);
    assert!(qcs_2c > 0 && qcs_no2c > 0);
    assert!(
        with_2c > without_2c,
        "2ND-CHANCE must improve inclusion ({with_2c:.2} vs {without_2c:.2})"
    );
}

#[test]
fn second_chances_fire_only_under_faults() {
    let mut clean = build(21, 4, |_| {});
    clean.run_until(3 * SECS);
    let clean_sc: u64 = (0..21)
        .map(|i| clean.actor(i).agg_metrics.second_chances_sent)
        .sum();

    let mut faulty = build(21, 4, |c| c.view_timeout = 600 * MILLIS);
    faulty.crash(5);
    faulty.run_until(3 * SECS);
    let faulty_sc: u64 = (0..21)
        .map(|i| faulty.actor(i).agg_metrics.second_chances_sent)
        .sum();

    assert_eq!(
        clean_sc, 0,
        "fallback paths must stay dormant when fault-free"
    );
    assert!(faulty_sc > 0, "crashes must trigger 2ND-CHANCE");
}

#[test]
fn crashed_internal_nodes_recovered_via_second_chance() {
    // Crash enough processes that some views lose internal aggregators:
    // recoveries must be observed at roots.
    let mut sim = build(21, 4, |c| c.view_timeout = 600 * MILLIS);
    for f in [1, 7] {
        sim.crash(f);
    }
    sim.run_until(10 * SECS);
    let recoveries: u64 = (0..21)
        .map(|i| sim.actor(i).agg_metrics.second_chance_recoveries)
        .sum();
    assert!(recoveries > 0, "2ND-CHANCE must recover leaf votes");
    // And the QCs stay above quorum.
    assert!(sim.actor(0).chain.metrics.mean_qc_size() >= quorum(21) as f64);
}

#[test]
fn committed_throughput_never_exceeds_offered_rate() {
    // Regression for the workload-accounting bug: the 2-view commit
    // pipeline used to re-batch request ranges that were drafted but not
    // yet committed, so committed throughput *exceeded* the offered rate
    // at saturation (each request counted by up to three overlapping
    // blocks). With the proposer-side draft cursor, committed requests
    // are bounded by arrivals at every rate.
    for rate in [2_000u64, 50_000, 500_000] {
        let secs = 5u64;
        let mut sim = build(7, 2, |c| c.request_rate = rate);
        sim.run_until(secs * SECS);
        let committed = sim.actor(0).chain.metrics.committed_reqs;
        // Requests 0..=secs*rate have arrived by the deadline.
        let offered = secs * rate + 1;
        assert!(
            committed <= offered,
            "rate {rate}: committed {committed} exceeds offered {offered}"
        );
        assert!(committed > 0, "rate {rate}: nothing committed");
    }
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sim = build(21, 4, |_| {});
        sim.run_until(2 * SECS);
        (
            sim.actor(0).chain.committed_height(),
            sim.actor(0).chain.metrics.committed_reqs,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn larger_committee_still_commits() {
    let mut sim = build(41, 6, |c| c.view_timeout = 800 * MILLIS);
    sim.run_until(5 * SECS);
    assert!(sim.actor(0).chain.committed_height() > 3);
    assert!(sim.actor(0).chain.metrics.mean_qc_size() > 40.0);
}

#[test]
fn iniva_round_latency_exceeds_star_but_stays_bounded() {
    // The tree adds ~2 hops + second-chance wait; commits must still flow
    // at a steady rate (several per second with ms-scale delays).
    let mut sim = build(21, 4, |_| {});
    sim.run_until(5 * SECS);
    let blocks = sim.actor(0).chain.metrics.committed_blocks;
    assert!(
        blocks >= 25,
        "expected steady block flow, got {blocks} in 5s"
    );
}

/// Every committed QC `observer` holds, as `(view, holds member)`.
fn committed_qcs(
    sim: &Simulation<InivaReplica<SimScheme>>,
    observer: u32,
    member: u32,
) -> Vec<(u64, bool)> {
    sim.actor(observer)
        .chain
        .committed_range(0, usize::MAX)
        .into_iter()
        .map(|(_, qc)| (qc.view, qc.agg.mults.contains(member)))
        .collect()
}

/// A crashed member that comes back is certified again within one
/// rotation: roots stopped waiting for it once it was absent from `n`
/// QCs, but its parent still waits for its vote, its 2ND-CHANCE reply
/// still counts, and at the latest it roots a view of its own.
#[test]
fn a_restarted_member_is_back_in_a_qc_within_one_rotation() {
    let n = 21u64;
    let (victim, observer) = (5, 0);
    let mut sim = build(n as usize, 4, |_| {});
    FaultPlan::new()
        .crash(SECS, victim)
        .run_on_sim(&mut sim, SECS);
    let crashed_at = sim.actor(observer).current_view();
    while sim.actor(observer).current_view() < crashed_at + 2 * n {
        assert!(sim.step(), "the survivors keep going");
    }
    let restarted_at = sim.actor(observer).current_view();
    let absent: Vec<u64> = committed_qcs(&sim, observer, victim)
        .into_iter()
        .filter(|&(view, holds)| view > crashed_at && !holds)
        .map(|(view, _)| view)
        .collect();
    assert!(
        absent.len() as u64 >= n,
        "the crash left the victim out of a full rotation of QCs: {absent:?}"
    );
    let now = sim.now();
    FaultPlan::new()
        .restart(now, victim)
        .run_on_sim(&mut sim, now);
    while sim.actor(observer).current_view() < restarted_at + n + 5 {
        assert!(sim.step(), "the cluster keeps going");
    }
    let back: Vec<u64> = committed_qcs(&sim, observer, victim)
        .into_iter()
        .filter(|&(view, holds)| view > restarted_at && holds)
        .map(|(view, _)| view)
        .collect();
    assert!(
        back.first().is_some_and(|&view| view <= restarted_at + n),
        "restarted in view {restarted_at}, certified again in {back:?}"
    );
}

/// The slow member, the crashed one, and the replica whose chain is read,
/// in the two tests below.
const SLOW: u32 = 4;
const DEAD: u32 = 9;
const OBSERVER: u32 = 0;

/// The scenario of the two tests below: 21 members, `DEAD` crashed from the
/// start, `SLOW`'s every outbound link slowed to 3 ms under Δ, every replica
/// traced. Returns the simulation after 10 s and `OBSERVER`'s view at 2 s,
/// where warm-up ends.
fn slow_beside_dead() -> (Simulation<InivaReplica<SimScheme>>, u64) {
    let n = 21u32;
    let mut sim = build(n as usize, 4, |_| {});
    let delta = InivaConfig::for_tests(n as usize, 4).delta;
    let registry = iniva_obs::Registry::new();
    for id in 0..n {
        sim.actor_mut(id)
            .set_observability(&registry, iniva_obs::Tracer::new(id, 8192));
    }
    (0..n)
        .filter(|&to| to != SLOW)
        .fold(FaultPlan::new().crash(0, DEAD), |plan, to| {
            plan.slow_link(0, SLOW, to, delta - 3 * MILLIS)
        })
        .run_on_sim(&mut sim, 2 * SECS);
    let warm = sim.actor(OBSERVER).current_view();
    sim.run_until(10 * SECS);
    (sim, warm)
}

/// A member whose every outbound link is slowed to 3 ms under Δ answers
/// in time, so it is never known-silent and keeps its place while the
/// roots stop waiting for a crashed member: it stays in ≥ 99% of the QCs
/// after warm-up.
#[test]
fn a_slow_but_timely_member_keeps_its_place_beside_a_silent_one() {
    let n = 21u32;
    let (sim, warm) = slow_beside_dead();
    let qcs: Vec<bool> = committed_qcs(&sim, OBSERVER, SLOW)
        .into_iter()
        .filter(|&(view, _)| view > warm)
        .map(|(_, holds)| holds)
        .collect();
    assert!(qcs.len() > 100, "{} QCs after warm-up", qcs.len());
    let held = qcs.iter().filter(|&&holds| holds).count();
    assert!(
        held as f64 >= 0.99 * qcs.len() as f64,
        "the slow member is in {held} of {} QCs",
        qcs.len()
    );
    let waived = (0..n)
        .filter(|&id| {
            sim.actor(id)
                .tracer()
                .dump_jsonl()
                .contains("\"silent\": 1")
        })
        .count();
    assert!(waived > 0, "no root stopped waiting for the crashed member");
}

/// Parents stop waiting for the crashed member too, and the slow one keeps
/// its reward as a leaf. After warm-up, by which every replica has counted
/// more than `n` QCs without the crashed member:
/// - the slow member is folded by its parent, at multiplicity 2
///   (`Inclusion::Tree`), in ≥ 99% of the certified views where it is a
///   leaf under a live parent (under the crashed one it can only answer
///   the root's 2ND-CHANCE);
/// - no parent of the crashed member fires its aggregation timer in a view
///   where the crashed member is its leaf.
#[test]
fn parents_stop_waiting_for_a_silent_leaf_and_a_slow_leaf_keeps_its_multiplicity() {
    let (sim, warm) = slow_beside_dead();
    let cfg = InivaConfig::for_tests(21, 4);
    let tree = |view: u64| {
        tree_for_view(
            cfg.n,
            cfg.internal,
            &cfg.epoch_seed,
            view,
            &cfg.leader_policy,
            &LeaderContext::default(),
        )
    };
    let committed = sim.actor(OBSERVER).chain.committed_range(0, usize::MAX);
    let before_warm: Vec<_> = committed.iter().filter(|(_, qc)| qc.view <= warm).collect();
    assert!(before_warm.len() > cfg.n, "{} QCs", before_warm.len());
    assert!(before_warm
        .iter()
        .all(|(_, qc)| !qc.agg.mults.contains(DEAD)));

    let as_leaf: Vec<Inclusion> = committed
        .iter()
        .filter(|(_, qc)| qc.view > warm)
        .filter_map(|(_, qc)| {
            let tree = tree(qc.view);
            (tree.role_of(SLOW) == Role::Leaf && tree.parent_of(SLOW) != Some(DEAD))
                .then(|| classify_inclusions(&tree, &qc.agg.mults)[SLOW as usize])
        })
        .collect();
    assert!(
        as_leaf.len() > 50,
        "{} views with the slow leaf",
        as_leaf.len()
    );
    let folded = as_leaf
        .iter()
        .filter(|inc| matches!(inc, Inclusion::Tree { .. }))
        .count();
    assert!(
        folded as f64 >= 0.99 * as_leaf.len() as f64,
        "the slow leaf was folded by its parent in {folded} of {} views: {as_leaf:?}",
        as_leaf.len()
    );

    // Every (parent, view) where the crashed member is the parent's leaf
    // and the parent's trace still holds that view.
    let last = sim.actor(OBSERVER).current_view();
    let mut checked = 0;
    for view in warm + 1..last {
        let tree = tree(view);
        let Some(parent) = tree.parent_of(DEAD) else {
            continue;
        };
        if tree.role_of(DEAD) != Role::Leaf {
            continue;
        }
        let events = sim.actor(parent).tracer().events();
        let traced = events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ProposalReceived { view: v, .. } if v == view));
        if !traced {
            continue;
        }
        checked += 1;
        let fired = events.iter().any(|e| {
            matches!(e.kind, EventKind::TimerFired { view: v, kind: TimerKind::Agg } if v == view)
        });
        assert!(
            !fired,
            "view {view}: parent {parent} waited out 2Δ for {DEAD}"
        );
    }
    assert!(checked > 50, "{checked} parent views checked");
}

/// The paper's trigger runs the same fan-in: once a crashed member is
/// known-silent, no parent of it fires its aggregation timer in a view
/// where it is a leaf. And the trigger keeps its δ: every QC formed after
/// warm-up forms at least δ after its root's 2ND-CHANCE, though the root
/// knows the missing member is silent.
#[test]
fn the_quorum_trigger_waives_a_silent_leaf_and_still_sleeps_out_delta() {
    let n = 21u32;
    let mut sim = build(n as usize, 4, |c| c.second_chance = SecondChance::OnQuorum);
    let cfg = InivaConfig::for_tests(n as usize, 4);
    let registry = iniva_obs::Registry::new();
    for id in 0..n {
        sim.actor_mut(id)
            .set_observability(&registry, iniva_obs::Tracer::new(id, 8192));
    }
    FaultPlan::new()
        .crash(0, DEAD)
        .run_on_sim(&mut sim, 3 * SECS);
    // Past `n` QCs without the dead member, every replica calls it silent.
    let warm = sim.actor(OBSERVER).current_view();
    let certified = sim.actor(OBSERVER).chain.committed_range(0, usize::MAX);
    assert!(certified.len() > n as usize, "{} QCs", certified.len());
    sim.run_until(8 * SECS);
    let last = sim.actor(OBSERVER).current_view();
    let traces: Vec<_> = (0..n).map(|id| sim.actor(id).tracer().events()).collect();
    let delta = 2 * cfg.delta; // δ = 2Δ, `for_tests` sets no explicit δ

    let mut parents = 0;
    let mut qcs = 0;
    for view in warm + 1..last {
        let tree = tree_for_view(
            cfg.n,
            cfg.internal,
            &cfg.epoch_seed,
            view,
            &cfg.leader_policy,
            &LeaderContext::default(),
        );
        let at = |id: u32, pick: &dyn Fn(&EventKind) -> bool| {
            traces[id as usize]
                .iter()
                .find(|e| pick(&e.kind))
                .map(|e| e.at)
        };
        if let (Role::Leaf, Some(parent)) = (tree.role_of(DEAD), tree.parent_of(DEAD)) {
            let received = at(
                parent,
                &|k| matches!(k, EventKind::ProposalReceived { view: v, .. } if *v == view),
            );
            let fired = at(
                parent,
                &|k| matches!(k, EventKind::TimerFired { view: v, kind: TimerKind::Agg } if *v == view),
            );
            if received.is_some() {
                parents += 1;
                assert!(
                    fired.is_none(),
                    "view {view}: parent {parent} waited out 2Δ"
                );
            }
        }
        let root = tree.root();
        let formed = at(
            root,
            &|k| matches!(k, EventKind::QcFormed { view: v, .. } if *v == view),
        );
        if let Some(formed) = formed {
            qcs += 1;
            let asked = at(
                root,
                &|k| matches!(k, EventKind::SecondChance { view: v, .. } if *v == view),
            )
            .expect("every QC follows a 2ND-CHANCE, a member is down");
            assert!(
                formed >= asked + delta,
                "view {view}: QC {} ms after 2ND-CHANCE",
                (formed - asked) as f64 / MILLIS as f64
            );
        }
    }
    assert!(
        parents > 30 && qcs > 50,
        "{parents} parent views, {qcs} QCs"
    );
}
