//! Chaos tests: seeded crash/partition/heal scenarios replayed against the
//! live TCP cluster — and, from the *same* [`FaultPlan`], against the
//! discrete-event simulator — asserting safety, recovery and backend
//! agreement.

use iniva_net::faults::FaultPlan;
use iniva_net::{NodeId, Time, MILLIS, SECS};
use iniva_transport::cluster::{chaos_demo_scenario, ClusterBuilder, ClusterHandle, ClusterRun};
use iniva_transport::TransportOptions;
use std::path::PathBuf;
use std::time::Duration;

const SEED: u64 = 0xC4A05;

/// The acceptance criterion test: one seeded `FaultPlan` drives a live
/// 7-replica cluster through crash → partition → heal, and
/// (a) all surviving replicas agree on the committed prefix,
/// (b) the cluster resumes committing after the heal,
/// (c) the same plan replayed on the simulator commits the same number
///     of blocks within ±10%.
#[test]
fn crash_partition_heal_matches_simulator_within_10pct() {
    // The scenario definition lives in `chaos_demo_scenario`, shared with
    // the `live_cluster --chaos` demo: crash a seeded victim at t=0, cut
    // the survivors below quorum at 2 s, heal at 3.5 s.
    let (cfg, plan, victim, others) = chaos_demo_scenario(SEED);
    let others = &others[..];
    let duration = 6u64; // seconds
    let heal_margin = 4 * SECS; // commits at/after this prove recovery

    let sim = iniva_sim::replay(&cfg, &plan, duration, SEED);
    let sim_blocks = sim.actor(others[0]).chain.metrics.committed_blocks;
    assert!(
        sim.actor(others[0])
            .chain
            .metrics
            .commits_since(heal_margin)
            > 0,
        "simulator itself must resume after the heal"
    );

    // Real clocks make the live half timing-sensitive; retry once before
    // declaring the backends divergent.
    let mut last = String::new();
    for attempt in 0..2 {
        let run = ClusterBuilder::new(&cfg, Duration::from_secs(duration))
            .faults(&plan)
            .launch()
            .and_then(ClusterHandle::join)
            .expect("cluster runs");
        match check_acceptance(&run, victim, others, heal_margin, sim_blocks) {
            Ok(()) => return,
            Err(e) if attempt == 0 => last = e,
            Err(e) => panic!("{e} (first attempt: {last})"),
        }
    }
}

fn check_acceptance(
    run: &ClusterRun,
    victim: NodeId,
    others: &[NodeId],
    heal_margin: Time,
    sim_blocks: u64,
) -> Result<(), String> {
    // (a) Safety: no two replicas (survivors *or* the crashed one) may
    // disagree anywhere in their committed logs, and the surviving group
    // must share a non-empty prefix.
    let survivors: Vec<usize> = others.iter().map(|&id| id as usize).collect();
    let agreed = run.agreed_prefix_height_of(&survivors)?;
    if agreed == 0 {
        return Err("survivors committed nothing".into());
    }
    let crashed_height = run.nodes[victim as usize].replica.chain.committed_height();
    if crashed_height != 0 {
        return Err(format!("crashed-at-0 victim committed {crashed_height}"));
    }

    // (b) Recovery: commits landed after the heal on every survivor.
    for &id in others {
        let m = &run.nodes[id as usize].replica.chain.metrics;
        if m.commits_since(heal_margin) == 0 {
            return Err(format!("replica {id} never committed after the heal"));
        }
    }

    // Fault injection actually exercised the wire: injected drops were
    // counted somewhere (send path, lanes or reader path).
    let faults_dropped: u64 = run.nodes.iter().map(|n| n.transport.faults_dropped).sum();
    if faults_dropped == 0 {
        return Err("no frames were dropped by fault injection".into());
    }

    // (c) Backend agreement on committed blocks, ±10%.
    let live_blocks = run.nodes[others[0] as usize]
        .replica
        .chain
        .metrics
        .committed_blocks;
    let delta = (live_blocks as f64 - sim_blocks as f64).abs() / sim_blocks as f64;
    if delta > 0.10 {
        return Err(format!(
            "live committed {live_blocks} blocks vs simulated {sim_blocks} ({:.1}% apart)",
            delta * 100.0
        ));
    }
    Ok(())
}

/// Kill → heal of a single replica: the healed node must rejoin under a
/// fresh incarnation epoch — its restarted sequence numbers must not be
/// falsely deduped by the peers — and resume committing.
#[test]
fn killed_replica_heals_and_rejoins() {
    let (cfg, _, _, _) = chaos_demo_scenario(SEED);
    let victim = FaultPlan::shuffled_members(cfg.n, SEED + 1)[0];
    let plan = FaultPlan::new()
        .crash(SECS, victim)
        .restart(2_500 * MILLIS, victim);
    let run = ClusterBuilder::new(&cfg, Duration::from_secs(5))
        .faults(&plan)
        .launch()
        .and_then(ClusterHandle::join)
        .expect("cluster runs");

    run.agreed_prefix_height().expect("no divergence anywhere");
    let m = &run.nodes[victim as usize].replica.chain.metrics;
    assert!(
        m.commits_since(3 * SECS) > 0,
        "healed replica must resume committing (committed {} total)",
        m.committed_blocks
    );
    // Its sends after the heal carried the bumped epoch: had they been
    // falsely deduped, the cluster could never have re-included it. The
    // victim's own counters show the kill actually dropped traffic.
    assert!(run.nodes[victim as usize].transport.faults_dropped > 0);
    // Lanes redial across the kill and the heal, yet none sends a frame
    // twice: each writes again only frames it never fully wrote.
    for (id, node) in run.nodes.iter().enumerate() {
        assert_eq!(node.transport.dups_dropped, 0, "replica {id}");
    }
}

/// The tree of view `v` is rooted at the leader of `v + 1`, so a crashed
/// replica orphans the block of the view before each of its own: that
/// block never gets a QC, and a later leader's block commits at its
/// height. Its proposer must hand the requests it carried back to the
/// pool, where they are drafted again and commit — the client never
/// resubmits anything, under the old nonce or a fresh one.
#[test]
fn a_crashed_next_leaders_orphaned_requests_commit_without_resubmission() {
    use iniva_ingress::{read_frame, write_frame, ClientMsg, IngressOptions, SubmitStatus};
    use std::collections::BTreeSet;
    use std::net::TcpStream;
    use std::time::Instant;

    let (cfg, _, _, _) = chaos_demo_scenario(SEED);
    let victim = FaultPlan::shuffled_members(cfg.n, SEED + 5)
        .into_iter()
        .find(|&m| m != 0)
        .expect("a replica other than the client's");
    let plan = FaultPlan::new().crash(SECS, victim);
    let launched = Instant::now();
    let handle = ClusterBuilder::new(&cfg, Duration::from_millis(6_500))
        .faults(&plan)
        .ingress(IngressOptions::default())
        .launch()
        .expect("cluster launches");
    let pool = std::sync::Arc::clone(&handle.ingress().expect("ingress tier").mempool);
    let addr = handle.ingress().expect("ingress tier").client_addrs[0];
    let mut writer = TcpStream::connect(addr).expect("client connects");
    let mut stream = writer.try_clone().expect("clone the client socket");
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    // Verdicts and pushes, until the run ends and the replica closes the
    // connection.
    let reader = std::thread::spawn(move || {
        let (mut accepted, mut committed) = (BTreeSet::new(), BTreeSet::new());
        while let Ok(Some(msg)) = read_frame(&mut stream) {
            match msg {
                ClientMsg::SubmitAck {
                    nonce,
                    status: SubmitStatus::Accepted,
                } => {
                    accepted.insert(nonce);
                }
                ClientMsg::Committed { nonce, .. } => {
                    assert!(committed.insert(nonce), "nonce {nonce} committed twice");
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        (accepted, committed)
    });
    write_frame(&mut writer, &ClientMsg::Follow).expect("send Follow");
    // Load starts once the victim is down (setup takes well under a
    // second), so no request can be stranded in a draft the victim made
    // as it died; it stops 2.5 s before the end, for the last round's
    // orphans to come back and commit.
    while launched.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut submitted = 0u64;
    while launched.elapsed() < Duration::from_secs(4) {
        let submit = ClientMsg::Submit {
            fee: 1,
            nonce: submitted,
            payload: bytes::Bytes::copy_from_slice(b"orphaned"),
        };
        write_frame(&mut writer, &submit).expect("send Submit");
        submitted += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    let run = handle.join().expect("cluster shuts down cleanly");
    let (accepted, committed) = reader.join().expect("client reader");

    run.agreed_prefix_height().expect("no divergence anywhere");
    assert!(
        run.nodes[victim as usize].transport.faults_dropped > 0,
        "the victim never went down"
    );
    assert_eq!(accepted.len() as u64, submitted, "every submit admitted");
    let stats = pool.stats();
    let lost: Vec<&u64> = accepted.difference(&committed).collect();
    assert!(
        lost.is_empty(),
        "{} of {submitted} requests never committed: {lost:?} ({stats:?})",
        lost.len()
    );
    assert!(
        stats.released > 0,
        "no orphaned block was released: {stats:?}"
    );
}

/// Scratch directory for WAL chaos runs. `CHAOS_ARTIFACT_DIR` (set by CI
/// to a path it uploads on failure) overrides the system temp dir, so a
/// failing run leaves its replica logs behind for triage.
fn wal_scratch(tag: &str) -> PathBuf {
    let base = std::env::var_os("CHAOS_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("iniva-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create WAL scratch dir");
    dir
}

/// The crash-recovery acceptance test: a replica is process-killed
/// mid-run (its entire runtime and sockets torn down), later restarted
/// from its TOML-equivalent peer config plus its write-ahead log, and
/// must then
/// (a) recover its committed prefix from disk,
/// (b) fetch the blocks committed while it was dead via
///     `StateRequest`/`StateResponse`,
/// (c) resume voting/committing with the survivors,
/// all without any replica anywhere disagreeing on a committed height.
#[test]
fn killed_process_restarts_from_wal_and_catches_up() {
    let (cfg, _, _, _) = chaos_demo_scenario(SEED);
    let victim = FaultPlan::shuffled_members(cfg.n, SEED + 2)[0];
    let kill_at = 1_500 * MILLIS;
    let restart_at = 3 * SECS;
    let resumed_margin = 4 * SECS; // commits at/after this prove (c)
    let plan = FaultPlan::new()
        .crash(kill_at, victim)
        .restart(restart_at, victim);
    // Small lanes: peers shed the bulk of the backlog addressed to the
    // dead replica (as a production transport would), so the gap must
    // close through `StateRequest`/`StateResponse` rather than
    // lane-backlog replay; the frames lost in the killed socket's buffers
    // guarantee a gap even on machines where the dead window is short.
    let options = TransportOptions { lane_capacity: 8 };

    // Real clocks make this timing-sensitive; retry once before failing.
    let mut last = String::new();
    for attempt in 0..2 {
        let wal_root = wal_scratch(&format!("kill-restart-{attempt}"));
        let run = ClusterBuilder::new(&cfg, Duration::from_secs(6))
            .faults(&plan)
            .wal(&wal_root)
            .transport(options)
            .launch()
            .and_then(ClusterHandle::join)
            .expect("cluster runs");
        match check_recovery(&run, victim, resumed_margin) {
            Ok(()) => {
                let _ = std::fs::remove_dir_all(&wal_root);
                return;
            }
            Err(e) if attempt == 0 => last = e,
            Err(e) => panic!("{e} (first attempt: {last}; WAL logs kept in {wal_root:?})"),
        }
    }
}

fn check_recovery(run: &ClusterRun, victim: NodeId, resumed_margin: Time) -> Result<(), String> {
    // Safety first: nobody — victim included — may disagree anywhere.
    let survivors: Vec<usize> = (0..run.nodes.len())
        .filter(|&i| i != victim as usize)
        .collect();
    let agreed = run.agreed_prefix_height_of(&survivors)?;
    if agreed == 0 {
        return Err("survivors committed nothing".into());
    }
    run.agreed_prefix_height()?;

    let m = &run.nodes[victim as usize].replica.chain.metrics;
    // (a) The restarted incarnation rehydrated a non-empty prefix from
    // its WAL: the pre-kill commits actually reached disk and came back.
    if m.recovered_blocks == 0 {
        return Err("restarted replica recovered nothing from its WAL".into());
    }
    // (b) The gap committed while it was dead arrived via state transfer.
    if m.state_transfer_blocks == 0 {
        return Err("restarted replica never adopted state-transfer blocks".into());
    }
    // (c) It resumed genuine protocol participation: commits through the
    // three-chain rule (state-transfer adoptions are counted separately)
    // landing well after the restart.
    if m.commits_since(resumed_margin) == 0 {
        return Err(format!(
            "restarted replica never committed after recovery \
             (recovered {} from disk, {} via state transfer)",
            m.recovered_blocks, m.state_transfer_blocks
        ));
    }
    // And it is actually caught up, not trailing by a growing gap.
    let victim_height = run.nodes[victim as usize].replica.chain.committed_height();
    if victim_height + 20 < agreed {
        return Err(format!(
            "restarted replica is stuck at height {victim_height} vs the survivors' {agreed}"
        ));
    }
    Ok(())
}

/// A crash and a restart at the same instant are still a process death:
/// the victim's runtime sees its switch come back under a newer epoch,
/// tears the incarnation down anyway and rebuilds it from its WAL.
#[test]
fn wal_replica_crashed_and_restarted_at_once_comes_back_from_disk() {
    let (cfg, _, _, _) = chaos_demo_scenario(SEED);
    let victim = FaultPlan::shuffled_members(cfg.n, SEED + 4)[0];
    // Late enough that the victim has journaled commits even when other
    // clusters share the cores (its first commit can take ~1.7 s then).
    let bounce_at = 2_500 * MILLIS;
    let plan = FaultPlan::new()
        .crash(bounce_at, victim)
        .restart(bounce_at, victim);
    let wal_root = wal_scratch("bounce");
    let run = ClusterBuilder::new(&cfg, Duration::from_secs(5))
        .faults(&plan)
        .wal(&wal_root)
        .launch()
        .and_then(ClusterHandle::join)
        .expect("cluster runs");

    run.agreed_prefix_height().expect("no divergence anywhere");
    let m = &run.nodes[victim as usize].replica.chain.metrics;
    assert!(
        m.recovered_blocks > 0,
        "the bounced replica kept its memory instead of recovering from its WAL"
    );
    assert!(
        m.commits_since(bounce_at) > 0,
        "the bounced replica never committed after recovery (recovered {})",
        m.recovered_blocks
    );
    let _ = std::fs::remove_dir_all(&wal_root);
}

/// A WAL replica crashed at time zero is a dead *process*: its client
/// listener must be closed like its peer listener, so a client dialling
/// it is refused at once — not parked in the accept backlog of a socket
/// nobody will ever accept on — and after its `Restart` the same address
/// is served by the new incarnation.
#[test]
fn wal_replica_dead_at_time_zero_refuses_clients_until_restarted() {
    use iniva_ingress::{read_frame, write_frame, ClientMsg, IngressOptions};
    use std::io::ErrorKind;
    use std::net::TcpStream;
    use std::time::Instant;

    let (cfg, _, _, _) = chaos_demo_scenario(SEED);
    let victim = FaultPlan::shuffled_members(cfg.n, SEED + 3)[0];
    let plan = FaultPlan::new().crash(0, victim).restart(2 * SECS, victim);
    let wal_root = wal_scratch("dead-at-zero");
    let launched = Instant::now();
    let handle = ClusterBuilder::new(&cfg, Duration::from_secs(5))
        .faults(&plan)
        .wal(&wal_root)
        .ingress(IngressOptions::default())
        .launch()
        .expect("cluster launches");
    let addr = handle.ingress().expect("ingress tier").client_addrs[victim as usize];

    // The listener is bound before the harness injects the time-zero
    // crash, so the very first dials may still land in its backlog (and
    // are reset when it closes): poll until one is refused, well before
    // the restart.
    let refused = loop {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => break true,
            _ if launched.elapsed() > Duration::from_millis(1_500) => break false,
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    assert!(refused, "dead replica's client address still accepts dials");

    // After the restart the same address answers a query.
    let served = loop {
        if launched.elapsed() > Duration::from_millis(4_500) {
            break false;
        }
        let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) else {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        if write_frame(&mut stream, &ClientMsg::Query { height: 1 }).is_ok()
            && matches!(
                read_frame(&mut stream),
                Ok(Some(ClientMsg::QueryResponse { .. }))
            )
        {
            break true;
        }
    };
    let run = handle.join().expect("cluster shuts down cleanly");
    assert!(served, "restarted replica never served its client address");
    run.agreed_prefix_height().expect("no divergence anywhere");
    let _ = std::fs::remove_dir_all(&wal_root);
}
