//! Process mode: the members of a multi-process cluster, each run by
//! `run_member` from one shared `ClusterConfig` (here one thread per
//! member, on freshly reserved loopback ports), commit and agree by block
//! hash; a member run again over its write-ahead log recovers what it
//! committed, and that agrees with the first run's dumps.

use iniva_crypto::sim_scheme::SimScheme;
use iniva_obs::timeline::parse_dump;
use iniva_obs::{check_agreement, EventKind, NodeDump};
use iniva_transport::cluster::{run_member, NodeRun};
use iniva_transport::ClusterConfig;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::thread;

const N: u32 = 4;

/// Scratch directory for the run. `CHAOS_ARTIFACT_DIR` (set by CI to a
/// path it uploads on failure) overrides the system temp dir, so a failing
/// run leaves its WALs and dumps behind for triage.
fn scratch() -> PathBuf {
    let base = std::env::var_os("CHAOS_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!("iniva-members-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `n` loopback ports, free a moment ago: bound together, then released
/// for the members to bind.
fn reserve_ports(n: u32) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port"))
        .collect();
    listeners.iter().map(|l| l.local_addr().unwrap()).collect()
}

/// The shared config every member reads, as a launcher would write it.
fn config(peers: &[SocketAddr], duration_secs: u64, metrics_dir: &Path) -> ClusterConfig {
    let mut text = format!(
        "[cluster]\nduration_secs = {duration_secs}\nmetrics_dir = \"{}\"\n",
        metrics_dir.display()
    );
    for (id, addr) in peers.iter().enumerate() {
        text.push_str(&format!("[[peers]]\nid = {id}\naddr = \"{addr}\"\n"));
    }
    ClusterConfig::parse(&text).expect("the config parses")
}

fn read_dumps(dir: &Path) -> Vec<NodeDump> {
    (0..N)
        .map(|id| {
            let path = dir.join(format!("trace-{id}.jsonl"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            parse_dump(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        })
        .collect()
}

/// `(height, hash prefix)` of every hashed commit in `dump`.
fn hashed_commits(dump: &NodeDump) -> Vec<(u64, u64)> {
    dump.events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Committed {
                height,
                hash: Some(hash),
                ..
            } => Some((height, hash)),
            _ => None,
        })
        .collect()
}

#[test]
fn members_commit_agree_by_hash_and_recover_from_their_wal() {
    let dir = scratch();
    let wal = dir.join("wal");
    let peers = reserve_ports(N);
    let cluster = config(&peers, 4, &dir.join("dumps"));

    let handles: Vec<_> = (0..N)
        .map(|id| {
            let (cluster, wal) = (cluster.clone(), wal.clone());
            thread::spawn(move || run_member::<SimScheme>(&cluster, id, Some(&wal)))
        })
        .collect();
    let runs: Vec<NodeRun> = handles
        .into_iter()
        .map(|h| h.join().expect("member thread").expect("member run"))
        .collect();
    for (id, run) in runs.iter().enumerate() {
        assert!(
            run.replica.chain.committed_height() > 0,
            "member {id} committed nothing"
        );
    }

    // Every member's dump reports hashed commits, and the dumps agree.
    let first = read_dumps(&dir.join("dumps"));
    for dump in &first {
        assert!(
            !hashed_commits(dump).is_empty(),
            "member {} dumped no hashed commit",
            dump.node
        );
    }
    let shared = check_agreement(&first).expect("the members agree");
    assert!(shared > 0, "no height was compared across members");

    // Member 2 again, over the same WAL: it rehydrates its committed
    // prefix, and every block of it the first run's dumps name is the
    // block they name.
    let rerun = run_member::<SimScheme>(
        &config(&peers, 1, &dir.join("rerun")),
        2,
        Some(wal.as_path()),
    )
    .expect("member 2 reruns");
    let chain = &rerun.replica.chain;
    assert!(
        chain.metrics.recovered_blocks > 0,
        "member 2 recovered nothing from its WAL"
    );
    let mut compared = 0;
    for (height, hash) in first.iter().flat_map(hashed_commits) {
        if let Some((_, qc)) = chain.committed_entry(height) {
            let prefix = u64::from_be_bytes(qc.block_hash[..8].try_into().unwrap());
            assert_eq!(
                prefix, hash,
                "the rerun holds another block at height {height}"
            );
            compared += 1;
        }
    }
    assert!(compared > 0, "no recovered height was compared");
    let _ = std::fs::remove_dir_all(&dir);
}
