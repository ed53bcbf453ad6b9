//! One thread per node: a running cluster's threads are its replicas' —
//! each drives its own sockets — plus the harness and the fault driver.
//! A binary of its own, so no other test's threads are counted.

use iniva::protocol::InivaConfig;
use iniva_net::faults::FaultPlan;
use iniva_net::MILLIS;
use iniva_transport::cluster::ClusterBuilder;
use std::time::Duration;

/// The names of this process's threads.
fn threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists the process's threads")
        .filter_map(|task| {
            let comm = task.ok()?.path().join("comm");
            Some(std::fs::read_to_string(comm).ok()?.trim().to_string())
        })
        .collect()
}

#[test]
fn a_cluster_runs_one_thread_per_replica() {
    const N: usize = 4;
    let before = threads().len();
    let cfg = InivaConfig::for_tests(N, 1);
    // An event past the sampling window keeps the fault driver alive.
    let plan = FaultPlan::new().heal_links(1_500 * MILLIS);
    let handle = ClusterBuilder::new(&cfg, Duration::from_secs(2))
        .faults(&plan)
        .launch()
        .expect("cluster launches");
    std::thread::sleep(Duration::from_millis(400));
    for _ in 0..5 {
        let now = threads();
        assert!(
            !now.iter().any(|name| name.starts_with("iniva-reactor")),
            "a poller thread beside the replicas: {now:?}"
        );
        // The replicas, the harness and the fault driver.
        assert_eq!(
            now.len(),
            before + N + 2,
            "threads during the run: {now:?} (before it: {before})"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let run = handle.join().expect("cluster run");
    assert!(run.agreed_prefix_height().expect("prefixes agree") > 0);
}
