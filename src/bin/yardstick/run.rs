//! One cluster launch of one workload: drive the load, join the cluster,
//! check the oracle and reduce what came back to metrics. Only public
//! builder methods and public result fields are used, and no transport
//! backend is named.

use crate::loadgen::{drive, Ledger, LoadSpec, Mark, Stamps};
use crate::stats::{blocked_percentile, percentile, process_cpu_us, ratio, Metric};
use crate::workload::{Phases, Workload};
use iniva::protocol::InivaConfig;
use iniva_consensus::types::quorum;
use iniva_crypto::bls::BlsScheme;
use iniva_crypto::multisig::WireScheme;
use iniva_crypto::sim_scheme::SimScheme;
use iniva_ingress::IngressOptions;
use iniva_net::faults::FaultPlan;
use iniva_transport::cluster::{ClusterBuilder, ClusterRun, ObsOptions};
use std::io;
use std::path::Path;
use std::time::Instant;

/// What one launch produced.
#[derive(Default)]
pub struct RunReport {
    /// Launch to the first `Committed` ack, seconds.
    pub setup_s: Option<f64>,
    /// The per-launch end-to-end metrics (set-up time and peak RSS are
    /// added by the caller, which owns the process).
    pub end_to_end: Vec<Metric>,
    /// Request-stage and counter metrics of the layers.
    pub layers: Vec<Metric>,
    /// Measured requests whose outcome was awaited, and those that never
    /// committed or were refused.
    pub attempted: u64,
    pub failed: u64,
    /// Oracle violations; any makes the run incorrect.
    pub violations: Vec<String>,
    /// Stamps of every open-loop request, for `--spans`.
    pub base: Vec<Stamps>,
}

/// Counters sampled at the phase boundaries.
#[derive(Default)]
struct Marks {
    /// `(sum ns, count)` of the mempool's admission-to-commit histogram
    /// when `base` started and when its requests had drained.
    server_from: (u64, u64),
    server_to: (u64, u64),
    /// Process CPU when the closed loop started and ended, µs.
    cpu_from: u64,
    cpu_to: u64,
}

/// Launches `w` for `phases` and reports; `tmp` is an empty directory of
/// the run's own, `obs` turns the system's telemetry on.
pub fn run(
    w: &Workload,
    seed: u64,
    phases: Phases,
    tmp: &Path,
    obs: Option<ObsOptions>,
) -> Result<RunReport, String> {
    let report = if w.bls {
        run_with::<BlsScheme>(w, seed, phases, tmp, obs)
    } else {
        run_with::<SimScheme>(w, seed, phases, tmp, obs)
    };
    report.map_err(|e| format!("{}: {e}", w.name))
}

fn run_with<S: WireScheme>(
    w: &Workload,
    seed: u64,
    phases: Phases,
    tmp: &Path,
    obs: Option<ObsOptions>,
) -> io::Result<RunReport> {
    let start = Instant::now();
    let mut cfg = InivaConfig::for_tests(w.n, w.internal);
    if w.bls {
        cfg.tune_for_real_crypto();
    }
    let measured = !phases.base.is_zero();
    let crashed = (w.crash && measured).then(|| w.victim(seed));
    let mut builder = ClusterBuilder::new(&cfg, phases.cluster_duration())
        .scheme::<S>()
        .cpu(w.cpu)
        .ingress(IngressOptions {
            capacity: 65_536,
            rate_per_client: 0,
            burst: 1,
        });
    if let Some(victim) = crashed {
        builder = builder.faults(&FaultPlan::new().crash(phases.crash_at_ns(), victim));
    }
    if w.wal {
        // Every launch starts from an empty log: an existing one would be
        // recovered, and the launch would resume the previous chain.
        let dir = tmp.join("wal");
        let _ = std::fs::remove_dir_all(&dir);
        builder = builder.wal(dir);
    }
    if let Some(obs) = obs {
        builder = builder.observe(obs);
    }
    let handle = builder.launch()?;
    let ingress = handle.ingress().expect("ingress was enabled").clone();
    let spec = LoadSpec {
        addrs: [ingress.client_addrs[0], ingress.client_addrs[1]],
        seed,
        rate: w.rate,
        plan: phases.plan(),
    };
    let mut marks = Marks::default();
    let server = || {
        let h = ingress.mempool.latency();
        (h.sum(), h.count())
    };
    let driven = drive(&spec, start, &mut |mark| match mark {
        Mark::BaseStart => marks.server_from = server(),
        Mark::SatStart => {
            marks.server_to = server();
            marks.cpu_from = process_cpu_us();
        }
        Mark::End => marks.cpu_to = process_cpu_us(),
    });
    // The cluster is joined even when the generator failed, so no
    // replica thread outlives the run.
    let cluster = handle.join()?;
    let ledger = driven?;

    let mut report = RunReport {
        setup_s: ledger.first_commit.map(|ns| ns as f64 / 1e9),
        ..RunReport::default()
    };
    if measured {
        reduce(w, &phases, crashed, &cluster, ledger, &marks, &mut report);
    } else {
        report.violations = ledger.violations;
    }
    Ok(report)
}

/// Samples per block of `commit_p99_ms`: what p99 needs to have ten
/// samples beyond it.
const P99_BLOCK: usize = 1000;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Ascending `f(stamps)` over the open-loop requests for which it exists.
fn spans(base: &[Stamps], f: impl Fn(&Stamps) -> Option<u64>) -> Vec<u64> {
    let mut v: Vec<u64> = base.iter().filter_map(f).collect();
    v.sort_unstable();
    v
}

/// `to - from` when both instants were stamped.
fn between(from: u64, to: u64) -> Option<u64> {
    (from != 0 && to != 0).then(|| to.saturating_sub(from))
}

fn reduce<S: WireScheme>(
    w: &Workload,
    phases: &Phases,
    crashed: Option<u32>,
    cluster: &ClusterRun<S>,
    mut ledger: Ledger,
    marks: &Marks,
    out: &mut RunReport,
) {
    let n = w.n;
    let live: Vec<usize> = (0..n).filter(|&i| Some(i as u32) != crashed).collect();
    let chain = &cluster.nodes[0].replica.chain.metrics;
    let stats = cluster
        .ingress
        .as_ref()
        .expect("ingress was enabled")
        .mempool
        .stats();
    let limit_ns = w.limit_ms * 1_000_000;

    // ---- the correctness oracle
    let mut bad = std::mem::take(&mut ledger.violations);
    match cluster.agreed_prefix_height_of(&live) {
        Ok(0) => bad.push("the live replicas agree on an empty prefix".into()),
        Ok(_) => {}
        Err(e) => bad.push(format!("committed logs diverge: {e}")),
    }
    if !(stats.committed <= stats.admitted && stats.admitted <= stats.offered) {
        bad.push(format!(
            "ingress counters out of order: committed {} admitted {} offered {}",
            stats.committed, stats.admitted, stats.offered
        ));
    }
    if chain.mean_qc_size() < quorum(n) as f64 {
        bad.push(format!(
            "mean QC size {:.2} is below the quorum of {}",
            chain.mean_qc_size(),
            quorum(n)
        ));
    }
    if crashed.is_some() {
        for &i in &live {
            let last = cluster.nodes[i].replica.chain.metrics.last_commit_time;
            if last <= phases.crash_at_ns() {
                bad.push(format!("replica {i} never committed after the crash"));
            }
        }
    }
    out.violations = bad;

    // ---- end to end
    // Latencies of the committed open-loop requests, in due order.
    let in_order: Vec<u64> = ledger
        .base
        .iter()
        .filter_map(|s| between(s.due, s.committed))
        .collect();
    let mut latency = in_order.clone();
    latency.sort_unstable();
    let sent = ledger.base.len() as u64;
    let lost = sent - latency.partition_point(|&l| l <= limit_ns) as u64;
    let sat = ledger.sat_acks;
    let sat_cpu_us = marks.cpu_to.saturating_sub(marks.cpu_from);
    out.attempted = sent + ledger.sat_completed;
    out.failed = ledger.failed + ledger.base_uncommitted();
    out.end_to_end = vec![
        Metric::new("commit_p50_ms", ms(percentile(&latency, 50.0)), "ms"),
        Metric::new(
            "commit_p99_ms",
            blocked_percentile(&in_order, 99.0, P99_BLOCK) / 1e6,
            "ms",
        ),
        Metric::new("delivered_share", 1.0 - ratio(lost, sent), "ratio"),
        Metric::new(
            "sat_goodput_rps",
            sat.goodput_rps(phases.sat.as_nanos() as u64),
            "req/s",
        ),
        Metric::new("cpu_us_per_req", ratio(sat_cpu_us, sat.committed), "us"),
        Metric::new("qc_inclusion", chain.mean_qc_size() / n as f64, "ratio"),
    ];

    // ---- request stages, from the generator's own stamps
    let late = spans(&ledger.base, |s| between(s.due, s.written));
    let admit = spans(&ledger.base, |s| between(s.written, s.acked));
    let a2c = spans(&ledger.base, |s| between(s.acked, s.committed));
    let a2c_mean = ratio(a2c.iter().sum(), a2c.len() as u64);
    let server_mean = ratio(
        marks.server_to.0 - marks.server_from.0,
        marks.server_to.1 - marks.server_from.1,
    );
    let mut layers = vec![
        Metric::new("loadgen.late_p99_us", us(percentile(&late, 99.0)), "us"),
        Metric::new("loadgen.late_max_ms", ms(percentile(&late, 100.0)), "ms"),
        Metric::new("loadgen.stall_max_ms", ms(ledger.stall_max), "ms"),
        Metric::new("loadgen.resubmitted", ledger.retried as f64, "count"),
        Metric::new(
            "ingress.admit_rtt_p50_us",
            us(percentile(&admit, 50.0)),
            "us",
        ),
        Metric::new(
            "ingress.admit_rtt_p99_us",
            us(percentile(&admit, 99.0)),
            "us",
        ),
        Metric::new(
            "consensus.admit_to_commit_p50_ms",
            ms(percentile(&a2c, 50.0)),
            "ms",
        ),
        Metric::new("ingress.server_commit_mean_ms", server_mean / 1e6, "ms"),
        Metric::new(
            "ingress.push_delay_mean_ms",
            (a2c_mean - server_mean) / 1e6,
            "ms",
        ),
    ];

    // ---- counters of the joined cluster, public fields only
    let sum = |f: &dyn Fn(usize) -> u64| (0..n).map(f).sum::<u64>();
    let views = chain.total_views;
    let heights = live
        .iter()
        .map(|&i| cluster.nodes[i].replica.chain.committed_height());
    let lag = heights.clone().max().unwrap_or(0) - heights.min().unwrap_or(0);
    let busy = sum(&|i| cluster.nodes[i].runtime.busy);
    let busy_max = (0..n).map(|i| cluster.nodes[i].runtime.busy).max();
    let shed = stats.shed_busy + stats.shed_full;
    let wall_s = cluster.duration.as_secs_f64();
    let counters: [(&str, f64, &'static str); 24] = [
        (
            "ingress.admitted_share",
            ratio(stats.admitted, stats.offered),
            "ratio",
        ),
        ("ingress.shed_share", ratio(shed, stats.offered), "ratio"),
        ("ingress.evicted", stats.evicted as f64, "count"),
        (
            "ingress.abandoned_share",
            ratio(stats.abandoned, stats.drafted),
            "ratio",
        ),
        ("ingress.depth_end", stats.depth as f64, "count"),
        ("consensus.views_per_s", views as f64 / wall_s, "1/s"),
        (
            "consensus.failed_view_share",
            chain.failed_view_fraction(),
            "ratio",
        ),
        (
            "consensus.reqs_per_block",
            ratio(chain.committed_reqs, chain.committed_blocks),
            "count",
        ),
        ("consensus.qc_size_mean", chain.mean_qc_size(), "count"),
        ("consensus.follower_lag_blocks", lag as f64, "count"),
        (
            "core.second_chances_per_view",
            ratio(
                sum(&|i| cluster.nodes[i].replica.agg_metrics.second_chances_sent),
                views,
            ),
            "count",
        ),
        (
            "core.clean_view_share",
            ratio(
                sum(&|i| cluster.nodes[i].replica.agg_metrics.clean_views),
                views,
            ),
            "ratio",
        ),
        (
            "transport.frames_per_block",
            ratio(
                sum(&|i| cluster.nodes[i].transport.msgs_sent),
                chain.committed_blocks,
            ),
            "count",
        ),
        (
            "transport.bytes_per_req",
            ratio(
                sum(&|i| cluster.nodes[i].transport.bytes_sent),
                chain.committed_reqs,
            ),
            "B",
        ),
        (
            "transport.reconnects",
            sum(&|i| cluster.nodes[i].transport.reconnects) as f64,
            "count",
        ),
        (
            "transport.lane_evicted",
            sum(&|i| cluster.nodes[i].transport.lane_evicted) as f64,
            "count",
        ),
        (
            "transport.dups_dropped",
            sum(&|i| cluster.nodes[i].transport.dups_dropped) as f64,
            "count",
        ),
        (
            "transport.faults_dropped",
            sum(&|i| cluster.nodes[i].transport.faults_dropped) as f64,
            "count",
        ),
        (
            "runtime.busy_share_max",
            busy_max.unwrap_or(0) as f64 / (wall_s * 1e9),
            "ratio",
        ),
        (
            "runtime.charged_share",
            ratio(sum(&|i| cluster.nodes[i].runtime.cpu_charged), busy),
            "ratio",
        ),
        (
            "runtime.msgs_per_view",
            ratio(sum(&|i| cluster.nodes[i].runtime.msgs_delivered), views),
            "count",
        ),
        (
            "runtime.timers_per_view",
            ratio(sum(&|i| cluster.nodes[i].runtime.timers_fired), views),
            "count",
        ),
        ("loadgen.busy_acks", ledger.busy as f64, "count"),
        ("loadgen.duplicate_acks", ledger.duplicate as f64, "count"),
    ];
    layers.extend(
        counters
            .iter()
            .map(|&(name, v, unit)| Metric::new(name, v, unit)),
    );
    out.layers = layers;
    out.base = ledger.base;
}
