//! Runs an Iniva cluster over **real TCP sockets** — the same replica
//! state machines the simulator drives, now on a live wire — and prints
//! throughput/latency with the exact metric definitions of the simulated
//! perf harness (`iniva_consensus::PerfSummary`), side by side with a
//! simulator run of the identical configuration (`iniva_sim::replay`, the
//! one replay behind every simulated Fig. 3 and Fig. 4 cell).
//!
//! In-process cluster (threads, ephemeral loopback ports):
//!
//! ```sh
//! cargo run --release --example live_cluster                  # n=7, 5 s
//! cargo run --release --example live_cluster -- --n 13 --duration 10
//! ```
//!
//! Scheme selection — `--scheme {sim,bls}` (default `sim`): `sim` runs
//! the calibrated stand-in scheme with its modeled CPU costs spent as
//! real time, `bls` runs **genuine BLS12-381 pairing crypto** end to end
//! — 48-byte compressed G1 aggregates (and their multiplicity tables) as
//! the actual frame bytes, subgroup-checked on every decode, ~50 ms of
//! real verification per aggregate (timers are widened accordingly; the
//! modeled cost is zeroed since the crypto now pays for itself):
//!
//! ```sh
//! cargo run --release --example live_cluster -- --scheme bls --n 4 --duration 15
//! ```
//!
//! In multi-process mode the scheme lives in the shared config (pass
//! `--scheme` to `--write-config`): every `--id` process reads it from
//! there, and a conflicting explicit `--scheme` fails by name instead of
//! stalling on mutually undecodable frames.
//!
//! Multi-process cluster from a TOML-style peer list (one terminal per
//! replica, like the Fast IC Consensus repo's per-terminal quickstart),
//! each running `iniva_transport::cluster::run_member`, the lifecycle of
//! every in-process replica thread too:
//!
//! ```sh
//! cargo run --release --example live_cluster -- --write-config /tmp/cluster.toml --n 4
//! cargo run --release --example live_cluster -- --config /tmp/cluster.toml --id 0
//! cargo run --release --example live_cluster -- --config /tmp/cluster.toml --id 1
//! cargo run --release --example live_cluster -- --config /tmp/cluster.toml --id 2
//! cargo run --release --example live_cluster -- --config /tmp/cluster.toml --id 3
//! ```
//!
//! Chaos demo — a seeded crash → partition → heal `FaultPlan` injected
//! into the live cluster, with the same plan replayed on the simulator:
//!
//! ```sh
//! cargo run --release --example live_cluster -- --chaos
//! ```
//!
//! Crash recovery — give a `--config/--id` replica a WAL directory and it
//! journals every commit and view to disk; `kill -9` it mid-run, rerun
//! the *same* command, and the restarted process rehydrates its committed
//! prefix from the log, fetches what it missed from the peers via state
//! transfer, and resumes voting. With `metrics_dir` in the config,
//! `view_timeline --check` then checks that the processes' dumps agree
//! on the block hash at every committed height they share (CI runs this
//! demo with n = 4, killing id 2 after ~3 s):
//!
//! ```sh
//! cargo run --release --example live_cluster -- --config /tmp/cluster.toml --id 2 --wal-dir /tmp/iniva-wal
//! # ... kill -9 that process, then run the identical command again
//! cargo run --release --bin view_timeline -- /tmp/iniva-obs --check
//! ```
//!
//! Observability — `--metrics-dir <dir>` (any mode; in multi-process
//! mode, a `metrics_dir = "..."` key in the `[cluster]` table covers the
//! whole cluster) makes every replica trace consensus events and dump
//! `metrics-<id>.json` + `trace-<id>.jsonl` into the directory, refreshed
//! every ~2 s in `--config`/`--id` mode so killed processes leave usable
//! traces. Merge the dumps into a cross-replica per-view timeline:
//!
//! ```sh
//! cargo run --release --example live_cluster -- --chaos --metrics-dir /tmp/iniva-obs
//! cargo run --release --bin view_timeline -- /tmp/iniva-obs
//! ```
//!
//! Client ingress — `--ingress` (in-process) or a `client_listen` key in
//! the shared config (multi-process) gives every replica a client-facing
//! listener feeding a bounded fee-ordered mempool; the proposer then
//! drafts blocks from real client submits instead of the synthetic
//! open-loop model. The listener is served on the replica's own transport
//! poller (`Transport::serve_clients`) in both modes, so a client that
//! sent `Follow` gets its `Committed` ack pushed the moment the block
//! settles — the committing thread wakes the poller — not on a polling
//! tick. Any `ClientMsg` speaker can drive it (the printed addresses):
//!
//! ```sh
//! cargo run --release --example live_cluster -- --ingress --duration 30
//! ```
//!
//! Each ingress knob exists as a CLI flag (in-process / ad-hoc) and a
//! `[cluster]` TOML key (multi-process, shared like the peer list); in
//! `--config` mode an explicit flag that disagrees with the config fails
//! by name, exactly like `--scheme`:
//!
//! | CLI flag          | TOML key        | meaning                                      |
//! |-------------------|-----------------|----------------------------------------------|
//! | `--ingress`       | `client_listen` | enable the client tier (TOML: base address; replica `id` listens on port + id) |
//! | `--client-listen` | `client_listen` | client listen base address (`--write-config` seeds it) |
//! | `--mempool`       | `mempool`       | mempool capacity in requests                 |
//! | `--client-rate`   | `client_rate`   | per-client token refill rate, submits/second |
//! | `--client-burst`  | `client_burst`  | per-client token bucket burst                |

use iniva::protocol::InivaConfig;
use iniva_consensus::PerfSummary;
use iniva_crypto::bls::BlsScheme;
use iniva_crypto::multisig::WireScheme;
use iniva_crypto::sim_scheme::SimScheme;
use iniva_ingress::IngressOptions;
use iniva_net::faults::FaultPlan;
use iniva_net::SECS;
use iniva_sim::{replay, summary};
use iniva_transport::cluster::{
    chaos_demo_scenario, run_member, ClusterBuilder, ClusterHandle, ObsOptions,
};
use iniva_transport::ClusterConfig;
use iniva_tree::Topology;
use std::path::Path;
use std::time::Duration;

/// Network seed of the simulated comparison rows.
const SIM_SEED: u64 = 42;

fn in_process<S: WireScheme>(
    mut cfg: InivaConfig,
    duration_secs: u64,
    metrics_dir: Option<&str>,
    ingress: Option<IngressOptions>,
) {
    let (n, internal, rate) = (cfg.n, cfg.internal, cfg.request_rate);
    if S::REAL_CRYPTO {
        cfg.tune_for_real_crypto();
    }
    println!(
        "== live Iniva cluster [{scheme}]: n = {n}, {internal} internal aggregators, \
         {rate} req/s offered, {duration_secs} s over loopback TCP ==",
        scheme = S::NAME
    );
    let duration = Duration::from_secs(duration_secs);
    let mut builder = ClusterBuilder::new(&cfg, duration).scheme::<S>();
    if let Some(dir) = metrics_dir {
        builder = builder.observe(ObsOptions::new(dir));
    }
    if let Some(opts) = ingress {
        builder = builder.ingress(opts);
    }
    // With --ingress the client addresses are printed while the cluster
    // is live, so clients can connect.
    let handle = builder.launch().expect("cluster starts");
    if let Some(ing) = handle.ingress() {
        println!("client ingress listening on:");
        for (id, addr) in ing.client_addrs.iter().enumerate() {
            println!("  replica {id}: {addr}");
        }
    }
    let run = handle.join().expect("cluster run");
    if let Some(ing) = &run.ingress {
        let stats = ing.mempool.stats();
        println!(
            "ingress: {} offered, {} admitted, {} duplicates, {} shed \
             ({} rate-limited, {} full), {} committed",
            stats.offered,
            stats.admitted,
            stats.duplicates,
            stats.shed_busy + stats.shed_full,
            stats.shed_busy,
            stats.shed_full,
            stats.committed,
        );
    }
    if let Some(dir) = metrics_dir {
        println!(
            "observability dumps in {dir}/ — merge with: \
             cargo run --release --bin view_timeline -- {dir}"
        );
    }

    let agreed = match run.agreed_prefix_height() {
        Ok(h) => h,
        Err(e) => panic!("SAFETY VIOLATION: {e}"),
    };
    let cpu_busy: Vec<u64> = run.nodes.iter().map(|nd| nd.runtime.busy).collect();
    let metrics = &run.nodes[0].replica.chain.metrics;
    let live = PerfSummary::from_metrics(metrics, duration_secs as f64, &cpu_busy);

    println!("{}", PerfSummary::table_header());
    if !S::REAL_CRYPTO {
        // The simulator comparison row models the same calibrated costs
        // a modeled scheme spends as real time; it has no meaningful
        // analogue for genuinely paid pairing crypto.
        let sim = replay(&cfg, &FaultPlan::new(), duration_secs, SIM_SEED);
        println!("{}", summary(&sim, 0, duration_secs).table_row("simulated"));
    }
    println!("{}", live.table_row(&format!("live-tcp[{}]", S::NAME)));
    println!();
    println!("agreed committed prefix : {agreed} blocks (all {n} replicas)");
    let sent: u64 = run.nodes.iter().map(|nd| nd.transport.msgs_sent).sum();
    let bytes: u64 = run.nodes.iter().map(|nd| nd.transport.bytes_sent).sum();
    let dups: u64 = run.nodes.iter().map(|nd| nd.transport.dups_dropped).sum();
    println!("frames shipped          : {sent} ({bytes} body bytes, {dups} duplicates dropped)");
}

/// One replica of a multi-process cluster: the shared config's member
/// `id`, run in this process by [`run_member`], the lifecycle every
/// in-process replica runs too.
fn member<S: WireScheme>(cluster: &ClusterConfig, id: u32, wal_dir: Option<&str>) {
    let (n, secs) = (cluster.n(), cluster.duration_secs);
    let addr = cluster.addr_of(id).map_or("?".into(), |a| a.to_string());
    println!(
        "replica {id} of {n} [{}]: listening on {addr}, running {secs} s",
        S::NAME
    );
    if let Some(addr) = cluster.client_addr_of(id) {
        println!("client ingress: listening on {addr}");
    }
    let run = run_member::<S>(cluster, id, wal_dir.map(Path::new))
        .unwrap_or_else(|e| panic!("replica {id}: {e}"));
    if let Some(dir) = &cluster.metrics_dir {
        println!("observability dumps in {dir}/ (metrics-{id}.json, trace-{id}.jsonl)");
    }
    let m = &run.replica.chain.metrics;
    let point = PerfSummary::from_metrics(m, secs as f64, &[run.runtime.busy]);
    println!("{}", PerfSummary::table_header());
    println!("{}", point.table_row(&format!("live-tcp[{id}]")));
    println!(
        "committed height {} | frames sent {} | received {} | reconnects {}",
        run.replica.chain.committed_height(),
        run.transport.msgs_sent,
        run.transport.msgs_received,
        run.transport.reconnects,
    );
    if m.recovered_blocks > 0 || m.state_transfer_blocks > 0 {
        println!(
            "crash recovery: {} blocks rehydrated from the WAL, {} fetched via state transfer",
            m.recovered_blocks, m.state_transfer_blocks
        );
    }
}

/// The chaos demo: the exact scenario the acceptance test pins
/// (`iniva_transport::cluster::chaos_demo_scenario`) — crash a seeded
/// victim at t=0, cut the survivors below quorum at 2 s, heal at 3.5 s —
/// replayed on sockets and on the simulator.
fn chaos(duration_secs: u64, metrics_dir: Option<&str>) {
    let (cfg, plan, victim, o) = chaos_demo_scenario(0xC4A05);
    let n = cfg.n;
    println!(
        "== chaos: n = {n}, crash replica {victim} at 0 s, partition 3|4 at 2 s, heal at 3.5 s =="
    );

    let duration = Duration::from_secs(duration_secs);
    let mut builder = ClusterBuilder::new(&cfg, duration).faults(&plan);
    if let Some(dir) = metrics_dir {
        builder = builder.observe(ObsOptions::new(dir));
    }
    let run = builder
        .launch()
        .and_then(ClusterHandle::join)
        .expect("cluster runs");
    let survivors: Vec<usize> = o.iter().map(|&id| id as usize).collect();
    let agreed = match run.agreed_prefix_height_of(&survivors) {
        Ok(h) => h,
        Err(e) => panic!("SAFETY VIOLATION: {e}"),
    };

    let sim = replay(&cfg, &plan, duration_secs, SIM_SEED);
    let live_m = &run.nodes[o[0] as usize].replica.chain.metrics;
    let sim_m = &sim.actor(o[0]).chain.metrics;
    println!("survivors' agreed committed prefix : {agreed} blocks");
    println!(
        "committed blocks                   : live {} vs simulated {}",
        live_m.committed_blocks, sim_m.committed_blocks
    );
    println!(
        "commits after the 3.5 s heal       : live {} vs simulated {}",
        live_m.commits_since(4 * SECS),
        sim_m.commits_since(4 * SECS)
    );
    let dropped: u64 = run.nodes.iter().map(|nd| nd.transport.faults_dropped).sum();
    let evicted: u64 = run.nodes.iter().map(|nd| nd.transport.lane_evicted).sum();
    println!("frames dropped by injected faults  : {dropped} ({evicted} shed by bounded lanes)");
    if let Some(dir) = metrics_dir {
        println!(
            "observability dumps in {dir}/ — merge with: \
             cargo run --release --bin view_timeline -- {dir}"
        );
    }
}

fn write_config(path: &str, n: usize, scheme: &str, client_listen: Option<&str>) {
    // BLS runs commit a few blocks per second of real pairing work; a
    // sub-saturation rate keeps the out-of-the-box demo readable.
    let rate = if scheme == "bls" { 200 } else { 10_000 };
    // The in-process default shape: round(√(n−1)) aggregators, at least 1.
    let internal = Topology::balanced(n as u32).map_or(0, |t| t.internal_count());
    let mut text = format!(
        "# Iniva live cluster — one `--id` process per [[peers]] entry\n[cluster]\nscheme = \"{scheme}\"\ninternal = {internal}\nbatch = 100\npayload = 64\nrate = {rate}\nduration_secs = 10\n",
    );
    if let Some(listen) = client_listen {
        let defaults = IngressOptions::default();
        text.push_str(&format!(
            "client_listen = \"{listen}\"\nmempool = {}\nclient_rate = {}\nclient_burst = {}\n",
            defaults.capacity, defaults.rate_per_client, defaults.burst
        ));
    }
    for id in 0..n {
        text.push_str(&format!(
            "\n[[peers]]\nid = {id}\naddr = \"127.0.0.1:{}\"\n",
            7100 + id
        ));
    }
    std::fs::write(path, &text).expect("write config file");
    println!("wrote {path} for an n={n} [{scheme}] cluster on 127.0.0.1:7100..");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parse = |name: &str, default: u64| -> u64 {
        flag(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("{name} wants a number"))
            })
            .unwrap_or(default)
    };

    let scheme = flag("--scheme").unwrap_or_else(|| "sim".into());
    if scheme != "sim" && scheme != "bls" {
        panic!("--scheme wants 'sim' or 'bls', got '{scheme}'");
    }
    if let Some(path) = flag("--write-config") {
        write_config(
            &path,
            parse("--n", 4) as usize,
            &scheme,
            flag("--client-listen").as_deref(),
        );
        return;
    }
    let metrics_dir = flag("--metrics-dir");
    if args.iter().any(|a| a == "--chaos") {
        // The chaos demo's whole point is the sockets-vs-simulator
        // comparison, which only the calibrated sim scheme supports.
        assert_eq!(scheme, "sim", "--chaos compares against the simulator");
        chaos(parse("--duration", 6), metrics_dir.as_deref());
        return;
    }
    if let Some(path) = flag("--config") {
        let id = flag("--id")
            .expect("--config needs --id <replica id>")
            .parse()
            .expect("--id wants a number");
        let wal = flag("--wal-dir");
        let text = std::fs::read_to_string(&path).expect("read config file");
        let mut cluster = ClusterConfig::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        // The scheme and the ingress knobs are cluster-wide common
        // knowledge (every process must agree on the wire scheme, the
        // mempool geometry and the client port layout), so the shared
        // config is authoritative: an explicit flag must match it or fail
        // by name, and its absence means "whatever the cluster runs".
        let listen = cluster
            .client_listen
            .map_or(String::new(), |a| a.to_string());
        for (name, configured) in [
            ("--scheme", cluster.scheme.clone()),
            ("--client-listen", listen),
            ("--mempool", cluster.mempool.to_string()),
            ("--client-rate", cluster.client_rate.to_string()),
            ("--client-burst", cluster.client_burst.to_string()),
        ] {
            if let Some(v) = flag(name) {
                assert_eq!(
                    v, configured,
                    "{name} {v} conflicts with {configured:?} in {path}"
                );
            }
        }
        // A process dumps observability when the shared config says so
        // (so one key covers the whole cluster) or when this process got
        // an explicit --metrics-dir (which wins).
        if metrics_dir.is_some() {
            cluster.metrics_dir = metrics_dir;
        }
        match cluster.scheme.as_str() {
            "bls" => member::<BlsScheme>(&cluster, id, wal.as_deref()),
            _ => member::<SimScheme>(&cluster, id, wal.as_deref()),
        }
        return;
    }
    // BLS defaults: a smaller committee and a sub-saturation offered rate
    // (real pairing caps the commit cadence at a few blocks per second),
    // and a longer run so several commits land.
    let bls = scheme == "bls";
    let n = parse("--n", if bls { 4 } else { 7 }) as usize;
    let internal = Topology::balanced(n as u32).map_or(0, |t| t.internal_count());
    let cfg = InivaConfig {
        // Below the batch-100 saturation point (~6.7k committed/s for sim),
        // so the out-of-the-box run shows service latency, not queueing
        // backlog; push --rate up to study saturation.
        request_rate: parse("--rate", if bls { 200 } else { 5_000 }),
        max_batch: parse("--batch", 100) as u32,
        payload_per_req: parse("--payload", 64) as u32,
        ..InivaConfig::for_tests(n, parse("--internal", internal.into()) as u32)
    };
    let duration = parse("--duration", if bls { 15 } else { 5 });
    // --ingress bolts the client tier onto the in-process cluster: the
    // proposer drafts from a real fee-ordered mempool (initially empty —
    // drive it with any ClientMsg speaker).
    let ingress = args.iter().any(|a| a == "--ingress").then(|| {
        let defaults = IngressOptions::default();
        IngressOptions {
            capacity: parse("--mempool", defaults.capacity as u64) as usize,
            rate_per_client: parse("--client-rate", defaults.rate_per_client),
            burst: parse("--client-burst", defaults.burst),
        }
    });
    match scheme.as_str() {
        "bls" => in_process::<BlsScheme>(cfg, duration, metrics_dir.as_deref(), ingress),
        _ => in_process::<SimScheme>(cfg, duration, metrics_dir.as_deref(), ingress),
    }
}
