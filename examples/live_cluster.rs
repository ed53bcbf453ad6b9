//! Runs an Iniva cluster over **real TCP sockets** — the same replica
//! state machines the simulator drives, now on a live wire — and prints
//! throughput/latency with the exact metric definitions of the simulated
//! perf harness (`iniva_consensus::PerfSummary`), side by side with a
//! simulator run of the identical configuration.
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
//! replica, like the Fast IC Consensus repo's per-terminal quickstart):
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
//! transfer, and resumes voting:
//!
//! ```sh
//! cargo run --release --example live_cluster -- --config /tmp/cluster.toml --id 2 --wal-dir /tmp/iniva-wal
//! # ... kill -9 that process, then run the identical command again
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
//! cargo run --release -p iniva-bench --bin view_timeline -- /tmp/iniva-obs
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

use iniva::protocol::{InivaConfig, InivaReplica};
use iniva_consensus::PerfSummary;
use iniva_crypto::bls::BlsScheme;
use iniva_crypto::multisig::WireScheme;
use iniva_crypto::sim_scheme::SimScheme;
use iniva_ingress::{IngressOptions, Mempool, RequestSource};
use iniva_net::{NetConfig, Simulation, SECS};
use iniva_obs::{Registry, Tracer};
use iniva_storage::ChainWal;
use iniva_transport::cluster::{chaos_demo_scenario, ClusterBuilder, ObsOptions, CLUSTER_SEED};
use iniva_transport::{ClusterConfig, CpuMode, Runtime, Transport};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn iniva_config(n: usize, internal: u32, rate: u64, batch: u32, payload: u32) -> InivaConfig {
    let mut cfg = InivaConfig::for_tests(n, internal);
    cfg.request_rate = rate;
    cfg.max_batch = batch;
    cfg.payload_per_req = payload;
    cfg
}

/// The simulator run of the identical configuration, for the
/// "simulated" comparison row.
fn simulated_point(cfg: &InivaConfig, duration_secs: u64) -> PerfSummary {
    let scheme = Arc::new(SimScheme::new(cfg.n, b"live-cluster"));
    let replicas = (0..cfg.n as u32)
        .map(|id| InivaReplica::new(id, cfg.clone(), Arc::clone(&scheme)))
        .collect();
    let mut sim = Simulation::new(NetConfig::default(), replicas);
    sim.run_until(duration_secs * SECS);
    let metrics = sim.actor(0).chain.metrics.clone();
    iniva_sim::perf::harvest(&sim, &metrics, duration_secs)
}

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
    // launch() rather than spawn(): with --ingress the client addresses
    // must be printed while the cluster is live, so clients can connect.
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
             cargo run --release -p iniva-bench --bin view_timeline -- {dir}"
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
        let sim = simulated_point(&cfg, duration_secs);
        println!("{}", sim.table_row("simulated"));
    }
    println!("{}", live.table_row(&format!("live-tcp[{}]", S::NAME)));
    println!();
    println!("agreed committed prefix : {agreed} blocks (all {n} replicas)");
    let sent: u64 = run.nodes.iter().map(|nd| nd.transport.msgs_sent).sum();
    let bytes: u64 = run.nodes.iter().map(|nd| nd.transport.bytes_sent).sum();
    let dups: u64 = run.nodes.iter().map(|nd| nd.transport.dups_dropped).sum();
    println!("frames shipped          : {sent} ({bytes} body bytes, {dups} duplicates dropped)");
}

/// Writes one process's registry + trace dumps into `dir` (best-effort:
/// a dump failure mid-run is reported, not fatal — the consensus process
/// should outlive a full disk).
fn dump_process_obs(dir: &str, id: u32, registry: &Registry, tracer: &Tracer) {
    let metrics = std::path::Path::new(dir).join(format!("metrics-{id}.json"));
    let trace = std::path::Path::new(dir).join(format!("trace-{id}.jsonl"));
    if let Err(e) = std::fs::write(&metrics, registry.to_json()) {
        eprintln!("metrics dump failed ({}): {e}", metrics.display());
    }
    if let Err(e) = tracer.write_jsonl(&trace) {
        eprintln!("trace dump failed ({}): {e}", trace.display());
    }
}

fn one_process<S: WireScheme>(
    cluster: &ClusterConfig,
    id: u32,
    wal_dir: Option<&str>,
    metrics_dir: Option<&str>,
) {
    // The scheme is cluster-wide common knowledge (see ClusterConfig):
    // a process decoding frames under the wrong scheme would drop every
    // connection and stall silently, so mismatches die by name here.
    assert_eq!(
        cluster.scheme,
        S::NAME,
        "config says scheme = \"{}\" but this process runs \"{}\"",
        cluster.scheme,
        S::NAME
    );
    let mut cfg = iniva_config(
        cluster.n(),
        cluster.internal,
        cluster.request_rate,
        cluster.max_batch,
        cluster.payload_per_req,
    );
    if S::REAL_CRYPTO {
        cfg.tune_for_real_crypto();
    }
    let addr = cluster.addr_of(id).expect("id is in the peer list");
    let duration = Duration::from_secs(cluster.duration_secs);
    println!(
        "replica {id} of {} [{}]: listening on {addr}, running {} s",
        cluster.n(),
        S::NAME,
        cluster.duration_secs
    );
    let transport = Transport::bind(id, addr, &cluster.peer_addrs()).expect("bind listener");
    let scheme = Arc::new(S::new_committee(cluster.n(), CLUSTER_SEED));
    let scheme_handle = Arc::clone(&scheme);
    // Observability: one registry + tracer for the process, both on the
    // runtime's epoch, dumped periodically so a kill -9'd replica still
    // leaves an (almost-current) trace for `view_timeline`.
    let epoch = Instant::now();
    let node_obs = metrics_dir.map(|dir| {
        std::fs::create_dir_all(dir).expect("create metrics dir");
        (Registry::new(), Tracer::live(id, 65_536, epoch), dir)
    });
    // With a WAL directory this process is durable: it rehydrates the
    // committed prefix a previous incarnation logged (state transfer
    // closes the rest of the gap once a peer message reveals it) and
    // journals every commit and view entry from here on — the kill -9
    // + restart demo from the module docs.
    // Client ingress, when the shared config enables it: this process
    // listens for clients on `client_listen`'s port + id, on the same
    // poller as its peer sockets, and drafts its blocks from the mempool
    // instead of the synthetic workload model.
    let ingress = cluster.client_addr_of(id).map(|client_addr| {
        let opts = cluster.ingress_options();
        let mempool = Arc::new(Mempool::new(&opts));
        let listener =
            std::net::TcpListener::bind(client_addr).expect("bind client ingress listener");
        transport
            .serve_clients(listener, Arc::clone(&mempool), &opts)
            .expect("start ingress");
        println!("client ingress: listening on {client_addr}");
        mempool
    });
    let mut replica = match wal_dir {
        None => InivaReplica::new(id, cfg, scheme),
        Some(dir) => {
            let dir = std::path::Path::new(dir).join(format!("replica-{id}"));
            let (mut wal, recovered) = ChainWal::<S>::open(&dir).expect("open write-ahead log");
            println!(
                "WAL {}: recovered {} committed blocks, view {}",
                dir.display(),
                recovered.commits.len(),
                recovered.view
            );
            if let Some((registry, tracer, _)) = &node_obs {
                wal.set_observability(registry, tracer.clone());
            }
            let mut replica =
                InivaReplica::recover(id, cfg, scheme, recovered.commits, recovered.view);
            replica.chain.set_commit_sink(Box::new(wal));
            replica
        }
    };
    if let Some(mempool) = &ingress {
        replica
            .chain
            .set_request_source(Arc::clone(mempool) as Arc<dyn RequestSource>);
    }
    let mut runtime = Runtime::with_epoch(replica, transport, CpuMode::Real, epoch);
    match &node_obs {
        None => runtime.run_for(duration),
        Some((registry, tracer, dir)) => {
            runtime
                .actor_mut()
                .set_observability(registry, tracer.clone());
            runtime.set_observability(registry);
            // Run in slices, flushing the dumps every couple of seconds.
            let deadline = Instant::now() + duration;
            while Instant::now() < deadline {
                let slice = (deadline - Instant::now()).min(Duration::from_secs(2));
                runtime.run_deadline(Instant::now() + slice, || false);
                runtime.export_stats(registry);
                runtime.actor_mut().chain.metrics.export(registry);
                dump_process_obs(dir, id, registry, tracer);
            }
        }
    }
    let (mut replica, stats, transport) = runtime.finish();
    if let Some(mempool) = ingress {
        let s = mempool.stats();
        println!(
            "client ingress: {} offered, {} admitted, {} duplicates, {} shed, {} committed",
            s.offered,
            s.admitted,
            s.duplicates,
            s.shed_busy + s.shed_full,
            s.committed,
        );
    }
    if let Some((registry, tracer, dir)) = &node_obs {
        replica.chain.metrics.export(registry);
        scheme_handle.export_observability(registry);
        dump_process_obs(dir, id, registry, tracer);
        println!("observability dumps in {dir}/ (metrics-{id}.json, trace-{id}.jsonl)");
    }

    let point = PerfSummary::from_metrics(
        &replica.chain.metrics,
        cluster.duration_secs as f64,
        &[stats.busy],
    );
    println!("{}", PerfSummary::table_header());
    println!("{}", point.table_row(&format!("live-tcp[{id}]")));
    println!(
        "committed height {} | frames sent {} | received {} | reconnects {}",
        replica.chain.committed_height(),
        transport.msgs_sent,
        transport.msgs_received,
        transport.reconnects,
    );
    let m = &replica.chain.metrics;
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
    let run = builder.spawn().expect("cluster starts");
    let survivors: Vec<usize> = o.iter().map(|&id| id as usize).collect();
    let agreed = match run.agreed_prefix_height_of(&survivors) {
        Ok(h) => h,
        Err(e) => panic!("SAFETY VIOLATION: {e}"),
    };

    let scheme = Arc::new(SimScheme::new(n, b"live-cluster"));
    let replicas = (0..n as u32)
        .map(|id| InivaReplica::new(id, cfg.clone(), Arc::clone(&scheme)))
        .collect();
    let mut sim = Simulation::new(NetConfig::default(), replicas);
    plan.run_on_sim(&mut sim, duration_secs * SECS);

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
             cargo run --release -p iniva-bench --bin view_timeline -- {dir}"
        );
    }
}

fn write_config(path: &str, n: usize, scheme: &str, client_listen: Option<&str>) {
    // BLS runs commit a few blocks per second of real pairing work; a
    // sub-saturation rate keeps the out-of-the-box demo readable.
    let rate = if scheme == "bls" { 200 } else { 10_000 };
    let mut text = format!(
        "# Iniva live cluster — one `--id` process per [[peers]] entry\n[cluster]\nscheme = \"{scheme}\"\ninternal = 2\nbatch = 100\npayload = 64\nrate = {rate}\nduration_secs = 10\n",
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
        let cluster: ClusterConfig = ClusterConfig::parse(&text).unwrap_or_else(|e| panic!("{e}"));
        // The config's scheme is authoritative (shared by every process);
        // an explicit --scheme must agree with it, and its absence means
        // "whatever the cluster runs".
        if let Some(requested) = flag("--scheme") {
            assert_eq!(
                requested, cluster.scheme,
                "--scheme {requested} conflicts with scheme = \"{}\" in {path}",
                cluster.scheme
            );
        }
        // The ingress knobs are cluster-wide common knowledge like the
        // scheme (every process must agree on the mempool geometry and
        // client port layout), so explicit flags follow the same rule:
        // they must match the shared config or fail by name.
        if let Some(listen) = flag("--client-listen") {
            assert_eq!(
                Some(&listen),
                cluster.client_listen.as_ref(),
                "--client-listen {listen} conflicts with client_listen = {:?} in {path}",
                cluster.client_listen
            );
        }
        for (name, key, configured) in [
            ("--mempool", "mempool", cluster.mempool),
            ("--client-rate", "client_rate", cluster.client_rate),
            ("--client-burst", "client_burst", cluster.client_burst),
        ] {
            if let Some(v) = flag(name) {
                let v: u64 = v
                    .parse()
                    .unwrap_or_else(|_| panic!("{name} wants a number"));
                assert_eq!(
                    v, configured,
                    "{name} {v} conflicts with {key} = {configured} in {path}"
                );
            }
        }
        // A process dumps observability when the shared config says so
        // (so one key covers the whole cluster) or when this process got
        // an explicit --metrics-dir (which wins).
        let obs_dir = metrics_dir.or_else(|| cluster.metrics_dir.clone());
        match cluster.scheme.as_str() {
            "bls" => one_process::<BlsScheme>(&cluster, id, wal.as_deref(), obs_dir.as_deref()),
            _ => one_process::<SimScheme>(&cluster, id, wal.as_deref(), obs_dir.as_deref()),
        }
        return;
    }
    // BLS defaults: a smaller committee and a sub-saturation offered rate
    // (real pairing caps the commit cadence at a few blocks per second),
    // and a longer run so several commits land.
    let bls = scheme == "bls";
    let n = parse("--n", if bls { 4 } else { 7 }) as usize;
    let default_internal = ((n as f64 - 1.0).sqrt().round() as u64).max(1);
    let cfg = iniva_config(
        n,
        parse("--internal", default_internal) as u32,
        // Below the batch-100 saturation point (~6.7k committed/s for sim),
        // so the out-of-the-box run shows service latency, not queueing
        // backlog; push --rate up to study saturation.
        parse("--rate", if bls { 200 } else { 5_000 }),
        parse("--batch", 100) as u32,
        parse("--payload", 64) as u32,
    );
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
