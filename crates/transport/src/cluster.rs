//! A loopback Iniva cluster: n replicas as threads, each with its own
//! [`Runtime`] and TCP [`Transport`] on `127.0.0.1` ephemeral ports.
//!
//! This is the "one machine, n processes-worth of sockets" configuration —
//! every message crosses a real TCP connection with real framing, exactly
//! as in a multi-host deployment, minus propagation delay. The integration
//! tests, the `live_cluster` example and the transport benchmark baseline
//! all run through this harness.
//!
//! [`ClusterBuilder`] is the single entry point: every capability is a
//! builder method, composing freely —
//!
//! ```no_run
//! # use iniva_transport::cluster::{ClusterBuilder, ObsOptions};
//! # use iniva::protocol::InivaConfig;
//! # use iniva_net::faults::FaultPlan;
//! # use std::time::Duration;
//! # fn main() -> std::io::Result<()> {
//! # let cfg = InivaConfig::for_tests(4, 1);
//! # let plan = FaultPlan::new();
//! let run = ClusterBuilder::new(&cfg, Duration::from_secs(2))
//!     .scheme::<iniva_crypto::bls::BlsScheme>() // default: SimScheme
//!     .faults(&plan)                            // chaos injection
//!     .wal("/tmp/wal")                          // durable, restartable
//!     .observe(ObsOptions::new("/tmp/obs"))     // metrics + traces
//!     .ingress(Default::default())              // client mempool tier
//!     .spawn()?;
//! # Ok(()) }
//! ```
//!
//! Chaos runs replay a seeded [`FaultPlan`] — the *same* plan type the
//! simulator replays via `FaultPlan::run_on_sim` — against the live
//! sockets from a driver thread ([`ClusterFaults`] aggregates every
//! replica's [`NodeFaults`] switch plus the shared [`LinkFaults`]
//! filter), so the Fig. 4 resilience sweeps compare one scenario across
//! both backends. With [`ClusterBuilder::ingress`], every replica also
//! runs a client-facing listener feeding one shared fee-ordered mempool
//! (`iniva-ingress`), and the proposer drafts blocks from *that* instead
//! of the synthetic workload model; [`ClusterBuilder::launch`] returns a
//! non-blocking [`ClusterHandle`] so load generators can drive clients
//! while the cluster runs.
//!
//! The whole harness is generic over the vote scheme
//! ([`WireScheme`](iniva_crypto::multisig::WireScheme)): the same builder
//! runs the calibrated [`SimScheme`] stand-in *or* real BLS pairing
//! crypto ([`iniva_crypto::bls::BlsScheme`]) end to end — codec,
//! framing, WAL and state transfer included — selected by one type
//! parameter (`.scheme::<BlsScheme>()`). `SimScheme` remains the default
//! type parameter so scheme-agnostic code keeps reading naturally.

use crate::faults::{LinkFaults, NodeFaults};
use crate::runtime::{export_runtime_stats, CpuMode, Runtime, RuntimeStats};
use crate::transport::{
    export_transport_snapshot, Transport, TransportBackend, TransportOptions, TransportSnapshot,
    TransportStats,
};
use iniva::protocol::{InivaConfig, InivaReplica};
use iniva_crypto::multisig::WireScheme;
use iniva_crypto::sim_scheme::SimScheme;
use iniva_ingress::{IngressOptions, IngressServer, Mempool, RequestSource};
use iniva_net::faults::{FaultEvent, FaultPlan};
use iniva_net::NodeId;
use iniva_obs::{Registry, Tracer};
use iniva_storage::ChainWal;
use std::io;
use std::marker::PhantomData;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The committee seed every replica of a local cluster derives its keyring
/// from (common knowledge, like the peer list).
pub const CLUSTER_SEED: &[u8] = b"live-cluster";

/// Observability options for a cluster run: where each node dumps its
/// metrics registry (`metrics-<id>.json`) and event trace
/// (`trace-<id>.jsonl`), and how many events the per-node ring keeps.
/// The dump directory is the input to the `view_timeline` analyzer.
#[derive(Clone, Debug)]
pub struct ObsOptions {
    /// Directory receiving per-node dumps (created if missing).
    pub metrics_dir: PathBuf,
    /// Ring capacity of each node's tracer; oldest events are shed (and
    /// counted as dropped) beyond it.
    pub trace_capacity: usize,
}

impl ObsOptions {
    /// Options dumping into `metrics_dir` with the default ring capacity
    /// (64 Ki events — hours of consensus at benchmark view rates).
    pub fn new(metrics_dir: impl Into<PathBuf>) -> Self {
        ObsOptions {
            metrics_dir: metrics_dir.into(),
            trace_capacity: 65_536,
        }
    }
}

/// Writes one node's registry + trace dumps into `obs.metrics_dir`.
fn dump_node_obs(
    obs: &ObsOptions,
    id: NodeId,
    registry: &Registry,
    tracer: &Tracer,
) -> io::Result<()> {
    std::fs::create_dir_all(&obs.metrics_dir)?;
    std::fs::write(
        obs.metrics_dir.join(format!("metrics-{id}.json")),
        registry.to_json(),
    )?;
    tracer.write_jsonl(&obs.metrics_dir.join(format!("trace-{id}.jsonl")))
}

/// Result of one replica's run.
pub struct NodeRun<S: WireScheme = SimScheme> {
    /// The replica, with its chain and metrics, after the run.
    pub replica: InivaReplica<S>,
    /// Event-loop counters.
    pub runtime: RuntimeStats,
    /// Socket counters.
    pub transport: TransportSnapshot,
}

/// Result of a whole cluster run.
pub struct ClusterRun<S: WireScheme = SimScheme> {
    /// Per-replica results, indexed by committee id.
    pub nodes: Vec<NodeRun<S>>,
    /// The wall-clock load duration.
    pub duration: Duration,
    /// The client ingress tier, when [`ClusterBuilder::ingress`] enabled
    /// one. The servers are already shut down; the mempool's counters
    /// and latency histogram hold the run's client-side totals.
    pub ingress: Option<IngressRun>,
}

impl<S: WireScheme> ClusterRun<S> {
    /// The greatest height every replica in `ids` has committed (the
    /// group's agreed prefix length), or an error naming the first
    /// divergence.
    ///
    /// Agreement is checked pairwise over the full committed logs: any two
    /// replicas that both committed a height must have the same block hash
    /// there — the safety property of the protocol, asserted over real
    /// sockets. Chaos tests pass the *surviving* replicas as `ids`;
    /// crashed nodes still must not have committed a conflicting block,
    /// so their logs are checked for consistency too, but their (stalled)
    /// heights don't drag the prefix down.
    pub fn agreed_prefix_height_of(&self, ids: &[usize]) -> Result<u64, String> {
        use std::collections::HashMap;
        let mut canonical: HashMap<u64, ([u8; 32], usize)> = HashMap::new();
        for (id, node) in self.nodes.iter().enumerate() {
            for &(height, hash) in node.replica.chain.committed_log() {
                match canonical.get(&height) {
                    None => {
                        canonical.insert(height, (hash, id));
                    }
                    Some(&(other, owner)) if other != hash => {
                        return Err(format!(
                            "replicas {owner} and {id} disagree at height {height}"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(ids
            .iter()
            .map(|&i| self.nodes[i].replica.chain.committed_height())
            .min()
            .unwrap_or(0))
    }

    /// [`Self::agreed_prefix_height_of`] over every replica.
    pub fn agreed_prefix_height(&self) -> Result<u64, String> {
        let all: Vec<usize> = (0..self.nodes.len()).collect();
        self.agreed_prefix_height_of(&all)
    }
}

/// Lifecycle phase of one replica "process" in a restart-capable cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The replica process is (or should be) running.
    Running,
    /// The replica process is dead; its runtime and sockets are torn down.
    Down,
    /// A restart from durable storage was requested; the lifecycle thread
    /// consumes this and rebuilds replica + transport from the WAL.
    RestartPending,
}

/// Process-lifecycle switch for one replica in a WAL-enabled cluster run:
/// the restart-capable harness's analogue of `kill -9` + "start the
/// binary again". Where [`NodeFaults`] silences a node *inside* a living
/// transport, this tells the replica's lifecycle thread to tear the whole
/// runtime down and, later, rebuild it from disk.
#[derive(Debug)]
pub struct NodeControl {
    phase: Mutex<Phase>,
    cv: Condvar,
}

impl Default for NodeControl {
    fn default() -> Self {
        NodeControl {
            phase: Mutex::new(Phase::Running),
            cv: Condvar::new(),
        }
    }
}

impl NodeControl {
    /// Marks the process dead: the lifecycle thread exits its runtime and
    /// drops the transport (sockets close, peers see dead connections).
    pub fn set_down(&self) {
        *self.phase.lock().expect("control lock") = Phase::Down;
        self.cv.notify_all();
    }

    /// Requests a restart from durable storage.
    pub fn request_restart(&self) {
        *self.phase.lock().expect("control lock") = Phase::RestartPending;
        self.cv.notify_all();
    }

    /// True while the process should not be running (the runtime's stop
    /// hook: also true when a restart is pending, since a restart begins
    /// by tearing the current incarnation down).
    pub fn stop_requested(&self) -> bool {
        *self.phase.lock().expect("control lock") != Phase::Running
    }

    /// True while the process is down with no restart pending.
    fn is_down(&self) -> bool {
        *self.phase.lock().expect("control lock") == Phase::Down
    }

    /// Blocks until the process should run (consuming a pending restart)
    /// or `deadline` passes while down; returns `false` in the latter
    /// case.
    fn wait_runnable(&self, deadline: Instant) -> bool {
        let mut phase = self.phase.lock().expect("control lock");
        loop {
            match *phase {
                Phase::Running => return true,
                Phase::RestartPending => {
                    *phase = Phase::Running;
                    return true;
                }
                Phase::Down => {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        return false;
                    };
                    let (guard, _) = self.cv.wait_timeout(phase, left).expect("control wait");
                    phase = guard;
                }
            }
        }
    }
}

/// Kill/heal/partition surface for one in-process cluster: every node's
/// crash switch plus the shared link filter, addressed by committee id.
/// WAL-enabled runs additionally consult each node's [`NodeControl`] for
/// process-level kill/restart-from-disk.
#[derive(Clone)]
pub struct ClusterFaults {
    nodes: Vec<Arc<NodeFaults>>,
    links: Arc<LinkFaults>,
    controls: Vec<Arc<NodeControl>>,
}

impl ClusterFaults {
    /// Fault handles for an `n`-replica cluster, initially all healthy.
    pub fn new(n: usize) -> Self {
        ClusterFaults {
            nodes: (0..n).map(|_| Arc::new(NodeFaults::new())).collect(),
            links: Arc::new(LinkFaults::new()),
            controls: (0..n).map(|_| Arc::new(NodeControl::default())).collect(),
        }
    }

    /// The process-lifecycle switch of replica `id` (observed only by the
    /// restart-capable WAL harness).
    pub fn control(&self, id: NodeId) -> Arc<NodeControl> {
        Arc::clone(&self.controls[id as usize])
    }

    /// The crash switch of replica `id` (shared with its transport).
    pub fn node(&self, id: NodeId) -> Arc<NodeFaults> {
        Arc::clone(&self.nodes[id as usize])
    }

    /// The cluster-wide link filter.
    pub fn links(&self) -> Arc<LinkFaults> {
        Arc::clone(&self.links)
    }

    /// Crashes replica `id`.
    pub fn kill(&self, id: NodeId) {
        self.nodes[id as usize].kill();
    }

    /// Heals replica `id` under a fresh incarnation epoch.
    pub fn heal(&self, id: NodeId) {
        self.nodes[id as usize].heal();
    }

    /// Symmetrically partitions group `a` from group `b`.
    pub fn partition(&self, a: &[NodeId], b: &[NodeId]) {
        self.links.partition(a, b);
    }

    /// Heals every cut link and removes every injected delay.
    pub fn heal_all_links(&self) {
        self.links.heal_all();
    }

    /// Injects `delay` before every frame shipped on `from → to`.
    pub fn slow_link(&self, from: NodeId, to: NodeId, delay: Duration) {
        self.links.slow_link(from, to, delay);
    }

    /// Injects one [`FaultPlan`] event.
    pub fn apply(&self, fault: &FaultEvent) {
        match fault {
            FaultEvent::Crash(node) => {
                // Transport-level silence takes effect immediately; the
                // process-level control is observed only by WAL-enabled
                // lifecycle threads, which then tear the runtime down.
                self.kill(*node);
                self.controls[*node as usize].set_down();
            }
            FaultEvent::Restart(node) => self.heal(*node),
            FaultEvent::RestartFromDisk(node) => {
                self.heal(*node);
                self.controls[*node as usize].request_restart();
            }
            FaultEvent::Partition { a, b } => self.partition(a, b),
            FaultEvent::PartitionOneWay { from, to } => {
                for &x in from {
                    for &y in to {
                        self.links.block_one_way(x, y);
                    }
                }
            }
            FaultEvent::HealAllLinks => self.heal_all_links(),
            FaultEvent::SlowLink { from, to, extra } => {
                self.slow_link(*from, *to, Duration::from_nanos(*extra));
            }
        }
    }

    /// Replays `plan` against wall time: each event fires `event.at`
    /// nanoseconds after `start`; events scheduled past `until` are
    /// skipped (mirroring `FaultPlan::run_on_sim`'s cutoff, so a plan
    /// outliving the run cannot stall the harness). Runs on the calling
    /// thread (the cluster harness dedicates a driver thread to it).
    pub fn drive(&self, plan: &FaultPlan, start: Instant, until: Duration) {
        for ev in plan.events() {
            if Duration::from_nanos(ev.at) > until {
                break;
            }
            let at = start + Duration::from_nanos(ev.at);
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            self.apply(&ev.fault);
        }
    }
}

/// The canonical crash → partition → heal scenario shared by the chaos
/// acceptance test (`crates/transport/tests/chaos.rs`) and the
/// `live_cluster --chaos` demo, so the demo always shows exactly the
/// scenario the test pins.
///
/// 7 replicas whose commit cadence is dominated by the (identical)
/// protocol timers rather than CPU or propagation time — one node stays
/// crashed from t=0, keeping the 2ND-CHANCE timer δ on every view's
/// critical path, deterministic in both backends, while the scaled-down
/// cost model keeps 7 spinning replica threads within one core. The plan:
/// crash the seeded victim at 0, cut the survivors 3|4 (both sides below
/// quorum(7) = 5 with the victim down, so commits stall completely) at
/// 2 s, heal the links at 3.5 s.
///
/// Returns `(config, plan, victim, survivors)`.
pub fn chaos_demo_scenario(seed: u64) -> (InivaConfig, FaultPlan, NodeId, Vec<NodeId>) {
    use iniva_net::{MILLIS, SECS};
    let mut cfg = InivaConfig::for_tests(7, 2);
    cfg.request_rate = 2_000;
    cfg.cost = cfg.cost.scaled(0.05);
    cfg.sc_on_quorum = true;
    cfg.second_chance_timer = Some(50 * MILLIS);

    let members = FaultPlan::shuffled_members(cfg.n, seed);
    let (victim, o) = (members[0], members[1..].to_vec());
    let plan = FaultPlan::new()
        .crash(0, victim)
        .partition(2 * SECS, &[o[0], o[1], o[2]], &[o[3], o[4], o[5], victim])
        .heal_links(3_500 * MILLIS);
    (cfg, plan, victim, o)
}

/// A running client ingress tier: one client-facing listener per replica,
/// all feeding one shared [`Mempool`]. Cloneable (the mempool is shared),
/// handed out by [`ClusterHandle::ingress`] while the cluster runs and
/// attached to [`ClusterRun`] afterwards.
#[derive(Clone)]
pub struct IngressRun {
    /// Client-facing listen addresses, indexed by replica id.
    pub client_addrs: Vec<SocketAddr>,
    /// The shared mempool: admission stats, depth, and the
    /// submit-to-commit latency histogram.
    pub mempool: Arc<Mempool>,
}

/// The live ingress servers plus the handles [`IngressRun`] publishes;
/// servers are private so only the harness can shut them down.
struct IngressTier {
    run: IngressRun,
    servers: Vec<IngressServer>,
    attach: Arc<IngressAttach>,
}

/// What the run implementations need to wire the ingress tier into each
/// replica: the shared mempool (the proposer's request source) and, on
/// the reactor backend, the client listeners each node attaches to its
/// own poller via [`Transport::serve_clients`].
struct IngressAttach {
    mempool: Arc<Mempool>,
    opts: IngressOptions,
    /// Per-replica client listeners awaiting reactor attachment; all
    /// `None` on the threaded backend (the [`IngressServer`]s own them).
    pending: Vec<Mutex<Option<TcpListener>>>,
    /// Per-replica client addresses, for rebinding after a WAL restart
    /// tears the previous incarnation's poller (and its listener) down.
    client_addrs: Vec<SocketAddr>,
}

fn start_ingress_tier(
    n: usize,
    opts: &IngressOptions,
    backend: TransportBackend,
) -> io::Result<IngressTier> {
    let loopback = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0);
    let mempool = Arc::new(Mempool::new(opts));
    let mut client_addrs = Vec::with_capacity(n);
    let mut servers = Vec::new();
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = TcpListener::bind(loopback)?;
        client_addrs.push(listener.local_addr()?);
        match backend {
            // Threaded: dedicated accept/connection threads per replica.
            TransportBackend::Threaded => {
                servers.push(IngressServer::start(listener, Arc::clone(&mempool), opts)?);
                pending.push(Mutex::new(None));
            }
            // Reactor: no threads here — each listener is parked until
            // its replica's transport exists, then served off the same
            // poller as the peer sockets.
            TransportBackend::Reactor => pending.push(Mutex::new(Some(listener))),
        }
    }
    Ok(IngressTier {
        run: IngressRun {
            client_addrs: client_addrs.clone(),
            mempool: Arc::clone(&mempool),
        },
        servers,
        attach: Arc::new(IngressAttach {
            mempool,
            opts: opts.clone(),
            pending,
            client_addrs,
        }),
    })
}

/// A cluster launched without blocking: the replicas run on background
/// threads while the caller keeps the handle — the way load generators
/// drive clients against the ingress tier *during* the run. [`Self::join`]
/// blocks until the run's deadline and returns the [`ClusterRun`].
pub struct ClusterHandle<S: WireScheme = SimScheme> {
    thread: thread::JoinHandle<io::Result<ClusterRun<S>>>,
    ingress: Option<IngressRun>,
}

impl<S: WireScheme> ClusterHandle<S> {
    /// The ingress tier, when the builder enabled one: live while the
    /// cluster runs, so clients can connect to `client_addrs` now.
    pub fn ingress(&self) -> Option<&IngressRun> {
        self.ingress.as_ref()
    }

    /// Waits for the run to end and returns its result.
    ///
    /// # Errors
    /// Propagates the run's own error, or reports a panicked harness
    /// thread.
    pub fn join(self) -> io::Result<ClusterRun<S>> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("cluster harness thread panicked"))?
    }
}

/// Builds and runs a local loopback Iniva cluster: `cfg.n` replica
/// threads, each with its own [`Runtime`] and TCP [`Transport`], plus a
/// fault-plan driver thread. Every capability is opt-in through one
/// builder method; see the [module docs](self) for the composition
/// overview.
///
/// [`Self::spawn`] runs the cluster to completion on the calling thread;
/// [`Self::launch`] returns immediately with a [`ClusterHandle`] (needed
/// to drive ingress clients while the cluster runs).
#[must_use = "a ClusterBuilder does nothing until spawn() or launch()"]
pub struct ClusterBuilder<S: WireScheme = SimScheme> {
    cfg: InivaConfig,
    duration: Duration,
    cpu: CpuMode,
    plan: FaultPlan,
    wal: Option<PathBuf>,
    options: TransportOptions,
    obs: Option<ObsOptions>,
    ingress: Option<IngressOptions>,
    _scheme: PhantomData<S>,
}

impl ClusterBuilder<SimScheme> {
    /// A builder for a `cfg.n`-replica cluster running for `duration`,
    /// with the calibrated [`SimScheme`], real CPU accounting, no
    /// faults, no WAL, no observability and no ingress tier.
    pub fn new(cfg: &InivaConfig, duration: Duration) -> ClusterBuilder<SimScheme> {
        ClusterBuilder {
            cfg: cfg.clone(),
            duration,
            cpu: CpuMode::Real,
            plan: FaultPlan::new(),
            wal: None,
            options: TransportOptions::default(),
            obs: None,
            ingress: None,
            _scheme: PhantomData,
        }
    }
}

impl<S: WireScheme> ClusterBuilder<S> {
    /// Selects the vote scheme (e.g.
    /// `.scheme::<iniva_crypto::bls::BlsScheme>()` for real pairing
    /// crypto). The default is [`SimScheme`].
    pub fn scheme<S2: WireScheme>(self) -> ClusterBuilder<S2> {
        ClusterBuilder {
            cfg: self.cfg,
            duration: self.duration,
            cpu: self.cpu,
            plan: self.plan,
            wal: self.wal,
            options: self.options,
            obs: self.obs,
            ingress: self.ingress,
            _scheme: PhantomData,
        }
    }

    /// Overrides the CPU cost accounting mode (default:
    /// [`CpuMode::Real`]).
    pub fn cpu(mut self, cpu: CpuMode) -> Self {
        self.cpu = cpu;
        self
    }

    /// Replays `plan` against the live sockets from a driver thread:
    /// crash, heal, partition and slow-link events fire at their
    /// scheduled wall-clock offsets. With [`Self::wal`], process-level
    /// faults ([`FaultEvent::Crash`], [`FaultEvent::RestartFromDisk`])
    /// tear down and rebuild whole replica runtimes.
    pub fn faults(mut self, plan: &FaultPlan) -> Self {
        self.plan = plan.clone();
        self
    }

    /// Makes chain state durable: each replica journals commits and
    /// views to a write-ahead log under `wal_root/replica-<id>/`
    /// (`iniva-storage`), crashes tear the whole runtime down, and
    /// restarts recover from disk then catch up via state transfer.
    /// Pre-existing replica logs are recovered, so a harness can also
    /// *resume* a cluster.
    pub fn wal(mut self, wal_root: impl Into<PathBuf>) -> Self {
        self.wal = Some(wal_root.into());
        self
    }

    /// Tunes every replica's transport — chaos tests pass a small
    /// [`TransportOptions::lane_capacity`] so peers shed (rather than
    /// replay) most of the history a dead replica missed, forcing the
    /// restarted replica through state transfer instead of lane-backlog
    /// replay.
    pub fn transport(mut self, options: TransportOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs every replica with a live tracer and metrics registry,
    /// dumping `metrics-<id>.json` + `trace-<id>.jsonl` (and, with
    /// ingress, `ingress.json` + `ingress-trace.jsonl`) into
    /// `obs.metrics_dir` when the run ends — ready for the
    /// `view_timeline` analyzer. Combined with [`Self::wal`], one
    /// registry and tracer per node span every incarnation, so restarts
    /// lose nothing.
    pub fn observe(mut self, obs: ObsOptions) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Adds a client ingress tier: one client-facing TCP listener per
    /// replica, all feeding one shared bounded fee-ordered [`Mempool`]
    /// with per-client token-bucket rate limiting. The proposer then
    /// drafts blocks from the mempool instead of the synthetic workload
    /// model, and submit-to-commit latency is measured per request.
    pub fn ingress(mut self, opts: IngressOptions) -> Self {
        self.ingress = Some(opts);
        self
    }

    /// Runs the cluster to completion and collects every replica's final
    /// state.
    ///
    /// # Errors
    /// Propagates socket, thread, WAL-I/O and dump-file setup failures.
    pub fn spawn(self) -> io::Result<ClusterRun<S>> {
        let tier = match &self.ingress {
            Some(opts) => Some(start_ingress_tier(self.cfg.n, opts, self.options.backend)?),
            None => None,
        };
        self.run_with(tier)
    }

    /// Starts the cluster on a background thread and returns a handle
    /// immediately, so the caller can drive ingress clients (or other
    /// out-of-band work) while the run is live.
    ///
    /// # Errors
    /// Propagates ingress listener binding and thread spawn failures;
    /// failures *inside* the run surface from [`ClusterHandle::join`].
    pub fn launch(self) -> io::Result<ClusterHandle<S>> {
        let tier = match &self.ingress {
            Some(opts) => Some(start_ingress_tier(self.cfg.n, opts, self.options.backend)?),
            None => None,
        };
        let ingress = tier.as_ref().map(|t| t.run.clone());
        let thread = thread::Builder::new()
            .name("iniva-cluster-harness".into())
            .spawn(move || self.run_with(tier))?;
        Ok(ClusterHandle { thread, ingress })
    }

    fn run_with(self, tier: Option<IngressTier>) -> io::Result<ClusterRun<S>> {
        let attach = tier.as_ref().map(|t| Arc::clone(&t.attach));
        // The ingress tier shares the consensus tier's observability
        // epoch closely enough: its tracer is anchored here, just before
        // the replicas' shared time zero, and carries the pseudo-node id
        // `n` (one past the committee).
        let ingress_tracer = match (&self.obs, &attach) {
            (Some(obs), Some(att)) => {
                let tracer = Tracer::live(self.cfg.n as u32, obs.trace_capacity, Instant::now());
                att.mempool.set_tracer(tracer.clone());
                Some(tracer)
            }
            _ => None,
        };
        let result = match &self.wal {
            None => run_plan_impl::<S>(
                &self.cfg,
                self.duration,
                self.cpu,
                &self.plan,
                self.options,
                self.obs.as_ref(),
                attach.clone(),
            ),
            Some(wal_root) => run_wal_impl::<S>(
                &self.cfg,
                self.duration,
                self.cpu,
                &self.plan,
                wal_root,
                self.options,
                self.obs.as_ref(),
                attach.clone(),
            ),
        };
        let Some(tier) = tier else {
            return result;
        };
        // Stop serving clients before reporting results, so the final
        // admission counters are quiescent.
        for server in tier.servers {
            server.shutdown();
        }
        let mut run = result?;
        if let Some(obs) = &self.obs {
            std::fs::create_dir_all(&obs.metrics_dir)?;
            std::fs::write(
                obs.metrics_dir.join("ingress.json"),
                tier.run.mempool.registry().to_json(),
            )?;
            if let Some(tracer) = &ingress_tracer {
                // Named so the `trace-<id>.jsonl` glob the view-timeline
                // analyzer consumes doesn't pick up the ingress
                // pseudo-node as a replica.
                tracer.write_jsonl(&obs.metrics_dir.join("ingress-trace.jsonl"))?;
            }
        }
        run.ingress = Some(tier.run);
        Ok(run)
    }
}

/// A releasable start line: workers arrive and wait for a go/abort
/// verdict. Unlike a `Barrier`, the harness can release everyone with
/// "abort" when a later setup step (a thread spawn, say) fails — the
/// already-spawned workers exit instead of deadlocking on a barrier that
/// can never fill, which is what lets the cluster setup paths return a
/// usable `io::Error` to chaos tests under CI.
struct StartGate {
    state: Mutex<(usize, Option<bool>)>,
    cv: Condvar,
}

impl StartGate {
    fn new() -> Self {
        StartGate {
            state: Mutex::new((0, None)),
            cv: Condvar::new(),
        }
    }

    /// Worker side: report readiness, wait for the verdict. `true` = go.
    fn arrive_and_wait(&self) -> bool {
        let mut st = self.state.lock().expect("gate lock");
        st.0 += 1;
        self.cv.notify_all();
        loop {
            if let Some(go) = st.1 {
                return go;
            }
            st = self.cv.wait(st).expect("gate wait");
        }
    }

    /// Harness side: wait for `workers` arrivals, then release them all
    /// at once (the shared time zero every plan offset is relative to).
    fn go(&self, workers: usize) {
        let mut st = self.state.lock().expect("gate lock");
        while st.0 < workers {
            st = self.cv.wait(st).expect("gate wait");
        }
        st.1 = Some(true);
        self.cv.notify_all();
    }

    /// Harness side: release every current and future arriver with
    /// "abort".
    fn abort(&self) {
        self.state.lock().expect("gate lock").1 = Some(false);
        self.cv.notify_all();
    }
}

/// Joins `handles`, surfacing panics as errors; used on both the success
/// and the abort path.
fn join_runs<S: WireScheme>(
    handles: Vec<thread::JoinHandle<io::Result<NodeRun<S>>>>,
) -> io::Result<Vec<NodeRun<S>>> {
    let mut nodes = Vec::with_capacity(handles.len());
    for handle in handles {
        nodes.push(
            handle
                .join()
                .map_err(|_| io::Error::other("replica thread panicked"))??,
        );
    }
    Ok(nodes)
}

/// Spawns replica lifecycle threads and the fault driver behind one
/// [`StartGate`]; on any spawn failure the gate aborts, every thread
/// spawned so far exits, and the error propagates.
fn launch_cluster<S: WireScheme, F>(
    n: usize,
    plan: &FaultPlan,
    faults: &ClusterFaults,
    duration: Duration,
    spawn_replica: F,
) -> io::Result<Vec<NodeRun<S>>>
where
    F: Fn(usize, Arc<StartGate>) -> io::Result<thread::JoinHandle<io::Result<NodeRun<S>>>>,
{
    let gate = Arc::new(StartGate::new());
    let mut handles = Vec::with_capacity(n);
    for id in 0..n {
        match spawn_replica(id, Arc::clone(&gate)) {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                gate.abort();
                let _ = join_runs(handles);
                return Err(e);
            }
        }
    }
    let driver = {
        let faults = faults.clone();
        let plan = plan.deferred();
        let gate = Arc::clone(&gate);
        thread::Builder::new()
            .name("iniva-fault-driver".into())
            .spawn(move || {
                if gate.arrive_and_wait() {
                    faults.drive(&plan, Instant::now(), duration);
                }
            })
    };
    let driver = match driver {
        Ok(d) => d,
        Err(e) => {
            gate.abort();
            let _ = join_runs(handles);
            return Err(e);
        }
    };
    // Replicas + driver all ready: release the shared time zero.
    gate.go(n + 1);
    let nodes = join_runs(handles);
    let _ = driver.join();
    nodes
}

#[allow(clippy::too_many_arguments)]
fn run_plan_impl<S: WireScheme>(
    cfg: &InivaConfig,
    duration: Duration,
    cpu: CpuMode,
    plan: &FaultPlan,
    options: TransportOptions,
    obs: Option<&ObsOptions>,
    ingress: Option<Arc<IngressAttach>>,
) -> io::Result<ClusterRun<S>> {
    let n = cfg.n;
    let loopback = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0);
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(loopback))
        .collect::<io::Result<_>>()?;
    let peers: Vec<(u32, SocketAddr)> = listeners
        .iter()
        .enumerate()
        .map(|(id, l)| Ok((id as u32, l.local_addr()?)))
        .collect::<io::Result<_>>()?;

    let scheme = Arc::new(S::new_committee(n, CLUSTER_SEED));
    let faults = ClusterFaults::new(n);
    // Time-zero events are injected exactly once, before any replica
    // thread starts, so a node crashed at 0 never runs `on_start` — the
    // exact semantics of `FaultPlan::run_on_sim` on the simulator. The
    // driver gets only the deferred remainder: a re-applied `Restart`
    // would bump the incarnation epoch a second time and spuriously drop
    // frames queued under the first one.
    for ev in plan.events().iter().filter(|ev| ev.at == 0) {
        faults.apply(&ev.fault);
    }
    // Every transport is constructed *here*, before any replica thread:
    // a socket setup failure (fd exhaustion on a large sweep, say)
    // propagates as the documented io::Error with nothing to unwind.
    let mut transports = Vec::with_capacity(n);
    for (id, listener) in listeners.into_iter().enumerate() {
        transports.push(Transport::start_with(
            id as u32,
            listener,
            &peers,
            options,
            faults.node(id as u32),
            faults.links(),
        )?);
    }
    // Reactor-backed ingress: each replica's client listener joins its
    // transport's poller; peer and client sockets share one thread.
    if let Some(att) = &ingress {
        for (id, transport) in transports.iter().enumerate() {
            let pending = att.pending[id]
                .lock()
                .expect("client listener handoff")
                .take();
            if let Some(listener) = pending {
                transport.serve_clients(listener, Arc::clone(&att.mempool), &att.opts)?;
            }
        }
    }
    let mempool = ingress.as_ref().map(|att| Arc::clone(&att.mempool));

    let slots: Vec<Mutex<Option<Transport<_>>>> = transports
        .into_iter()
        .map(|t| Mutex::new(Some(t)))
        .collect();
    let nodes = launch_cluster(n, plan, &faults, duration, |id, gate| {
        let transport = slots[id]
            .lock()
            .expect("transport handoff")
            .take()
            .expect("one transport per replica id");
        let cfg = cfg.clone();
        let scheme = Arc::clone(&scheme);
        let obs = obs.cloned();
        let mempool = mempool.clone();
        thread::Builder::new()
            .name(format!("iniva-replica-{id}"))
            .spawn(move || -> io::Result<NodeRun<S>> {
                crate::transport::pin_node_thread(id as u32);
                let mut replica = InivaReplica::new(id as u32, cfg, Arc::clone(&scheme));
                if let Some(pool) = &mempool {
                    replica
                        .chain
                        .set_request_source(Arc::clone(pool) as Arc<dyn RequestSource>);
                }
                if !gate.arrive_and_wait() {
                    return Err(io::Error::other("cluster setup aborted"));
                }
                // The gate released every replica together, so these
                // per-thread epochs are within microseconds of each
                // other; the tracer's wall-clock anchor absorbs the
                // residue at merge time.
                let epoch = Instant::now();
                let node_obs = obs.as_ref().map(|o| {
                    let registry = Registry::new();
                    let tracer = Tracer::live(id as u32, o.trace_capacity, epoch);
                    replica.set_observability(&registry, tracer.clone());
                    (registry, tracer)
                });
                let mut runtime = Runtime::with_epoch(replica, transport, cpu, epoch);
                if let Some((registry, _)) = &node_obs {
                    runtime.set_observability(registry);
                }
                runtime.run_for(duration);
                let (mut replica, runtime, transport) = runtime.finish();
                if let (Some(o), Some((registry, tracer))) = (&obs, &node_obs) {
                    export_runtime_stats(&runtime, registry);
                    export_transport_snapshot(&transport, registry);
                    replica.chain.metrics.export(registry);
                    // One keyring is shared by the whole in-process
                    // cluster, so `crypto.*` reads as the cluster total
                    // on every node.
                    scheme.export_observability(registry);
                    dump_node_obs(o, id as u32, registry, tracer)?;
                }
                Ok(NodeRun {
                    replica,
                    runtime,
                    transport,
                })
            })
    })?;
    Ok(ClusterRun {
        nodes,
        duration,
        ingress: None,
    })
}

/// Folds one incarnation's event-loop counters into a per-node total.
fn fold_runtime(total: &mut RuntimeStats, inc: RuntimeStats) {
    total.cpu_charged += inc.cpu_charged;
    total.busy += inc.busy;
    total.msgs_delivered += inc.msgs_delivered;
    total.timers_fired += inc.timers_fired;
}

/// Rebinds a restarting replica's listen address, retrying briefly: the
/// previous incarnation's listener is closed by the time `finish()`
/// returns, but the OS may need a beat to release the port.
fn bind_retry(addr: SocketAddr, deadline: Instant) -> io::Result<TcpListener> {
    loop {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_wal_impl<S: WireScheme>(
    cfg: &InivaConfig,
    duration: Duration,
    cpu: CpuMode,
    plan: &FaultPlan,
    wal_root: &Path,
    options: TransportOptions,
    obs: Option<&ObsOptions>,
    ingress: Option<Arc<IngressAttach>>,
) -> io::Result<ClusterRun<S>> {
    let n = cfg.n;
    std::fs::create_dir_all(wal_root)?;
    let loopback = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0);
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(loopback))
        .collect::<io::Result<_>>()?;
    let peers: Vec<(u32, SocketAddr)> = listeners
        .iter()
        .enumerate()
        .map(|(id, l)| Ok((id as u32, l.local_addr()?)))
        .collect::<io::Result<_>>()?;

    let scheme = Arc::new(S::new_committee(n, CLUSTER_SEED));
    let faults = ClusterFaults::new(n);
    for ev in plan.events().iter().filter(|ev| ev.at == 0) {
        faults.apply(&ev.fault);
    }

    let slots: Vec<Mutex<Option<TcpListener>>> =
        listeners.into_iter().map(|l| Mutex::new(Some(l))).collect();
    let nodes = launch_cluster(n, plan, &faults, duration, |id, gate| {
        let listener = slots[id]
            .lock()
            .expect("listener handoff")
            .take()
            .expect("one listener per replica id");
        let cfg = cfg.clone();
        let scheme = Arc::clone(&scheme);
        let peers = peers.clone();
        let addr = peers[id].1;
        let node_faults = faults.node(id as u32);
        let link_faults = faults.links();
        let control = faults.control(id as u32);
        let wal_dir: PathBuf = wal_root.join(format!("replica-{id}"));
        let obs = obs.cloned();
        let ingress = ingress.clone();
        thread::Builder::new()
            .name(format!("iniva-replica-{id}"))
            .spawn(move || -> io::Result<NodeRun<S>> {
                crate::transport::pin_node_thread(id as u32);
                replica_lifecycle(
                    id as u32,
                    cfg,
                    scheme,
                    &peers,
                    listener,
                    addr,
                    options,
                    node_faults,
                    link_faults,
                    control,
                    gate,
                    duration,
                    cpu,
                    &wal_dir,
                    obs,
                    ingress,
                )
            })
    })?;
    Ok(ClusterRun {
        nodes,
        duration,
        ingress: None,
    })
}

/// One replica's process lifecycle in a WAL-enabled run: (re)build the
/// transport and the WAL-recovered replica, run until the deadline or a
/// process-level fault, tear down, repeat. Each incarnation opens the
/// log, rehydrates the committed prefix and resumes at the recovered
/// view — the same code path an actual restarted `live_cluster --config
/// --id --wal-dir` process takes.
#[allow(clippy::too_many_arguments)]
fn replica_lifecycle<S: WireScheme>(
    id: NodeId,
    cfg: InivaConfig,
    scheme: Arc<S>,
    peers: &[(u32, SocketAddr)],
    listener: TcpListener,
    addr: SocketAddr,
    options: TransportOptions,
    node_faults: Arc<NodeFaults>,
    link_faults: Arc<LinkFaults>,
    control: Arc<NodeControl>,
    gate: Arc<StartGate>,
    duration: Duration,
    cpu: CpuMode,
    wal_dir: &Path,
    obs: Option<ObsOptions>,
    ingress: Option<Arc<IngressAttach>>,
) -> io::Result<NodeRun<S>> {
    let mut pending_listener = Some(listener);
    if !gate.arrive_and_wait() {
        return Err(io::Error::other("cluster setup aborted"));
    }
    let time_zero = Instant::now();
    let deadline = time_zero + duration;
    let mut runtime_total = RuntimeStats::default();
    let mut last_incarnation: Option<InivaReplica<S>> = None;
    // One stats block and (when observing) one registry + tracer span
    // every incarnation of this node: restarts keep counting into the
    // same series instead of starting fresh blocks whose predecessors'
    // tails (lane evictions counted while a lane died, say) got lost
    // with the torn-down transport.
    let shared_stats = Arc::new(TransportStats::default());
    let node_obs = obs.as_ref().map(|o| {
        (
            Registry::new(),
            Tracer::live(id, o.trace_capacity, time_zero),
        )
    });
    loop {
        if control.is_down() {
            // The process is dead: close the listening socket too, so
            // peers' dials are refused instead of queueing against a
            // corpse's backlog.
            pending_listener = None;
        }
        if !control.wait_runnable(deadline) {
            break; // still down when the run ended
        }
        if Instant::now() >= deadline {
            break;
        }
        let listener = match pending_listener.take() {
            Some(l) => l,
            None => bind_retry(addr, deadline)?,
        };
        let transport = Transport::start_with_stats(
            id,
            listener,
            peers,
            options,
            Arc::clone(&node_faults),
            Arc::clone(&link_faults),
            Arc::clone(&shared_stats),
        )?;
        // Reactor-backed ingress: re-attach this node's client listener
        // to the fresh incarnation's poller. The first incarnation takes
        // the tier's parked listener; restarts rebind the same address
        // (the dead poller closed it on teardown).
        if let Some(att) = &ingress {
            if options.backend == TransportBackend::Reactor {
                let pending = att.pending[id as usize]
                    .lock()
                    .expect("client listener handoff")
                    .take();
                let client_listener = match pending {
                    Some(l) => l,
                    None => bind_retry(att.client_addrs[id as usize], deadline)?,
                };
                transport.serve_clients(client_listener, Arc::clone(&att.mempool), &att.opts)?;
            }
        }
        let (mut wal, recovered) = ChainWal::<S>::open(wal_dir)?;
        let mut replica = InivaReplica::recover(
            id,
            cfg.clone(),
            Arc::clone(&scheme),
            recovered.commits,
            recovered.view,
        );
        if let Some((registry, tracer)) = &node_obs {
            wal.set_observability(registry, tracer.clone());
            replica.set_observability(registry, tracer.clone());
        }
        replica.chain.set_commit_sink(Box::new(wal));
        // The shared mempool spans incarnations like the registry does:
        // requests drafted by a previous incarnation stay claimed, and
        // recovery's committed prefix settles them on replay.
        if let Some(att) = &ingress {
            replica
                .chain
                .set_request_source(Arc::clone(&att.mempool) as Arc<dyn RequestSource>);
        }
        // Every incarnation shares the cluster's time zero, so metrics
        // stay on one time axis across restarts.
        let mut runtime = Runtime::with_epoch(replica, transport, cpu, time_zero);
        if let Some((registry, _)) = &node_obs {
            runtime.set_observability(registry);
        }
        runtime.run_deadline(deadline, || control.stop_requested());
        let (replica, stats, _snapshot) = runtime.finish();
        fold_runtime(&mut runtime_total, stats);
        last_incarnation = Some(replica);
    }
    // The shared block is cumulative across incarnations, so the final
    // snapshot *is* the node total — no per-incarnation folding (which
    // would now double-count).
    let transport_total = shared_stats.snapshot();
    let mut replica = match last_incarnation {
        Some(r) => r,
        None => {
            // Crashed at time zero and never restarted: report whatever
            // the disk holds (an empty log for a fresh run).
            let (_, recovered) = ChainWal::<S>::open(wal_dir)?;
            InivaReplica::recover(id, cfg, scheme.clone(), recovered.commits, recovered.view)
        }
    };
    if let (Some(o), Some((registry, tracer))) = (&obs, &node_obs) {
        export_runtime_stats(&runtime_total, registry);
        export_transport_snapshot(&transport_total, registry);
        replica.chain.metrics.export(registry);
        scheme.export_observability(registry);
        dump_node_obs(o, id, registry, tracer)?;
    }
    Ok(NodeRun {
        replica,
        runtime: runtime_total,
        transport: transport_total,
    })
}
