//! A loopback Iniva cluster: n replicas as threads, each with its own
//! [`Runtime`] and TCP [`Transport`] on `127.0.0.1` ephemeral ports.
//!
//! This is the "one machine, n processes-worth of sockets" configuration —
//! every message crosses a real TCP connection with real framing, exactly
//! as in a multi-host deployment, minus propagation delay. The integration
//! tests, the `live_cluster` example and the yardstick benchmark all run
//! through this harness.
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
//! filter), so the Fig. 4 resilience sweeps compare one scenario on the
//! simulator and on sockets. With [`ClusterBuilder::ingress`], every
//! replica's poller also serves a client-facing listener feeding one
//! shared fee-ordered mempool (`iniva-ingress`), and the proposer drafts
//! blocks from *that* instead of the synthetic workload model;
//! [`ClusterBuilder::launch`] returns a non-blocking [`ClusterHandle`] so
//! load generators can drive clients
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
    export_transport_snapshot, Transport, TransportOptions, TransportSnapshot, TransportStats,
};
use iniva::protocol::{InivaConfig, InivaMsg, InivaReplica};
use iniva_crypto::multisig::WireScheme;
use iniva_crypto::sim_scheme::SimScheme;
use iniva_ingress::{IngressOptions, Mempool, RequestSource};
use iniva_net::faults::{FaultEvent, FaultPlan};
use iniva_net::NodeId;
use iniva_obs::{Registry, Tracer};
use iniva_storage::ChainWal;
use std::io;
use std::marker::PhantomData;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener};
use std::path::PathBuf;
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
    /// one. The listeners are already closed; the mempool's counters
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

    /// The process-lifecycle switch of replica `id` (observed only in
    /// WAL-enabled runs).
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

/// The ingress tier between [`ClusterBuilder::launch`] binding it (so the
/// caller learns the client addresses at once) and the run attaching each
/// listener to its replica's poller.
struct IngressTier {
    run: IngressRun,
    /// Bound, not yet accepting; indexed by replica id.
    listeners: Vec<TcpListener>,
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
        let tier = self.bind_ingress_tier()?;
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
        let tier = self.bind_ingress_tier()?;
        let ingress = tier.as_ref().map(|t| t.run.clone());
        let thread = thread::Builder::new()
            .name("iniva-cluster-harness".into())
            .spawn(move || self.run_with(tier))?;
        Ok(ClusterHandle { thread, ingress })
    }

    fn bind_ingress_tier(&self) -> io::Result<Option<IngressTier>> {
        let Some(opts) = &self.ingress else {
            return Ok(None);
        };
        let (listeners, client_addrs) = bind_loopback(self.cfg.n)?;
        Ok(Some(IngressTier {
            run: IngressRun {
                client_addrs,
                mempool: Arc::new(Mempool::new(opts)),
            },
            listeners,
        }))
    }

    fn run_with(self, tier: Option<IngressTier>) -> io::Result<ClusterRun<S>> {
        let (ingress, client_listeners) = match tier {
            Some(t) => (Some(t.run), t.listeners),
            None => (None, Vec::new()),
        };
        // The ingress tier shares the consensus tier's observability
        // epoch closely enough: its tracer is anchored here, just before
        // the replicas' shared time zero, and carries the pseudo-node id
        // `n` (one past the committee).
        let ingress_tracer = match (&self.obs, &ingress) {
            (Some(obs), Some(run)) => {
                let tracer = Tracer::live(self.cfg.n as u32, obs.trace_capacity, Instant::now());
                run.mempool.set_tracer(tracer.clone());
                Some(tracer)
            }
            _ => None,
        };
        // Every poller — and with it every client session — is gone when
        // this returns, so the admission counters read below are final.
        let nodes = self.run_replicas(ingress.as_ref(), client_listeners)?;
        if let (Some(obs), Some(run)) = (&self.obs, &ingress) {
            std::fs::create_dir_all(&obs.metrics_dir)?;
            std::fs::write(
                obs.metrics_dir.join("ingress.json"),
                run.mempool.registry().to_json(),
            )?;
            if let Some(tracer) = &ingress_tracer {
                // Named so the `trace-<id>.jsonl` glob the view-timeline
                // analyzer consumes doesn't pick up the ingress
                // pseudo-node as a replica.
                tracer.write_jsonl(&obs.metrics_dir.join("ingress-trace.jsonl"))?;
            }
        }
        Ok(ClusterRun {
            nodes,
            duration: self.duration,
            ingress,
        })
    }

    /// Binds the peer sockets, injects the plan's time-zero faults, builds
    /// each replica's first transport and runs the replica threads to the
    /// deadline.
    fn run_replicas(
        &self,
        ingress: Option<&IngressRun>,
        client_listeners: Vec<TcpListener>,
    ) -> io::Result<Vec<NodeRun<S>>> {
        let n = self.cfg.n;
        if let Some(wal_root) = &self.wal {
            std::fs::create_dir_all(wal_root)?;
        }
        let (listeners, addrs) = bind_loopback(n)?;
        let peers: Arc<[(NodeId, SocketAddr)]> = (0..).zip(addrs).collect();

        let scheme = Arc::new(S::new_committee(n, CLUSTER_SEED));
        let faults = ClusterFaults::new(n);
        // Time-zero events are injected exactly once, before any replica
        // thread starts, so a node crashed at 0 never runs `on_start` — the
        // exact semantics of `FaultPlan::run_on_sim` on the simulator. The
        // driver gets only the deferred remainder: a re-applied `Restart`
        // would bump the incarnation epoch a second time and spuriously drop
        // frames queued under the first one.
        for ev in self.plan.events().iter().filter(|ev| ev.at == 0) {
            faults.apply(&ev.fault);
        }
        // Every first-incarnation transport — peer listener, lanes and
        // client listener on one poller — is constructed *here*, before
        // any replica thread: a socket setup failure (fd exhaustion on a
        // large sweep, say) propagates as the documented io::Error with
        // nothing to unwind, and when the gate releases no lane's first
        // dial finds a peer that is not listening yet.
        let mut client_listeners = client_listeners.into_iter();
        let mut replicas = Vec::with_capacity(n);
        for (id, listener) in listeners.into_iter().enumerate() {
            let id = id as NodeId;
            let node = ReplicaNode {
                id,
                cfg: self.cfg.clone(),
                scheme: Arc::clone(&scheme),
                peers: Arc::clone(&peers),
                options: self.options,
                node_faults: faults.node(id),
                link_faults: faults.links(),
                control: faults.control(id),
                stats: Arc::new(TransportStats::default()),
                duration: self.duration,
                cpu: self.cpu,
                wal_dir: self.wal.as_ref().map(|r| r.join(format!("replica-{id}"))),
                obs: self.obs.clone(),
                ingress: ingress
                    .zip(self.ingress.as_ref())
                    .map(|(run, opts)| NodeIngress {
                        mempool: Arc::clone(&run.mempool),
                        opts: opts.clone(),
                        client_addr: run.client_addrs[id as usize],
                    }),
            };
            let client_listener = client_listeners.next();
            let first = if node.wal_dir.is_some() && node.control.is_down() {
                // A process dead at time zero: both its listeners close
                // (dropped here), so peers' and clients' dials are refused
                // instead of queueing against a corpse's backlog.
                None
            } else {
                Some(node.start_transport(listener, client_listener)?)
            };
            replicas.push((node, first));
        }
        launch_cluster(replicas, &self.plan, &faults, self.duration)
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
fn launch_cluster<S: WireScheme>(
    replicas: Vec<(ReplicaNode<S>, Option<NodeTransport<S>>)>,
    plan: &FaultPlan,
    faults: &ClusterFaults,
    duration: Duration,
) -> io::Result<Vec<NodeRun<S>>> {
    let n = replicas.len();
    let gate = Arc::new(StartGate::new());
    let mut handles = Vec::with_capacity(n);
    for (node, first) in replicas {
        let start = Arc::clone(&gate);
        let spawned = thread::Builder::new()
            .name(format!("iniva-replica-{}", node.id))
            .spawn(move || node.run(first, &start));
        match spawned {
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

/// Binds `n` listeners on ephemeral loopback ports and reads back their
/// addresses, both indexed by replica id.
fn bind_loopback(n: usize) -> io::Result<(Vec<TcpListener>, Vec<SocketAddr>)> {
    let loopback = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0);
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(loopback))
        .collect::<io::Result<_>>()?;
    let addrs = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<io::Result<_>>()?;
    Ok((listeners, addrs))
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

type NodeTransport<S> = Transport<InivaMsg<S>>;

/// One replica's share of the ingress tier.
struct NodeIngress {
    /// The cluster-wide mempool: the proposer's request source.
    mempool: Arc<Mempool>,
    opts: IngressOptions,
    /// Where this replica's clients connect; rebound on every restart.
    client_addr: SocketAddr,
}

/// Everything one replica "process" keeps across its incarnations.
struct ReplicaNode<S: WireScheme> {
    id: NodeId,
    cfg: InivaConfig,
    scheme: Arc<S>,
    peers: Arc<[(NodeId, SocketAddr)]>,
    options: TransportOptions,
    node_faults: Arc<NodeFaults>,
    link_faults: Arc<LinkFaults>,
    control: Arc<NodeControl>,
    /// One stats block spans every incarnation: restarts keep counting
    /// into the same series instead of starting fresh blocks whose
    /// predecessors' tails (lane evictions counted while a lane died,
    /// say) got lost with the torn-down transport.
    stats: Arc<TransportStats>,
    duration: Duration,
    cpu: CpuMode,
    /// `Some` makes the replica durable and restartable.
    wal_dir: Option<PathBuf>,
    obs: Option<ObsOptions>,
    ingress: Option<NodeIngress>,
}

impl<S: WireScheme> ReplicaNode<S> {
    /// One incarnation's sockets: the peer fabric on `listener` and, with
    /// an ingress tier, this replica's clients on the same poller.
    fn start_transport(
        &self,
        listener: TcpListener,
        client_listener: Option<TcpListener>,
    ) -> io::Result<NodeTransport<S>> {
        let transport = Transport::start_with_stats(
            self.id,
            listener,
            &self.peers,
            self.options,
            Arc::clone(&self.node_faults),
            Arc::clone(&self.link_faults),
            Arc::clone(&self.stats),
        )?;
        if let (Some(ing), Some(listener)) = (&self.ingress, client_listener) {
            transport.serve_clients(listener, Arc::clone(&ing.mempool), &ing.opts)?;
        }
        Ok(transport)
    }

    /// One incarnation's replica: fresh without a WAL; with one, the
    /// committed prefix and view rehydrated from the log it goes on
    /// journaling to — the same code path an actual restarted
    /// `live_cluster --config --id --wal-dir` process takes.
    fn build_replica(&self, node_obs: Option<&(Registry, Tracer)>) -> io::Result<InivaReplica<S>> {
        let mut replica = match &self.wal_dir {
            None => InivaReplica::new(self.id, self.cfg.clone(), Arc::clone(&self.scheme)),
            Some(dir) => {
                let (mut wal, recovered) = ChainWal::<S>::open(dir)?;
                if let Some((registry, tracer)) = node_obs {
                    wal.set_observability(registry, tracer.clone());
                }
                let mut replica = InivaReplica::recover(
                    self.id,
                    self.cfg.clone(),
                    Arc::clone(&self.scheme),
                    recovered.commits,
                    recovered.view,
                );
                replica.chain.set_commit_sink(Box::new(wal));
                replica
            }
        };
        if let Some((registry, tracer)) = node_obs {
            replica.set_observability(registry, tracer.clone());
        }
        // The shared mempool spans incarnations like the registry does:
        // requests drafted by a previous incarnation stay claimed, and
        // recovery's committed prefix settles them on replay.
        if let Some(ing) = &self.ingress {
            replica
                .chain
                .set_request_source(Arc::clone(&ing.mempool) as Arc<dyn RequestSource>);
        }
        Ok(replica)
    }

    /// The replica's process lifecycle: run an incarnation until the
    /// deadline or a process-level fault, tear it down, wait for a
    /// restart, rebuild sockets and replica, repeat. `first` is the
    /// transport built before the gate (`None`: dead at time zero).
    /// Without a WAL nothing ever stops the first incarnation, so it is
    /// the only one.
    fn run(self, first: Option<NodeTransport<S>>, gate: &StartGate) -> io::Result<NodeRun<S>> {
        crate::transport::pin_node_thread(self.id);
        if !gate.arrive_and_wait() {
            return Err(io::Error::other("cluster setup aborted"));
        }
        // The gate released every replica together, so these per-thread
        // epochs are within microseconds of each other; the tracer's
        // wall-clock anchor absorbs the residue at merge time.
        let time_zero = Instant::now();
        let deadline = time_zero + self.duration;
        // When observing, one registry + tracer span every incarnation.
        let node_obs = self.obs.as_ref().map(|o| {
            (
                Registry::new(),
                Tracer::live(self.id, o.trace_capacity, time_zero),
            )
        });
        let restartable = self.wal_dir.is_some();
        let mut runtime_total = RuntimeStats::default();
        let mut last_incarnation = None;
        let mut next = first;
        loop {
            let transport = match next.take() {
                Some(transport) => transport,
                None => {
                    if !self.control.wait_runnable(deadline) || Instant::now() >= deadline {
                        break; // the run ended (possibly while still down)
                    }
                    // The dead incarnation's poller closed both listeners
                    // on teardown; rebind the same addresses.
                    let peer_addr = self.peers[self.id as usize].1;
                    let listener = bind_retry(peer_addr, deadline)?;
                    let client_listener = match &self.ingress {
                        Some(ing) => Some(bind_retry(ing.client_addr, deadline)?),
                        None => None,
                    };
                    self.start_transport(listener, client_listener)?
                }
            };
            let replica = self.build_replica(node_obs.as_ref())?;
            // Every incarnation shares the cluster's time zero, so metrics
            // stay on one time axis across restarts.
            let mut runtime = Runtime::with_epoch(replica, transport, self.cpu, time_zero);
            if let Some((registry, _)) = &node_obs {
                runtime.set_observability(registry);
            }
            runtime.run_deadline(deadline, || restartable && self.control.stop_requested());
            let (replica, stats, _snapshot) = runtime.finish();
            fold_runtime(&mut runtime_total, stats);
            last_incarnation = Some(replica);
        }
        // The shared block is cumulative across incarnations, so the final
        // snapshot *is* the node total — no per-incarnation folding (which
        // would double-count).
        let transport_total = self.stats.snapshot();
        let mut replica = match last_incarnation {
            Some(r) => r,
            // Crashed at time zero and never restarted: report whatever
            // the disk holds (an empty log for a fresh run).
            None => self.build_replica(None)?,
        };
        if let (Some(o), Some((registry, tracer))) = (&self.obs, &node_obs) {
            export_runtime_stats(&runtime_total, registry);
            export_transport_snapshot(&transport_total, registry);
            replica.chain.metrics.export(registry);
            // One keyring is shared by the whole in-process cluster, so
            // `crypto.*` reads as the cluster total on every node.
            self.scheme.export_observability(registry);
            dump_node_obs(o, self.id, registry, tracer)?;
        }
        Ok(NodeRun {
            replica,
            runtime: runtime_total,
            transport: transport_total,
        })
    }
}
