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
//! sockets from a driver thread, flipping each replica's [`NodeFaults`]
//! switch and the shared [`LinkFaults`] filter, so the Fig. 4 resilience
//! sweeps compare one scenario on the simulator and on sockets. With
//! [`ClusterBuilder::wal`], a crash is a process death and a restart
//! rebuilds the replica from its write-ahead log. With
//! [`ClusterBuilder::ingress`], every replica's poller also serves a
//! client-facing listener feeding one shared fee-ordered mempool
//! (`iniva-ingress`), and the proposer drafts blocks from *that* instead
//! of the synthetic workload model; [`ClusterBuilder::launch`] returns a
//! non-blocking [`ClusterHandle`] so load generators can drive clients
//! while the cluster runs.
//!
//! A process of a multi-process cluster (`live_cluster --config --id`)
//! runs its replica through the same lifecycle: [`run_member`].
//!
//! The whole harness is generic over the vote scheme ([`WireScheme`]):
//! the same builder runs the calibrated [`SimScheme`] stand-in *or* real
//! BLS pairing crypto ([`iniva_crypto::bls::BlsScheme`]) end to end —
//! codec, framing, WAL and state transfer included — selected by one type
//! parameter (`.scheme::<BlsScheme>()`). `SimScheme` remains the default
//! type parameter so scheme-agnostic code keeps reading naturally.

use crate::config::ClusterConfig;
use crate::faults::{LinkFaults, NodeFaults};
use crate::runtime::{export_runtime_stats, CpuMode, Runtime, RuntimeStats};
use crate::transport::{
    export_transport_snapshot, Transport, TransportOptions, TransportSnapshot, TransportStats,
};
use iniva::protocol::{InivaConfig, InivaMsg, InivaReplica, SecondChance};
use iniva_consensus::audit::CommitAudit;
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
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

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

/// How often a member process ([`run_member`]) rewrites its dumps: unlike
/// a thread, a process can be killed before its end-of-run dump.
const MEMBER_DUMP_EVERY: Duration = Duration::from_secs(2);

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
    /// The one record every replica reported its commits to.
    audit: Arc<CommitAudit>,
}

impl<S: WireScheme> ClusterRun<S> {
    /// The greatest height every replica in `ids` has committed (the
    /// group's agreed prefix length), or an error naming the first
    /// divergence.
    ///
    /// Agreement is checked by the cluster's one [`CommitAudit`], which
    /// every replica reported each block to as it joined its committed
    /// prefix, in every incarnation: any two replicas that both committed
    /// a height must have the same block hash there — the safety property
    /// of the protocol, asserted over real sockets. Chaos tests pass the
    /// *surviving* replicas as `ids`; crashed nodes still must not have
    /// committed a conflicting block, so their commits are audited too,
    /// but their (stalled) heights don't drag the prefix down.
    pub fn agreed_prefix_height_of(&self, ids: &[usize]) -> Result<u64, String> {
        self.audit.check()?;
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

/// Every replica's crash switch plus the shared link filter, addressed by
/// committee id: what the fault driver flips as a [`FaultPlan`] replays.
struct ClusterFaults {
    nodes: Vec<Arc<NodeFaults>>,
    links: Arc<LinkFaults>,
}

impl ClusterFaults {
    /// Fault handles for an `n`-replica cluster, initially all healthy.
    fn new(n: usize) -> Self {
        ClusterFaults {
            nodes: (0..n).map(|_| Arc::new(NodeFaults::new())).collect(),
            links: Arc::new(LinkFaults::new()),
        }
    }

    /// Injects one [`FaultPlan`] event. A WAL replica's lifecycle thread
    /// reads a crash or restart off the same switch and turns it into a
    /// process death or a rebuild from disk ([`ReplicaNode::run`]).
    fn apply(&self, fault: &FaultEvent) {
        match fault {
            FaultEvent::Crash(node) => self.nodes[*node as usize].kill(),
            FaultEvent::Restart(node) => self.nodes[*node as usize].heal(),
            FaultEvent::Partition { a, b } => self.links.partition(a, b),
            FaultEvent::PartitionOneWay { from, to } => {
                for &x in from {
                    for &y in to {
                        self.links.block_one_way(x, y);
                    }
                }
            }
            FaultEvent::HealAllLinks => self.links.heal_all(),
            FaultEvent::SlowLink { from, to, extra } => {
                self.links
                    .slow_link(*from, *to, Duration::from_nanos(*extra))
            }
        }
    }

    /// Replays `plan` against wall time: each event fires `event.at`
    /// nanoseconds after `start`; events scheduled past `until` are
    /// skipped (mirroring `FaultPlan::run_on_sim`'s cutoff, so a plan
    /// outliving the run cannot stall the harness). Runs on the calling
    /// thread (the cluster harness dedicates a driver thread to it).
    fn drive(&self, plan: &FaultPlan, start: Instant, until: Duration) {
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
/// critical path in both backends, while the scaled-down cost model keeps
/// the 7 replica threads' CPU small next to that timer. The plan:
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
    cfg.second_chance = SecondChance::OnQuorum;
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
    /// scheduled wall-clock offsets. With [`Self::wal`], a
    /// [`FaultEvent::Crash`] tears the victim's whole runtime down and a
    /// [`FaultEvent::Restart`] rebuilds it from disk.
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
        let audit = Arc::new(CommitAudit::new());
        let nodes = self.run_replicas(ingress.as_ref(), client_listeners, &audit)?;
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
            audit,
        })
    }

    /// Binds the peer sockets, injects the plan's time-zero faults, builds
    /// each replica's first transport and runs the replica threads to the
    /// deadline.
    fn run_replicas(
        &self,
        ingress: Option<&IngressRun>,
        client_listeners: Vec<TcpListener>,
        audit: &Arc<CommitAudit>,
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
                node_faults: Arc::clone(&faults.nodes[id as usize]),
                link_faults: Arc::clone(&faults.links),
                stats: Arc::new(TransportStats::default()),
                duration: self.duration,
                cpu: self.cpu,
                wal_dir: self.wal.as_ref().map(|r| r.join(format!("replica-{id}"))),
                obs: self.obs.clone(),
                dump_every: None, // a thread outlives its end-of-run dump
                audit: Arc::clone(audit),
                ingress: ingress
                    .zip(self.ingress.as_ref())
                    .map(|(run, opts)| NodeIngress {
                        mempool: Arc::clone(&run.mempool),
                        opts: opts.clone(),
                        client_addr: run.client_addrs[id as usize],
                    }),
            };
            let client_listener = client_listeners.next();
            let first = if node.wal_dir.is_some() && node.node_faults.is_down() {
                // A process dead at time zero: both its listeners close
                // (dropped here), so peers' and clients' dials are refused
                // instead of queueing against a corpse's backlog.
                None
            } else {
                Some(node.start_transport(listener, client_listener)?)
            };
            replicas.push((node, first));
        }
        launch_cluster(replicas, &self.plan, faults, self.duration)
    }
}

/// Runs replica `id` of the cluster `config` describes in this process,
/// through the lifecycle of an in-process replica. With `wal_root` it
/// resumes from what an earlier process left in `wal_root/replica-<id>/`
/// (a `kill -9` and a rerun) and journals there. Its crash switch never
/// flips and its commit audit is its own: agreement across processes is
/// checked on their dumps (`view_timeline --check`), rewritten every 2 s.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] when `config.scheme` is not `S`'s or
/// `id` is not a peer; otherwise socket, WAL and dump-file failures.
pub fn run_member<S: WireScheme>(
    config: &ClusterConfig,
    id: NodeId,
    wal_root: Option<&Path>,
) -> io::Result<NodeRun<S>> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    if config.scheme != S::NAME {
        let (ran, named) = (S::NAME, &config.scheme);
        return Err(invalid(format!(
            "this process runs \"{ran}\", not scheme = \"{named}\""
        )));
    }
    let Some(addr) = config.addr_of(id) else {
        return Err(invalid(format!("replica {id} is not in the peer list")));
    };
    let mut cfg = InivaConfig::for_tests(config.n(), config.internal);
    cfg.request_rate = config.request_rate;
    cfg.max_batch = config.max_batch;
    cfg.payload_per_req = config.payload_per_req;
    if S::REAL_CRYPTO {
        cfg.tune_for_real_crypto();
    }
    let opts = config.ingress_options();
    let node = ReplicaNode {
        id,
        cfg,
        scheme: Arc::new(S::new_committee(config.n(), CLUSTER_SEED)),
        peers: config.peer_addrs().into(),
        options: TransportOptions::default(),
        node_faults: Arc::new(NodeFaults::starting_at(process_epoch())),
        link_faults: Arc::new(LinkFaults::new()),
        stats: Arc::new(TransportStats::default()),
        duration: Duration::from_secs(config.duration_secs),
        cpu: CpuMode::Real,
        wal_dir: wal_root.map(|root| root.join(format!("replica-{id}"))),
        obs: config.metrics_dir.as_ref().map(ObsOptions::new),
        dump_every: Some(MEMBER_DUMP_EVERY),
        audit: Arc::new(CommitAudit::new()),
        ingress: config.client_addr_of(id).map(|client_addr| NodeIngress {
            mempool: Arc::new(Mempool::new(&opts)),
            opts,
            client_addr,
        }),
    };
    let client = node
        .ingress
        .as_ref()
        .map(|ing| TcpListener::bind(ing.client_addr));
    let first = node.start_transport(TcpListener::bind(addr)?, client.transpose()?)?;
    // No other replica to wait for: the gate opens at this process's start.
    let gate = StartGate::new();
    gate.go(0);
    node.run(Some(first), &gate)
}

/// The incarnation epoch of a member process: the wall clock at its start,
/// in milliseconds, truncated to 32 bits. A member rerun after `kill -9`
/// starts a new epoch, so its peers' duplicate filters, which key each
/// frame by `(sender, epoch, sequence)`, take its restarted sequence
/// numbers as new frames rather than drop them as replays of its last
/// life's. Two starts of one member share an epoch only when they lie an
/// exact multiple of 2³² ms (about 49.7 days) apart.
fn process_epoch() -> u32 {
    let since = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    since.as_millis() as u32
}

/// A releasable start line: workers arrive and wait for a verdict — go,
/// carrying the shared time zero, or abort. Unlike a `Barrier`, the
/// harness can release everyone with "abort" when a later setup step (a
/// thread spawn, say) fails — the already-spawned workers exit instead of
/// deadlocking on a barrier that can never fill, which is what lets the
/// cluster setup paths return a usable `io::Error` to chaos tests under
/// CI. Workers wait by polling, so a replica keeps serving its sockets
/// until the release.
struct StartGate {
    state: Mutex<(usize, Option<Option<Instant>>)>,
    cv: Condvar,
}

/// How often a waiting worker looks again: at the [`StartGate`], or at
/// its crash switch while its process is down.
const WAIT_POLL: Duration = Duration::from_millis(1);

impl StartGate {
    fn new() -> Self {
        StartGate {
            state: Mutex::new((0, None)),
            cv: Condvar::new(),
        }
    }

    /// Worker side: report readiness, then run `idle` (at most
    /// [`WAIT_POLL`] long) until the verdict: the time zero to go at, or
    /// `None` to abort.
    fn arrive_and_wait(&self, mut idle: impl FnMut()) -> Option<Instant> {
        self.state.lock().expect("gate lock").0 += 1;
        self.cv.notify_all();
        loop {
            if let Some(verdict) = self.state.lock().expect("gate lock").1 {
                return verdict;
            }
            idle();
        }
    }

    /// Harness side: wait for `workers` arrivals, then release them all
    /// at once, at the shared time zero every plan offset is relative to.
    fn go(&self, workers: usize) {
        let mut st = self.state.lock().expect("gate lock");
        while st.0 < workers {
            st = self.cv.wait(st).expect("gate wait");
        }
        st.1 = Some(Some(Instant::now()));
    }

    /// Harness side: release every current and future arriver with
    /// "abort".
    fn abort(&self) {
        self.state.lock().expect("gate lock").1 = Some(None);
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
    faults: ClusterFaults,
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
        let plan = plan.deferred();
        let gate = Arc::clone(&gate);
        thread::Builder::new()
            .name("iniva-fault-driver".into())
            .spawn(move || {
                if let Some(time_zero) = gate.arrive_and_wait(|| thread::sleep(WAIT_POLL)) {
                    faults.drive(&plan, time_zero, duration);
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
    /// `Some` for a member process: its dumps are rewritten this often.
    dump_every: Option<Duration>,
    audit: Arc<CommitAudit>,
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
        let mut transport = Transport::start_with_stats(
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
    /// journaling to. A restarted `live_cluster --config --id --wal-dir`
    /// process is such an incarnation too ([`run_member`]).
    fn build_replica(&self, node_obs: Option<&(Registry, Tracer)>) -> io::Result<InivaReplica<S>> {
        let mut replica = InivaReplica::new(self.id, self.cfg.clone(), Arc::clone(&self.scheme));
        // Attached before the WAL replays, so a recovered prefix is
        // checked against what the other replicas committed too.
        replica
            .chain
            .set_commit_audit(Arc::clone(&self.audit), self.id);
        if let Some(dir) = &self.wal_dir {
            let (mut wal, recovered) = ChainWal::<S>::open(dir)?;
            if let Some((registry, tracer)) = node_obs {
                wal.set_observability(registry, tracer.clone());
            }
            replica.resume(recovered.commits, recovered.view);
            replica.chain.set_commit_sink(Box::new(wal));
        }
        if let Some((registry, tracer)) = node_obs {
            replica.set_observability(registry, tracer.clone());
        }
        // The shared mempool spans incarnations like the registry does: a
        // previous incarnation's drafts stay claimed until a commit settles
        // or releases them. Replay (`resume`, above) bypasses the source.
        if let Some(ing) = &self.ingress {
            replica
                .chain
                .set_request_source(Arc::clone(&ing.mempool) as Arc<dyn RequestSource>);
        }
        Ok(replica)
    }

    /// The replica's process lifecycle: run an incarnation until the
    /// deadline or a crash, tear it down, wait for the restart, rebuild
    /// sockets and replica from the WAL, repeat. `first` is the transport
    /// built before the gate (`None`: dead at time zero). Without a WAL
    /// nothing ever stops the first incarnation, so it is the only one: a
    /// crash leaves it inert and a restart resumes it from memory.
    fn run(self, mut first: Option<NodeTransport<S>>, gate: &StartGate) -> io::Result<NodeRun<S>> {
        // Waiting, the replica keeps accepting peers and serving clients.
        let released = gate.arrive_and_wait(|| match &mut first {
            Some(transport) => transport.poll(WAIT_POLL),
            None => thread::sleep(WAIT_POLL),
        });
        let Some(time_zero) = released else {
            return Err(io::Error::other("cluster setup aborted"));
        };
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
                    // A torn-down process waits for its restart.
                    while self.node_faults.is_down() && Instant::now() < deadline {
                        thread::sleep(WAIT_POLL);
                    }
                    if Instant::now() >= deadline {
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
            // A WAL incarnation ends when its switch goes down or when it
            // comes back under a newer epoch than this incarnation's: a
            // crash and restart between two checks still rebuild from disk.
            let epoch = self.node_faults.epoch();
            let replica = self.build_replica(node_obs.as_ref())?;
            // Every incarnation shares the cluster's time zero, so metrics
            // stay on one time axis across restarts.
            let mut runtime = Runtime::with_epoch(replica, transport, self.cpu, time_zero);
            if let Some((registry, _)) = &node_obs {
                runtime.set_observability(registry);
            }
            let stop =
                || restartable && (self.node_faults.is_down() || self.node_faults.epoch() != epoch);
            match (self.dump_every, &self.obs, &node_obs) {
                (Some(every), Some(o), Some((registry, tracer))) => {
                    while Instant::now() < deadline && !stop() {
                        runtime.run_deadline((Instant::now() + every).min(deadline), stop);
                        runtime.export_stats(registry);
                        runtime.actor_mut().chain.export(registry);
                        // Best effort: the end-of-run dump reports a failure.
                        let _ = dump_node_obs(o, self.id, registry, tracer);
                    }
                }
                _ => runtime.run_deadline(deadline, stop),
            }
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
            replica.chain.export(registry);
            // `crypto.*` is the keyring's: the cluster total on every node
            // of an in-process cluster, a member process's own otherwise.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_member_of_another_scheme_is_refused() {
        let cluster = ClusterConfig {
            scheme: "bls".into(),
            ..ClusterConfig::local(2, 9000)
        };
        let err = run_member::<SimScheme>(&cluster, 0, None)
            .err()
            .expect("refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("scheme = \"bls\""), "{err}");
    }

    #[test]
    fn a_member_outside_the_peer_list_is_refused() {
        let cluster = ClusterConfig::local(2, 9000);
        let err = run_member::<SimScheme>(&cluster, 2, None)
            .err()
            .expect("refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("not in the peer list"), "{err}");
    }

    /// A member started again takes a new incarnation epoch: the second
    /// start's first frames are not in the filter the first start's
    /// frames filled. Catches every start reusing one epoch.
    #[test]
    fn a_restarted_member_starts_a_new_epoch() {
        let first = NodeFaults::starting_at(process_epoch());
        thread::sleep(Duration::from_millis(3));
        let second = NodeFaults::starting_at(process_epoch());
        assert_ne!(first.epoch(), second.epoch());
        let mut filter = crate::dedup::DedupCache::new(64);
        for seq in 1..=8 {
            assert!(filter.insert(1, first.epoch(), seq));
        }
        assert!((1..=8).all(|seq| filter.insert(1, second.epoch(), seq)));
    }
}
