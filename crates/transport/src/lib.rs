//! # iniva-transport
//!
//! A real-socket transport runtime for the Iniva protocol stack: the same
//! [`Actor`](iniva_net::Actor) state machines that run under the
//! deterministic discrete-event simulator (`iniva-net`) execute here over
//! actual `std::net` TCP connections — `InivaReplica`, `StarReplica` and
//! friends run **unmodified** in both backends.
//!
//! The paper's evaluation ran 25 machines behind a 10 Gbps switch; the
//! simulator substitutes virtual time for that cluster, and this crate
//! substitutes the cluster back: real sockets, real clocks, real CPU time.
//!
//! * [`frame`] — length-prefixed framing over a TCP stream, carrying
//!   [`Codec`](iniva_net::wire::Codec)-encoded protocol messages plus a
//!   per-sender sequence number and an identifying handshake.
//! * [`dedup`] — a bounded seen-message cache dropping duplicate
//!   `(sender, epoch, sequence)` deliveries, which only hand-made or
//!   hostile frames produce.
//! * [`reactor`] — a dependency-free epoll event loop (raw
//!   `epoll_create1`/`epoll_ctl`/`epoll_pwait2`/`eventfd` syscalls):
//!   sources register fds with read/write interest and get readiness
//!   callbacks, notifications and deadlines from [`reactor::Reactor::poll`];
//!   it has no thread of its own, and owns the state its sources share,
//!   lending it to one callback at a time.
//! * `fabric` — the sources, one module per socket role: the peer
//!   listener and inbound connections (`peer`), a reconnecting bounded
//!   outbound lane per peer (`lane`), the ingress-client listener and
//!   sessions (`client`), and the node state they share (zero-copy frame
//!   decode, coalesced `writev` flushes).
//! * [`transport`] — the peer fabric's face: every peer *and*
//!   ingress-client socket of a node on the one reactor the transport
//!   owns; decoded frames wait in the node's inbox, sends push onto the
//!   lane's queue and mark it for the next poll.
//! * [`runtime`] — the event loop implementing the simulator's `Context`
//!   contract, and the only loop of a node: one thread per node runs it,
//!   polling the transport between handler turns. Queued sends go to the
//!   transport, timers to a monotonic-clock timer wheel, and a CPU charge
//!   defers the turn's effects by that much real time while the node's
//!   sockets keep moving.
//! * [`faults`] — the chaos surface: per-node crash/heal switches with
//!   incarnation epochs ([`NodeFaults`]) and a cluster-shared link filter
//!   for partitions and slow links ([`LinkFaults`]), filtered on the send
//!   path, in the lanes and on the inbound connections.
//! * [`config`] — a TOML-style cluster/peer-list file format for
//!   multi-process deployments; [`cluster::run_member`] runs one member.
//! * [`cluster`] — the harness running an n-replica Iniva cluster on
//!   loopback threads behind one entry point,
//!   [`ClusterBuilder`](cluster::ClusterBuilder), used by the integration
//!   tests, the `live_cluster` example and the yardstick benchmark.
//!   `.faults(plan)` replays an `iniva_net::faults::FaultPlan` against
//!   the live cluster's [`NodeFaults`] and [`LinkFaults`], so the same
//!   seeded chaos scenario runs on the simulator and on sockets;
//!   `.wal(dir)` makes each replica a process with a disk — `Crash`
//!   tears its entire runtime and sockets down, and `Restart` rebuilds it
//!   from its `iniva-storage` write-ahead log, after which it catches up
//!   via state transfer; `.ingress(opts)` bolts on the `iniva-ingress`
//!   client tier feeding the proposer from a real fee-ordered mempool.

#![warn(missing_docs)]
// The raw-syscall layer in `reactor::sys` is the only place unsafe is
// permitted in the workspace (every other crate carries
// `#![forbid(unsafe_code)]`); inside it, each unsafe operation must sit in
// an explicit `unsafe { }` block with its own `// SAFETY:` comment even
// within unsafe fns.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cluster;
pub mod config;
pub mod dedup;
mod fabric;
pub mod faults;
pub mod frame;
pub mod reactor;
pub mod runtime;
pub mod transport;

pub use config::{ClusterConfig, ConfigError, Peer};
pub use faults::{LinkFaults, NodeFaults};
pub use runtime::{CpuMode, Runtime, RuntimeStats};
pub use transport::{Transport, TransportOptions, TransportSnapshot, TransportStats};
