//! # iniva-sim
//!
//! Experiment harnesses regenerating every table and figure of the Iniva
//! paper's evaluation:
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`omission`] | Fig. 2a, Fig. 2b, Theorem 4 Monte-Carlo, Table I |
//! | [`reward_sim`] | Fig. 2c, Fig. 2d |
//! | [`perf`] | Fig. 3a (throughput/latency), 3b (CPU), 3c (scalability) |
//! | [`resilience`] | Fig. 4a–d |
//!
//! Each module exposes plain functions returning structured rows so the
//! `examples/paper_figures.rs` binary can print the same series the paper
//! plots. All experiments are deterministic for a fixed seed.
//!
//! Every simulated Fig. 3 and Fig. 4 cell — and the simulated side of the
//! live-cluster comparisons — runs through one [`replay`] and reduces
//! through one [`summary`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use iniva::protocol::{InivaConfig, InivaReplica};
use iniva_consensus::PerfSummary;
use iniva_crypto::sim_scheme::SimScheme;
use iniva_net::faults::FaultPlan;
use iniva_net::{NetConfig, NodeId, Simulation, SECS};
use std::sync::Arc;

pub mod omission;
pub mod perf;
pub mod resilience;
pub mod reward_sim;
pub mod table1;

/// A simulated committee: `cfg.n` [`InivaReplica`]s over one [`SimScheme`].
pub type SimCluster = Simulation<InivaReplica<SimScheme>>;

/// Runs the committee of `cfg` for `duration_secs` of virtual time on a
/// network seeded with `seed`, injecting `plan`'s faults at their
/// instants (an empty plan is a fault-free run), and hands back the
/// finished simulation.
pub fn replay(cfg: &InivaConfig, plan: &FaultPlan, duration_secs: u64, seed: u64) -> SimCluster {
    let scheme = Arc::new(SimScheme::new(cfg.n, b"iniva-sim"));
    let replicas = (0..cfg.n as NodeId)
        .map(|id| InivaReplica::new(id, cfg.clone(), Arc::clone(&scheme)))
        .collect();
    let net = NetConfig {
        seed,
        ..NetConfig::default()
    };
    let mut sim = Simulation::new(net, replicas);
    plan.run_on_sim(&mut sim, duration_secs * SECS);
    sim
}

/// A finished [`replay`] reduced to `observer`'s chain metrics and every
/// replica's charged CPU over the `duration_secs` window.
pub fn summary(sim: &SimCluster, observer: NodeId, duration_secs: u64) -> PerfSummary {
    let cpu_busy: Vec<u64> = (0..sim.len() as NodeId)
        .map(|id| sim.stats(id).cpu_busy)
        .collect();
    let metrics = &sim.actor(observer).chain.metrics;
    PerfSummary::from_metrics(metrics, duration_secs as f64, &cpu_busy)
}
