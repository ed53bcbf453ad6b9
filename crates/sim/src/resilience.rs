//! Resiliency experiments with crash faults (Fig. 4a–d).
//!
//! 21 replicas (4 internal), 0–4 crash faults randomly placed (the per-view
//! shuffle moves them around the tree), second-chance timer δ ∈ {5, 10} ms
//! and the Carousel leader-election variant.

use iniva::protocol::{InivaConfig, InivaReplica, SecondChance};
use iniva_consensus::LeaderPolicy;
use iniva_crypto::sim_scheme::SimScheme;
use iniva_net::faults::FaultPlan;
use iniva_net::{NetConfig, Simulation, MILLIS, SECS};
use std::sync::Arc;

/// Committee size of the Fig. 4 sweeps.
pub const FIG4_N: usize = 21;

/// Internal aggregators per tree in the Fig. 4 sweeps.
pub const FIG4_INTERNAL: u32 = 4;

/// One experiment variant (a line in Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Round-robin leaders, δ = 5 ms.
    Delta5,
    /// Round-robin leaders, δ = 10 ms.
    Delta10,
    /// Carousel leader election, δ = 5 ms.
    Carousel5,
}

impl Variant {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Delta5 => "δ = 5 ms",
            Variant::Delta10 => "δ = 10 ms",
            Variant::Carousel5 => "δ = 5 ms (Carousel)",
        }
    }

    fn second_chance_timer(&self) -> u64 {
        match self {
            Variant::Delta5 | Variant::Carousel5 => 5 * MILLIS,
            Variant::Delta10 => 10 * MILLIS,
        }
    }

    fn policy(&self) -> LeaderPolicy {
        match self {
            Variant::Carousel5 => LeaderPolicy::Carousel,
            _ => LeaderPolicy::RoundRobin,
        }
    }
}

/// Measured outcome for one (variant, fault count) cell.
#[derive(Debug, Clone)]
pub struct ResiliencePoint {
    /// Crashed replicas.
    pub faults: usize,
    /// Committed requests per second.
    pub throughput: f64,
    /// Mean request latency (ms).
    pub latency_ms: f64,
    /// Percentage of failed views.
    pub failed_views_pct: f64,
    /// Mean number of distinct signers per QC (Fig. 4d).
    pub qc_size: f64,
}

/// The replica configuration of one Fig. 4 variant.
pub fn variant_config(variant: Variant) -> InivaConfig {
    let mut cfg = InivaConfig::for_tests(FIG4_N, FIG4_INTERNAL);
    cfg.request_rate = 50_000;
    cfg.max_batch = 100;
    cfg.payload_per_req = 64;
    // Paper heuristic: agg timer = 2Δ·height(p), δ = 2Δ.
    cfg.delta = variant.second_chance_timer() / 2;
    cfg.second_chance_timer = Some(variant.second_chance_timer());
    cfg.second_chance = SecondChance::OnQuorum;
    cfg.leader_policy = variant.policy();
    cfg.view_timeout = 300 * MILLIS;
    cfg
}

/// Reduces a correct replica's chain metrics to a Fig. 4 point. Shared
/// with the live-cluster sweep driver, so both backends report identical
/// definitions.
pub fn measure(
    m: &iniva_consensus::chain::ChainMetrics,
    faults: usize,
    duration_secs: u64,
) -> ResiliencePoint {
    ResiliencePoint {
        faults,
        throughput: m.committed_reqs as f64 / duration_secs as f64,
        latency_ms: m.mean_latency() / MILLIS as f64,
        failed_views_pct: m.failed_view_fraction() * 100.0,
        qc_size: m.mean_qc_size(),
    }
}

/// Runs `plan` against a fresh simulated cluster of `cfg`, harvesting the
/// Fig. 4 metrics from `observer` (which must stay correct for the whole
/// plan).
pub fn run_sim_plan(
    cfg: &InivaConfig,
    plan: &FaultPlan,
    faults: usize,
    observer: u32,
    duration_secs: u64,
    seed: u64,
) -> ResiliencePoint {
    let scheme = Arc::new(SimScheme::new(cfg.n, b"resilience"));
    let replicas = (0..cfg.n as u32)
        .map(|id| InivaReplica::new(id, cfg.clone(), Arc::clone(&scheme)))
        .collect();
    let mut sim = Simulation::new(
        NetConfig {
            seed,
            ..NetConfig::default()
        },
        replicas,
    );
    plan.run_on_sim(&mut sim, duration_secs * SECS);
    measure(&sim.actor(observer).chain.metrics, faults, duration_secs)
}

/// Runs one resiliency cell: `faults` crash faults, chosen pseudo-randomly,
/// measured over `duration_secs` of virtual time.
pub fn run(variant: Variant, faults: usize, duration_secs: u64, seed: u64) -> ResiliencePoint {
    let cfg = variant_config(variant);
    let plan = FaultPlan::random_crashes(cfg.n, faults, 0, seed);
    // Harvest from a correct replica.
    let observer = FaultPlan::shuffled_members(cfg.n, seed)[faults];
    run_sim_plan(&cfg, &plan, faults, observer, duration_secs, seed)
}

/// Fig. 4: all variants × fault counts 0–4.
pub fn figure_4(duration_secs: u64, seed: u64) -> Vec<(Variant, Vec<ResiliencePoint>)> {
    [Variant::Delta5, Variant::Delta10, Variant::Carousel5]
        .into_iter()
        .map(|v| {
            let pts = (0..=4)
                .map(|f| run(v, f, duration_secs, seed + f as u64))
                .collect();
            (v, pts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_decreases_with_faults() {
        let p0 = run(Variant::Delta5, 0, 10, 1);
        let p4 = run(Variant::Delta5, 4, 10, 1);
        assert!(p0.throughput > 0.0 && p4.throughput > 0.0);
        assert!(
            p4.throughput < p0.throughput,
            "faults must cost throughput ({} vs {})",
            p0.throughput,
            p4.throughput
        );
    }

    #[test]
    fn failed_views_appear_with_faults() {
        let p0 = run(Variant::Delta5, 0, 10, 2);
        let p4 = run(Variant::Delta5, 4, 10, 2);
        assert!(p4.failed_views_pct > p0.failed_views_pct);
        // Round-robin with 4/21 crashed: ~19% of leaders are faulty.
        assert!(p4.failed_views_pct > 5.0, "{}", p4.failed_views_pct);
    }

    #[test]
    fn inclusion_stays_above_99pct_of_correct() {
        // Fig. 4d: with 4 failures Iniva includes >99% of correct processes.
        let p4 = run(Variant::Delta10, 4, 15, 3);
        let correct = 17.0;
        assert!(
            p4.qc_size >= correct * 0.99,
            "QC size {} below 99% of correct",
            p4.qc_size
        );
    }

    #[test]
    fn carousel_reduces_failed_views() {
        // Fig. 4c: Carousel avoids electing crashed leaders.
        let rr = run(Variant::Delta5, 3, 15, 4);
        let carousel = run(Variant::Carousel5, 3, 15, 4);
        assert!(
            carousel.failed_views_pct <= rr.failed_views_pct + 1.0,
            "carousel {} vs round-robin {}",
            carousel.failed_views_pct,
            rr.failed_views_pct
        );
    }

    #[test]
    fn longer_delta_favors_inclusion() {
        // Fig. 4d: the larger second-chance timer has a positive effect on
        // inclusion.
        let d5 = run(Variant::Delta5, 3, 15, 5);
        let d10 = run(Variant::Delta10, 3, 15, 5);
        assert!(
            d10.qc_size >= d5.qc_size - 0.2,
            "δ=10 inclusion {} vs δ=5 {}",
            d10.qc_size,
            d5.qc_size
        );
    }
}
