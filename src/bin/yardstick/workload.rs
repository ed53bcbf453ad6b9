//! The five workloads and the phase plan every one of them runs.

use crate::loadgen::{Plan, SplitMix64};
use iniva_transport::CpuMode;
use std::time::Duration;

/// One cluster shape plus the open-loop rate offered to it. Everything
/// not named here is `InivaConfig::for_tests(n, internal)` and the
/// `ClusterBuilder` defaults.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also the `why` in `BENCHMARK.json`).
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so a change is accepted or rejected on
    /// it. Only the workloads that protocol timers pace are: what the
    /// machine paces repeats within 5-10% while the shared host is quiet
    /// and within 25-50% while it is not, which is no gate.
    pub gated: bool,
    pub n: usize,
    /// Internal nodes of the aggregation tree; 1 is a flat tree, which
    /// never arms the aggregation timer on the happy path.
    pub internal: u32,
    /// Real BLS pairings (`tune_for_real_crypto`) instead of `SimScheme`.
    pub bls: bool,
    /// Commits are fsynced to a write-ahead log.
    pub wal: bool,
    /// One seed-chosen replica in `2..n` crashes a fifth into `base`.
    pub crash: bool,
    pub cpu: CpuMode,
    /// Poisson arrivals per second in `warm` and `base`.
    pub rate: f64,
    /// A request not `Committed` within this of its due time is lost.
    pub limit_ms: u64,
    /// Measured launches per run; each metric is the interquartile mean
    /// over them.
    /// The machine-bound workloads differ from launch to launch by more
    /// than within one (which threads the kernel put together, how far
    /// the chain has grown), so they are launched afresh several times
    /// for a shorter while each.
    pub launches: u32,
    /// Warm-up of every launch; the first `Committed` ack in it ends
    /// set-up.
    pub warm: Duration,
    /// The run confines itself to one CPU. Eight replica threads that
    /// hand every message to each other across two virtual CPUs are paced
    /// by how fast the host wakes an idle virtual CPU, which is the host's
    /// business and not the program's; on one CPU a hand-off is a context
    /// switch.
    pub one_cpu: bool,
}

const fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tree21",
        why: "the paper's 21-replica committee on a two-level tree: the aggregation timer fires every view, so tree and core timers pace it",
        gated: true,
        n: 21,
        internal: 4,
        bls: false,
        wal: false,
        crash: false,
        cpu: CpuMode::Real,
        rate: 1000.0,
        limit_ms: 500,
        launches: 1,
        warm: secs(2),
        one_cpu: false,
    },
    Workload {
        name: "crash21",
        why: "tree21 with one replica crashed mid-run (Fig. 4): view timeouts, 2ND-CHANCE and a dead leader every 21 views; guards QC inclusion and lost requests",
        gated: true,
        n: 21,
        internal: 4,
        bls: false,
        wal: false,
        crash: true,
        cpu: CpuMode::Real,
        rate: 500.0,
        limit_ms: 2000,
        launches: 1,
        warm: secs(2),
        one_cpu: false,
    },
    Workload {
        name: "wire4",
        why: "4 replicas, flat tree, no modelled CPU: machine-bound, so transport, codec, ingress and the consensus chain do the work and timers and crypto none",
        gated: false,
        n: 4,
        internal: 1,
        bls: false,
        wal: false,
        crash: false,
        cpu: CpuMode::Off,
        rate: 20_000.0,
        limit_ms: 100,
        launches: 5,
        warm: secs(1),
        one_cpu: true,
    },
    Workload {
        name: "wal4",
        why: "wire4 with a write-ahead log: storage fsync paces the view, and the gap to wire4 is the cost of durability",
        gated: false,
        n: 4,
        internal: 1,
        bls: false,
        wal: true,
        crash: false,
        cpu: CpuMode::Off,
        rate: 5000.0,
        limit_ms: 250,
        launches: 5,
        warm: secs(1),
        one_cpu: true,
    },
    Workload {
        name: "bls4",
        why: "4 replicas, flat tree, real BLS pairings: crypto paces the view; every SimScheme workload bypasses it",
        gated: false,
        n: 4,
        internal: 1,
        bls: true,
        wal: false,
        crash: false,
        cpu: CpuMode::Real,
        rate: 120.0,
        limit_ms: 2500,
        launches: 1,
        warm: secs(2),
        one_cpu: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The replica a `crash` workload kills: never 0 or 1, which hold the
    /// client connections.
    pub fn victim(&self, seed: u64) -> u32 {
        2 + (SplitMix64(seed ^ 0x7669_6374_696d).next_u64() % (self.n as u64 - 2)) as u32
    }
}

/// The cluster outlives the generator by this much, so the generator
/// never runs into a closing socket.
const TAIL: Duration = Duration::from_millis(50);

/// Phase lengths of one cluster launch.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub warm: Duration,
    pub base: Duration,
    pub drain: Duration,
    pub sat: Duration,
}

impl Phases {
    /// `seconds` of measurement after `warm`, split 10 : 2 : 6 into the
    /// open loop, the drain and the closed loop (10 s, 2 s and 6 s at
    /// 18 s).
    pub fn measured(warm: Duration, seconds: f64) -> Phases {
        let part = |share: f64| Duration::from_secs_f64(seconds * share / 18.0);
        Phases {
            warm,
            base: part(10.0),
            drain: part(2.0),
            sat: part(6.0),
        }
    }

    /// `warm` alone: a launch that only measures set-up.
    pub fn setup_only(warm: Duration) -> Phases {
        Phases {
            warm,
            base: Duration::ZERO,
            drain: Duration::ZERO,
            sat: Duration::ZERO,
        }
    }

    pub fn plan(&self) -> Plan {
        let ns = |d: Duration| d.as_nanos() as u64;
        let warm_end = ns(self.warm);
        let base_end = warm_end + ns(self.base);
        let drain_end = base_end + ns(self.drain);
        Plan {
            warm_end,
            base_end,
            drain_end,
            sat_end: drain_end + ns(self.sat),
        }
    }

    /// How long the cluster is launched for.
    pub fn cluster_duration(&self) -> Duration {
        Duration::from_nanos(self.plan().sat_end) + TAIL
    }

    /// When a `crash` workload's victim dies: a fifth into `base` (5.3 s
    /// into a 30 s run).
    pub fn crash_at_ns(&self) -> u64 {
        self.plan().warm_end + self.base.as_nanos() as u64 / 5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_split_eighteen_seconds_as_the_issue_states() {
        let p = Phases::measured(secs(2), 18.0).plan();
        let s = 1_000_000_000;
        assert_eq!(
            (p.warm_end, p.base_end, p.drain_end, p.sat_end),
            (2 * s, 12 * s, 14 * s, 20 * s)
        );
        assert_eq!(Phases::measured(secs(2), 18.0).crash_at_ns(), 4 * s);
        let setup = Phases::setup_only(Duration::from_millis(300)).plan();
        assert_eq!((setup.warm_end, setup.sat_end), (300_000_000, 300_000_000));
    }

    #[test]
    fn victim_is_seeded_and_never_holds_a_client() {
        let w = Workload::by_name("crash21").unwrap();
        assert_eq!(w.victim(5), w.victim(5));
        let victims: Vec<u32> = (0..200).map(|s| w.victim(s)).collect();
        assert!(victims.iter().all(|v| (2..21).contains(v)));
        assert!(victims.iter().any(|&v| v != victims[0]));
    }
}
