//! Performance experiments over the discrete-event simulator
//! (Fig. 3a throughput vs latency, Fig. 3b CPU usage, Fig. 3c scalability).

use crate::{replay, summary};
use iniva::protocol::{InivaConfig, SecondChance};
use iniva_consensus::PerfSummary;
use iniva_net::faults::FaultPlan;
use iniva_net::MILLIS;

/// Protocol under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Plain HotStuff with star aggregation: every member votes straight
    /// to the next leader, which finalizes at its first quorum. Run as
    /// Iniva on the height-one tree under [`SecondChance::FirstQuorum`].
    HotStuff,
    /// Iniva (tree + 2ND-CHANCE, paper-faithful quorum trigger).
    Iniva,
    /// Iniva without 2ND-CHANCE messages (the paper's ablation).
    InivaNo2C,
}

impl Protocol {
    /// Display name matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::HotStuff => "HotStuff",
            Protocol::Iniva => "Iniva",
            Protocol::InivaNo2C => "Iniva-No2C",
        }
    }
}

/// Parameters of one performance run.
#[derive(Debug, Clone)]
pub struct PerfParams {
    /// Protocol variant.
    pub protocol: Protocol,
    /// Committee size.
    pub n: usize,
    /// Internal aggregators (Iniva and Iniva-No2C; HotStuff's height-one
    /// tree has `n − 1`).
    pub internal: u32,
    /// Payload bytes per request.
    pub payload: u32,
    /// Batch size.
    pub batch: u32,
    /// Client request rate (requests/second).
    pub rate: u64,
    /// Virtual run duration in seconds.
    pub duration_secs: u64,
    /// RNG seed.
    pub seed: u64,
}

impl PerfParams {
    /// The paper's base configuration: 21 replicas, 4 internal nodes.
    pub fn base(protocol: Protocol, payload: u32, batch: u32, rate: u64) -> Self {
        PerfParams {
            protocol,
            n: 21,
            internal: 4,
            payload,
            batch,
            rate,
            duration_secs: 15,
            seed: 42,
        }
    }
}

/// Runs one performance experiment and returns the measured point.
pub fn run(params: &PerfParams) -> PerfSummary {
    let (internal, second_chance) = match params.protocol {
        Protocol::HotStuff => (params.n as u32 - 1, SecondChance::FirstQuorum),
        // The paper's trigger: 2ND-CHANCE once a quorum is collected,
        // then wait δ — the cost Fig. 3a attributes to the fallback.
        Protocol::Iniva => (params.internal, SecondChance::OnQuorum),
        Protocol::InivaNo2C => (params.internal, SecondChance::Off),
    };
    let mut cfg = InivaConfig::for_tests(params.n, internal);
    cfg.max_batch = params.batch;
    cfg.payload_per_req = params.payload;
    cfg.request_rate = params.rate;
    cfg.view_timeout = 800 * MILLIS;
    cfg.second_chance = second_chance;
    cfg.second_chance_timer = Some(10 * MILLIS);
    let sim = replay(&cfg, &FaultPlan::new(), params.duration_secs, params.seed);
    summary(&sim, 0, params.duration_secs)
}

/// A Fig. 3a series: `(throughput, latency)` for increasing client load.
#[derive(Debug, Clone)]
pub struct ThroughputLatencySeries {
    /// Legend label (protocol, payload, batch).
    pub label: String,
    /// Points swept over client request rate.
    pub points: Vec<PerfSummary>,
}

/// Fig. 3a: throughput vs latency for HotStuff / Iniva / Iniva-No2C at
/// payload {64, 128} bytes and batch {100, 800}.
pub fn figure_3a(rates: &[u64]) -> Vec<ThroughputLatencySeries> {
    let mut out = Vec::new();
    for proto in [Protocol::HotStuff, Protocol::Iniva, Protocol::InivaNo2C] {
        for payload in [64u32, 128] {
            for batch in [100u32, 800] {
                let points = rates
                    .iter()
                    .map(|&rate| run(&PerfParams::base(proto, payload, batch, rate)))
                    .collect();
                out.push(ThroughputLatencySeries {
                    label: format!("{} {payload}b B={batch}", proto.label()),
                    points,
                });
            }
        }
    }
    out
}

/// Fig. 3b: CPU usage of HotStuff and Iniva at saturation load.
pub fn figure_3b() -> Vec<(String, PerfSummary)> {
    let mut out = Vec::new();
    for proto in [Protocol::HotStuff, Protocol::Iniva] {
        for payload in [64u32, 128] {
            for batch in [100u32, 800] {
                let p = run(&PerfParams::base(proto, payload, batch, 50_000));
                out.push((format!("{} {payload}b B={batch}", proto.label()), p));
            }
        }
    }
    out
}

/// Fig. 3c: throughput vs committee size (batch 100, payload {0, 64}).
pub fn figure_3c(sizes: &[usize]) -> Vec<(String, Vec<(usize, f64)>)> {
    let mut out = Vec::new();
    for proto in [Protocol::HotStuff, Protocol::Iniva] {
        for payload in [0u32, 64] {
            let series: Vec<(usize, f64)> = sizes
                .iter()
                .map(|&n| {
                    let internal = ((n as f64 - 1.0).sqrt().round() as u32).max(2);
                    let params = PerfParams {
                        n,
                        internal,
                        duration_secs: 10,
                        ..PerfParams::base(proto, payload, 100, 50_000)
                    };
                    (n, run(&params).throughput)
                })
                .collect();
            out.push((format!("{} {payload}b", proto.label()), series));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotstuff_outperforms_iniva_fault_free() {
        // Fig. 3a headline: HotStuff's star outruns Iniva's tree in the
        // fault-free case, with No2C in between. The paper's star leader
        // verifies each vote individually (~33% gap). Here the star is
        // the same replica on the height-one tree: its root verifies a
        // quorum's votes under ONE multi-pairing and finalizes at the
        // first quorum, so the modeled star baseline is considerably
        // faster than the paper's and the gap is wider than Fig. 3a's —
        // the ordering claims and a looser overhead floor are what remain
        // pinned. (Iniva's round-based tree keeps its CPU and inclusion
        // advantages; see the sibling test and `protocol_sim`.)
        let hs = run(&PerfParams::base(Protocol::HotStuff, 64, 100, 100_000));
        let iniva = run(&PerfParams::base(Protocol::Iniva, 64, 100, 100_000));
        let no2c = run(&PerfParams::base(Protocol::InivaNo2C, 64, 100, 100_000));
        assert!(
            hs.throughput > iniva.throughput,
            "HotStuff {} vs Iniva {}",
            hs.throughput,
            iniva.throughput
        );
        assert!(
            no2c.throughput >= iniva.throughput,
            "No2C {} vs Iniva {}",
            no2c.throughput,
            iniva.throughput
        );
        assert!(
            iniva.throughput > hs.throughput * 0.25,
            "overhead too large: HotStuff {} vs Iniva {}",
            hs.throughput,
            iniva.throughput
        );
    }

    #[test]
    fn iniva_uses_less_cpu_than_hotstuff() {
        // Fig. 3b: the tree distributes verification; with the round-based
        // pipeline Iniva also commits less, so mean CPU drops (~48% in the
        // paper).
        let hs = run(&PerfParams::base(Protocol::HotStuff, 64, 100, 100_000));
        let iniva = run(&PerfParams::base(Protocol::Iniva, 64, 100, 100_000));
        assert!(
            iniva.cpu_mean_pct < hs.cpu_mean_pct,
            "Iniva CPU {} vs HotStuff {}",
            iniva.cpu_mean_pct,
            hs.cpu_mean_pct
        );
    }

    #[test]
    fn larger_batches_raise_throughput() {
        let b100 = run(&PerfParams::base(Protocol::Iniva, 64, 100, 200_000));
        let b800 = run(&PerfParams::base(Protocol::Iniva, 64, 800, 200_000));
        assert!(
            b800.throughput > b100.throughput * 1.5,
            "batching must amortize consensus cost ({} vs {})",
            b100.throughput,
            b800.throughput
        );
    }

    #[test]
    fn throughput_degrades_gracefully_with_committee_size() {
        let small = run(&PerfParams {
            n: 21,
            internal: 4,
            ..PerfParams::base(Protocol::Iniva, 64, 100, 50_000)
        });
        let large = run(&PerfParams {
            n: 81,
            internal: 9,
            duration_secs: 10,
            ..PerfParams::base(Protocol::Iniva, 64, 100, 50_000)
        });
        assert!(large.throughput > 0.0);
        assert!(small.throughput >= large.throughput * 0.8);
    }
}
