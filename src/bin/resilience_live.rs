//! Reruns the Fig. 4 resilience sweep cells — 21 replicas, 0–4 crash
//! faults, round-robin vs Carousel leader policies — over **loopback TCP
//! sockets**, replaying the *same* seeded [`FaultPlan`] the simulator
//! replays, and writes the side-by-side numbers (plus their deltas) to
//! `BENCH_resilience_live.json`.
//!
//! ```sh
//! cargo run --release --bin resilience_live
//! cargo run --release --bin resilience_live -- out.json 21 3 0.05
//! #                     optional: path, n, duration_secs, cpu_scale
//! ```
//!
//! `--trace <dir>` runs every live cell with consensus event tracing:
//! each cell dumps per-node `trace-<id>.jsonl` + `metrics-<id>.json`
//! under `<dir>/<variant>-f<faults>/`, the merged per-view budget
//! (failed-view causes; timer vs network vs verify split) is printed and
//! recorded in the output JSON next to the bench numbers, and the dumps
//! stay on disk for `view_timeline`. `--only <variant>:<faults>` (e.g.
//! `--only carousel5:4`) restricts the sweep to one cell — the Carousel
//! collapse diagnosis loop:
//!
//! ```sh
//! cargo run --release --bin resilience_live -- \
//!     --trace /tmp/iniva-trace --only carousel5:4 carousel4.json
//! cargo run --release --bin view_timeline -- \
//!     /tmp/iniva-trace/carousel5-f4 --views
//! ```
//!
//! `cpu_scale` multiplies the calibrated BLS cost model **in both
//! backends** (the cost model lives in the shared replica config), so the
//! comparison stays apples-to-apples on hosts with fewer cores than the
//! paper's testbed: the simulator charges each of the n replicas its own
//! virtual CPU, while the live cluster's n threads share this machine's
//! real ones.

use iniva_consensus::PerfSummary;
use iniva_net::faults::FaultPlan;
use iniva_obs::timeline::read_dumps;
use iniva_obs::{Timeline, TimelineSummary};
use iniva_sim::resilience::{self, Variant};
use iniva_sim::{replay, summary};
use iniva_transport::cluster::{ClusterBuilder, ClusterHandle, ObsOptions};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

const VARIANTS: [Variant; 3] = [Variant::Delta5, Variant::Delta10, Variant::Carousel5];
const SEED: u64 = 42;

fn point_json(p: &PerfSummary) -> String {
    format!(
        "{{\"throughput_per_sec\": {:.1}, \"latency_ms\": {:.3}, \
         \"failed_views_pct\": {:.2}, \"qc_size\": {:.2}}}",
        p.throughput,
        p.latency_ms,
        p.failed_views * 100.0,
        p.qc_size
    )
}

/// Stable directory/CLI key of a variant (the labels carry δ glyphs).
fn variant_key(v: Variant) -> &'static str {
    match v {
        Variant::Delta5 => "delta5",
        Variant::Delta10 => "delta10",
        Variant::Carousel5 => "carousel5",
    }
}

/// Merges the per-node dumps a traced cell just wrote and returns the
/// run-level accounting.
fn merge_cell_dumps(dir: &Path) -> Result<TimelineSummary, String> {
    Ok(Timeline::merge(&read_dumps(dir)?).summary())
}

/// The per-view breakdown recorded next to a traced cell's bench numbers.
fn trace_json(s: &TimelineSummary) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    format!(
        "{{\"views_total\": {}, \"views_failed\": {}, \
         \"failed_no_proposal\": {}, \"failed_no_quorum\": {}, \"failed_after_qc\": {}, \
         \"failed_budget_ms\": {{\"span\": {:.1}, \"timer\": {:.1}, \"network\": {:.1}, \"verify\": {:.1}}}, \
         \"advanced_budget_ms\": {{\"span\": {:.1}, \"timer\": {:.1}, \"network\": {:.1}, \"verify\": {:.1}}}}}",
        s.views_total,
        s.views_failed,
        s.failed_no_proposal,
        s.failed_no_quorum,
        s.failed_after_qc,
        ms(s.failed_budget.span_ns),
        ms(s.failed_budget.timer_ns),
        ms(s.failed_budget.network_ns),
        ms(s.failed_budget.verify_ns),
        ms(s.advanced_budget.span_ns),
        ms(s.advanced_budget.timer_ns),
        ms(s.advanced_budget.network_ns),
        ms(s.advanced_budget.verify_ns),
    )
}

fn take_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> { take_flag(&raw, name) };
    let trace_dir = flag("--trace");
    let only = flag("--only").map(|v| {
        let (key, f) = v
            .split_once(':')
            .unwrap_or_else(|| panic!("--only wants <variant>:<faults>, got '{v}'"));
        let faults: usize = f.parse().unwrap_or_else(|_| panic!("--only faults: '{f}'"));
        (key.to_string(), faults)
    });
    let args: Vec<String> = {
        let mut skip = std::collections::HashSet::new();
        for name in ["--trace", "--only"] {
            if let Some(i) = raw.iter().position(|a| a == name) {
                skip.insert(i);
                skip.insert(i + 1);
            }
        }
        raw.iter()
            .enumerate()
            .filter(|&(i, _)| !skip.contains(&i))
            .map(|(_, a)| a.clone())
            .collect()
    };
    let path = args
        .first()
        .map(String::as_str)
        .unwrap_or("BENCH_resilience_live.json");
    let n: usize = args.get(1).map_or(21, |v| v.parse().expect("n"));
    let duration_secs: u64 = args.get(2).map_or(3, |v| v.parse().expect("duration_secs"));
    let cpu_scale: f64 = args.get(3).map_or(0.05, |v| v.parse().expect("cpu_scale"));

    let mut cells = Vec::new();
    for variant in VARIANTS {
        // The observer is the (faults+1)-th shuffled member, so a
        // committee of n supports at most n-1 injected crashes.
        for faults in (0..=4usize).take_while(|&f| f < n) {
            if let Some((key, f)) = &only {
                if variant_key(variant) != key || faults != *f {
                    continue;
                }
            }
            let mut cfg = resilience::variant_config(variant);
            if n != resilience::FIG4_N {
                cfg.n = n;
                cfg.internal = ((n as f64 - 1.0).sqrt().round() as u32).max(1);
            }
            cfg.cost = cfg.cost.scaled(cpu_scale);
            let seed = SEED + faults as u64;
            let plan = FaultPlan::random_crashes(n, faults, 0, seed);
            let observer = FaultPlan::shuffled_members(n, seed)[faults];

            let sim = summary(
                &replay(&cfg, &plan, duration_secs, seed),
                observer,
                duration_secs,
            );

            let cell_dir = trace_dir
                .as_ref()
                .map(|d| Path::new(d).join(format!("{}-f{faults}", variant_key(variant))));
            let mut builder = ClusterBuilder::new(&cfg, Duration::from_secs(duration_secs))
                .scheme::<iniva_crypto::sim_scheme::SimScheme>()
                .faults(&plan);
            if let Some(dir) = &cell_dir {
                builder = builder.observe(ObsOptions::new(dir));
            }
            let run = builder
                .launch()
                .and_then(ClusterHandle::join)
                .expect("cluster runs");
            let cpu_busy: Vec<u64> = run.nodes.iter().map(|nd| nd.runtime.busy).collect();
            let live = PerfSummary::from_metrics(
                &run.nodes[observer as usize].replica.chain.metrics,
                duration_secs as f64,
                &cpu_busy,
            );
            let policy = match variant {
                Variant::Carousel5 => "carousel",
                _ => "round-robin",
            };
            let tp_delta = if sim.throughput > 0.0 {
                (live.throughput - sim.throughput) / sim.throughput * 100.0
            } else {
                0.0
            };
            println!(
                "{:<18} faults={faults}  live {:>8.1}/s  sim {:>8.1}/s  ({tp_delta:+.1}%)  \
                 qc {:.1}/{:.1}  failed views {:.1}%/{:.1}%",
                variant.label(),
                live.throughput,
                sim.throughput,
                live.qc_size,
                sim.qc_size,
                live.failed_views * 100.0,
                sim.failed_views * 100.0,
            );
            let trace_field = cell_dir.as_ref().map(|dir| {
                let summary = merge_cell_dumps(dir).expect("merge cell trace dumps");
                println!(
                    "  trace [{}]:\n{}",
                    dir.display(),
                    summary
                        .render()
                        .lines()
                        .map(|l| format!("    {l}"))
                        .collect::<Vec<_>>()
                        .join("\n")
                );
                trace_json(&summary)
            });
            let trace_json_field = trace_field
                .map(|t| format!(",\n     \"live_trace\": {t}"))
                .unwrap_or_default();
            cells.push(format!(
                "    {{\"variant\": \"{}\", \"policy\": \"{policy}\", \"faults\": {faults},\n     \
                 \"live\": {},\n     \"sim\": {},\n     \
                 \"throughput_delta_pct\": {tp_delta:.1}{trace_json_field}}}",
                variant.label(),
                point_json(&live),
                point_json(&sim),
            ));
        }
    }

    let mut json = String::new();
    let _ = writeln!(
        json,
        "{{\n  \"benchmark\": \"iniva resilience sweep (Fig. 4): live TCP vs simulator\",\n  \
         \"n\": {n},\n  \"duration_secs\": {duration_secs},\n  \
         \"cpu_scale\": {cpu_scale},\n  \"seed\": {SEED},\n  \"cells\": ["
    );
    let _ = writeln!(json, "{}", cells.join(",\n"));
    let _ = writeln!(json, "  ]\n}}");
    std::fs::write(path, &json).expect("write sweep json");
    println!("\nwrote {path}");
}
