//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release --example paper_figures            # everything
//! cargo run --release --example paper_figures -- fig2a   # one artifact
//! ```
//!
//! Artifacts: `table1 fig2a fig2b fig2c fig2d fig3a fig3b fig3c fig4`.

use iniva_sim::{omission, perf, resilience, reward_sim, table1};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |k: &str| all || args.iter().any(|a| a == k);

    if want("table1") {
        println!("==================== Table I ====================");
        println!(
            "{:<16} {:>14} {:>14} {:>10} {:>20}",
            "scheme", "0-omission", "measured@10%", "inclusive", "incentive-compatible"
        );
        for r in table1::table_1(40_000, 42) {
            println!(
                "{:<16} {:>14} {:>14.4} {:>10} {:>20}",
                r.scheme,
                r.omission_formula,
                r.measured_at_10pct,
                r.inclusive,
                r.incentive_compatible
            );
        }
        println!();
    }

    if want("fig2a") {
        println!("==================== Fig. 2a: omission probability, collateral 0 ====");
        for s in omission::figure_2a(20_000, 42) {
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|(m, p)| format!("m={m:.2}:{p:.4}"))
                .collect();
            println!("{:<38} {}", s.label, pts.join("  "));
        }
        println!();
    }

    if want("fig2b") {
        println!("==================== Fig. 2b: omission vs collateral (m = 5%) =======");
        for s in omission::figure_2b(10_000, 42) {
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|(c, p)| format!("c={c:.0}:{p:.4}"))
                .collect();
            println!("{:<38} {}", s.label, pts.join(" "));
        }
        println!();
    }

    if want("fig2c") {
        println!("==================== Fig. 2c: reward deviation under attacks ========");
        println!(
            "{:<32} {:>6} {:>16} {:>16}",
            "series", "m", "victim dev", "attacker dev"
        );
        for r in reward_sim::figure_2c(4_000, 42) {
            println!(
                "{:<32} {:>6.2} {:>16.4} {:>16.4}",
                r.label, r.m, r.victim_deviation, r.attacker_deviation
            );
        }
        println!();
    }

    if want("fig2d") {
        println!("==================== Fig. 2d: reward lost, whole-branch collateral ==");
        println!(
            "{:<22} {:>6} {:>16} {:>16}",
            "config", "m", "victim loss", "attacker loss"
        );
        for r in reward_sim::figure_2d(4_000, 42) {
            println!(
                "{:<22} {:>6.2} {:>15.4}R {:>15.4}R",
                r.label, r.m, r.victim_loss, r.attacker_loss
            );
        }
        println!();
    }

    if want("fig3a") {
        println!("==================== Fig. 3a: throughput vs latency =================");
        let rates = [2_000, 5_000, 10_000, 20_000, 50_000, 100_000];
        for s in perf::figure_3a(&rates) {
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|p| format!("({:.0} op/s, {:.1} ms)", p.throughput, p.latency_ms))
                .collect();
            println!("{:<24} {}", s.label, pts.join(" "));
        }
        println!();
    }

    if want("fig3b") {
        println!("==================== Fig. 3b: CPU usage =============================");
        // CPU per committed op: mean CPU % per 1k committed op/s.
        println!(
            "{:<24} {:>12} {:>12} {:>12} {:>14}",
            "config", "mean CPU %", "% per kop/s", "max CPU %", "throughput"
        );
        for (label, p) in perf::figure_3b() {
            println!(
                "{:<24} {:>12.1} {:>12.2} {:>12.1} {:>14.0}",
                label,
                p.cpu_mean_pct,
                p.cpu_mean_pct / (p.throughput / 1000.0),
                p.cpu_max_pct,
                p.throughput
            );
        }
        println!();
    }

    if want("fig3c") {
        println!("==================== Fig. 3c: scalability ===========================");
        for (label, series) in perf::figure_3c(&[21, 41, 61, 81, 101, 121, 141]) {
            let pts: Vec<String> = series
                .iter()
                .map(|(n, t)| format!("n={n}:{t:.0}"))
                .collect();
            println!("{:<16} {}", label, pts.join("  "));
        }
        println!();
    }

    if want("fig4") {
        println!("==================== Fig. 4: resiliency to crash faults =============");
        for (variant, pts) in resilience::figure_4(15, 42) {
            println!("-- {} --", variant.label());
            println!(
                "{:<8} {:>12} {:>12} {:>16} {:>10}",
                "faults", "ops/s", "latency ms", "failed views %", "QC size"
            );
            for (faults, p) in pts.iter().enumerate() {
                println!(
                    "{:<8} {:>12.0} {:>12.1} {:>16.1} {:>10.2}",
                    faults,
                    p.throughput,
                    p.latency_ms,
                    p.failed_views * 100.0,
                    p.qc_size
                );
            }
            println!();
        }
    }
}
