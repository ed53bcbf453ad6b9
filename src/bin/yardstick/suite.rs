//! The whole set: every workload, each run in a child process so CPU and
//! peak RSS are its own, `--repeat` times, summarised per cell.

use crate::contract::END_TO_END;
use crate::stats::{median, parse_result_line, quartiles};
use crate::workload::WORKLOADS;
use std::process::{Command, ExitCode};

/// Runs one workload once in a child and returns its metrics, or `None`
/// when the child failed or reported an incorrect run.
fn child(
    workload: &str,
    seed: u64,
    seconds: u32,
    trace: u8,
) -> Result<Option<Vec<(String, f64)>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout.lines().last().and_then(parse_result_line);
    match parsed {
        Some((true, metrics)) if out.status.success() => Ok(Some(metrics)),
        _ => {
            println!(
                "{workload} seed {seed} trace {trace} FAILED ({})",
                out.status
            );
            for line in stdout.lines().filter(|l| l.starts_with("VIOLATION")) {
                println!("  {line}");
            }
            print!("{}", String::from_utf8_lossy(&out.stderr));
            Ok(None)
        }
    }
}

/// `(min, median, max, q3 - q1)` of a cell's values.
fn summary(values: &[f64]) -> (f64, f64, f64, f64) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let iqr = quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1);
    (lo, median(values), hi, iqr)
}

/// `repeat` end-to-end runs of every workload on seeds `seed..`, one
/// per-layer run each, and the per-cell summary against the bounds.
pub fn run_set(repeat: u64, seed: u64, seconds: u32) -> Result<ExitCode, String> {
    println!("{}", crate::fingerprint(seed));
    println!(
        "{repeat} x {} workloads x {seconds} s, seeds {seed}..{}",
        WORKLOADS.len(),
        seed + repeat
    );
    let mut failed = 0;
    let mut p50 = Vec::new();
    for w in &WORKLOADS {
        // cells[metric] = one value per repetition
        let mut cells: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for rep in 0..repeat {
            match child(w.name, seed + rep, seconds, 0)? {
                Some(metrics) => {
                    for (cell, (_, value)) in cells.iter_mut().zip(metrics) {
                        cell.push(value);
                    }
                }
                None => failed += 1,
            }
        }
        println!(
            "\n{:<10} {:<18} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7}",
            w.name, "metric", "min", "median", "max", "range", "iqr", "bound"
        );
        for (cell, &(name, unit, _, bound)) in cells.iter().zip(&END_TO_END) {
            if cell.is_empty() {
                continue;
            }
            println!("{:<10} {name:<18} runs {cell:.4?}", "");
            let (lo, mid, hi, iqr) = summary(cell);
            let (range, iqr) = ((hi - lo) / mid, iqr / mid);
            let verdict = match () {
                _ if range <= bound => "inside",
                _ if iqr <= bound => "range outside, quartiles inside",
                _ => "OUTSIDE",
            };
            println!(
                "{:<10} {name:<18} {lo:>12.4} {mid:>12.4} {hi:>12.4} {:>7.1}% {:>7.1}% {:>6.0}% {unit:<6} {verdict}",
                "",
                range * 100.0,
                iqr * 100.0,
                bound * 100.0,
            );
        }
        p50.push((w.name, median(&cells[1])));
        match child(w.name, seed, seconds, 1)? {
            Some(layers) => {
                for (name, value) in layers {
                    println!("{:<10} {name:<34} {value:>14.4}", "");
                }
            }
            None => failed += 1,
        }
    }
    let of = |name: &str| p50.iter().find(|c| c.0 == name).map_or(0.0, |c| c.1);
    println!(
        "\nstorage.durability_cost_ms = {:.3} ms (wal4 commit_p50_ms - wire4 commit_p50_ms)",
        of("wal4") - of("wire4")
    );
    if failed > 0 {
        println!("{failed} runs failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_min_median_max_and_quartile_distance() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(summary(&v), (1.0, 5.5, 10.0, 5.5));
        assert_eq!(summary(&[2.0]), (2.0, 2.0, 2.0, 0.0));
    }
}
