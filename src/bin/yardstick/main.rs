//! `yardstick`: the repository's one benchmark, client request to
//! `Committed` ack, over five workloads, with a per-layer budget. See
//! `README.md` beside this file and `BENCHMARK.json` at the root.
//!
//! ```sh
//! yardstick --workload tree21 --seed 1 --seconds 30 --trace 0   # end to end
//! yardstick --workload tree21 --seed 1 --seconds 30 --trace 1   # per layer
//! yardstick --repeat 5 --seed 1                                 # the whole set
//! ```

mod contract;
mod layers;
mod loadgen;
mod run;
mod stats;
mod suite;
mod tracing;
mod workload;

use contract::{END_TO_END, PER_LAYER};
use iniva_transport::cluster::ObsOptions;
use run::RunReport;
use stats::{median, midmean, peak_rss_mb, result_line, supports, Metric};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{Phases, Workload};

/// Time a `--trace 0` run spends on launches that only measure set-up;
/// `setup_s` is the median over them and the measured launches.
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Every n-th open-loop request is written by `--spans`.
const SPAN_SAMPLING: usize = 16;

const USAGE: &str = "usage:
  yardstick --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
      one workload in this process; the last line of output is the result as JSON
  yardstick [--repeat <n>] [--seed <n>] [--seconds <s>]
      every workload, each run in a child process, n times; prints min, median, max
workloads: tree21 crash21 (listed in BENCHMARK.json), wire4 wal4 bls4 (machine-bound, by hand)";

/// `--key value` pairs; anything else is an error.
fn parse_args(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut out = HashMap::new();
    for pair in args.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => out.insert(&key[2..], value.as_str()),
            _ => return Err(format!("expected `--key value`, got {pair:?}")),
        };
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    args: &HashMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match args.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} wants a number, got {v:?}")),
    }
}

/// Where a run may write: beside the executable, which is inside the
/// build directory and so inside the checkout but outside the sources.
fn scratch_dir(workload: &str) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("yardstick-tmp")
        .join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Set in the environment of a run that has confined itself to one CPU.
const ONE_CPU_ENV: &str = "YARDSTICK_ONE_CPU";

/// The CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, as in `0-1` or `0,2-3`).
fn allowed_cpus() -> Vec<u32> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    parse_cpu_list(list)
}

fn parse_cpu_list(list: &str) -> Vec<u32> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (from, to) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(from), Ok(to)) = (from.trim().parse::<u32>(), to.trim().parse::<u32>()) {
            cpus.extend(from..=to);
        }
    }
    cpus
}

/// Restarts this run under `taskset` on the first CPU it may use; the
/// process image is replaced, so no second process exists. Returns (with
/// the reason) only when that was not possible, and the run goes on
/// unconfined.
fn confine_to_one_cpu() -> String {
    use std::os::unix::process::CommandExt;
    let cpus = allowed_cpus();
    let (Some(cpu), Ok(exe)) = (cpus.first(), std::env::current_exe()) else {
        return "the allowed CPUs or the executable are unknown".into();
    };
    let failed = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(ONE_CPU_ENV, cpu.to_string())
        .exec();
    format!("taskset: {failed}")
}

/// What identifies the host and build a number came from.
pub fn fingerprint(seed: u64) -> String {
    let run = |command: &mut Command| {
        command
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    // git may look for a repository in this directory and no higher.
    let above = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf));
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short", "HEAD"]);
    git.env("GIT_CEILING_DIRECTORIES", above.unwrap_or_default());
    format!(
        "host: nproc {nproc}, kernel {}, {}, commit {}, seed {seed}",
        kernel.trim(),
        run(Command::new("rustc").arg("-V")),
        run(&mut git),
    )
}

fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// One record per stage of every [`SPAN_SAMPLING`]-th open-loop request:
/// request id, name, start, end (ns from launch) and parent span.
fn write_spans(path: &str, report: &RunReport) -> std::io::Result<()> {
    let mut out = String::new();
    for (id, s) in report.base.iter().enumerate().step_by(SPAN_SAMPLING) {
        let stages = [
            ("request", s.due, s.committed, "null"),
            ("loadgen.late", s.due, s.written, "\"request\""),
            ("ingress.admit", s.written, s.acked, "\"request\""),
            ("consensus.commit", s.acked, s.committed, "\"request\""),
        ];
        for (name, start, end, parent) in stages {
            if start != 0 && end != 0 {
                out.push_str(&format!(
                    "{{\"request\": {id}, \"name\": \"{name}\", \"start_ns\": {start}, \"end_ns\": {end}, \"parent\": {parent}}}\n"
                ));
            }
        }
    }
    std::fs::write(path, out)
}

/// The seed of measured launch `round` of a run.
fn launch_seed(seed: u64, round: u32) -> u64 {
    seed.wrapping_add(u64::from(round).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Per metric, the interquartile mean over the launches that measured it.
fn midmean_over_launches(launches: &[RunReport]) -> Vec<Metric> {
    let Some(first) = launches.first() else {
        return Vec::new();
    };
    first
        .end_to_end
        .iter()
        .map(|m| {
            let values: Vec<f64> = launches
                .iter()
                .map(|l| value_of(&l.end_to_end, &m.name))
                .collect();
            Metric::new(&m.name, midmean(&values), m.unit)
        })
        .collect()
}

/// `--trace 0`: `w.launches` measured launches of `seconds / w.launches`
/// each, every metric the interquartile mean over them; then as many
/// short launches as fit [`SETUP_BUDGET`] (and at least three set-ups in
/// all) that measure set-up alone. A cluster runs for the time it was
/// launched for, so each of those lasts four times the set-up the first
/// launch saw, within 0.25 s to 2 s.
fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    tmp: &Path,
) -> Result<(RunReport, Vec<Metric>), String> {
    let phases = Phases::measured(w.warm, seconds / f64::from(w.launches));
    let mut launches = Vec::new();
    for round in 0..w.launches {
        let launch = run::run(w, launch_seed(seed, round), phases, tmp, None)?;
        let values: Vec<String> = launch
            .end_to_end
            .iter()
            .map(|m| format!("{} {:.4}", m.name, m.value))
            .collect();
        println!("{} launch {round}: {}", w.name, values.join(", "));
        launches.push(launch);
    }
    let mut setups = Vec::new();
    for launch in &launches {
        match launch.setup_s {
            Some(s) => setups.push(s),
            None => return Err(format!("{}: no Committed ack during warm-up", w.name)),
        }
    }
    let mut metrics = midmean_over_launches(&launches);
    let mut report = RunReport::default();
    for launch in launches {
        report.attempted += launch.attempted;
        report.failed += launch.failed;
        report.violations.extend(launch.violations);
        report.base.extend(launch.base);
    }

    let window = Duration::from_secs_f64((4.0 * setups[0]).clamp(0.25, 2.0));
    let started = Instant::now();
    while setups.len() < 3 || started.elapsed() + window < SETUP_BUDGET {
        let rep = run::run(w, seed, Phases::setup_only(window), tmp, None)?;
        // A launch that saw no ack in its window took at least that long.
        setups.push(rep.setup_s.unwrap_or(window.as_secs_f64()));
        report.violations.extend(rep.violations);
    }
    let samples = report.base.iter().filter(|s| s.committed != 0).count();
    if !supports(samples, 99.0) {
        report.violations.push(format!(
            "p99 needs 1000 committed open-loop samples, got {samples}: raise --seconds"
        ));
    }
    metrics.insert(0, Metric::new("setup_s", median(&setups), "s"));
    metrics.push(Metric::new("rss_peak_mb", peak_rss_mb(), "MB"));
    println!(
        "{}: {} launches, {samples} open-loop samples, set-up launches {setups:.4?} s",
        w.name, w.launches
    );
    Ok((report, metrics))
}

/// `--trace 1`: half the time untraced, half with the system's telemetry
/// on, then the layer probes. The untraced half gives the stage and
/// counter metrics, the traced half the `trace.*` ones, and their
/// difference is what telemetry costs.
fn per_layer(
    w: &Workload,
    seed: u64,
    seconds: f64,
    tmp: &Path,
) -> Result<(RunReport, Vec<Metric>), String> {
    let phases = Phases::measured(w.warm, seconds / 2.0);
    let mut report = run::run(w, seed, phases, tmp, None)?;
    let obs = ObsOptions {
        metrics_dir: tmp.join("obs"),
        trace_capacity: tracing::TRACE_CAPACITY,
    };
    let traced = run::run(w, seed, phases, tmp, Some(obs.clone()))?;
    report.violations.extend(traced.violations);
    report.attempted += traced.attempted;
    report.failed += traced.failed;

    let mut metrics = std::mem::take(&mut report.layers);
    metrics.extend(tracing::reduce(&obs.metrics_dir, w.n)?);
    let overhead = |name: &str| {
        let plain = value_of(&report.end_to_end, name);
        100.0 * (value_of(&traced.end_to_end, name) - plain) / plain
    };
    metrics.push(Metric::new(
        "trace.overhead_p50_pct",
        overhead("commit_p50_ms"),
        "%",
    ));
    metrics.push(Metric::new(
        "trace.overhead_cpu_pct",
        overhead("cpu_us_per_req"),
        "%",
    ));
    metrics.extend(layers::probe_all(tmp).map_err(|e| format!("layer probes: {e}"))?);
    Ok((report, metrics))
}

/// Orders `metrics` as `declared` and checks nothing is missing, extra,
/// mis-united or not a number.
fn conform(metrics: Vec<Metric>, declared: &[(&str, &str)], bad: &mut Vec<String>) -> Vec<Metric> {
    let mut out = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        match metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit && m.value.is_finite() => out.push(m.clone()),
            Some(m) => bad.push(format!(
                "{name} = {} {} is not a finite {unit}",
                m.value, m.unit
            )),
            None => bad.push(format!("{name} was not measured")),
        }
    }
    if metrics.len() != declared.len() {
        bad.push(format!(
            "{} metrics measured, {} declared",
            metrics.len(),
            declared.len()
        ));
    }
    out
}

fn single(w: &Workload, args: &HashMap<&str, &str>) -> Result<ExitCode, String> {
    let seed: u64 = number(args, "seed", 1)?;
    let seconds: f64 = number(args, "seconds", 30.0)?;
    let trace: u8 = number(args, "trace", 0)?;
    if !(1.0..=60.0).contains(&seconds) || trace > 1 {
        return Err("--seconds is 1 to 60 and --trace is 0 or 1".into());
    }
    if w.one_cpu && std::env::var_os(ONE_CPU_ENV).is_none() && allowed_cpus().len() > 1 {
        let why = confine_to_one_cpu();
        println!("{}: NOT confined to one CPU ({why})", w.name);
    }
    println!("{}: {}", w.name, w.why);
    if !w.gated {
        println!(
            "{}: machine-bound, so not listed in BENCHMARK.json: its numbers follow the host",
            w.name
        );
    }
    println!("{}, cpus {:?}", fingerprint(seed), allowed_cpus());
    println!(
        "network: loopback TCP, no injected link delay; latency is timers plus processor time"
    );
    let tmp = scratch_dir(w.name).map_err(|e| format!("scratch directory: {e}"))?;
    let measured = if trace == 0 {
        end_to_end(w, seed, seconds, &tmp)
    } else {
        per_layer(w, seed, seconds, &tmp)
    };
    if let (Some(path), Ok((report, _))) = (args.get("spans"), &measured) {
        write_spans(path, report).map_err(|e| format!("--spans {path}: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let (mut report, metrics) = measured?;

    let declared: Vec<(&str, &str)> = if trace == 0 {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    } else {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    };
    let metrics = conform(metrics, &declared, &mut report.violations);
    for m in &metrics {
        println!("{} {} = {} {}", w.name, m.name, m.value, m.unit);
    }
    for v in &report.violations {
        println!("VIOLATION {}: {v}", w.name);
    }
    let correct = report.violations.is_empty();
    println!(
        "{}",
        result_line(correct, report.attempted.max(1), report.failed, &metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| {
        let known = ["workload", "seed", "seconds", "trace", "spans", "repeat"];
        if let Some(key) = args.keys().find(|k| !known.contains(k)) {
            return Err(format!("unknown option --{key}"));
        }
        match args.get("workload") {
            Some(name) => {
                let w = Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
                single(w, &args)
            }
            None => suite::run_set(
                number(&args, "repeat", 1)?,
                number(&args, "seed", 1)?,
                number(&args, "seconds", 30)?,
            ),
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("yardstick: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_are_key_value_pairs() {
        let argv: Vec<String> = ["--workload", "wire4", "--seed", "9"]
            .map(String::from)
            .to_vec();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args["workload"], "wire4");
        assert_eq!(number(&args, "seed", 1u64), Ok(9));
        assert_eq!(number(&args, "seconds", 30.0), Ok(30.0));
        assert!(number::<u64>(&parse_args(&argv[..2]).unwrap(), "workload", 0).is_err());
        assert!(parse_args(&argv[..3]).is_err());
        assert!(parse_args(&["wire4".to_string(), "x".to_string()]).is_err());
    }

    #[test]
    fn cpu_lists_parse_as_the_kernel_prints_them() {
        assert_eq!(parse_cpu_list("0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list(" 0,2-4"), [0, 2, 3, 4]);
        assert_eq!(parse_cpu_list("7"), [7]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn launches_fold_into_their_interquartile_mean() {
        let launch = |p50: f64, rps: f64| RunReport {
            end_to_end: vec![
                Metric::new("commit_p50_ms", p50, "ms"),
                Metric::new("sat_goodput_rps", rps, "req/s"),
            ],
            ..RunReport::default()
        };
        // Five launches: the fastest and the slowest are left out.
        let launches = [
            launch(2.0, 150.0),
            launch(9.0, 10.0),
            launch(2.2, 140.0),
            launch(1.0, 160.0),
            launch(2.4, 130.0),
        ];
        let folded = midmean_over_launches(&launches);
        assert_eq!(folded[0].name, "commit_p50_ms");
        assert!((folded[0].value - 2.2).abs() < 1e-12);
        assert!((folded[1].value - 140.0).abs() < 1e-12);
        assert_eq!(midmean_over_launches(&launches[..1])[0].value, 2.0);
        assert!(midmean_over_launches(&[]).is_empty());
        assert_ne!(launch_seed(7, 0), launch_seed(7, 1));
        assert_eq!(launch_seed(7, 0), 7);
    }

    #[test]
    fn conform_orders_and_reports_every_mismatch() {
        let declared = [("a", "ms"), ("b", "us")];
        let measured = vec![Metric::new("b", 2.0, "us"), Metric::new("a", 1.0, "ms")];
        let mut bad = Vec::new();
        let out = conform(measured, &declared, &mut bad);
        assert_eq!(
            out.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert!(bad.is_empty());
        let measured = vec![Metric::new("a", f64::NAN, "ms"), Metric::new("c", 1.0, "s")];
        conform(measured, &declared, &mut bad);
        assert_eq!(bad.len(), 2, "{bad:?}");
        let workload_names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert!(workload_names.iter().all(|n| USAGE.contains(n)));
    }
}
