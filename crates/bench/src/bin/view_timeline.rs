//! Merges per-node consensus trace dumps (`trace-<id>.jsonl`, written by
//! `live_cluster --metrics-dir`, the observed cluster harnesses, or
//! `resilience_live --trace`) into one cross-replica per-view timeline
//! and reports where the time went: who led each view, when each replica
//! entered, and how the view's span splits into network, verify and
//! timer wait.
//!
//! ```sh
//! cargo run --release -p iniva-bench --bin view_timeline -- <dump-dir>
//! cargo run --release -p iniva-bench --bin view_timeline -- <dump-dir> --views
//! cargo run --release -p iniva-bench --bin view_timeline -- <dump-dir> --check
//! ```
//!
//! `--views` prints the per-view table on top of the summary; its
//! `silent` column counts the known-silent members (absent from the last
//! `n` QCs) the view's root gave a 2ND-CHANCE but did not wait for. `--check`
//! is the CI smoke gate: exit 0 only when every dump parses, at least
//! one view committed, and every replica that was alive near the end of
//! the run (events in the last 20% of the traced span) observed at
//! least one commit — a revived node that caught up via state transfer
//! passes, a stuck one fails. Any two dumps that report different block
//! hashes at one committed height fail it, naming both replicas and the
//! height: the agreement check, which reads the traces alone and so holds
//! for the dumps of one process and of many (`live_cluster --config --id`)
//! alike. It also reads every `metrics-<id>.json`
//! beside the traces and fails when a replica's chain retention exceeds
//! its bound: `chain.retained_commits` above [`RETAINED_COMMITS`], or
//! `chain.retained_blocks` above [`RETAINED_BLOCKS_BOUND`].
//! `--max-failed-pct <pct>` tightens the gate with a ceiling on the
//! failed-view share (the resilience regression gate: the Carousel fix
//! holds the 4-crash cell under 25%).

use iniva_consensus::chain::RETAINED_COMMITS;
use iniva_obs::json::{field_u64, parse_flat_object};
use iniva_obs::timeline::read_dumps;
use iniva_obs::trace::EventKind;
use iniva_obs::{check_agreement, NodeDump, Timeline, ViewOutcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Ceiling on a replica's block store: the retention window plus as many
/// again for the uncommitted blocks and forks above its floor (a failed
/// view leaves one fork; a healthy replica holds two in flight).
const RETAINED_BLOCKS_BOUND: u64 = 2 * RETAINED_COMMITS as u64;

/// Collects `<prefix>*<suffix>` files under `dir`, ascending by name.
fn dump_files(dir: &Path, prefix: &str, suffix: &str) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(suffix))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// The retention gate over every `metrics-*.json` in `dir`: each must
/// parse and report both `chain.retained_*` gauges within their bounds.
fn check_retention(dir: &Path) -> Result<(), String> {
    let files = dump_files(dir, "metrics-", ".json").map_err(|e| e.to_string())?;
    if files.is_empty() {
        return Err(format!(
            "no metrics-*.json beside the traces in {}",
            dir.display()
        ));
    }
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        let pairs = parse_flat_object(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        for (gauge, bound) in [
            ("chain.retained_commits", RETAINED_COMMITS as u64),
            ("chain.retained_blocks", RETAINED_BLOCKS_BOUND),
        ] {
            let held = field_u64(&pairs, gauge).map_err(|e| format!("{}: {e}", f.display()))?;
            if held > bound {
                return Err(format!(
                    "{}: {gauge} = {held} exceeds its bound {bound}",
                    f.display()
                ));
            }
        }
    }
    Ok(())
}

fn outcome_label(o: ViewOutcome) -> &'static str {
    match o {
        ViewOutcome::Advanced => "advanced",
        ViewOutcome::FailedNoProposal => "FAILED no-proposal",
        ViewOutcome::FailedNoQuorum => "FAILED no-quorum",
        ViewOutcome::FailedAfterQc => "FAILED after-QC",
        ViewOutcome::Unknown => "(window end)",
    }
}

fn print_views(tl: &Timeline) {
    println!(
        "{:>6} {:>7} {:>10} {:>9} {:>9} {:>9} {:>8} {:>8} {:>7}  outcome",
        "view", "leader", "span ms", "net ms", "verify", "timer", "entered", "commits", "silent"
    );
    for r in &tl.views {
        let b = r.budget();
        let ms = |ns: u64| ns as f64 / 1e6;
        println!(
            "{:>6} {:>7} {:>10.1} {:>9.1} {:>9.1} {:>9.1} {:>8} {:>8} {:>7}  {}",
            r.view,
            r.leader.map_or("?".into(), |l| l.to_string()),
            ms(b.span_ns),
            ms(b.network_ns),
            ms(b.verify_ns),
            ms(b.timer_ns),
            r.entered.len(),
            r.commits.len(),
            r.silent,
            outcome_label(r.outcome),
        );
    }
}

/// The CI gate: the dumps agree on every committed height they share, and
/// every parsed node that was still producing events in the last
/// `tail_fraction` of the traced span must have observed at least one
/// commit. Returns how many heights were compared across replicas.
fn check(dumps: &[NodeDump], tl: &Timeline, max_failed_pct: Option<f64>) -> Result<usize, String> {
    let agreed = check_agreement(dumps)?;
    if tl.views.iter().all(|r| r.commits.is_empty()) {
        return Err("no committed view anywhere in the traces".into());
    }
    if let Some(ceiling) = max_failed_pct {
        let s = tl.summary();
        if s.views_total > 0 {
            let failed_pct = 100.0 * s.views_failed as f64 / s.views_total as f64;
            if failed_pct > ceiling {
                return Err(format!(
                    "failed-view share {failed_pct:.1}% ({}/{}) exceeds the {ceiling:.1}% ceiling",
                    s.views_failed, s.views_total
                ));
            }
        }
    }
    let span_end = dumps
        .iter()
        .flat_map(|d| d.events.iter().map(|e| e.at))
        .max()
        .unwrap_or(0);
    let tail_start = span_end.saturating_sub(span_end / 5);
    for d in dumps {
        let alive_at_end = d.events.iter().any(|e| e.at >= tail_start);
        if !alive_at_end {
            continue; // crashed and never revived: exempt
        }
        let committed = d
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Committed { .. }));
        if !committed {
            return Err(format!(
                "replica {} was alive at the end of the run but never observed a commit",
                d.node
            ));
        }
    }
    Ok(agreed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && (*i == 0 || args[i - 1] != "--max-failed-pct"))
        .map(|(_, a)| a.as_str())
        .unwrap_or(".");
    let want_views = args.iter().any(|a| a == "--views");
    let want_check = args.iter().any(|a| a == "--check");
    let max_failed_pct = args
        .iter()
        .position(|a| a == "--max-failed-pct")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse::<f64>()
                .unwrap_or_else(|_| panic!("--max-failed-pct wants a number, got '{v}'"))
        });

    let dumps = match read_dumps(Path::new(dir)) {
        Ok(dumps) => dumps,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let tl = Timeline::merge(&dumps);
    println!(
        "merged {} dumps from {dir} ({} views observed)",
        dumps.len(),
        tl.views.len()
    );
    for (node, off) in &tl.offsets_ns {
        if *off != 0 {
            println!(
                "  node {node}: clock offset {:+.3} ms applied",
                *off as f64 / 1e6
            );
        }
    }
    if want_views {
        print_views(&tl);
        println!();
    }
    print!("{}", tl.summary().render());

    if want_check {
        let checked = check(&dumps, &tl, max_failed_pct)
            .and_then(|agreed| check_retention(Path::new(dir)).map(|()| agreed));
        match checked {
            Ok(agreed) => println!("check: OK ({agreed} committed heights agree across replicas)"),
            Err(e) => {
                eprintln!("check: FAILED — {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
