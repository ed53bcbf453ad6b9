//! Reduces the dumps of a traced launch (`ClusterBuilder::observe`) to the
//! `trace.*` metrics, with the system's own `iniva_obs::Timeline`.

use crate::stats::{ratio, Metric};
use iniva_obs::json::parse_flat_object;
use iniva_obs::timeline::parse_dump;
use iniva_obs::Timeline;
use std::path::Path;

/// Ring size per node: a machine-bound 4-replica launch records a few
/// hundred thousand events, and the ring only grows as it fills.
pub const TRACE_CAPACITY: usize = 1 << 20;

/// The `trace.*` metrics of the `n`-replica launch that dumped into `dir`.
pub fn reduce(dir: &Path, n: usize) -> Result<Vec<Metric>, String> {
    let read =
        |name: String| std::fs::read_to_string(dir.join(&name)).map_err(|e| format!("{name}: {e}"));
    let mut dumps = Vec::with_capacity(n);
    let mut registries = Vec::with_capacity(n);
    for id in 0..n {
        dumps.push(parse_dump(&read(format!("trace-{id}.jsonl"))?)?);
        registries.push(parse_flat_object(&read(format!("metrics-{id}.json"))?)?);
    }
    // A series a node never registered (no WAL, no timer fired) reads 0.
    let series = |node: usize, key: &str| {
        registries[node]
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or(0)
    };
    let max_of = |key: &str| (0..n).map(|i| series(i, key)).max().unwrap_or(0);
    let mean_of = |key: &str| (0..n).map(|i| series(i, key)).sum::<u64>() as f64 / n as f64;

    let s = Timeline::merge(&dumps).summary();
    let (adv, failed) = (s.advanced_budget, s.failed_budget);
    let recorded: u64 = dumps.iter().map(|d| d.recorded).sum();
    Ok(vec![
        Metric::new(
            "trace.timer_share",
            ratio(adv.timer_ns, adv.span_ns),
            "ratio",
        ),
        Metric::new(
            "trace.network_share",
            ratio(adv.network_ns, adv.span_ns),
            "ratio",
        ),
        Metric::new(
            "trace.verify_share",
            ratio(adv.verify_ns, adv.span_ns),
            "ratio",
        ),
        Metric::new(
            "trace.failed_span_share",
            ratio(failed.span_ns, adv.span_ns + failed.span_ns),
            "ratio",
        ),
        Metric::new(
            "trace.verify_wall_p50_us",
            mean_of("consensus.verify_wall_ns.p50") / 1e3,
            "us",
        ),
        Metric::new(
            "trace.timer_lag_p99_us",
            max_of("runtime.timer_lag_ns.p99") as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "trace.handler_p99_us",
            max_of("runtime.handler_ns.p99") as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "trace.wal_syncs_per_block",
            ratio(series(0, "wal.syncs"), series(0, "consensus.commits")),
            "count",
        ),
        Metric::new("trace.views_total", s.views_total as f64, "count"),
        Metric::new("trace.views_failed", s.views_failed as f64, "count"),
        Metric::new("trace.commits", s.commits as f64, "count"),
        Metric::new("trace.events_recorded", recorded as f64, "count"),
        Metric::new("trace.events_dropped", s.dropped_events as f64, "count"),
    ])
}
