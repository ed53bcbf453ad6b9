//! The metric tables `BENCHMARK.json` declares, as the program knows
//! them. A run reports exactly these names and units, and a unit test
//! keeps the JSON file and these tables equal.

/// `(name, unit, better, bound)`: the metrics a client of the cluster
/// sees, reported by every workload with `--trace 0`. `bound` is the
/// share of the parent's median by which a workload's median may worsen
/// before a change is rejected; `BENCHMARK.json` allows one per metric,
/// for all the workloads it lists. Each is at least three times the
/// widest run-to-run spread (inter-quartile distance over median, ten
/// seeds) that either listed workload showed on the 2-core baseline host,
/// which drifts: `tree21` read 1-2% in one quarter of an hour and 5-6% on
/// the latency and CPU metrics in the next. `setup_s`, a median of 70 ms
/// launches, has the widest the format allows.
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("setup_s", "s", "lower", 0.25),
    ("commit_p50_ms", "ms", "lower", 0.2),
    ("commit_p99_ms", "ms", "lower", 0.2),
    ("delivered_share", "ratio", "higher", 0.03),
    ("sat_goodput_rps", "req/s", "higher", 0.15),
    ("cpu_us_per_req", "us", "lower", 0.2),
    ("qc_inclusion", "ratio", "higher", 0.01),
    ("rss_peak_mb", "MB", "lower", 0.15),
];

/// `(name, unit, better)`: the metrics of single layers, named
/// `<module>.<metric>`, reported with `--trace 1`. A metric that does not
/// apply to a workload (WAL syncs without a WAL) reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 67] = [
    // Request stages in `base`, from the generator's stamps.
    ("loadgen.late_p99_us", "us", "lower"),
    ("loadgen.late_max_ms", "ms", "lower"),
    ("loadgen.stall_max_ms", "ms", "lower"),
    ("loadgen.resubmitted", "count", "lower"),
    ("ingress.admit_rtt_p50_us", "us", "lower"),
    ("ingress.admit_rtt_p99_us", "us", "lower"),
    ("consensus.admit_to_commit_p50_ms", "ms", "lower"),
    ("ingress.server_commit_mean_ms", "ms", "lower"),
    ("ingress.push_delay_mean_ms", "ms", "lower"),
    // Counters of the joined cluster.
    ("ingress.admitted_share", "ratio", "higher"),
    ("ingress.shed_share", "ratio", "lower"),
    ("ingress.evicted", "count", "lower"),
    ("ingress.abandoned_share", "ratio", "lower"),
    ("ingress.depth_end", "count", "lower"),
    ("consensus.views_per_s", "1/s", "higher"),
    ("consensus.failed_view_share", "ratio", "lower"),
    ("consensus.reqs_per_block", "count", "higher"),
    ("consensus.qc_size_mean", "count", "higher"),
    ("consensus.follower_lag_blocks", "count", "lower"),
    ("core.second_chances_per_view", "count", "lower"),
    ("core.clean_view_share", "ratio", "higher"),
    ("transport.frames_per_block", "count", "lower"),
    ("transport.bytes_per_req", "B", "lower"),
    ("transport.reconnects", "count", "lower"),
    ("transport.lane_evicted", "count", "lower"),
    ("transport.dups_dropped", "count", "lower"),
    ("transport.faults_dropped", "count", "lower"),
    ("runtime.busy_share_max", "ratio", "lower"),
    ("runtime.charged_share", "ratio", "higher"),
    ("runtime.msgs_per_view", "count", "lower"),
    ("runtime.timers_per_view", "count", "lower"),
    ("loadgen.busy_acks", "count", "lower"),
    ("loadgen.duplicate_acks", "count", "lower"),
    // The traced launch, reduced with `iniva_obs::Timeline`.
    ("trace.timer_share", "ratio", "lower"),
    ("trace.network_share", "ratio", "lower"),
    ("trace.verify_share", "ratio", "lower"),
    ("trace.failed_span_share", "ratio", "lower"),
    ("trace.verify_wall_p50_us", "us", "lower"),
    ("trace.timer_lag_p99_us", "us", "lower"),
    ("trace.handler_p99_us", "us", "lower"),
    ("trace.wal_syncs_per_block", "count", "lower"),
    ("trace.views_total", "count", "higher"),
    ("trace.views_failed", "count", "lower"),
    ("trace.commits", "count", "higher"),
    ("trace.events_recorded", "count", "lower"),
    ("trace.events_dropped", "count", "lower"),
    ("trace.overhead_p50_pct", "%", "lower"),
    ("trace.overhead_cpu_pct", "%", "lower"),
    // Layer probes: one public call in a timed loop.
    ("crypto.keygen_ms", "ms", "lower"),
    ("crypto.sign_us", "us", "lower"),
    ("crypto.verify_us", "us", "lower"),
    ("crypto.verify_batch8_us", "us", "lower"),
    ("crypto.combine_us", "us", "lower"),
    ("crypto.agg_decode_us", "us", "lower"),
    ("net.encode_ns", "ns", "lower"),
    ("net.decode_ns", "ns", "lower"),
    ("ingress.wire_decode_ns", "ns", "lower"),
    ("ingress.submit_ns", "ns", "lower"),
    ("ingress.draft_ns_per_req", "ns", "lower"),
    ("ingress.settle_ns_per_req", "ns", "lower"),
    ("transport.frame_parse_ns", "ns", "lower"),
    ("transport.dedup_ns", "ns", "lower"),
    ("storage.append_us", "us", "lower"),
    ("storage.append_batch8_us", "us", "lower"),
    ("storage.recover_ms", "ms", "lower"),
    ("tree.build_us", "us", "lower"),
    ("core.rewards_us", "us", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` sits at the repository root, above whichever
    /// manifest built this test.
    fn benchmark_json() -> String {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                return text;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        }
    }

    /// The objects of the JSON array under `key`, one string each.
    fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let list = json.split_once(&format!("\"{key}\": [")).unwrap().1;
        let list = list.split_once(']').unwrap().0;
        list.split('{').skip(1).collect()
    }

    /// The value of `key` in one flat object: a string without its quotes
    /// (none here holds an escape), or a number.
    fn field<'a>(object: &'a str, key: &str) -> &'a str {
        let rest = object.split_once(&format!("\"{key}\": ")).unwrap().1;
        match rest.strip_prefix('"') {
            Some(string) => string.split_once('"').unwrap().0,
            None => rest.split([',', '}']).next().unwrap(),
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let json = benchmark_json();
        let e2e: Vec<_> = objects(&json, "end_to_end")
            .iter()
            .map(|o| {
                (
                    field(o, "name").to_string(),
                    field(o, "unit").to_string(),
                    field(o, "better").to_string(),
                    field(o, "bound").parse::<f64>().unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_string(), u.to_string(), b.to_string(), bound))
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<_> = objects(&json, "per_layer")
            .iter()
            .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
            .collect();
        assert_eq!(layers, PER_LAYER);

        let workloads: Vec<_> = objects(&json, "workloads")
            .iter()
            .map(|o| (field(o, "name"), field(o, "why")))
            .collect();
        let want: Vec<_> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(workloads, want);
    }

    #[test]
    fn names_and_whys_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }
}
