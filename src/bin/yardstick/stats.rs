//! Order statistics, `/proc` readers and the result-line format.

/// Samples a percentile needs behind it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Fewest blocks [`blocked_percentile`] cuts a sample into.
const MIN_BLOCKS: usize = 5;

/// The interquartile mean, over consecutive blocks of `in_order`, of each
/// block's percentile `p`. `in_order` is in arrival order, so a block is a
/// stretch of time: one stall lifts the tail of one block, not of the
/// run, and the quarter of the blocks with the highest tails is left
/// out. The middle half is averaged, not reduced to its median, because
/// commit latency comes in whole views: where the percentile sits at the
/// edge between k and k + 1 views, block tails take one of two values,
/// and a median jumps between them where a mean moves with their shares.
/// Blocks hold `block` samples, or fewer when that would leave less than
/// [`MIN_BLOCKS`] of them.
pub fn blocked_percentile(in_order: &[u64], p: f64, block: usize) -> f64 {
    let n = in_order.len();
    let blocks = (n / block).max(MIN_BLOCKS).min(n.max(1));
    let tails: Vec<f64> = (0..blocks)
        .map(|i| {
            let mut b = in_order[i * n / blocks..(i + 1) * n / blocks].to_vec();
            b.sort_unstable();
            percentile(&b, p) as f64
        })
        .collect();
    midmean(&tails)
}

/// The interquartile mean: the mean of what is left when a quarter of the
/// values (rounded down) is dropped from each end; 0 when empty. It moves
/// smoothly where the values come from two modes, and one outlier in
/// five does not move it at all.
pub fn midmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Whether `n` samples leave at least [`TAIL_SAMPLES`] beyond percentile
/// `p` (the sample-count rule: p99 needs 1000 samples).
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= TAIL_SAMPLES
}

/// Median of unordered values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// `part / whole`, 0 when there is no whole.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Process CPU time so far (user + system, every thread) in microseconds,
/// from `/proc/self/stat`. The tick is the Linux `USER_HZ` of 100.
pub fn process_cpu_us() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The last line of a run: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads a [`result_line`] back: `(correct, [(name, value)])`.
pub fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for entry in metrics.split("\"}").filter(|e| e.contains("\"value\": ")) {
        let (head, tail) = entry.split_once("\": {\"value\": ")?;
        let name = head.rsplit('"').next()?;
        let value = tail.split(',').next()?.parse().ok()?;
        out.push((name.to_string(), value));
    }
    Some((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&v, 100.0), 1000);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn blocked_percentile_is_the_interquartile_mean_of_block_tails() {
        // Eight blocks of 1000; one holds a stall, which the plain
        // percentile of the run reports and this does not.
        let mut v: Vec<u64> = (0..8000).map(|i| 100 + i % 10).collect();
        v[1500..1600].fill(9_000);
        assert_eq!(blocked_percentile(&v, 99.0, 1000), 109.0);
        let mut whole = v.clone();
        whole.sort_unstable();
        assert_eq!(percentile(&whole, 99.0), 9_000);
        // Block tails of two values: the result moves with their shares.
        let two = |high_blocks: usize| {
            let v: Vec<u64> = (0..8000)
                .map(|i| if i / 1000 < high_blocks { 500 } else { 400 })
                .collect();
            blocked_percentile(&v, 99.0, 1000)
        };
        assert_eq!(
            (two(2), two(3), two(4), two(6)),
            (400.0, 425.0, 450.0, 500.0)
        );
        // A short sample is still cut into five blocks.
        let short: Vec<u64> = (0..1500).map(|i| i / 300).collect();
        assert_eq!(blocked_percentile(&short, 50.0, 1000), 2.0);
        assert_eq!(blocked_percentile(&[], 99.0, 1000), 0.0);
        assert_eq!(blocked_percentile(&[7], 99.0, 1000), 7.0);
    }

    #[test]
    fn midmean_drops_a_quarter_from_each_end() {
        assert_eq!(midmean(&[5.0, 1.0, 100.0, 3.0, 4.0]), 4.0);
        assert_eq!(midmean(&[2.0, 4.0]), 3.0);
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[]), 0.0);
    }

    #[test]
    fn sample_count_rule_wants_ten_beyond() {
        assert!(supports(1000, 99.0), "990th of 1000 leaves ten beyond");
        assert!(!supports(999, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = [
            Metric::new("commit_p50_ms", 86.125, "ms"),
            Metric::new("ingress.admit_rtt_p50_us", 0.0, "us"),
        ];
        let line = result_line(true, 12, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "));
        let (correct, parsed) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(
            parsed,
            [
                ("commit_p50_ms".to_string(), 86.125),
                ("ingress.admit_rtt_p50_us".to_string(), 0.0)
            ]
        );
        assert!(!parse_result_line(&result_line(false, 1, 1, &[])).unwrap().0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        // Burn CPU until the 10 ms tick advances (at most a wall second).
        let (before, started) = (process_cpu_us(), std::time::Instant::now());
        while process_cpu_us() == before && started.elapsed().as_secs() < 1 {
            std::hint::black_box(before);
        }
        assert!(process_cpu_us() > before);
    }
}
