//! Lock-free-on-the-hot-path metrics: counters, gauges and fixed-bucket
//! latency histograms behind a name-keyed registry.
//!
//! Registration takes a mutex (cold: once per series per process); every
//! update afterwards is a relaxed atomic on a handle the caller keeps, so
//! instrumented hot paths — message dispatch, signature folding, lane
//! pushes — never contend on the registry itself. Handles are cheap
//! `Arc` clones and stay valid for the life of the registry, including
//! across transport/replica restarts: a series registered under the same
//! name resolves to the same storage, which is what lets per-incarnation
//! components accumulate into one continuous series instead of silently
//! resetting on rebuild.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event count.
#[derive(Clone, Default, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the count. Only for mirroring an externally accumulated
    /// total (e.g. a legacy stats block) into the registry at dump time;
    /// instrumented code should use [`Counter::add`].
    #[inline]
    pub fn store(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (queue depth, peers connected, ...).
#[derive(Clone, Default, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the level to at least `v`.
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (inclusive, in nanoseconds) of the fixed histogram
/// buckets: a 1–2–5 ladder from 1µs to 300s, chosen so every latency this
/// system produces — sub-µs queue pushes to multi-second view timeouts —
/// lands within ~25% of a boundary. The last bucket is an overflow catch
/// for anything slower.
pub const BUCKET_BOUNDS_NS: [u64; 26] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
    30_000_000_000,
    60_000_000_000,
    120_000_000_000,
    300_000_000_000,
];

const NUM_BUCKETS: usize = BUCKET_BOUNDS_NS.len() + 1; // + overflow

/// A fixed-bucket latency histogram with exact count/sum/max and
/// bucket-resolution quantiles.
///
/// `record` is two relaxed atomics plus a branchless-ish bucket search on
/// a 26-entry const array — cheap enough for per-message paths. Quantiles
/// report the upper bound of the bucket holding the requested rank, so a
/// value recorded exactly at a bucket boundary is reported exactly
/// (`tests::quantiles_exact_at_bucket_boundaries`), and any value is
/// reported within one bucket (≤ ~2.5×) of its true position.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Records one sample in nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS.partition_point(|&b| b < ns);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(ns, Ordering::Relaxed);
        self.0.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (ns).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest sample (ns, exact).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean sample (ns, exact), 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0..=1.0`) at bucket resolution: the upper
    /// bound of the bucket containing the sample of rank `ceil(q·count)`,
    /// clamped to the recorded max (so no quantile ever exceeds a value
    /// actually seen). Returns 0 when empty; overflow-bucket ranks
    /// report the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i < BUCKET_BOUNDS_NS.len() {
                    BUCKET_BOUNDS_NS[i].min(self.max())
                } else {
                    // Overflow bucket has no upper bound; the recorded
                    // max is the tightest true statement we can make.
                    self.max()
                };
            }
        }
        self.max()
    }

    /// A consistent-enough snapshot of the distribution summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }
}

/// Summary statistics of a [`Histogram`] at a point in time (all ns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum.
    pub sum: u64,
    /// Exact max.
    pub max: u64,
    /// Exact mean.
    pub mean: u64,
    /// Median at bucket resolution.
    pub p50: u64,
    /// 99th percentile at bucket resolution.
    pub p99: u64,
    /// 99.9th percentile at bucket resolution.
    pub p999: u64,
}

enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A name-keyed collection of metric series shared by every subsystem of
/// one node.
///
/// Names follow `<subsystem>.<series>` (`transport.lane_evicted`,
/// `runtime.timer_lag_ns`, `wal.fsync_ns`, ...); histogram names carry
/// their unit as a suffix. Cloning is cheap (`Arc`) and all clones see
/// the same series, so a registry created once per node can be handed to
/// each transport/replica incarnation in turn.
#[derive(Clone, Default)]
pub struct Registry {
    series: Arc<Mutex<BTreeMap<String, Series>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it at zero on first
    /// use. Panics if `name` is already a gauge or histogram — series
    /// names are a per-node namespace and a type clash is a bug.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.series.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Series::Counter(Counter::default()))
        {
            Series::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// The gauge registered under `name` (see [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.series.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Series::Gauge(Gauge::default()))
        {
            Series::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// The histogram registered under `name` (see [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.series.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Series::Histogram(Histogram::default()))
        {
            Series::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// All series flattened to `(name, value)` pairs, histogram summaries
    /// expanded with `.count/.mean/.p50/.p99/.p999/.max` suffixes. Sorted
    /// by name (the map is a `BTreeMap`) so dumps diff cleanly.
    pub fn flatten(&self) -> Vec<(String, u64)> {
        let map = self.series.lock().unwrap();
        let mut out = Vec::with_capacity(map.len());
        for (name, series) in map.iter() {
            match series {
                Series::Counter(c) => out.push((name.clone(), c.get())),
                Series::Gauge(g) => out.push((name.clone(), g.get())),
                Series::Histogram(h) => {
                    let s = h.snapshot();
                    out.push((format!("{name}.count"), s.count));
                    out.push((format!("{name}.mean"), s.mean));
                    out.push((format!("{name}.p50"), s.p50));
                    out.push((format!("{name}.p99"), s.p99));
                    out.push((format!("{name}.p999"), s.p999));
                    out.push((format!("{name}.max"), s.max));
                }
            }
        }
        out
    }

    /// The flattened series as one flat JSON object (the repo's bench
    /// files use the same flat-number convention).
    pub fn to_json(&self) -> String {
        let flat = self.flatten();
        let mut s = String::from("{\n");
        for (i, (name, v)) in flat.iter().enumerate() {
            s.push_str(&format!(
                "  \"{name}\": {v}{}\n",
                if i + 1 < flat.len() { "," } else { "" }
            ));
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("a.count");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a.count").get(), 5, "same name, same storage");
        let g = r.gauge("a.depth");
        g.set(7);
        g.raise(3);
        assert_eq!(g.get(), 7, "raise never lowers");
        g.raise(11);
        assert_eq!(r.gauge("a.depth").get(), 11);
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn type_clash_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn quantiles_exact_at_bucket_boundaries() {
        // Every recorded value sits exactly on a bucket upper bound, so
        // every quantile must come back exactly.
        let h = Histogram::default();
        for &b in &BUCKET_BOUNDS_NS {
            h.record(b);
        }
        let n = BUCKET_BOUNDS_NS.len() as f64;
        for (i, &b) in BUCKET_BOUNDS_NS.iter().enumerate() {
            // rank i+1 => q in ((i)/n, (i+1)/n]; probe the midpoint.
            let q = (i as f64 + 0.5) / n;
            assert_eq!(h.quantile(q), b, "quantile {q} should be exactly {b}");
        }
        assert_eq!(h.quantile(0.0), BUCKET_BOUNDS_NS[0], "q=0 is the min bound");
        assert_eq!(h.quantile(1.0), *BUCKET_BOUNDS_NS.last().unwrap());
    }

    #[test]
    fn exact_stats_and_overflow() {
        let h = Histogram::default();
        h.record(10);
        h.record(400_000_000_000); // beyond the last bound -> overflow bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 400_000_000_010);
        assert_eq!(h.max(), 400_000_000_000);
        assert_eq!(
            h.quantile(1.0),
            400_000_000_000,
            "overflow ranks report the exact max"
        );
        assert_eq!(h.quantile(0.25), BUCKET_BOUNDS_NS[0]);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn quantile_monotone_and_bounded(
            samples in collection::vec(0u64..500_000_000_000, 1..200),
            qa in 0.0f64..=1.0,
            qb in 0.0f64..=1.0,
        ) {
            let h = Histogram::default();
            for &s in &samples {
                h.record(s);
            }
            let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            prop_assert!(
                h.quantile(lo) <= h.quantile(hi),
                "quantile must be monotone: q{lo} -> {} > q{hi} -> {}",
                h.quantile(lo), h.quantile(hi)
            );
            // Every quantile is bounded by the true extremes' buckets.
            prop_assert!(h.quantile(1.0) >= *samples.iter().max().unwrap());
            prop_assert_eq!(h.count(), samples.len() as u64);
        }
    }

    #[test]
    fn flatten_expands_histograms_sorted() {
        let r = Registry::new();
        r.counter("z.last").inc();
        r.histogram("a.lat_ns").record(1_000);
        let flat = r.flatten();
        let names: Vec<&str> = flat.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "a.lat_ns.count",
                "a.lat_ns.mean",
                "a.lat_ns.p50",
                "a.lat_ns.p99",
                "a.lat_ns.p999",
                "a.lat_ns.max",
                "z.last",
            ]
        );
        let json = r.to_json();
        assert!(json.contains("\"a.lat_ns.p99\": 1000"), "{json}");
        assert!(json.contains("\"z.last\": 1"), "{json}");
    }
}
