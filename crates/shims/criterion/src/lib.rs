//! Offline drop-in shim for the subset of the `criterion` API this
//! workspace uses: `criterion_group!` / `criterion_main!`, benchmark groups
//! with `sample_size`, and `Bencher::iter`.
//!
//! Measurement model: each benchmark runs one warm-up batch and then
//! `sample_size` timed batches, printing mean and min wall-clock time per
//! iteration. No statistics, plots or baselines — enough to compare costs
//! locally and to calibrate the simulator's `CostModel`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The benchmark driver handed to `criterion_group!` functions.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            _parent: self,
            sample_size: 10,
        }
    }
}

/// A named group of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_bench(name, self.sample_size, f);
        self
    }

    /// Ends the group (printing nothing extra).
    pub fn finish(self) {}
}

fn run_bench<F: FnMut(&mut Bencher)>(name: &str, samples: usize, mut f: F) {
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    // Warm-up and per-iteration calibration: aim for ~20 ms per sample.
    f(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));
    let target = Duration::from_millis(20);
    b.iters = (target.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut mean = Duration::ZERO;
    let mut best = Duration::MAX;
    for _ in 0..samples {
        f(&mut b);
        let per = b.elapsed / b.iters as u32;
        mean += per;
        best = best.min(per);
    }
    mean /= samples as u32;
    println!("  {name:<40} mean {mean:>12.2?}   min {best:>12.2?}");
}

/// Times closures for one benchmark sample.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` executions of `f`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Declares a group function: `criterion_group!(benches, bench_a, bench_b)`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_demo(c: &mut Criterion) {
        let mut g = c.benchmark_group("demo");
        g.sample_size(2);
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.finish();
    }

    criterion_group!(demo_group, bench_demo);

    #[test]
    fn group_macro_produces_runnable_fn() {
        demo_group();
    }
}
