//! A tiny, dependency-free stand-in for the subset of the `criterion` API
//! this workspace's benches use (`criterion_group!` / `criterion_main!`,
//! `Criterion::benchmark_group`, `bench_with_input`, `bench_function`,
//! `Bencher::iter`).
//!
//! The build environment has no access to crates.io, so the real criterion
//! cannot be vendored. This shim measures wall-clock time (warm-up, then
//! timed samples), prints a `name/param  mean ± stddev (n samples)` line per
//! benchmark, and — when the `BENCH_JSON` environment variable names a file
//! — appends one JSON object per benchmark (mean, median and stddev of the
//! per-sample means) so tooling (see `scripts/bench_dump.sh`) can assemble
//! `BENCH_core.json` without parsing human-oriented output.

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Re-export point for parity with criterion's `black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Benchmark identifier: a function name plus a parameter rendering.
pub struct BenchmarkId {
    name: String,
    param: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("natural_join", 128)` renders as `natural_join/128`.
    pub fn new(name: impl Into<String>, param: impl Display) -> BenchmarkId {
        BenchmarkId {
            name: name.into(),
            param: param.to_string(),
        }
    }
}

/// The timing driver handed to benchmark closures.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    samples: usize,
    result: Option<Sample>,
}

#[derive(Clone, Copy)]
struct Sample {
    mean_ns: f64,
    median_ns: f64,
    stddev_ns: f64,
    samples: usize,
    iters: u64,
}

impl Bencher {
    /// Run `f` repeatedly: warm up for the configured warm-up window, then
    /// collect timed samples until the measurement window closes (at least
    /// one sample, at most the configured sample count).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: at least one call, then until the window closes.
        let warm_start = Instant::now();
        loop {
            black_box(f());
            if warm_start.elapsed() >= self.warm_up {
                break;
            }
        }
        // One calibration call to pick an iteration count per sample.
        let t0 = Instant::now();
        black_box(f());
        let per_call = t0.elapsed().max(Duration::from_nanos(1));
        let budget = self.measurement.max(per_call);
        let per_sample = (budget.as_nanos() / self.samples.max(1) as u128).max(1);
        let iters_per_sample = (per_sample / per_call.as_nanos()).clamp(1, 1_000_000) as u64;

        let mut means = Vec::with_capacity(self.samples);
        let mut total_iters = 0u64;
        let deadline = Instant::now() + budget;
        for _ in 0..self.samples.max(1) {
            let s = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            means.push(s.elapsed().as_nanos() as f64 / iters_per_sample as f64);
            total_iters += iters_per_sample;
            if Instant::now() >= deadline {
                break;
            }
        }
        let n = means.len() as f64;
        let mean = means.iter().sum::<f64>() / n;
        let var = means.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / n;
        self.result = Some(Sample {
            mean_ns: mean,
            median_ns: median(&mut means),
            stddev_ns: var.sqrt(),
            samples: means.len(),
            iters: total_iters,
        });
    }
}

/// A named group of benchmarks sharing timing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    warm_up: Duration,
    measurement: Duration,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Warm-up window before sampling starts.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Total measurement window shared by the samples.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Benchmark `f` under `id`, passing `input` through.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}/{}", self.name, id.name, id.param);
        let mut bencher = Bencher {
            warm_up: self.warm_up,
            measurement: self.measurement,
            samples: self.samples,
            result: None,
        };
        f(&mut bencher, input);
        self.criterion.report(&full, bencher.result);
        self
    }

    /// Benchmark `f` under a plain string id.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        let mut bencher = Bencher {
            warm_up: self.warm_up,
            measurement: self.measurement,
            samples: self.samples,
            result: None,
        };
        f(&mut bencher);
        self.criterion.report(&full, bencher.result);
        self
    }

    /// Close the group (parity with criterion; all reporting is immediate).
    pub fn finish(&mut self) {}
}

/// The top-level benchmark driver.
pub struct Criterion {
    json_out: Option<std::path::PathBuf>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            json_out: std::env::var_os("BENCH_JSON").map(Into::into),
        }
    }
}

impl Criterion {
    /// Open a benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            criterion: self,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_millis(1000),
            samples: 10,
        }
    }

    /// Benchmark a standalone function.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) {
        let mut bencher = Bencher {
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_millis(1000),
            samples: 10,
            result: None,
        };
        f(&mut bencher);
        self.report(id, bencher.result);
    }

    fn report(&mut self, full_id: &str, result: Option<Sample>) {
        let Some(s) = result else {
            println!("{full_id:<56} (no measurement: closure never called iter)");
            return;
        };
        println!(
            "{full_id:<56} {:>12} ± {:<10} ({} samples, {} iters)",
            fmt_ns(s.mean_ns),
            fmt_ns(s.stddev_ns),
            s.samples,
            s.iters
        );
        if let Some(path) = &self.json_out {
            if let Ok(mut fh) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = writeln!(
                    fh,
                    "{{\"id\":\"{}\",\"mean_ns\":{:.1},\"median_ns\":{:.1},\"stddev_ns\":{:.1},\"samples\":{},\"iters\":{}}}",
                    full_id.replace('"', "'"),
                    s.mean_ns,
                    s.median_ns,
                    s.stddev_ns,
                    s.samples,
                    s.iters
                );
            }
        }
    }
}

/// Median of the per-sample means (the middle two averaged for an even
/// count); `xs` must be non-empty.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Declare a benchmark entry point composed of the listed functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emit `main` running the listed groups.
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

    #[test]
    fn measures_something() {
        let mut c = Criterion { json_out: None };
        let mut group = c.benchmark_group("g");
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut ran = false;
        group.bench_with_input(BenchmarkId::new("f", 1), &1, |b, _| {
            b.iter(|| std::hint::black_box(2 + 2));
            ran = true;
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert!(fmt_ns(1_500.0).ends_with("µs"));
        assert!(fmt_ns(2_000_000.0).ends_with("ms"));
        assert!(fmt_ns(3e9).ends_with(" s"));
    }
}
