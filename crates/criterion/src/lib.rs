//! Offline drop-in subset of the `criterion` benchmarking API.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of `criterion` its benches use: [`Criterion`],
//! benchmark groups with `sample_size`/`throughput`/`bench_with_input`/
//! `bench_function`, [`BenchmarkId`], [`Throughput`], and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement is honest but simple: each benchmark closure is warmed up
//! once, then timed for `sample_size` samples; mean, min and max wall
//! times are printed. No statistics engine, HTML reports, or comparison
//! baselines — the goal is that `cargo bench` runs and reports real
//! numbers offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

/// A benchmark identifier: `function_name/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function.into(), parameter),
        }
    }

    /// Creates an id from a parameter value alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Throughput specification for a benchmark group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// The per-iteration timing harness handed to benchmark closures.
#[derive(Debug, Default)]
pub struct Bencher {
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Times `f`, running it enough times for a stable reading.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and calibration: target ~10ms of work per sample.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let reps = (Duration::from_millis(10).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        self.elapsed = t.elapsed();
        self.iters = reps;
    }

    fn per_iter_ns(&self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.iters.max(1) as f64
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares the group's throughput unit.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs a benchmark with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        let samples = self.sample_size;
        let throughput = self.throughput;
        self.criterion
            .run_samples(&full, samples, throughput, |b| f(b, input));
        self
    }

    /// Runs a benchmark without an input value.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        let samples = self.sample_size;
        let throughput = self.throughput;
        self.criterion
            .run_samples(&full, samples, throughput, &mut f);
        self
    }

    /// Finishes the group (printing was done incrementally).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Builder no-op kept for API compatibility.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
            throughput: None,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, name: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run_samples(&name.to_string(), 10, None, &mut f);
        self
    }

    fn run_samples<F>(
        &mut self,
        name: &str,
        samples: usize,
        throughput: Option<Throughput>,
        mut f: F,
    ) where
        F: FnMut(&mut Bencher),
    {
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut b = Bencher::default();
            f(&mut b);
            times.push(b.per_iter_ns());
        }
        let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let thr = match throughput {
            Some(Throughput::Elements(n)) if mean > 0.0 => {
                format!("  {:>12.2} Kelem/s", n as f64 / mean * 1e6)
            }
            Some(Throughput::Bytes(n)) if mean > 0.0 => {
                format!("  {:>12.2} MB/s", n as f64 / mean * 1e3)
            }
            _ => String::new(),
        };
        println!(
            "{name:<52} time: [{} {} {}]{}",
            fmt_ns(min),
            fmt_ns(mean),
            fmt_ns(max),
            thr
        );
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

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $cfg;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_prints() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.sample_size(2);
        g.throughput(Throughput::Elements(10));
        g.bench_with_input(BenchmarkId::new("add", 1), &1u64, |b, &x| b.iter(|| x + 1));
        g.finish();
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("f", "p").to_string(), "f/p");
        assert_eq!(BenchmarkId::from_parameter(3).to_string(), "3");
    }
}
