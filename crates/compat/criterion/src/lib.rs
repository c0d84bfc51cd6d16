//! In-tree stand-in for [criterion](https://docs.rs/criterion) so the
//! workspace's benchmarks build and run offline.
//!
//! It implements exactly the API surface the `crates/bench` benchmarks use —
//! [`Criterion`], [`BenchmarkId`], benchmark groups with an optional
//! [`Throughput`], `bench_function` / `bench_with_input`, the
//! [`criterion_group!`] / [`criterion_main!`] macros — with a simple but
//! honest measurement loop: per sample, the closure is run in a timed batch
//! and the per-iteration mean recorded; the reported figure is the median
//! over samples, with min/max spread. No statistics beyond that, no HTML
//! reports, no comparison against saved baselines.

#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Timing driver handed to every benchmark closure.
pub struct Bencher<'a> {
    config: &'a Config,
    /// Median/min/max per-iteration time of the finished run, filled by `iter`.
    result: Option<Sample>,
}

#[derive(Clone, Copy)]
struct Sample {
    median: Duration,
    min: Duration,
    max: Duration,
    iters: u64,
}

#[derive(Clone)]
struct Config {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sample_size: 30,
            measurement_time: Duration::from_secs(3),
            warm_up_time: Duration::from_millis(500),
        }
    }
}

impl Bencher<'_> {
    /// Times repeated executions of `routine`.
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut routine: F) {
        // Warm-up: run until the warm-up budget is spent, estimating the
        // per-iteration cost so each sample batch lands near its time slice.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.config.warm_up_time || warm_iters == 0 {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        let samples = self.config.sample_size.max(2);
        let slice = self.config.measurement_time.as_secs_f64() / samples as f64;
        let batch = ((slice / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        let mut times: Vec<Duration> = Vec::with_capacity(samples);
        let mut total_iters = 0u64;
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            times.push(start.elapsed() / batch as u32);
            total_iters += batch;
        }
        times.sort_unstable();
        self.result = Some(Sample {
            median: times[times.len() / 2],
            min: times[0],
            max: times[times.len() - 1],
            iters: total_iters,
        });
    }
}

/// Identifier of a parameterised benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A benchmark id `function_name/parameter`.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// A benchmark id holding only a parameter value.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

/// Work one iteration does, so a group can report a rate beside its times
/// (stand-in for `criterion::Throughput`).
#[derive(Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration — floating-point operations,
    /// nonzeros, candidates: whatever the benchmark counts.
    Elements(u64),
}

/// Top-level benchmark driver (stand-in for `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {
    config: Config,
}

impl Criterion {
    /// Number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.config.sample_size = n;
        self
    }

    /// Target measurement time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.config.measurement_time = d;
        self
    }

    /// Warm-up time per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.config.warm_up_time = d;
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let sample = run_one(&self.config, &mut f);
        report(name, sample, None);
        self
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the work per iteration of the benchmarks that follow; their
    /// report lines gain the rate at the median time.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs a benchmark identified by `id` with an input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let sample = run_one(&self.criterion.config, &mut |b: &mut Bencher| f(b, input));
        report(&format!("{}/{}", self.name, id.id), sample, self.throughput);
        self
    }

    /// Runs a benchmark identified by `id` without an explicit input.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self {
        let sample = run_one(&self.criterion.config, &mut f);
        report(&format!("{}/{}", self.name, id.into().id), sample, self.throughput);
        self
    }

    /// Finishes the group (report-flushing no-op in the stand-in).
    pub fn finish(self) {}
}

fn run_one(config: &Config, f: &mut dyn FnMut(&mut Bencher)) -> Option<Sample> {
    let mut bencher = Bencher { config, result: None };
    f(&mut bencher);
    bencher.result
}

fn report(id: &str, sample: Option<Sample>, throughput: Option<Throughput>) {
    match sample {
        Some(s) => println!(
            "{id:<50} time: [{} {} {}]{}  ({} iters)",
            fmt_duration(s.min),
            fmt_duration(s.median),
            fmt_duration(s.max),
            throughput.map_or(String::new(), |t| fmt_throughput(t, s.median)),
            s.iters
        ),
        None => println!("{id:<50} (no measurement: closure never called iter)"),
    }
}

/// The rate at the median time, both ways round: elements per second (with
/// floating-point operations as the elements, `Gelem/s` reads as GFLOP/s)
/// and nanoseconds per element.
fn fmt_throughput(Throughput::Elements(n): Throughput, median: Duration) -> String {
    let nanos = median.as_secs_f64() * 1e9;
    format!(
        "  thrpt: {:.2} Gelem/s, {:.3} ns/elem",
        n as f64 / nanos,
        nanos / n as f64
    )
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Cargo invokes bench binaries with harness flags such as
            // `--bench`; a stand-alone run may pass none. Nothing to parse.
            $( $group(); )+
        }
    };
}
