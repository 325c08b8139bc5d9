//! Offline shim of `criterion`.
//!
//! Keeps the macro and builder surface the workspace's benches use
//! (`criterion_group!`/`criterion_main!`, benchmark groups,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `sample_size`,
//! `black_box`) while replacing the statistical machinery with a
//! simple wall-clock loop: warm up once, time `sample_size` samples,
//! report min/mean per iteration. Good enough to spot order-of-
//! magnitude regressions in CI logs; swap in the real crate for
//! rigorous measurements.

#![allow(
    clippy::disallowed_types,
    reason = "the workspace's clippy.toml bans the wall clock for replay modules; a benchmark harness is made of it"
)]

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One finished benchmark's timings, recorded so harnesses can export
/// machine-readable baselines (the real crate writes these under
/// `target/criterion/`; the shim hands them to the caller instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measurement {
    /// Full benchmark label (`group/function` for grouped benches).
    pub label: String,
    /// Fastest observed per-iteration time, in nanoseconds.
    pub min_ns: u128,
    /// Mean per-iteration time across samples, in nanoseconds.
    pub mean_ns: u128,
    /// 99th-percentile per-iteration time across samples, in
    /// nanoseconds (nearest-rank over the sorted samples; with few
    /// samples this degrades gracefully to the slowest observation).
    pub p99_ns: u128,
    /// Number of timed samples taken.
    pub samples: usize,
}

static MEASUREMENTS: Mutex<Vec<Measurement>> = Mutex::new(Vec::new());

/// Drains every measurement recorded since the last call (across all
/// groups and targets in this process), in execution order.
pub fn take_measurements() -> Vec<Measurement> {
    std::mem::take(&mut MEASUREMENTS.lock().expect("measurement store poisoned"))
}

/// Top-level harness handle passed to every bench target.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\nbenchmark group: {name}");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: 10,
        }
    }

    /// Runs a standalone benchmark (ungrouped).
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(&id.to_string(), 10, f);
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(&format!("{}/{id}", self.name), self.sample_size, f);
        self
    }

    /// Benchmarks `f` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl fmt::Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_bench(&format!("{}/{id}", self.name), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (kept for API parity; groups have no teardown).
    pub fn finish(self) {}
}

/// Identifier combining a function name and a parameter, e.g.
/// `kendall_knight/1000`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a displayed parameter.
    pub fn new(function: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.function, self.parameter)
    }
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u64,
    /// Iterations the last routine actually ran per sample (batched
    /// routines always run one), for honest reporting.
    iters_used: u64,
}

/// How expensive `iter_batched` setup values are to produce. The
/// real crate uses this to size batches; the shim runs one setup +
/// routine pair per sample regardless, so the hint is accepted for
/// API parity only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Setup output is cheap to build.
    SmallInput,
    /// Setup output is expensive to build (e.g. cloning a large
    /// index); keep batches minimal.
    LargeInput,
    /// One setup per routine invocation.
    PerIteration,
}

impl Bencher {
    /// Times `routine`, recording one sample per call batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.iters_used = self.iters_per_sample;
        let start = Instant::now();
        for _ in 0..self.iters_per_sample {
            black_box(routine());
        }
        self.samples
            .push(start.elapsed() / self.iters_per_sample as u32);
    }

    /// Times `routine` on inputs produced by `setup`, excluding the
    /// setup cost from the measurement. Unlike [`Bencher::iter`],
    /// each sample is a single setup + routine pair — expensive
    /// setups (cloning a big structure) never multiply.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.iters_used = 1;
        let input = setup();
        let start = Instant::now();
        let output = routine(input);
        let elapsed = start.elapsed();
        self.samples.push(elapsed);
        // Output teardown stays outside the measurement, like the
        // real crate's batched drop.
        drop(black_box(output));
    }
}

fn run_bench<F>(label: &str, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    // One untimed warm-up pass, then calibrate the batch size so fast
    // routines aren't dominated by clock reads.
    let mut bencher = Bencher {
        samples: Vec::with_capacity(sample_size + 1),
        iters_per_sample: 1,
        iters_used: 1,
    };
    f(&mut bencher);
    let warmup = bencher.samples.first().copied().unwrap_or_default();
    let iters = if warmup < Duration::from_micros(10) {
        100
    } else {
        1
    };

    let mut bencher = Bencher {
        samples: Vec::with_capacity(sample_size),
        iters_per_sample: iters,
        iters_used: 1,
    };
    for _ in 0..sample_size {
        f(&mut bencher);
    }
    if bencher.samples.is_empty() {
        println!("{label:<50} (no samples: closure never called iter)");
        return;
    }
    let min = bencher.samples.iter().min().expect("non-empty");
    let total: Duration = bencher.samples.iter().sum();
    let mean = total / bencher.samples.len() as u32;
    // Nearest-rank p99: the sample at ceil(0.99 * n) in sorted order.
    let mut sorted = bencher.samples.clone();
    sorted.sort_unstable();
    let rank = (sorted.len() * 99).div_ceil(100).max(1);
    let p99 = sorted[rank - 1];
    MEASUREMENTS
        .lock()
        .expect("measurement store poisoned")
        .push(Measurement {
            label: label.to_owned(),
            min_ns: min.as_nanos(),
            mean_ns: mean.as_nanos(),
            p99_ns: p99.as_nanos(),
            samples: bencher.samples.len(),
        });
    println!(
        "{label:<50} min {:>12} mean {:>12} p99 {:>12} ({} samples x {} iters)",
        fmt_duration(*min),
        fmt_duration(mean),
        fmt_duration(p99),
        bencher.samples.len(),
        bencher.iters_used,
    );
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} us", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// Declares a function running each listed bench target with a fresh
/// [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` invoking each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
