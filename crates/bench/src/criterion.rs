//! A drop-in harness for the workspace's criterion-style benches.
//!
//! The benches under `benches/` were written against the criterion API
//! (`Criterion`, `benchmark_group`, `Bencher::iter`, the `criterion_group!`
//! / `criterion_main!` macros). The workspace builds without external
//! crates, so this module provides the same surface with a much simpler
//! measurement strategy: calibrate an iteration count against the
//! measurement budget, take `sample_size` samples, and print the mean and
//! best per-iteration time of each benchmark.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Harness configuration; the analogue of `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_millis(500),
            warm_up_time: Duration::from_millis(100),
        }
    }
}

impl Criterion {
    /// Samples taken per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Total measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Time spent warming up (calibrating) before measuring.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        println!("\n{name}");
        BenchmarkGroup {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
        }
    }
}

/// A named benchmark group; settings may be overridden per group.
pub struct BenchmarkGroup {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl BenchmarkGroup {
    /// Overrides the number of samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark identified by a plain name.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), &mut f);
        self
    }

    /// Runs one benchmark identified by a [`BenchmarkId`], handing the
    /// input through to the routine.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.0, &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(self) {}

    fn run(&self, id: &str, routine: &mut dyn FnMut(&mut Bencher)) {
        // Calibrate: run single iterations until the warm-up budget is
        // spent, tracking the cost of one iteration — both the part the
        // routine times and the whole call, which for `iter_custom` also
        // pays an untimed set-up.
        let warm_up_started = Instant::now();
        let mut per_iter = Duration::MAX;
        loop {
            let mut b = Bencher {
                iters: 1,
                elapsed: Duration::ZERO,
            };
            let call_started = Instant::now();
            routine(&mut b);
            per_iter = per_iter.min(b.elapsed.max(call_started.elapsed()));
            if warm_up_started.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let per_iter = per_iter.max(Duration::from_nanos(1));

        // Split the measurement budget into `sample_size` samples and fit
        // as many iterations as the per-sample budget allows, set-ups
        // included.
        let sample_budget = self.measurement_time / self.sample_size as u32;
        let iters = (sample_budget.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;
        let deadline = Instant::now() + self.measurement_time;
        let mut best = Duration::MAX;
        let mut total = Duration::ZERO;
        let mut samples = 0u32;
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            routine(&mut b);
            let per = b.elapsed / iters as u32;
            best = best.min(per);
            total += per;
            samples += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
        let mean = total / samples;
        println!(
            "  {id:<44} mean {:>12} best {:>12}   ({samples} samples x {iters} iters)",
            fmt_duration(mean),
            fmt_duration(best),
        );
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 10_000 {
        format!("{nanos} ns")
    } else if nanos < 10_000_000 {
        format!("{:.2} us", nanos as f64 / 1e3)
    } else {
        format!("{:.2} ms", nanos as f64 / 1e6)
    }
}

/// Passed to benchmark routines; [`Bencher::iter`] times the hot loop.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` over this sample's iteration count.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed += start.elapsed();
    }

    /// Lets the routine time itself, for hot loops with an untimed reset
    /// between iterations: `f` runs this sample's iteration count and
    /// returns how long the measured part of them took.
    pub fn iter_custom(&mut self, mut f: impl FnMut(u64) -> Duration) {
        self.elapsed += f(self.iters);
    }
}

/// A benchmark name with a parameter, printed as `name/param`.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Creates an id from a function name and a parameter value.
    pub fn new(name: impl std::fmt::Display, param: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{name}/{param}"))
    }
}

/// Declares a group runner function, mirroring `criterion::criterion_group!`.
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
            config = $crate::criterion::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, mirroring `criterion::criterion_main!`.
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
    fn bencher_runs_the_requested_iterations() {
        let mut count = 0u64;
        let mut b = Bencher {
            iters: 25,
            elapsed: Duration::ZERO,
        };
        b.iter(|| count += 1);
        assert_eq!(count, 25);
        assert!(b.elapsed > Duration::ZERO);
        let before = b.elapsed;
        b.iter_custom(Duration::from_nanos);
        assert_eq!(b.elapsed - before, Duration::from_nanos(25));
    }

    #[test]
    fn groups_run_every_benchmark() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        let mut group = c.benchmark_group("shim");
        let mut ran = 0;
        group.bench_function("noop", |b| {
            ran += 1;
            b.iter(|| 1 + 1)
        });
        group.bench_with_input(BenchmarkId::new("param", 3), &3usize, |b, &x| {
            ran += 1;
            b.iter(|| x * 2)
        });
        group.finish();
        assert!(ran >= 2, "both benchmarks must execute");
    }

    #[test]
    fn benchmark_id_formats_name_and_param() {
        assert_eq!(BenchmarkId::new("rank", 4096).0, "rank/4096");
    }
}
