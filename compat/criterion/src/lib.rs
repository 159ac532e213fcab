//! Offline stand-in for `criterion`.
//!
//! Implements just the API surface the workspace's benches use —
//! `Criterion::default().sample_size(..)`, `bench_function`,
//! `benchmark_group`/`bench_with_input`/`finish`, `BenchmarkId`, and the
//! `criterion_group!`/`criterion_main!` macros — on a plain wall-clock
//! harness. Each benchmark runs `sample_size` timed batches after a warm-up
//! batch and prints mean/min/max per iteration. With a `--test` argument
//! (`cargo bench -- --test`), each benchmark runs once, untimed warm-up
//! skipped, and reports that one sample.

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Top-level harness state: configuration plus result printing.
pub struct Criterion {
    sample_size: usize,
    /// Run each benchmark once (`--test` on the command line).
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            test_mode: std::env::args().any(|arg| arg == "--test"),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = n;
        self
    }

    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = self.bencher();
        f(&mut bencher);
        bencher.report(id);
        self
    }

    fn bencher(&self) -> Bencher {
        Bencher {
            sample_size: if self.test_mode { 1 } else { self.sample_size },
            warm_up: !self.test_mode,
            samples: Vec::new(),
        }
    }

    pub fn benchmark_group(&mut self, group_name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: group_name.into(),
        }
    }
}

/// Identifies one parameterized benchmark within a group.
pub struct BenchmarkId {
    parameter: String,
}

impl BenchmarkId {
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            parameter: parameter.to_string(),
        }
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.parameter);
        let mut bencher = self.criterion.bencher();
        f(&mut bencher, input);
        bencher.report(&label);
        self
    }

    pub fn finish(self) {}
}

/// Collects timed samples of one routine.
pub struct Bencher {
    sample_size: usize,
    warm_up: bool,
    samples: Vec<Duration>,
}

impl Bencher {
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        if self.warm_up {
            std_black_box(routine()); // untimed
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std_black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    fn report(&self, label: &str) {
        if self.samples.is_empty() {
            println!("{label:<48} (no samples)");
            return;
        }
        let total: Duration = self.samples.iter().sum();
        let mean = total / self.samples.len() as u32;
        let min = *self.samples.iter().min().expect("non-empty");
        let max = *self.samples.iter().max().expect("non-empty");
        println!(
            "{label:<48} mean {:>12?}  min {:>12?}  max {:>12?}  ({} samples)",
            mean,
            min,
            max,
            self.samples.len()
        );
    }
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
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
    fn bench_function_collects_samples_and_returns() {
        let mut c = Criterion::default().sample_size(3);
        let mut calls = 0u32;
        c.bench_function("smoke", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        // One warm-up plus three timed samples.
        assert_eq!(calls, 4);
    }

    #[test]
    fn test_mode_runs_each_routine_once() {
        let mut c = Criterion {
            sample_size: 10,
            test_mode: true,
        };
        let mut calls = 0u32;
        c.bench_function("once", |b| {
            b.iter(|| calls += 1);
            assert_eq!(b.samples.len(), 1);
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn groups_run_each_parameterized_case() {
        let mut c = Criterion::default().sample_size(2);
        let mut group = c.benchmark_group("g");
        let mut total = 0u64;
        for n in [1u64, 2, 3] {
            group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
                b.iter(|| {
                    total += n;
                    total
                })
            });
        }
        group.finish();
        // Each case: warm-up + 2 samples = 3 additions of n.
        assert_eq!(total, 3 * (1 + 2 + 3));
    }
}
