//! Perf-regression gate over the committed benchmark baselines.
//!
//! Compares freshly regenerated `BENCH_*.json` reports against a baseline
//! directory (normally the numbers committed at the repository root) and
//! fails when a gating metric regresses: a higher-is-better metric drops
//! below `baseline x tolerance`, a lower-is-better one rises above
//! `baseline / tolerance` (default tolerance 0.9, i.e. a >10% regression
//! for higher-is-better metrics). Prints a markdown before/after table on
//! stdout so CI can append it to the job summary.
//!
//! ```text
//! bench_check --baseline <dir> --current <dir> [--tolerance 0.9]
//! ```
//!
//! Metric keys are dotted paths into the report's JSON objects. Tracked
//! metrics (higher-is-better unless noted):
//! - `BENCH_bitparallel.json` / `eval_reduction` — the wide-lane batching
//!   kernel's per-injection gate-evaluation reduction (the best config),
//!   plus each config's own `configs.<name>.eval_reduction`, since the
//!   headline maximum alone would not see one config regress;
//! - `BENCH_bitparallel.json` / `wall_clock_ratio` — its end-to-end
//!   campaign speedup (informational: reported but never gating, since
//!   wall clock is hardware-dependent);
//! - `BENCH_mlpath.json` / `speedup` — the working-set SMO fast ML path's
//!   training+prediction speedup;
//! - `BENCH_activelearn.json` / `active_accuracy`, `work_speedup`,
//!   `injections_ratio` — the active-learning pipeline's held-out
//!   accuracy, deterministic work-based end-to-end speedup, and one-shot
//!   vs active injection-count ratio (plus a non-gating
//!   `active_wall_speedup`);
//! - `BENCH_scale.json` / `cells` — the million-cell preset's size
//!   (gating: the scale guarantee must not silently shrink), plus
//!   non-gating `wall_headroom` / `rss_headroom` budget ratios from the
//!   `scale_smoke` gate (wall clock and allocator behavior are
//!   hardware-dependent; the hard budget assertion lives in `scale_smoke`
//!   itself), and the non-gating, lower-is-better elaboration ledger
//!   `build_seconds` / `flatten_seconds`;
//! - `BENCH_serve.json` / `work_reduction` — the campaign service's
//!   warm-cache simulation-work reduction over a cold run (gating:
//!   deterministic work counts), plus a non-gating, lower-is-better
//!   `cold_seconds`.
//!
//! A metric whose report file is absent from *both* directories is skipped
//! (its producer did not run in this job); present in only one is still a
//! failure or a NEW metric respectively. `BENCH_*.json` files present in
//! either directory but tracked by no metric are listed as new baselines
//! rather than silently omitted.

use ssresf_json::FromJson;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Better {
    Higher,
    Lower,
}

struct Metric {
    file: &'static str,
    key: &'static str,
    better: Better,
    /// Regressions in non-gating metrics are reported but never fail the
    /// check (wall-clock numbers depend on the runner's hardware).
    gating: bool,
}

impl Metric {
    /// Whether `current` is worse than `baseline` by more than `tolerance`
    /// allows.
    fn regressed(&self, baseline: f64, current: f64, tolerance: f64) -> bool {
        match self.better {
            Better::Higher => current < baseline * tolerance,
            Better::Lower => current * tolerance > baseline,
        }
    }
}

const METRICS: &[Metric] = &[
    Metric {
        file: "BENCH_bitparallel.json",
        key: "eval_reduction",
        better: Better::Higher,
        gating: true,
    },
    Metric {
        file: "BENCH_bitparallel.json",
        key: "configs.w64.eval_reduction",
        better: Better::Higher,
        gating: true,
    },
    Metric {
        file: "BENCH_bitparallel.json",
        key: "configs.w256_collapse_refill.eval_reduction",
        better: Better::Higher,
        gating: true,
    },
    Metric {
        file: "BENCH_bitparallel.json",
        key: "configs.w512_collapse_refill.eval_reduction",
        better: Better::Higher,
        gating: true,
    },
    Metric {
        file: "BENCH_bitparallel.json",
        key: "wall_clock_ratio",
        better: Better::Higher,
        gating: false,
    },
    Metric {
        file: "BENCH_mlpath.json",
        key: "speedup",
        better: Better::Higher,
        gating: true,
    },
    Metric {
        file: "BENCH_activelearn.json",
        key: "active_accuracy",
        better: Better::Higher,
        gating: true,
    },
    Metric {
        file: "BENCH_activelearn.json",
        key: "work_speedup",
        better: Better::Higher,
        gating: true,
    },
    Metric {
        file: "BENCH_activelearn.json",
        key: "injections_ratio",
        better: Better::Higher,
        gating: true,
    },
    Metric {
        file: "BENCH_activelearn.json",
        key: "active_wall_speedup",
        better: Better::Higher,
        gating: false,
    },
    Metric {
        file: "BENCH_scale.json",
        key: "cells",
        better: Better::Higher,
        gating: true,
    },
    Metric {
        file: "BENCH_scale.json",
        key: "wall_headroom",
        better: Better::Higher,
        gating: false,
    },
    Metric {
        file: "BENCH_scale.json",
        key: "rss_headroom",
        better: Better::Higher,
        gating: false,
    },
    Metric {
        file: "BENCH_scale.json",
        key: "build_seconds",
        better: Better::Lower,
        gating: false,
    },
    Metric {
        file: "BENCH_scale.json",
        key: "flatten_seconds",
        better: Better::Lower,
        gating: false,
    },
    Metric {
        file: "BENCH_serve.json",
        key: "work_reduction",
        better: Better::Higher,
        gating: true,
    },
    Metric {
        file: "BENCH_serve.json",
        key: "cold_seconds",
        better: Better::Lower,
        gating: false,
    },
];

/// `BENCH_*.json` files in either directory that no tracked metric covers,
/// sorted. These are new baselines a future metric should gate on; listing
/// them keeps an added report from silently escaping the summary table.
fn untracked_reports(baseline_dir: &Path, current_dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = [baseline_dir, current_dir]
        .iter()
        .filter_map(|dir| std::fs::read_dir(dir).ok())
        .flatten()
        .flatten()
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .filter(|name| METRICS.iter().all(|m| m.file != name))
        .collect();
    names.sort();
    names.dedup();
    names
}

fn load_metric(dir: &Path, file: &str, key: &str) -> Result<f64, String> {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let root =
        ssresf_json::parse(&text).map_err(|e| format!("cannot parse {}: {e:?}", path.display()))?;
    let mut value = &root;
    for part in key.split('.') {
        value = value
            .get(part)
            .ok_or_else(|| format!("{}: missing key {part:?}", path.display()))?;
    }
    f64::from_json(value).map_err(|e| format!("{}: key {key:?}: {e}", path.display()))
}

fn main() -> ExitCode {
    let mut baseline_dir = PathBuf::from(".");
    let mut current_dir = PathBuf::from(".");
    let mut tolerance = 0.9f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline_dir = PathBuf::from(take("--baseline")),
            "--current" => current_dir = PathBuf::from(take("--current")),
            "--tolerance" => {
                tolerance = take("--tolerance")
                    .parse()
                    .expect("--tolerance expects a float")
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: \
                     bench_check --baseline <dir> --current <dir> [--tolerance 0.9]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    println!("### Bench regression check (tolerance {tolerance:.2})");
    println!();
    println!("| metric | better | baseline | current | ratio | status |");
    println!("| --- | --- | ---: | ---: | ---: | --- |");
    let mut failed = false;
    for metric in METRICS {
        let label = format!("{} `{}`", metric.file, metric.key);
        let better = match metric.better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        if !current_dir.join(metric.file).exists() && !baseline_dir.join(metric.file).exists() {
            println!("| {label} | {better} | — | — | — | skipped (not produced in this job) |");
            continue;
        }
        let current = match load_metric(&current_dir, metric.file, metric.key) {
            Ok(v) => v,
            Err(e) => {
                // A missing *current* number means the bench did not run
                // or dropped the key: always a failure.
                println!("| {label} | {better} | — | — | — | MISSING: {e} |");
                failed = true;
                continue;
            }
        };
        let baseline = match load_metric(&baseline_dir, metric.file, metric.key) {
            Ok(v) => v,
            Err(e) => {
                // A missing baseline is a new metric, not a regression.
                println!("| {label} | {better} | — | {current:.2} | — | NEW ({e}) |");
                continue;
            }
        };
        let ratio = current / baseline.max(f64::MIN_POSITIVE);
        let regressed = metric.regressed(baseline, current, tolerance);
        let status = match (regressed, metric.gating) {
            (false, _) => "ok",
            (true, true) => {
                failed = true;
                "REGRESSED"
            }
            (true, false) => "regressed (non-gating)",
        };
        println!("| {label} | {better} | {baseline:.2} | {current:.2} | {ratio:.3}x | {status} |");
    }
    for name in untracked_reports(&baseline_dir, &current_dir) {
        let places = match (
            baseline_dir.join(&name).exists(),
            current_dir.join(&name).exists(),
        ) {
            (true, true) => "both dirs",
            (true, false) => "baseline only",
            (false, _) => "current only",
        };
        println!(
            "| {name} (untracked) | — | — | — | — | new baseline ({places}; add a metric to gate it) |"
        );
    }
    println!();
    if failed {
        println!(
            "**FAIL**: a gating metric regressed past tolerance {tolerance:.2} of \
             its committed baseline."
        );
        ExitCode::FAILURE
    } else {
        println!("**PASS**: all gating metrics within tolerance of the committed baselines.");
        ExitCode::SUCCESS
    }
}
