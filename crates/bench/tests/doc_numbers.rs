//! The numbers README.md and EXPERIMENTS.md quote from the committed
//! `BENCH_*.json` files match those files.
//!
//! Deterministic fields (accuracies, work counts, work ratios) reproduce
//! exactly on any machine. Wall-clock fields change from run to run, so
//! the docs quote the committed run's values and a regenerated file must
//! come with updated quotes; either way the check compares docs with
//! files, never with a fresh measurement.

use ssresf_json::Value;
use std::path::Path;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The number at the dotted `key` of a committed `BENCH_*.json` file.
fn bench_number(file: &str, key: &str) -> f64 {
    let report = ssresf_json::parse(&repo_file(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    key.split('.')
        .try_fold(&report, |value, part| value.get(part))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{file} has no number at `{key}`"))
}

/// A count with its digits grouped in threes by spaces, as the docs write
/// them ("109 250").
fn grouped(count: f64) -> String {
    let digits = format!("{count:.0}");
    let mut out = String::new();
    for (i, digit) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(' ');
        }
        out.push(digit);
    }
    out
}

#[test]
fn docs_quote_the_committed_bench_numbers() {
    let bitparallel = |key: &str| bench_number("BENCH_bitparallel.json", key);
    let ml_accuracy = bench_number("BENCH_mlpath.json", "new_accuracy");
    let w64_reduction = bitparallel("configs.w64.eval_reduction");
    let w256_reduction = bitparallel("configs.w256_collapse_refill.eval_reduction");
    let scalar_evals = bitparallel("scalar_gate_evals_per_injection");
    let w64_evals = bitparallel("configs.w64.batched_word_evals_per_injection");
    let w256_evals = bitparallel("configs.w256_collapse_refill.batched_word_evals_per_injection");
    let active_accuracy = bench_number("BENCH_activelearn.json", "active_accuracy");
    let work_speedup = bench_number("BENCH_activelearn.json", "work_speedup");
    let cold_work = bench_number("BENCH_serve.json", "cold_work");

    let readme = [
        format!("new {ml_accuracy:.4}"),
        format!("{:.1} % held-out accuracy", active_accuracy * 100.0),
        format!("to {work_speedup:.1}×"),
    ];
    let experiments = [
        format!("({ml_accuracy:.4} both paths)"),
        format!("{w64_reduction:.1}× fewer gate evaluations"),
        format!("reduction reaches {w256_reduction:.0}×"),
        format!(
            "({} → {} word-evals)",
            grouped(scalar_evals),
            grouped(w64_evals)
        ),
        format!("({} word-evals per injection)", grouped(w256_evals)),
        format!("| {active_accuracy:.4} (held out) |"),
        format!("| {work_speedup:.1}× |"),
        format!("| {} |", grouped(cold_work)),
    ];
    check_quotes(&[
        ("README.md", &readme[..]),
        ("EXPERIMENTS.md", &experiments[..]),
    ]);
}

#[test]
fn docs_quote_the_committed_wall_clock_numbers() {
    let mlpath = |key: &str| bench_number("BENCH_mlpath.json", key);
    let scale = |key: &str| bench_number("BENCH_scale.json", key);
    let bitparallel = |key: &str| bench_number("BENCH_bitparallel.json", key);
    let serve = |key: &str| bench_number("BENCH_serve.json", key);
    let active = |key: &str| bench_number("BENCH_activelearn.json", key);

    let readme = [
        format!(
            "old {:.3}s, new {:.3}s ({:.1}x)",
            mlpath("old_wall_seconds"),
            mlpath("new_wall_seconds"),
            mlpath("speedup")
        ),
        format!(
            "{:.1} s / {:.1} GiB peak",
            scale("total_seconds"),
            scale("peak_rss_mib") / 1024.0
        ),
    ];
    let experiments = [
        format!(
            "{:.1}× at 64 lanes, {:.1}× at 256 and {:.1}× at 512",
            bitparallel("configs.w64.wall_clock_ratio"),
            bitparallel("configs.w256_collapse_refill.wall_clock_ratio"),
            bitparallel("configs.w512_collapse_refill.wall_clock_ratio")
        ),
        format!("| {:.3} | miss", serve("cold_seconds")),
        format!("| {:.4} | campaign hit", serve("warm_seconds")),
        format!(
            "({}× → {}×)",
            grouped(active("baseline_wall_speedup")),
            grouped(active("active_wall_speedup"))
        ),
    ];
    check_quotes(&[
        ("README.md", &readme[..]),
        ("EXPERIMENTS.md", &experiments[..]),
    ]);
}

/// Asserts that every quote appears verbatim in its document.
fn check_quotes(docs: &[(&str, &[String])]) {
    let mut missing = Vec::new();
    for &(doc, quotes) in docs {
        let text = repo_file(doc);
        for quote in quotes {
            if !text.contains(quote.as_str()) {
                missing.push(format!("{doc}: `{quote}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs do not quote the committed BENCH values:\n{}",
        missing.join("\n")
    );
}
