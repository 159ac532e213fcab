//! Criterion comparison of the pre-PR ML path (per-path k-medoids with a
//! dense distance matrix, simplified SMO, per-support-vector reference
//! decision) against the fast path (signature k-medoids, working-set SMO
//! with a kernel-row cache, collapsed/normed threaded prediction).
//!
//! Besides the wall-clock benchmark, this suite asserts the headline
//! invariants once per process: the combined cluster + train + predict
//! fast path is at least 3x faster than the old implementation (each
//! path timed as the fastest of several alternating runs), and the
//! end-to-end `analyze` accuracy is unchanged within one percent when
//! swapping solvers. The measured numbers are written to
//! `BENCH_mlpath.json` at the workspace root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ssresf::{
    cluster_cells, cluster_cells_reference, Clustering, ClusteringConfig, Ssresf, SsresfConfig,
    Workload,
};
use ssresf_bench::write_bench_report;
use ssresf_mlcore::{Dataset, SmoSolver, StandardScaler, SvmModel, SvmParams};
use ssresf_netlist::{FeatureExtractor, FlatNetlist};
use ssresf_socgen::{build_soc, SocConfig};
use std::time::{Duration, Instant};

const CLUSTER_CFG: ClusteringConfig = ClusteringConfig {
    clusters: 12,
    layer_depth: 3,
    seed: 1,
    max_iters: 64,
    threads: 0,
};

struct MlTask {
    flat: FlatNetlist,
    train: Dataset,
    all_rows: Vec<Vec<f64>>,
    labels: Vec<i8>,
}

/// Structural features for every cell of a Table-1 SoC, with a labeled
/// training subset (fanout above the median — deterministic, no campaign).
fn build_task(soc_index: usize) -> MlTask {
    let soc = build_soc(&SocConfig::table1()[soc_index]).expect("soc builds");
    let flat = soc.design.flatten().expect("soc flattens");
    let extractor = FeatureExtractor::new(&flat).expect("extractor builds");
    let features = extractor.extract(None);
    let mut fanouts: Vec<f64> = features.iter().map(|f| f.values[0]).collect();
    fanouts.sort_by(f64::total_cmp);
    let median = fanouts[fanouts.len() / 2];
    let labels: Vec<i8> = features
        .iter()
        .map(|f| if f.values[0] > median { 1 } else { -1 })
        .collect();

    let train_rows: Vec<Vec<f64>> = features
        .iter()
        .step_by(5)
        .take(240)
        .map(|f| f.values.clone())
        .collect();
    let train_labels: Vec<i8> = labels.iter().step_by(5).take(240).copied().collect();
    let scaler = StandardScaler::fit(&train_rows).expect("scaler fits");
    let train = Dataset::new(scaler.transform(&train_rows), train_labels).expect("dataset");
    let all_rows: Vec<Vec<f64>> = features
        .iter()
        .map(|f| scaler.transform_row(&f.values))
        .collect();
    MlTask {
        flat,
        train,
        all_rows,
        labels,
    }
}

/// Pre-PR path: dense-matrix per-path clustering, simplified SMO, serial
/// per-support-vector reference decision.
fn run_old(task: &MlTask) -> (Clustering, Vec<i8>, Duration) {
    let started = Instant::now();
    let clustering = cluster_cells_reference(&task.flat, &CLUSTER_CFG).expect("clustering");
    let model = SvmModel::train(
        &task.train,
        &SvmParams {
            solver: SmoSolver::Simplified,
            ..SvmParams::default()
        },
    )
    .expect("training");
    let predictions: Vec<i8> = task
        .all_rows
        .iter()
        .map(|row| {
            if model.decision_reference(row) >= 0.0 {
                1
            } else {
                -1
            }
        })
        .collect();
    (clustering, predictions, started.elapsed())
}

/// Fast path: signature clustering, working-set SMO, threaded prediction.
fn run_new(task: &MlTask) -> (Clustering, Vec<i8>, Duration) {
    let started = Instant::now();
    let clustering = cluster_cells(&task.flat, &CLUSTER_CFG).expect("clustering");
    let model = SvmModel::train(&task.train, &SvmParams::default()).expect("training");
    let predictions = model.predict_batch_with(&task.all_rows, 0);
    (clustering, predictions, started.elapsed())
}

fn accuracy(predicted: &[i8], truth: &[i8]) -> f64 {
    let agree = predicted.iter().zip(truth).filter(|(p, t)| p == t).count();
    agree as f64 / truth.len() as f64
}

/// The end-to-end differential: the full `analyze` pipeline with the
/// pre-PR solver vs the new default must agree on held-out accuracy
/// within one percent (the campaign, sample and labels are identical —
/// only the SVM solver differs).
fn analyze_accuracy_delta() -> (f64, f64) {
    let soc = build_soc(&SocConfig::table1()[0]).expect("soc builds");
    let flat = soc.design.flatten().expect("soc flattens");
    let mut config = SsresfConfig::default().with_memory_scale(soc.info.memory_scale_factor);
    config.sampling.fraction = 0.08;
    config.sampling.min_per_cluster = 3;
    config.sampling.seed = 4;
    config.campaign.workload = Workload {
        reset_cycles: 3,
        run_cycles: 60,
    };
    config.campaign.injections_per_cell = 1;

    let new_analysis = Ssresf::new(config).analyze(&flat).expect("analyze");
    let mut old_config = config;
    old_config.sensitivity.svm.solver = SmoSolver::Simplified;
    let old_analysis = Ssresf::new(old_config).analyze(&flat).expect("analyze");
    (
        old_analysis.sensitivity_report.metrics.accuracy(),
        new_analysis.sensitivity_report.metrics.accuracy(),
    )
}

/// Timed repeats per path. A single run of a 5–30 ms path is at the mercy
/// of scheduler noise; the fastest of several alternating runs is not.
const TIMED_REPEATS: usize = 7;

fn ml_fast_path(c: &mut Criterion) {
    let task = build_task(4);

    // The first, untimed call of each path supplies the outputs the
    // accuracy checks compare.
    let (old_clustering, old_predictions, _) = run_old(&task);
    let (new_clustering, new_predictions, _) = run_new(&task);
    let (mut old_wall, mut new_wall) = (Duration::MAX, Duration::MAX);
    for _ in 0..TIMED_REPEATS {
        old_wall = old_wall.min(run_old(&task).2);
        new_wall = new_wall.min(run_new(&task).2);
    }

    assert_eq!(
        old_clustering.clusters, new_clustering.clusters,
        "fast clustering changed the cluster count"
    );
    let old_acc = accuracy(&old_predictions, &task.labels);
    let new_acc = accuracy(&new_predictions, &task.labels);
    assert!(
        (old_acc - new_acc).abs() <= 0.0101,
        "prediction accuracy drifted: old {old_acc:.4} vs new {new_acc:.4}"
    );
    let speedup = old_wall.as_secs_f64() / new_wall.as_secs_f64().max(1e-9);
    println!(
        "cluster+train+predict: old {:.3}s, new {:.3}s ({speedup:.1}x); \
         accuracy old {old_acc:.4}, new {new_acc:.4}",
        old_wall.as_secs_f64(),
        new_wall.as_secs_f64(),
    );
    assert!(
        speedup >= 3.0,
        "ML fast path below 3x: {speedup:.2}x (old {old_wall:?}, new {new_wall:?})"
    );

    let (analyze_old_acc, analyze_new_acc) = analyze_accuracy_delta();
    assert!(
        (analyze_old_acc - analyze_new_acc).abs() <= 0.0101,
        "analyze accuracy drifted: old {analyze_old_acc:.4} vs new {analyze_new_acc:.4}"
    );

    let report = ssresf_json::object([
        (
            "soc",
            ssresf_json::Value::from(SocConfig::table1()[4].name.clone()),
        ),
        (
            "cells",
            ssresf_json::Value::from(task.flat.cells().len() as u64),
        ),
        (
            "train_rows",
            ssresf_json::Value::from(task.train.len() as u64),
        ),
        (
            "old_wall_seconds",
            ssresf_json::Value::from(old_wall.as_secs_f64()),
        ),
        (
            "new_wall_seconds",
            ssresf_json::Value::from(new_wall.as_secs_f64()),
        ),
        ("speedup", ssresf_json::Value::from(speedup)),
        ("old_accuracy", ssresf_json::Value::from(old_acc)),
        ("new_accuracy", ssresf_json::Value::from(new_acc)),
        (
            "analyze_old_accuracy",
            ssresf_json::Value::from(analyze_old_acc),
        ),
        (
            "analyze_new_accuracy",
            ssresf_json::Value::from(analyze_new_acc),
        ),
    ]);
    write_bench_report("BENCH_mlpath.json", &(report.to_string_pretty() + "\n"))
        .expect("write BENCH_mlpath.json");

    let mut group = c.benchmark_group("ml_fast_path");
    group.bench_with_input(BenchmarkId::from_parameter("old"), &task, |b, task| {
        b.iter(|| run_old(task));
    });
    group.bench_with_input(BenchmarkId::from_parameter("new"), &task, |b, task| {
        b.iter(|| run_new(task));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ml_fast_path
}
criterion_main!(benches);
