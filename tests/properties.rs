//! Property-based tests over the framework's core data structures and
//! invariants, spanning several crates. Inputs are sampled with the
//! workspace PRNG from fixed seeds (fully deterministic) and the per-test
//! case count honors the `PROPTEST_CASES` environment variable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssresf::clustering::hier_distance;
use ssresf::sampling::{sample_clusters, SamplingConfig};
use ssresf::Clustering;
use ssresf_conformance::cases;
use ssresf_mlcore::{roc_curve, BinaryMetrics, StandardScaler};
use ssresf_netlist::{CellId, HierPath};
use ssresf_sim::vcd::{parse_vcd, write_vcd};
use ssresf_sim::{Logic, WaveSignal, WaveTrace};

fn arb_path(rng: &mut StdRng) -> HierPath {
    const SEGMENTS: [&str; 5] = ["a", "b", "cpu", "bus", "mem"];
    let len = rng.gen_range(0usize..5);
    HierPath::from_segments((0..len).map(|_| SEGMENTS[rng.gen_range(0usize..SEGMENTS.len())]))
}

fn arb_logic(rng: &mut StdRng) -> Logic {
    match rng.gen_range(0u32..4) {
        0 => Logic::Zero,
        1 => Logic::One,
        2 => Logic::X,
        _ => Logic::Z,
    }
}

/// Sorted, time-deduplicated change list for a waveform signal.
fn arb_changes(rng: &mut StdRng, min: usize) -> Vec<(u64, Logic)> {
    let len = rng.gen_range(min..20.max(min + 1));
    let mut changes: Vec<(u64, Logic)> = (0..len)
        .map(|_| (rng.gen_range(0u64..1000), arb_logic(rng)))
        .collect();
    changes.sort_by_key(|&(t, _)| t);
    changes.dedup_by_key(|&mut (t, _)| t);
    changes
}

// ---- Eq. 1 hierarchical distance is a metric-like function ----

#[test]
fn distance_identity_symmetry_triangle_and_bound() {
    let mut rng = StdRng::seed_from_u64(0xD157);
    for _ in 0..cases(64) {
        let (a, b, c) = (arb_path(&mut rng), arb_path(&mut rng), arb_path(&mut rng));
        let ln = rng.gen_range(1usize..8);
        assert_eq!(hier_distance(&a, &a, ln), 0);
        assert_eq!(hier_distance(&a, &b, ln), hier_distance(&b, &a, ln));
        let (ab, bc, ac) = (
            hier_distance(&a, &b, ln),
            hier_distance(&b, &c, ln),
            hier_distance(&a, &c, ln),
        );
        assert!(ac <= ab + bc, "triangle violated: {ac} > {ab} + {bc}");
        // Sum of 2^(ln-1) + ... + 1 = 2^ln - 1.
        assert!(ab < (1 << ln));
    }
}

// ---- Sampling is a proper sub-selection ----

#[test]
fn sampling_respects_clusters() {
    let mut rng = StdRng::seed_from_u64(0x5A3B);
    for _ in 0..cases(48) {
        let nclusters = rng.gen_range(1usize..6);
        let mut members = Vec::new();
        let mut assignment = Vec::new();
        let mut next = 0u32;
        for c in 0..nclusters {
            let size = rng.gen_range(0usize..30);
            let mut cluster = Vec::new();
            for _ in 0..size {
                cluster.push(CellId(next));
                assignment.push(c as u32);
                next += 1;
            }
            members.push(cluster);
        }
        let fraction = 0.05 + rng.gen::<f64>() * 0.95;
        let clustering = Clustering {
            assignment,
            clusters: nclusters,
            members,
        };
        let sample = sample_clusters(
            &clustering,
            &SamplingConfig {
                fraction,
                min_per_cluster: 2,
                seed: rng.gen_range(0u64..100),
                budget: None,
            },
        )
        .unwrap();
        for (c, cells) in sample.per_cluster.iter().enumerate() {
            // No oversampling, membership respected, no duplicates.
            assert!(cells.len() <= clustering.members[c].len());
            let mut sorted = cells.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), cells.len());
            for cell in cells {
                assert!(clustering.members[c].contains(cell));
            }
            // The equal-proportion floor holds for nonempty clusters.
            if !clustering.members[c].is_empty() {
                let want = ((clustering.members[c].len() as f64 * fraction).ceil() as usize)
                    .max(2)
                    .min(clustering.members[c].len());
                assert_eq!(cells.len(), want);
            }
        }
    }
}

// ---- Four-state logic algebra ----

#[test]
fn logic_de_morgan_weak() {
    let mut rng = StdRng::seed_from_u64(0xDE_40);
    for _ in 0..cases(64) {
        let (a, b) = (arb_logic(&mut rng), arb_logic(&mut rng));
        // On the 4-valued domain, both sides are always equal for AND/OR
        // since X/Z map identically through not().
        assert_eq!(a.and(b).not(), a.not().or(b.not()));
        assert_eq!(a.or(b).not(), a.not().and(b.not()));
    }
}

#[test]
fn logic_absorption_on_defined() {
    let mut rng = StdRng::seed_from_u64(0xAB_50);
    for _ in 0..cases(64) {
        let av = Logic::from_bool(rng.gen::<bool>());
        let b = arb_logic(&mut rng);
        // a | (a & b) == a and a & (a | b) == a for defined `a`.
        assert_eq!(av.or(av.and(b)), av);
        assert_eq!(av.and(av.or(b)), av);
    }
}

// ---- Waveforms and VCD ----

#[test]
fn vcd_round_trips_arbitrary_waves() {
    let mut rng = StdRng::seed_from_u64(0x7CD);
    for _ in 0..cases(48) {
        let changes = arb_changes(&mut rng, 0);
        let nsignals = rng.gen_range(1usize..4);
        let mut wave = WaveTrace::new();
        for s in 0..nsignals {
            wave.signals.push(WaveSignal {
                name: format!("sig{s}"),
                changes: changes.clone(),
            });
        }
        let parsed = parse_vcd(&write_vcd(&wave)).unwrap();
        assert_eq!(parsed.signals.len(), wave.signals.len());
        for (a, b) in wave.signals.iter().zip(&parsed.signals) {
            assert_eq!(a.changes, b.changes);
        }
    }
}

#[test]
fn wave_value_at_reconstructs_changes() {
    let mut rng = StdRng::seed_from_u64(0x3A1E);
    for _ in 0..cases(48) {
        let changes = arb_changes(&mut rng, 1);
        let sig = WaveSignal {
            name: "s".into(),
            changes: changes.clone(),
        };
        for &(t, v) in &changes {
            assert_eq!(sig.value_at(t), v);
        }
        if let Some(&(t0, _)) = changes.first() {
            if t0 > 0 {
                assert_eq!(sig.value_at(t0 - 1), Logic::X);
            }
        }
    }
}

// ---- Preprocessing bounds ----

fn arb_rows(rng: &mut StdRng, width: usize) -> Vec<Vec<f64>> {
    let n = rng.gen_range(1usize..20);
    (0..n)
        .map(|_| (0..width).map(|_| (rng.gen::<f64>() - 0.5) * 2e6).collect())
        .collect()
}

#[test]
fn standard_scaler_is_finite_everywhere() {
    let mut rng = StdRng::seed_from_u64(0x57D);
    for _ in 0..cases(48) {
        let rows = arb_rows(&mut rng, 2);
        let scaler = StandardScaler::fit(&rows).unwrap();
        for row in scaler.transform(&rows) {
            for v in row {
                assert!(v.is_finite());
            }
        }
    }
}

// ---- Metrics invariants ----

#[test]
fn binary_metrics_are_rates() {
    let mut rng = StdRng::seed_from_u64(0xB17);
    for _ in 0..cases(48) {
        let n = rng.gen_range(1usize..50);
        let truth: Vec<i8> = (0..n)
            .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
            .collect();
        let predicted: Vec<i8> = truth
            .iter()
            .map(|&t| if rng.gen::<bool>() { -t } else { t })
            .collect();
        let m = BinaryMetrics::from_predictions(&truth, &predicted);
        assert_eq!(m.total(), truth.len());
        for rate in [m.tpr(), m.tnr(), m.precision(), m.accuracy(), m.f1()] {
            assert!((0.0..=1.0).contains(&rate));
        }
        let expected_acc = truth.iter().zip(&predicted).filter(|(t, p)| t == p).count() as f64
            / truth.len() as f64;
        assert!((m.accuracy() - expected_acc).abs() < 1e-12);
    }
}

#[test]
fn auc_is_in_unit_interval() {
    let mut rng = StdRng::seed_from_u64(0xA0C);
    for _ in 0..cases(48) {
        let n = rng.gen_range(2usize..40);
        let truth: Vec<i8> = (0..n)
            .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
            .collect();
        let scores: Vec<f64> = (0..n).map(|_| (rng.gen::<f64>() - 0.5) * 20.0).collect();
        // Need both classes for a meaningful curve; otherwise skip.
        if truth.contains(&1) && truth.contains(&-1) {
            let roc = roc_curve(&truth, &scores);
            assert!((-1e-9..=1.0 + 1e-9).contains(&roc.auc), "auc = {}", roc.auc);
            assert_eq!(roc.points.first().copied(), Some((0.0, 0.0)));
            assert_eq!(roc.points.last().copied(), Some((1.0, 1.0)));
        }
    }
}
