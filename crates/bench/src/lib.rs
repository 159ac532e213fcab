//! Shared helpers for the SSRESF benchmark harness.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures
//! (see `DESIGN.md` for the experiment index); the Criterion benches in
//! `benches/` measure the substrate. Set `SSRESF_QUICK=1` to shrink every
//! budget for smoke runs.

use ssresf::{Ssresf, SsresfConfig, Workload};
use ssresf_netlist::FlatNetlist;
use ssresf_socgen::{build_soc, BuiltSoc, SocConfig};
use std::path::Path;

/// Whether reduced budgets were requested via `SSRESF_QUICK=1`.
pub fn quick() -> bool {
    std::env::var("SSRESF_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Writes the report `name` (a `BENCH_*.json` file) to the root of the
/// workspace this crate was built from, whatever the working directory,
/// and prints the absolute path it wrote. Every benchmark writer goes
/// through here, so the reports land next to each other.
///
/// # Errors
///
/// Returns the error of resolving the workspace root or of the write.
pub fn write_bench_report(name: &str, contents: &str) -> std::io::Result<()> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()?
        .join(name);
    std::fs::write(&path, contents)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Builds one Table-I benchmark and flattens it.
///
/// # Panics
///
/// Panics if generation fails (the presets are always valid).
pub fn soc(index: usize) -> (BuiltSoc, FlatNetlist) {
    let config = SocConfig::table1()[index].clone();
    let built = build_soc(&config).expect("preset SoC builds");
    let flat = built.design.flatten().expect("preset SoC flattens");
    (built, flat)
}

/// The standard analysis configuration used by the table binaries, scaled
/// so campaigns on large netlists stay tractable.
pub fn analysis_config(built: &BuiltSoc, cells: usize) -> SsresfConfig {
    let mut config = SsresfConfig::default().with_memory_scale(built.info.memory_scale_factor);
    // The paper's cluster counts grow with SoC complexity; request a
    // generous KN and let the hierarchy bound it.
    config.clustering.clusters = 24;
    config.clustering.layer_depth = 3;
    // Cap the injection budget on big netlists.
    let budget = if quick() { 120.0 } else { 360.0 };
    config.sampling.fraction = (budget / cells as f64).clamp(0.01, 0.25);
    config.sampling.min_per_cluster = 4;
    config.campaign.workload = Workload {
        reset_cycles: 3,
        run_cycles: if quick() { 60 } else { 100 },
    };
    config.campaign.injections_per_cell = if quick() { 1 } else { 2 };
    config
}

/// Runs the full pipeline on a Table-I benchmark.
///
/// # Panics
///
/// Panics on analysis failure (the presets are known-good).
pub fn analyze(index: usize) -> (BuiltSoc, ssresf::Analysis) {
    let (built, flat) = soc(index);
    let config = analysis_config(&built, flat.cells().len());
    let analysis = Ssresf::new(config)
        .analyze(&flat)
        .expect("analysis succeeds");
    (built, analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soc_helper_builds_presets() {
        let (built, flat) = soc(0);
        assert!(flat.cells().len() > 100);
        assert!(built.info.memory_scale_factor > 1.0);
    }

    #[test]
    fn analysis_config_caps_sampling_on_large_netlists() {
        let (built, _) = soc(0);
        let small = analysis_config(&built, 1_000);
        let large = analysis_config(&built, 100_000);
        assert!(large.sampling.fraction < small.sampling.fraction);
        assert!(large.sampling.fraction >= 0.01);
    }
}
