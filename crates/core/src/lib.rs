//! # SSRESF — Sensitivity-aware Single-particle Radiation Effects Simulation Framework
//!
//! A Rust reproduction of *"SSRESF: Sensitivity-aware Single-particle
//! Radiation Effects Simulation Framework in SoC Platforms based on SVM
//! Algorithm"* (DAC 2024). The framework analyzes gate-level netlists for
//! single-event sensitivity:
//!
//! 1. [`clustering`] — Algorithm-1 grouping of cells by the Eq.-1
//!    hierarchical-path distance;
//! 2. [`sampling`] — equal-proportion random sampling within clusters;
//! 3. [`campaign`] — SET/SEU fault injection into a live logic simulation,
//!    with soft errors detected by golden-vs-faulty output-trace comparison
//!    and each injection fast-forwarded from golden-run checkpoints;
//! 4. [`ser`] — per-cluster and whole-chip soft-error rate (Eq. 2);
//! 5. [`sensitivity`] — SVM training on structural features and fast
//!    classification of every remaining node.
//!
//! The [`Ssresf`] facade runs the whole pipeline; substrates live in the
//! companion crates `ssresf-netlist`, `ssresf-sim`, `ssresf-radiation`,
//! `ssresf-mlcore` and `ssresf-socgen`.
//!
//! # Example
//!
//! ```no_run
//! use ssresf::{Ssresf, SsresfConfig};
//! use ssresf_socgen::{build_soc, SocConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let soc = build_soc(&SocConfig::table1()[0])?;
//! let netlist = soc.design.flatten()?;
//! let framework = Ssresf::new(
//!     SsresfConfig::default().with_memory_scale(soc.info.memory_scale_factor),
//! );
//! let analysis = framework.analyze(&netlist)?;
//! println!("chip SER = {:.4}", analysis.ser.chip_ser);
//! println!("SVM accuracy = {:.2}%", analysis.sensitivity_report.metrics.accuracy() * 100.0);
//! println!("speed-up = {:.1}x", analysis.timing.speedup());
//! # Ok(())
//! # }
//! ```

pub mod active;
pub mod campaign;
pub mod clustering;
mod codec;
pub mod error;
pub mod framework;
pub mod hardening;
pub mod mission;
pub mod progress;
pub mod sampling;
pub mod sensitivity;
pub mod ser;
pub mod shard;
pub mod workload;

pub use active::{label_cells, ActiveAnalysis, ActiveLearningConfig, ActiveRound};
pub use campaign::{
    run_campaign, run_campaign_with, run_injection_jobs, run_injection_jobs_with_golden,
    CampaignConfig, CampaignOutcome, CampaignTelemetry, CellErrorStats, InjectionRecord,
};
pub use clustering::{
    cluster_cells, cluster_cells_reference, hier_distance, Clustering, ClusteringConfig,
};
pub use error::SsresfError;
pub use framework::{
    scaled_chip_xsect, Analysis, LabelRule, Ssresf, SsresfConfig, Timing, MAX_SPEEDUP,
};
pub use hardening::{
    run_differential_campaign, selective_harden, DifferentialOutcome, HardeningStrategy,
    MitigationKind, MitigationOutcome, MitigationPlan, SelectiveHardening,
};
pub use mission::{run_mission_campaign, run_mission_campaign_with, MissionOutcome, SegmentStats};
pub use progress::{CampaignProgress, Instrument, ProgressPhase, ProgressSink, WorkerUtilization};
pub use sampling::{sample_clusters, ClusterSample, SamplingConfig};
pub use sensitivity::{
    train_sensitivity, SensitivityConfig, SensitivityReport, TrainedSensitivity,
};
pub use ser::{evaluate_ser, ClusterSer, SerEvaluation};
pub use shard::{
    campaign_jobs, merge_shard_outcomes, plan_shards, run_campaign_shard, run_campaign_shard_with,
    run_sharded_campaign, ShardOutcome,
};
// Re-exported so downstream users can attach metrics without depending on
// the telemetry crate directly.
pub use ssresf_telemetry::{MetricsRegistry, Span};
pub use workload::{Checkpoint, Dut, EngineKind, GoldenRun, RunOutcome, Workload};
