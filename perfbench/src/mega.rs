//! `mega_oneshot`: the one-shot pipeline on the mega SoC preset, from
//! `SocConfig` to a whole-chip sensitivity map.
//!
//! Op: `build_soc` → `flatten` → `Ssresf::analyze`, with `scale_smoke`'s
//! pipeline settings (levelized engine, 256-lane batches, fault collapsing
//! and lane refill on, sample fraction 0.0002, 16 run cycles).
//!
//! Why this workload: it is the only one where netlist-scale layers
//! dominate. It loads socgen (build), netlist (flatten, features),
//! `Dut::from_conventions`, the bit-parallel campaign (golden + batched
//! injection) and mlcore (train, predict over every cell), and it is the
//! workload that measures memory. It bypasses the event-driven engine, the
//! active-learning loop and serve.
//!
//! Size: the preset is elaborated with `memory_rows_log2 = 13` instead of
//! its 15, which keeps the name and the layer ranking (≈ 378k cells) while
//! an op takes a few seconds instead of ≈ 30 s, so a run holds several
//! ops. Every op rebuilds the netlist from its config, so no op is shorter
//! than the build itself, which alone takes about a second.

use crate::trace::Tracer;
use crate::{derive_seed, rate, Digest, OpOutput, WorkerSink, Workload};
use ssresf::{
    campaign_jobs, cluster_cells, evaluate_ser, label_cells, run_injection_jobs_with_golden,
    sample_clusters, scaled_chip_xsect, train_sensitivity, Dut, EngineKind, Instrument,
    MetricsRegistry, Ssresf, SsresfConfig,
};
use ssresf_netlist::{CellId, FeatureExtractor, FlatNetlist, ModuleClass};
use ssresf_socgen::{build_soc, SocConfig};
use std::collections::BTreeMap;

/// Rows of the streamed SRAM sub-array (the preset elaborates 2^15).
const MEMORY_ROWS_LOG2: usize = 13;
const BATCH_LANES: usize = 256;

pub struct Mega {
    soc: SocConfig,
    pipeline: SsresfConfig,
    threads: usize,
    /// Cells of the elaborated netlist, counted in setup.
    cells: usize,
}

impl Mega {
    /// Elaborates the netlist once to learn the cell count every op must
    /// predict, and pins the pipeline configuration.
    pub fn setup(seed: u64, threads: usize) -> Result<Self, String> {
        let soc = SocConfig {
            memory_rows_log2: MEMORY_ROWS_LOG2,
            ..SocConfig::mega()
        };
        let built = build_soc(&soc).map_err(|e| format!("build_soc: {e}"))?;
        let cells = built
            .design
            .flatten()
            .map_err(|e| format!("flatten: {e}"))?
            .num_cells();

        let mut pipeline = SsresfConfig::default();
        pipeline.clustering.clusters = 24;
        pipeline.clustering.layer_depth = 3;
        pipeline.clustering.seed = derive_seed(seed, 1);
        pipeline.clustering.threads = threads;
        pipeline.sampling.fraction = 0.0002;
        pipeline.sampling.min_per_cluster = 2;
        pipeline.sampling.seed = derive_seed(seed, 2);
        pipeline.campaign.workload = ssresf::Workload {
            reset_cycles: 2,
            run_cycles: 16,
        };
        pipeline.campaign.injections_per_cell = 1;
        pipeline.campaign.seed = derive_seed(seed, 3);
        pipeline.campaign.engine = EngineKind::Levelized;
        pipeline.campaign.batching = true;
        pipeline.campaign.batch_lanes = BATCH_LANES;
        pipeline.campaign.collapse_faults = true;
        pipeline.campaign.lane_refill = true;
        pipeline.campaign.checkpoint_interval = 0;
        pipeline.campaign.early_stop = false;
        pipeline.campaign.threads = threads;
        pipeline.sensitivity.seed = derive_seed(seed, 4);
        pipeline.sensitivity.threads = threads;
        Ok(Mega {
            soc,
            pipeline,
            threads,
            cells,
        })
    }

    fn untraced(&self) -> Result<Outcome, String> {
        let soc = build_soc(&self.soc).map_err(|e| format!("build_soc: {e}"))?;
        let flat = soc.design.flatten().map_err(|e| format!("flatten: {e}"))?;
        let framework = Ssresf::new(
            self.pipeline
                .with_memory_scale(soc.info.memory_scale_factor),
        );
        let analysis = framework
            .analyze(&flat)
            .map_err(|e| format!("analyze: {e}"))?;
        Ok(Outcome {
            cells: flat.num_cells(),
            sampled: analysis.sample.len(),
            records: analysis.campaign.records,
            predictions: analysis.predictions,
            chip_ser: analysis.ser.chip_ser,
            accuracy: analysis.sensitivity_report.metrics.accuracy(),
            class_counts: analysis.class_counts,
            chip_xsect: analysis.chip_xsect,
            layers: BTreeMap::new(),
        })
    }

    /// The op split into the public calls `Ssresf::analyze` makes, each in
    /// its own span.
    fn traced(&self, t: &Tracer) -> Result<Outcome, String> {
        let soc = t
            .span("socgen.build", || build_soc(&self.soc))
            .map_err(|e| format!("build_soc: {e}"))?;
        let flat = t
            .span("netlist.flatten", || soc.design.flatten())
            .map_err(|e| format!("flatten: {e}"))?;
        let config = self
            .pipeline
            .with_memory_scale(soc.info.memory_scale_factor);
        fn err(stage: &'static str) -> impl Fn(ssresf::SsresfError) -> String {
            move |e| format!("{stage}: {e}")
        }
        let dut = t
            .span("workload.dut", || Dut::from_conventions(&flat))
            .map_err(err("dut"))?;
        let clustering = t
            .span("clustering.cluster", || {
                cluster_cells(&flat, &config.clustering)
            })
            .map_err(err("cluster"))?;
        let sample = t
            .span("sampling.sample", || {
                sample_clusters(&clustering, &config.sampling)
            })
            .map_err(err("sample"))?;
        let cells = sample.all_cells();
        let campaign_config = &config.campaign;
        let jobs = t
            .span("campaign.inject", || {
                campaign_jobs(&dut, &cells, campaign_config)
            })
            .map_err(err("jobs"))?;
        let golden = t
            .span("campaign.golden", || {
                dut.run_golden_with_checkpoints(
                    campaign_config.engine,
                    &campaign_config.workload,
                    campaign_config.checkpoint_interval,
                )
            })
            .map_err(err("golden"))?;
        let metrics = MetricsRegistry::new();
        let workers = WorkerSink::default();
        let hooks = Instrument {
            metrics: Some(&metrics),
            progress: Some(&workers),
            ..Instrument::default()
        };
        let mut campaign = t
            .span("campaign.inject", || {
                run_injection_jobs_with_golden(&dut, jobs, campaign_config, &golden, &hooks)
            })
            .map_err(err("inject"))?;
        let ser = t
            .span("ser.eval", || {
                evaluate_ser(&flat, &clustering, &sample, &campaign)
            })
            .map_err(err("ser"))?;
        let features = t
            .span("netlist.features", || {
                let extractor = FeatureExtractor::new(&flat)?;
                let ids: Vec<CellId> = flat.iter_cells().map(|(id, _)| id).collect();
                Ok::<_, ssresf_netlist::NetlistError>(ssresf_mlcore::parallel_map(
                    &ids,
                    config.sensitivity.threads,
                    |_, &id| extractor.extract_cell(id, Some(&campaign.golden_activity)),
                ))
            })
            .map_err(|e| format!("features: {e}"))?;
        let labels = t.span("sensitivity.label", || {
            label_cells(&cells, &campaign, &clustering, &ser, config.labeling)
        });
        let (classifier, report) = t
            .span("mlcore.train", || {
                train_sensitivity(&features, &labels, &config.sensitivity)
            })
            .map_err(err("train"))?;
        let predictions = t.span("mlcore.predict", || {
            classifier.classify_all_with(&features, config.sensitivity.threads)
        });
        let (class_counts, chip_xsect) = t.span("framework.rest", || {
            (
                class_counts(&flat, &predictions),
                scaled_chip_xsect(
                    &flat,
                    config.campaign.environment.let_value,
                    config.memory_scale,
                ),
            )
        });

        let injections = campaign.records.len() as f64;
        let per_injection = |v: u64| {
            if injections > 0.0 {
                v as f64 / injections
            } else {
                0.0
            }
        };
        let telemetry = &campaign.telemetry;
        let (imbalance, idle) = workers.balance();
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::from([
            ("netlist.cells", flat.num_cells() as f64),
            ("campaign.injections", injections),
            (
                "campaign.work",
                (golden.outcome.work + campaign.total_work) as f64,
            ),
            (
                "campaign.work_per_injection",
                per_injection(campaign.total_work),
            ),
            (
                "sim.word_evals",
                (golden.outcome.engine.word_evals + telemetry.engine.word_evals) as f64,
            ),
            (
                "sim.events",
                (golden.outcome.engine.events_processed + telemetry.engine.events_processed) as f64,
            ),
            (
                "campaign.batch_occupancy",
                metrics
                    .histogram("campaign.batch_occupancy")
                    .map_or(0.0, |h| h.mean()),
            ),
            (
                "campaign.collapse_frac",
                per_injection(telemetry.collapsed_faults),
            ),
            ("campaign.lane_refills", telemetry.lane_refills as f64),
            (
                "campaign.checkpoint_restore_frac",
                per_injection(telemetry.checkpoint_restores),
            ),
            ("campaign.worker_imbalance", imbalance),
            ("campaign.worker_idle_frac", idle),
            ("campaign.soft_errors", campaign.soft_errors() as f64),
            ("ser.chip_ser", ser.chip_ser),
            ("mlcore.smo_iterations", report.solver.iterations as f64),
            (
                "mlcore.kernel_cache_hit_rate",
                rate(
                    report.solver.kernel_cache_hits,
                    report.solver.kernel_cache_misses,
                ),
            ),
        ]);
        let out = Outcome {
            cells: flat.num_cells(),
            sampled: sample.len(),
            records: std::mem::take(&mut campaign.records),
            predictions,
            chip_ser: ser.chip_ser,
            accuracy: report.metrics.accuracy(),
            class_counts,
            chip_xsect,
            layers: BTreeMap::new(),
        };
        // The untraced op frees the same data before it returns.
        t.span("framework.rest", move || {
            drop((features, campaign, golden, clustering, sample, flat, soc))
        });

        for (name, s) in t.self_times() {
            if let Some(metric) = crate::layer_time_metric(&name) {
                layers.insert(metric, s);
            }
        }
        let predict_s = layers.get("mlcore.predict_s").copied().unwrap_or(0.0);
        if predict_s > 0.0 {
            layers.insert(
                "mlcore.predict_cells_per_s",
                out.predictions.len() as f64 / predict_s,
            );
        }
        Ok(Outcome { layers, ..out })
    }
}

/// `(highly sensitive, total)` predicted cells per module class, as
/// `Ssresf::analyze` counts them into `Analysis::class_counts`.
fn class_counts(
    flat: &FlatNetlist,
    predictions: &[(CellId, bool)],
) -> BTreeMap<String, (usize, usize)> {
    let mut counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for &(cell, high) in predictions {
        let class = ModuleClass::infer(flat.paths().resolve(flat.cell(cell).path).segments());
        let entry = counts.entry(class.name().to_owned()).or_default();
        entry.1 += 1;
        if high {
            entry.0 += 1;
        }
    }
    counts
}

/// What the checks need from one op.
struct Outcome {
    cells: usize,
    sampled: usize,
    records: Vec<ssresf::InjectionRecord>,
    predictions: Vec<(CellId, bool)>,
    chip_ser: f64,
    accuracy: f64,
    class_counts: BTreeMap<String, (usize, usize)>,
    chip_xsect: (f64, f64),
    layers: BTreeMap<&'static str, f64>,
}

impl Workload for Mega {
    fn op(&mut self, tracer: Option<&Tracer>) -> Result<OpOutput, String> {
        let out = match tracer {
            Some(t) => self.traced(t)?,
            None => self.untraced()?,
        };
        if out.cells != self.cells {
            return Err(format!(
                "netlist has {} cells, setup elaborated {}",
                out.cells, self.cells
            ));
        }
        let one_per_cell = out.predictions.len() == self.cells
            && out
                .predictions
                .iter()
                .enumerate()
                .all(|(i, (cell, _))| cell.index() == i);
        if !one_per_cell {
            return Err(format!(
                "{} predictions for {} cells, not one per cell in cell order",
                out.predictions.len(),
                self.cells
            ));
        }
        let expected = out.sampled * self.pipeline.campaign.injections_per_cell;
        if out.records.len() != expected {
            return Err(format!(
                "{} records for {expected} scheduled injections",
                out.records.len()
            ));
        }
        let mut digest = Digest::default();
        digest.records(&out.records);
        digest.predictions(&out.predictions);
        digest.u64(out.chip_ser.to_bits());
        for (class, &(high, total)) in &out.class_counts {
            digest.bytes(class.as_bytes());
            digest.u64(high as u64);
            digest.u64(total as u64);
        }
        digest.u64(out.chip_xsect.0.to_bits());
        digest.u64(out.chip_xsect.1.to_bits());
        let high = out.predictions.iter().filter(|(_, h)| *h).count();
        Ok(OpOutput {
            digest: digest.finish(),
            records: out.records.len(),
            soft_errors: out.records.iter().filter(|r| r.soft_error).count(),
            chip_ser: out.chip_ser,
            accuracy: out.accuracy,
            facts: vec![
                ("predicted cells", out.predictions.len().to_string()),
                ("predicted highly sensitive", high.to_string()),
                ("injected cells", out.sampled.to_string()),
            ],
            layers: out.layers,
        })
    }

    fn properties(&self) -> Vec<(&'static str, String)> {
        let c = &self.pipeline.campaign;
        vec![
            (
                "netlist",
                format!(
                    "{} with memory_rows_log2 {MEMORY_ROWS_LOG2}, {} cells",
                    self.soc.name, self.cells
                ),
            ),
            (
                "campaign",
                format!(
                    "{:?} engine, batched at {} lanes, collapse {}, refill {}, \
                     {} run cycles, {} injection(s) per cell, sample fraction {}",
                    c.engine,
                    c.batch_lanes,
                    c.collapse_faults,
                    c.lane_refill,
                    c.workload.run_cycles,
                    c.injections_per_cell,
                    self.pipeline.sampling.fraction
                ),
            ),
            (
                "threads",
                format!(
                    "campaign {}, clustering {}, sensitivity {}",
                    c.threads, self.pipeline.clustering.threads, self.threads
                ),
            ),
        ]
    }
}
