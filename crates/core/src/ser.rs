//! Soft-error-rate evaluation (paper §III-D, Eq. 2).

use crate::campaign::CampaignOutcome;
use crate::clustering::Clustering;
use crate::error::SsresfError;
use crate::sampling::ClusterSample;
use ssresf_netlist::{FlatNetlist, ModuleClass};
use std::collections::BTreeMap;

/// Per-cluster SER evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSer {
    /// Cluster index.
    pub cluster: usize,
    /// Total cells in the cluster.
    pub cells: usize,
    /// Cells sampled for injection.
    pub sampled: usize,
    /// Injections performed.
    pub injections: usize,
    /// Soft errors observed.
    pub errors: usize,
}

impl ClusterSer {
    /// The cluster's soft-error rate: observed errors over injections
    /// (0 when nothing was injected).
    pub fn ser(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.errors as f64 / self.injections as f64
        }
    }
}

/// Chip-level SER evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SerEvaluation {
    /// Per-cluster results, by cluster index.
    pub per_cluster: Vec<ClusterSer>,
    /// Whole-chip SER per paper Eq. 2: the cluster SERs weighted by cluster
    /// cell counts.
    pub chip_ser: f64,
    /// SER per inferred module class (cpu / bus / memory / other).
    pub per_module_class: BTreeMap<String, f64>,
}

impl SerEvaluation {
    /// Cluster indices sorted by descending SER (the paper's sensitive-
    /// cluster ranking).
    pub fn ranked_clusters(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.per_cluster.len()).collect();
        order.sort_by(|&a, &b| {
            self.per_cluster[b]
                .ser()
                .partial_cmp(&self.per_cluster[a].ser())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }
}

/// Evaluates SER from a campaign outcome.
///
/// # Errors
///
/// Returns [`SsresfError::Config`] when the sample shape mismatches the
/// clustering.
pub fn evaluate_ser(
    netlist: &FlatNetlist,
    clustering: &Clustering,
    sample: &ClusterSample,
    outcome: &CampaignOutcome,
) -> Result<SerEvaluation, SsresfError> {
    if sample.per_cluster.len() != clustering.members.len() {
        return Err(SsresfError::Config(format!(
            "sample has {} clusters, clustering has {}",
            sample.per_cluster.len(),
            clustering.members.len()
        )));
    }

    let mut per_cluster: Vec<ClusterSer> = clustering
        .members
        .iter()
        .enumerate()
        .map(|(i, members)| ClusterSer {
            cluster: i,
            cells: members.len(),
            sampled: sample.per_cluster[i].len(),
            injections: 0,
            errors: 0,
        })
        .collect();

    let mut class_counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for record in &outcome.records {
        let cluster = clustering.cluster_of(record.cell);
        per_cluster[cluster].injections += 1;
        if record.soft_error {
            per_cluster[cluster].errors += 1;
        }
        let class = ModuleClass::infer(
            netlist
                .paths()
                .resolve(netlist.cell(record.cell).path)
                .segments(),
        );
        let entry = class_counts.entry(class.name().to_owned()).or_default();
        entry.0 += 1;
        if record.soft_error {
            entry.1 += 1;
        }
    }

    // Paper Eq. 2: SER_chip = Σ |cluster_i| · SER_i / Σ |cluster_i|. The sum
    // runs over clusters with at least one injection: a cluster that was
    // never sampled has no SER estimate, and counting it as zero would skew
    // the chip SER downward (empty clusters carry zero weight either way).
    let measured = || per_cluster.iter().filter(|c| c.injections > 0);
    let measured_cells: usize = measured().map(|c| c.cells).sum();
    let chip_ser = if measured_cells == 0 {
        0.0
    } else {
        measured().map(|c| c.cells as f64 * c.ser()).sum::<f64>() / measured_cells as f64
    };

    let per_module_class = class_counts
        .into_iter()
        .map(|(class, (inj, err))| {
            (
                class,
                if inj == 0 {
                    0.0
                } else {
                    err as f64 / inj as f64
                },
            )
        })
        .collect();

    Ok(SerEvaluation {
        per_cluster,
        chip_ser,
        per_module_class,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::InjectionRecord;
    use ssresf_netlist::{CellId, CellKind, Design, ModuleBuilder, PortDir};
    use ssresf_sim::{Fault, SeuFault};

    fn tiny_netlist() -> FlatNetlist {
        let mut design = Design::new();
        let mut mb = ModuleBuilder::new("t");
        let clk = mb.port("clk", PortDir::Input);
        let a = mb.port("a", PortDir::Input);
        let y = mb.port("y", PortDir::Output);
        let w = mb.net("w");
        mb.cell("u0", CellKind::Inv, &[a], &[w]).unwrap();
        mb.cell("u1", CellKind::Dff, &[clk, w], &[y]).unwrap();
        let id = design.add_module(mb.finish()).unwrap();
        design.set_top(id).unwrap();
        design.flatten().unwrap()
    }

    fn record(cell: u32, soft_error: bool) -> InjectionRecord {
        InjectionRecord {
            cell: CellId(cell),
            fault: Fault::Seu(SeuFault {
                cell: CellId(cell),
                cycle: 0,
                offset: 0.0,
            }),
            soft_error,
            divergences: usize::from(soft_error),
        }
    }

    fn outcome(records: Vec<InjectionRecord>) -> CampaignOutcome {
        CampaignOutcome {
            golden: ssresf_sim::CycleTrace::new(vec![]),
            golden_activity: vec![],
            records,
            simulation_time: std::time::Duration::ZERO,
            golden_time: std::time::Duration::ZERO,
            total_work: 0,
            telemetry: crate::campaign::CampaignTelemetry::default(),
        }
    }

    #[test]
    fn eq2_weights_cluster_sers_by_size() {
        let netlist = tiny_netlist();
        let clustering = Clustering {
            assignment: vec![0, 1],
            clusters: 2,
            members: vec![vec![CellId(0)], vec![CellId(1)]],
        };
        let sample = ClusterSample {
            per_cluster: vec![vec![CellId(0)], vec![CellId(1)]],
        };
        // Cluster 0: SER 1.0 (1/1); cluster 1: SER 0.0 (0/1).
        let out = outcome(vec![record(0, true), record(1, false)]);
        let eval = evaluate_ser(&netlist, &clustering, &sample, &out).unwrap();
        assert_eq!(eval.per_cluster[0].ser(), 1.0);
        assert_eq!(eval.per_cluster[1].ser(), 0.0);
        // Equal cluster sizes -> chip SER = 0.5.
        assert!((eval.chip_ser - 0.5).abs() < 1e-12);
        assert_eq!(eval.ranked_clusters(), vec![0, 1]);
    }

    #[test]
    fn multiple_injections_average_within_cluster() {
        let netlist = tiny_netlist();
        let clustering = Clustering {
            assignment: vec![0, 0],
            clusters: 1,
            members: vec![vec![CellId(0), CellId(1)]],
        };
        let sample = ClusterSample {
            per_cluster: vec![vec![CellId(0), CellId(1)]],
        };
        let out = outcome(vec![
            record(0, true),
            record(0, false),
            record(1, false),
            record(1, false),
        ]);
        let eval = evaluate_ser(&netlist, &clustering, &sample, &out).unwrap();
        assert_eq!(eval.per_cluster[0].injections, 4);
        assert_eq!(eval.per_cluster[0].errors, 1);
        assert!((eval.chip_ser - 0.25).abs() < 1e-12);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let netlist = tiny_netlist();
        let clustering = Clustering {
            assignment: vec![0, 0],
            clusters: 1,
            members: vec![vec![CellId(0), CellId(1)]],
        };
        let sample = ClusterSample {
            per_cluster: vec![vec![], vec![]],
        };
        assert!(evaluate_ser(&netlist, &clustering, &sample, &outcome(vec![])).is_err());
    }

    #[test]
    fn empty_cluster_contributes_nothing_and_never_nans() {
        let netlist = tiny_netlist();
        // Cluster 1 is empty — a degenerate but legal clustering outcome.
        let clustering = Clustering {
            assignment: vec![0, 0],
            clusters: 2,
            members: vec![vec![CellId(0), CellId(1)], vec![]],
        };
        let sample = ClusterSample {
            per_cluster: vec![vec![CellId(0)], vec![]],
        };
        let out = outcome(vec![record(0, true), record(0, false)]);
        let eval = evaluate_ser(&netlist, &clustering, &sample, &out).unwrap();
        assert!(eval.chip_ser.is_finite());
        assert_eq!(eval.per_cluster[1].cells, 0);
        assert_eq!(eval.per_cluster[1].ser(), 0.0);
        // Chip SER is exactly the measured cluster's SER.
        assert!((eval.chip_ser - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unsampled_cluster_does_not_skew_chip_ser() {
        let netlist = tiny_netlist();
        // Cluster 1 has cells but zero sampled cells, hence zero injections.
        let clustering = Clustering {
            assignment: vec![0, 1],
            clusters: 2,
            members: vec![vec![CellId(0)], vec![CellId(1)]],
        };
        let sample = ClusterSample {
            per_cluster: vec![vec![CellId(0)], vec![]],
        };
        let out = outcome(vec![record(0, true)]);
        let eval = evaluate_ser(&netlist, &clustering, &sample, &out).unwrap();
        assert_eq!(eval.per_cluster[1].injections, 0);
        // Eq. 2 averages over measured clusters only: counting the
        // unsampled cluster as SER 0 would halve the chip SER.
        assert!((eval.chip_ser - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_cluster_chip_ser_equals_cluster_ser() {
        let netlist = tiny_netlist();
        let clustering = Clustering {
            assignment: vec![0, 0],
            clusters: 1,
            members: vec![vec![CellId(0), CellId(1)]],
        };
        let sample = ClusterSample {
            per_cluster: vec![vec![CellId(0), CellId(1)]],
        };
        let out = outcome(vec![
            record(0, true),
            record(0, false),
            record(1, true),
            record(1, false),
        ]);
        let eval = evaluate_ser(&netlist, &clustering, &sample, &out).unwrap();
        assert!((eval.chip_ser - eval.per_cluster[0].ser()).abs() < 1e-12);
        assert!((eval.chip_ser - 0.5).abs() < 1e-12);
        assert_eq!(eval.ranked_clusters(), vec![0]);
    }

    #[test]
    fn empty_campaign_yields_zero_ser() {
        let netlist = tiny_netlist();
        let clustering = Clustering {
            assignment: vec![0, 0],
            clusters: 1,
            members: vec![vec![CellId(0), CellId(1)]],
        };
        let sample = ClusterSample {
            per_cluster: vec![vec![]],
        };
        let eval = evaluate_ser(&netlist, &clustering, &sample, &outcome(vec![])).unwrap();
        assert_eq!(eval.chip_ser, 0.0);
        assert!(eval.per_module_class.is_empty());
    }
}
