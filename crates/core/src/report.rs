//! Serializable, human-readable analysis summaries.
//!
//! [`Analysis`] holds every raw artifact (traces, records, the trained
//! model); [`AnalysisSummary`] is the flat, serializable digest a report or
//! dashboard wants — the numbers SSRESF's tables are made of.

use crate::framework::Analysis;
use ssresf_json::{field, FromJson, ToJson, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A flat digest of one [`Analysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSummary {
    /// Cells in the analyzed netlist.
    pub cells: usize,
    /// Clusters produced by Algorithm 1.
    pub clusters: usize,
    /// Cluster sizes.
    pub cluster_sizes: Vec<usize>,
    /// Sampled cells.
    pub sampled: usize,
    /// Total injections.
    pub injections: usize,
    /// Injections that produced a soft error.
    pub soft_errors: usize,
    /// Chip SER (paper Eq. 2).
    pub chip_ser: f64,
    /// SER per module class.
    pub ser_per_class: BTreeMap<String, f64>,
    /// Held-out true-negative rate.
    pub tnr: f64,
    /// Held-out true-positive rate.
    pub tpr: f64,
    /// Held-out precision.
    pub precision: f64,
    /// Held-out accuracy.
    pub accuracy: f64,
    /// Held-out F1 score.
    pub f1: f64,
    /// ROC area under curve.
    pub auc: f64,
    /// `(high, total)` predicted sensitivity counts per module class.
    pub predicted_per_class: BTreeMap<String, (usize, usize)>,
    /// Chip SEU cross-section, cm².
    pub seu_xsect_cm2: f64,
    /// Chip SET cross-section, cm².
    pub set_xsect_cm2: f64,
    /// Simulation wall time, seconds.
    pub simulation_s: f64,
    /// Training wall time, seconds.
    pub training_s: f64,
    /// Prediction wall time, seconds.
    pub prediction_s: f64,
    /// Simulation-over-prediction speed-up.
    pub speedup: f64,
}

impl From<&Analysis> for AnalysisSummary {
    fn from(analysis: &Analysis) -> Self {
        let m = &analysis.sensitivity_report.metrics;
        AnalysisSummary {
            cells: analysis.predictions.len(),
            clusters: analysis.clustering.clusters,
            cluster_sizes: analysis.clustering.sizes(),
            sampled: analysis.sample.len(),
            injections: analysis.campaign.records.len(),
            soft_errors: analysis.campaign.soft_errors(),
            chip_ser: analysis.ser.chip_ser,
            ser_per_class: analysis.ser.per_module_class.clone(),
            tnr: m.tnr(),
            tpr: m.tpr(),
            precision: m.precision(),
            accuracy: m.accuracy(),
            f1: m.f1(),
            auc: analysis.sensitivity_report.roc.auc,
            predicted_per_class: analysis.class_counts.clone(),
            seu_xsect_cm2: analysis.chip_xsect.0,
            set_xsect_cm2: analysis.chip_xsect.1,
            simulation_s: analysis.timing.simulation().as_secs_f64(),
            training_s: analysis.timing.training().as_secs_f64(),
            prediction_s: analysis.timing.prediction().as_secs_f64(),
            speedup: analysis.timing.speedup(),
        }
    }
}

/// Predicted counts travel as `[high, total]` pairs.
impl ToJson for AnalysisSummary {
    fn to_json(&self) -> Value {
        let predicted_per_class = Value::Object(
            self.predicted_per_class
                .iter()
                .map(|(class, &(high, total))| (class.clone(), Value::from(vec![high, total])))
                .collect(),
        );
        ssresf_json::object([
            ("cells", self.cells.to_json()),
            ("clusters", self.clusters.to_json()),
            ("cluster_sizes", self.cluster_sizes.to_json()),
            ("sampled", self.sampled.to_json()),
            ("injections", self.injections.to_json()),
            ("soft_errors", self.soft_errors.to_json()),
            ("chip_ser", self.chip_ser.to_json()),
            ("ser_per_class", self.ser_per_class.to_json()),
            ("tnr", self.tnr.to_json()),
            ("tpr", self.tpr.to_json()),
            ("precision", self.precision.to_json()),
            ("accuracy", self.accuracy.to_json()),
            ("f1", self.f1.to_json()),
            ("auc", self.auc.to_json()),
            ("predicted_per_class", predicted_per_class),
            ("seu_xsect_cm2", self.seu_xsect_cm2.to_json()),
            ("set_xsect_cm2", self.set_xsect_cm2.to_json()),
            ("simulation_s", self.simulation_s.to_json()),
            ("training_s", self.training_s.to_json()),
            ("prediction_s", self.prediction_s.to_json()),
            ("speedup", self.speedup.to_json()),
        ])
    }
}

impl FromJson for AnalysisSummary {
    fn from_json(value: &Value) -> Result<Self, String> {
        let predicted_per_class =
            field::<BTreeMap<String, Vec<usize>>>(value, "predicted_per_class")?
                .into_iter()
                .map(|(class, counts)| match counts[..] {
                    [high, total] => Ok((class, (high, total))),
                    _ => Err(format!("bad predicted counts for class {class:?}")),
                })
                .collect::<Result<_, String>>()?;
        Ok(AnalysisSummary {
            cells: field(value, "cells")?,
            clusters: field(value, "clusters")?,
            cluster_sizes: field(value, "cluster_sizes")?,
            sampled: field(value, "sampled")?,
            injections: field(value, "injections")?,
            soft_errors: field(value, "soft_errors")?,
            chip_ser: field(value, "chip_ser")?,
            ser_per_class: field(value, "ser_per_class")?,
            tnr: field(value, "tnr")?,
            tpr: field(value, "tpr")?,
            precision: field(value, "precision")?,
            accuracy: field(value, "accuracy")?,
            f1: field(value, "f1")?,
            auc: field(value, "auc")?,
            predicted_per_class,
            seu_xsect_cm2: field(value, "seu_xsect_cm2")?,
            set_xsect_cm2: field(value, "set_xsect_cm2")?,
            simulation_s: field(value, "simulation_s")?,
            training_s: field(value, "training_s")?,
            prediction_s: field(value, "prediction_s")?,
            speedup: field(value, "speedup")?,
        })
    }
}

impl fmt::Display for AnalysisSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist: {} cells in {} clusters {:?}",
            self.cells, self.clusters, self.cluster_sizes
        )?;
        writeln!(
            f,
            "campaign: {} injections over {} sampled cells, {} soft errors",
            self.injections, self.sampled, self.soft_errors
        )?;
        writeln!(f, "chip SER (Eq. 2): {:.2}%", self.chip_ser * 100.0)?;
        for (class, ser) in &self.ser_per_class {
            writeln!(f, "  {class:<8} SER {:.2}%", ser * 100.0)?;
        }
        writeln!(
            f,
            "svm: TNR {:.1}%  TPR {:.1}%  precision {:.1}%  accuracy {:.1}%  F1 {:.2}  AUC {:.3}",
            self.tnr * 100.0,
            self.tpr * 100.0,
            self.precision * 100.0,
            self.accuracy * 100.0,
            self.f1,
            self.auc
        )?;
        for (class, (high, total)) in &self.predicted_per_class {
            writeln!(f, "  {class:<8} {high}/{total} predicted highly sensitive")?;
        }
        writeln!(
            f,
            "xsect: SEU {:.3e} cm², SET {:.3e} cm²",
            self.seu_xsect_cm2, self.set_xsect_cm2
        )?;
        write!(
            f,
            "timing: sim {:.2}s, train {:.2}s, predict {:.4}s (speed-up {:.0}x)",
            self.simulation_s, self.training_s, self.prediction_s, self.speedup
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ssresf, SsresfConfig, Workload};
    use ssresf_socgen::{build_soc, SocConfig};

    fn summary() -> AnalysisSummary {
        let soc = build_soc(&SocConfig::table1()[0]).unwrap();
        let netlist = soc.design.flatten().unwrap();
        let mut config = SsresfConfig::default();
        config.sampling.fraction = 0.08;
        config.campaign.workload = Workload {
            reset_cycles: 3,
            run_cycles: 50,
        };
        let analysis = Ssresf::new(config).analyze(&netlist).unwrap();
        AnalysisSummary::from(&analysis)
    }

    #[test]
    fn summary_digests_the_analysis() {
        let s = summary();
        assert!(s.cells > 500);
        assert!(s.injections >= s.sampled);
        assert!(s.soft_errors <= s.injections);
        assert!(s.chip_ser >= 0.0 && s.chip_ser <= 1.0);
        assert!(s.speedup > 1.0);
        assert!(s.ser_per_class.contains_key("bus"));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = summary();
        let restored = AnalysisSummary::from_json(&s.to_json()).unwrap();
        assert_eq!(s.cells, restored.cells);
        assert_eq!(s.predicted_per_class, restored.predicted_per_class);
        // Floats may lose the last ULP through the JSON text form.
        for (class, ser) in &s.ser_per_class {
            let back = restored.ser_per_class[class];
            assert!((ser - back).abs() <= ser.abs() * 1e-12);
        }
    }

    #[test]
    fn display_covers_the_headline_numbers() {
        let s = summary();
        let text = s.to_string();
        for needle in ["chip SER", "svm:", "xsect:", "timing:", "speed-up"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(AnalysisSummary::from_json(&Value::from("nope")).is_err());
    }
}
