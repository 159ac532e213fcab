//! Equal-proportion random sampling within clusters.
//!
//! SSRESF does not simulate every cell: each cluster contributes a fixed
//! fraction of its members to the fault-injection list, with a minimum
//! per-cluster sample so tiny clusters still get coverage.

use crate::clustering::Clustering;
use crate::error::SsresfError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ssresf_netlist::CellId;

/// Sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Fraction of each cluster to sample, in `(0, 1]`.
    pub fraction: f64,
    /// Lower bound on samples per (nonempty) cluster.
    pub min_per_cluster: usize,
    /// RNG seed.
    pub seed: u64,
    /// Hard cap on the total sample size (`None` = uncapped). Per-cluster
    /// `ceil` rounding and `min_per_cluster` floors can push the sum past
    /// the intended budget; when they do, samples are trimmed one at a
    /// time from the cluster with the largest current sample — ties break
    /// toward the higher-indexed cluster — dropping each cluster's
    /// highest-id cells first. The cap wins over `min_per_cluster`.
    pub budget: Option<usize>,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            fraction: 0.2,
            min_per_cluster: 4,
            seed: 2,
            budget: None,
        }
    }
}

/// The fault-injection sample: selected cells per cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSample {
    /// Selected cells, one list per cluster (same order as the clustering).
    pub per_cluster: Vec<Vec<CellId>>,
}

impl ClusterSample {
    /// All sampled cells, flattened.
    pub fn all_cells(&self) -> Vec<CellId> {
        self.per_cluster.iter().flatten().copied().collect()
    }

    /// Total sample size.
    pub fn len(&self) -> usize {
        self.per_cluster.iter().map(Vec::len).sum()
    }

    /// Whether nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Draws the equal-proportion sample from every cluster.
///
/// # Errors
///
/// Returns [`SsresfError::Config`] for a fraction outside `(0, 1]`.
pub fn sample_clusters(
    clustering: &Clustering,
    config: &SamplingConfig,
) -> Result<ClusterSample, SsresfError> {
    if !(config.fraction > 0.0 && config.fraction <= 1.0) {
        return Err(SsresfError::Config(format!(
            "sampling fraction {} outside (0, 1]",
            config.fraction
        )));
    }
    let mut per_cluster = Vec::with_capacity(clustering.members.len());
    for (index, members) in clustering.members.iter().enumerate() {
        if members.is_empty() {
            per_cluster.push(Vec::new());
            continue;
        }
        // Each cluster draws from its own seeded stream (mirroring the
        // per-cell fault streams), so perturbing one cluster's membership
        // leaves every other cluster's sample unchanged.
        let mut rng = StdRng::seed_from_u64(
            config.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)),
        );
        let want = ((members.len() as f64 * config.fraction).ceil() as usize)
            .max(config.min_per_cluster)
            .min(members.len());
        let mut pool = members.clone();
        pool.shuffle(&mut rng);
        pool.truncate(want);
        pool.sort();
        per_cluster.push(pool);
    }
    if let Some(budget) = config.budget {
        trim_to_budget(&mut per_cluster, budget);
    }
    Ok(ClusterSample { per_cluster })
}

/// Trims an over-budget draw back to `budget` cells: repeatedly drop one
/// cell from the cluster with the largest current sample, breaking size
/// ties toward the higher-indexed cluster. Cells within a cluster are
/// sorted ascending, so each trim removes the cluster's highest id.
fn trim_to_budget(per_cluster: &mut [Vec<CellId>], budget: usize) {
    let mut total: usize = per_cluster.iter().map(Vec::len).sum();
    while total > budget {
        let victim = per_cluster
            .iter()
            .enumerate()
            .max_by(|(ai, a), (bi, b)| a.len().cmp(&b.len()).then(ai.cmp(bi)))
            .map(|(i, _)| i)
            .expect("total > budget implies a nonempty cluster");
        per_cluster[victim].pop();
        total -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustering(sizes: &[usize]) -> Clustering {
        let mut members = Vec::new();
        let mut assignment = Vec::new();
        let mut next = 0u32;
        for (c, &size) in sizes.iter().enumerate() {
            let mut cluster = Vec::new();
            for _ in 0..size {
                cluster.push(CellId(next));
                assignment.push(c as u32);
                next += 1;
            }
            members.push(cluster);
        }
        Clustering {
            assignment,
            clusters: sizes.len(),
            members,
        }
    }

    #[test]
    fn samples_proportionally_with_minimum() {
        let c = clustering(&[100, 10, 2]);
        let sample = sample_clusters(
            &c,
            &SamplingConfig {
                fraction: 0.1,
                min_per_cluster: 4,
                seed: 1,
                budget: None,
            },
        )
        .unwrap();
        assert_eq!(sample.per_cluster[0].len(), 10); // 10% of 100
        assert_eq!(sample.per_cluster[1].len(), 4); // min kicks in
        assert_eq!(sample.per_cluster[2].len(), 2); // capped by cluster size
        assert_eq!(sample.len(), 16);
    }

    #[test]
    fn sampled_cells_belong_to_their_cluster() {
        let c = clustering(&[20, 20]);
        let sample = sample_clusters(&c, &SamplingConfig::default()).unwrap();
        for (cluster, cells) in sample.per_cluster.iter().enumerate() {
            for cell in cells {
                assert!(c.members[cluster].contains(cell));
            }
            // No duplicates.
            let mut sorted = cells.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), cells.len());
        }
    }

    #[test]
    fn full_fraction_takes_everything() {
        let c = clustering(&[7, 3]);
        let sample = sample_clusters(
            &c,
            &SamplingConfig {
                fraction: 1.0,
                min_per_cluster: 1,
                seed: 3,
                budget: None,
            },
        )
        .unwrap();
        assert_eq!(sample.len(), 10);
    }

    #[test]
    fn deterministic_under_seed() {
        let c = clustering(&[50]);
        let cfg = SamplingConfig::default();
        assert_eq!(
            sample_clusters(&c, &cfg).unwrap(),
            sample_clusters(&c, &cfg).unwrap()
        );
    }

    #[test]
    fn rejects_bad_fraction() {
        let c = clustering(&[5]);
        for fraction in [0.0, -0.5, 1.5] {
            assert!(sample_clusters(
                &c,
                &SamplingConfig {
                    fraction,
                    ..SamplingConfig::default()
                }
            )
            .is_err());
        }
    }

    #[test]
    fn clusters_sample_from_independent_streams() {
        // Perturbing one cluster's membership must not change any other
        // cluster's sample (per-cluster seeded streams).
        let base = clustering(&[30, 30, 30]);
        let cfg = SamplingConfig {
            fraction: 0.3,
            min_per_cluster: 2,
            seed: 7,
            budget: None,
        };
        let before = sample_clusters(&base, &cfg).unwrap();

        let mut perturbed = base.clone();
        perturbed.members[1].pop();
        let after = sample_clusters(&perturbed, &cfg).unwrap();

        assert_eq!(before.per_cluster[0], after.per_cluster[0]);
        assert_eq!(before.per_cluster[2], after.per_cluster[2]);
    }

    #[test]
    fn minimum_larger_than_every_cluster_takes_whole_clusters() {
        // A per-cluster minimum above the cluster size must cap at the
        // cluster, not panic or oversample.
        let c = clustering(&[2, 3, 1]);
        let sample = sample_clusters(
            &c,
            &SamplingConfig {
                fraction: 0.1,
                min_per_cluster: 10,
                seed: 5,
                budget: None,
            },
        )
        .unwrap();
        assert_eq!(sample.per_cluster[0].len(), 2);
        assert_eq!(sample.per_cluster[1].len(), 3);
        assert_eq!(sample.per_cluster[2].len(), 1);
    }

    #[test]
    fn budget_absorbs_ceil_rounding_drift() {
        // ceil(0.25 * 10) = 3 per cluster sums to 9; a budget of 8 must
        // trim exactly one cell, from the highest-indexed largest cluster.
        let c = clustering(&[10, 10, 10]);
        let sample = sample_clusters(
            &c,
            &SamplingConfig {
                fraction: 0.25,
                min_per_cluster: 1,
                seed: 9,
                budget: Some(8),
            },
        )
        .unwrap();
        assert_eq!(sample.len(), 8);
        assert_eq!(sample.per_cluster[0].len(), 3);
        assert_eq!(sample.per_cluster[1].len(), 3);
        assert_eq!(sample.per_cluster[2].len(), 2);
    }

    #[test]
    fn budget_tie_break_drops_higher_indexed_clusters_first() {
        let c = clustering(&[6, 6, 6]);
        let cfg = SamplingConfig {
            fraction: 0.5,
            min_per_cluster: 1,
            seed: 11,
            budget: Some(7),
        };
        let sample = sample_clusters(&c, &cfg).unwrap();
        // 3 + 3 + 3 = 9 trimmed to 7: cluster 2 loses first (tie toward
        // the higher index), then cluster 1, leaving 3/2/2.
        assert_eq!(
            sample.per_cluster.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
        // Untrimmed clusters keep exactly the unbudgeted draw, and each
        // trimmed cluster is a prefix of it (highest ids dropped first).
        let free = sample_clusters(
            &c,
            &SamplingConfig {
                budget: None,
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(sample.per_cluster[0], free.per_cluster[0]);
        for cluster in 1..3 {
            assert_eq!(
                sample.per_cluster[cluster][..],
                free.per_cluster[cluster][..2]
            );
        }
        // Repeated draws are identical.
        assert_eq!(sample, sample_clusters(&c, &cfg).unwrap());
    }

    #[test]
    fn budget_larger_than_draw_changes_nothing() {
        let c = clustering(&[20, 20]);
        let free = sample_clusters(&c, &SamplingConfig::default()).unwrap();
        let capped = sample_clusters(
            &c,
            &SamplingConfig {
                budget: Some(1_000),
                ..SamplingConfig::default()
            },
        )
        .unwrap();
        assert_eq!(free, capped);
    }

    #[test]
    fn budget_wins_over_per_cluster_minimum() {
        let c = clustering(&[5, 5]);
        let sample = sample_clusters(
            &c,
            &SamplingConfig {
                fraction: 0.2,
                min_per_cluster: 4,
                seed: 13,
                budget: Some(3),
            },
        )
        .unwrap();
        assert_eq!(sample.len(), 3);
    }

    #[test]
    fn empty_clusters_stay_empty() {
        let c = clustering(&[0, 5]);
        let sample = sample_clusters(&c, &SamplingConfig::default()).unwrap();
        assert!(sample.per_cluster[0].is_empty());
        assert!(!sample.per_cluster[1].is_empty());
    }
}
