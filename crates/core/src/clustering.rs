//! Algorithm 1: clustering analysis for the internal cells of a netlist.
//!
//! Cells are grouped by the hierarchical-path distance of paper Eq. 1:
//!
//! ```text
//! D(A, B) = Σ_{Li=1}^{LN} Compare(Module(A, Li), Module(B, Li)) · 2^(LN−Li)
//! ```
//!
//! i.e. a mismatch near the top of the hierarchy weighs exponentially more
//! than one deep inside. The k-medoids iteration of Algorithm 1 (random
//! centers → assign → recenter on the member with the minimum distance sum
//! → repeat until stable) is executed over *distinct depth-`LN` layer
//! signatures* weighted by their cell multiplicity — cells whose paths
//! agree on the first `LN` layers are indistinguishable under Eq. 1, which
//! shrinks the quadratic medoid update without changing the result.
//! Signatures are interned integers ([`ssresf_netlist::LayerSignatures`]),
//! so each distance is a handful of integer compares evaluated on demand
//! (no dense matrix), and the assign and update steps fan out across worker
//! threads with order-fixed reductions, keeping the output bit-identical
//! for every thread count. [`cluster_cells_reference`] preserves the
//! pre-optimization implementation as a differential baseline.

use crate::error::SsresfError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ssresf_mlcore::{parallel_map, resolve_threads};
use ssresf_netlist::{CellId, FlatNetlist, HierPath, PathId};
use std::collections::HashMap;

/// Configuration of the clustering pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringConfig {
    /// `KN` — number of clusters.
    pub clusters: usize,
    /// `LN` — layer depth considered by the distance function.
    pub layer_depth: usize,
    /// Seed for the random initial centers.
    pub seed: u64,
    /// Iteration bound (Algorithm 1 converges long before this).
    pub max_iters: usize,
    /// Worker threads for the assign and medoid-update steps (0 = all
    /// cores). The result is bit-identical for every thread count.
    pub threads: usize,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            clusters: 5,
            layer_depth: 3,
            seed: 1,
            max_iters: 64,
            threads: 0,
        }
    }
}

/// The result of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster index of every cell (indexed by `CellId`).
    pub assignment: Vec<u32>,
    /// Number of clusters actually produced (≤ configured `KN` when there
    /// are fewer distinct paths than requested clusters).
    pub clusters: usize,
    /// Member cells per cluster.
    pub members: Vec<Vec<CellId>>,
}

impl Clustering {
    /// Cluster of one cell.
    pub fn cluster_of(&self, cell: CellId) -> usize {
        self.assignment[cell.index()] as usize
    }

    /// Cells per cluster.
    pub fn sizes(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }
}

/// Paper Eq. 1: weighted layer-by-layer path comparison.
///
/// `Module(A, Li)` is the instance-path segment of `A` at (1-based) layer
/// `Li`; two absent segments compare equal (both cells live above that
/// depth), an absent vs. present segment compares unequal.
pub fn hier_distance(a: &HierPath, b: &HierPath, layer_depth: usize) -> u64 {
    let mut distance = 0u64;
    for li in 1..=layer_depth {
        let differs = a.layer(li) != b.layer(li);
        if differs {
            distance += 1u64 << (layer_depth - li);
        }
    }
    distance
}

/// Paper Eq. 1 over two [layer signatures](ssresf_netlist::LayerSignatures)
/// of equal width: a few integer compares instead of string comparisons.
fn sig_distance(a: &[u32], b: &[u32]) -> u64 {
    let ln = a.len();
    let mut distance = 0u64;
    for l in 0..ln {
        if a[l] != b[l] {
            distance += 1u64 << (ln - 1 - l);
        }
    }
    distance
}

fn validate_config(config: &ClusteringConfig) -> Result<(), SsresfError> {
    if config.clusters == 0 {
        return Err(SsresfError::Config("clusters must be nonzero".into()));
    }
    if config.layer_depth == 0 || config.layer_depth > 63 {
        return Err(SsresfError::Config(format!(
            "layer depth {} out of range 1..=63",
            config.layer_depth
        )));
    }
    Ok(())
}

/// Weighted medoid of one cluster: the member minimizing
/// `Σ_m D(candidate, m) · weight(m)`.
///
/// A single-member cluster is its own medoid (its distance sum is zero by
/// definition), so the quadratic scan is skipped. Ties break to the lowest
/// group index: candidates are scanned in ascending index order with a
/// strict `<`, so the first minimal sum wins. Both invariants are what keep
/// the medoid update independent of thread count and bit-identical to the
/// serial reference implementation.
fn weighted_medoid(members: &[usize], group_sigs: &[&[u32]], weights: &[u64]) -> Option<usize> {
    match members {
        [] => None,
        [only] => Some(*only),
        _ => {
            let mut best = members[0];
            let mut best_sum = u64::MAX;
            for &candidate in members {
                let sum: u64 = members
                    .iter()
                    .map(|&m| sig_distance(group_sigs[candidate], group_sigs[m]) * weights[m])
                    .sum();
                if sum < best_sum {
                    best_sum = sum;
                    best = candidate;
                }
            }
            Some(best)
        }
    }
}

/// Maps a per-group assignment back onto cells, renumbering clusters
/// densely in case some ended up empty. `group_cells[g]` lists the cells of
/// group `g`; `assignment[g]` its cluster.
fn assemble_clustering(
    cell_count: usize,
    group_cells: &[Vec<CellId>],
    assignment: &[usize],
) -> Clustering {
    let mut used: Vec<usize> = assignment.to_vec();
    used.sort_unstable();
    used.dedup();
    let remap: HashMap<usize, u32> = used
        .iter()
        .enumerate()
        .map(|(new, &old)| (old, new as u32))
        .collect();

    let mut cell_assignment = vec![0u32; cell_count];
    let mut members = vec![Vec::new(); used.len()];
    for (gi, cells) in group_cells.iter().enumerate() {
        let cluster = remap[&assignment[gi]];
        for &cell in cells {
            cell_assignment[cell.index()] = cluster;
            members[cluster as usize].push(cell);
        }
    }
    for m in &mut members {
        m.sort();
    }

    Clustering {
        assignment: cell_assignment,
        clusters: members.len(),
        members,
    }
}

/// Runs Algorithm 1 over the netlist.
///
/// Cells are first grouped by distinct path, then paths agreeing on the
/// first `LN` layers are collapsed into one weighted group — Eq. 1 cannot
/// distinguish them, so this shrinks the k-medoids problem without changing
/// the result. Distances are computed on demand from interned layer
/// signatures (no O(n²) matrix), and the assign and medoid-update steps fan
/// out across `config.threads` workers; every reduction is order-fixed, so
/// the clustering is bit-identical for any thread count.
///
/// # Errors
///
/// Returns [`SsresfError::Config`] for zero clusters or zero layer depth,
/// and [`SsresfError::EmptyNetlist`] when there are no cells.
pub fn cluster_cells(
    netlist: &FlatNetlist,
    config: &ClusteringConfig,
) -> Result<Clustering, SsresfError> {
    validate_config(config)?;
    if netlist.cells().is_empty() {
        return Err(SsresfError::EmptyNetlist);
    }

    // Group cells by distinct path.
    let mut by_path: HashMap<PathId, Vec<CellId>> = HashMap::new();
    for (id, cell) in netlist.iter_cells() {
        by_path.entry(cell.path).or_default().push(id);
    }
    let mut path_ids: Vec<PathId> = by_path.keys().copied().collect();
    path_ids.sort();

    // Collapse paths sharing a depth-LN signature: scanning path ids in
    // ascending order keeps group order identical to the per-path reference
    // whenever signatures are all distinct.
    let sigs = netlist.paths().layer_signatures(config.layer_depth);
    let mut sig_index: HashMap<&[u32], usize> = HashMap::new();
    let mut group_sigs: Vec<&[u32]> = Vec::new();
    let mut group_cells: Vec<Vec<CellId>> = Vec::new();
    for &path_id in &path_ids {
        let sig = sigs.of(path_id);
        let gi = *sig_index.entry(sig).or_insert_with(|| {
            group_sigs.push(sig);
            group_cells.push(Vec::new());
            group_sigs.len() - 1
        });
        group_cells[gi].extend(by_path.remove(&path_id).expect("grouped above"));
    }
    let weights: Vec<u64> = group_cells.iter().map(|c| c.len() as u64).collect();
    let n = group_sigs.len();
    let kn = config.clusters.min(n);
    let threads = resolve_threads(config.threads, n);

    // Random initial centers (line 2 of Algorithm 1).
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut centers: Vec<usize> = (0..n).collect();
    centers.shuffle(&mut rng);
    centers.truncate(kn);
    centers.sort_unstable();

    let mut assignment = vec![0usize; n];
    let cluster_ids: Vec<usize> = (0..kn).collect();
    for _ in 0..config.max_iters {
        // assign_cells: nearest center, ties to the lowest cluster index.
        // Groups are independent and results land in input order.
        assignment = parallel_map(&group_sigs, threads, |_, &sig| {
            let mut best = 0;
            let mut best_d = u64::MAX;
            for (c, &center) in centers.iter().enumerate() {
                let d = sig_distance(sig, group_sigs[center]);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            best
        });

        // update_centers: weighted medoid per cluster, one job per cluster.
        let mut members = vec![Vec::new(); kn];
        for (i, &c) in assignment.iter().enumerate() {
            members[c].push(i);
        }
        let new_centers = parallel_map(&cluster_ids, threads, |_, &c| {
            weighted_medoid(&members[c], &group_sigs, &weights).unwrap_or(centers[c])
        });

        if new_centers == centers {
            break;
        }
        centers = new_centers;
    }

    Ok(assemble_clustering(
        netlist.cells().len(),
        &group_cells,
        &assignment,
    ))
}

/// The pre-optimization Algorithm 1: per-path groups, a dense O(paths²)
/// distance matrix, and serial assign/update loops.
///
/// Kept verbatim as the differential baseline for the fast
/// [`cluster_cells`] — property tests pin the two bit-identical whenever
/// `layer_depth` covers the whole hierarchy, and the `mlpath` bench
/// measures the speedup against it.
pub fn cluster_cells_reference(
    netlist: &FlatNetlist,
    config: &ClusteringConfig,
) -> Result<Clustering, SsresfError> {
    validate_config(config)?;
    if netlist.cells().is_empty() {
        return Err(SsresfError::EmptyNetlist);
    }

    // Group cells by distinct path.
    let mut groups: HashMap<PathId, Vec<CellId>> = HashMap::new();
    for (id, cell) in netlist.iter_cells() {
        groups.entry(cell.path).or_default().push(id);
    }
    let mut path_ids: Vec<PathId> = groups.keys().copied().collect();
    path_ids.sort();
    let paths: Vec<&HierPath> = path_ids
        .iter()
        .map(|&p| netlist.paths().resolve(p))
        .collect();
    let weights: Vec<u64> = path_ids.iter().map(|p| groups[p].len() as u64).collect();
    let n = paths.len();
    let kn = config.clusters.min(n);

    // Pairwise distances between distinct paths.
    let ln = config.layer_depth;
    let mut dist = vec![0u64; n * n];
    for i in 0..n {
        for j in i + 1..n {
            let d = hier_distance(paths[i], paths[j], ln);
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }

    // Random initial centers (line 2 of Algorithm 1).
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut centers: Vec<usize> = (0..n).collect();
    centers.shuffle(&mut rng);
    centers.truncate(kn);
    centers.sort_unstable();

    let mut assignment = vec![0usize; n];
    for _ in 0..config.max_iters {
        // assign_cells: nearest center, ties to the lowest cluster index.
        for (i, slot) in assignment.iter_mut().enumerate() {
            let mut best = 0;
            let mut best_d = u64::MAX;
            for (c, &center) in centers.iter().enumerate() {
                let d = dist[i * n + center];
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            *slot = best;
        }

        // update_centers: weighted medoid per cluster.
        let mut new_centers = centers.clone();
        for (c, new_center) in new_centers.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            let mut best = members[0];
            let mut best_sum = u64::MAX;
            for &candidate in &members {
                let sum: u64 = members
                    .iter()
                    .map(|&m| dist[candidate * n + m] * weights[m])
                    .sum();
                if sum < best_sum {
                    best_sum = sum;
                    best = candidate;
                }
            }
            *new_center = best;
        }

        if new_centers == centers {
            break;
        }
        centers = new_centers;
    }

    let group_cells: Vec<Vec<CellId>> = path_ids.iter().map(|p| groups[p].clone()).collect();
    Ok(assemble_clustering(
        netlist.cells().len(),
        &group_cells,
        &assignment,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssresf_netlist::{CellKind, Design, ModuleBuilder, PortDir};

    fn path(segments: &[&str]) -> HierPath {
        HierPath::from_segments(segments.iter().copied())
    }

    #[test]
    fn distance_weights_upper_layers_exponentially() {
        let ln = 3;
        let a = path(&["cpu", "alu", "add"]);
        // Mismatch only at layer 3.
        assert_eq!(hier_distance(&a, &path(&["cpu", "alu", "sub"]), ln), 1);
        // Mismatch at layers 2 and 3.
        assert_eq!(hier_distance(&a, &path(&["cpu", "lsu", "sub"]), ln), 3);
        // Mismatch everywhere.
        assert_eq!(hier_distance(&a, &path(&["bus", "lane", "ff"]), ln), 7);
        // Identity.
        assert_eq!(hier_distance(&a, &a, ln), 0);
    }

    #[test]
    fn distance_handles_shallow_paths() {
        let ln = 3;
        let shallow = path(&["cpu"]);
        let deep = path(&["cpu", "alu", "add"]);
        // Layers 2 and 3: None vs Some -> mismatch.
        assert_eq!(hier_distance(&shallow, &deep, ln), 3);
        // Two root cells agree at every layer (both absent).
        assert_eq!(hier_distance(&HierPath::root(), &HierPath::root(), ln), 0);
    }

    #[test]
    fn distance_is_symmetric_and_triangleish() {
        let ln = 4;
        let ps = [
            path(&["a"]),
            path(&["a", "b"]),
            path(&["a", "b", "c"]),
            path(&["x", "y"]),
        ];
        for i in &ps {
            for j in &ps {
                assert_eq!(hier_distance(i, j, ln), hier_distance(j, i, ln));
                for k in &ps {
                    // The per-layer Hamming structure satisfies the triangle
                    // inequality.
                    assert!(
                        hier_distance(i, k, ln)
                            <= hier_distance(i, j, ln) + hier_distance(j, k, ln)
                    );
                }
            }
        }
    }

    /// Builds a netlist with three obviously distinct hierarchy branches.
    fn three_branch_netlist() -> FlatNetlist {
        let mut design = Design::new();
        let mut leaf = ModuleBuilder::new("leaf");
        let a = leaf.port("a", PortDir::Input);
        let y = leaf.port("y", PortDir::Output);
        let w1 = leaf.net("w1");
        let w2 = leaf.net("w2");
        leaf.cell("u0", CellKind::Inv, &[a], &[w1]).unwrap();
        leaf.cell("u1", CellKind::Buf, &[w1], &[w2]).unwrap();
        leaf.cell("u2", CellKind::Inv, &[w2], &[y]).unwrap();
        let leaf_id = design.add_module(leaf.finish()).unwrap();

        let mut top = ModuleBuilder::new("top");
        let x = top.port("x", PortDir::Input);
        let z = top.port("z", PortDir::Output);
        let m1 = top.net("m1");
        let m2 = top.net("m2");
        top.instance("u_cpu", leaf_id, &[x, m1]).unwrap();
        top.instance("u_bus", leaf_id, &[m1, m2]).unwrap();
        top.instance("u_mem", leaf_id, &[m2, z]).unwrap();
        let top_id = design.add_module(top.finish()).unwrap();
        design.set_top(top_id).unwrap();
        design.flatten().unwrap()
    }

    #[test]
    fn clusters_follow_hierarchy_branches() {
        let flat = three_branch_netlist();
        let clustering = cluster_cells(
            &flat,
            &ClusteringConfig {
                clusters: 3,
                layer_depth: 2,
                seed: 7,
                max_iters: 32,
                threads: 1,
            },
        )
        .unwrap();
        assert_eq!(clustering.clusters, 3);
        // Cells sharing an instance must share a cluster.
        for prefix in ["u_cpu", "u_bus", "u_mem"] {
            let ids: Vec<CellId> = flat
                .iter_cells()
                .filter(|(id, _)| flat.cell_full_name(*id).starts_with(prefix))
                .map(|(id, _)| id)
                .collect();
            assert_eq!(ids.len(), 3);
            let first = clustering.cluster_of(ids[0]);
            assert!(ids.iter().all(|&c| clustering.cluster_of(c) == first));
        }
        // And the three branches land in three different clusters.
        let cluster_of = |name: &str| clustering.cluster_of(flat.cell_by_name(name).unwrap());
        let set: std::collections::HashSet<usize> = ["u_cpu.u0", "u_bus.u0", "u_mem.u0"]
            .iter()
            .map(|n| cluster_of(n))
            .collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn cluster_count_is_capped_by_distinct_paths() {
        let flat = three_branch_netlist();
        let clustering = cluster_cells(
            &flat,
            &ClusteringConfig {
                clusters: 10,
                ..ClusteringConfig::default()
            },
        )
        .unwrap();
        assert!(clustering.clusters <= 3);
        // Every cell is assigned.
        let total: usize = clustering.sizes().iter().sum();
        assert_eq!(total, flat.cells().len());
    }

    #[test]
    fn clustering_is_deterministic_under_seed() {
        let flat = three_branch_netlist();
        let cfg = ClusteringConfig::default();
        let a = cluster_cells(&flat, &cfg).unwrap();
        let b = cluster_cells(&flat, &cfg).unwrap();
        assert_eq!(a, b);
    }

    /// A two-level netlist: `top` instantiates `mid` twice, `mid`
    /// instantiates `leaf` twice, so there are four distinct depth-2 paths
    /// but only two distinct layer-1 signatures.
    fn nested_netlist() -> FlatNetlist {
        let mut design = Design::new();
        let mut leaf = ModuleBuilder::new("leaf");
        let a = leaf.port("a", PortDir::Input);
        let y = leaf.port("y", PortDir::Output);
        let w = leaf.net("w");
        leaf.cell("u0", CellKind::Inv, &[a], &[w]).unwrap();
        leaf.cell("u1", CellKind::Buf, &[w], &[y]).unwrap();
        let leaf_id = design.add_module(leaf.finish()).unwrap();

        let mut mid = ModuleBuilder::new("mid");
        let a = mid.port("a", PortDir::Input);
        let y = mid.port("y", PortDir::Output);
        let w = mid.net("w");
        mid.instance("u_p", leaf_id, &[a, w]).unwrap();
        mid.instance("u_q", leaf_id, &[w, y]).unwrap();
        let mid_id = design.add_module(mid.finish()).unwrap();

        let mut top = ModuleBuilder::new("top");
        let x = top.port("x", PortDir::Input);
        let z = top.port("z", PortDir::Output);
        let m = top.net("m");
        top.instance("u_l", mid_id, &[x, m]).unwrap();
        top.instance("u_r", mid_id, &[m, z]).unwrap();
        let top_id = design.add_module(top.finish()).unwrap();
        design.set_top(top_id).unwrap();
        design.flatten().unwrap()
    }

    #[test]
    fn shallow_depth_collapses_paths_by_signature() {
        let flat = nested_netlist();
        // Four distinct paths, but at layer depth 1 only two signatures
        // (u_l, u_r) — the requested four clusters collapse to two.
        let clustering = cluster_cells(
            &flat,
            &ClusteringConfig {
                clusters: 4,
                layer_depth: 1,
                threads: 1,
                ..ClusteringConfig::default()
            },
        )
        .unwrap();
        assert_eq!(clustering.clusters, 2);
        let cluster_of = |name: &str| clustering.cluster_of(flat.cell_by_name(name).unwrap());
        assert_eq!(cluster_of("u_l.u_p.u0"), cluster_of("u_l.u_q.u1"));
        assert_ne!(cluster_of("u_l.u_p.u0"), cluster_of("u_r.u_p.u0"));
    }

    #[test]
    fn matches_reference_when_depth_covers_hierarchy() {
        // With layer_depth ≥ the deepest path, signatures are distinct per
        // distinct path, so the fast path must reproduce the reference
        // bit for bit: same groups, same seeded centers, same medoids.
        for flat in [three_branch_netlist(), nested_netlist()] {
            for (clusters, seed) in [(2usize, 1u64), (3, 7), (5, 42)] {
                let cfg = ClusteringConfig {
                    clusters,
                    seed,
                    ..ClusteringConfig::default()
                };
                let fast = cluster_cells(&flat, &cfg).unwrap();
                let reference = cluster_cells_reference(&flat, &cfg).unwrap();
                assert_eq!(fast, reference, "clusters {clusters}, seed {seed}");
            }
        }
    }

    #[test]
    fn clustering_is_thread_count_invariant() {
        let flat = nested_netlist();
        let serial = cluster_cells(
            &flat,
            &ClusteringConfig {
                threads: 1,
                ..ClusteringConfig::default()
            },
        )
        .unwrap();
        for threads in [2usize, 8] {
            let threaded = cluster_cells(
                &flat,
                &ClusteringConfig {
                    threads,
                    ..ClusteringConfig::default()
                },
            )
            .unwrap();
            assert_eq!(serial, threaded, "threads = {threads}");
        }
    }

    #[test]
    fn single_member_cluster_is_its_own_medoid() {
        let sig_a: &[u32] = &[0, 1];
        let sig_b: &[u32] = &[2, 3];
        let group_sigs = vec![sig_a, sig_b];
        let weights = vec![5, 1];
        assert_eq!(weighted_medoid(&[1], &group_sigs, &weights), Some(1));
        assert_eq!(weighted_medoid(&[], &group_sigs, &weights), None);
    }

    #[test]
    fn medoid_ties_break_to_lowest_group_index() {
        // Two equidistant members with equal weights: both have the same
        // distance sum, so the lower group index must win.
        let sig_a: &[u32] = &[0, 1];
        let sig_b: &[u32] = &[0, 2];
        let group_sigs = vec![sig_a, sig_b];
        let weights = vec![3, 3];
        assert_eq!(weighted_medoid(&[0, 1], &group_sigs, &weights), Some(0));
    }

    #[test]
    fn config_validation() {
        let flat = three_branch_netlist();
        assert!(cluster_cells(
            &flat,
            &ClusteringConfig {
                clusters: 0,
                ..ClusteringConfig::default()
            }
        )
        .is_err());
        assert!(cluster_cells(
            &flat,
            &ClusteringConfig {
                layer_depth: 0,
                ..ClusteringConfig::default()
            }
        )
        .is_err());
    }
}
