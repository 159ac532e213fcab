//! SMO solvers for the C-SVC dual problem.
//!
//! Two solvers share the model contract (`alpha`, bias, [`TrainStats`]):
//!
//! - [`solve_working_set`] — the fast path. LIBSVM-style maximal-violating-
//!   pair working-set selection over the dual gradient, kernel rows
//!   computed on demand behind a bounded LRU cache (no n×n matrix is ever
//!   materialized), and active-set shrinking that drops bounded,
//!   KKT-satisfied variables from the selection scan. Entirely
//!   deterministic: every argmax breaks ties toward the lowest index.
//! - [`solve_simplified`] — the original random-partner simplified SMO
//!   (Platt's heuristic with a seeded RNG and a precomputed kernel
//!   matrix). Kept as the conformance baseline the working-set solver is
//!   differentially tested against.
//!
//! The dual problem (per-sample box `0 ≤ α_i ≤ C_i` for class-weighted C):
//!
//! ```text
//! min_α  ½ αᵀQα − eᵀα   s.t.  yᵀα = 0,   Q_ij = y_i y_j K(x_i, x_j)
//! ```

use crate::kernel::Kernel;
use crate::svm::SvmParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Deterministic counters describing one training run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainStats {
    /// Solver iterations: working-set pair updates, or full sweeps for the
    /// simplified solver.
    pub iterations: u64,
    /// Kernel rows served from the LRU cache.
    pub kernel_cache_hits: u64,
    /// Kernel rows computed (cache misses; the simplified solver counts
    /// its upfront matrix rows here).
    pub kernel_cache_misses: u64,
    /// Shrinking passes that removed at least one variable.
    pub shrink_rounds: u64,
    /// Gradient reconstructions caused by unshrinking.
    pub unshrink_rounds: u64,
}

impl TrainStats {
    /// Fieldwise sum, for aggregating the per-round solves of an
    /// active-learning loop into one set of counters.
    pub fn accumulate(&mut self, other: TrainStats) {
        self.iterations += other.iterations;
        self.kernel_cache_hits += other.kernel_cache_hits;
        self.kernel_cache_misses += other.kernel_cache_misses;
        self.shrink_rounds += other.shrink_rounds;
        self.unshrink_rounds += other.unshrink_rounds;
    }
}

/// Positive-definite floor for the pair curvature, as in LIBSVM's `TAU`.
const TAU: f64 = 1e-12;

/// A bounded LRU cache of kernel rows.
///
/// Row `i` holds `K(x_i, x_t)` for every `t` (full length, so rows stay
/// valid across shrink/unshrink cycles). Memory is bounded by
/// `capacity × n` doubles; eviction removes the least-recently-used row.
#[derive(Debug)]
struct RowCache {
    capacity: usize,
    stamp: u64,
    rows: HashMap<usize, (u64, Vec<f64>)>,
    hits: u64,
    misses: u64,
}

impl RowCache {
    fn new(capacity: usize) -> Self {
        RowCache {
            // The pair update needs rows i and j alive at once.
            capacity: capacity.max(2),
            stamp: 0,
            rows: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The kernel row for sample `i`, computed on demand.
    ///
    /// A cached row shorter than the current sample count (the training
    /// set grew since it was cached — the warm-start path appends samples
    /// between rounds) is extended in place by computing only the missing
    /// tail, and still counts as a hit.
    fn row(&mut self, i: usize, x: &[Vec<f64>], norms: &[f64], kernel: Kernel) -> &[f64] {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(entry) = self.rows.get_mut(&i) {
            entry.0 = stamp;
            self.hits += 1;
            if entry.1.len() < x.len() {
                let xi = &x[i];
                let ni = norms[i];
                let start = entry.1.len();
                entry.1.extend(
                    x[start..]
                        .iter()
                        .zip(&norms[start..])
                        .map(|(xt, &nt)| kernel.eval_dot(dot(xi, xt), ni, nt)),
                );
            }
        } else {
            self.misses += 1;
            if self.rows.len() >= self.capacity {
                let oldest = self
                    .rows
                    .iter()
                    .min_by_key(|(&k, &(s, _))| (s, k))
                    .map(|(&k, _)| k)
                    .expect("cache nonempty");
                self.rows.remove(&oldest);
            }
            let xi = &x[i];
            let ni = norms[i];
            let row: Vec<f64> = x
                .iter()
                .zip(norms)
                .map(|(xt, &nt)| kernel.eval_dot(dot(xi, xt), ni, nt))
                .collect();
            self.rows.insert(i, (stamp, row));
        }
        &self.rows[&i].1
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(p, q)| p * q).sum()
}

/// The working-set solver state.
struct WssState<'a> {
    x: &'a [Vec<f64>],
    y: &'a [f64],
    c_of: &'a [f64],
    norms: Vec<f64>,
    kernel: Kernel,
    alpha: Vec<f64>,
    /// Dual gradient `G_i = (Qα)_i − 1`.
    grad: Vec<f64>,
    /// Indices still in the optimization (shrinking removes from here).
    active: Vec<usize>,
    cache: RowCache,
    stats: TrainStats,
}

impl WssState<'_> {
    fn is_upper(&self, t: usize) -> bool {
        self.alpha[t] >= self.c_of[t]
    }

    fn is_lower(&self, t: usize) -> bool {
        self.alpha[t] <= 0.0
    }

    /// Maximal-violating-pair selection over the active set.
    ///
    /// Returns `(i, j, m, -M)` where `m = max_{t ∈ I_up} −y_t G_t` and
    /// `M = min_{t ∈ I_low} −y_t G_t`; the KKT gap is `m − M`. Ties break
    /// toward the lowest index (strict comparisons), keeping selection
    /// deterministic.
    fn select_pair(&self) -> (Option<usize>, Option<usize>, f64, f64) {
        let mut i = None;
        let mut gmax = f64::NEG_INFINITY;
        let mut j = None;
        let mut gmax2 = f64::NEG_INFINITY;
        for &t in &self.active {
            let up = if self.y[t] > 0.0 {
                !self.is_upper(t)
            } else {
                !self.is_lower(t)
            };
            let low = if self.y[t] > 0.0 {
                !self.is_lower(t)
            } else {
                !self.is_upper(t)
            };
            let neg_yg = -self.y[t] * self.grad[t];
            if up && neg_yg > gmax {
                gmax = neg_yg;
                i = Some(t);
            }
            if low && -neg_yg > gmax2 {
                gmax2 = -neg_yg;
                j = Some(t);
            }
        }
        (i, j, gmax, gmax2)
    }

    /// Reconstructs the gradient of every inactive variable from scratch
    /// (`G_t = y_t Σ_j α_j y_j K_tj − 1`) and reactivates the full index
    /// set.
    fn unshrink(&mut self, n: usize) {
        if self.active.len() == n {
            return;
        }
        self.stats.unshrink_rounds += 1;
        let mut inactive = vec![true; n];
        for &t in &self.active {
            inactive[t] = false;
        }
        for (t, &out) in inactive.iter().enumerate() {
            if out {
                self.grad[t] = -1.0;
            }
        }
        // One cached row per support vector updates every inactive slot.
        for s in 0..n {
            if self.alpha[s] == 0.0 {
                continue;
            }
            let coef = self.alpha[s] * self.y[s];
            let row = self.cache.row(s, self.x, &self.norms, self.kernel).to_vec();
            for t in 0..n {
                if inactive[t] {
                    self.grad[t] += self.y[t] * coef * row[t];
                }
            }
        }
        self.active = (0..n).collect();
    }

    /// Drops bounded variables whose gradient lies strictly outside the
    /// current violating interval — they cannot re-enter the working set
    /// until the interval moves, so scanning them every iteration is
    /// wasted work (LIBSVM's shrinking heuristic).
    fn shrink(&mut self, gmax: f64, gmax2: f64) {
        let before = self.active.len();
        let grad = &self.grad;
        let y = self.y;
        let alpha = &self.alpha;
        let c_of = self.c_of;
        self.active.retain(|&t| {
            let shrunk = if alpha[t] >= c_of[t] {
                if y[t] > 0.0 {
                    -grad[t] > gmax
                } else {
                    -grad[t] > gmax2
                }
            } else if alpha[t] <= 0.0 {
                if y[t] > 0.0 {
                    grad[t] > gmax2
                } else {
                    grad[t] > gmax
                }
            } else {
                false
            };
            !shrunk
        });
        if self.active.len() < before {
            self.stats.shrink_rounds += 1;
        }
    }
}

/// Trains by maximal-violating-pair SMO with an LRU kernel-row cache and
/// active-set shrinking. Returns `(alpha, bias, stats)`.
///
/// The iteration budget is `params.max_iters` pair updates per sample
/// (`max_iters × n` total), mirroring the simplified solver's
/// sweeps×rows budget. `params.seed` is unused — selection is
/// deterministic by construction — but kept so the two solvers share a
/// parameter set.
pub(crate) fn solve_working_set(
    x: &[Vec<f64>],
    y: &[f64],
    c_of: &[f64],
    params: &SvmParams,
) -> (Vec<f64>, f64, TrainStats) {
    let cache = RowCache::new(params.cache_rows);
    let (alpha, bias, stats, _) = solve_working_set_inner(x, y, c_of, params, None, cache);
    (alpha, bias, stats)
}

/// Reusable solver state carried across warm-started training rounds.
///
/// Holds the previous round's dual variables (with the labels they were
/// solved under) and the LRU kernel-row cache, so a retraining round that
/// appends samples re-derives neither the alphas nor the cached rows. The
/// context is deterministic state: two identical round sequences produce
/// bit-identical contexts and therefore bit-identical models.
#[derive(Debug)]
pub struct SmoContext {
    alpha: Vec<f64>,
    y: Vec<f64>,
    cache: Option<RowCache>,
    cache_rows: usize,
}

impl SmoContext {
    /// An empty context; the first warm train behaves like a cold one.
    /// `cache_rows` bounds the persistent kernel-row cache (clamped to at
    /// least 2, as in [`SvmParams::cache_rows`]).
    pub fn new(cache_rows: usize) -> Self {
        SmoContext {
            alpha: Vec::new(),
            y: Vec::new(),
            cache: None,
            cache_rows,
        }
    }

    /// Builds the warm initial alphas for a problem with labels `y` and
    /// box constraints `c_of`.
    ///
    /// Previous alphas are carried over positionally (samples keep their
    /// indices across rounds; new samples start at 0), clamped into the
    /// current box, and zeroed where the label flipped since the last
    /// round. The `yᵀα = 0` dual constraint is then repaired by scaling
    /// down whichever class carries the surplus — a deterministic
    /// projection onto the feasible set.
    fn warm_alpha(&self, y: &[f64], c_of: &[f64]) -> Vec<f64> {
        let n = y.len();
        let mut alpha = vec![0.0f64; n];
        for i in 0..n.min(self.alpha.len()) {
            if self.y[i] == y[i] {
                alpha[i] = self.alpha[i].clamp(0.0, c_of[i]);
            }
        }
        let residual: f64 = alpha.iter().zip(y).map(|(&a, &yi)| a * yi).sum();
        if residual != 0.0 {
            // Scale the surplus class so Σ y_i α_i returns to 0; scaling
            // keeps every alpha inside its box.
            let surplus_sign = residual.signum();
            let surplus_mass: f64 = alpha
                .iter()
                .zip(y)
                .filter(|&(_, &yi)| yi == surplus_sign)
                .map(|(&a, _)| a)
                .sum();
            if surplus_mass > 0.0 {
                let scale = (surplus_mass - residual.abs()) / surplus_mass;
                for (a, &yi) in alpha.iter_mut().zip(y) {
                    if yi == surplus_sign {
                        *a *= scale;
                    }
                }
            }
        }
        alpha
    }
}

/// Warm-started working-set SMO: seeds the solver from `ctx` (previous
/// alphas + persistent kernel-row cache) and stores the solution back for
/// the next round. Semantics otherwise match [`solve_working_set`]; a
/// fresh context yields the identical cold-start solution.
pub(crate) fn solve_working_set_warm(
    x: &[Vec<f64>],
    y: &[f64],
    c_of: &[f64],
    params: &SvmParams,
    ctx: &mut SmoContext,
) -> (Vec<f64>, f64, TrainStats) {
    let alpha0 = ctx.warm_alpha(y, c_of);
    let cache = ctx
        .cache
        .take()
        .unwrap_or_else(|| RowCache::new(ctx.cache_rows));
    let warm = if alpha0.iter().any(|&a| a != 0.0) {
        Some(alpha0)
    } else {
        None
    };
    let (alpha, bias, stats, cache) = solve_working_set_inner(x, y, c_of, params, warm, cache);
    ctx.alpha = alpha.clone();
    ctx.y = y.to_vec();
    ctx.cache = Some(cache);
    (alpha, bias, stats)
}

fn solve_working_set_inner(
    x: &[Vec<f64>],
    y: &[f64],
    c_of: &[f64],
    params: &SvmParams,
    warm_alpha: Option<Vec<f64>>,
    cache: RowCache,
) -> (Vec<f64>, f64, TrainStats, RowCache) {
    let n = x.len();
    // Per-solve cache counters: the persistent cache accumulates across
    // rounds, but TrainStats reports this round's traffic.
    let (hits0, misses0) = (cache.hits, cache.misses);
    let norms: Vec<f64> = x.iter().map(|r| dot(r, r)).collect();
    let qd: Vec<f64> = norms
        .iter()
        .map(|&nt| params.kernel.eval_dot(nt, nt, nt))
        .collect();
    let alpha = warm_alpha.unwrap_or_else(|| vec![0.0; n]);
    let mut state = WssState {
        x,
        y,
        c_of,
        norms,
        kernel: params.kernel,
        alpha,
        grad: vec![-1.0; n],
        active: (0..n).collect(),
        cache,
        stats: TrainStats::default(),
    };
    // Warm start: G_t = y_t Σ_s α_s y_s K_ts − 1, one cached row per
    // nonzero alpha (the cold start's all-zero alphas leave G ≡ −1).
    for s in 0..n {
        if state.alpha[s] == 0.0 {
            continue;
        }
        let coef = state.alpha[s] * y[s];
        let row = state
            .cache
            .row(s, state.x, &state.norms, state.kernel)
            .to_vec();
        for t in 0..n {
            state.grad[t] += y[t] * coef * row[t];
        }
    }
    let tol = params.tol;
    let budget = u64::from(params.max_iters).saturating_mul(n as u64);
    let shrink_interval = n.clamp(64, 1000) as u64;
    let mut next_shrink = shrink_interval;
    let mut unshrink_on_converge = true;

    loop {
        if state.stats.iterations >= budget {
            // Budget exhausted: make the bias consistent with the full
            // gradient even if shrinking had frozen part of it.
            state.unshrink(n);
            break;
        }
        let (i, j, gmax, gmax2) = state.select_pair();
        let converged = gmax + gmax2 < tol || i.is_none() || j.is_none();
        if converged {
            if state.active.len() == n {
                break;
            }
            // Converged on the shrunk problem: reconstruct the full
            // gradient and re-test optimality over every variable.
            state.unshrink(n);
            unshrink_on_converge = false;
            continue;
        }
        let (i, j) = (i.expect("checked"), j.expect("checked"));

        // Periodic shrinking (after the gap below 10·tol, LIBSVM unshrinks
        // once before continuing to shrink, which we fold into the
        // converged branch above).
        if state.stats.iterations >= next_shrink {
            next_shrink += shrink_interval;
            if gmax + gmax2 <= 10.0 * tol && unshrink_on_converge {
                state.unshrink(n);
                unshrink_on_converge = false;
            } else {
                state.shrink(gmax, gmax2);
            }
        }

        state.stats.iterations += 1;

        let row_i = state
            .cache
            .row(i, state.x, &state.norms, state.kernel)
            .to_vec();
        let k_ij = row_i[j];
        let (yi, yj) = (y[i], y[j]);
        let quad = (qd[i] + qd[j] - 2.0 * yi * yj * k_ij).max(TAU);
        let (old_i, old_j) = (state.alpha[i], state.alpha[j]);
        let (ci, cj) = (c_of[i], c_of[j]);

        if (yi - yj).abs() > f64::EPSILON {
            let delta = (-state.grad[i] - state.grad[j]) / quad;
            let diff = old_i - old_j;
            state.alpha[i] += delta;
            state.alpha[j] += delta;
            if diff > 0.0 {
                if state.alpha[j] < 0.0 {
                    state.alpha[j] = 0.0;
                    state.alpha[i] = diff;
                }
            } else if state.alpha[i] < 0.0 {
                state.alpha[i] = 0.0;
                state.alpha[j] = -diff;
            }
            if diff > ci - cj {
                if state.alpha[i] > ci {
                    state.alpha[i] = ci;
                    state.alpha[j] = ci - diff;
                }
            } else if state.alpha[j] > cj {
                state.alpha[j] = cj;
                state.alpha[i] = cj + diff;
            }
        } else {
            let delta = (state.grad[i] - state.grad[j]) / quad;
            let sum = old_i + old_j;
            state.alpha[i] -= delta;
            state.alpha[j] += delta;
            if sum > ci {
                if state.alpha[i] > ci {
                    state.alpha[i] = ci;
                    state.alpha[j] = sum - ci;
                }
            } else if state.alpha[j] < 0.0 {
                state.alpha[j] = 0.0;
                state.alpha[i] = sum;
            }
            if sum > cj {
                if state.alpha[j] > cj {
                    state.alpha[j] = cj;
                    state.alpha[i] = sum - cj;
                }
            } else if state.alpha[i] < 0.0 {
                state.alpha[i] = 0.0;
                state.alpha[j] = sum;
            }
        }

        // Gradient update over the active set from the two touched rows.
        let delta_i = (state.alpha[i] - old_i) * yi;
        let delta_j = (state.alpha[j] - old_j) * yj;
        let row_j = state
            .cache
            .row(j, state.x, &state.norms, state.kernel)
            .to_vec();
        for &t in &state.active {
            state.grad[t] += state.y[t] * (delta_i * row_i[t] + delta_j * row_j[t]);
        }
    }

    // Bias from the converged gradient (LIBSVM's calculate_rho, negated to
    // our `decision = Σ coeff K + bias` convention): average y_t G_t over
    // free vectors, or the midpoint of the feasible interval when none are
    // free.
    let mut upper = f64::INFINITY;
    let mut lower = f64::NEG_INFINITY;
    let mut sum_free = 0.0;
    let mut free = 0usize;
    for (t, &yt) in y.iter().enumerate().take(n) {
        let yg = yt * state.grad[t];
        if state.is_upper(t) {
            if yt < 0.0 {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        } else if state.is_lower(t) {
            if yt > 0.0 {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        } else {
            free += 1;
            sum_free += yg;
        }
    }
    let rho = if free > 0 {
        sum_free / free as f64
    } else {
        (upper + lower) / 2.0
    };
    state.stats.kernel_cache_hits = state.cache.hits - hits0;
    state.stats.kernel_cache_misses = state.cache.misses - misses0;
    let stats = state.stats;
    (state.alpha, -rho, stats, state.cache)
}

/// The original simplified SMO (random second choice, full kernel matrix),
/// retained verbatim as the differential baseline.
pub(crate) fn solve_simplified(
    x: &[Vec<f64>],
    y: &[f64],
    c_of: &[f64],
    params: &SvmParams,
) -> (Vec<f64>, f64, TrainStats) {
    let n = x.len();
    let mut k = vec![0.0f64; n * n];
    for i in 0..n {
        for j in i..n {
            let v = params.kernel.eval(&x[i], &x[j]);
            k[i * n + j] = v;
            k[j * n + i] = v;
        }
    }
    let kij = |i: usize, j: usize| k[i * n + j];

    let mut alpha = vec![0.0f64; n];
    let mut b = 0.0f64;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let tol = params.tol;

    let f = |alpha: &[f64], b: f64, i: usize| -> f64 {
        let mut sum = b;
        for j in 0..n {
            if alpha[j] != 0.0 {
                sum += alpha[j] * y[j] * kij(i, j);
            }
        }
        sum
    };

    let mut passes = 0u32;
    let mut iters = 0u32;
    while passes < params.max_passes && iters < params.max_iters {
        let mut changed = 0usize;
        for i in 0..n {
            let e_i = f(&alpha, b, i) - y[i];
            let violates =
                (y[i] * e_i < -tol && alpha[i] < c_of[i]) || (y[i] * e_i > tol && alpha[i] > 0.0);
            if !violates {
                continue;
            }
            let mut j = rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            let e_j = f(&alpha, b, j) - y[j];
            let (a_i_old, a_j_old) = (alpha[i], alpha[j]);
            let (low, high) = if (y[i] - y[j]).abs() > f64::EPSILON {
                (
                    (a_j_old - a_i_old).max(0.0),
                    (c_of[j].min(c_of[i] + a_j_old - a_i_old)).max(0.0),
                )
            } else {
                (
                    (a_i_old + a_j_old - c_of[i]).max(0.0),
                    (a_i_old + a_j_old).min(c_of[j]),
                )
            };
            if high - low < 1e-12 {
                continue;
            }
            let eta = 2.0 * kij(i, j) - kij(i, i) - kij(j, j);
            if eta >= 0.0 {
                continue;
            }
            let mut a_j = a_j_old - y[j] * (e_i - e_j) / eta;
            a_j = a_j.clamp(low, high);
            if (a_j - a_j_old).abs() < 1e-7 {
                continue;
            }
            let a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j);
            alpha[i] = a_i;
            alpha[j] = a_j;

            let b1 =
                b - e_i - y[i] * (a_i - a_i_old) * kij(i, i) - y[j] * (a_j - a_j_old) * kij(i, j);
            let b2 =
                b - e_j - y[i] * (a_i - a_i_old) * kij(i, j) - y[j] * (a_j - a_j_old) * kij(j, j);
            b = if a_i > 0.0 && a_i < c_of[i] {
                b1
            } else if a_j > 0.0 && a_j < c_of[j] {
                b2
            } else {
                (b1 + b2) / 2.0
            };
            changed += 1;
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
        iters += 1;
    }

    let stats = TrainStats {
        iterations: u64::from(iters),
        kernel_cache_hits: 0,
        kernel_cache_misses: n as u64,
        shrink_rounds: 0,
        unshrink_rounds: 0,
    };
    (alpha, b, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_cache_evicts_least_recently_used() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let norms = vec![1.0, 4.0, 9.0];
        let mut cache = RowCache::new(2);
        cache.row(0, &x, &norms, Kernel::Linear);
        cache.row(1, &x, &norms, Kernel::Linear);
        cache.row(0, &x, &norms, Kernel::Linear); // refresh 0
        cache.row(2, &x, &norms, Kernel::Linear); // evicts 1
        assert!(cache.rows.contains_key(&0));
        assert!(!cache.rows.contains_key(&1));
        assert!(cache.rows.contains_key(&2));
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 3);
        // Row contents are the kernel row.
        let row = cache.row(2, &x, &norms, Kernel::Linear);
        assert_eq!(row, &[3.0, 6.0, 9.0]);
    }

    #[test]
    fn cache_capacity_floor_is_two() {
        let cache = RowCache::new(0);
        assert_eq!(cache.capacity, 2);
    }
}
