//! Deterministic scoped-thread fan-out shared by every parallel stage.
//!
//! Every parallel stage in the pipeline (clustering assignment, feature
//! extraction, cross-validation, grid search and feature selection,
//! whole-netlist prediction, active-learning margins, and the
//! fault-injection campaign's workers, one job chunk each) maps an
//! index-addressed work list through a pure function and writes each
//! result into its input slot, so the output is a plain `Vec` in input
//! order regardless of how the work was chunked across threads. That makes
//! thread-count equivalence a structural property rather than something
//! each call site must argue about: results are bit-identical for 1, 2 or
//! N workers.

/// Number of worker threads the machine supports (at least 1).
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a requested thread count (0 = all available cores) against the
/// number of jobs; always at least 1.
pub fn resolve_threads(requested: usize, jobs: usize) -> usize {
    let threads = if requested == 0 {
        max_threads()
    } else {
        requested
    };
    threads.min(jobs).max(1)
}

/// Maps `f` over `items` with up to `threads` scoped workers (0 = all
/// cores), returning the results in input order.
///
/// `f` receives `(index, &item)` and must be pure with respect to the
/// shared state it captures; under that contract the output is identical
/// for every thread count. Worker panics propagate to the caller when the
/// scope joins.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = resolve_threads(threads, items.len());
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let mut remaining: &mut [Option<U>] = &mut out;
        for (chunk_index, item_chunk) in items.chunks(chunk).enumerate() {
            let (mine, rest) = remaining.split_at_mut(item_chunk.len());
            remaining = rest;
            let f = &f;
            scope.spawn(move || {
                for (offset, (slot, item)) in mine.iter_mut().zip(item_chunk).enumerate() {
                    *slot = Some(f(chunk_index * chunk + offset, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..101).collect();
        let mapped = parallel_map(&items, 4, |i, &v| {
            assert_eq!(i as u64, v);
            v * 3
        });
        assert_eq!(mapped, items.iter().map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let items: Vec<f64> = (0..57).map(|i| i as f64 * 0.7).collect();
        let expect: Vec<f64> = items.iter().map(|v| (v * 1.3).sin()).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = parallel_map(&items, threads, |_, &v| (v * 1.3).sin());
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 8, |_, &v| v).is_empty());
        assert_eq!(parallel_map(&[7u32], 8, |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn resolve_threads_clamps() {
        assert_eq!(resolve_threads(4, 2), 2);
        assert_eq!(resolve_threads(4, 0), 1);
        assert!(resolve_threads(0, 100) >= 1);
    }
}
