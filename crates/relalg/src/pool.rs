//! Hand-rolled scoped-thread execution pool for the storage layer.
//!
//! The pool splits work along the *tuple* axis of one large relation:
//! chunked sort in [`crate::RelationBuilder`], hash-partitioned join
//! build/probe, chunked scans and column extraction. Every caller lives in
//! this crate and gates on the tuple count first
//! (`parallelize(len, par_min_tuples())`). World-level operations (the
//! Figure-3 operators, `choice of`, `repair by key`, the per-world DML
//! loops) do not use it and run on the calling thread: the worlds of a
//! world-set share almost all their data, so that axis has nothing to
//! split — measured in EXPERIMENTS.md, B8. The container has no crates.io
//! access (no rayon), so this module provides the minimal primitives on
//! top of `std::thread::scope`:
//!
//! * [`par_map`] — map a slice through a `Sync` closure, preserving input
//!   order exactly (workers own contiguous chunks; results are concatenated
//!   in chunk order, so the output is byte-identical to the sequential
//!   `iter().map().collect()`).
//! * [`par_sort_dedup`] — chunked `sort_unstable` + k-way merge with
//!   deduplication (the `RelationBuilder::finish` pass). Sorting and
//!   deduplicating yields a canonical vector, so the result is identical
//!   to the sequential sort regardless of chunking.
//!
//! The worker count is process-wide: `WSDB_THREADS` if set (a value of `1`
//! restores the exact sequential code path everywhere), otherwise
//! [`std::thread::available_parallelism`]. Benchmarks and the storage-axis
//! oracle tests override it at runtime with [`set_threads`].

use std::cell::Cell;

use crate::config;

thread_local! {
    /// True on pool worker threads. Nested fan-outs (a per-chunk closure
    /// hitting a parallel sort or join) run sequentially instead of
    /// spawning `num_threads²` transient threads — the outer fan-out
    /// already owns all the cores.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn enter_worker<R>(f: impl FnOnce() -> R) -> R {
    IN_WORKER.with(|c| c.set(true));
    // Workers are one-shot scoped threads; no need to reset on exit.
    f()
}

/// Below this many tuples [`par_sort_dedup`] and the partitioned join paths
/// stay sequential (the default of [`par_min_tuples`]).
pub const PAR_MIN_TUPLES: usize = 8192;

/// The effective tuple-count threshold for the parallel tuple paths
/// (chunked sort, partitioned joins, columnar extraction): the
/// [`config::PAR_MIN_TUPLES`] knob — runtime override, else
/// `WSDB_PAR_MIN_TUPLES` from the environment (read once), else
/// [`PAR_MIN_TUPLES`]. Benchmarks sweep it to locate the
/// sequential/parallel crossover instead of hardcoding it.
#[inline]
pub fn par_min_tuples() -> usize {
    config::PAR_MIN_TUPLES.get()
}

/// Override the tuple-count parallelization threshold for this process
/// (minimum 1); `None` restores the environment-derived default.
pub fn set_par_min_tuples(n: Option<usize>) {
    config::PAR_MIN_TUPLES.set(n);
}

/// The process-wide worker count: the [`config::THREADS`] knob — runtime
/// override, else `WSDB_THREADS` from the environment (minimum 1, read
/// once), else [`std::thread::available_parallelism`].
#[inline]
pub fn num_threads() -> usize {
    config::THREADS.get()
}

/// Override the worker count for this process (benchmarks sweep it; the
/// storage-axis oracle tests pin it). `set_threads(0)` drops the override so
/// [`num_threads`] falls back to the environment-derived value.
pub fn set_threads(n: usize) {
    config::THREADS.set(if n == 0 { None } else { Some(n) });
}

/// True when a fan-out over `len` items (against the given minimum) should
/// go parallel: more than one worker is configured, the input is large
/// enough to amortize the spawns, and the caller is not already inside a
/// pool worker (nested fan-outs stay sequential).
#[inline]
pub fn parallelize(len: usize, min_items: usize) -> bool {
    len >= min_items && num_threads() > 1 && !IN_WORKER.with(|c| c.get())
}

/// Map `items` through `f` in parallel, preserving input order.
///
/// Workers each take one contiguous chunk of the input and map it left to
/// right; the per-chunk outputs are concatenated in chunk order, so the
/// result vector is exactly `items.iter().map(f).collect()`. Any slice
/// with something to split (two items or more) fans out — callers decide
/// whether the work is worth a thread start by gating on their tuple count
/// first. With one worker, or on a pool worker, the map runs on the calling
/// thread.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if !parallelize(items.len(), 2) {
        return items.iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(num_threads());
    let f = &f;
    // Carry the caller's session overlay onto the workers so per-session
    // settings (e.g. `set local columnar = off`) govern the whole fan-out.
    let cfg = config::current_overlay();
    let mut out: Vec<R> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| {
                s.spawn(move || {
                    let _session = config::overlay(&cfg);
                    enter_worker(|| chunk.iter().map(f).collect::<Vec<R>>())
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
    });
    out
}

/// Sort + dedup `v`, splitting the sort across workers.
///
/// Each worker sorts (and pre-dedups) one contiguous chunk; the sorted runs
/// are then k-way merged with duplicates dropped. A sorted, deduplicated
/// vector is canonical — the same multiset of elements yields the same
/// output bytes whatever the chunking — so this is interchangeable with
/// the sequential `sort_unstable` + `dedup` it replaces.
pub fn par_sort_dedup<T: Ord + Send>(mut v: Vec<T>) -> Vec<T> {
    if !parallelize(v.len(), PAR_MIN_TUPLES) {
        v.sort_unstable();
        v.dedup();
        return v;
    }
    let total = v.len();
    let chunk_len = total.div_ceil(num_threads());
    let mut runs: Vec<Vec<T>> = Vec::with_capacity(num_threads());
    while v.len() > chunk_len {
        runs.push(v.split_off(v.len() - chunk_len));
    }
    runs.push(v);
    let cfg = config::current_overlay();
    std::thread::scope(|s| {
        let handles: Vec<_> = runs
            .iter_mut()
            .map(|run| {
                s.spawn(move || {
                    let _session = config::overlay(&cfg);
                    enter_worker(|| {
                        run.sort_unstable();
                        run.dedup();
                    })
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
    kway_merge_dedup(runs, total)
}

/// Merge sorted, internally-deduplicated runs into one sorted vector,
/// dropping cross-run duplicates.
fn kway_merge_dedup<T: Ord>(runs: Vec<Vec<T>>, cap_hint: usize) -> Vec<T> {
    let mut iters: Vec<std::vec::IntoIter<T>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<T>> = iters.iter_mut().map(Iterator::next).collect();
    let mut out: Vec<T> = Vec::with_capacity(cap_hint);
    loop {
        // Smallest head wins; with ≤ a few dozen runs a linear scan beats a
        // heap on constant factors.
        let mut best: Option<usize> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some(x) = head {
                best = match best {
                    Some(b) if heads[b].as_ref().is_some_and(|y| y <= x) => Some(b),
                    _ => Some(i),
                };
            }
        }
        let Some(b) = best else { break };
        let val = heads[b].take().expect("best head present");
        heads[b] = iters[b].next();
        if out.last() != Some(&val) {
            out.push(val);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-wide worker count.
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(n);
        let out = f();
        set_threads(0);
        out
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<i64> = (0..1000).collect();
        for nt in [1usize, 2, 3, 4, 7] {
            let out = with_threads(nt, || par_map(&items, |x| x * 2));
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_short_input() {
        let items = [1i64, 2];
        let out = with_threads(8, || par_map(&items, |x| x + 1));
        assert_eq!(out, vec![2, 3]);
        let empty: Vec<i64> = Vec::new();
        assert!(with_threads(8, || par_map(&empty, |x| *x)).is_empty());
    }

    #[test]
    fn par_sort_dedup_matches_sequential() {
        let v: Vec<i64> = (0..20_000).map(|i| (i * 7919) % 4001).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        expect.dedup();
        for nt in [1usize, 2, 4, 8] {
            let out = with_threads(nt, || par_sort_dedup(v.clone()));
            assert_eq!(out, expect, "nt={nt}");
        }
    }

    #[test]
    fn par_sort_dedup_small_and_empty() {
        assert!(with_threads(4, || par_sort_dedup(Vec::<i64>::new())).is_empty());
        let out = with_threads(4, || par_sort_dedup(vec![3i64, 1, 2, 1]));
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn kway_merge_handles_cross_run_duplicates() {
        let runs = vec![vec![1i64, 3, 5], vec![1, 2, 5], vec![5, 6]];
        assert_eq!(kway_merge_dedup(runs, 8), vec![1, 2, 3, 5, 6]);
    }

    #[test]
    fn nested_fanouts_stay_sequential() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(4);
        let items: Vec<usize> = (0..100).collect();
        // On the calling thread the fan-out is parallel; inside workers
        // `parallelize` must report false so nested calls stay sequential.
        assert!(parallelize(items.len(), 2));
        let nested_flags = par_map(&items, |_| parallelize(100, 1));
        assert!(nested_flags.iter().all(|f| !f));
        set_threads(0);
    }

    #[test]
    fn par_min_tuples_override_and_reset() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_par_min_tuples(Some(16));
        assert_eq!(par_min_tuples(), 16);
        set_par_min_tuples(Some(0)); // clamped to the minimum
        assert_eq!(par_min_tuples(), 1);
        set_par_min_tuples(None);
        assert!(par_min_tuples() >= 1);
    }

    #[test]
    fn set_threads_overrides_and_resets() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(3);
        assert_eq!(num_threads(), 3);
        set_threads(0);
        assert!(num_threads() >= 1);
        set_threads(0);
    }
}
