//! What is left of the execution pool: two sequential stand-ins.
//!
//! Every `relalg` operator runs on the calling thread; nothing in the
//! workspace fans work out any more. [`num_threads`] and [`par_map`]
//! remain only because the B16 benchmark package links them
//! (`statement_path/src/child.rs` and `statement_path/src/probes.rs`, the
//! `pool.*` probes) and only a `benchmark` PR may edit that package. The
//! next such PR deletes this module together with those probes, as with
//! [`crate::plan_cache::stats`].

/// Worker count of the deleted pool: always 1.
pub fn num_threads() -> usize {
    1
}

/// `items.iter().map(f).collect()`.
pub fn par_map<T, R, F: Fn(&T) -> R>(items: &[T], f: F) -> Vec<R> {
    items.iter().map(f).collect()
}
