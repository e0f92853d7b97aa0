//! What is left of the process-level plan cache: one counter function.
//!
//! Evaluation memos live for one evaluation ([`crate::EvalCache`]); the
//! plan cache that re-served results across calls is gone. [`stats`]
//! remains only because the B16 benchmark package links it
//! (`statement_path/src/child.rs`, the `relalg.plan_cache_*` probes) and
//! only a `benchmark` PR may edit that package. The next such PR deletes
//! this function together with the probes.

/// `(hits, misses)` of the deleted plan cache: always `(0, 0)`.
pub fn stats() -> (u64, u64) {
    (0, 0)
}
