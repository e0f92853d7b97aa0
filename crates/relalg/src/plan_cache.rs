//! Process-level plan/result cache for relational expressions.
//!
//! Keyed by the **canonical form** of a plan ([`crate::canon`]) plus the
//! identity of the base tables it reads, the cache returns the previously
//! computed `Arc<Relation>` for a plan that is re-evaluated against the
//! same inputs — the Figure-6 translation route re-builds and re-evaluates
//! structurally identical plans on every call. (No I-SQL statement reaches
//! it any more: the interpreter evaluates an uncorrelated subquery once per
//! world by itself. Its callers are `run_general` and `EXPLAIN`.)
//!
//! **Soundness is content-addressed, not invalidation-addressed**: a hit is
//! returned only after verifying that every base table the cached plan read
//! is still the table currently registered under that name. Verification is
//! **O(1) on the hot path**: pointer equality, then the relation's
//! [`crate::Relation::epoch`] tag (equal tags imply equal content — clones
//! share their constructor's tag), with the full content comparison kept
//! only as a fallback for content-equal tables built independently (rebuilt
//! catalogs). Stale entries therefore can never serve wrong data; explicit
//! invalidation ([`clear`], or the targeted [`invalidate_tables`] used by
//! I-SQL DML) only bounds memory and keeps dead entries from occupying the
//! cache.
//!
//! The cache is **sharded 16 ways** by canonical-plan hash (the same scheme
//! as the interner sharding), so concurrent sessions do not serialize on a
//! single mutex when the rewrite path is on.
//!
//! The cache — like the whole rewrite path — can be switched off with the
//! `WSDB_NO_REWRITE` environment variable (any non-empty value) for A/B
//! benchmarking, or at runtime with [`set_enabled`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::canon::CanonExpr;
use crate::{Catalog, Relation};

/// One cached evaluation: the canonical plan, the exact inputs it read, and
/// the result. Inputs are pinned, so their allocations outlive the entry.
struct Entry {
    canon: crate::Expr,
    inputs: Vec<(String, Arc<Relation>)>,
    result: Arc<Relation>,
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, Vec<Entry>>,
    entries: usize,
}

/// Number of independent cache shards, selected by canonical-plan hash.
const SHARDS: usize = 16;

/// Maximum number of cached plans per shard; exceeding it clears the shard
/// (simple and predictable — a workload that overflows this is not
/// re-evaluating the same plans anyway).
const SHARD_CAP: usize = 1024 / SHARDS;

static CACHE: [Mutex<Option<Inner>>; SHARDS] = [const { Mutex::new(None) }; SHARDS];

fn shard(hash: u64) -> &'static Mutex<Option<Inner>> {
    &CACHE[(hash as usize) % SHARDS]
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Whether the rewrite/caching execution path is on: the
/// [`crate::config::REWRITE`] toggle. `WSDB_NO_REWRITE` (non-empty) turns
/// it off; [`set_enabled`] overrides at runtime.
#[inline]
pub fn rewrite_enabled() -> bool {
    crate::config::REWRITE.enabled()
}

/// Force the rewrite path on/off for this process (benchmarks A/B the two
/// paths); `None` restores the environment-derived default.
pub fn set_enabled(on: Option<bool>) {
    crate::config::REWRITE.set(on);
}

/// Drop every cached plan (also bounds stats drift in tests). Content
/// verification makes this a memory measure, not a correctness measure.
pub fn clear() {
    for shard in &CACHE {
        let mut guard = shard.lock().unwrap_or_else(|p| p.into_inner());
        *guard = None;
    }
}

/// Drop the cached plans that read any of the named tables — the targeted
/// DML invalidation: a `Session::insert` into one relation evicts only the
/// plans over that relation, and every unrelated cached plan survives.
/// Like [`clear`], this is memory hygiene: soundness always rests on the
/// per-hit input verification (epoch tag, then content).
pub fn invalidate_tables(names: &[&str]) {
    for shard in &CACHE {
        let mut guard = shard.lock().unwrap_or_else(|p| p.into_inner());
        let Some(inner) = guard.as_mut() else {
            continue;
        };
        let mut removed = 0usize;
        inner.map.retain(|_, bucket| {
            bucket.retain(|e| {
                let dead = e.inputs.iter().any(|(n, _)| names.contains(&n.as_str()));
                removed += usize::from(dead);
                !dead
            });
            !bucket.is_empty()
        });
        inner.entries -= removed;
    }
}

/// `(hits, misses)` since process start (or the last [`reset_stats`]).
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Zero the hit/miss counters (used by `EXPLAIN` tests for stable output).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// Resolve the tables a canonical plan reads against `catalog`. `None` when
/// a referenced table is missing (such plans error at evaluation and are
/// never cached).
fn resolve_inputs(canon: &CanonExpr, catalog: &Catalog) -> Option<Vec<(String, Arc<Relation>)>> {
    canon
        .tables
        .iter()
        .map(|name| {
            catalog
                .get_shared(name)
                .map(|rel| (name.clone(), Arc::clone(rel)))
        })
        .collect()
}

/// Look up a cached result for `canon` evaluated against `catalog`.
pub(crate) fn lookup(canon: &CanonExpr, catalog: &Catalog) -> Option<Arc<Relation>> {
    let hit = resolve_inputs(canon, catalog).and_then(|inputs| {
        let guard = shard(canon.hash).lock().unwrap_or_else(|p| p.into_inner());
        let bucket = guard.as_ref()?.map.get(&canon.hash)?;
        bucket
            .iter()
            .find(|e| e.canon == canon.expr && inputs_match(&e.inputs, &inputs))
            .map(|e| Arc::clone(&e.result))
    });
    let counter = if hit.is_some() { &HITS } else { &MISSES };
    counter.fetch_add(1, Ordering::Relaxed);
    hit
}

/// Record a computed result. No-op when a referenced table is absent.
pub(crate) fn insert(canon: &CanonExpr, catalog: &Catalog, result: &Arc<Relation>) {
    let Some(inputs) = resolve_inputs(canon, catalog) else {
        return;
    };
    let mut guard = shard(canon.hash).lock().unwrap_or_else(|p| p.into_inner());
    let inner = guard.get_or_insert_with(Inner::default);
    if inner.entries >= SHARD_CAP {
        inner.map.clear();
        inner.entries = 0;
    }
    let bucket = inner.map.entry(canon.hash).or_default();
    if bucket
        .iter()
        .any(|e| e.canon == canon.expr && inputs_match(&e.inputs, &inputs))
    {
        return;
    }
    bucket.push(Entry {
        canon: canon.expr.clone(),
        inputs,
        result: Arc::clone(result),
    });
    inner.entries += 1;
}

/// Whether the cached inputs are the same relations the catalog holds now:
/// pointer equality, then the O(1) epoch tag (equal tags ⇒ equal content),
/// with the full value comparison only as the fallback for content-equal
/// tables built independently (rebuilt catalogs still hit).
fn inputs_match(cached: &[(String, Arc<Relation>)], current: &[(String, Arc<Relation>)]) -> bool {
    cached.len() == current.len()
        && cached
            .iter()
            .zip(current)
            .all(|((cn, cr), (xn, xr))| cn == xn && (Arc::ptr_eq(cr, xr) || cr.fast_eq(xr)))
}

/// Serializes tests (across this crate's modules) that toggle the process
/// -wide enable state or assert on cache hit behavior.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attrs, Expr, Pred};

    fn catalog(rows: &[&[i64]]) -> Catalog {
        let mut c = Catalog::new();
        c.put("R", Relation::table(&["A", "B"], rows));
        c
    }

    #[test]
    fn hit_requires_equal_inputs() {
        let _g = test_lock();
        clear();
        set_enabled(Some(true));
        let e = Expr::table("R")
            .select(Pred::eq_const("A", 1))
            .project(attrs(&["B"]));
        let c1 = catalog(&[&[1, 2], &[3, 4]]);
        let r1 = c1.eval(&e).unwrap();
        // Equal-content catalog in a fresh allocation: hit.
        let c2 = catalog(&[&[1, 2], &[3, 4]]);
        let r2 = c2.eval(&e).unwrap();
        assert!(Arc::ptr_eq(&r1, &r2), "content-equal catalog must hit");
        // Different content: miss, different answer.
        let c3 = catalog(&[&[1, 9]]);
        let r3 = c3.eval(&e).unwrap();
        assert_ne!(r1, r3);
        set_enabled(None);
        clear();
    }

    #[test]
    fn disabled_cache_shares_nothing() {
        let _g = test_lock();
        clear();
        set_enabled(Some(false));
        let e = Expr::table("R").select(Pred::eq_const("A", 1));
        let c1 = catalog(&[&[1, 2]]);
        let r1 = c1.eval(&e).unwrap();
        let c2 = catalog(&[&[1, 2]]);
        let r2 = c2.eval(&e).unwrap();
        assert!(!Arc::ptr_eq(&r1, &r2));
        assert_eq!(r1, r2);
        set_enabled(None);
        clear();
    }

    #[test]
    fn epoch_tag_fast_path_hits_for_clones() {
        let _g = test_lock();
        clear();
        set_enabled(Some(true));
        let e = Expr::table("R").select(Pred::eq_const("A", 1));
        let c1 = catalog(&[&[1, 2], &[3, 4]]);
        let r1 = c1.eval(&e).unwrap();
        // A catalog holding a *clone* of the same relation (fresh Arc, same
        // epoch): the hit verifies on the tag, not the tuple data.
        let mut c2 = Catalog::new();
        c2.put("R", c1.get("R").unwrap().clone());
        assert!(!Arc::ptr_eq(
            c1.get_shared("R").unwrap(),
            c2.get_shared("R").unwrap()
        ));
        assert_eq!(
            c1.get("R").unwrap().epoch(),
            c2.get("R").unwrap().epoch(),
            "clones share the construction epoch"
        );
        let r2 = c2.eval(&e).unwrap();
        assert!(Arc::ptr_eq(&r1, &r2), "clone catalog must hit");
        set_enabled(None);
        clear();
    }

    #[test]
    fn invalidate_tables_is_targeted() {
        let _g = test_lock();
        clear();
        set_enabled(Some(true));
        let mut c = Catalog::new();
        c.put("R", Relation::table(&["A", "B"], &[&[1i64, 2]]));
        c.put("S", Relation::table(&["C", "D"], &[&[5i64, 6]]));
        let er = Expr::table("R").select(Pred::eq_const("A", 1));
        let es = Expr::table("S").select(Pred::eq_const("C", 5));
        let r1 = c.eval(&er).unwrap();
        let s1 = c.eval(&es).unwrap();
        reset_stats();
        invalidate_tables(&["R"]);
        // The S-plan survives (hit); the R-plan was evicted (miss).
        let s2 = c.eval(&es).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        let r2 = c.eval(&er).unwrap();
        assert!(!Arc::ptr_eq(&r1, &r2));
        assert_eq!(*r1, *r2);
        let (hits, misses) = stats();
        assert!(hits >= 1, "S plan should hit: {hits}/{misses}");
        set_enabled(None);
        clear();
    }

    #[test]
    fn structurally_equal_plans_share_across_calls() {
        let _g = test_lock();
        clear();
        set_enabled(Some(true));
        let c = catalog(&[&[1, 2], &[2, 3]]);
        // Two separately built, structurally identical DAGs.
        let mk = || {
            Expr::table("R")
                .select(Pred::eq_const("A", 2))
                .project(attrs(&["B"]))
        };
        let r1 = c.eval(&mk()).unwrap();
        let r2 = c.eval(&mk()).unwrap();
        assert!(Arc::ptr_eq(&r1, &r2));
        set_enabled(None);
        clear();
    }
}
