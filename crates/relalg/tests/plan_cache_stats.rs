//! The plan cache's hit/miss counters. They are process-wide, and the
//! unit tests of `relalg` evaluate plans concurrently without
//! `plan_cache::test_lock`, so exact counter deltas are pinned here, in a
//! test binary that holds nothing else.

use relalg::{plan_cache, Catalog, Expr, Pred, Relation};

#[test]
fn every_failed_lookup_counts_as_a_miss() {
    plan_cache::set_enabled(Some(true));
    plan_cache::clear();
    let mut c = Catalog::new();
    c.put("R", Relation::table(&["A", "B"], &[&[1i64, 2], &[3, 4]]));
    // One composite node: one plan-cache lookup per evaluation.
    let e = Expr::table("R").select(Pred::eq_const("A", 1));

    // Cold: the plan's shard has no bucket for it yet.
    let (hits, misses) = plan_cache::stats();
    let first = c.eval(&e).unwrap();
    assert_eq!(plan_cache::stats(), (hits, misses + 1));
    // The evaluation inserted its result; the next lookup finds it.
    let second = c.eval(&e).unwrap();
    assert!(std::sync::Arc::ptr_eq(&first, &second));
    assert_eq!(plan_cache::stats(), (hits + 1, misses + 1));

    plan_cache::set_enabled(None);
    plan_cache::clear();
}
