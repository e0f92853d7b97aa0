use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::canon::{canonical, CanonExpr};
use crate::{plan_cache, Expr, ExprKind, RelalgError, Relation, Result, Schema};

/// A catalog of named base relations — the database the expression
/// evaluator runs against.
///
/// Relations are held behind [`Arc`]: registering, looking up, and — most
/// importantly — evaluating never deep-copies a relation. `eval` returns
/// `Arc<Relation>` so that memo hits (shared DAG nodes such as the Figure-6
/// world table `W`) and base-table references are reference-count bumps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Relation>>,
}

/// A reusable evaluation memo for [`Catalog::eval_cached`].
///
/// Results are keyed two ways:
///
/// * by **node identity** (the fast path — each entry pins its expression
///   node, so a node address can never be freed and reused for a different
///   expression while the cache is alive), and
/// * by **canonical form** ([`crate::canon`]): two structurally different
///   nodes that denote the same relation — e.g. the per-table copies of the
///   same base-table join built by the Figure-6 translation — evaluate
///   once. This is the cross-world common-subexpression elimination of the
///   translation route.
///
/// On a miss at both levels, composite nodes also consult the process-wide
/// [`crate::plan_cache`] (when the rewrite path is enabled), so identical
/// plans re-built across calls — one `run_general` per query — skip
/// evaluation entirely.
#[derive(Default)]
pub struct EvalCache {
    memo: HashMap<usize, (Expr, Arc<Relation>)>,
    canon_memo: HashMap<u64, Vec<(Expr, Arc<Relation>)>>,
    stats: EvalStats,
}

/// Cache-effectiveness counters for one [`EvalCache`] (surfaced by the
/// I-SQL `EXPLAIN` output).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Hits by node identity (shared DAG nodes).
    pub node_hits: u64,
    /// Hits by canonical form (structurally distinct, result-identical
    /// nodes — the CSE wins).
    pub canon_hits: u64,
    /// Hits in the process-level plan cache.
    pub plan_hits: u64,
    /// Composite nodes that had to be evaluated.
    pub misses: u64,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> EvalCache {
        EvalCache::default()
    }

    /// Hit/miss counters accumulated by this cache.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    fn canon_get(&mut self, canon: &CanonExpr) -> Option<Arc<Relation>> {
        let bucket = self.canon_memo.get(&canon.hash)?;
        bucket
            .iter()
            .find(|(e, _)| *e == canon.expr)
            .map(|(_, r)| Arc::clone(r))
    }

    fn canon_put(&mut self, canon: &CanonExpr, rel: &Arc<Relation>) {
        self.canon_memo
            .entry(canon.hash)
            .or_default()
            .push((canon.expr.clone(), Arc::clone(rel)));
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register (or replace) a table. Accepts an owned [`Relation`] or an
    /// already-shared `Arc<Relation>`.
    pub fn put(&mut self, name: &str, rel: impl Into<Arc<Relation>>) {
        self.tables.insert(name.to_string(), rel.into());
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.tables.get(name).map(|r| r.as_ref())
    }

    /// Look up a table as a shared handle (cheap to clone).
    pub fn get_shared(&self, name: &str) -> Option<&Arc<Relation>> {
        self.tables.get(name)
    }

    /// Remove a table, returning it if present.
    pub fn take(&mut self, name: &str) -> Option<Arc<Relation>> {
        self.tables.remove(name)
    }

    /// Names of all registered tables, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(|s| s.as_str())
    }

    /// Schema lookup function compatible with [`Expr::infer_schema`].
    pub fn schema_of(&self, name: &str) -> Option<Schema> {
        self.tables.get(name).map(|r| r.schema().clone())
    }

    /// Evaluate an expression against this catalog.
    ///
    /// Shared sub-expressions (DAG nodes) are evaluated once: results are
    /// memoized by node identity *and* by canonical form, and both memo
    /// hits and the returned value are `Arc` clones — no relation data is
    /// copied. This matters for the Figure-6 translation output, where the
    /// world table `W` is referenced by every base table copy.
    ///
    /// This entry point always delegates to [`Catalog::eval_cached`] with a
    /// fresh cache, so canonicalization, CSE, and the plan cache apply
    /// identically on both entry points.
    pub fn eval(&self, expr: &Expr) -> Result<Arc<Relation>> {
        let mut cache = EvalCache::new();
        self.eval_cached(expr, &mut cache)
    }

    /// Evaluate with a caller-held memo, so that *several* expressions
    /// sharing DAG nodes (e.g. the Figure-6 output, where one world-table
    /// subplan feeds every translated base table) evaluate each shared node
    /// once across the whole batch. The cache pins the expression nodes it
    /// has seen, so reuse across expressions is safe; do not reuse a cache
    /// across catalogs (results would come from the wrong tables).
    pub fn eval_cached(&self, expr: &Expr, cache: &mut EvalCache) -> Result<Arc<Relation>> {
        self.eval_memo(expr, cache)
    }

    fn eval_memo(&self, expr: &Expr, cache: &mut EvalCache) -> Result<Arc<Relation>> {
        if let Some((_, hit)) = cache.memo.get(&expr.id()) {
            cache.stats.node_hits += 1;
            return Ok(Arc::clone(hit));
        }
        // Leaves are cheap (a catalog lookup / an `Arc` bump): evaluate
        // directly under the identity key only, keeping the invariant that
        // a base-table reference returns the catalog's own allocation.
        match expr.kind() {
            ExprKind::Table(name) => {
                let out = self
                    .tables
                    .get(name)
                    .cloned()
                    .ok_or_else(|| RelalgError::UnknownTable { name: name.clone() })?;
                cache
                    .memo
                    .insert(expr.id(), (expr.clone(), Arc::clone(&out)));
                return Ok(out);
            }
            ExprKind::Lit(rel) => {
                let out = Arc::clone(rel);
                cache
                    .memo
                    .insert(expr.id(), (expr.clone(), Arc::clone(&out)));
                return Ok(out);
            }
            _ => {}
        }
        // Composite node: the canonical form widens the key from "this
        // node" to "any node denoting this relation" — structurally
        // distinct copies of a subplan (and, through the plan cache,
        // re-built plans from earlier calls) evaluate once.
        let canon = canonical(expr);
        if let Some(hit) = cache.canon_get(&canon) {
            cache.stats.canon_hits += 1;
            cache
                .memo
                .insert(expr.id(), (expr.clone(), Arc::clone(&hit)));
            return Ok(hit);
        }
        let plan_cache_on = plan_cache::rewrite_enabled();
        if plan_cache_on {
            if let Some(hit) = plan_cache::lookup(&canon, self) {
                cache.stats.plan_hits += 1;
                cache.canon_put(&canon, &hit);
                cache
                    .memo
                    .insert(expr.id(), (expr.clone(), Arc::clone(&hit)));
                return Ok(hit);
            }
        }
        cache.stats.misses += 1;
        let out: Arc<Relation> = match expr.kind() {
            ExprKind::Table(_) | ExprKind::Lit(_) => unreachable!("handled above"),
            ExprKind::Select(p, e) => Arc::new(self.eval_memo(e, cache)?.select(p)?),
            ExprKind::Project(attrs, e) => Arc::new(self.eval_memo(e, cache)?.project(attrs)?),
            ExprKind::ProjectAs(list, e) => Arc::new(self.eval_memo(e, cache)?.project_as(list)?),
            ExprKind::Rename(map, e) => Arc::new(self.eval_memo(e, cache)?.rename(map)?),
            ExprKind::Product(a, b) => {
                let l = self.eval_memo(a, cache)?;
                let r = self.eval_memo(b, cache)?;
                Arc::new(l.product(&r)?)
            }
            ExprKind::Union(a, b) => {
                let l = self.eval_memo(a, cache)?;
                let r = self.eval_memo(b, cache)?;
                Arc::new(l.union(&r)?)
            }
            ExprKind::Intersect(a, b) => {
                let l = self.eval_memo(a, cache)?;
                let r = self.eval_memo(b, cache)?;
                Arc::new(l.intersect(&r)?)
            }
            ExprKind::Difference(a, b) => {
                let l = self.eval_memo(a, cache)?;
                let r = self.eval_memo(b, cache)?;
                Arc::new(l.difference(&r)?)
            }
            ExprKind::NaturalJoin(a, b) => {
                let l = self.eval_memo(a, cache)?;
                let r = self.eval_memo(b, cache)?;
                Arc::new(l.natural_join(&r))
            }
            ExprKind::ThetaJoin(p, a, b) => {
                let l = self.eval_memo(a, cache)?;
                let r = self.eval_memo(b, cache)?;
                Arc::new(l.theta_join(&r, p)?)
            }
            ExprKind::Divide(a, b) => {
                let l = self.eval_memo(a, cache)?;
                let r = self.eval_memo(b, cache)?;
                Arc::new(l.divide(&r)?)
            }
            ExprKind::OuterPadJoin(a, b) => {
                let l = self.eval_memo(a, cache)?;
                let r = self.eval_memo(b, cache)?;
                Arc::new(l.outer_pad_join(&r))
            }
        };
        cache
            .memo
            .insert(expr.id(), (expr.clone(), Arc::clone(&out)));
        cache.canon_put(&canon, &out);
        if plan_cache_on {
            plan_cache::insert(&canon, self, &out);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attrs, Pred};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.put(
            "Flights",
            Relation::table(
                &["Dep", "Arr"],
                &[
                    &["FRA", "BCN"],
                    &["FRA", "ATL"],
                    &["PAR", "ATL"],
                    &["PAR", "BCN"],
                    &["PHL", "ATL"],
                ],
            ),
        );
        c
    }

    #[test]
    fn eval_pipeline() {
        let c = catalog();
        let e = Expr::table("Flights")
            .select(Pred::eq_const("Arr", "BCN"))
            .project(attrs(&["Dep"]));
        let r = c.eval(&e).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn eval_division_trip_query() {
        // Example 5.8 target plan: π{Arr,Dep}(F) ÷ π{Dep}(F).
        let c = catalog();
        let f = Expr::table("Flights");
        let e = f
            .project(attrs(&["Arr", "Dep"]))
            .divide(&f.project(attrs(&["Dep"])));
        let r = c.eval(&e).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&["ATL".into()]));
    }

    #[test]
    fn unknown_table_error() {
        let c = catalog();
        assert!(matches!(
            c.eval(&Expr::table("Nope")),
            Err(RelalgError::UnknownTable { .. })
        ));
    }

    #[test]
    fn memoization_shares_nodes() {
        // A DAG whose shared node is huge; correctness check only — the
        // benches measure the speedup.
        let c = catalog();
        let shared = Expr::table("Flights").project(attrs(&["Dep"]));
        let e = shared.product(&shared.rename(vec![("Dep".into(), "Dep2".into())]));
        let r = c.eval(&e).unwrap();
        assert_eq!(r.len(), 9);
    }

    #[test]
    fn base_table_eval_is_shared_not_copied() {
        let c = catalog();
        let out = c.eval(&Expr::table("Flights")).unwrap();
        assert!(Arc::ptr_eq(&out, c.get_shared("Flights").unwrap()));
    }

    #[test]
    fn memo_hits_are_arc_clones() {
        // Evaluating the same shared node twice within one eval returns the
        // same allocation: selecting from both copies of a shared subplan.
        let c = catalog();
        let shared = Expr::table("Flights").select(Pred::eq_const("Arr", "ATL"));
        let left = shared.project(attrs(&["Dep"]));
        let right = shared.project(attrs(&["Arr"]));
        let e = left.product(&right);
        assert_eq!(c.eval(&e).unwrap().len(), 3);
    }

    #[test]
    fn canonical_cse_shares_structurally_equal_nodes() {
        // Two separately-built, structurally identical subplans (distinct
        // `Arc` nodes): the second copy evaluates as a canonical-form hit,
        // and its children are never visited at all.
        let _guard = crate::plan_cache::test_lock();
        crate::plan_cache::set_enabled(Some(false));
        let c = catalog();
        let mk = || Expr::table("Flights").select(Pred::eq_const("Arr", "ATL"));
        let e = mk().project(attrs(&["Dep"])).product(
            &mk()
                .project(attrs(&["Dep"]))
                .rename(vec![("Dep".into(), "Dep2".into())]),
        );
        let mut cache = EvalCache::new();
        let out = c.eval_cached(&e, &mut cache).unwrap();
        crate::plan_cache::set_enabled(None);
        assert_eq!(out.len(), 9);
        let stats = cache.stats();
        assert!(
            stats.canon_hits >= 1,
            "the duplicated select+project subplan should hit canonically: {stats:?}"
        );
        // product, first project, its select, and the rename evaluate; the
        // second select+project copy is covered by the canonical hit.
        assert_eq!(stats.misses, 4, "{stats:?}");
    }

    #[test]
    fn eval_and_eval_cached_agree() {
        // The uncached entry point delegates to a fresh cache, so both
        // entry points run the identical canonicalized path.
        let c = catalog();
        let e = Expr::table("Flights")
            .select(Pred::eq_const("Arr", "BCN"))
            .select(Pred::eq_const("Dep", "FRA"))
            .project(attrs(&["Dep"]));
        let mut cache = EvalCache::new();
        assert_eq!(c.eval(&e).unwrap(), c.eval_cached(&e, &mut cache).unwrap());
    }

    #[test]
    fn catalog_crud() {
        let mut c = catalog();
        assert!(c.get("Flights").is_some());
        assert_eq!(c.schema_of("Flights").unwrap().arity(), 2);
        let f = c.take("Flights").unwrap();
        assert!(c.get("Flights").is_none());
        c.put("F2", f);
        assert_eq!(c.names().collect::<Vec<_>>(), vec!["F2"]);
    }
}
