use std::collections::BTreeMap;
use std::sync::Arc;

use crate::relation::FxHashMap;
use crate::{Attr, Expr, ExprKind, RelalgError, Relation, Result, Schema};

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

/// The evaluation memo for [`Catalog::eval_cached`] — the engine's only
/// one: it lives for one evaluation (one call, or one batch of expressions
/// over one catalog) and no evaluation state outlives it.
///
/// Results are keyed by **node identity**: a subplan shared in the DAG
/// evaluates once. Each entry pins its expression node, so a node address
/// can never be freed and reused for a different expression while the
/// cache is alive. Two structurally equal but distinct nodes evaluate
/// twice; the plan builders (the translations, [`crate::simplify`],
/// [`crate::opt::optimize_joins`]) keep shared subplans shared instead.
#[derive(Default)]
pub struct EvalCache {
    memo: FxHashMap<usize, (Expr, Arc<Relation>)>,
    stats: EvalStats,
}

/// Cache-effectiveness counters for one [`EvalCache`] (surfaced by the
/// I-SQL `EXPLAIN` output).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Hits by node identity (shared DAG nodes).
    pub node_hits: u64,
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
    /// memoized by node identity, and both memo hits and the returned value
    /// are `Arc` clones — no relation data is copied. This matters for the
    /// Figure-6 translation output, where the world table `W` is referenced
    /// by every base table copy.
    ///
    /// This entry point always delegates to [`Catalog::eval_cached`] with a
    /// fresh cache, which is dropped on return: nothing this evaluation
    /// memoized — results, the plan's nodes and literal relations — is
    /// kept past the call.
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
        if !matches!(expr.kind(), ExprKind::Table(_) | ExprKind::Lit(_)) {
            cache.stats.misses += 1;
        }
        let out: Arc<Relation> = match expr.kind() {
            // A base-table reference returns the catalog's own allocation.
            ExprKind::Table(name) => self
                .tables
                .get(name)
                .cloned()
                .ok_or_else(|| RelalgError::UnknownTable { name: name.clone() })?,
            ExprKind::Lit(rel) => Arc::clone(rel),
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
                let r = self.eval_memo(b, cache)?;
                let through = read_through(a, r.schema(), &mut |e| self.eval_memo(e, cache))?;
                let l = match through {
                    Some((_, inner)) => inner,
                    None => self.eval_memo(a, cache)?,
                };
                Arc::new(l.divide(&r)?)
            }
            ExprKind::OuterPadJoin(a, b) => {
                let l = self.eval_memo(a, cache)?;
                let r = self.eval_memo(b, cache)?;
                Arc::new(l.outer_pad_join(&r))
            }
            ExprKind::Aggregate(group, aggs, e) => {
                Arc::new(self.eval_memo(e, cache)?.aggregate(group, aggs)?)
            }
            ExprKind::SemiJoin(on, a, b) | ExprKind::AntiJoin(on, a, b) => {
                let l = self.eval_memo(a, cache)?;
                let r = self.eval_memo(b, cache)?;
                let anti = matches!(expr.kind(), ExprKind::AntiJoin(..));
                Arc::new(l.semijoin_on(&r, on, anti)?)
            }
        };
        cache
            .memo
            .insert(expr.id(), (expr.clone(), Arc::clone(&out)));
        Ok(out)
    }
}

/// `π_L(e) ÷ S` is `e ÷ S` when `π_L` only reorders `e`'s columns and the
/// quotient's columns come out in the same order: division matches columns
/// by name. Returns `e` and its result (evaluated through `eval`) when that
/// holds, so the dividend's reordering copy is never built and `÷` reads
/// `e` in its stored order — the trip plan's `π{Arr,Dep}(F)` over
/// `F(Dep, Arr)` divides `F` itself. `None` for any other dividend.
pub(crate) fn read_through<'e>(
    dividend: &'e Expr,
    divisor: &Schema,
    eval: &mut dyn FnMut(&Expr) -> Result<Arc<Relation>>,
) -> Result<Option<(&'e Expr, Arc<Relation>)>> {
    let (list, e): (Vec<&Attr>, &Expr) = match dividend.kind() {
        ExprKind::Project(attrs, e) => (attrs.iter().collect(), e),
        ExprKind::ProjectAs(list, e) if list.iter().all(|(s, d)| s == d) => {
            (list.iter().map(|(s, _)| s).collect(), e)
        }
        _ => return Ok(None),
    };
    let inner = eval(e)?;
    let s = inner.schema();
    let permutes = list.len() == s.arity()
        && s.attrs().iter().all(|x| list.contains(&x))
        && s.contains_all(divisor.attrs());
    let outside = |x: &&Attr| !divisor.contains(x);
    let same_quotient = s
        .attrs()
        .iter()
        .filter(outside)
        .eq(list.iter().copied().filter(outside));
    Ok((permutes && same_quotient).then_some((e, inner)))
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
    fn shared_nodes_evaluate_once_and_structural_copies_do_not() {
        // The memo is keyed by node identity: a subplan shared in the DAG
        // evaluates once, while a separately built, structurally equal copy
        // evaluates again.
        let c = catalog();
        let mk = || {
            Expr::table("Flights")
                .select(Pred::eq_const("Arr", "ATL"))
                .project(attrs(&["Dep"]))
        };
        let rename = vec![("Dep".into(), "Dep2".into())];
        let stats = |e: &Expr| {
            let mut cache = EvalCache::new();
            assert_eq!(c.eval_cached(e, &mut cache).unwrap().len(), 9);
            cache.stats()
        };
        // Shared: product, project, select and rename evaluate; the second
        // reference to the project is a node hit.
        let shared = mk();
        let s = stats(&shared.product(&shared.rename(rename.clone())));
        assert_eq!((s.misses, s.node_hits), (4, 1), "{s:?}");
        // Copied: the copy's project and select evaluate as well.
        let s = stats(&mk().product(&mk().rename(rename)));
        assert_eq!(s.misses, 6, "{s:?}");
    }

    #[test]
    fn eval_retains_nothing_after_return() {
        // A literal under a selection and a projection: once the plan and
        // the result are dropped, no memo anywhere still holds the literal.
        let lit = Arc::new(Relation::table(&["A", "B"], &[&[1i64, 2], &[3, 4]]));
        let weak = Arc::downgrade(&lit);
        let plan = Expr::lit(lit)
            .select(Pred::eq_const("A", 1))
            .project(attrs(&["B"]));
        let out = catalog().eval(&plan).unwrap();
        assert_eq!(out.len(), 1);
        drop((plan, out));
        assert!(
            weak.upgrade().is_none(),
            "the literal outlived its evaluation"
        );
    }

    /// 40 levels of `e ∪ e` (or `e × e`) over one table node: 2⁴⁰ paths,
    /// 41 nodes. Evaluation, `simplify` and `optimize_joins` each visit a
    /// node once, so each finishes in milliseconds, and each keeps the
    /// root's two children one node.
    fn check_shared_dag(c: &Catalog, leaf: &str, op: fn(&Expr, &Expr) -> Expr, rows: usize) {
        let mut e = Expr::table(leaf);
        for _ in 0..40 {
            e = op(&e, &e);
        }
        let shared = |e: &Expr| match e.kind() {
            ExprKind::Union(a, b) | ExprKind::Product(a, b) => a.id() == b.id(),
            _ => false,
        };
        let start = std::time::Instant::now();
        assert_eq!(c.eval(&e).unwrap().len(), rows);
        let simplified = crate::simplify(&e, &|n| c.schema_of(n)).unwrap();
        assert!(shared(&simplified), "simplify unshared the root's children");
        let optimized = crate::opt::optimize_joins(&e, c);
        assert!(
            shared(&optimized),
            "optimize_joins unshared the root's children"
        );
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "{leaf}: {elapsed:?}"
        );
    }

    #[test]
    fn shared_union_dag_is_linear_in_its_nodes() {
        check_shared_dag(&catalog(), "Flights", |a, b| a.union(b), 5);
    }

    #[test]
    fn shared_product_dag_is_linear_in_its_nodes() {
        let mut c = catalog();
        c.put("Unit", Relation::unit());
        check_shared_dag(&c, "Unit", |a, b| a.product(b), 1);
    }

    #[test]
    fn eval_and_eval_cached_agree() {
        // The uncached entry point delegates to a fresh cache, so both
        // entry points run the identical memoized path.
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
