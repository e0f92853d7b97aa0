//! The I-SQL world-set interpreter.
//!
//! Evaluation follows the paper's "order of evaluation" (Section 3):
//! (1) the product of the from-clause relations, (2) the where-condition,
//! then `choice of`, `repair by key`, `group worlds by`, and finally (3)
//! the select-list projection with `possible`/`certain` closing the
//! possible-worlds semantics within world groups.
//!
//! Two evaluators cooperate:
//!
//! * [`eval_select_ws`] — the world-set level: from-subqueries and
//!   where-subqueries that use world constructs split worlds exactly like
//!   the corresponding WSA operators (such where-subqueries are hoisted and
//!   must be uncorrelated);
//! * a per-world evaluator for world-construct-free subqueries, supporting
//!   correlation through a scope stack (used by `in`/`exists` and scalar
//!   subqueries). A subquery that reads nothing of its outer rows is
//!   evaluated once per world: [`Scopes`] keeps its answer for the
//!   remaining rows.
//!
//! The TPC-H what-if query of Section 2, with its `group by` and `not in`,
//! no longer runs here unless `set local rewrite = off`: it compiles and
//! takes the relational route of [`eval_select_ws`].

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use relalg::{Attr, Relation, RelationBuilder, Schema, Tuple, Value};
use worldset::{World, WorldSet};

use crate::ast::*;
use crate::lexer::SqlError;

type Result<T> = std::result::Result<T, SqlError>;

fn rel_err(e: relalg::RelalgError) -> SqlError {
    SqlError(e.to_string())
}

/// Generate a relation name not yet used in the world-set (nested
/// evaluations each get their own working relation).
fn fresh(ws: &WorldSet, base: &str) -> String {
    if ws.index_of(base).is_none() {
        return base.to_string();
    }
    for i in 2usize.. {
        let name = format!("{base}{i}");
        if ws.index_of(&name).is_none() {
            return name;
        }
    }
    unreachable!()
}

/// Evaluate a select statement against a world-set, appending the answer
/// relation under `out_name`.
///
/// Statements in the clean fragment that use world constructs, and every
/// select over a one-world session, first try the **rewrite route**:
/// compile to World-set Algebra and — when the query is `1↦1` over a
/// one-world session — evaluate it as its Section-5.3 relational plan;
/// otherwise run the Section-6 optimizer (with real relation
/// cardinalities) and — when it found a strictly cheaper plan — evaluate
/// the optimized algebra query directly. Everything else (and
/// `set local rewrite = off`)
/// falls back to the direct interpreter below, counting why
/// ([`RouteFallback`]); the two routes agree on the clean fragment (pinned
/// by `tests/interp_vs_algebra.rs`).
pub fn eval_select_ws(stmt: &SelectStmt, ws: &WorldSet, out_name: &str) -> Result<WorldSet> {
    if !tries_algebra_route(stmt, ws) {
        return eval_select_ws_interp(stmt, ws, out_name);
    }
    let route_error = match try_rewrite_route_ws(stmt, ws, out_name) {
        Ok(out) => return Ok(out),
        Err(fallback) => {
            fallback.count();
            match fallback {
                RouteFallback::RouteError(e) => Some(e),
                RouteFallback::NotInFragment
                | RouteFallback::NotTranslatable
                | RouteFallback::NotCheaper => None,
            }
        }
    };
    let out = eval_select_ws_interp(stmt, ws, out_name);
    if let (Some(e), Ok(_)) = (&route_error, &out) {
        // The interpreter answered a statement the algebra route failed
        // on: the engines disagree.
        ROUTE_DISAGREEMENTS.fetch_add(1, Ordering::Relaxed);
        debug_assert!(
            false,
            "the algebra route failed where the interpreter answers: {e}"
        );
    }
    out
}

/// Whether [`eval_select_ws`] tries the algebra route for `stmt` over `ws`
/// at all (`EXPLAIN` asks the same question): a statement that uses world
/// constructs, or any select over a one-world session. A select without
/// world constructs is `1↦1` (Theorem 5.7), so over one world it runs as
/// its relational plan; over several it stays on the interpreter.
pub(crate) fn tries_algebra_route(stmt: &SelectStmt, ws: &WorldSet) -> bool {
    relalg::config::rewrite_enabled() && (stmt.uses_world_constructs() || ws.the_world().is_some())
}

/// Why a statement tried but did not take the algebra route of
/// [`eval_select_ws`].
#[derive(Debug)]
enum RouteFallback {
    /// The statement compiles to no World-set Algebra query: arithmetic,
    /// correlated or scalar subqueries, aggregates without `group by`, and
    /// the other shapes [`crate::compile`] lists as interpreter-only.
    NotInFragment,
    /// A `1↦1` query over one world has no relational translation.
    NotTranslatable,
    /// Neither the optimizer found a strictly cheaper plan nor the
    /// factorized chooser wanted the query.
    NotCheaper,
    /// The routed evaluation failed.
    RouteError(SqlError),
}

static NOT_TRANSLATABLE: AtomicU64 = AtomicU64::new(0);
static NOT_IN_FRAGMENT: AtomicU64 = AtomicU64::new(0);
static NOT_CHEAPER: AtomicU64 = AtomicU64::new(0);
static ROUTE_ERRORS: AtomicU64 = AtomicU64::new(0);
static ROUTE_DISAGREEMENTS: AtomicU64 = AtomicU64::new(0);

impl RouteFallback {
    fn count(&self) {
        let counter = match self {
            RouteFallback::NotInFragment => &NOT_IN_FRAGMENT,
            RouteFallback::NotTranslatable => &NOT_TRANSLATABLE,
            RouteFallback::NotCheaper => &NOT_CHEAPER,
            RouteFallback::RouteError(_) => &ROUTE_ERRORS,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Process-wide counts of the statements that fell back from the algebra
/// route to the interpreter, by reason, since the process started.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RouteFallbacks {
    /// `1↦1` statements over one world without a relational translation:
    /// a `repair by key` outside the key-local fragment (over an input that
    /// varies across worlds, or followed by `χ`, a set operation, grouping,
    /// a second repair or a product with another repaired side;
    /// Proposition 4.2). They continue on the other routes, except that a
    /// select without world constructs goes to the interpreter. A
    /// translated plan that fails to evaluate is a route error.
    pub not_translatable: u64,
    /// The statement is outside the compilable fragment.
    pub not_in_fragment: u64,
    /// The route would not have been cheaper.
    pub not_cheaper: u64,
    /// The routed evaluation failed.
    pub route_errors: u64,
    /// Route errors on which the interpreter then answered: the two engines
    /// disagree (debug builds fail an assertion instead).
    pub disagreements: u64,
}

/// Read the [`RouteFallbacks`] counters.
pub fn route_fallbacks() -> RouteFallbacks {
    RouteFallbacks {
        not_translatable: NOT_TRANSLATABLE.load(Ordering::Relaxed),
        not_in_fragment: NOT_IN_FRAGMENT.load(Ordering::Relaxed),
        not_cheaper: NOT_CHEAPER.load(Ordering::Relaxed),
        route_errors: ROUTE_ERRORS.load(Ordering::Relaxed),
        disagreements: ROUTE_DISAGREEMENTS.load(Ordering::Relaxed),
    }
}

/// One relation's contribution to the optimizer-memo key: name plus
/// **epoch tag** — an O(1) content identifier (equal tags imply identical
/// schema, tuples, and therefore statistics), so DML on the relation
/// invalidates the memoized choice automatically. The
/// statistics themselves are *not* part of the key: they are a pure
/// function of the content the tag identifies, and are computed lazily —
/// only for the relations the cost model actually asks about.
type RelFingerprint = (String, u64);

/// Measured statistics of one relation, in the shape the rewrite context
/// consumes (computed lazily and memoized on the relation itself).
fn table_stats_of(rel: &relalg::Relation) -> wsa_rewrite::TableStats {
    let s = rel.stats();
    wsa_rewrite::TableStats {
        rows: s.rows,
        distinct: rel
            .schema()
            .attrs()
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), s.cols[i].distinct))
            .collect(),
    }
}

/// Process-level memo for the optimizer search: re-running the same
/// statement against unchanged relations must not pay the best-first
/// search again (the search is the route's only fixed cost, and it dwarfs
/// small-query execution). Keyed by the compiled algebra, the fingerprints
/// (name + epoch) of the relations it names and the input multiplicity;
/// the value is the optimized plan (`None` when rewriting found nothing).
/// Statistics are consulted only on a miss, and only for the tables the
/// cost model queries.
type OptKey = (wsa::Query, Vec<RelFingerprint>, bool);

pub(crate) fn optimize_memoized(
    algebra: &wsa::Query,
    base: &dyn Fn(&str) -> Option<Schema>,
    ws: &WorldSet,
) -> Option<wsa::Query> {
    use std::collections::HashMap;
    use std::sync::Mutex;
    static MEMO: Mutex<Option<HashMap<OptKey, Option<wsa::Query>>>> = Mutex::new(None);
    const MEMO_CAP: usize = 256;
    const SEARCH_CAP: usize = 20_000;

    let many_worlds = ws.len() > 1;
    let key: OptKey = (algebra.clone(), card_fingerprint(algebra, ws), many_worlds);
    {
        let mut guard = MEMO.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(hit) = guard.get_or_insert_with(HashMap::new).get(&key) {
            return hit.clone();
        }
    }
    let multiplicity = if many_worlds {
        wsa::typing::Multiplicity::Many
    } else {
        wsa::typing::Multiplicity::One
    };
    let stats = |name: &str| -> Option<wsa_rewrite::TableStats> {
        let idx = ws.index_of(name)?;
        Some(table_stats_of(ws.iter().next()?.rel(idx)))
    };
    let ctx = wsa_rewrite::RewriteCtx::new(base)
        .with_stats(&stats)
        .with_multiplicity(multiplicity);
    let optimized = wsa_rewrite::optimize_capped(algebra, &ctx, SEARCH_CAP).0;
    let result = if optimized == *algebra {
        None
    } else {
        Some(optimized)
    };
    let mut guard = MEMO.lock().unwrap_or_else(|p| p.into_inner());
    let memo = guard.get_or_insert_with(HashMap::new);
    if memo.len() >= MEMO_CAP {
        memo.clear();
    }
    memo.insert(key, result.clone());
    result
}

/// The relations `algebra` names, as seen in the first world — the
/// fingerprint the optimizer memo keys on: DML on one of them invalidates
/// the memoized plan choice, while a commit on another table or an answer
/// the session keeps leaves the key alone.
fn card_fingerprint(algebra: &wsa::Query, ws: &WorldSet) -> Vec<RelFingerprint> {
    let Some(w) = ws.iter().next() else {
        return Vec::new();
    };
    let mut names = algebra.rel_names();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .filter_map(|n| {
            let epoch = w.rel(ws.index_of(&n)?).epoch();
            Some((n, epoch))
        })
        .collect()
}

/// The algebra fast path of [`eval_select_ws`]; the error says why the
/// interpreter runs instead.
///
/// A `1↦1` query over one world runs as its relational plan
/// ([`wsa_inlined::relational_plan`]). Otherwise the route fires when the
/// Section-6 optimizer found a strictly cheaper
/// plan, **or** when the factorized chooser wants the query: the
/// interpreter enumerates every `choice of` world explicitly, so a query
/// over many implicit worlds goes through the algebra even unrewritten,
/// where [`wsa::eval_named_routed`] can run it factorized.
fn try_rewrite_route_ws(
    stmt: &SelectStmt,
    ws: &WorldSet,
    out_name: &str,
) -> std::result::Result<WorldSet, RouteFallback> {
    let base = |name: &str| -> Option<Schema> {
        let idx = ws.index_of(name)?;
        Some(ws.iter().next()?.rel(idx).schema().clone())
    };
    let algebra =
        crate::compile::compile_select(stmt, &base).map_err(|_| RouteFallback::NotInFragment)?;
    // A `1↦1` query over one world is relational algebra (Theorem 5.7):
    // both other routes would enumerate or factorize worlds, so no cost
    // test applies. Its plan is optimized as relational algebra
    // (`relalg::simplify`, `optimize_joins` over measured statistics), so
    // the Section-6 search over world-set plans is skipped: on B16's
    // `trip`, `join`, `repair` and `whatif` it yields the same relational
    // plan, and after every commit it would search again. A query without
    // a relational translation takes the routes below. A translated plan
    // that fails to evaluate is a route error: by Theorem 5.7 it is
    // equivalent to the other routes.
    let plain = !stmt.uses_world_constructs();
    if let Some(world) = wsa_inlined::route_applies(&algebra, ws) {
        match wsa_inlined::relational_plan(&algebra, ws.rel_names(), world) {
            Ok(plan) => {
                return plan
                    .run(ws, out_name)
                    .map_err(|e| RouteFallback::RouteError(rel_err(e)));
            }
            Err(_) if plain => {}
            Err(_) => RouteFallback::NotTranslatable.count(),
        }
    }
    // A select without world constructs has no world to enumerate or
    // factorize, so the other routes cannot beat the interpreter, and it
    // never runs the Section-6 search.
    if plain {
        return Err(RouteFallback::NotTranslatable);
    }
    let query = match optimize_memoized(&algebra, &base, ws) {
        Some(q) => q,
        None if wsa::should_factorize(&algebra, ws) => algebra,
        None => return Err(RouteFallback::NotCheaper),
    };
    wsa::eval_named_routed(&query, ws, out_name).map_err(|e| RouteFallback::RouteError(rel_err(e)))
}

fn eval_select_ws_interp(stmt: &SelectStmt, ws: &WorldSet, out_name: &str) -> Result<WorldSet> {
    let base_count = ws.rel_names().len();

    // Plan which simple `where`-comparisons can be pushed into the
    // from-product (selections on one table, equi-join predicates between
    // two), so the product is never materialized unfiltered.
    let plan = plan_pushdown(stmt, true, |name, alias| {
        let idx = ws.index_of(name)?;
        let w = ws.iter().next()?;
        qualified_schema(w.rel(idx).schema(), alias)
    });

    // (1) Fold the from-clause into the working product.
    let acc_name = fresh(ws, "#acc");
    let mut cur = ws
        .extend_with(&acc_name, |_| Ok(Relation::unit()))
        .map_err(rel_err)?;
    match &plan {
        Some(p) => {
            for (item, (sel, join)) in stmt.from.iter().zip(&p.per_item) {
                let FromItem::Table { name, alias } = item else {
                    unreachable!("pushdown plans cover table-only from lists");
                };
                let idx = cur
                    .index_of(name)
                    .ok_or_else(|| SqlError(format!("unknown relation {name}")))?;
                let acc_idx = cur.index_of(&acc_name).expect("working relation present");
                let alias = alias.clone().unwrap_or_else(|| name.clone());
                cur = cur.map_worlds(|w| {
                    let mut q = qualify(w.rel(idx), &alias)?;
                    if *sel != relalg::Pred::True {
                        q = q.select(sel).map_err(rel_err)?;
                    }
                    let acc = w.rel(acc_idx);
                    let combined = if *join != relalg::Pred::True {
                        acc.theta_join(&q, join)
                    } else {
                        acc.product(&q)
                    }
                    .map_err(rel_err)?;
                    Ok(replace_rel(w, acc_idx, combined))
                })?;
            }
        }
        None => {
            for item in &stmt.from {
                cur = add_from_item(item, &cur, &acc_name)?;
            }
        }
    }

    // (2) Where (minus pushed conjuncts): hoist world-splitting subqueries,
    // then filter per world.
    let base_cond = match &plan {
        Some(p) => conjoin(&p.residual),
        None => stmt.where_cond.clone(),
    };
    let mut hoisted: Vec<String> = Vec::new();
    let cond = match base_cond {
        Some(c) => {
            let (c2, cur2) = hoist_world_subqueries(c, cur, &mut hoisted)?;
            cur = cur2;
            Some(c2)
        }
        None => None,
    };
    let acc_idx = cur.index_of(&acc_name).expect("working relation present");
    if let Some(cond) = &cond {
        cur = cur.map_worlds(|w| {
            let filtered = filter_rows(
                w.rel(acc_idx),
                &[cond],
                true,
                w,
                cur.rel_names(),
                &mut Scopes::new(),
            )?;
            Ok(replace_rel(w, acc_idx, filtered))
        })?;
    }

    // choice of — one world per value combination.
    if !stmt.choice_of.is_empty() {
        let cols = stmt.choice_of.clone();
        cur = cur.flat_map_worlds(|w| {
            let acc = w.rel(acc_idx);
            let attrs = resolve_cols(&cols, acc.schema())?;
            if acc.is_empty() {
                return Ok(vec![w.clone()]);
            }
            let mut out = Vec::new();
            for v in acc.distinct_values(&attrs).map_err(rel_err)? {
                let mut pred = relalg::Pred::True;
                for (a, val) in attrs.iter().zip(&v) {
                    pred = pred.and(relalg::Pred::eq_const(a.clone(), *val));
                }
                out.push(replace_rel(w, acc_idx, acc.select(&pred).map_err(rel_err)?));
            }
            Ok(out)
        })?;
    }

    // repair by key — one world per maximal repair.
    if !stmt.repair_by_key.is_empty() {
        let cols = stmt.repair_by_key.clone();
        cur = cur.flat_map_worlds(|w| {
            let acc = w.rel(acc_idx);
            let attrs = resolve_cols(&cols, acc.schema())?;
            let repairs = wsa::repairs_by_key(acc, &attrs).map_err(rel_err)?;
            Ok(repairs
                .into_iter()
                .map(|r| replace_rel(w, acc_idx, r))
                .collect())
        })?;
    }

    // (3) Group worlds (on the pre-projection answer, per the paper's
    // order of evaluation), project with aggregation, then close with
    // possible/certain within each world group.
    let names_snapshot: Vec<String> = cur.rel_names().to_vec();
    match stmt.quant {
        None => {
            if stmt.group_worlds_by.is_some() {
                return Err(SqlError(
                    "group worlds by requires possible or certain".into(),
                ));
            }
            cur = cur.map_worlds(|w| {
                let answer = project_world(stmt, w, &names_snapshot, acc_idx)?;
                Ok(replace_rel(w, acc_idx, answer))
            })?;
        }
        Some(quant) => {
            // Grouping keys come from the working product *before* the
            // select-list projection (the paper applies group-worlds-by
            // between repair-by-key and step (3)).
            let group_key = |w: &World| -> Result<Relation> {
                match &stmt.group_worlds_by {
                    None => Ok(Relation::unit()),
                    Some(GroupWorldsBy::Columns(cols)) => {
                        let acc = w.rel(acc_idx);
                        let attrs = resolve_cols(cols, acc.schema())?;
                        acc.project(&attrs).map_err(rel_err)
                    }
                    Some(GroupWorldsBy::Query(q)) => {
                        if q.uses_world_constructs() {
                            return Err(SqlError(
                                "group worlds by subquery must not use world constructs".into(),
                            ));
                        }
                        eval_select_local(q, w, &names_snapshot, &mut Scopes::new())
                    }
                }
            };
            // Collect each group's answers in world order (the first
            // member's attribute order wins), then combine them: `possible`
            // in one many-way union, `certain` as a fold (the intersection
            // only shrinks).
            let mut entries: Vec<(&World, Relation)> = Vec::new();
            let mut answers: BTreeMap<Relation, Vec<Relation>> = BTreeMap::new();
            for w in cur.iter() {
                let key = group_key(w)?;
                let ans = project_world(stmt, w, &names_snapshot, acc_idx)?;
                answers.entry(key.clone()).or_default().push(ans);
                entries.push((w, key));
            }
            let groups: BTreeMap<Relation, Relation> = answers
                .into_iter()
                .map(|(key, mut members)| {
                    let rest = members.split_off(1);
                    let first = members.pop().expect("a group has a member");
                    let merged = match quant {
                        _ if rest.is_empty() => Ok(first),
                        Quant::Possible => first.union_all(&rest),
                        Quant::Certain => rest.iter().try_fold(first, |acc, r| acc.intersect(r)),
                    }
                    .map_err(rel_err)?;
                    Ok((key, merged))
                })
                .collect::<Result<_>>()?;
            let worlds: Vec<World> = entries
                .into_iter()
                .map(|(w, key)| replace_rel(w, acc_idx, groups[&key].clone()))
                .collect();
            cur = WorldSet::from_worlds(cur.rel_names().to_vec(), worlds).map_err(rel_err)?;
        }
    }

    // Strip temporaries: keep base relations plus the answer (renamed).
    let mut keep: Vec<usize> = (0..base_count).collect();
    keep.push(acc_idx);
    let kept = cur.keep_rels(&keep);
    let mut names: Vec<String> = kept.rel_names().to_vec();
    *names.last_mut().expect("answer present") = out_name.to_string();
    Ok(kept.with_rel_names(names))
}

fn replace_rel(w: &World, idx: usize, rel: Relation) -> World {
    // Every relation except the replaced one is shared with the old world.
    w.replace_rel(idx, rel)
}

/// Add one from-item to the working product.
fn add_from_item(item: &FromItem, cur: &WorldSet, acc_name: &str) -> Result<WorldSet> {
    let acc_idx = cur.index_of(acc_name).expect("working relation present");
    match item {
        FromItem::Table { name, alias } => {
            let idx = cur
                .index_of(name)
                .ok_or_else(|| SqlError(format!("unknown relation {name}")))?;
            let alias = alias.clone().unwrap_or_else(|| name.clone());
            cur.map_worlds(|w| {
                let qualified = qualify(w.rel(idx), &alias)?;
                let acc = w.rel(acc_idx);
                Ok(replace_rel(
                    w,
                    acc_idx,
                    acc.product(&qualified).map_err(rel_err)?,
                ))
            })
        }
        FromItem::Subquery { query, alias } => {
            // Evaluate the subquery at world-set level (it may split
            // worlds), then fold its answer into the product.
            let sub_name = fresh(cur, "#sub");
            let sub = eval_select_ws(query, cur, &sub_name)?;
            let sub_idx = sub.index_of(&sub_name).expect("just added");
            let acc_idx = sub.index_of(acc_name).expect("still present");
            let folded = sub.map_worlds(|w| {
                let qualified = qualify(w.rel(sub_idx), alias)?;
                let acc = w.rel(acc_idx);
                Ok(replace_rel(
                    w,
                    acc_idx,
                    acc.product(&qualified).map_err(rel_err)?,
                ))
            })?;
            // Drop the subquery answer again.
            let keep: Vec<usize> = (0..folded.rel_names().len())
                .filter(|&i| i != sub_idx)
                .collect();
            Ok(folded.keep_rels(&keep))
        }
    }
}

/// The column name with any `alias.` qualifier stripped.
fn bare_name(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

/// Rename all columns of `rel` to `alias.column` (stripping any previous
/// qualifier). [`qualified_schema`] must mirror this renaming exactly.
fn qualify(rel: &Relation, alias: &str) -> Result<Relation> {
    let list: Vec<(Attr, Attr)> = rel
        .schema()
        .attrs()
        .iter()
        .map(|a| {
            (
                a.clone(),
                Attr::new(&format!("{alias}.{}", bare_name(a.name()))),
            )
        })
        .collect();
    rel.project_as(&list).map_err(rel_err)
}

/// Resolve a column reference against a schema of qualified names: the
/// position of the one attribute it names. This is the only resolution
/// rule; the row loops apply it once, when they bind their expressions.
fn resolve_col(col: &ColRef, schema: &Schema) -> Result<usize> {
    let names = |name: &str| match &col.qualifier {
        Some(q) => {
            name.strip_prefix(q.as_str())
                .and_then(|r| r.strip_prefix('.'))
                == Some(&col.name)
        }
        None => {
            name == col.name
                || name
                    .rsplit_once('.')
                    .is_some_and(|(_, bare)| bare == col.name)
        }
    };
    let mut matches = schema
        .attrs()
        .iter()
        .enumerate()
        .filter(|(_, a)| names(a.name()));
    match (matches.next(), matches.next()) {
        (Some((i, _)), None) => Ok(i),
        (None, _) => Err(SqlError(format!("unknown column {col} in {schema}"))),
        (Some(_), Some(_)) => Err(SqlError(format!("ambiguous column {col} in {schema}"))),
    }
}

fn resolve_cols(cols: &[ColRef], schema: &Schema) -> Result<Vec<Attr>> {
    cols.iter()
        .map(|c| Ok(schema.attrs()[resolve_col(c, schema)?].clone()))
        .collect()
}

// ---- selection pushdown into the from-product ----

/// A plan for evaluating the from-product with simple `where` comparisons
/// pushed into it: per from-item a selection predicate (applies to that
/// item alone) and a join predicate (links the item to the accumulated
/// product — `theta_join` extracts its equi-conjuncts into a hash join),
/// plus the residual conjuncts left for row-wise evaluation (borrowed from
/// the statement, so the subqueries in them keep their node identity).
struct PushdownPlan<'q> {
    per_item: Vec<(relalg::Pred, relalg::Pred)>,
    residual: Vec<&'q Cond>,
}

/// Attempt a pushdown plan for `stmt`'s where-condition.
///
/// Conservative on purpose: only `from` lists made entirely of base tables
/// qualify (subquery schemas are unknown before evaluation), and only
/// conjuncts comparing columns/literals are pushed. Columns are resolved
/// against the *full* product schema, so binding and ambiguity behave
/// exactly as the row-wise evaluator would. `schema_of` supplies the
/// qualified schema of a named table (`None` aborts planning).
///
/// `bail_on_unresolved` controls what a simple comparison with an
/// unresolvable column does: at the world-set level (no outer scopes) it is
/// a guaranteed row-wise error, so planning aborts to preserve it; in the
/// per-world evaluator the column may be correlated to an outer scope, so
/// the conjunct just stays in the residual.
fn plan_pushdown<'q>(
    stmt: &'q SelectStmt,
    bail_on_unresolved: bool,
    schema_of: impl Fn(&str, &str) -> Option<Schema>,
) -> Option<PushdownPlan<'q>> {
    let where_cond = stmt.where_cond.as_ref()?;
    let mut item_schemas: Vec<Schema> = Vec::with_capacity(stmt.from.len());
    for item in &stmt.from {
        let FromItem::Table { name, alias } = item else {
            return None;
        };
        let alias = alias.as_deref().unwrap_or(name);
        item_schemas.push(schema_of(name, alias)?);
    }
    // The full product schema; duplicate qualified names (same alias twice)
    // abort planning — the product itself will report the conflict.
    let full = Schema::try_new(
        item_schemas
            .iter()
            .flat_map(|s| s.attrs().iter().cloned())
            .collect(),
    )?;

    let mut per_item = vec![(relalg::Pred::True, relalg::Pred::True); stmt.from.len()];
    let mut residual = Vec::new();
    for c in where_cond.conjuncts() {
        match conjunct_to_pred(c, &full) {
            None => {
                if bail_on_unresolved && cond_mentions_unresolvable_col(c, &full) {
                    // The residual conjunct names a column the product does
                    // not have. Without outer scopes that is an error the
                    // row-wise evaluator would raise on any surviving row —
                    // abort planning so pushed filters cannot empty the
                    // product first and silently swallow it.
                    return None;
                }
                residual.push(c);
            }
            Some((pred, attrs)) => {
                // The item owning each referenced column; the conjunct fires
                // at the latest such item.
                let owners: Vec<usize> = attrs
                    .iter()
                    .map(|a| {
                        item_schemas
                            .iter()
                            .position(|s| s.contains(a))
                            .expect("resolved in the concatenated schema")
                    })
                    .collect();
                let at = *owners.iter().max().expect("at least one column");
                let single_item = owners.iter().all(|&o| o == at);
                let slot = if single_item {
                    &mut per_item[at].0
                } else {
                    &mut per_item[at].1
                };
                *slot = std::mem::replace(slot, relalg::Pred::True).and(pred);
            }
        }
    }
    Some(PushdownPlan { per_item, residual })
}

/// Re-assemble conjuncts into one condition (`None` when all were pushed).
fn conjoin(conds: &[&Cond]) -> Option<Cond> {
    conds
        .iter()
        .map(|c| (*c).clone())
        .reduce(|a, b| Cond::And(Box::new(a), Box::new(b)))
}

/// Express a conjunct as a relalg predicate over the full product schema,
/// returning the referenced attributes. Only column/literal comparisons
/// qualify; anything else stays in the residual (subject to the
/// unresolvable-column bail in [`plan_pushdown`]).
fn conjunct_to_pred(c: &Cond, full: &Schema) -> Option<(relalg::Pred, Vec<Attr>)> {
    let Cond::Cmp(l, op, r) = c else {
        return None;
    };
    let mut attrs = Vec::new();
    let lo = scalar_to_operand(l, full, &mut attrs)?;
    let ro = scalar_to_operand(r, full, &mut attrs)?;
    if attrs.is_empty() {
        // Literal-to-literal comparison: nothing to push it onto.
        return None;
    }
    Some((relalg::Pred::Cmp(lo, *op, ro), attrs))
}

/// Whether a residual condition mentions a column that cannot resolve
/// (unknown or ambiguous) against the product schema. Comparison operands,
/// arithmetic and `in`-probe expressions are walked, since the row-wise
/// evaluator resolves those against the product row. Subquery *bodies* are
/// skipped: their columns resolve against the subquery's own from-tables
/// plus outer scopes (correlation), which cannot be decided statically
/// here — so an unknown column inside a subquery body surfaces only when
/// the residual actually evaluates, exactly as the pre-pushdown engine
/// only surfaced it when `and` short-circuiting happened to reach it.
fn cond_mentions_unresolvable_col(c: &Cond, full: &Schema) -> bool {
    let scalar = |s: &Scalar| scalar_mentions_unresolvable_col(s, full);
    match c {
        Cond::Cmp(l, _, r) => scalar(l) || scalar(r),
        Cond::In { expr, .. } => scalar(expr),
        Cond::Exists(_) => false,
        Cond::And(a, b) | Cond::Or(a, b) => {
            cond_mentions_unresolvable_col(a, full) || cond_mentions_unresolvable_col(b, full)
        }
        Cond::Not(a) => cond_mentions_unresolvable_col(a, full),
    }
}

fn scalar_mentions_unresolvable_col(s: &Scalar, full: &Schema) -> bool {
    match s {
        Scalar::Col(c) => resolve_col(c, full).is_err(),
        Scalar::Arith(_, a, b) => {
            scalar_mentions_unresolvable_col(a, full) || scalar_mentions_unresolvable_col(b, full)
        }
        Scalar::Agg(_, inner) => scalar_mentions_unresolvable_col(inner, full),
        Scalar::Lit(_) | Scalar::CountStar | Scalar::Subquery(_) => false,
    }
}

fn scalar_to_operand(s: &Scalar, full: &Schema, attrs: &mut Vec<Attr>) -> Option<relalg::Operand> {
    match s {
        Scalar::Col(c) => {
            let a = full.attrs()[resolve_col(c, full).ok()?].clone();
            attrs.push(a.clone());
            Some(relalg::Operand::Attr(a))
        }
        Scalar::Lit(Literal::Int(i)) => Some(relalg::Operand::Const(Value::Int(*i))),
        Scalar::Lit(Literal::Str(t)) => Some(relalg::Operand::Const(Value::str(t))),
        _ => None,
    }
}

/// The schema of `qualify(rel, alias)` without materializing the relation:
/// every column renamed via the same [`bare_name`] rule. `None` on a
/// (pathological) name collision.
fn qualified_schema(schema: &Schema, alias: &str) -> Option<Schema> {
    Schema::try_new(
        schema
            .attrs()
            .iter()
            .map(|a| Attr::new(&format!("{alias}.{}", bare_name(a.name()))))
            .collect(),
    )
}

/// Hoist where-subqueries that use world constructs: evaluate each as a
/// world-set operation materializing a relation `#h{i}`, and rewrite the
/// condition to reference it. Such subqueries must be uncorrelated.
fn hoist_world_subqueries(
    cond: Cond,
    mut cur: WorldSet,
    hoisted: &mut Vec<String>,
) -> Result<(Cond, WorldSet)> {
    let rewritten = match cond {
        Cond::In {
            expr,
            query,
            negated,
        } if query.uses_world_constructs() => {
            let name = fresh(&cur, &format!("#h{}", hoisted.len()));
            cur = eval_select_ws(&query, &cur, &name)?;
            hoisted.push(name.clone());
            Cond::In {
                expr,
                query: Box::new(materialized_ref(&name)),
                negated,
            }
        }
        Cond::Exists(query) if query.uses_world_constructs() => {
            let name = fresh(&cur, &format!("#h{}", hoisted.len()));
            cur = eval_select_ws(&query, &cur, &name)?;
            hoisted.push(name.clone());
            Cond::Exists(Box::new(materialized_ref(&name)))
        }
        Cond::And(a, b) => {
            let (a2, cur2) = hoist_world_subqueries(*a, cur, hoisted)?;
            let (b2, cur3) = hoist_world_subqueries(*b, cur2, hoisted)?;
            cur = cur3;
            Cond::And(Box::new(a2), Box::new(b2))
        }
        Cond::Or(a, b) => {
            let (a2, cur2) = hoist_world_subqueries(*a, cur, hoisted)?;
            let (b2, cur3) = hoist_world_subqueries(*b, cur2, hoisted)?;
            cur = cur3;
            Cond::Or(Box::new(a2), Box::new(b2))
        }
        Cond::Not(a) => {
            let (a2, cur2) = hoist_world_subqueries(*a, cur, hoisted)?;
            cur = cur2;
            Cond::Not(Box::new(a2))
        }
        other => other,
    };
    Ok((rewritten, cur))
}

/// A `select * from #hN` reference to a hoisted subquery result.
fn materialized_ref(name: &str) -> SelectStmt {
    SelectStmt {
        quant: None,
        items: vec![SelectItem::Star],
        from: vec![FromItem::Table {
            name: name.to_string(),
            alias: Some(name.to_string()),
        }],
        where_cond: None,
        group_by: vec![],
        choice_of: vec![],
        repair_by_key: vec![],
        group_worlds_by: None,
    }
}

// ---- per-world evaluation ----

/// Per-world evaluation state: the scope stack that correlated subqueries
/// resolve outer columns against, and the answers of the subqueries that
/// turned out not to be correlated.
///
/// The stack has one level per enclosing row loop, innermost last. A loop
/// enters its level once ([`Scopes::in_level`]) and binds its expressions
/// against the level schemas before its first row ([`bind_scalar`],
/// [`bind_cond`]); the loop's current row is handed to the bound form
/// directly and sits on the stack only while a subquery or an aggregate
/// evaluates for it.
///
/// A subquery's answer is a function of the world and of the outer rows it
/// reads. Evaluating a bound column records the lowest level it read; a
/// subquery during whose evaluation nothing — at any nesting depth — read
/// below its own base depth read no outer row, so its answer holds for
/// every later row of the same world and is kept under the subquery's node
/// address. `'q` ties that address to the statement: every subquery
/// evaluated against a `Scopes` outlives it.
///
/// One `Scopes` serves one world.
struct Scopes<'q> {
    /// One schema per level.
    schemas: Vec<Schema>,
    /// The current row of every level below the innermost loop's.
    rows: RowStack,
    memo: Vec<(&'q SelectStmt, Arc<Relation>)>,
    lowest: usize,
}

impl<'q> Scopes<'q> {
    fn new() -> Self {
        Scopes {
            schemas: Vec::new(),
            rows: RowStack::default(),
            memo: Vec::new(),
            lowest: usize::MAX,
        }
    }

    /// Run the row loop `f` over rows of `schema` as the innermost level.
    fn in_level<T>(
        &mut self,
        schema: &Schema,
        f: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        self.schemas.push(schema.clone());
        let out = f(self);
        self.schemas.pop();
        out
    }
}

/// A stack of rows stored flat: one value vector and where each row
/// starts. A row pushed for a subquery or an aggregate reuses the memory
/// of the rows popped before it, so a row loop allocates nothing per row.
#[derive(Default)]
struct RowStack {
    values: Vec<Value>,
    starts: Vec<usize>,
}

impl RowStack {
    fn push(&mut self, row: &[Value]) {
        self.starts.push(self.values.len());
        self.values.extend_from_slice(row);
    }

    fn pop(&mut self) {
        let start = self.starts.pop().expect("a row was pushed");
        self.values.truncate(start);
    }

    /// The row at stack level `depth`.
    fn get(&self, depth: usize) -> Option<&[Value]> {
        let start = *self.starts.get(depth)?;
        let end = self
            .starts
            .get(depth + 1)
            .copied()
            .unwrap_or(self.values.len());
        Some(&self.values[start..end])
    }

    fn len(&self) -> usize {
        self.starts.len()
    }
}

/// Evaluate the subquery `q` for the current outer rows (`row` is the
/// innermost loop's, when a row loop asks), once per world when it reads
/// none of them (see [`Scopes`]).
fn eval_subquery<'q>(
    q: &'q SelectStmt,
    world: &World,
    names: &[String],
    scopes: &mut Scopes<'q>,
    row: Option<&[Value]>,
) -> Result<Arc<Relation>> {
    if let Some((_, hit)) = scopes.memo.iter().find(|(k, _)| std::ptr::eq(*k, q)) {
        return Ok(hit.clone());
    }
    if let Some(row) = row {
        scopes.rows.push(row);
    }
    let base = scopes.rows.len();
    let enclosing = std::mem::replace(&mut scopes.lowest, usize::MAX);
    let rel = eval_select_local(q, world, names, scopes).map(Arc::new);
    if row.is_some() {
        scopes.rows.pop();
    }
    let rel = rel?;
    if scopes.lowest >= base {
        scopes.memo.push((q, rel.clone()));
    }
    // What this subquery read of outer rows, its enclosing query read too.
    scopes.lowest = scopes.lowest.min(enclosing);
    Ok(rel)
}

/// Evaluate a world-construct-free select statement inside one world, with
/// outer-row bindings available for correlation.
fn eval_select_local<'q>(
    stmt: &'q SelectStmt,
    world: &World,
    names: &[String],
    scopes: &mut Scopes<'q>,
) -> Result<Relation> {
    if stmt.quant.is_some()
        || !stmt.choice_of.is_empty()
        || !stmt.repair_by_key.is_empty()
        || stmt.group_worlds_by.is_some()
    {
        return Err(SqlError(
            "subquery in this position must not use world constructs".into(),
        ));
    }
    // Push simple where-comparisons into the from-product where possible
    // (table-only from lists; unresolvable conjuncts — e.g. correlated
    // references to outer scopes — stay in the residual).
    let plan = plan_pushdown(stmt, false, |name, alias| {
        let idx = names.iter().position(|n| n == name)?;
        qualified_schema(world.rel(idx).schema(), alias)
    });

    // From-product (table relations are borrowed, not cloned).
    let mut acc = Relation::unit();
    for (k, item) in stmt.from.iter().enumerate() {
        let qualified = match item {
            FromItem::Table { name, alias } => {
                let idx = names
                    .iter()
                    .position(|n| n == name)
                    .ok_or_else(|| SqlError(format!("unknown relation {name}")))?;
                let alias = alias.as_deref().unwrap_or(name);
                qualify(world.rel(idx), alias)?
            }
            FromItem::Subquery { query, alias } => qualify(
                eval_subquery(query, world, names, scopes, None)?.as_ref(),
                alias,
            )?,
        };
        match plan.as_ref().map(|p| &p.per_item[k]) {
            Some((sel, join)) => {
                let filtered = if *sel != relalg::Pred::True {
                    qualified.select(sel).map_err(rel_err)?
                } else {
                    qualified
                };
                acc = if *join != relalg::Pred::True {
                    acc.theta_join(&filtered, join)
                } else {
                    acc.product(&filtered)
                }
                .map_err(rel_err)?;
            }
            None => acc = acc.product(&qualified).map_err(rel_err)?,
        }
    }
    // Where (minus pushed conjuncts).
    let residual = match plan {
        Some(p) => p.residual,
        None => stmt.where_cond.iter().collect(),
    };
    if !residual.is_empty() {
        acc = filter_rows(&acc, &residual, true, world, names, scopes)?;
    }
    project_rows(stmt, &acc, world, names, scopes)
}

/// The rows of `rel` on which the conjunction of `conds` evaluates to
/// `holds`, each row in turn being the innermost scope.
fn filter_rows<'q>(
    rel: &Relation,
    conds: &[&'q Cond],
    holds: bool,
    world: &World,
    names: &[String],
    scopes: &mut Scopes<'q>,
) -> Result<Relation> {
    let keep = scopes.in_level(rel.schema(), |scopes| {
        let mut bound: Vec<BCond<'q>> = conds
            .iter()
            .map(|&c| bind_cond(c, &scopes.schemas))
            .collect();
        let mut keep = Vec::new();
        'rows: for row in rel.iter() {
            for cond in &mut bound {
                if !cond.eval(row, world, names, scopes)? {
                    if !holds {
                        keep.push(row);
                    }
                    continue 'rows;
                }
            }
            if holds {
                keep.push(row);
            }
        }
        Ok(keep)
    })?;
    // A subsequence of a sorted, deduplicated relation is one too.
    Relation::from_sorted_rows(rel.schema().clone(), keep).map_err(rel_err)
}

/// Final projection of a select statement over the filtered product `acc`,
/// including SQL grouping and aggregation.
fn project_world(
    stmt: &SelectStmt,
    world: &World,
    names: &[String],
    acc_idx: usize,
) -> Result<Relation> {
    project_rows(stmt, world.rel(acc_idx), world, names, &mut Scopes::new())
}

fn has_aggregates(items: &[SelectItem]) -> bool {
    items.iter().any(|i| match i {
        SelectItem::Star => false,
        SelectItem::Expr { expr, .. } => scalar_has_agg(expr),
    })
}

fn scalar_has_agg(s: &Scalar) -> bool {
    match s {
        Scalar::Agg(_, _) | Scalar::CountStar => true,
        Scalar::Arith(_, a, b) => scalar_has_agg(a) || scalar_has_agg(b),
        _ => false,
    }
}

fn output_name(item: &SelectItem, i: usize) -> String {
    match item {
        SelectItem::Star => unreachable!("star expanded separately"),
        SelectItem::Expr { alias: Some(a), .. } => a.clone(),
        SelectItem::Expr {
            expr: Scalar::Col(c),
            ..
        } => c.name.clone(),
        SelectItem::Expr { .. } => format!("expr{i}"),
    }
}

fn project_rows<'q>(
    stmt: &'q SelectStmt,
    acc: &Relation,
    world: &World,
    names: &[String],
    scopes: &mut Scopes<'q>,
) -> Result<Relation> {
    // `select *`: strip qualifiers where unambiguous.
    if stmt.items.len() == 1 && matches!(stmt.items[0], SelectItem::Star) {
        if !stmt.group_by.is_empty() {
            return Err(SqlError("select * cannot be combined with group by".into()));
        }
        let attrs = acc.schema().attrs();
        let mut out_names: Vec<String> = Vec::with_capacity(attrs.len());
        for a in attrs {
            let bare = bare_name(a.name()).to_string();
            let ambiguous = attrs.iter().filter(|b| bare_name(b.name()) == bare).count() > 1;
            out_names.push(if ambiguous {
                a.name().to_string()
            } else {
                bare
            });
        }
        let list: Vec<(Attr, Attr)> = attrs
            .iter()
            .zip(&out_names)
            .map(|(a, n)| (a.clone(), Attr::new(n)))
            .collect();
        return acc.project_as(&list).map_err(rel_err);
    }

    let aggregating = has_aggregates(&stmt.items) || !stmt.group_by.is_empty();
    let out_schema = Schema::try_new(
        stmt.items
            .iter()
            .enumerate()
            .map(|(i, item)| Attr::new(&output_name(item, i)))
            .collect(),
    )
    .ok_or_else(|| SqlError("duplicate output column name".into()))?;
    // Per select item its bound expression; `None` for a `*` beside other
    // items, an error once a row reaches it.
    let bind_items = |levels: &[Schema]| -> Vec<Option<BScalar<'q>>> {
        stmt.items
            .iter()
            .map(|item| match item {
                SelectItem::Star => None,
                SelectItem::Expr { expr, .. } => Some(bind_scalar(expr, levels, false)),
            })
            .collect()
    };

    if !aggregating {
        return scopes.in_level(acc.schema(), |scopes| {
            let top = scopes.schemas.len() - 1;
            let items = bind_items(&scopes.schemas);
            // Only columns of the row itself: the select list is a
            // projection, which the storage layer runs without a row loop.
            let columns: Option<Vec<(Attr, Attr)>> = items
                .iter()
                .zip(out_schema.attrs())
                .map(|(item, out)| match item {
                    Some(BScalar::Col { depth, idx }) if *depth == top => {
                        Some((acc.schema().attrs()[*idx].clone(), out.clone()))
                    }
                    _ => None,
                })
                .collect();
            if let Some(list) = columns {
                return acc.project_as(&list).map_err(rel_err);
            }
            let mut rows = RelationBuilder::with_capacity(out_schema, acc.len());
            let mut out = Vec::with_capacity(items.len());
            for row in acc.iter() {
                out.clear();
                for item in &items {
                    out.push(match item {
                        Some(e) => e.eval(row, world, names, scopes, None)?,
                        None => return Err(SqlError("* must be the only select item".into())),
                    });
                }
                rows.push(&out);
            }
            Ok(rows.finish())
        });
    }

    // Aggregation: group rows by the group-by columns.
    let idx: Vec<usize> = stmt
        .group_by
        .iter()
        .map(|c| resolve_col(c, acc.schema()))
        .collect::<Result<_>>()?;
    let mut groups: BTreeMap<Tuple, Vec<&[Value]>> = BTreeMap::new();
    for row in acc.iter() {
        let key: Tuple = idx.iter().map(|&i| row[i]).collect();
        groups.entry(key).or_default().push(row);
    }
    // SQL convention: an ungrouped aggregate over an empty input produces
    // one row (sum = 0, count = 0) — needed by scalar subqueries.
    if groups.is_empty() && idx.is_empty() {
        groups.insert(Tuple::new(), vec![]);
    }
    let pad = Tuple::filled(Value::Pad, acc.schema().arity());
    scopes.in_level(acc.schema(), |scopes| {
        let items = bind_items(&scopes.schemas);
        let mut rows = RelationBuilder::with_capacity(out_schema, groups.len());
        let mut out = Vec::with_capacity(items.len());
        for rows_in_group in groups.values() {
            // Plain columns read the group's first row.
            let first = rows_in_group.first().copied().unwrap_or(&pad[..]);
            out.clear();
            for item in &items {
                out.push(match item {
                    Some(e) => {
                        e.eval(first, world, names, scopes, Some(rows_in_group.as_slice()))?
                    }
                    None => return Err(SqlError("* cannot appear with aggregates".into())),
                });
            }
            rows.push(&out);
        }
        Ok(rows.finish())
    })
}

// ---- bound expressions ----

/// A [`Scalar`] bound to the scope stack of one row loop: columns are
/// `(depth, idx)` slots, string literals are interned values.
enum BScalar<'q> {
    Val(Value),
    /// Column `idx` of the row at stack level `depth`.
    Col {
        depth: usize,
        idx: usize,
    },
    /// A column no level resolves; evaluating it is an error.
    Unresolved(&'q ColRef),
    Arith(ArithOp, Box<BScalar<'q>>, Box<BScalar<'q>>),
    CountStar,
    /// An aggregate. Its argument is evaluated once per group row, that row
    /// one level above the group's first row, and is bound so.
    Agg(AggFn, Box<BScalar<'q>>),
    Subquery(&'q SelectStmt),
}

/// A [`Cond`] bound like [`BScalar`].
enum BCond<'q> {
    Cmp(BScalar<'q>, relalg::CmpOp, BScalar<'q>),
    In {
        expr: BScalar<'q>,
        /// The probe column, when the probe is one: its bare name names
        /// the probed column of a multi-column answer.
        probe_col: Option<&'q ColRef>,
        query: &'q SelectStmt,
        negated: bool,
        probe: Probe,
    },
    Exists(&'q SelectStmt),
    And(Box<BCond<'q>>, Box<BCond<'q>>),
    Or(Box<BCond<'q>>, Box<BCond<'q>>),
    Not(Box<BCond<'q>>),
}

/// The `IN` answer one bound condition probed last, with the column it
/// probes and — once the same answer is probed again (a memoized,
/// uncorrelated subquery) — a hash set of that column.
#[derive(Default)]
struct Probe {
    answer: Option<(Arc<Relation>, usize)>,
    set: Option<HashSet<Value>>,
}

/// Bind `s` against the level schemas `levels` (innermost last): a column
/// takes the innermost level that resolves it uniquely, an ambiguous match
/// falls through to the next outer level. `agg_arg` binds an aggregate's
/// argument, whose rows sit one level above the innermost; that level has
/// the innermost's schema, so it resolves exactly what the innermost does.
fn bind_scalar<'q>(s: &'q Scalar, levels: &[Schema], agg_arg: bool) -> BScalar<'q> {
    match s {
        Scalar::Lit(Literal::Int(i)) => BScalar::Val(Value::Int(*i)),
        Scalar::Lit(Literal::Str(t)) => BScalar::Val(Value::str(t)),
        Scalar::Col(c) => {
            let top = levels.len() - 1;
            levels
                .iter()
                .enumerate()
                .rev()
                .find_map(|(depth, schema)| {
                    let idx = resolve_col(c, schema).ok()?;
                    let depth = if agg_arg && depth == top {
                        top + 1
                    } else {
                        depth
                    };
                    Some(BScalar::Col { depth, idx })
                })
                .unwrap_or(BScalar::Unresolved(c))
        }
        Scalar::Arith(op, a, b) => BScalar::Arith(
            *op,
            Box::new(bind_scalar(a, levels, agg_arg)),
            Box::new(bind_scalar(b, levels, agg_arg)),
        ),
        Scalar::CountStar => BScalar::CountStar,
        Scalar::Agg(f, inner) => BScalar::Agg(*f, Box::new(bind_scalar(inner, levels, true))),
        Scalar::Subquery(q) => BScalar::Subquery(q),
    }
}

fn bind_cond<'q>(c: &'q Cond, levels: &[Schema]) -> BCond<'q> {
    let bind = |c: &'q Cond| Box::new(bind_cond(c, levels));
    match c {
        Cond::Cmp(l, op, r) => BCond::Cmp(
            bind_scalar(l, levels, false),
            *op,
            bind_scalar(r, levels, false),
        ),
        Cond::In {
            expr,
            query,
            negated,
        } => BCond::In {
            expr: bind_scalar(expr, levels, false),
            probe_col: match expr {
                Scalar::Col(c) => Some(c),
                _ => None,
            },
            query,
            negated: *negated,
            probe: Probe::default(),
        },
        Cond::Exists(query) => BCond::Exists(query),
        Cond::And(a, b) => BCond::And(bind(a), bind(b)),
        Cond::Or(a, b) => BCond::Or(bind(a), bind(b)),
        Cond::Not(a) => BCond::Not(bind(a)),
    }
}

impl<'q> BCond<'q> {
    /// Evaluate the condition for `row`, the innermost loop's current row.
    fn eval(
        &mut self,
        row: &[Value],
        world: &World,
        names: &[String],
        scopes: &mut Scopes<'q>,
    ) -> Result<bool> {
        match self {
            BCond::Cmp(l, op, r) => {
                let lv = l.eval(row, world, names, scopes, None)?;
                let rv = r.eval(row, world, names, scopes, None)?;
                Ok(op.apply(&lv, &rv))
            }
            BCond::In {
                expr,
                probe_col,
                query,
                negated,
                probe,
            } => {
                let v = expr.eval(row, world, names, scopes, None)?;
                let rel = eval_subquery(query, world, names, scopes, Some(row))?;
                Ok(probe.contains(rel, *probe_col, v)? != *negated)
            }
            BCond::Exists(query) => {
                let rel = eval_subquery(query, world, names, scopes, Some(row))?;
                Ok(!rel.is_empty())
            }
            BCond::And(a, b) => {
                Ok(a.eval(row, world, names, scopes)? && b.eval(row, world, names, scopes)?)
            }
            BCond::Or(a, b) => {
                Ok(a.eval(row, world, names, scopes)? || b.eval(row, world, names, scopes)?)
            }
            BCond::Not(a) => Ok(!a.eval(row, world, names, scopes)?),
        }
    }
}

impl Probe {
    /// Whether the probed column of the `IN` answer `rel` holds `v`.
    fn contains(
        &mut self,
        rel: Arc<Relation>,
        probe_col: Option<&ColRef>,
        v: Value,
    ) -> Result<bool> {
        if let Some((seen, col)) = &self.answer {
            if Arc::ptr_eq(seen, &rel) {
                let set = self
                    .set
                    .get_or_insert_with(|| seen.iter().map(|t| t[*col]).collect());
                return Ok(set.contains(&v));
            }
        }
        // Column selection: a one-column subquery probes that column; a
        // multi-column subquery (the paper writes `Quantity not in (select
        // * from Lineitem choice of Quantity)`) probes the column with the
        // probe expression's bare name: its qualifier names an outer table.
        let col = if rel.schema().arity() == 1 {
            0
        } else if let Some(c) = probe_col {
            resolve_col(&ColRef::new(&c.name), rel.schema())?
        } else {
            return Err(SqlError(
                "IN over a multi-column subquery requires a column probe".into(),
            ));
        };
        let found = rel.iter().any(|t| t[col] == v);
        *self = Probe {
            answer: Some((rel, col)),
            set: None,
        };
        Ok(found)
    }
}

impl<'q> BScalar<'q> {
    /// Evaluate the scalar for `row`, the innermost loop's current row.
    /// `group` supplies the group rows when evaluating aggregate functions.
    fn eval(
        &self,
        row: &[Value],
        world: &World,
        names: &[String],
        scopes: &mut Scopes<'q>,
        group: Option<&[&[Value]]>,
    ) -> Result<Value> {
        match self {
            BScalar::Val(v) => Ok(*v),
            BScalar::Col { depth, idx } => {
                scopes.lowest = scopes.lowest.min(*depth);
                Ok(match scopes.rows.get(*depth) {
                    Some(outer) => outer[*idx],
                    None => row[*idx],
                })
            }
            BScalar::Unresolved(c) => Err(SqlError(format!("unresolved column {c}"))),
            BScalar::Arith(op, a, b) => {
                let l = a.eval(row, world, names, scopes, group)?;
                let r = b.eval(row, world, names, scopes, group)?;
                let (Value::Int(x), Value::Int(y)) = (&l, &r) else {
                    return Err(SqlError(format!("arithmetic on non-integers {l} and {r}")));
                };
                let out = match op {
                    ArithOp::Add => x.checked_add(*y),
                    ArithOp::Sub => x.checked_sub(*y),
                    ArithOp::Mul => x.checked_mul(*y),
                    ArithOp::Div => {
                        if *y == 0 {
                            return Err(SqlError("division by zero".into()));
                        }
                        x.checked_div(*y)
                    }
                };
                out.map(Value::Int)
                    .ok_or_else(|| rel_err(relalg::RelalgError::Overflow))
            }
            BScalar::CountStar => {
                let rows =
                    group.ok_or_else(|| SqlError("count(*) outside aggregation context".into()))?;
                Ok(Value::Int(rows.len() as i64))
            }
            BScalar::Agg(f, inner) => {
                let rows = group
                    .ok_or_else(|| SqlError("aggregate outside aggregation context".into()))?;
                // The group rows form a level of the innermost's schema
                // above the group's first row.
                let schema = scopes.schemas.last().expect("inside a row loop").clone();
                scopes.rows.push(row);
                let vals = scopes.in_level(&schema, |scopes| {
                    rows.iter()
                        .map(|r| inner.eval(r, world, names, scopes, None))
                        .collect::<Result<Vec<Value>>>()
                });
                scopes.rows.pop();
                aggregate(*f, vals?)
            }
            BScalar::Subquery(q) => {
                let rel = eval_subquery(q, world, names, scopes, Some(row))?;
                if rel.schema().arity() != 1 {
                    return Err(SqlError("scalar subquery must produce one column".into()));
                }
                if rel.len() != 1 {
                    return Err(SqlError(format!(
                        "scalar subquery produced {} rows",
                        rel.len()
                    )));
                }
                let value = rel.iter().next().expect("one row")[0];
                Ok(value)
            }
        }
    }
}

/// Fold one group's argument values with an aggregate function, as `γ`
/// does.
fn aggregate(f: AggFn, vals: Vec<Value>) -> Result<Value> {
    let mut acc = relalg::Acc::new(f);
    vals.into_iter().for_each(|v| acc.push(v));
    acc.finish().map_err(rel_err)
}

// ---- DML (Session) ----

/// `delete` in one world: `rel` without the rows on which `cond` holds
/// (every row without a condition). Subqueries in `cond` see the world as
/// it was before the statement.
pub(crate) fn delete_rows(
    rel: &Relation,
    cond: Option<&Cond>,
    world: &World,
    names: &[String],
) -> Result<Relation> {
    let conds: Vec<&Cond> = cond.into_iter().collect();
    let matched = filter_rows(rel, &conds, true, world, names, &mut Scopes::new())?;
    rel.with_changes(matched.iter(), std::iter::empty::<&[Value]>())
        .map_err(rel_err)
}

/// `update` in one world: `rel` with the `sets` assignments applied to the
/// rows on which `cond` holds (every row without a condition). Only the
/// rows the assignments change are replaced.
pub(crate) fn update_rows(
    rel: &Relation,
    sets: &[(String, Scalar)],
    cond: Option<&Cond>,
    world: &World,
    names: &[String],
) -> Result<Relation> {
    let schema = rel.schema();
    let (removed, added) = Scopes::new().in_level(schema, |scopes| {
        let mut cond = cond.map(|c| bind_cond(c, &scopes.schemas));
        // An unknown target column is an error once a row matches.
        let sets: Vec<(Result<usize>, BScalar)> = sets
            .iter()
            .map(|(col, expr)| {
                (
                    resolve_col(&ColRef::new(col), schema),
                    bind_scalar(expr, &scopes.schemas, false),
                )
            })
            .collect();
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        for row in rel.iter() {
            let matches = match &mut cond {
                None => true,
                Some(c) => c.eval(row, world, names, scopes)?,
            };
            if !matches {
                continue;
            }
            let mut out = Tuple::from(row);
            for (target, expr) in &sets {
                let i = *target.as_ref().map_err(Clone::clone)?;
                out[i] = expr.eval(row, world, names, scopes, None)?;
            }
            if *out != *row {
                removed.push(row);
                added.push(out);
            }
        }
        Ok((removed, added))
    })?;
    rel.with_changes(removed, added).map_err(rel_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::Stmt;

    fn ws() -> WorldSet {
        WorldSet::single(vec![
            (
                "R",
                Relation::table(&["A", "B"], &[&["x", "1"], &["y", "2"], &["x", "3"]]),
            ),
            (
                "S",
                Relation::table(&["B", "C"], &[&["1", "c1"], &["2", "c2"]]),
            ),
        ])
    }

    fn run(sql: &str) -> WorldSet {
        let Stmt::Select(sel) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        eval_select_ws(&sel, &ws(), "Ans").unwrap()
    }

    fn answer(sql: &str) -> Relation {
        let out = run(sql);
        assert_eq!(out.len(), 1, "expected single world for {sql}");
        let ans = out.iter().next().unwrap().last().clone();
        ans
    }

    #[test]
    fn star_strips_qualifiers() {
        let a = answer("select * from R;");
        assert_eq!(a.schema(), &Schema::of(&["A", "B"]));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn star_keeps_qualified_on_collision() {
        let a = answer("select * from R R1, R R2 where R1.A = R2.A;");
        assert!(a.schema().attrs().iter().any(|x| x.name() == "R1.A"));
    }

    #[test]
    fn join_two_tables() {
        let a = answer("select A, C from R, S where R.B = S.B;");
        assert_eq!(a.len(), 2);
        assert_eq!(a.schema(), &Schema::of(&["A", "C"]));
    }

    #[test]
    fn where_with_in_subquery() {
        let a = answer("select A from R where B in (select B from S);");
        assert_eq!(a.len(), 2); // x(1), y(2)
    }

    #[test]
    fn correlated_exists() {
        let a = answer("select A from R where exists (select * from S where S.B = R.B);");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn correlated_scalar_subquery() {
        let a = answer("select A from R where (select count(*) from S where S.B = R.B) = 1;");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn aggregation_group_by() {
        let a = answer("select A, count(*) as N from R group by A;");
        assert_eq!(a.len(), 2);
        assert!(a.contains(&[Value::str("x"), Value::Int(2)]));
        assert!(a.contains(&[Value::str("y"), Value::Int(1)]));
    }

    #[test]
    fn aggregates_over_empty_input() {
        let a = answer("select count(*) as N from R where A = 'zzz';");
        assert_eq!(a.len(), 1);
        assert!(a.contains(&[Value::Int(0)]));
        let a = answer("select sum(B) as S from S where C = 'zzz';");
        assert!(a.contains(&[Value::Int(0)]));
    }

    #[test]
    fn min_max_avg() {
        let mut s = crate::Session::new();
        s.register("N", Relation::table(&["V"], &[&[10i64], &[20], &[30]]))
            .unwrap();
        let out = s
            .execute("select min(V) as Lo, max(V) as Hi, avg(V) as Mid from N;")
            .unwrap();
        let crate::ExecOutcome::Rows { answers, .. } = &out[0] else {
            panic!()
        };
        assert!(answers[0].contains(&[Value::Int(10), Value::Int(30), Value::Int(20)]));
    }

    #[test]
    fn choice_of_splits_then_certain_closes() {
        let out = run("select certain B from R choice of A;");
        // Worlds: A=x → B∈{1,3}; A=y → B∈{2}; certain = ∅.
        for w in out.iter() {
            assert!(w.last().is_empty());
        }
    }

    #[test]
    fn hoisted_choice_subquery_in_where() {
        // `B not in (select * from S choice of B)` splits into one world
        // per S.B value; in each world the rows with that B are excluded.
        let out = run("select A, B from R where B not in (select * from S choice of B);");
        assert_eq!(out.len(), 2);
        for w in out.iter() {
            assert_eq!(w.last().len(), 2); // 3 rows minus the excluded B
        }
    }

    #[test]
    fn ambiguous_column_rejected() {
        let Stmt::Select(sel) = parse_statement("select A from R R1, R R2;").unwrap() else {
            panic!()
        };
        assert!(eval_select_ws(&sel, &ws(), "Ans").is_err());
    }

    #[test]
    fn pushdown_preserves_unknown_column_errors() {
        // `A = 'zzz'` is pushable and empties the product; the unknown
        // column in the first conjunct must still be reported exactly as
        // the row-wise evaluator (which sees it before `and`
        // short-circuits) would — planning bails instead of silently
        // returning an empty answer.
        let Stmt::Select(sel) =
            parse_statement("select A from R where Bogus = 1 and A = 'zzz';").unwrap()
        else {
            panic!()
        };
        assert!(eval_select_ws(&sel, &ws(), "Ans").is_err());
        // Same for an ambiguous bare column alongside a pushable filter.
        let Stmt::Select(sel) =
            parse_statement("select R1.A from R R1, R R2 where A = 'x' and R1.A = 'zzz';").unwrap()
        else {
            panic!()
        };
        assert!(eval_select_ws(&sel, &ws(), "Ans").is_err());
        // Unknown columns nested in arithmetic or inside or/not trees must
        // also keep planning honest.
        for sql in [
            "select A from R where Bogus + 1 = 1 and A = 'zzz';",
            "select A from R where (Bogus = 1 or A = 'x') and A = 'zzz';",
            "select A from R where Bogus in (select B from S) and A = 'zzz';",
        ] {
            let Stmt::Select(sel) = parse_statement(sql).unwrap() else {
                panic!()
            };
            assert!(eval_select_ws(&sel, &ws(), "Ans").is_err(), "{sql}");
        }
    }

    #[test]
    fn pushdown_matches_unpushed_semantics() {
        // Join + single-table filter: the pushed plan must agree with the
        // textbook filter-after-product result.
        let a = answer("select A, C from R, S where R.B = S.B and A = 'x';");
        assert_eq!(a.len(), 1);
        assert!(a.contains(&[Value::str("x"), Value::str("c1")]));
        // Constant on the left and a non-equality comparison also push.
        let a = answer("select A from R where 'x' = A and B < '3';");
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn unknown_relation_rejected() {
        let Stmt::Select(sel) = parse_statement("select * from Nope;").unwrap() else {
            panic!()
        };
        assert!(eval_select_ws(&sel, &ws(), "Ans").is_err());
    }

    #[test]
    fn arithmetic_in_select() {
        let mut s = crate::Session::new();
        s.register("N", Relation::table(&["V"], &[&[10i64]]))
            .unwrap();
        let out = s
            .execute("select V + 5 as Up, V * 2 as Double, V - 1 as Down, V / 2 as Half from N;")
            .unwrap();
        let crate::ExecOutcome::Rows { answers, .. } = &out[0] else {
            panic!()
        };
        assert!(answers[0].contains(&[
            Value::Int(15),
            Value::Int(20),
            Value::Int(9),
            Value::Int(5)
        ]));
    }

    #[test]
    fn division_by_zero_reported() {
        let mut s = crate::Session::new();
        s.register("N", Relation::table(&["V"], &[&[10i64]]))
            .unwrap();
        assert!(s.execute("select V / 0 as Bad from N;").is_err());
    }

    #[test]
    fn fresh_names_for_nested_evaluations() {
        // Nested from-subqueries each get their own working relation.
        let a = answer("select A from (select * from (select * from R) Inner2) Outer1;");
        assert_eq!(a.len(), 2); // x, y after projection dedup
    }

    // ---- the per-world subquery memo ----

    /// Filter `R` by the where-condition of `sql` (a select over `R`) in
    /// the one world of [`ws`], the way the world-set `where` does, and
    /// return the surviving rows with the number of answers the world's
    /// `Scopes` kept.
    fn filter_r(sql: &str) -> (Relation, usize) {
        let Stmt::Select(sel) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        let db = ws();
        let w = db.iter().next().unwrap();
        let r = qualify(w.rel(0), "R").unwrap();
        let mut scopes = Scopes::new();
        let cond = sel.where_cond.as_ref().unwrap();
        let kept = filter_rows(&r, &[cond], true, w, db.rel_names(), &mut scopes).unwrap();
        assert!(scopes.schemas.is_empty() && scopes.rows.get(0).is_none());
        (kept, scopes.memo.len())
    }

    #[test]
    fn outer_reference_two_levels_down_blocks_the_middle_memo() {
        // Only the innermost subquery names `R`; the middle one must not
        // keep the answer it had for the first row of `R`.
        let sql = "select A, B from R where exists \
                   (select * from S where exists (select * from S S2 where S2.B = R.B));";
        let (kept, memoized) = filter_r(sql);
        assert_eq!(memoized, 0);
        assert_eq!(kept.len(), 2);
        let a = answer(sql);
        assert_eq!(a.len(), 2); // (x, 1) and (y, 2); S has no B = 3
        assert!(!a.contains(&[Value::str("x"), Value::str("3")]));
    }

    #[test]
    fn one_memo_entry_per_uncorrelated_subquery_and_world() {
        let (kept, memoized) = filter_r("select A from R where B in (select B from S);");
        assert_eq!((kept.len(), memoized), (2, 1));
        let (kept, memoized) =
            filter_r("select A from R where exists (select * from S where S.B = R.B);");
        assert_eq!((kept.len(), memoized), (2, 0));
        // An uncorrelated subquery nested in a correlated one is kept; the
        // correlated one around it is not.
        let (kept, memoized) = filter_r(
            "select A from R where exists \
             (select * from S where S.B = R.B and S.C in (select C from S S2));",
        );
        assert_eq!((kept.len(), memoized), (2, 1));
    }

    /// `R` after `dml` ran in a session over [`ws`], and `R` as computed
    /// row by row: each row alone, with a fresh `Scopes` (no memo, one
    /// binding) per row, its subqueries still reading the whole world.
    fn dml_vs_row_by_row(dml: &str) -> (Relation, Relation) {
        let mut s = crate::Session::with_world_set(ws());
        s.execute(dml).unwrap();
        let got = s.answers("R").unwrap().remove(0);

        let db = ws();
        let w = db.iter().next().unwrap();
        let names = db.rel_names();
        let r = w.rel(0);
        let stmt = parse_statement(dml).unwrap();
        let mut rows = Vec::new();
        for row in r.iter() {
            let one = Relation::from_rows(r.schema().clone(), [row]).unwrap();
            let out = match &stmt {
                Stmt::Delete { cond, .. } => delete_rows(&one, cond.as_ref(), w, names),
                Stmt::Update { sets, cond, .. } => update_rows(&one, sets, cond.as_ref(), w, names),
                _ => panic!("not a delete or update"),
            };
            rows.extend(out.unwrap().iter().cloned());
        }
        (got, Relation::from_rows(r.schema().clone(), rows).unwrap())
    }

    #[test]
    fn dml_with_subqueries_matches_row_by_row_evaluation() {
        for (dml, rows_left) in [
            ("delete from R where B in (select B from S);", 1),
            // Correlated: `A` is a column of the row, not of `S`.
            (
                "delete from R where exists (select * from S where A = 'x' and S.B = '1');",
                1,
            ),
            // The subquery reads the table being changed: every row sees
            // the world as it was before the statement.
            (
                "delete from R where B in (select B from R R2 where R2.A = 'y');",
                2,
            ),
            ("update R set A = 'z' where B not in (select B from S);", 3),
            (
                "update R set A = (select max(C) from S) where B in (select B from S);",
                3,
            ),
            // String literals in the assignments, the filter and the
            // subquery, interned once per binding.
            (
                "update R set A = 'w', B = '9' where A = 'x' and B in \
                 (select B from S where C = 'c1');",
                3,
            ),
            (
                "delete from R where A <> 'y' and exists (select * from S where C = 'c2' and A = 'x');",
                1,
            ),
        ] {
            let (got, expected) = dml_vs_row_by_row(dml);
            assert_eq!(got, expected, "{dml}");
            assert_eq!(got.len(), rows_left, "{dml}");
        }
    }

    // ---- binding once per row loop keeps the row-wise semantics ----

    fn select_over(db: &WorldSet, sql: &str) -> Result<Relation> {
        let Stmt::Select(sel) = parse_statement(sql).unwrap() else {
            panic!("not a select")
        };
        let out = eval_select_ws(&sel, db, "Ans")?;
        let ans = out.iter().next().unwrap().last().clone();
        Ok(ans)
    }

    #[test]
    fn unresolved_columns_fail_only_when_a_row_reads_them() {
        let db = ws();
        let empty = select_over(&db, "select Bogus from R where A = 'zzz';").unwrap();
        assert!(empty.is_empty());
        let err = select_over(&db, "select Bogus from R;").unwrap_err();
        assert_eq!(err, SqlError("unresolved column Bogus".into()));
        let err = select_over(
            &db,
            "select A from R where exists (select * from S where Bogus = 1);",
        )
        .unwrap_err();
        assert_eq!(err, SqlError("unresolved column Bogus".into()));
        // An unknown `set` target is reported by the first matching row.
        let mut s = crate::Session::with_world_set(ws());
        s.execute("update R set Bogus = 'q' where A = 'zzz';")
            .unwrap();
        let err = s
            .execute("update R set Bogus = 'q' where A = 'x';")
            .unwrap_err();
        assert!(err.0.starts_with("unknown column Bogus"), "{err:?}");
    }

    #[test]
    fn ambiguous_inner_column_binds_to_the_outer_scope() {
        // `B` is ambiguous between `S1` and `S2`, so it is `R`'s.
        let sql = "select A, B from R where exists \
                   (select * from S S1, S S2 where S1.B = B and S2.B = B);";
        let a = answer(sql);
        assert_eq!(a, Relation::table(&["A", "B"], &[&["x", "1"], &["y", "2"]]));
        let (kept, memoized) = filter_r(sql);
        assert_eq!((kept.len(), memoized), (2, 0));
    }

    #[test]
    fn correlation_in_an_unevaluated_or_branch_keeps_the_memo() {
        // `C <> 'zz'` holds on every row of `S`, so `S.B = R.B` is never
        // evaluated: the subquery read no outer row and is kept.
        let (kept, memoized) =
            filter_r("select A from R where B in (select B from S where C <> 'zz' or S.B = R.B);");
        assert_eq!((kept.len(), memoized), (2, 1));
        // Reached, the same reference makes the subquery correlated.
        let (kept, memoized) =
            filter_r("select A from R where B in (select B from S where C = 'zz' or S.B = R.B);");
        assert_eq!((kept.len(), memoized), (2, 0));
    }

    #[test]
    fn subquery_in_an_aggregate_argument_reads_each_group_row() {
        // Per row of `R`: how many rows of `S` share its `B` — (x,1) → 1,
        // (x,3) → 0, (y,2) → 1. Reading the group's first row instead
        // would give `x` a sum of 2.
        let a = answer(
            "select A, sum((select count(*) from S where S.B = R.B)) as N from R group by A;",
        );
        assert_eq!(
            a,
            Relation::from_rows(
                Schema::of(&["A", "N"]),
                [
                    vec![Value::str("x"), Value::Int(1)],
                    vec![Value::str("y"), Value::Int(1)]
                ]
            )
            .unwrap()
        );
    }

    #[test]
    fn in_probes_match_a_nested_loop() {
        let li = datagen::lineitem(7, 60, 3, 4);
        let db = WorldSet::single(vec![("Lineitem", li.clone())]);
        let col = |name: &str| li.schema().index_of(&Attr::new(name)).unwrap();
        let (quantity, price, year) = (col("Quantity"), col("Price"), col("Year"));
        let nested_loop = |keep: &dyn Fn(&[Value]) -> bool| {
            Relation::from_rows(li.schema().clone(), li.iter().filter(|r| keep(r))).unwrap()
        };

        // The what-if shape: `not in` over a multi-column, uncorrelated
        // answer — the memoized answer is probed through a hash set.
        let got = select_over(
            &db,
            "select * from Lineitem where Quantity not in \
             (select * from Lineitem L2 where L2.Quantity >= 500);",
        )
        .unwrap();
        let expected = nested_loop(&|r| {
            !li.iter()
                .any(|s| s[quantity] >= Value::Int(500) && s[quantity] == r[quantity])
        });
        assert_eq!(got, expected);
        assert!(!expected.is_empty() && expected.len() < li.len());

        // A correlated `in`: a fresh answer for every row, scanned.
        let got = select_over(
            &db,
            "select * from Lineitem where Quantity in (select L2.Quantity from Lineitem L2 \
             where L2.Year = Lineitem.Year and L2.Price > Lineitem.Price);",
        )
        .unwrap();
        let expected = nested_loop(&|r| {
            li.iter()
                .any(|s| s[year] == r[year] && s[price] > r[price] && s[quantity] == r[quantity])
        });
        assert_eq!(got, expected);
        assert!(!expected.is_empty() && expected.len() < li.len());
    }

    #[test]
    fn what_if_shape_renders_identically_with_and_without_rewrite() {
        // Section 2's what-if: a hoisted `choice of` subquery under `not
        // in`, then `group by`.
        let sql = "select possible A.Year, sum(A.Price) as Revenue \
                   from (select * from Lineitem choice of Year) as A \
                   where Quantity not in (select * from Lineitem choice of Quantity) \
                   group by A.Year;";
        let render = |knobs: &str| {
            let mut s = crate::Session::new();
            s.register("Lineitem", datagen::lineitem(7, 60, 3, 4))
                .unwrap();
            s.execute(knobs).unwrap();
            crate::server::execute_rendered(&mut s, sql).unwrap()
        };
        let reference = render("set local rewrite = on;");
        assert!(reference.contains("Revenue"), "{reference}");
        assert_eq!(render("set local rewrite = off;"), reference);
    }

    #[test]
    fn optimizer_memo_key_follows_only_the_relations_the_query_names() {
        let mut s = crate::Session::with_world_set(ws());
        let algebra = wsa::Query::rel("R").choice(relalg::attrs(&["A"])).cert();
        let key = |s: &crate::Session| card_fingerprint(&algebra, s.world_set());
        let before = key(&s);
        assert_eq!(before.len(), 1);
        // An answer the session keeps, an unrelated new relation and DML on
        // another table all leave the key alone …
        s.execute("select certain B from R choice of A;").unwrap();
        s.register("T", Relation::table(&["X"], &[&["1"]])).unwrap();
        s.execute("insert into S values ('9', 'c9');").unwrap();
        assert_eq!(key(&s), before);
        // … DML on `R` does not.
        s.execute("insert into R values ('z', '9');").unwrap();
        assert_ne!(key(&s), before);
    }
}
