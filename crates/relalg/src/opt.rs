//! Statistics-driven, cost-based optimization of relational expressions.
//!
//! The Section-6 optimizer (`wsa_rewrite`) reorders *World-set Algebra*
//! plans; the Figure-6 translation then emits relational [`Expr`] plans
//! whose pairing order it never revisits. This module closes that gap: it
//! estimates per-node cardinalities from the **measured** statistics of the
//! catalog's relations ([`crate::Relation::stats`] — row counts and
//! per-column distinct counts, computed lazily and memoized) and uses them
//! to re-associate and (under a projection) commute `NaturalJoin`,
//! `ThetaJoin` and `Product` chains, so the translated plans are reordered
//! on real cardinalities too, not just the WSA input.
//!
//! Soundness of the reshapes (each preserves the output relation exactly,
//! including column order):
//!
//! * **Pairing re-association** (`×`/`⋈_φ` with conjuncts re-attached at
//!   the lowest node whose scope covers them): any association shape over
//!   the same leaf *order* concatenates columns in the same order, and
//!   `σ_φ(a × b) = a ⋈_φ b` by definition.
//! * **Natural-join re-association**: `(a ⋈ b) ⋈ c` and `a ⋈ (b ⋈ c)`
//!   produce the same column order (left columns, then the right side's
//!   private columns, associativity of "first occurrence" order).
//! * **Commutation** is applied only directly under a `Project`/`ProjectAs`,
//!   which re-extracts columns *by name* and thereby masks the reordered
//!   column layout — the same side condition the WSA-level
//!   `product-commute-under-project` rule uses.
//!
//! The pass is pure: callers (the translation route, `EXPLAIN`) gate it on
//! [`crate::config::rewrite_enabled`].

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::relation::FxHashMap;
use crate::{Attr, Catalog, Expr, ExprKind, Operand, Pred, Result, Schema};

/// Default row estimate for relations the catalog cannot size.
const DEFAULT_ROWS: u64 = 64;

/// Longest pairing/join chain the re-association search covers (the
/// interval DP is cubic; translated plans stay far below this).
const MAX_CHAIN: usize = 10;

/// A cardinality estimate: rows plus a per-attribute distinct-count map
/// (whose key set doubles as the node's attribute set).
#[derive(Clone, Debug)]
struct Est {
    rows: u64,
    distinct: BTreeMap<Attr, u64>,
}

impl Est {
    fn cap(mut self) -> Est {
        for d in self.distinct.values_mut() {
            *d = (*d).min(self.rows).max(u64::from(self.rows > 0));
        }
        self
    }
}

fn of_relation(rel: &crate::Relation) -> Est {
    let stats = rel.stats();
    let distinct = rel
        .schema()
        .attrs()
        .iter()
        .enumerate()
        .map(|(i, a)| (a.clone(), stats.cols[i].distinct))
        .collect();
    Est {
        rows: stats.rows,
        distinct,
    }
}

/// Estimated selectivity application of one conjunct onto a pairing of
/// `left`/`right` (`None` side-split means the conjunct applies to one
/// estimate, e.g. under a plain selection).
fn apply_conjunct(rows: u64, c: &Pred, distinct_of: impl Fn(&Attr) -> Option<u64>) -> u64 {
    match c {
        Pred::True => rows,
        Pred::False => 0,
        Pred::Cmp(Operand::Attr(a), crate::CmpOp::Eq, Operand::Attr(b)) => {
            let da = distinct_of(a).unwrap_or(DEFAULT_ROWS);
            let db = distinct_of(b).unwrap_or(DEFAULT_ROWS);
            rows / da.max(db).max(1)
        }
        Pred::Cmp(Operand::Attr(a), crate::CmpOp::Eq, Operand::Const(_))
        | Pred::Cmp(Operand::Const(_), crate::CmpOp::Eq, Operand::Attr(a)) => {
            rows / distinct_of(a).unwrap_or(DEFAULT_ROWS).max(1)
        }
        // Range comparisons, disjunctions, negations: the classic 1/2.
        _ => rows / 2,
    }
    .max(u64::from(rows > 0))
}

/// Combine two pairing operands under the given cross conjuncts (the
/// estimate of `σ_{∧conjs}(left × right)` / the theta-join form).
fn combine_pairing(left: &Est, right: &Est, conjs: &[Pred]) -> Est {
    let mut rows = left.rows.saturating_mul(right.rows);
    let mut distinct = left.distinct.clone();
    distinct.extend(right.distinct.iter().map(|(k, v)| (k.clone(), *v)));
    for c in conjs {
        rows = apply_conjunct(rows, c, |a| distinct.get(a).copied());
    }
    Est { rows, distinct }.cap()
}

/// Combine two natural-join operands (equi-join on the common attributes).
fn combine_natural(left: &Est, right: &Est) -> Est {
    let mut rows = left.rows.saturating_mul(right.rows);
    let mut distinct = left.distinct.clone();
    for (a, db) in &right.distinct {
        match distinct.get_mut(a) {
            Some(da) => {
                rows /= (*da).max(*db).max(1);
                *da = (*da).min(*db);
            }
            None => {
                distinct.insert(a.clone(), *db);
            }
        }
    }
    if left.rows > 0 && right.rows > 0 {
        rows = rows.max(1);
    }
    Est { rows, distinct }.cap()
}

fn estimate_memo(e: &Expr, catalog: &Catalog, memo: &mut HashMap<usize, Est>) -> Est {
    if let Some(hit) = memo.get(&e.id()) {
        return hit.clone();
    }
    let out = match e.kind() {
        ExprKind::Table(name) => match catalog.get(name) {
            Some(rel) => of_relation(rel),
            None => Est {
                rows: DEFAULT_ROWS,
                distinct: BTreeMap::new(),
            },
        },
        ExprKind::Lit(rel) => of_relation(rel),
        ExprKind::Select(p, inner) => {
            let i = estimate_memo(inner, catalog, memo);
            let mut rows = i.rows;
            let mut distinct = i.distinct;
            for c in p.conjuncts() {
                rows = apply_conjunct(rows, &c, |a| distinct.get(a).copied());
                // An equality with a constant pins the column.
                if let Pred::Cmp(Operand::Attr(a), crate::CmpOp::Eq, Operand::Const(_))
                | Pred::Cmp(Operand::Const(_), crate::CmpOp::Eq, Operand::Attr(a)) = &c
                {
                    if let Some(d) = distinct.get_mut(a) {
                        *d = 1;
                    }
                }
            }
            Est { rows, distinct }.cap()
        }
        ExprKind::Project(attrs, inner) => {
            let i = estimate_memo(inner, catalog, memo);
            let distinct: BTreeMap<Attr, u64> = attrs
                .iter()
                .filter_map(|a| i.distinct.get(a).map(|d| (a.clone(), *d)))
                .collect();
            // Deduplication bound: no more rows than the product of the
            // kept columns' distinct counts.
            let bound = distinct
                .values()
                .fold(1u64, |acc, d| acc.saturating_mul((*d).max(1)));
            Est {
                rows: i.rows.min(bound.max(u64::from(i.rows > 0))),
                distinct,
            }
            .cap()
        }
        ExprKind::ProjectAs(list, inner) => {
            let i = estimate_memo(inner, catalog, memo);
            let distinct: BTreeMap<Attr, u64> = list
                .iter()
                .filter_map(|(s, d)| i.distinct.get(s).map(|n| (d.clone(), *n)))
                .collect();
            let bound = distinct
                .values()
                .fold(1u64, |acc, d| acc.saturating_mul((*d).max(1)));
            Est {
                rows: i.rows.min(bound.max(u64::from(i.rows > 0))),
                distinct,
            }
            .cap()
        }
        ExprKind::Rename(map, inner) => {
            let i = estimate_memo(inner, catalog, memo);
            let distinct = i
                .distinct
                .into_iter()
                .map(|(a, d)| {
                    let renamed = map
                        .iter()
                        .find(|(s, _)| *s == a)
                        .map(|(_, t)| t.clone())
                        .unwrap_or(a);
                    (renamed, d)
                })
                .collect();
            Est {
                rows: i.rows,
                distinct,
            }
        }
        ExprKind::Product(a, b) => {
            let (ia, ib) = (
                estimate_memo(a, catalog, memo),
                estimate_memo(b, catalog, memo),
            );
            combine_pairing(&ia, &ib, &[])
        }
        ExprKind::ThetaJoin(p, a, b) => {
            let (ia, ib) = (
                estimate_memo(a, catalog, memo),
                estimate_memo(b, catalog, memo),
            );
            combine_pairing(&ia, &ib, &p.conjuncts())
        }
        ExprKind::NaturalJoin(a, b) => {
            let (ia, ib) = (
                estimate_memo(a, catalog, memo),
                estimate_memo(b, catalog, memo),
            );
            combine_natural(&ia, &ib)
        }
        ExprKind::Union(a, b) => {
            let (ia, ib) = (
                estimate_memo(a, catalog, memo),
                estimate_memo(b, catalog, memo),
            );
            let mut distinct = ia.distinct.clone();
            for (k, v) in &ib.distinct {
                let e = distinct.entry(k.clone()).or_insert(0);
                *e = (*e).saturating_add(*v);
            }
            Est {
                rows: ia.rows.saturating_add(ib.rows),
                distinct,
            }
            .cap()
        }
        ExprKind::Intersect(a, b) => {
            let (ia, ib) = (
                estimate_memo(a, catalog, memo),
                estimate_memo(b, catalog, memo),
            );
            Est {
                rows: ia.rows.min(ib.rows),
                distinct: ia.distinct,
            }
            .cap()
        }
        ExprKind::Difference(a, b) => {
            let ia = estimate_memo(a, catalog, memo);
            let _ = estimate_memo(b, catalog, memo);
            ia
        }
        ExprKind::Divide(a, b) => {
            let (ia, ib) = (
                estimate_memo(a, catalog, memo),
                estimate_memo(b, catalog, memo),
            );
            let distinct: BTreeMap<Attr, u64> = ia
                .distinct
                .iter()
                .filter(|(k, _)| !ib.distinct.contains_key(*k))
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            Est {
                rows: ia.rows / ib.rows.max(1).min(ia.rows.max(1)),
                distinct,
            }
            .cap()
        }
        ExprKind::OuterPadJoin(a, b) => {
            let (ia, ib) = (
                estimate_memo(a, catalog, memo),
                estimate_memo(b, catalog, memo),
            );
            let joined = combine_natural(&ia, &ib);
            Est {
                rows: joined.rows.max(ia.rows),
                distinct: joined.distinct,
            }
        }
        ExprKind::Aggregate(group, aggs, inner) => {
            let i = estimate_memo(inner, catalog, memo);
            // One row per group: at most the product of the group
            // columns' distinct counts.
            let mut distinct: BTreeMap<Attr, u64> = group
                .iter()
                .filter_map(|a| i.distinct.get(a).map(|d| (a.clone(), *d)))
                .collect();
            let bound = distinct
                .values()
                .fold(1u64, |acc, d| acc.saturating_mul((*d).max(1)));
            let rows = i.rows.min(bound);
            distinct.extend(aggs.iter().map(|a| (a.out.clone(), rows)));
            Est { rows, distinct }.cap()
        }
        // A filter of the left operand: at most its rows.
        ExprKind::SemiJoin(_, a, b) | ExprKind::AntiJoin(_, a, b) => {
            let _ = estimate_memo(b, catalog, memo);
            estimate_memo(a, catalog, memo)
        }
    };
    memo.insert(e.id(), out.clone());
    out
}

/// Estimated output rows of `e` against `catalog`, from measured base-table
/// statistics.
pub fn estimate_rows(e: &Expr, catalog: &Catalog) -> u64 {
    estimate_memo(e, catalog, &mut HashMap::new()).rows
}

// ---------------------------------------------------------------------------
// Join/pairing re-association and commutation.
// ---------------------------------------------------------------------------

/// One flattened pairing chain: the leaf operands (in original column
/// order) and the conjunct pool collected from `ThetaJoin` predicates and
/// directly absorbed selections.
struct Chain {
    leaves: Vec<Expr>,
    conjuncts: Vec<Pred>,
}

/// Flatten a maximal `Product`/`ThetaJoin` chain (`σ` directly over a
/// pairing is absorbed into the conjunct pool: `σ_φ(a × b) = a ⋈_φ b`).
/// Stops past [`MAX_CHAIN`] leaves: such a chain is not reshaped, and a
/// shared DAG would expand to exponentially many leaves.
fn flatten_pairing(e: &Expr, chain: &mut Chain) {
    if chain.leaves.len() > MAX_CHAIN {
        return;
    }
    match e.kind() {
        ExprKind::Product(a, b) => {
            flatten_pairing(a, chain);
            flatten_pairing(b, chain);
        }
        ExprKind::ThetaJoin(p, a, b) => {
            chain.conjuncts.extend(p.conjuncts());
            flatten_pairing(a, chain);
            flatten_pairing(b, chain);
        }
        ExprKind::Select(p, inner)
            if matches!(
                inner.kind(),
                ExprKind::Product(_, _) | ExprKind::ThetaJoin(_, _, _)
            ) =>
        {
            chain.conjuncts.extend(p.conjuncts());
            flatten_pairing(inner, chain);
        }
        _ => chain.leaves.push(e.clone()),
    }
}

/// Flatten a maximal `NaturalJoin` chain, stopping past [`MAX_CHAIN`]
/// leaves as [`flatten_pairing`] does.
fn flatten_natural(e: &Expr, leaves: &mut Vec<Expr>) {
    if leaves.len() > MAX_CHAIN {
        return;
    }
    match e.kind() {
        ExprKind::NaturalJoin(a, b) => {
            flatten_natural(a, leaves);
            flatten_natural(b, leaves);
        }
        _ => leaves.push(e.clone()),
    }
}

/// A component of the pairing search: the built expression, its attribute
/// scope, its estimate, and the accumulated cost of building it.
#[derive(Clone)]
struct Component {
    expr: Expr,
    attrs: BTreeSet<Attr>,
    est: Est,
    cost: u64,
}

/// Work estimate of producing one pairing node (probe+build+output).
fn node_cost(l: &Est, r: &Est, out: &Est) -> u64 {
    l.rows
        .saturating_add(r.rows)
        .saturating_add(out.rows)
        .saturating_add(
            // A pure cross product pays for every pair it emits.
            if out.rows == l.rows.saturating_mul(r.rows) {
                out.rows
            } else {
                0
            },
        )
}

/// Merge two components: conjuncts from `pool` whose attribute scope is
/// newly covered attach here (they become the `ThetaJoin` predicate; the
/// rest of the pool stays for outer merges).
fn merge_components(a: &Component, b: &Component, pool: &mut Vec<Pred>) -> Component {
    let mut attrs = a.attrs.clone();
    attrs.extend(b.attrs.iter().cloned());
    let (here, rest): (Vec<Pred>, Vec<Pred>) = std::mem::take(pool)
        .into_iter()
        .partition(|c| c.attrs().iter().all(|x| attrs.contains(x)));
    *pool = rest;
    let est = combine_pairing(&a.est, &b.est, &here);
    let cost = a
        .cost
        .saturating_add(b.cost)
        .saturating_add(node_cost(&a.est, &b.est, &est));
    let expr = match here.into_iter().reduce(|x, y| x.and(y)) {
        None => a.expr.product(&b.expr),
        Some(p) => a.expr.theta_join(&b.expr, p),
    };
    Component {
        expr,
        attrs,
        est,
        cost,
    }
}

/// Rebuild a pairing chain over a **fixed leaf order** with the cheapest
/// association shape (interval DP minimizing accumulated node cost).
fn associate_pairing(leaves: Vec<Component>, conjuncts: Vec<Pred>) -> Component {
    let n = leaves.len();
    // best[i][j] = cheapest component covering leaves i..=j.
    let mut best: Vec<Vec<Option<Component>>> = vec![vec![None; n]; n];
    for (i, leaf) in leaves.into_iter().enumerate() {
        best[i][i] = Some(leaf);
    }
    for span in 2..=n {
        for i in 0..=n - span {
            let j = i + span - 1;
            let mut cheapest: Option<Component> = None;
            for k in i..j {
                let (l, r) = (best[i][k].clone().unwrap(), best[k + 1][j].clone().unwrap());
                // Each interval re-derives its applicable conjuncts from
                // the full pool; sub-interval conjuncts were consumed when
                // the sub-component was built, so filter to the ones not
                // already covered by either side.
                let mut pool: Vec<Pred> = conjuncts
                    .iter()
                    .filter(|c| {
                        let ca = c.attrs();
                        !ca.is_empty()
                            && !ca.iter().all(|x| l.attrs.contains(x))
                            && !ca.iter().all(|x| r.attrs.contains(x))
                    })
                    .cloned()
                    .collect();
                let cand = merge_components(&l, &r, &mut pool);
                if cheapest.as_ref().is_none_or(|c| cand.cost < c.cost) {
                    cheapest = Some(cand);
                }
            }
            best[i][j] = cheapest;
        }
    }
    best[0][n - 1].clone().unwrap()
}

/// Rebuild a pairing chain with **free leaf order** (greedy cheapest-merge
/// -first); only sound under a projection that re-picks columns by name.
fn permute_pairing(mut comps: Vec<Component>, mut pool: Vec<Pred>) -> Component {
    while comps.len() > 1 {
        let mut pick = (0usize, 1usize, u64::MAX);
        for i in 0..comps.len() {
            for j in i + 1..comps.len() {
                let mut scratch = pool.clone();
                let merged = merge_components(&comps[i], &comps[j], &mut scratch);
                if merged.cost < pick.2 {
                    pick = (i, j, merged.cost);
                }
            }
        }
        let (i, j, _) = pick;
        let b = comps.remove(j);
        let a = comps.remove(i);
        comps.push(merge_components(&a, &b, &mut pool));
    }
    comps.pop().unwrap()
}

/// Attach leftover conjuncts (constant-only predicates, or scopes schema
/// inference could not place) as a selection on top.
fn with_residual(c: Component, pool: Vec<Pred>) -> Component {
    match pool.into_iter().reduce(|x, y| x.and(y)) {
        None => c,
        Some(p) => {
            let est = Est {
                rows: p
                    .conjuncts()
                    .iter()
                    .fold(c.est.rows, |r, cj| apply_conjunct(r, cj, |_| None)),
                distinct: c.est.distinct.clone(),
            };
            Component {
                expr: c.expr.select(p),
                attrs: c.attrs,
                est,
                cost: c.cost,
            }
        }
    }
}

/// Whether two expressions are the same node (used to avoid rebuilding
/// unchanged subtrees, which would defeat downstream node-identity memos).
fn same_node(a: &Expr, b: &Expr) -> bool {
    std::ptr::eq(a.kind(), b.kind())
}

/// Whether two join chains have the same shape and predicates over the
/// same leaf nodes: the chain is compared structurally, its leaves by
/// identity, so the comparison never descends into a shared subplan.
fn same_chain(a: &Expr, b: &Expr) -> bool {
    match (a.kind(), b.kind()) {
        (ExprKind::Product(a1, a2), ExprKind::Product(b1, b2))
        | (ExprKind::NaturalJoin(a1, a2), ExprKind::NaturalJoin(b1, b2)) => {
            same_chain(a1, b1) && same_chain(a2, b2)
        }
        (ExprKind::ThetaJoin(p, a1, a2), ExprKind::ThetaJoin(q, b1, b2)) => {
            p == q && same_chain(a1, b1) && same_chain(a2, b2)
        }
        (ExprKind::Select(p, a1), ExprKind::Select(q, b1)) => p == q && same_chain(a1, b1),
        _ => same_node(a, b),
    }
}

struct Optimizer<'a> {
    catalog: &'a Catalog,
    est_memo: HashMap<usize, Est>,
    /// Input node address and whether its column order is free → (the
    /// input node, pinned so its address is not reused; its rewrite). A
    /// node shared in the input is rewritten once and stays shared.
    memo: FxHashMap<(usize, bool), (Expr, Expr)>,
}

impl<'a> Optimizer<'a> {
    fn leaf_component(&mut self, e: Expr) -> Option<Component> {
        let schema = e.infer_schema(&|n| self.catalog.schema_of(n)).ok()?;
        let est = estimate_memo(&e, self.catalog, &mut self.est_memo);
        Some(Component {
            attrs: schema.attrs().iter().cloned().collect(),
            cost: 0,
            est,
            expr: e,
        })
    }

    /// Rewrite a pairing (`×`/`⋈_φ`/absorbed `σ`) chain rooted at `e`.
    /// `order_free` permits leaf permutation (parent is a projection).
    fn rewrite_pairing(&mut self, e: &Expr, order_free: bool) -> Expr {
        let mut chain = Chain {
            leaves: Vec::new(),
            conjuncts: Vec::new(),
        };
        flatten_pairing(e, &mut chain);
        if chain.leaves.len() < 2 || chain.leaves.len() > MAX_CHAIN {
            return self.rewrite_children(e, false);
        }
        let leaves: Vec<Expr> = chain
            .leaves
            .iter()
            .map(|l| self.rewrite(l, false))
            .collect();
        let mut comps = Vec::with_capacity(leaves.len());
        for leaf in &leaves {
            match self.leaf_component(leaf.clone()) {
                Some(c) => comps.push(c),
                // Schema inference failed: conjunct scoping is unknowable,
                // leave the chain's shape alone (children still optimized).
                None => return self.rewrite_children(e, false),
            }
        }
        // Disjoint-schema sanity: pairing requires it; if the flattened
        // leaves overlap (malformed plan), bail out to the original shape.
        let total: usize = comps.iter().map(|c| c.attrs.len()).sum();
        let union: BTreeSet<&Attr> = comps.iter().flat_map(|c| c.attrs.iter()).collect();
        if union.len() != total {
            return self.rewrite_children(e, false);
        }
        // Single-leaf conjuncts become selections on their leaf (filter
        // before any pairing); cross conjuncts go to the merge pool;
        // attribute-free ones stay for the top.
        let mut pool = Vec::new();
        let mut residual = Vec::new();
        for c in chain.conjuncts {
            let ca = c.attrs();
            if ca.is_empty() {
                residual.push(c);
            } else if let Some(comp) = comps
                .iter_mut()
                .find(|comp| ca.iter().all(|x| comp.attrs.contains(x)))
            {
                let est = Est {
                    rows: apply_conjunct(comp.est.rows, &c, |a| comp.est.distinct.get(a).copied()),
                    distinct: comp.est.distinct.clone(),
                };
                comp.expr = comp.expr.select(c);
                comp.est = est;
            } else {
                pool.push(c);
            }
        }
        let mut built = if order_free {
            permute_pairing(comps, pool.clone())
        } else {
            associate_pairing(comps, pool.clone())
        };
        // Both builders consume conjuncts at the node that covers them; a
        // conjunct no merge could ever cover (e.g. an attribute missing
        // from every leaf — the original plan errors on it at evaluation)
        // must not be silently dropped, so verify placement and re-attach
        // leftovers as a top selection, which reproduces the original
        // error/filter behavior.
        let placed = chain_conjuncts(&built.expr);
        for cj in pool {
            if !placed.contains(&cj) {
                built = with_residual(built, vec![cj]);
            }
        }
        let out = with_residual(built, residual).expr;
        // A no-op reshape must keep the original node: the evaluator's
        // node-identity memo relies on shared subplans staying the same
        // allocation.
        if same_chain(&out, e) {
            e.clone()
        } else {
            out
        }
    }

    /// Rewrite a natural-join chain rooted at `e`.
    fn rewrite_natural(&mut self, e: &Expr, order_free: bool) -> Expr {
        let mut leaves = Vec::new();
        flatten_natural(e, &mut leaves);
        if leaves.len() < 3 || leaves.len() > MAX_CHAIN {
            return self.rewrite_children(e, false);
        }
        let mut comps = Vec::with_capacity(leaves.len());
        for leaf in &leaves {
            let leaf = self.rewrite(leaf, false);
            match self.leaf_component(leaf) {
                Some(c) => comps.push(c),
                None => return self.rewrite_children(e, false),
            }
        }
        let merge = |a: &Component, b: &Component| -> Component {
            let est = combine_natural(&a.est, &b.est);
            let cost = a
                .cost
                .saturating_add(b.cost)
                .saturating_add(node_cost(&a.est, &b.est, &est));
            let mut attrs = a.attrs.clone();
            attrs.extend(b.attrs.iter().cloned());
            Component {
                expr: a.expr.natural_join(&b.expr),
                attrs,
                est,
                cost,
            }
        };
        let out = if order_free {
            while comps.len() > 1 {
                let mut pick = (0usize, 1usize, u64::MAX);
                for i in 0..comps.len() {
                    for j in i + 1..comps.len() {
                        let m = merge(&comps[i], &comps[j]);
                        if m.cost < pick.2 {
                            pick = (i, j, m.cost);
                        }
                    }
                }
                let (i, j, _) = pick;
                let b = comps.remove(j);
                let a = comps.remove(i);
                comps.push(merge(&a, &b));
            }
            comps.pop().unwrap().expr
        } else {
            // Fixed leaf order: interval DP (column order is association-
            // invariant for ⋈, so any shape over this order is sound).
            let n = comps.len();
            let mut best: Vec<Vec<Option<Component>>> = vec![vec![None; n]; n];
            for (i, c) in comps.into_iter().enumerate() {
                best[i][i] = Some(c);
            }
            for span in 2..=n {
                for i in 0..=n - span {
                    let j = i + span - 1;
                    let mut cheapest: Option<Component> = None;
                    for k in i..j {
                        let cand = merge(
                            best[i][k].as_ref().unwrap(),
                            best[k + 1][j].as_ref().unwrap(),
                        );
                        if cheapest.as_ref().is_none_or(|c| cand.cost < c.cost) {
                            cheapest = Some(cand);
                        }
                    }
                    best[i][j] = cheapest;
                }
            }
            best[0][n - 1].take().unwrap().expr
        };
        // Identity preservation, as in `rewrite_pairing`: a no-op reshape
        // returns the original node so downstream memos keep sharing.
        if same_chain(&out, e) {
            e.clone()
        } else {
            out
        }
    }

    /// Rebuild `e` with optimized children (identity when nothing changed).
    fn rewrite_children(&mut self, e: &Expr, order_free: bool) -> Expr {
        // π, γ and the right side of ⋉/▷ read their input by column name,
        // so its column order is free; ⋉/▷ keep their left side's.
        let free = |i: usize| match e.kind() {
            ExprKind::Project(..) | ExprKind::ProjectAs(..) | ExprKind::Aggregate(..) => true,
            ExprKind::SemiJoin(..) | ExprKind::AntiJoin(..) => i == 1 || order_free,
            _ => false,
        };
        let mut kids = [None, None];
        for (i, (kid, c)) in kids.iter_mut().zip(e.children()).enumerate() {
            *kid = Some(self.rewrite(c, free(i)));
        }
        let mut same = kids.iter().flatten().zip(e.children());
        if same.all(|(k, c)| same_node(k, c)) {
            e.clone()
        } else {
            e.with_children(kids.into_iter().flatten())
        }
    }

    fn rewrite(&mut self, e: &Expr, order_free: bool) -> Expr {
        let key = (e.id(), order_free);
        if let Some((_, hit)) = self.memo.get(&key) {
            return hit.clone();
        }
        let out = match e.kind() {
            ExprKind::Product(_, _) | ExprKind::ThetaJoin(_, _, _) => {
                self.rewrite_pairing(e, order_free)
            }
            ExprKind::Select(_, inner)
                if matches!(
                    inner.kind(),
                    ExprKind::Product(_, _) | ExprKind::ThetaJoin(_, _, _)
                ) =>
            {
                self.rewrite_pairing(e, order_free)
            }
            ExprKind::NaturalJoin(_, _) => self.rewrite_natural(e, order_free),
            _ => self.rewrite_children(e, order_free),
        };
        self.memo.insert(key, (e.clone(), out.clone()));
        out
    }
}

/// Conjuncts of the `⋈_φ` nodes of the pairing chain at the top of `e`
/// (used to verify the DP placed the whole pool, which it places only
/// there).
fn chain_conjuncts(e: &Expr) -> Vec<Pred> {
    match e.kind() {
        ExprKind::Product(a, b) => [chain_conjuncts(a), chain_conjuncts(b)].concat(),
        ExprKind::ThetaJoin(p, a, b) => {
            [p.conjuncts(), chain_conjuncts(a), chain_conjuncts(b)].concat()
        }
        _ => Vec::new(),
    }
}

/// Cost-based reordering of the pairing/join structure of `e`, driven by
/// the measured statistics of `catalog`'s relations. The result denotes
/// exactly the same relation (schema, column order, tuples) as `e`.
pub fn optimize_joins(e: &Expr, catalog: &Catalog) -> Expr {
    optimize_joins_all(std::slice::from_ref(e), catalog)
        .pop()
        .expect("one expression in, one out")
}

/// [`optimize_joins`] over a batch of expressions that share subplans: a
/// node shared within or across them is rewritten once, into one shared
/// node, so every input node is visited once.
pub fn optimize_joins_all(exprs: &[Expr], catalog: &Catalog) -> Vec<Expr> {
    let mut opt = Optimizer {
        catalog,
        est_memo: HashMap::new(),
        memo: FxHashMap::default(),
    };
    exprs.iter().map(|e| opt.rewrite(e, false)).collect()
}

// ---------------------------------------------------------------------------
// EXPLAIN support: per-node estimated vs. actual cardinalities.
// ---------------------------------------------------------------------------

/// One plan node's cardinality annotation.
#[derive(Clone, Debug)]
pub struct PlanCard {
    /// Nesting depth (root = 0).
    pub depth: usize,
    /// Short operator label (`π{Arr}`, `σ[...]`, `⋈`, `Table R`, …).
    pub label: String,
    /// Estimated rows from the statistics model.
    pub est_rows: u64,
    /// Actual rows of a trial evaluation.
    pub actual_rows: u64,
    /// The projection never ran: its parent `÷` read its input directly
    /// (see [`crate::Catalog::eval`]). `actual_rows` is then 0 and does not
    /// describe an evaluation.
    pub read_through: bool,
}

fn node_label(e: &Expr) -> String {
    fn attr_list(attrs: &[Attr]) -> String {
        attrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
    match e.kind() {
        ExprKind::Table(name) => format!("table {name}"),
        ExprKind::Lit(rel) => format!("lit[{} rows]", rel.len()),
        ExprKind::Select(p, _) => format!("σ[{p}]"),
        ExprKind::Project(attrs, _) => format!("π{{{}}}", attr_list(attrs)),
        ExprKind::ProjectAs(list, _) => format!(
            "π{{{}}}",
            list.iter()
                .map(|(s, d)| if s == d {
                    s.to_string()
                } else {
                    format!("{s} as {d}")
                })
                .collect::<Vec<_>>()
                .join(",")
        ),
        ExprKind::Rename(map, _) => format!(
            "δ{{{}}}",
            map.iter()
                .map(|(s, d)| format!("{s}→{d}"))
                .collect::<Vec<_>>()
                .join(",")
        ),
        ExprKind::Product(_, _) => "×".to_string(),
        ExprKind::Union(_, _) => "∪".to_string(),
        ExprKind::Intersect(_, _) => "∩".to_string(),
        ExprKind::Difference(_, _) => "−".to_string(),
        ExprKind::NaturalJoin(_, _) => "⋈".to_string(),
        ExprKind::ThetaJoin(p, _, _) => format!("⋈[{p}]"),
        ExprKind::Divide(_, _) => "÷".to_string(),
        ExprKind::OuterPadJoin(_, _) => "=⊲⊳".to_string(),
        ExprKind::Aggregate(group, aggs, _) => format!(
            "γ{{{};{}}}",
            attr_list(group),
            aggs.iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
        ExprKind::SemiJoin(on, _, _) | ExprKind::AntiJoin(on, _, _) => format!(
            "{}[{}]",
            if matches!(e.kind(), ExprKind::AntiJoin(..)) {
                "▷"
            } else {
                "⋉"
            },
            on.iter()
                .map(|(l, r)| format!("{l}={r}"))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

/// Annotate every node of `e` (pre-order) with its estimated and actual
/// cardinality. The trial evaluation shares
/// one [`crate::EvalCache`], so the whole tree evaluates once; per-node
/// "actual" reads are memo hits.
pub fn annotate_cards(e: &Expr, catalog: &Catalog) -> Result<Vec<PlanCard>> {
    let mut est_memo = HashMap::new();
    let mut cache = crate::EvalCache::new();
    let mut out = Vec::new();
    fn walk(
        e: &Expr,
        depth: usize,
        catalog: &Catalog,
        est_memo: &mut HashMap<usize, Est>,
        cache: &mut crate::EvalCache,
        out: &mut Vec<PlanCard>,
    ) -> Result<()> {
        let est = estimate_memo(e, catalog, est_memo).rows;
        let actual = catalog.eval_cached(e, cache)?.len() as u64;
        out.push(PlanCard {
            depth,
            label: node_label(e),
            est_rows: est,
            actual_rows: actual,
            read_through: false,
        });
        match e.kind() {
            ExprKind::Divide(a, b) => {
                let divisor = catalog.eval_cached(b, cache)?;
                let through = crate::eval::read_through(a, divisor.schema(), &mut |x| {
                    catalog.eval_cached(x, cache)
                })?;
                match through {
                    // Report the projection without trial-evaluating it.
                    Some((inner, _)) => {
                        out.push(PlanCard {
                            depth: depth + 1,
                            label: node_label(a),
                            est_rows: estimate_memo(a, catalog, est_memo).rows,
                            actual_rows: 0,
                            read_through: true,
                        });
                        walk(inner, depth + 2, catalog, est_memo, cache, out)?;
                    }
                    None => walk(a, depth + 1, catalog, est_memo, cache, out)?,
                }
                walk(b, depth + 1, catalog, est_memo, cache, out)?;
            }
            _ => {
                for c in e.children() {
                    walk(c, depth + 1, catalog, est_memo, cache, out)?;
                }
            }
        }
        Ok(())
    }
    walk(e, 0, catalog, &mut est_memo, &mut cache, &mut out)?;
    Ok(out)
}

/// Infer the schema of `e` against a catalog (convenience used by callers
/// that mix schema-carrying and schema-free construction).
pub fn schema_of(e: &Expr, catalog: &Catalog) -> Result<Schema> {
    e.infer_schema(&|n| catalog.schema_of(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attrs, Relation};

    fn wide(name_vals: i64, rows: usize) -> Relation {
        Relation::from_rows(
            Schema::of(&["A", "B"]),
            (0..rows).map(|i| {
                [
                    crate::Value::Int(i as i64 % name_vals),
                    crate::Value::Int(i as i64),
                ]
                .into_iter()
                .collect::<crate::Tuple>()
            }),
        )
        .unwrap()
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.put(
            "Big",
            wide(50, 1000)
                .rename(&[("A".into(), "X".into()), ("B".into(), "Y".into())])
                .unwrap(),
        );
        c.put(
            "Mid",
            wide(20, 100)
                .rename(&[("A".into(), "X2".into()), ("B".into(), "Y2".into())])
                .unwrap(),
        );
        c.put(
            "Tiny",
            wide(5, 10)
                .rename(&[("A".into(), "X3".into()), ("B".into(), "Y3".into())])
                .unwrap(),
        );
        c
    }

    #[test]
    fn estimates_track_measured_cardinalities() {
        let c = catalog();
        assert_eq!(estimate_rows(&Expr::table("Big"), &c), 1000);
        // Equality on X (50 distinct values): ~1000/50.
        let sel = Expr::table("Big").select(Pred::eq_const("X", 7));
        let est = estimate_rows(&sel, &c);
        assert!((10..=40).contains(&est), "est {est}");
        // Product multiplies.
        let prod = Expr::table("Big").product(&Expr::table("Tiny"));
        assert_eq!(estimate_rows(&prod, &c), 10_000);
    }

    #[test]
    fn pairing_chain_reassociates_to_smaller_intermediates() {
        let c = catalog();
        // ((Big × Mid) × Tiny) with an equi-conjunct Big.Y = Mid.X2 — the
        // DP should pair Big with Mid first *as a theta join* and keep the
        // product with Tiny outside, or at least never build the bare
        // Big × Mid × Tiny cross product.
        let e = Expr::table("Big")
            .product(&Expr::table("Mid"))
            .product(&Expr::table("Tiny"))
            .select(Pred::eq_attr("Y", "X2"));
        let opt = optimize_joins(&e, &c);
        // The optimized plan must contain a theta join (the absorbed σ).
        let printed = opt.to_string();
        assert!(printed.contains("⋈["), "expected a theta join: {printed}");
        // And it must evaluate to the same relation.
        assert_eq!(c.eval(&e).unwrap(), c.eval(&opt).unwrap());
    }

    #[test]
    fn single_leaf_conjuncts_push_to_their_leaf() {
        let c = catalog();
        let e = Expr::table("Big")
            .product(&Expr::table("Tiny"))
            .select(Pred::eq_const("X", 7).and(Pred::eq_attr("Y", "X3")));
        let opt = optimize_joins(&e, &c);
        let printed = opt.to_string();
        // σ[X = 7] must sit directly on Big, inside the pairing.
        assert!(
            printed.contains("σ[X=7](Big)"),
            "selection not pushed: {printed}"
        );
        assert_eq!(c.eval(&e).unwrap(), c.eval(&opt).unwrap());
    }

    #[test]
    fn natural_join_chain_result_identical() {
        let mut c = Catalog::new();
        c.put(
            "R",
            Relation::table(&["A", "B"], &[&[1i64, 2], &[2, 3], &[3, 3]]),
        );
        c.put("S", Relation::table(&["B", "C"], &[&[2i64, 9], &[3, 8]]));
        c.put("T", Relation::table(&["C", "D"], &[&[9i64, 1], &[8, 2]]));
        let e = Expr::table("R")
            .natural_join(&Expr::table("S"))
            .natural_join(&Expr::table("T"));
        let opt = optimize_joins(&e, &c);
        assert_eq!(c.eval(&e).unwrap(), c.eval(&opt).unwrap());
        // Under a projection the leaves may permute; result is still equal.
        let p = e.project(attrs(&["D", "A"]));
        let popt = optimize_joins(&p, &c);
        assert_eq!(c.eval(&p).unwrap(), c.eval(&popt).unwrap());
    }

    #[test]
    fn annotate_cards_reports_est_and_actual() {
        let c = catalog();
        let e = Expr::table("Big").select(Pred::eq_const("X", 7));
        let cards = annotate_cards(&e, &c).unwrap();
        assert_eq!(cards.len(), 2);
        assert_eq!(cards[0].depth, 0);
        assert_eq!(cards[1].label, "table Big");
        assert_eq!(cards[1].actual_rows, 1000);
        assert_eq!(cards[1].est_rows, 1000);
        assert_eq!(cards[0].actual_rows, 20);
        assert!(cards[0].est_rows > 0);
    }

    #[test]
    fn annotate_cards_reports_a_selection_of_a_wide_input() {
        let mut c = Catalog::new();
        let schema = Schema::of(&["C0", "C1", "C2", "C3", "C4", "C5"]);
        let rel = Relation::from_rows(
            schema,
            (0..300).map(|i| {
                (0..6)
                    .map(|j| {
                        // Column 5 is the row id: keeps all 300 rows distinct.
                        crate::Value::Int(if j == 5 { i } else { (i * (3 + j) + j) % 17 })
                    })
                    .collect::<crate::Tuple>()
            }),
        )
        .unwrap();
        c.put("W", rel.clone());
        let pred = Pred::cmp(
            Operand::Attr("C2".into()),
            crate::CmpOp::Ge,
            Operand::Const(crate::Value::Int(3)),
        );
        let e = Expr::table("W")
            .select(pred.clone())
            .project(attrs(&["C0", "C5"]));
        let cards = annotate_cards(&e, &c).unwrap();
        assert_eq!(cards.len(), 3);
        // C2 ≥ 3 keeps most rows; C5 keeps the projection from merging any.
        let kept = rel.select(&pred).unwrap().len() as u64;
        assert!(kept > 200 && kept < 300, "{kept}");
        let actual: Vec<u64> = cards.iter().map(|c| c.actual_rows).collect();
        assert_eq!(actual, [kept, kept, 300]);
    }

    #[test]
    fn annotate_cards_reports_a_projection_of_a_wide_input() {
        // 6 columns, 300 distinct rows; C3 holds 10 distinct values, so
        // the projection deduplicates by hash and walks the rows.
        let rel = Relation::from_rows(
            Schema::of(&["C0", "C1", "C2", "C3", "C4", "C5"]),
            (0..300).map(|i| {
                (0..6)
                    .map(|j| crate::Value::Int(if j == 3 { i % 10 } else { i * (j + 1) }))
                    .collect::<crate::Tuple>()
            }),
        )
        .unwrap();
        let mut c = Catalog::new();
        c.put("W", rel);
        let e = Expr::table("W").project(attrs(&["C3"]));
        let cards = annotate_cards(&e, &c).unwrap();
        assert_eq!(cards.len(), 2);
        assert_eq!(cards[0].actual_rows, 10);
    }

    #[test]
    fn unchanged_plans_keep_node_identity() {
        let c = catalog();
        let e = Expr::table("Big").select(Pred::eq_const("X", 1));
        let opt = optimize_joins(&e, &c);
        assert!(std::ptr::eq(e.kind(), opt.kind()), "no-op must not rebuild");
    }
}
