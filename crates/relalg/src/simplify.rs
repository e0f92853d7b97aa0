//! A small algebraic simplifier for relational expressions.
//!
//! The Section-5.3 optimized translation produces plans that are correct but
//! syntactically noisy (chains of generalized projections that copy choice
//! attributes into world-id columns). These rewrites normalize such plans so
//! that, e.g., the trip-planning query of Example 5.8 prints literally as
//! `π{Arr,Dep}(HFlights) ÷ π{Dep}(HFlights)`.
//!
//! All rules are semantics-preserving for set-semantics relations:
//!
//! * `σ_true(e) → e`
//! * projection/generalized-projection chain fusion
//! * `e × {⟨⟩} → e` and `{⟨⟩} × e → e` (unit world table elimination)
//! * `a ⋈ b → a × b` when `a` and `b` share no attribute
//! * `σ_p(π_L(e)) → π_L(σ_p′(e))` when `L` produces every attribute `p`
//!   reads (`p′` reads their sources)
//! * renaming elimination across `÷` when the renamed columns are divided
//!   away on both sides
//! * all-identity generalized projections become plain projections, and
//!   full-schema identity projections disappear
//! * eager aggregation (Yan and Larson, VLDB 1995):
//!   `γ_{G;f}((L × R) ⋉_K M) → γ_{G;f′}((γ_{(G∪K)∩L;f}(L) × R) ⋉_K M)`,
//!   and the same over `▷`, when `attrs(R) ⊆ G`, every argument of `f`
//!   comes from `L` and `f` is `sum`/`count`/`min`/`max` (`f′` combines the
//!   partial results: a sum of sums or counts, a min of mins, a max of
//!   maxes). Each group then holds one `R` tuple, and whether an `L` tuple
//!   survives the (anti)semijoin depends only on its `K` columns, so the
//!   partial groups partition every final group. `avg` does not combine
//!   this way. A `sum` over a non-integer value fails in the
//!   pre-aggregation even when the (anti)semijoin would have dropped its
//!   tuple: an error where the unpushed plan answers, never a different
//!   answer.
//! * `γ_{G;f}(π_L(e)) → π_{L′}(γ_{G′;f′}(e))` when `L` keeps every column
//!   of `e` (a renaming, possibly with copies, merges no tuples); `G′` and
//!   `f′` read the sources. No rule moves a *narrowing* projection below
//!   `γ`: `γ` aggregates over distinct whole tuples.
//! * `a ⋉_K b → a ⋉_K π_{K_b}(b)` (and `▷`): the probed side is read on its
//!   key columns only.

use std::mem::{discriminant, Discriminant};

use crate::relation::FxHashMap;
use crate::{AggCall, AggFn, Attr, Expr, ExprKind, Pred, Relation, Result, Schema};

/// Simplify `expr` to a fixpoint. `base` supplies base-table schemas (needed
/// to recognize identity projections).
pub fn simplify(expr: &Expr, base: &dyn Fn(&str) -> Option<Schema>) -> Result<Expr> {
    let mut out = simplify_all(std::slice::from_ref(expr), base)?;
    Ok(out.pop().expect("one expression in, one out"))
}

/// [`simplify`] a batch of expressions that share subplans. The result is
/// a DAG in which structurally equal subplans are one node, so the
/// evaluator's node-identity memo evaluates each of them once:
///
/// * every pass maps each input node once, so a node shared within or
///   across the expressions yields one output node, and a pass takes time
///   linear in the DAG's node count;
/// * every output node is looked up by its operator, parameters and
///   children's identities (children are shared already, bottom-up), so two
///   input nodes that simplify to equal subplans — two references to one
///   table under one renaming, or `π_V(π_{D,V}(e))` next to `π_V(e)` —
///   come out as one node.
///
/// A pass that rewrites nothing returns every node itself, which ends the
/// iteration.
pub fn simplify_all(exprs: &[Expr], base: &dyn Fn(&str) -> Option<Schema>) -> Result<Vec<Expr>> {
    let mut pass = Pass {
        base,
        memo: FxHashMap::default(),
        shared: Shared::default(),
    };
    let mut cur = exprs.to_vec();
    let mut passes = 0;
    loop {
        pass.memo.clear();
        let next = cur
            .iter()
            .map(|e| pass.node(e))
            .collect::<Result<Vec<_>>>()?;
        passes += 1;
        let fixpoint = next.iter().zip(&cur).all(|(n, c)| n.id() == c.id());
        if fixpoint || passes == MAX_PASSES {
            debug_assert!(
                fixpoint,
                "simplify reached no fixpoint in {MAX_PASSES} passes: two rules undo each other"
            );
            return Ok(next);
        }
        cur = next;
    }
}

/// Passes after which [`simplify_all`] stops looking for a fixpoint. A plan
/// still changing after this many has two rules that undo each other: a
/// debug build panics on it, a release build returns the last pass's plan.
const MAX_PASSES: usize = 64;

/// The output nodes of [`simplify_all`] so far, by operator and children:
/// a node equal to one of them is replaced by it. Entries pin their nodes.
#[derive(Default)]
struct Shared {
    nodes: FxHashMap<Shape, Vec<Expr>>,
}

/// A node's operator and its children's identities.
type Shape = (Discriminant<ExprKind>, Option<usize>, Option<usize>);

impl Shared {
    fn share(&mut self, e: Expr) -> Expr {
        let key = {
            let mut ids = e.children().map(Expr::id);
            (discriminant(e.kind()), ids.next(), ids.next())
        };
        // Equal children are one node, so `==` compares parameters and
        // child identities only.
        let bucket = self.nodes.entry(key).or_default();
        match bucket.iter().find(|n| **n == e) {
            Some(n) => n.clone(),
            None => {
                bucket.push(e.clone());
                e
            }
        }
    }
}

/// One bottom-up pass: children first, then [`rewrite_node`] once per node.
/// The memo maps an input node's address to its output; it is cleared
/// before every pass, and the pass's input DAG outlives the pass, so no
/// address is reused while an entry is alive.
struct Pass<'a> {
    base: &'a dyn Fn(&str) -> Option<Schema>,
    memo: FxHashMap<usize, Expr>,
    shared: Shared,
}

impl Pass<'_> {
    fn node(&mut self, expr: &Expr) -> Result<Expr> {
        if let Some(hit) = self.memo.get(&expr.id()) {
            return Ok(hit.clone());
        }
        let e = self.rebuild_children(expr)?;
        let out = self.shared.share(rewrite_node(&e, self.base)?);
        self.memo.insert(expr.id(), out.clone());
        Ok(out)
    }

    /// `expr` over its simplified children: `expr` itself when none changed.
    fn rebuild_children(&mut self, expr: &Expr) -> Result<Expr> {
        let mut kids = [None, None];
        for (kid, c) in kids.iter_mut().zip(expr.children()) {
            *kid = Some(self.node(c)?);
        }
        let mut same = kids.iter().flatten().zip(expr.children());
        Ok(if same.all(|(k, c)| k.id() == c.id()) {
            expr.clone()
        } else {
            expr.with_children(kids.into_iter().flatten())
        })
    }
}

/// The eager-aggregation rule (see the module docs): `Some` with the
/// pre-aggregated plan when `expr` is `γ_{G;f}((L × R) ⋉_K M)` or its `▷`
/// form and the rule's side conditions hold.
fn eager_aggregation(expr: &Expr, base: &dyn Fn(&str) -> Option<Schema>) -> Option<Expr> {
    let ExprKind::Aggregate(group, aggs, input) = expr.kind() else {
        return None;
    };
    let (ExprKind::SemiJoin(on, pair, m) | ExprKind::AntiJoin(on, pair, m)) = input.kind() else {
        return None;
    };
    let ExprKind::Product(l, r) = pair.kind() else {
        return None;
    };
    // An `L` that is a `γ` (under renamings) is pre-aggregated already:
    // the rule would fire on its own output forever.
    let mut below = l.clone();
    while let Some((_, inner)) = as_projection(&below) {
        below = inner;
    }
    if matches!(below.kind(), ExprKind::Aggregate(..)) {
        return None;
    }
    let (ls, rs) = (l.infer_schema(base).ok()?, r.infer_schema(base).ok()?);
    let combine = |f: AggFn| match f {
        AggFn::Sum | AggFn::Count => Some(AggFn::Sum),
        AggFn::Min | AggFn::Max => Some(f),
        AggFn::Avg => None,
    };
    let outer: Vec<AggCall> = aggs
        .iter()
        .map(|a| {
            let from_l = a.arg.as_ref().is_none_or(|x| ls.contains(x));
            let f = combine(a.func).filter(|_| from_l)?;
            Some(AggCall::new(f, Some(a.out.clone()), a.out.clone()))
        })
        .collect::<Option<_>>()?;
    if !rs.attrs().iter().all(|a| group.contains(a)) {
        return None;
    }
    let keep: Vec<Attr> = ls
        .attrs()
        .iter()
        .filter(|a| group.contains(a) || on.iter().any(|(k, _)| k == *a))
        .cloned()
        .collect();
    let anti = matches!(input.kind(), ExprKind::AntiJoin(..));
    let pushed = l
        .aggregate(keep, aggs.clone())
        .product(r)
        .semijoin(m, on.clone(), anti)
        .aggregate(group.clone(), outer);
    // The partial results must not collide with a kept or an `R` column.
    let same = pushed.infer_schema(base).ok()? == expr.infer_schema(base).ok()?;
    same.then_some(pushed)
}

/// `γ_{G;f}(π_L(e)) → π_{L′}(γ_{G′;f′}(e))` when `L` keeps every column of
/// `e`, so that it merges no tuples.
fn aggregate_below_renaming(expr: &Expr, base: &dyn Fn(&str) -> Option<Schema>) -> Option<Expr> {
    let ExprKind::Aggregate(group, aggs, input) = expr.kind() else {
        return None;
    };
    let (list, e) = as_projection(input)?;
    let es = e.infer_schema(base).ok()?;
    if !es.attrs().iter().all(|a| list.iter().any(|(s, _)| s == a)) {
        return None;
    }
    let source = |a: &Attr| list.iter().find(|(_, d)| d == a).map(|(s, _)| s.clone());
    let mut inner_group: Vec<Attr> = Vec::new();
    let mut outer: Vec<(Attr, Attr)> = Vec::new();
    for g in group {
        let s = source(g)?;
        if !inner_group.contains(&s) {
            inner_group.push(s.clone());
        }
        outer.push((s, g.clone()));
    }
    let inner_aggs: Vec<AggCall> = aggs
        .iter()
        .map(|a| {
            let arg = match &a.arg {
                Some(x) => Some(source(x)?),
                None => None,
            };
            Some(AggCall::new(a.func, arg, a.out.clone()))
        })
        .collect::<Option<_>>()?;
    outer.extend(aggs.iter().map(|a| (a.out.clone(), a.out.clone())));
    let pushed = projection_expr(outer, e.aggregate(inner_group, inner_aggs));
    // An aggregate named like a kept source column keeps the original.
    let same = pushed.infer_schema(base).ok()? == expr.infer_schema(base).ok()?;
    same.then_some(pushed)
}

/// `a ⋉_K b → a ⋉_K π_{K_b}(b)`, and the same for `▷`, when `b` has more
/// columns than its keys.
fn probe_keys_only(expr: &Expr, base: &dyn Fn(&str) -> Option<Schema>) -> Option<Expr> {
    let (ExprKind::SemiJoin(on, a, b) | ExprKind::AntiJoin(on, a, b)) = expr.kind() else {
        return None;
    };
    let mut keys: Vec<Attr> = Vec::new();
    for (_, k) in on {
        if !keys.contains(k) {
            keys.push(k.clone());
        }
    }
    let bs = b.infer_schema(base).ok()?;
    if keys.is_empty() || bs.arity() == keys.len() || !bs.contains_all(&keys) {
        return None;
    }
    let anti = matches!(expr.kind(), ExprKind::AntiJoin(..));
    Some(a.semijoin(&b.project(keys), on.clone(), anti))
}

fn is_unit(e: &Expr) -> bool {
    matches!(e.kind(), ExprKind::Lit(rel) if **rel == Relation::unit())
}

/// View a node as a generalized projection list, if it is one.
fn as_projection(e: &Expr) -> Option<(Vec<(Attr, Attr)>, Expr)> {
    match e.kind() {
        ExprKind::Project(attrs, inner) => Some((
            attrs.iter().map(|a| (a.clone(), a.clone())).collect(),
            inner.clone(),
        )),
        ExprKind::ProjectAs(list, inner) => Some((list.clone(), inner.clone())),
        _ => None,
    }
}

fn projection_expr(list: Vec<(Attr, Attr)>, inner: Expr) -> Expr {
    if list.iter().all(|(s, d)| s == d) {
        inner.project(list.into_iter().map(|(_, d)| d).collect())
    } else {
        inner.project_as(list)
    }
}

fn rewrite_node(expr: &Expr, base: &dyn Fn(&str) -> Option<Schema>) -> Result<Expr> {
    // σ_true(e) → e
    if let ExprKind::Select(Pred::True, e) = expr.kind() {
        return Ok(e.clone());
    }

    for rule in [eager_aggregation, aggregate_below_renaming, probe_keys_only] {
        if let Some(rewritten) = rule(expr, base) {
            return Ok(rewritten);
        }
    }

    // e × {⟨⟩} → e ; {⟨⟩} × e → e ; same for natural join with unit.
    match expr.kind() {
        ExprKind::Product(a, b) | ExprKind::NaturalJoin(a, b) => {
            if is_unit(a) {
                return Ok(b.clone());
            }
            if is_unit(b) {
                return Ok(a.clone());
            }
        }
        _ => {}
    }

    // A natural join of operands sharing no attribute is a product, which
    // `opt::optimize_joins` can pair with the selection above it into a
    // hash equi-join instead of materializing it.
    if let ExprKind::NaturalJoin(a, b) = expr.kind() {
        if let (Ok(sa), Ok(sb)) = (a.infer_schema(base), b.infer_schema(base)) {
            if sa.common(&sb).is_empty() {
                return Ok(a.product(b));
            }
        }
    }

    // A selection sinks below a projection producing every attribute it
    // reads (re-sourced through the projection list), so that it meets a
    // product below and `opt::optimize_joins` can pair them.
    if let ExprKind::Select(p, inner) = expr.kind() {
        if let Some((list, e)) = as_projection(inner) {
            let source = |a: &Attr| list.iter().find(|(_, d)| d == a).map(|(s, _)| s.clone());
            if p.attrs().iter().all(|a| source(a).is_some()) {
                let sunk = p.rename_attrs(&|a| source(a).expect("every attribute has a source"));
                return Ok(projection_expr(list, e.select(sunk)));
            }
        }
    }

    // Projection chain fusion: π_L1(π_L2(e)) → π_{L1 ∘ L2}(e).
    if let Some((l1, inner)) = as_projection(expr) {
        if let Some((l2, inner2)) = as_projection(&inner) {
            let mut fused = Vec::with_capacity(l1.len());
            let mut ok = true;
            for (s1, d1) in &l1 {
                match l2.iter().find(|(_, d2)| d2 == s1) {
                    Some((s2, _)) => fused.push((s2.clone(), d1.clone())),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return Ok(projection_expr(fused, inner2));
            }
        }

        // Identity projection over a known schema disappears.
        if let Ok(schema) = inner.infer_schema(base) {
            let identical = l1.len() == schema.arity()
                && l1
                    .iter()
                    .zip(schema.attrs())
                    .all(|((s, d), a)| s == d && s == a);
            if identical {
                return Ok(inner);
            }
        }

        // Normalize all-identity ProjectAs to Project.
        if matches!(expr.kind(), ExprKind::ProjectAs(_, _)) && l1.iter().all(|(s, d)| s == d) {
            return Ok(inner.project(l1.into_iter().map(|(_, d)| d).collect()));
        }
    }

    // Renaming elimination across division: if both operands are projections
    // from which the divisor renames column `s` to `d` consistently, and `d`
    // is divided away, the rename is unobservable.
    if let ExprKind::Divide(l, r) = expr.kind() {
        if let (Some((l1, e1)), Some((l2, e2))) = (as_projection(l), as_projection(r)) {
            let renames: Vec<(Attr, Attr)> = l2.iter().filter(|(s, d)| s != d).cloned().collect();
            if !renames.is_empty() && renames.iter().all(|p| l1.contains(p)) {
                // Substituting d→s must not create duplicate outputs.
                let sub = |list: &[(Attr, Attr)]| -> Option<Vec<(Attr, Attr)>> {
                    let new: Vec<(Attr, Attr)> = list
                        .iter()
                        .map(|(s, d)| {
                            let nd = renames
                                .iter()
                                .find(|(_, rd)| rd == d)
                                .map(|(rs, _)| rs.clone())
                                .unwrap_or_else(|| d.clone());
                            (s.clone(), nd)
                        })
                        .collect();
                    let names: Vec<&Attr> = new.iter().map(|(_, d)| d).collect();
                    for (i, n) in names.iter().enumerate() {
                        if names[..i].contains(n) {
                            return None;
                        }
                    }
                    Some(new)
                };
                if let (Some(n1), Some(n2)) = (sub(&l1), sub(&l2)) {
                    return Ok(projection_expr(n1, e1).divide(&projection_expr(n2, e2)));
                }
            }
        }
    }

    // Projection over a renaming fuses: the projection re-sources its
    // columns through the rename map. Sound only when the rename itself is
    // valid — fusing must not turn an erroring plan into a succeeding one,
    // so the rename's output schema is checked for duplicates first (a
    // rename target colliding with an existing attribute, or a projected
    // column renamed away, keeps the original erroring plan).
    if let Some((l1, inner)) = as_projection(expr) {
        if let ExprKind::Rename(map, e2) = inner.kind() {
            let rename_is_valid = e2.infer_schema(base).is_ok_and(|s2| {
                let renamed: Vec<Attr> = s2
                    .attrs()
                    .iter()
                    .map(|a| {
                        map.iter()
                            .find(|(src, _)| src == a)
                            .map(|(_, d)| d.clone())
                            .unwrap_or_else(|| a.clone())
                    })
                    .collect();
                Schema::try_new(renamed).is_some()
            });
            if rename_is_valid {
                let fused: Option<Vec<(Attr, Attr)>> = l1
                    .iter()
                    .map(|(s, d)| {
                        if let Some((orig, _)) = map.iter().find(|(_, md)| md == s) {
                            Some((orig.clone(), d.clone()))
                        } else if map.iter().any(|(ms, _)| ms == s) {
                            None // `s` was renamed away; the projection is invalid.
                        } else {
                            Some((s.clone(), d.clone()))
                        }
                    })
                    .collect();
                if let Some(list) = fused {
                    return Ok(projection_expr(list, e2.clone()));
                }
            }
        }
    }

    // Renaming over a projection fuses into the projection's output names,
    // when every renamed column is actually produced.
    if let ExprKind::Rename(map, e) = expr.kind() {
        if let Some((l1, inner)) = as_projection(e) {
            if map.iter().all(|(s, _)| l1.iter().any(|(_, d)| d == s)) {
                let list: Vec<(Attr, Attr)> = l1
                    .iter()
                    .map(|(s, d)| {
                        let nd = map
                            .iter()
                            .find(|(ms, _)| ms == d)
                            .map(|(_, md)| md.clone())
                            .unwrap_or_else(|| d.clone());
                        (s.clone(), nd)
                    })
                    .collect();
                return Ok(projection_expr(list, inner));
            }
        }

        // A renaming of quotient attributes pushes into the dividend:
        // division groups on the divisor's attributes, which the rename
        // must not touch (sources or targets) for the push to commute.
        if let ExprKind::Divide(a, b) = e.kind() {
            if let Ok(bs) = b.infer_schema(base) {
                let clear = map.iter().all(|(s, d)| !bs.contains(s) && !bs.contains(d));
                if clear {
                    return Ok(a.rename(map.clone()).divide(b));
                }
            }
        }

        if map.iter().all(|(s, d)| s == d) {
            // Empty rename map disappears; rename of nothing-changed
            // disappears.
            return Ok(e.clone());
        }
    }

    Ok(expr.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attr, attrs, Catalog};

    fn base(name: &str) -> Option<Schema> {
        match name {
            "HFlights" => Some(Schema::of(&["Dep", "Arr"])),
            _ => None,
        }
    }

    #[test]
    fn select_true_removed() {
        let e = Expr::table("HFlights").select(Pred::True);
        assert_eq!(simplify(&e, &base).unwrap(), Expr::table("HFlights"));
    }

    #[test]
    fn unit_product_removed() {
        let e = Expr::lit(Relation::unit()).product(&Expr::table("HFlights"));
        assert_eq!(simplify(&e, &base).unwrap(), Expr::table("HFlights"));
    }

    #[test]
    fn projection_chains_fuse() {
        let e = Expr::table("HFlights")
            .project_as(vec![
                (attr("Dep"), attr("Dep")),
                (attr("Arr"), attr("Arr")),
                (attr("Dep"), attr("V.Dep")),
            ])
            .project(attrs(&["Arr", "V.Dep"]));
        let s = simplify(&e, &base).unwrap();
        assert_eq!(
            s,
            Expr::table("HFlights").project_as(vec![
                (attr("Arr"), attr("Arr")),
                (attr("Dep"), attr("V.Dep"))
            ])
        );
    }

    #[test]
    fn disjoint_natural_join_becomes_a_product() {
        let base2 = |name: &str| -> Option<Schema> {
            match name {
                "HFlights" => Some(Schema::of(&["Dep", "Arr"])),
                "Hotels" => Some(Schema::of(&["Name", "City"])),
                _ => None,
            }
        };
        let (f, h) = (Expr::table("HFlights"), Expr::table("Hotels"));
        assert_eq!(
            simplify(&f.natural_join(&h), &base2).unwrap(),
            f.product(&h)
        );
        // Sharing an attribute, it stays a join.
        let g = h.rename(vec![(attr("City"), attr("Arr"))]);
        let joined = f.natural_join(&g);
        assert_eq!(simplify(&joined, &base2).unwrap(), joined);
    }

    #[test]
    fn selection_sinks_below_a_projection_producing_its_attributes() {
        let hf = Expr::table("HFlights");
        let e = hf
            .project_as(vec![(attr("Dep"), attr("D")), (attr("Arr"), attr("A"))])
            .select(Pred::eq_const("D", "FRA"));
        let s = simplify(&e, &base).unwrap();
        assert_eq!(
            s,
            hf.select(Pred::eq_const("Dep", "FRA"))
                .project_as(vec![(attr("Dep"), attr("D")), (attr("Arr"), attr("A"))])
        );
        // A selection on an attribute the projection drops keeps erroring.
        let bad = hf
            .project(attrs(&["Arr"]))
            .select(Pred::eq_const("Dep", "FRA"));
        assert_eq!(simplify(&bad, &base).unwrap(), bad);
        let mut c = Catalog::new();
        c.put(
            "HFlights",
            Relation::table(&["Dep", "Arr"], &[&["FRA", "BCN"]]),
        );
        assert!(c.eval(&bad).is_err());
        assert_eq!(c.eval(&e).unwrap(), c.eval(&s).unwrap());
    }

    #[test]
    fn identity_projection_removed() {
        let e = Expr::table("HFlights").project(attrs(&["Dep", "Arr"]));
        assert_eq!(simplify(&e, &base).unwrap(), Expr::table("HFlights"));
    }

    #[test]
    fn example_5_8_shape() {
        // What the optimized translation produces for
        // cert(π_Arr(χ_Dep(HFlights))) before cleanup …
        let hf = Expr::table("HFlights");
        let with_id = hf.project_as(vec![
            (attr("Dep"), attr("Dep")),
            (attr("Arr"), attr("Arr")),
            (attr("Dep"), attr("#1.Dep")),
        ]);
        let ans = with_id.project(attrs(&["Arr", "#1.Dep"]));
        let dom = hf.project_as(vec![(attr("Dep"), attr("#1.Dep"))]);
        let e = ans.divide(&dom);

        // … simplifies to the paper's π{Arr,Dep}(HFlights) ÷ π{Dep}(HFlights).
        let s = simplify(&e, &base).unwrap();
        let target = hf
            .project(attrs(&["Arr", "Dep"]))
            .divide(&hf.project(attrs(&["Dep"])));
        assert_eq!(s, target);
        assert_eq!(s.to_string(), "(π{Arr,Dep}(HFlights) ÷ π{Dep}(HFlights))");
    }

    #[test]
    fn qualification_renames_collapse_to_the_paper_plan() {
        // The I-SQL compiler qualifies columns (`δ{Dep→H.Dep,…}`) and
        // renames the output back to bare names; the fusion rules must
        // recover Example 5.8's clean division plan.
        let hf = Expr::table("HFlights");
        let q = hf.rename(vec![
            (attr("Dep"), attr("H.Dep")),
            (attr("Arr"), attr("H.Arr")),
        ]);
        let plan = q
            .project(attrs(&["H.Arr", "H.Dep"]))
            .divide(&q.project_as(vec![(attr("H.Dep"), attr("H.Dep"))]))
            .rename(vec![(attr("H.Arr"), attr("Arr"))]);
        let s = simplify(&plan, &base).unwrap();
        assert_eq!(s.to_string(), "(π{Arr,Dep}(HFlights) ÷ π{Dep}(HFlights))");
    }

    #[test]
    fn project_over_colliding_rename_keeps_erroring() {
        // π{B}(δ{A→B}(HFlights-like R with columns A,B)): the rename target
        // collides with the existing B, so the plan is invalid — fusion
        // must not quietly produce the valid π{A as B}(R).
        let base2 =
            |name: &str| -> Option<Schema> { (name == "R").then(|| Schema::of(&["A", "B"])) };
        let bad = Expr::table("R")
            .rename(vec![(attr("A"), attr("B"))])
            .project(attrs(&["B"]));
        let s = simplify(&bad, &base2).unwrap();
        let mut c = Catalog::new();
        c.put("R", Relation::table(&["A", "B"], &[&[1i64, 2]]));
        assert!(c.eval(&s).is_err());
    }

    #[test]
    fn project_over_renamed_away_column_keeps_erroring() {
        // π{Dep}(δ{Dep→X}(HFlights)) is invalid (Dep no longer exists);
        // fusion must not quietly turn it into a valid plan.
        let bad = Expr::table("HFlights")
            .rename(vec![(attr("Dep"), attr("X"))])
            .project(attrs(&["Dep"]));
        let s = simplify(&bad, &base).unwrap();
        let mut c = Catalog::new();
        c.put(
            "HFlights",
            Relation::table(&["Dep", "Arr"], &[&["FRA", "BCN"]]),
        );
        assert!(c.eval(&s).is_err());
    }

    #[test]
    fn simplification_preserves_semantics() {
        let mut c = Catalog::new();
        c.put(
            "HFlights",
            Relation::table(
                &["Dep", "Arr"],
                &[&["FRA", "BCN"], &["FRA", "ATL"], &["PAR", "ATL"]],
            ),
        );
        let hf = Expr::table("HFlights");
        let noisy = hf
            .project_as(vec![
                (attr("Dep"), attr("Dep")),
                (attr("Arr"), attr("Arr")),
                (attr("Dep"), attr("#1.Dep")),
            ])
            .project(attrs(&["Arr", "#1.Dep"]))
            .divide(&hf.project_as(vec![(attr("Dep"), attr("#1.Dep"))]))
            .select(Pred::True);
        let simplified = simplify(&noisy, &|n| c.schema_of(n)).unwrap();
        assert_eq!(c.eval(&noisy).unwrap(), c.eval(&simplified).unwrap());
    }
}
