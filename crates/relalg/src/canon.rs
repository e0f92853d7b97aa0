//! Canonical forms and structural hashing for relational expressions.
//!
//! Two expression DAGs that are *structurally* different can still denote
//! the exact same relation — the Figure-6 translation in particular builds
//! the same base-table join once per copied table, each time as a fresh
//! node. [`canonical`] maps an [`Expr`] to a normal form whose equality
//! implies **result identity** (same schema, same column order, same
//! tuples), together with a structural hash of that form. The evaluator
//! ([`crate::EvalCache`]) keys results by this canonical form, which turns
//! node-identity memoization into common-subexpression elimination within
//! one evaluation.
//!
//! The normalizations are deliberately restricted to rewrites that preserve
//! the output relation *exactly* (including attribute order, which in this
//! engine is part of a relation's value):
//!
//! * `σ_true(e) → e`, and adjacent selections fuse into one selection whose
//!   conjuncts are flattened and sorted (conjunction is commutative and a
//!   selection never changes the schema);
//! * adjacent (generalized) projections compose into a single generalized
//!   projection; plain `π` and all-identity `π_{a as a}` normalize to the
//!   same node;
//! * identity pairs are dropped from renamings, and an empty renaming
//!   disappears;
//! * `∪`/`∩` trees are flattened; the *first* operand stays first (it
//!   determines the output attribute order — [`crate::Relation::union`]
//!   aligns the right side to the left schema) and the remaining operands
//!   are sorted by canonical hash (set union/intersection are associative
//!   and commutative on the aligned tuple sets).
//!
//! Products, joins and differences keep their operand order: swapping them
//! changes the output column order (or the result itself), so they are
//! never normalized across.
//!
//! Canonicalization is memoized by node identity in a map that lives
//! as long as its owner — one [`crate::EvalCache`], or one [`canonical`]
//! call — so a shared DAG canonicalizes in time linear in its node count,
//! and nothing outlives the evaluation that built it.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::{Attr, Expr, ExprKind, Pred};

/// A canonicalized expression: the normal form and its structural hash.
/// Equal `(hash, expr)` pairs denote identical result relations.
#[derive(Clone, Debug)]
pub struct CanonExpr {
    /// The canonical form (compare with `==` after a hash match).
    pub expr: Expr,
    /// Structural hash of the canonical form.
    pub hash: u64,
}

/// Canonicalization memo: raw node address → (pinned node, canonical
/// form). Pinning the node keeps its address from being freed and reused
/// for another node while the memo is alive.
pub(crate) type Memo = HashMap<usize, (Expr, CanonExpr)>;

/// Canonicalize `e` (memoized by node identity for this call).
pub fn canonical(e: &Expr) -> CanonExpr {
    canon_rec(e, &mut Memo::new())
}

/// Canonicalize `e` through the caller's memo.
pub(crate) fn canon_rec(e: &Expr, memo: &mut Memo) -> CanonExpr {
    if let Some((_, hit)) = memo.get(&e.id()) {
        return hit.clone();
    }
    let out = build_canon(e, memo);
    // The canonical node maps to itself, so canonicalizing a canonical
    // expression is a lookup.
    memo.insert(out.expr.id(), (out.expr.clone(), out.clone()));
    memo.insert(e.id(), (e.clone(), out.clone()));
    out
}

fn build_canon(e: &Expr, memo: &mut Memo) -> CanonExpr {
    match e.kind() {
        ExprKind::Table(name) => finish(e.clone(), |h| {
            0u8.hash(h);
            name.hash(h);
        }),
        ExprKind::Lit(rel) => finish(e.clone(), |h| {
            1u8.hash(h);
            // Content hash: equal literal relations share a key even
            // across distinct allocations (the translation builds the same
            // literal world table more than once).
            rel.schema().attrs().hash(h);
            rel.tuples().hash(h);
        }),

        ExprKind::Select(p, inner) => {
            let c = canon_rec(inner, memo);
            // Fuse through an inner canonical selection, flatten + sort the
            // conjuncts (σ never changes the schema; ∧ is commutative).
            let (base, mut conjuncts) = match c.expr.kind() {
                ExprKind::Select(p2, e2) => (e2.clone(), p2.conjuncts()),
                _ => (c.expr.clone(), Vec::new()),
            };
            conjuncts.extend(p.conjuncts());
            conjuncts.retain(|p| *p != Pred::True);
            conjuncts.sort();
            conjuncts.dedup();
            if conjuncts.is_empty() {
                // σ_true(e) = e.
                return canon_rec(&base, memo);
            }
            let fused = conjuncts
                .into_iter()
                .reduce(|a, b| a.and(b))
                .expect("non-empty");
            let cb = canon_rec(&base, memo);
            let expr = cb.expr.select(fused.clone());
            finish(expr, |h| {
                2u8.hash(h);
                fused.hash(h);
                cb.hash.hash(h);
            })
        }

        ExprKind::Project(attrs, inner) => {
            let list: Vec<(Attr, Attr)> = attrs.iter().map(|a| (a.clone(), a.clone())).collect();
            canon_projection(list, inner, memo)
        }
        ExprKind::ProjectAs(list, inner) => canon_projection(list.clone(), inner, memo),

        ExprKind::Rename(map, inner) => {
            let c = canon_rec(inner, memo);
            let map: Vec<(Attr, Attr)> = map.iter().filter(|(s, d)| s != d).cloned().collect();
            if map.is_empty() {
                return c;
            }
            let expr = c.expr.rename(map.clone());
            finish(expr, |h| {
                3u8.hash(h);
                map.hash(h);
                c.hash.hash(h);
            })
        }

        ExprKind::Union(_, _) | ExprKind::Intersect(_, _) => {
            let is_union = matches!(e.kind(), ExprKind::Union(_, _));
            // Flatten the same-operator tree. The leftmost operand stays
            // first (it fixes the output attribute order); the rest sort by
            // canonical hash.
            let mut operands = Vec::new();
            flatten_setop(e, is_union, &mut operands);
            let mut canons: Vec<CanonExpr> = operands.iter().map(|o| canon_rec(o, memo)).collect();
            let first = canons.remove(0);
            canons.sort_by_key(|c| c.hash);
            // Both operators are idempotent (e ∪ e = e ∩ e = e): duplicate
            // operands — including copies of the head — are redundant.
            canons.dedup_by(|a, b| a.hash == b.hash && a.expr == b.expr);
            canons.retain(|c| !(c.hash == first.hash && c.expr == first.expr));
            if canons.is_empty() {
                // e ∪ e = e ∩ e = e: the node collapses to its (canonical)
                // head operand, hash and all.
                return first;
            }
            let mut expr = first.expr.clone();
            let mut hashes = vec![first.hash];
            for c in &canons {
                expr = if is_union {
                    expr.union(&c.expr)
                } else {
                    expr.intersect(&c.expr)
                };
                hashes.push(c.hash);
            }
            finish(expr, |h| {
                if is_union { 4u8 } else { 5u8 }.hash(h);
                hashes.hash(h);
            })
        }

        ExprKind::Difference(a, b) => binary_canon(e, a, b, 6, memo),
        ExprKind::Product(a, b) => binary_canon(e, a, b, 7, memo),
        ExprKind::NaturalJoin(a, b) => binary_canon(e, a, b, 8, memo),
        ExprKind::Divide(a, b) => binary_canon(e, a, b, 9, memo),
        ExprKind::OuterPadJoin(a, b) => binary_canon(e, a, b, 10, memo),
        ExprKind::Aggregate(group, aggs, inner) => {
            let c = canon_rec(inner, memo);
            let expr = c.expr.aggregate(group.clone(), aggs.clone());
            finish(expr, |h| {
                13u8.hash(h);
                group.hash(h);
                aggs.hash(h);
                c.hash.hash(h);
            })
        }
        ExprKind::SemiJoin(on, a, b) | ExprKind::AntiJoin(on, a, b) => {
            let anti = matches!(e.kind(), ExprKind::AntiJoin(..));
            let ca = canon_rec(a, memo);
            let cb = canon_rec(b, memo);
            let expr = ca.expr.semijoin(&cb.expr, on.clone(), anti);
            finish(expr, |h| {
                if anti { 15u8 } else { 14u8 }.hash(h);
                on.hash(h);
                ca.hash.hash(h);
                cb.hash.hash(h);
            })
        }
        ExprKind::ThetaJoin(p, a, b) => {
            let ca = canon_rec(a, memo);
            let cb = canon_rec(b, memo);
            // Sort the predicate's conjuncts (conjunction commutes).
            let mut conjuncts = p.conjuncts();
            conjuncts.retain(|x| *x != Pred::True);
            conjuncts.sort();
            conjuncts.dedup();
            let pred = conjuncts
                .into_iter()
                .reduce(|x, y| x.and(y))
                .unwrap_or(Pred::True);
            let expr = ca.expr.theta_join(&cb.expr, pred.clone());
            finish(expr, |h| {
                11u8.hash(h);
                pred.hash(h);
                ca.hash.hash(h);
                cb.hash.hash(h);
            })
        }
    }
}

/// Canonicalize a (generalized) projection, composing through an inner
/// canonical projection when every source is produced by it.
fn canon_projection(list: Vec<(Attr, Attr)>, inner: &Expr, memo: &mut Memo) -> CanonExpr {
    let c = canon_rec(inner, memo);
    let (list, base) = match c.expr.kind() {
        ExprKind::ProjectAs(inner_list, inner_base) => {
            let composed: Option<Vec<(Attr, Attr)>> = list
                .iter()
                .map(|(s, d)| {
                    inner_list
                        .iter()
                        .find(|(_, d2)| d2 == s)
                        .map(|(s2, _)| (s2.clone(), d.clone()))
                })
                .collect();
            match composed {
                Some(fused) => (fused, inner_base.clone()),
                None => (list, c.expr.clone()),
            }
        }
        _ => (list, c.expr.clone()),
    };
    let cb = canon_rec(&base, memo);
    // Canonical representation: always `ProjectAs` (a plain `Project` is
    // the all-identity special case).
    let expr = cb.expr.project_as(list.clone());
    finish(expr, |h| {
        12u8.hash(h);
        list.hash(h);
        cb.hash.hash(h);
    })
}

fn binary_canon(e: &Expr, a: &Expr, b: &Expr, tag: u8, memo: &mut Memo) -> CanonExpr {
    let ca = canon_rec(a, memo);
    let cb = canon_rec(b, memo);
    let expr = match e.kind() {
        ExprKind::Difference(_, _) => ca.expr.difference(&cb.expr),
        ExprKind::Product(_, _) => ca.expr.product(&cb.expr),
        ExprKind::NaturalJoin(_, _) => ca.expr.natural_join(&cb.expr),
        ExprKind::Divide(_, _) => ca.expr.divide(&cb.expr),
        ExprKind::OuterPadJoin(_, _) => ca.expr.outer_pad_join(&cb.expr),
        _ => unreachable!("binary_canon covers the plain binary operators"),
    };
    finish(expr, |h| {
        tag.hash(h);
        ca.hash.hash(h);
        cb.hash.hash(h);
    })
}

fn finish(
    expr: Expr,
    hash_parts: impl FnOnce(&mut std::collections::hash_map::DefaultHasher),
) -> CanonExpr {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    hash_parts(&mut h);
    CanonExpr {
        expr,
        hash: h.finish(),
    }
}

/// Flatten nested applications of the same set operator, left to right.
fn flatten_setop(e: &Expr, is_union: bool, out: &mut Vec<Expr>) {
    match e.kind() {
        ExprKind::Union(a, b) if is_union => {
            flatten_setop(a, is_union, out);
            flatten_setop(b, is_union, out);
        }
        ExprKind::Intersect(a, b) if !is_union => {
            flatten_setop(a, is_union, out);
            flatten_setop(b, is_union, out);
        }
        _ => out.push(e.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attr, attrs, Catalog, Relation};

    fn key(e: &Expr) -> (u64, Expr) {
        let c = canonical(e);
        (c.hash, c.expr)
    }

    #[test]
    fn structurally_identical_dags_share_a_key() {
        let a = Expr::table("R")
            .select(Pred::eq_const("A", 1))
            .project(attrs(&["B"]));
        let b = Expr::table("R")
            .select(Pred::eq_const("A", 1))
            .project(attrs(&["B"]));
        assert!(!std::ptr::eq(a.kind(), b.kind()));
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn selection_conjunct_order_is_normalized() {
        let p1 = Pred::eq_const("A", 1);
        let p2 = Pred::eq_const("B", 2);
        let a = Expr::table("R").select(p1.clone().and(p2.clone()));
        let b = Expr::table("R").select(p2.clone().and(p1.clone()));
        let c = Expr::table("R").select(p2).select(p1);
        assert_eq!(key(&a), key(&b));
        assert_eq!(key(&a), key(&c));
    }

    #[test]
    fn select_true_is_identity() {
        let a = Expr::table("R").select(Pred::True);
        assert_eq!(key(&a), key(&Expr::table("R")));
    }

    #[test]
    fn projection_chains_compose() {
        let a = Expr::table("R")
            .project(attrs(&["A", "B"]))
            .project(attrs(&["A"]));
        let b = Expr::table("R").project(attrs(&["A"]));
        assert_eq!(key(&a), key(&b));
        // project and an all-identity project_as normalize together.
        let c = Expr::table("R").project_as(vec![(attr("A"), attr("A"))]);
        assert_eq!(key(&b), key(&c));
    }

    #[test]
    fn union_flattens_and_sorts_the_tail() {
        let (r, s, t) = (Expr::table("R"), Expr::table("S"), Expr::table("T"));
        let a = r.union(&s).union(&t);
        let b = r.union(&t.union(&s));
        assert_eq!(key(&a), key(&b));
        // The head operand is pinned: it determines the output column order.
        let c = s.union(&r).union(&t);
        assert_ne!(key(&a).0, key(&c).0);
    }

    #[test]
    fn union_duplicate_operands_collapse() {
        let r = Expr::table("R");
        let dup = r.union(&Expr::table("R"));
        assert_eq!(
            key(&dup),
            key(&r.union(&Expr::table("R")).union(&Expr::table("R")))
        );
    }

    #[test]
    fn products_keep_operand_order() {
        let a = Expr::table("R").product(&Expr::table("S"));
        let b = Expr::table("S").product(&Expr::table("R"));
        assert_ne!(key(&a).0, key(&b).0);
    }

    #[test]
    fn rename_identity_pairs_drop() {
        let a = Expr::table("R").rename(vec![(attr("A"), attr("A"))]);
        assert_eq!(key(&a), key(&Expr::table("R")));
        let b = Expr::table("R").rename(vec![(attr("A"), attr("A")), (attr("B"), attr("X"))]);
        let c = Expr::table("R").rename(vec![(attr("B"), attr("X"))]);
        assert_eq!(key(&b), key(&c));
    }

    #[test]
    fn equal_literals_share_a_key_across_allocations() {
        let a = Expr::lit(Relation::unit());
        let b = Expr::lit(Relation::unit());
        assert_eq!(key(&a), key(&b));
    }

    /// The canonical form denotes the same relation as the original — the
    /// property every normalization above must preserve.
    #[test]
    fn canonical_form_is_result_identical() {
        let mut c = Catalog::new();
        c.put(
            "R",
            Relation::table(&["A", "B"], &[&[1i64, 2], &[2, 3], &[2, 4]]),
        );
        c.put("S", Relation::table(&["A", "B"], &[&[2i64, 3], &[9, 9]]));
        let exprs = vec![
            Expr::table("R")
                .select(Pred::eq_const("A", 2))
                .select(Pred::eq_const("B", 3)),
            Expr::table("R")
                .project_as(vec![
                    (attr("A"), attr("A")),
                    (attr("B"), attr("B")),
                    (attr("A"), attr("A2")),
                ])
                .project(attrs(&["A2", "B"])),
            Expr::table("R")
                .union(&Expr::table("S"))
                .union(&Expr::table("S")),
            Expr::table("R").intersect(&Expr::table("S")),
            Expr::table("R").select(Pred::True),
        ];
        for e in exprs {
            let canon = canonical(&e).expr;
            assert_eq!(
                c.eval(&e).unwrap(),
                c.eval(&canon).unwrap(),
                "canonical form changed the result of {e}"
            );
        }
    }
}
