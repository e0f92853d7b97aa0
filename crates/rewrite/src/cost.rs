//! A simple cost model for WSA logical plans.
//!
//! The dominant cost driver in possible-worlds evaluation is world-set
//! machinery: `χ` multiplies worlds, the grouping operators scan and
//! partition all worlds, `poss`/`cert` scan all worlds once, and
//! `repair-by-key` is exponential. Relational operators are cheap, with a
//! discount for a selection applied directly on top of a product (a join,
//! cf. Figures 8(b)/9(b)).

use wsa::Query;

use crate::rules::RewriteCtx;

/// Operator weights (dimensionless; only the ordering matters).
const W_REL: u64 = 1;
const W_UNARY: u64 = 1;
const W_PRODUCT: u64 = 10;
const W_JOIN: u64 = 5;
const W_SETOP: u64 = 3;
const W_CHOICE: u64 = 20;
const W_GROUP: u64 = 40;
const W_CLOSE: u64 = 5;
const W_REPAIR: u64 = 1000;

/// Estimated cost of a logical plan.
pub fn cost(q: &Query) -> u64 {
    match q {
        Query::Rel(_) => W_REL,
        // σ directly over × is a join: discounted.
        Query::Select(_, inner) => match inner.as_ref() {
            Query::Product(a, b) => W_JOIN + cost(a) + cost(b),
            _ => W_UNARY + cost(inner),
        },
        Query::Project(_, inner)
        | Query::Rename(_, inner)
        | Query::Aggregate { input: inner, .. } => W_UNARY + cost(inner),
        Query::Product(a, b) => W_PRODUCT + cost(a) + cost(b),
        Query::SemiJoin { left, right, .. } => W_JOIN + cost(left) + cost(right),
        Query::Union(a, b) | Query::Intersect(a, b) | Query::Difference(a, b) => {
            W_SETOP + cost(a) + cost(b)
        }
        Query::Choice(_, inner) => W_CHOICE + cost(inner),
        Query::Poss(inner) | Query::Cert(inner) => W_CLOSE + cost(inner),
        Query::PossGroup { input, .. } | Query::CertGroup { input, .. } => W_GROUP + cost(input),
        Query::RepairKey(_, inner) => W_REPAIR + cost(inner),
    }
}

/// Context-aware cost: the operator-weight model when the context has no
/// cardinality source (bit-for-bit the behavior [`cost`] always had — the
/// Figure-8/9 derivations and their tests are unchanged), the
/// cardinality-estimated model when it has row counts or full measured
/// statistics ([`RewriteCtx::with_cards`] / [`RewriteCtx::with_stats`]).
pub fn cost_ctx(q: &Query, ctx: &RewriteCtx) -> u64 {
    if ctx.has_cards() {
        estimate(q, ctx).cost
    } else {
        cost(q)
    }
}

/// Default cardinality for base relations the lookup cannot size.
const DEFAULT_CARD: u64 = 64;

/// A cardinality estimate for a plan: per-world answer rows, the number of
/// worlds the plan's machinery maintains, and accumulated work. Work is
/// charged per world (`worlds × rows touched`), which is exactly what makes
/// the Figure-3 semantics expensive: `χ` multiplies `worlds`, the closures
/// collapse it back to 1.
#[derive(Clone, Copy, Debug)]
pub struct Estimate {
    /// Estimated answer rows per world.
    pub rows: u64,
    /// Estimated number of worlds carried.
    pub worlds: u64,
    /// Accumulated work estimate.
    pub cost: u64,
}

fn sat(a: u64, b: u64) -> u64 {
    a.saturating_add(b)
}

/// Estimate `q` bottom-up from the context's base-table cardinalities
/// (measured statistics when present, caller-supplied row counts
/// otherwise).
pub fn estimate(q: &Query, ctx: &RewriteCtx) -> Estimate {
    let card = |name: &str| -> u64 { ctx.rows_of(name).unwrap_or(DEFAULT_CARD).max(1) };
    match q {
        Query::Rel(name) => {
            let rows = card(name);
            Estimate {
                rows,
                worlds: 1,
                cost: rows,
            }
        }

        Query::Select(p, inner) => {
            // A selection directly over a product is the join path: cross
            // -side equi-conjuncts hash-join the operands, everything else
            // filters the pairing output. Single-side conjuncts left here
            // (instead of pushed into the operands) pay for the full
            // pairing first — which is what makes `selection-before-
            // product` profitable.
            if let Query::Product(a, b) = inner.as_ref() {
                let ia = estimate(a, ctx);
                let ib = estimate(b, ctx);
                let worlds = ia.worlds.saturating_mul(ib.worlds);
                let conjuncts = p.conjuncts();
                let (aa, bb) = (ctx.attrs_of(a), ctx.attrs_of(b));
                let mut has_cross = false;
                // With measured statistics, an equi-join's output is
                // estimated as |A|·|B| / max(d(x), d(y)) over the join
                // columns' distinct counts; the divisor accumulates across
                // cross conjuncts.
                let mut join_divisor: u64 = 1;
                let mut residual: u64 = 0;
                for c in &conjuncts {
                    let attrs = c.attrs();
                    let is_cross = match (&aa, &bb) {
                        (Some(aa), Some(bb)) => {
                            attrs.iter().any(|x| aa.contains(x))
                                && attrs.iter().any(|x| bb.contains(x))
                        }
                        _ => !attrs.is_empty(),
                    };
                    if is_cross {
                        has_cross = true;
                        let d = attrs
                            .iter()
                            .filter_map(|x| {
                                ctx.distinct_of_attr(a, x)
                                    .or_else(|| ctx.distinct_of_attr(b, x))
                            })
                            .max()
                            .unwrap_or(0);
                        join_divisor = join_divisor.saturating_mul(d.max(1));
                    } else {
                        residual += 1;
                    }
                }
                let cross_rows = ia.rows.saturating_mul(ib.rows);
                let paired = if has_cross {
                    if join_divisor > 1 {
                        (cross_rows / join_divisor).max(1)
                    } else {
                        ia.rows.max(ib.rows)
                    }
                } else {
                    cross_rows
                };
                let filter_scans = paired.saturating_mul(residual.min(4));
                // `paired` already accounts for the equi-conjuncts when the
                // distinct-count divisor applied; discount only the residual
                // conjuncts then, the whole conjunction otherwise.
                let shift = if join_divisor > 1 {
                    residual.min(8) as u32
                } else {
                    conjuncts.len().min(8) as u32
                };
                let rows = (paired >> shift).max(1);
                return Estimate {
                    rows,
                    worlds,
                    cost: sat(
                        sat(ia.cost, ib.cost),
                        worlds
                            .saturating_mul(sat(sat(ia.rows, ib.rows), sat(paired, filter_scans))),
                    ),
                };
            }
            let i = estimate(inner, ctx);
            // With statistics, an equality against a constant keeps
            // ~rows/distinct; everything else halves (the classic default).
            let mut rows = i.rows;
            for c in p.conjuncts() {
                let d = match &c {
                    relalg::Pred::Cmp(
                        relalg::Operand::Attr(x),
                        relalg::CmpOp::Eq,
                        relalg::Operand::Const(_),
                    )
                    | relalg::Pred::Cmp(
                        relalg::Operand::Const(_),
                        relalg::CmpOp::Eq,
                        relalg::Operand::Attr(x),
                    ) => ctx.distinct_of_attr(inner, x).unwrap_or(2),
                    _ => 2,
                };
                rows /= d.max(1);
            }
            Estimate {
                rows: rows.max(1),
                worlds: i.worlds,
                cost: sat(i.cost, i.worlds.saturating_mul(i.rows)),
            }
        }

        Query::Project(_, inner)
        | Query::Rename(_, inner)
        | Query::Aggregate { input: inner, .. } => {
            let i = estimate(inner, ctx);
            Estimate {
                cost: sat(i.cost, i.worlds.saturating_mul(i.rows)),
                ..i
            }
        }

        Query::Product(a, b) => {
            let ia = estimate(a, ctx);
            let ib = estimate(b, ctx);
            let rows = ia.rows.saturating_mul(ib.rows);
            let worlds = ia.worlds.saturating_mul(ib.worlds);
            Estimate {
                rows,
                worlds,
                cost: sat(sat(ia.cost, ib.cost), worlds.saturating_mul(rows)),
            }
        }

        Query::Union(a, b)
        | Query::Intersect(a, b)
        | Query::Difference(a, b)
        | Query::SemiJoin {
            left: a, right: b, ..
        } => {
            let ia = estimate(a, ctx);
            let ib = estimate(b, ctx);
            let worlds = ia.worlds.saturating_mul(ib.worlds);
            let rows = match q {
                Query::Union(_, _) => sat(ia.rows, ib.rows),
                Query::Intersect(_, _) => ia.rows.min(ib.rows),
                _ => ia.rows,
            };
            Estimate {
                rows,
                worlds,
                cost: sat(
                    sat(ia.cost, ib.cost),
                    worlds.saturating_mul(sat(ia.rows, ib.rows)),
                ),
            }
        }

        Query::Choice(_, inner) => {
            let i = estimate(inner, ctx);
            // One world per distinct value combination (bounded by the
            // answer rows); each successor keeps a slice of the answer.
            let splits = i.rows.max(1);
            Estimate {
                rows: (i.rows / splits).max(1),
                worlds: i.worlds.saturating_mul(splits),
                cost: sat(i.cost, i.worlds.saturating_mul(i.rows)),
            }
        }

        Query::Poss(inner) | Query::Cert(inner) => {
            let i = estimate(inner, ctx);
            Estimate {
                rows: i.rows,
                worlds: 1,
                cost: sat(i.cost, i.worlds.saturating_mul(i.rows)),
            }
        }

        Query::PossGroup { input, .. } | Query::CertGroup { input, .. } => {
            let i = estimate(input, ctx);
            // Key extraction + per-group merge, plus the pairwise grouping
            // machinery over the worlds.
            Estimate {
                rows: i.rows,
                worlds: i.worlds,
                cost: sat(
                    i.cost,
                    sat(
                        i.worlds.saturating_mul(i.rows).saturating_mul(2),
                        i.worlds.saturating_mul(i.worlds),
                    ),
                ),
            }
        }

        Query::RepairKey(_, inner) => {
            let i = estimate(inner, ctx);
            // Exponential in general (Proposition 4.2).
            Estimate {
                rows: i.rows,
                worlds: i.worlds.saturating_mul(1 << 10),
                cost: sat(i.cost, 1_000_000_000),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::{attrs, Pred};

    #[test]
    fn join_cheaper_than_select_over_poss_of_product() {
        // poss(σφ(a × b)) — join formed — beats σφ(poss(a × b)).
        let a = Query::rel("A");
        let b = Query::rel("B");
        let join_inside = a
            .clone()
            .product(b.clone())
            .select(Pred::eq_attr("X", "Y"))
            .poss();
        let select_outside = a.product(b).poss().select(Pred::eq_attr("X", "Y"));
        assert!(cost(&join_inside) < cost(&select_outside));
    }

    #[test]
    fn eliminating_choice_reduces_cost() {
        let with_choice = Query::rel("R").choice(attrs(&["A"])).poss();
        let without = Query::rel("R").poss();
        assert!(cost(&without) < cost(&with_choice));
    }

    #[test]
    fn grouping_is_expensive() {
        let grouped = Query::rel("R").poss_group(attrs(&["A"]), attrs(&["A", "B"]));
        let projected = Query::rel("R").project(attrs(&["A", "B"]));
        assert!(cost(&projected) < cost(&grouped));
    }

    fn sized_base(name: &str) -> Option<relalg::Schema> {
        match name {
            "Big" => Some(relalg::Schema::of(&["A", "B"])),
            "Small" => Some(relalg::Schema::of(&["C", "D"])),
            "Tiny" => Some(relalg::Schema::of(&["E", "F"])),
            _ => None,
        }
    }

    fn sized_cards(name: &str) -> Option<u64> {
        match name {
            "Big" => Some(10_000),
            "Small" => Some(20),
            "Tiny" => Some(5),
            _ => None,
        }
    }

    #[test]
    fn without_cards_cost_ctx_is_the_weight_model() {
        let ctx = RewriteCtx::new(&sized_base);
        let q = Query::rel("Big").product(Query::rel("Small")).poss();
        assert_eq!(cost_ctx(&q, &ctx), cost(&q));
    }

    #[test]
    fn cards_make_single_side_pushdown_profitable() {
        let ctx = RewriteCtx::new(&sized_base).with_cards(&sized_cards);
        let join = Pred::eq_attr("A", "C");
        let filter = Pred::eq_const("B", 7);
        // σ_{A=C ∧ B=7}(Big × Small) — filter evaluated on the pairing …
        let unpushed = Query::rel("Big")
            .product(Query::rel("Small"))
            .select(join.clone().and(filter.clone()));
        // … vs σ_{A=C}(σ_{B=7}(Big) × Small) — filter before the pairing.
        let pushed = Query::Select(filter, Box::new(Query::rel("Big")))
            .product(Query::rel("Small"))
            .select(join);
        assert!(
            cost_ctx(&pushed, &ctx) < cost_ctx(&unpushed, &ctx),
            "pushed {} !< unpushed {}",
            cost_ctx(&pushed, &ctx),
            cost_ctx(&unpushed, &ctx)
        );
    }

    #[test]
    fn cards_rank_product_association_orders() {
        let ctx = RewriteCtx::new(&sized_base).with_cards(&sized_cards);
        // (Big × Small) × Tiny materializes a 200k-row intermediate;
        // Big × (Small × Tiny) materializes a 100-row intermediate.
        let left_deep = Query::rel("Big")
            .product(Query::rel("Small"))
            .product(Query::rel("Tiny"));
        let right_deep = Query::rel("Big").product(Query::rel("Small").product(Query::rel("Tiny")));
        assert!(cost_ctx(&right_deep, &ctx) < cost_ctx(&left_deep, &ctx));
    }

    #[test]
    fn join_still_beats_product_with_cards() {
        let ctx = RewriteCtx::new(&sized_base).with_cards(&sized_cards);
        let joined = Query::rel("Big")
            .product(Query::rel("Small"))
            .select(Pred::eq_attr("A", "C"));
        let bare = Query::rel("Big").product(Query::rel("Small"));
        assert!(cost_ctx(&joined, &ctx) < cost_ctx(&bare, &ctx));
    }
}
