//! The Figure-7 equivalences as rewrite rules.
//!
//! A rule matches the *root* of a query and returns the rewritten query;
//! the engine applies rules at every subterm. Side conditions that need
//! attribute sets use the schema-inference context; conditions that need
//! world-type information (uniform answers) use [`wsa::typing::world_type`].

use std::collections::BTreeSet;

use relalg::{Attr, Pred, Schema};
use wsa::typing::{output_schema, world_type, Multiplicity};
use wsa::Query;

/// A base-relation cardinality lookup.
pub type CardFn<'a> = &'a dyn Fn(&str) -> Option<u64>;

/// Measured statistics of one base relation, as fed to the cost model by
/// the storage layer (`relalg::Relation::stats` — computed lazily from the
/// actual tuples, memoized on the relation).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TableStats {
    /// Row count.
    pub rows: u64,
    /// Per-attribute distinct counts (attribute, distinct values).
    pub distinct: Vec<(Attr, u64)>,
}

/// A base-relation statistics lookup.
pub type StatsFn<'a> = &'a dyn Fn(&str) -> Option<TableStats>;

/// Context handed to rules: base-relation schemas for `Attrs(q)` queries,
/// optionally base-relation cardinalities or full per-column statistics
/// (enabling the cost-based rules and the cardinality cost model), and the
/// multiplicity of the input world-set (guarding the rules that are only
/// sound over a complete database).
pub struct RewriteCtx<'a> {
    /// Schema lookup for base relations.
    pub base: &'a dyn Fn(&str) -> Option<Schema>,
    /// Cardinality lookup for base relations (row counts only; superseded
    /// by `stats` when both are present).
    pub card: Option<CardFn<'a>>,
    /// Measured per-column statistics for base relations: row counts plus
    /// per-attribute distinct counts, refining the selectivity estimates
    /// of equality predicates and joins.
    pub stats: Option<StatsFn<'a>>,
    /// Multiplicity of the world-set the optimized query will run on.
    /// Defaults to [`Multiplicity::One`] (a complete database — the
    /// Section-6 setting); pass [`Multiplicity::Many`] when optimizing for
    /// a world-set input so the uniformity-conditioned rules stay off.
    pub multiplicity: Multiplicity,
}

impl<'a> RewriteCtx<'a> {
    /// A context with schemas only (complete-database input, no
    /// cardinalities).
    pub fn new(base: &'a dyn Fn(&str) -> Option<Schema>) -> RewriteCtx<'a> {
        RewriteCtx {
            base,
            card: None,
            stats: None,
            multiplicity: Multiplicity::One,
        }
    }

    /// Enable the cardinality-driven cost model and the cost-based rules.
    pub fn with_cards(mut self, card: CardFn<'a>) -> RewriteCtx<'a> {
        self.card = Some(card);
        self
    }

    /// Enable the cost model on full measured statistics (row counts *and*
    /// per-attribute distinct counts). Implies everything
    /// [`RewriteCtx::with_cards`] enables.
    pub fn with_stats(mut self, stats: StatsFn<'a>) -> RewriteCtx<'a> {
        self.stats = Some(stats);
        self
    }

    /// Set the input world-set multiplicity.
    pub fn with_multiplicity(mut self, m: Multiplicity) -> RewriteCtx<'a> {
        self.multiplicity = m;
        self
    }

    /// Whether any cardinality source is available (cost-based rules fire
    /// and the cardinality cost model ranks plans).
    pub fn has_cards(&self) -> bool {
        self.card.is_some() || self.stats.is_some()
    }

    /// Row count of a base relation, preferring measured statistics.
    pub fn rows_of(&self, name: &str) -> Option<u64> {
        if let Some(stats) = self.stats {
            if let Some(ts) = stats(name) {
                return Some(ts.rows);
            }
        }
        self.card.and_then(|f| f(name))
    }

    /// Distinct count of `attr` within the base relations referenced by
    /// `q` (the first base table whose statistics carry the attribute
    /// wins; `None` without statistics).
    pub fn distinct_of_attr(&self, q: &Query, attr: &Attr) -> Option<u64> {
        let stats = self.stats?;
        for name in q.rel_names() {
            if let Some(ts) = stats(&name) {
                if let Some((_, d)) = ts.distinct.iter().find(|(a, _)| a == attr) {
                    return Some(*d);
                }
            }
        }
        None
    }

    /// The output attributes of a subquery, if it is well-typed.
    pub fn attrs_of(&self, q: &Query) -> Option<BTreeSet<Attr>> {
        output_schema(q, self.base)
            .ok()
            .map(|s| s.attrs().iter().cloned().collect())
    }

    /// Whether `q`'s answer is guaranteed uniform across worlds when the
    /// query is evaluated over an input of this context's multiplicity —
    /// over a complete (one-world) database this is the setting of the
    /// paper's Section-6 examples.
    pub fn is_uniform(&self, q: &Query) -> bool {
        world_type(q, self.multiplicity).uniform
    }
}

/// A named rewrite rule; `paper_eq` cites the Figure-7 equation.
pub struct Rule {
    /// Rule identifier used in traces.
    pub name: &'static str,
    /// The Figure-7 equation this implements (or "struct" for structural
    /// cleanups).
    pub paper_eq: &'static str,
    /// Attempt to rewrite the root of `q`.
    pub apply: fn(&Query, &RewriteCtx) -> Option<Query>,
}

fn subset(a: &[Attr], b: &BTreeSet<Attr>) -> bool {
    a.iter().all(|x| b.contains(x))
}

fn subset_vec(a: &[Attr], b: &[Attr]) -> bool {
    a.iter().all(|x| b.contains(x))
}

fn same_set(a: &[Attr], b: &[Attr]) -> bool {
    a.len() == b.len() && subset_vec(a, b) && subset_vec(b, a)
}

/// The full rule set, in the order the engine tries them.
pub fn rule_set() -> Vec<Rule> {
    vec![
        // ---- Reduce rules (these strictly shrink world-set machinery) ----
        Rule {
            name: "poss-absorbs-choice",
            paper_eq: "(11)",
            apply: |q, _| match q {
                Query::Poss(inner) => match inner.as_ref() {
                    Query::Choice(_, body) => Some(Query::Poss(body.clone())),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "group-proj-subset-of-group",
            paper_eq: "(12)",
            apply: |q, _| match q {
                Query::PossGroup { group, proj, input }
                | Query::CertGroup { group, proj, input }
                    if subset_vec(proj, group) =>
                {
                    Some(Query::Project(proj.clone(), input.clone()))
                }
                _ => None,
            },
        },
        Rule {
            name: "project-collapses-group",
            paper_eq: "(13)",
            apply: |q, _| match q {
                Query::Project(z, inner) => match inner.as_ref() {
                    Query::PossGroup { group, proj, input }
                        if subset_vec(z, group) && subset_vec(z, proj) =>
                    {
                        Some(Query::Project(z.clone(), input.clone()))
                    }
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "project-absorbed-by-possgroup",
            paper_eq: "(14)",
            apply: |q, _| match q {
                Query::Project(z, inner) => match inner.as_ref() {
                    Query::PossGroup { group, proj, input } if subset_vec(z, proj) => {
                        Some(Query::PossGroup {
                            group: group.clone(),
                            proj: z.clone(),
                            input: input.clone(),
                        })
                    }
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "poss-absorbs-possgroup",
            paper_eq: "(15)",
            apply: |q, _| match q {
                Query::Poss(inner) => match inner.as_ref() {
                    Query::PossGroup { proj, input, .. } => Some(Query::Poss(Box::new(
                        Query::Project(proj.clone(), input.clone()),
                    ))),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "cert-absorbs-certgroup",
            paper_eq: "(16)",
            apply: |q, _| match q {
                Query::Cert(inner) => match inner.as_ref() {
                    Query::CertGroup { proj, input, .. } => Some(Query::Cert(Box::new(
                        Query::Project(proj.clone(), input.clone()),
                    ))),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "choice-fusion",
            paper_eq: "(17)",
            apply: |q, _| match q {
                Query::Choice(x, inner) => match inner.as_ref() {
                    Query::Choice(y, body) => {
                        let mut xy = x.clone();
                        for a in y {
                            if !xy.contains(a) {
                                xy.push(a.clone());
                            }
                        }
                        Some(Query::Choice(xy, body.clone()))
                    }
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            // Corrected Eq (18): sound when the grouping attribute sets of
            // the nested operators coincide and the inner operator is pγ
            // (see the counterexample test for the printed form).
            name: "nested-group-fusion",
            paper_eq: "(18*)",
            apply: |q, _| match q {
                Query::PossGroup { group, proj, input }
                | Query::CertGroup { group, proj, input } => match input.as_ref() {
                    Query::PossGroup {
                        group: ig,
                        proj: ip,
                        input: iq,
                    } if same_set(group, ig) && subset_vec(proj, ip) && subset_vec(group, ip) => {
                        Some(Query::PossGroup {
                            group: group.clone(),
                            proj: proj.clone(),
                            input: iq.clone(),
                        })
                    }
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            // Eq (20): pγ^Y_X(χ_C(q)) = π_Y(χ_X(q)) when X ⊆ C — sound when
            // q's answer is uniform across worlds (complete-database
            // setting; see EXPERIMENTS.md for the multi-answer
            // counterexample).
            name: "possgroup-absorbed-by-choice",
            paper_eq: "(20)",
            apply: |q, ctx| match q {
                Query::PossGroup { group, proj, input } => match input.as_ref() {
                    Query::Choice(c, body) if subset_vec(group, c) && ctx.is_uniform(body) => {
                        Some(Query::Project(
                            proj.clone(),
                            Box::new(Query::Choice(group.clone(), body.clone())),
                        ))
                    }
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            // Corrected Eq (21): grouping on *all* answer attributes makes
            // every group a set of worlds with identical answers, so cγ (and
            // pγ, via Eq 12) degenerate to a projection.
            name: "certgroup-on-full-schema",
            paper_eq: "(21*)",
            apply: |q, ctx| match q {
                Query::CertGroup { group, proj, input } => {
                    let attrs = ctx.attrs_of(input)?;
                    if group.len() == attrs.len() && subset(group, &attrs) {
                        Some(Query::Project(proj.clone(), input.clone()))
                    } else {
                        None
                    }
                }
                _ => None,
            },
        },
        Rule {
            name: "closure-idempotence",
            paper_eq: "(22)(23)",
            apply: |q, _| match q {
                Query::Poss(inner) | Query::Cert(inner) => match inner.as_ref() {
                    Query::Cert(_) | Query::Poss(_) => Some(inner.as_ref().clone()),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "cert-diff-inner-cert",
            paper_eq: "(24)",
            apply: |q, _| match q {
                Query::Cert(inner) => match inner.as_ref() {
                    Query::Difference(a, b) => match a.as_ref() {
                        Query::Cert(ia) => Some(Query::Cert(Box::new(Query::Difference(
                            ia.clone(),
                            b.clone(),
                        )))),
                        _ => None,
                    },
                    _ => None,
                },
                _ => None,
            },
        },
        // ---- Commute rules ----
        Rule {
            name: "poss-past-select",
            paper_eq: "(1)",
            apply: |q, _| match q {
                Query::Poss(inner) => match inner.as_ref() {
                    Query::Select(p, body) => Some(Query::Select(
                        p.clone(),
                        Box::new(Query::Poss(body.clone())),
                    )),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            // (1) right-to-left: pull the selection inside the closure; the
            // engine's cost model makes this fire when it forms a join.
            name: "select-into-poss",
            paper_eq: "(1←)",
            apply: |q, _| match q {
                Query::Select(p, inner) => match inner.as_ref() {
                    Query::Poss(body) => Some(Query::Poss(Box::new(Query::Select(
                        p.clone(),
                        body.clone(),
                    )))),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "poss-past-project",
            paper_eq: "(2)",
            apply: |q, _| match q {
                Query::Poss(inner) => match inner.as_ref() {
                    Query::Project(x, body) => Some(Query::Project(
                        x.clone(),
                        Box::new(Query::Poss(body.clone())),
                    )),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "poss-distributes-union",
            paper_eq: "(3)",
            apply: |q, _| match q {
                Query::Poss(inner) => match inner.as_ref() {
                    Query::Union(a, b) => Some(Query::Union(
                        Box::new(Query::Poss(a.clone())),
                        Box::new(Query::Poss(b.clone())),
                    )),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "cert-past-select",
            paper_eq: "(4)",
            apply: |q, _| match q {
                Query::Cert(inner) => match inner.as_ref() {
                    Query::Select(p, body) => Some(Query::Select(
                        p.clone(),
                        Box::new(Query::Cert(body.clone())),
                    )),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "select-into-cert",
            paper_eq: "(4←)",
            apply: |q, _| match q {
                Query::Select(p, inner) => match inner.as_ref() {
                    Query::Cert(body) => Some(Query::Cert(Box::new(Query::Select(
                        p.clone(),
                        body.clone(),
                    )))),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "cert-distributes-intersect",
            paper_eq: "(5)",
            apply: |q, _| match q {
                Query::Cert(inner) => match inner.as_ref() {
                    Query::Intersect(a, b) => Some(Query::Intersect(
                        Box::new(Query::Cert(a.clone())),
                        Box::new(Query::Cert(b.clone())),
                    )),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "cert-distributes-product",
            paper_eq: "(6)",
            apply: |q, _| match q {
                Query::Cert(inner) => match inner.as_ref() {
                    Query::Product(a, b) => Some(Query::Product(
                        Box::new(Query::Cert(a.clone())),
                        Box::new(Query::Cert(b.clone())),
                    )),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "project-past-choice",
            paper_eq: "(7)",
            apply: |q, _| match q {
                Query::Project(xy, inner) => match inner.as_ref() {
                    Query::Choice(x, body) if subset_vec(x, xy) => Some(Query::Choice(
                        x.clone(),
                        Box::new(Query::Project(xy.clone(), body.clone())),
                    )),
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            // (8) right-to-left: push the choice into the smaller operand.
            name: "choice-pushdown-product",
            paper_eq: "(8←)",
            apply: |q, ctx| match q {
                Query::Choice(x, inner) => match inner.as_ref() {
                    Query::Product(a, b) => {
                        let aa = ctx.attrs_of(a)?;
                        if subset(x, &aa) {
                            return Some(Query::Product(
                                Box::new(Query::Choice(x.clone(), a.clone())),
                                b.clone(),
                            ));
                        }
                        let bb = ctx.attrs_of(b)?;
                        if subset(x, &bb) {
                            return Some(Query::Product(
                                a.clone(),
                                Box::new(Query::Choice(x.clone(), b.clone())),
                            ));
                        }
                        None
                    }
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            // (8) left-to-right: lift the choice over the product (useful
            // under a `poss` that will absorb it via Eq 11).
            name: "choice-liftup-product",
            paper_eq: "(8)",
            apply: |q, ctx| match q {
                Query::Product(a, b) => match a.as_ref() {
                    Query::Choice(x, inner) => {
                        let _ = ctx;
                        Some(Query::Choice(
                            x.clone(),
                            Box::new(Query::Product(inner.clone(), b.clone())),
                        ))
                    }
                    _ => None,
                },
                _ => None,
            },
        },
        // ---- Structural cleanups ----
        Rule {
            name: "identity-projection",
            paper_eq: "struct",
            apply: |q, ctx| match q {
                Query::Project(x, inner) => {
                    let attrs = ctx.attrs_of(inner)?;
                    if x.len() == attrs.len() && subset(x, &attrs) {
                        Some(inner.as_ref().clone())
                    } else {
                        None
                    }
                }
                _ => None,
            },
        },
        Rule {
            name: "projection-fusion",
            paper_eq: "struct",
            apply: |q, _| match q {
                Query::Project(x, inner) => match inner.as_ref() {
                    Query::Project(y, body) if subset_vec(x, y) => {
                        Some(Query::Project(x.clone(), body.clone()))
                    }
                    _ => None,
                },
                _ => None,
            },
        },
        Rule {
            name: "selection-fusion",
            paper_eq: "struct",
            apply: |q, _| match q {
                Query::Select(p1, inner) => match inner.as_ref() {
                    Query::Select(p2, body) => {
                        Some(Query::Select(p1.clone().and(p2.clone()), body.clone()))
                    }
                    _ => None,
                },
                _ => None,
            },
        },
        // ---- Cost-based rules ----
        //
        // These fire only when the context carries base-table cardinalities
        // (`RewriteCtx::with_cards`): without an estimate of intermediate
        // sizes the rewrites are noise that widens the search space, with
        // one the engine's best-first search ranks the generated orders by
        // the cardinality cost model in `cost.rs`.
        Rule {
            // Single-side conjuncts of a selection over a product filter
            // their operand *before* the pairing; cross-side conjuncts stay
            // on top (the theta-join path turns them into a hash join).
            name: "selection-before-product",
            paper_eq: "cost",
            apply: |q, ctx| {
                if !ctx.has_cards() {
                    return None;
                }
                let Query::Select(p, inner) = q else {
                    return None;
                };
                let Query::Product(a, b) = inner.as_ref() else {
                    return None;
                };
                let aa = ctx.attrs_of(a)?;
                let bb = ctx.attrs_of(b)?;
                let (mut la, mut lb, mut cross) = (Vec::new(), Vec::new(), Vec::new());
                for c in p.conjuncts() {
                    let attrs = c.attrs();
                    if !attrs.is_empty() && attrs.iter().all(|x| aa.contains(x)) {
                        la.push(c);
                    } else if !attrs.is_empty() && attrs.iter().all(|x| bb.contains(x)) {
                        lb.push(c);
                    } else {
                        cross.push(c);
                    }
                }
                if la.is_empty() && lb.is_empty() {
                    return None;
                }
                let wrap = |side: &Query, cs: Vec<Pred>| match conjoin_preds(cs) {
                    None => side.clone(),
                    Some(p) => Query::Select(p, Box::new(side.clone())),
                };
                let prod = Query::Product(Box::new(wrap(a, la)), Box::new(wrap(b, lb)));
                Some(match conjoin_preds(cross) {
                    None => prod,
                    Some(p) => Query::Select(p, Box::new(prod)),
                })
            },
        },
        Rule {
            // Eq (2) right-to-left: push a projection below `poss`, so the
            // world-merging union moves less data.
            name: "project-into-poss",
            paper_eq: "(2←)",
            apply: |q, ctx| {
                if !ctx.has_cards() {
                    return None;
                }
                let Query::Project(x, inner) = q else {
                    return None;
                };
                let Query::Poss(body) = inner.as_ref() else {
                    return None;
                };
                Some(Query::Poss(Box::new(Query::Project(
                    x.clone(),
                    body.clone(),
                ))))
            },
        },
        Rule {
            // π distributes over ∪ under set semantics.
            name: "project-past-union",
            paper_eq: "cost",
            apply: |q, ctx| {
                if !ctx.has_cards() {
                    return None;
                }
                let Query::Project(x, inner) = q else {
                    return None;
                };
                let Query::Union(a, b) = inner.as_ref() else {
                    return None;
                };
                Some(Query::Union(
                    Box::new(Query::Project(x.clone(), a.clone())),
                    Box::new(Query::Project(x.clone(), b.clone())),
                ))
            },
        },
        Rule {
            // π splits across a product when each output attribute belongs
            // to exactly one operand and the list keeps the operand order
            // (so the output column order is unchanged).
            name: "project-past-product",
            paper_eq: "cost",
            apply: |q, ctx| {
                if !ctx.has_cards() {
                    return None;
                }
                let Query::Project(x, inner) = q else {
                    return None;
                };
                let Query::Product(a, b) = inner.as_ref() else {
                    return None;
                };
                let aa = ctx.attrs_of(a)?;
                let bb = ctx.attrs_of(b)?;
                let split = x.iter().position(|at| !aa.contains(at))?;
                let (xa, xb) = x.split_at(split);
                if xa.is_empty()
                    || xb.is_empty()
                    || !xb.iter().all(|at| bb.contains(at) && !aa.contains(at))
                {
                    return None;
                }
                if xa.len() == aa.len() && xb.len() == bb.len() {
                    // Both sides keep every column: the split is a no-op
                    // pair of identity projections.
                    return None;
                }
                Some(Query::Product(
                    Box::new(Query::Project(xa.to_vec(), a.clone())),
                    Box::new(Query::Project(xb.to_vec(), b.clone())),
                ))
            },
        },
        Rule {
            // × is associative with unchanged column order in either
            // direction; the cost model ranks the association orders by
            // intermediate size.
            name: "product-assoc-right",
            paper_eq: "cost",
            apply: |q, ctx| {
                if !ctx.has_cards() {
                    return None;
                }
                let Query::Product(ab, c) = q else {
                    return None;
                };
                let Query::Product(a, b) = ab.as_ref() else {
                    return None;
                };
                Some(Query::Product(
                    a.clone(),
                    Box::new(Query::Product(b.clone(), c.clone())),
                ))
            },
        },
        Rule {
            name: "product-assoc-left",
            paper_eq: "cost",
            apply: |q, ctx| {
                if !ctx.has_cards() {
                    return None;
                }
                let Query::Product(a, bc) = q else {
                    return None;
                };
                let Query::Product(b, c) = bc.as_ref() else {
                    return None;
                };
                Some(Query::Product(
                    Box::new(Query::Product(a.clone(), b.clone())),
                    c.clone(),
                ))
            },
        },
        Rule {
            // × commutes *under a projection*: the projection re-extracts
            // columns by name, masking the swapped column order (anywhere
            // else the swap would change the output schema).
            name: "product-commute-under-project",
            paper_eq: "cost",
            apply: |q, ctx| {
                if !ctx.has_cards() {
                    return None;
                }
                let Query::Project(x, inner) = q else {
                    return None;
                };
                let Query::Product(a, b) = inner.as_ref() else {
                    return None;
                };
                Some(Query::Project(
                    x.clone(),
                    Box::new(Query::Product(b.clone(), a.clone())),
                ))
            },
        },
    ]
}

/// Conjoin predicates back into one (`None` for the empty list).
fn conjoin_preds(preds: Vec<Pred>) -> Option<Pred> {
    preds.into_iter().reduce(|a, b| a.and(b))
}
