//! The optimized translation for complete-to-complete queries
//! (Section 5.3).
//!
//! Two observations drive the optimization:
//!
//! 1. The world table `W` is only needed by `cert` and by set-operation
//!    alignment — so it is computed **lazily, on demand**, from the choice
//!    domains recorded at each `χ` ("the world-ids created by the query
//!    `χ_A(R)` can be computed with `π_A(R)`; … for a binary operator the
//!    new world ids … can be retrieved using the query `q₁′ × q₂′`").
//! 2. Base relations are never copied into new worlds: a table **without**
//!    world-id attributes is interpreted as appearing in *all* worlds, and
//!    tables with different id-attribute sets encode the product of their
//!    world dimensions.
//!
//! On the trip-planning query `cert(π_Arr(χ_Dep(HFlights)))` this yields —
//! after the `relalg` simplifier — exactly the paper's Example 5.8 plan:
//! `π{Arr,Dep}(HFlights) ÷ π{Dep}(HFlights)`.
//!
//! Repair-by-key is NP-hard in general (Proposition 4.2), but not when it
//! is *key-local*: a repair of an input without ids, followed only by σ, π,
//! ρ and products with id-free operands up to `poss`/`cert`. Each answer
//! tuple then stems from one input tuple, whose copy it carries as ids, and
//! a repair's answer is the union over the tuples it keeps (one per key
//! group). So a value is possible iff some tuple yields it, and certain iff
//! some key group yields it from every one of its tuples (the single-atom
//! case of Fuxman and Miller's first-order rewriting): a group-wise
//! division, no repair is listed. Every other shape over a repair is
//! declined.
//!
//! Aggregation and the semijoin/antijoin are relational operators lifted
//! pointwise over worlds, so they translate to first-order plans too: a
//! world's answer is the set of answer rows carrying its ids, so `γ_G`
//! becomes `γ_{G ∪ ids}`, and `q₁ ⋉_K q₂` pairs every `q₁` row with every
//! world of `q₂` — a product with `q₂`'s world table — and keeps the rows
//! with a partner on `K` plus `q₂`'s ids. The world table, not `π_ids(q₂)`,
//! is what lists `q₂`'s worlds: a `σ` after a `χ` can empty some of them,
//! and an antijoin keeps every row in an empty world.

use relalg::{Attr, Catalog, Expr, Pred, RelalgError, Relation, Result, Schema};
use worldset::{World, WorldSet};
use wsa::typing::is_complete_to_complete;
use wsa::Query;

use crate::translate::translate_complete;

/// One world dimension: the id attributes introduced by a `χ` and the
/// expression computing their domain (the "world ids created" there). The
/// domain expression's schema is `prior ids ∪ new ids`.
#[derive(Clone, Debug)]
struct Dim {
    new_ids: Vec<Attr>,
    domain: Expr,
}

/// The dimension of a `repair-by-key_K` over an id-free input `E`: every
/// answer tuple carries the identity of the `E` tuple it came from in id
/// columns `#n.a` (the answer's `ids`). A repair keeps one tuple per key
/// group, so its worlds are never listed; `cert` divides group-wise instead.
#[derive(Clone, Debug)]
struct Repair {
    /// The id copies of the key `K`: they name a tuple's key group.
    key_ids: Vec<Attr>,
    /// `π_ids(E)`: every tuple a repair may keep.
    domain: Expr,
}

/// The translation of a subquery: the answer expression (schema `D ∪ ids`),
/// the id attributes currently carried, and the dimensions needed to
/// materialize the world table on demand — or, over a repaired input, the
/// one repair dimension instead (then `dims` is empty).
#[derive(Clone, Debug)]
struct Opt {
    expr: Expr,
    d: Vec<Attr>,
    ids: Vec<Attr>,
    dims: Vec<Dim>,
    repair: Option<Repair>,
}

/// The error of a shape outside the translatable fragment.
fn declined(detail: &str) -> RelalgError {
    RelalgError::TypeError {
        detail: detail.into(),
    }
}

impl Opt {
    /// Whether the answer is the same in every world: no ids, no dimension.
    fn id_free(&self) -> bool {
        self.ids.is_empty() && self.dims.is_empty() && self.repair.is_none()
    }

    /// Decline `op` over a repaired input: only σ, π, ρ, a product with an
    /// id-free operand, `poss` and `cert` keep the repair key-local.
    fn not_repaired(self, op: &str) -> Result<Opt> {
        match self.repair {
            Some(_) => Err(declined(&format!(
                "{op} over a repair-by-key is outside the key-local fragment \
                 (Proposition 4.2)"
            ))),
            None => Ok(self),
        }
    }

    /// Materialize the world table for this subquery's dimensions:
    /// the join of the recorded choice domains, projected to the ids.
    /// With no dimensions this is conceptually `{⟨⟩}` — callers special-case
    /// that (division by the unit table is the identity).
    fn world_table(&self) -> Option<Expr> {
        let mut it = self.dims.iter();
        let first = it.next()?;
        let mut w = first.domain.clone();
        for dim in it {
            w = w.natural_join(&dim.domain);
        }
        Some(w.project(self.ids.clone()))
    }
}

struct OptTranslator<'a> {
    base: &'a dyn Fn(&str) -> Option<Schema>,
    counter: usize,
}

impl<'a> OptTranslator<'a> {
    fn fresh_ids(&mut self, attrs: &[Attr]) -> Vec<Attr> {
        self.counter += 1;
        let n = self.counter;
        attrs
            .iter()
            .map(|a| Attr::new(&format!("#{n}.{a}")))
            .collect()
    }

    fn translate(&mut self, q: &Query) -> Result<Opt> {
        match q {
            Query::Rel(name) => {
                let d = (self.base)(name)
                    .ok_or_else(|| RelalgError::UnknownTable { name: name.clone() })?
                    .attrs()
                    .to_vec();
                Ok(Opt {
                    expr: Expr::table(name),
                    d,
                    ids: vec![],
                    dims: vec![],
                    repair: None,
                })
            }

            Query::Select(p, inner) => {
                let o = self.translate(inner)?;
                Ok(Opt {
                    expr: o.expr.select(p.clone()),
                    ..o
                })
            }

            Query::Rename(map, inner) => {
                let o = self.translate(inner)?;
                let d: Vec<Attr> =
                    o.d.iter()
                        .map(|a| {
                            map.iter()
                                .find(|(s, _)| s == a)
                                .map(|(_, t)| t.clone())
                                .unwrap_or_else(|| a.clone())
                        })
                        .collect();
                Ok(Opt {
                    expr: o.expr.rename(map.clone()),
                    d,
                    ids: o.ids,
                    dims: o.dims,
                    repair: o.repair,
                })
            }

            Query::Project(attrs, inner) => {
                let o = self.translate(inner)?;
                let mut keep = attrs.clone();
                keep.extend(o.ids.iter().cloned());
                Ok(Opt {
                    expr: o.expr.project(keep),
                    d: attrs.clone(),
                    ids: o.ids,
                    dims: o.dims,
                    repair: o.repair,
                })
            }

            Query::Choice(b, inner) => {
                let o = self.translate(inner)?.not_repaired("χ")?;
                let vb = self.fresh_ids(b);
                // Answer: copy the choice attributes into id columns.
                let mut proj: Vec<(Attr, Attr)> =
                    o.d.iter().map(|a| (a.clone(), a.clone())).collect();
                proj.extend(o.ids.iter().map(|a| (a.clone(), a.clone())));
                proj.extend(b.iter().cloned().zip(vb.iter().cloned()));
                let expr = o.expr.project_as(proj);
                // Domain: π_{prior ids, B as V_B}(R) — the ids that exist.
                // Under earlier choice dimensions, pad-extend with the prior
                // world table so that worlds whose answer is empty here
                // survive (same role as `=⊲⊳` in the general translation).
                let mut dom_list: Vec<(Attr, Attr)> =
                    o.ids.iter().map(|a| (a.clone(), a.clone())).collect();
                dom_list.extend(b.iter().cloned().zip(vb.iter().cloned()));
                let mut domain = o.expr.project_as(dom_list);
                if let Some(prior_w) = o.world_table() {
                    domain = prior_w.outer_pad_join(&domain);
                }
                let mut ids = o.ids.clone();
                ids.extend(vb.iter().cloned());
                let mut dims = o.dims.clone();
                dims.push(Dim {
                    new_ids: vb,
                    domain,
                });
                Ok(Opt {
                    expr,
                    d: o.d,
                    ids,
                    dims,
                    repair: None,
                })
            }

            Query::Poss(inner) => {
                let o = self.translate(inner)?;
                // Union over all worlds = drop the id columns. The result
                // carries no ids: it appears in every world.
                Ok(Opt {
                    expr: o.expr.project(o.d.clone()),
                    d: o.d,
                    ids: vec![],
                    dims: vec![],
                    repair: None,
                })
            }

            Query::Cert(inner) => {
                let o = self.translate(inner)?;
                if let Some(r) = &o.repair {
                    // Every repair keeps one tuple of every key group, and
                    // the answer of a repair is the union of what its tuples
                    // yield. So a value is certain iff some key group yields
                    // it from every one of its tuples: `cand` pairs values
                    // with the groups yielding them, `missing` with the
                    // groups holding a tuple that does not.
                    let dk = both(&o.d, &r.key_ids);
                    let cand = o.expr.project(dk.clone());
                    let missing = cand.natural_join(&r.domain).difference(&o.expr).project(dk);
                    return Ok(Opt {
                        expr: cand.difference(&missing).project(o.d.clone()),
                        d: o.d,
                        ids: vec![],
                        dims: vec![],
                        repair: None,
                    });
                }
                let expr = match o.world_table() {
                    // Intersection over all worlds: divide by the world
                    // table (the answer is constant along dimensions it does
                    // not mention, so dividing by its own dims suffices).
                    Some(w) => o.expr.divide(&w),
                    None => o.expr.project(o.d.clone()),
                };
                Ok(Opt {
                    expr,
                    d: o.d,
                    ids: vec![],
                    dims: vec![],
                    repair: None,
                })
            }

            Query::PossGroup { group, proj, input } => {
                let o = self.translate(input)?.not_repaired("pγ")?;
                let ((t, _sprime), v2) = self.group_candidates(&o, group)?;
                let mut list: Vec<(Attr, Attr)> =
                    proj.iter().map(|a| (a.clone(), a.clone())).collect();
                list.extend(v2.iter().cloned().zip(o.ids.iter().cloned()));
                Ok(Opt {
                    expr: t.project(both(proj, &v2)).project_as(list),
                    d: proj.clone(),
                    ids: o.ids,
                    dims: o.dims,
                    repair: None,
                })
            }

            Query::CertGroup { group, proj, input } => {
                let o = self.translate(input)?.not_repaired("cγ")?;
                let ((t, sprime), v2) = self.group_candidates(&o, group)?;
                let cand = t.project(both(proj, &v2));
                let mut bvv2 = proj.clone();
                bvv2.extend(o.ids.iter().cloned());
                bvv2.extend(v2.iter().cloned());
                let present = t.project(bvv2);
                let required = cand.natural_join(&sprime);
                let missing = required.difference(&present).project(both(proj, &v2));
                let certc = cand.difference(&missing);
                let mut list: Vec<(Attr, Attr)> =
                    proj.iter().map(|a| (a.clone(), a.clone())).collect();
                list.extend(v2.iter().cloned().zip(o.ids.iter().cloned()));
                Ok(Opt {
                    expr: certc.project_as(list),
                    d: proj.clone(),
                    ids: o.ids,
                    dims: o.dims,
                    repair: None,
                })
            }

            Query::Product(a, b) => {
                let l = self.translate(a)?;
                let r = self.translate(b)?;
                // A repaired side pairs only with an answer that is the same
                // in every world.
                let (l, r) = if l.id_free() || r.id_free() {
                    (l, r)
                } else {
                    (l.not_repaired("×")?, r.not_repaired("×")?)
                };
                // Disjoint value attrs and (by fresh naming) disjoint new
                // ids: the natural join on any shared prior ids pairs
                // world combinations.
                let mut d = l.d.clone();
                d.extend(r.d.iter().cloned());
                let mut ids = l.ids.clone();
                for v in &r.ids {
                    if !ids.contains(v) {
                        ids.push(v.clone());
                    }
                }
                let mut dims = l.dims.clone();
                dims.extend(r.dims.iter().cloned());
                Ok(Opt {
                    expr: l.expr.natural_join(&r.expr),
                    d,
                    ids,
                    dims,
                    repair: l.repair.or(r.repair),
                })
            }

            Query::Union(a, b) => self.setop(a, b, SetOp::Union),
            Query::Intersect(a, b) => self.setop(a, b, SetOp::Intersect),
            Query::Difference(a, b) => self.setop(a, b, SetOp::Difference),

            Query::Aggregate { group, aggs, input } => {
                // Aggregating a repair's answer depends on which tuple every
                // key group keeps: not key-local.
                let o = self.translate(input)?.not_repaired("γ")?;
                let mut d = group.clone();
                d.extend(aggs.iter().map(|a| a.out.clone()));
                Ok(Opt {
                    expr: o.expr.aggregate(both(group, &o.ids), aggs.clone()),
                    d,
                    ..o
                })
            }

            Query::SemiJoin {
                on,
                anti,
                left,
                right,
            } => {
                let l = self.translate(left)?;
                let r = self.translate(right)?.not_repaired("the right side of ⋉")?;
                // An id-free right side is one relation in every world: a
                // filter of each row on its own values, which keeps a repair
                // key-local like `σ` does.
                let Some(w) = r.world_table() else {
                    return Ok(Opt {
                        expr: l.expr.semijoin(&r.expr, on.clone(), *anti),
                        ..l
                    });
                };
                let l = l.not_repaired("⋉ with a right side that varies across worlds")?;
                // `χ` over an empty input keeps one world (Figure 3), which
                // its empty domain does not list: pad the world table with
                // one row of pad ids then.
                let w = Expr::lit(Relation::unit()).outer_pad_join(&w);
                let mut on = on.clone();
                on.extend(r.ids.iter().map(|v| (v.clone(), v.clone())));
                let mut ids = l.ids.clone();
                ids.extend(r.ids.iter().cloned());
                let mut dims = l.dims.clone();
                dims.push(Dim {
                    new_ids: r.ids,
                    domain: w.clone(),
                });
                Ok(Opt {
                    expr: l.expr.natural_join(&w).semijoin(&r.expr, on, *anti),
                    d: l.d,
                    ids,
                    dims,
                    repair: None,
                })
            }

            Query::RepairKey(key, inner) => {
                let o = self.translate(inner)?;
                if !o.id_free() {
                    return Err(declined(
                        "repair-by-key over an input that varies across worlds \
                         is NP-hard (Proposition 4.2)",
                    ));
                }
                // Copy every tuple into id columns: its identity, whose key
                // copy names its key group.
                let ids = self.fresh_ids(&o.d);
                let key_ids = key
                    .iter()
                    .map(|k| match o.d.iter().position(|a| a == k) {
                        Some(i) => Ok(ids[i].clone()),
                        None => Err(RelalgError::UnknownAttr {
                            attr: k.clone(),
                            schema: Schema::new(o.d.clone()),
                        }),
                    })
                    .collect::<Result<Vec<_>>>()?;
                let copies: Vec<(Attr, Attr)> =
                    o.d.iter().cloned().zip(ids.iter().cloned()).collect();
                let domain = o.expr.project_as(copies.clone());
                let mut list: Vec<(Attr, Attr)> =
                    o.d.iter().map(|a| (a.clone(), a.clone())).collect();
                list.extend(copies);
                Ok(Opt {
                    expr: o.expr.project_as(list),
                    d: o.d,
                    ids,
                    dims: vec![],
                    repair: Some(Repair { key_ids, domain }),
                })
            }
        }
    }

    /// Align both operands onto the union of their world dimensions and
    /// apply the set operation. A side missing a dimension is replicated
    /// along it by a product with that dimension's id domain.
    fn setop(&mut self, a: &Query, b: &Query, op: SetOp) -> Result<Opt> {
        let l = self.translate(a)?.not_repaired("a set operation")?;
        let r = self.translate(b)?.not_repaired("a set operation")?;
        let expand = |side: &Opt, other: &Opt| -> Expr {
            let mut e = side.expr.clone();
            for dim in &other.dims {
                if dim.new_ids.iter().all(|v| !side.ids.contains(v)) {
                    e = e.natural_join(&dim.domain);
                }
            }
            e
        };
        let le = expand(&l, &r);
        let re = expand(&r, &l);
        let expr = match op {
            SetOp::Union => le.union(&re),
            SetOp::Intersect => le.intersect(&re),
            SetOp::Difference => le.difference(&re),
        };
        let mut ids = l.ids.clone();
        for v in &r.ids {
            if !ids.contains(v) {
                ids.push(v.clone());
            }
        }
        let mut dims = l.dims.clone();
        dims.extend(r.dims.iter().cloned());
        Ok(Opt {
            expr,
            d: l.d,
            ids,
            dims,
            repair: None,
        })
    }

    /// Grouping machinery shared with the general translation, operating on
    /// the lazy representation (no world table involved): returns
    /// `(T(d,v,v₂), S′(v,v₂))` and the fresh id copies `V₂`.
    fn group_candidates(&mut self, o: &Opt, group: &[Attr]) -> Result<((Expr, Expr), Vec<Attr>)> {
        let ids = &o.ids;
        let v2 = self.fresh_ids(ids);
        let a2 = self.fresh_ids(group);

        let x = o.expr.project(both(group, ids));
        let mut list: Vec<(Attr, Attr)> = group.iter().cloned().zip(a2.iter().cloned()).collect();
        list.extend(ids.iter().cloned().zip(v2.iter().cloned()));
        let x2 = x.project_as(list);

        let worlds1 = o.expr.project(ids.clone());
        let worlds2 = worlds1.project_as(ids.iter().cloned().zip(v2.iter().cloned()).collect());
        let all_pairs = worlds1.product(&worlds2);

        let mut eq = Pred::True;
        for (a, b) in group.iter().zip(&a2) {
            eq = eq.and(Pred::eq_attr(a.clone(), b.clone()));
        }
        let mut avv2 = group.to_vec();
        avv2.extend(ids.iter().cloned());
        avv2.extend(v2.iter().cloned());
        let matched = x.product(&x2).select(eq).project(avv2);
        let in_v1 = x.product(&worlds2);
        let diff_dir = in_v1.difference(&matched).project(both(ids, &v2));
        let mut swap: Vec<(Attr, Attr)> = v2.iter().cloned().zip(ids.iter().cloned()).collect();
        swap.extend(ids.iter().cloned().zip(v2.iter().cloned()));
        let s = diff_dir.union(&diff_dir.project_as(swap));
        let sprime = all_pairs.difference(&s);

        let t = o.expr.natural_join(&sprime);
        Ok(((t, sprime), v2))
    }
}

enum SetOp {
    Union,
    Intersect,
    Difference,
}

fn both(a: &[Attr], b: &[Attr]) -> Vec<Attr> {
    let mut out = a.to_vec();
    out.extend(b.iter().cloned());
    out
}

/// The Section-5.3 optimized translation of a complete-to-complete query
/// into a relational algebra expression over the ordinary input database.
/// Apply [`relalg::simplify`] to obtain the compact plans shown in the
/// paper (Example 5.8).
pub fn translate_opt_complete(q: &Query, base: &dyn Fn(&str) -> Option<Schema>) -> Result<Expr> {
    if !is_complete_to_complete(q) {
        return Err(RelalgError::TypeError {
            detail: format!("query is not of type 1↦1: {q}"),
        });
    }
    let mut tr = OptTranslator { base, counter: 0 };
    let o = tr.translate(q)?;
    Ok(o.expr.project(o.d))
}

/// The relational plan of a complete-to-complete query over one world's
/// relations, as the statement path runs it and `EXPLAIN` prints it.
#[derive(Clone, Debug)]
pub struct RelationalPlan {
    /// The translated, simplified and join-ordered plan.
    pub expr: Expr,
    /// The relations the query names: the world's own `Arc`s, no copies.
    pub catalog: Catalog,
}

/// Build the [`RelationalPlan`] of the `1↦1` query `q` over `world`, whose
/// relations are called `names`: the Section-5.3 translation (the
/// Theorem-5.7 one, [`translate_complete`], where it declines), then
/// [`relalg::simplify`] and [`relalg::opt::optimize_joins`] over the
/// measured statistics of the relations `q` names.
pub fn relational_plan(q: &Query, names: &[String], world: &World) -> Result<RelationalPlan> {
    let mut used = q.rel_names();
    used.sort_unstable();
    used.dedup();
    let mut catalog = Catalog::new();
    for name in &used {
        let idx = names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| RelalgError::UnknownTable { name: name.clone() })?;
        catalog.put(name, world.rel_shared(idx).clone());
    }
    let base = |name: &str| catalog.schema_of(name);
    let plan = translate_opt_complete(q, &base).or_else(|_| translate_complete(q, &base, &used))?;
    let plan = relalg::simplify(&plan, &base)?;
    let expr = relalg::opt::optimize_joins(&plan, &catalog);
    Ok(RelationalPlan { expr, catalog })
}

impl RelationalPlan {
    /// Evaluate the plan and append its answer under `out_name` to `ws`,
    /// the world-set whose one world the plan was built over.
    pub fn run(&self, ws: &WorldSet, out_name: &str) -> Result<WorldSet> {
        let answer = self.catalog.eval(&self.expr)?;
        ws.extend_with(out_name, |_| Ok(answer.clone()))
    }
}

/// The gate of the relational route: `ws` holds exactly one world and `q`
/// is of type `1↦1`. Theorem 5.7: such a query goes "from complete to
/// incomplete information and back", so over that world it is plain
/// relational algebra. Returns the world to build the plan over.
pub fn route_applies<'a>(q: &Query, ws: &'a WorldSet) -> Option<&'a World> {
    let world = ws.the_world()?;
    is_complete_to_complete(q).then_some(world)
}

/// Evaluate a complete-to-complete query over a complete database as one
/// relational plan, so no world is ever built, and append its answer to
/// `ws` under `out_name`.
///
/// `None` when [`route_applies`] does not hold. Every base relation stays
/// the same `Arc`, so its epoch and memoized statistics survive into the
/// next statement. The result equals [`wsa::eval_named`]`(q, ws, out_name)`.
pub fn run_complete(q: &Query, ws: &WorldSet, out_name: &str) -> Option<Result<WorldSet>> {
    let world = route_applies(q, ws)?;
    Some(relational_plan(q, ws.rel_names(), world).and_then(|plan| plan.run(ws, out_name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::{attrs, Catalog, Relation};

    fn base(name: &str) -> Option<Schema> {
        match name {
            "R" => Some(Schema::of(&["A", "B"])),
            "S" => Some(Schema::of(&["C", "D"])),
            _ => None,
        }
    }

    #[test]
    fn fresh_ids_are_unique_across_instances() {
        // Two choices on the same attribute must get distinct id columns.
        let q = Query::rel("R")
            .choice(attrs(&["A"]))
            .project(attrs(&["B"]))
            .rename(vec![("B".into(), "B2".into())])
            .product(Query::rel("R").choice(attrs(&["A"])).project(attrs(&["B"])))
            .poss();
        let expr = translate_opt_complete(&q, &base).unwrap();
        let printed = expr.to_string();
        assert!(
            printed.contains("#1.A") && printed.contains("#2.A"),
            "{printed}"
        );
    }

    #[test]
    fn poss_drops_all_ids() {
        let q = Query::rel("R").choice(attrs(&["A"])).poss();
        let expr = translate_opt_complete(&q, &base).unwrap();
        let schema = expr.infer_schema(&|n| base(n)).unwrap();
        assert_eq!(schema, Schema::of(&["A", "B"]));
    }

    #[test]
    fn cert_divides_by_on_demand_world_table() {
        let q = Query::rel("R").choice(attrs(&["A"])).cert();
        let expr = translate_opt_complete(&q, &base).unwrap();
        assert!(expr.to_string().contains('÷'));
    }

    #[test]
    fn relational_queries_translate_without_ids() {
        let q = Query::rel("R").select(relalg::Pred::eq_const("A", 1));
        let expr = translate_opt_complete(&q, &base).unwrap();
        let mut catalog = Catalog::new();
        catalog.put("R", Relation::table(&["A", "B"], &[&[1i64, 2], &[3, 4]]));
        assert_eq!(catalog.eval(&expr).unwrap().len(), 1);
    }

    #[test]
    fn nested_choice_world_table_pad_extends() {
        // A χ under another χ pad-extends the prior world table so that
        // empty-answer worlds survive (the Remark-5.5 mechanism).
        let q = Query::rel("R")
            .choice(attrs(&["A"]))
            .select(relalg::Pred::eq_const("B", 99)) // empties every world
            .choice(attrs(&["B"]))
            .project(attrs(&["B"]))
            .cert();
        let expr = translate_opt_complete(&q, &base).unwrap();
        assert!(expr.to_string().contains("=⊲⊳"));
        let mut catalog = Catalog::new();
        catalog.put("R", Relation::table(&["A", "B"], &[&[1i64, 2], &[3, 4]]));
        // cert over worlds with empty answers is empty.
        assert!(catalog.eval(&expr).unwrap().is_empty());
    }
}
