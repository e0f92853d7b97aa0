//! The general WSA-to-relational translation `⟦·⟧τ` of Figure 6.
//!
//! The translation takes a world-set query and an inlined representation
//! `T = ⟨R₁,…,R_k, W⟩` to a new representation `⟨R₁′,…,R_k′, R_{k+1}′, W′⟩`
//! where every primed table is a relational algebra expression over the
//! input tables. Operators that create worlds (`χ_B`) extend the world-id
//! attribute set; `poss`/`cert` and the grouping operators consume it.
//!
//! The output is a DAG of [`relalg::Expr`] nodes — shared subplans such as
//! the world table are built once and referenced many times, which keeps
//! the translated query polynomial in the size of the input query
//! (Theorem 5.7).

use relalg::{Attr, Catalog, Expr, Pred, RelalgError, Relation, Result, Schema};
use worldset::WorldSet;
use wsa::typing::is_complete_to_complete;
use wsa::Query;

use crate::InlinedRep;

/// Catalog name under which the world table of an encoded representation is
/// registered.
const W_TABLE: &str = "#W";

/// The result of translating a query over an inlined representation: the
/// expressions for the copied base tables, the answer, and the world table.
#[derive(Clone, Debug)]
pub struct Translated {
    /// Relation names `R₁…R_k` (without the answer).
    pub names: Vec<String>,
    /// Expressions computing `R₁′…R_k′` (copied into all created worlds).
    pub tables: Vec<Expr>,
    /// Expression computing the answer table `R_{k+1}′`.
    pub answer: Expr,
    /// The value attributes `D` of the answer.
    pub answer_value_attrs: Vec<Attr>,
    /// The final world-id attributes `V`.
    pub id_attrs: Vec<Attr>,
    /// Expression computing the world table `W′`.
    pub world_table: Expr,
}

struct State {
    tables: Vec<Expr>,
    w: Expr,
    ids: Vec<Attr>,
}

impl Clone for State {
    fn clone(&self) -> Self {
        State {
            tables: self.tables.clone(),
            w: self.w.clone(),
            ids: self.ids.clone(),
        }
    }
}

struct Translator<'a> {
    /// Value-attribute schemas of the base relations.
    base: &'a dyn Fn(&str) -> Option<Schema>,
    names: Vec<String>,
    counter: usize,
    /// Scratch: the pairing artifacts of the most recent
    /// `group_candidates` call, consumed by the `cγ` refinement.
    last_sprime: Option<Expr>,
    last_t: Option<Expr>,
}

impl<'a> Translator<'a> {
    fn fresh_ids(&mut self, attrs: &[Attr], tag: &str) -> Vec<Attr> {
        self.counter += 1;
        let n = self.counter;
        attrs
            .iter()
            .map(|a| Attr::new(&format!("#{tag}{n}.{a}")))
            .collect()
    }

    /// Returns (new state, answer expression, answer value attributes `D`).
    fn translate(&mut self, q: &Query, st: &State) -> Result<(State, Expr, Vec<Attr>)> {
        match q {
            Query::Rel(name) => {
                let idx = self
                    .names
                    .iter()
                    .position(|n| n == name)
                    .ok_or_else(|| RelalgError::UnknownTable { name: name.clone() })?;
                let d = (self.base)(name)
                    .ok_or_else(|| RelalgError::UnknownTable { name: name.clone() })?
                    .attrs()
                    .to_vec();
                Ok((st.clone(), st.tables[idx].clone(), d))
            }

            Query::Select(p, inner) => {
                let (st, ans, d) = self.translate(inner, st)?;
                Ok((st, ans.select(p.clone()), d))
            }

            Query::Rename(map, inner) => {
                let (st, ans, d) = self.translate(inner, st)?;
                let d2: Vec<Attr> = d
                    .iter()
                    .map(|a| {
                        map.iter()
                            .find(|(s, _)| s == a)
                            .map(|(_, t)| t.clone())
                            .unwrap_or_else(|| a.clone())
                    })
                    .collect();
                Ok((st, ans.rename(map.clone()), d2))
            }

            Query::Project(attrs, inner) => {
                // π_A keeps the id attributes: π_{A,V}(R).
                let (st, ans, _) = self.translate(inner, st)?;
                let mut keep = attrs.clone();
                keep.extend(st.ids.iter().cloned());
                Ok((st.clone(), ans.project(keep), attrs.clone()))
            }

            Query::Choice(b, inner) => {
                let (st, ans, d) = self.translate(inner, st)?;
                let vb = self.fresh_ids(b, "c");
                // W′ = π_{V∪V_B}(W =⊲⊳ δ_{B→V_B}(π_{B∪V}(R))): one id row per
                // choice value; worlds whose answer is empty survive with the
                // pad constant in the new id columns.
                let mut bv = b.clone();
                bv.extend(st.ids.iter().cloned());
                let choices = ans
                    .project(bv)
                    .rename(b.iter().cloned().zip(vb.iter().cloned()).collect());
                let mut new_ids = st.ids.clone();
                new_ids.extend(vb.iter().cloned());
                let wprime = st.w.outer_pad_join(&choices).project(new_ids.clone());
                // R′ = π_{D,V,B as V_B}(R): the choice attributes double as
                // the new world ids.
                let mut proj: Vec<(Attr, Attr)> =
                    d.iter().map(|a| (a.clone(), a.clone())).collect();
                proj.extend(st.ids.iter().map(|a| (a.clone(), a.clone())));
                proj.extend(b.iter().cloned().zip(vb.iter().cloned()));
                let answer = ans.project_as(proj);
                // Copy every base table into the new worlds.
                let tables = st.tables.iter().map(|t| t.natural_join(&wprime)).collect();
                Ok((
                    State {
                        tables,
                        w: wprime,
                        ids: new_ids,
                    },
                    answer,
                    d,
                ))
            }

            Query::Poss(inner) => {
                let (st, ans, d) = self.translate(inner, st)?;
                // π_D(R) × W — the union over all worlds, copied everywhere.
                let answer = ans.project(d.clone()).product(&st.w);
                Ok((st, answer, d))
            }

            Query::Cert(inner) => {
                let (st, ans, d) = self.translate(inner, st)?;
                // (R ÷ W) × W — tuples present under every world id.
                let answer = ans.divide(&st.w).product(&st.w);
                Ok((st, answer, d))
            }

            Query::PossGroup { group, proj, input } => {
                let (st, ans, d) = self.translate(input, st)?;
                let (cand, v2) = self.group_candidates(&ans, &d, group, proj, &st.ids)?;
                // Keep group ids, rename them into the world-id position.
                let mut list: Vec<(Attr, Attr)> =
                    proj.iter().map(|a| (a.clone(), a.clone())).collect();
                list.extend(v2.iter().cloned().zip(st.ids.iter().cloned()));
                Ok((st.clone(), cand.project_as(list), proj.clone()))
            }

            Query::CertGroup { group, proj, input } => {
                let (st, ans, d) = self.translate(input, st)?;
                let (cand, v2) = self.group_candidates(&ans, &d, group, proj, &st.ids)?;
                // cand(b, v2) holds candidates appearing somewhere in the
                // group; subtract those missing from some member world.
                let sprime = self.last_sprime.clone().expect("set by group_candidates");
                let mut bv2 = proj.clone();
                bv2.extend(v2.iter().cloned());
                let mut bvv2 = proj.clone();
                bvv2.extend(st.ids.iter().cloned());
                bvv2.extend(v2.iter().cloned());
                let present = self
                    .last_t
                    .clone()
                    .expect("set by group_candidates")
                    .project(bvv2);
                let required = cand.natural_join(&sprime);
                let missing = required.difference(&present).project(bv2);
                let certc = cand.difference(&missing);
                let mut list: Vec<(Attr, Attr)> =
                    proj.iter().map(|a| (a.clone(), a.clone())).collect();
                list.extend(v2.iter().cloned().zip(st.ids.iter().cloned()));
                Ok((st.clone(), certc.project_as(list), proj.clone()))
            }

            Query::Product(a, b) => self.binary(st, a, b, BinOp::Product),
            Query::Union(a, b) => self.binary(st, a, b, BinOp::Union),
            Query::Intersect(a, b) => self.binary(st, a, b, BinOp::Intersect),
            Query::Difference(a, b) => self.binary(st, a, b, BinOp::Difference),

            // The world table lists every world, and a repair has one per
            // choice of a tuple in every key group: exponentially many
            // (Proposition 4.2). The Section-5.3 translation runs key-local
            // repairs without listing them.
            Query::RepairKey(_, _) => Err(RelalgError::TypeError {
                detail: "repair-by-key would list every repair in the world \
                         table (Proposition 4.2)"
                    .into(),
            }),

            // Figure 6 has no clause for them; the Section-5.3 translation
            // (`translate_opt`) runs both.
            Query::Aggregate { .. } | Query::SemiJoin { .. } => Err(RelalgError::TypeError {
                detail: "aggregation and semijoins are outside Figure 6's \
                         general translation"
                    .into(),
            }),
        }
    }

    /// Shared grouping machinery for `pγ^B_A` / `cγ^B_A` (Figure 6, `γ^B_A`):
    /// pairs every answer tuple with the ids of all worlds in its group.
    ///
    /// Returns `cand(B ∪ V₂)` — for every group-member id `v₂`, the union of
    /// `π_B` over the group — and the fresh id copies `V₂`. Also stashes the
    /// pairing artifacts needed by the `cγ` refinement.
    ///
    /// Erratum fix vs. the printed figure: the "different group" relation is
    /// symmetrized so that the complement `S′` is a true equivalence (the
    /// printed one-directional difference makes `S′` a containment test,
    /// contradicting the worked Example 5.4).
    fn group_candidates(
        &mut self,
        ans: &Expr,
        d: &[Attr],
        group: &[Attr],
        proj: &[Attr],
        ids: &[Attr],
    ) -> Result<(Expr, Vec<Attr>)> {
        let v2 = self.fresh_ids(ids, "g");
        let a2 = self.fresh_ids(group, "a");
        let _ = d;

        // X(a, v) — group-attribute values per world.
        let mut av = group.to_vec();
        av.extend(ids.iter().cloned());
        let x = ans.project(av);
        // X₂(a₂, v₂) — a renamed copy.
        let mut list: Vec<(Attr, Attr)> = group.iter().cloned().zip(a2.iter().cloned()).collect();
        list.extend(ids.iter().cloned().zip(v2.iter().cloned()));
        let x2 = x.project_as(list);

        let worlds1 = ans.project(ids.to_vec());
        let worlds2 = worlds1.project_as(ids.iter().cloned().zip(v2.iter().cloned()).collect());
        let all_pairs = worlds1.product(&worlds2);

        // (a, v, v₂) with a ∈ π_A(v) and a ∈ π_A(v₂).
        let mut eq = Pred::True;
        for (a, b) in group.iter().zip(&a2) {
            eq = eq.and(Pred::eq_attr(a.clone(), b.clone()));
        }
        let mut avv2 = group.to_vec();
        avv2.extend(ids.iter().cloned());
        avv2.extend(v2.iter().cloned());
        let matched = x.product(&x2).select(eq).project(avv2);
        // Pairs where world v has a group value absent from v₂ …
        let mut idv2 = ids.to_vec();
        idv2.extend(v2.iter().cloned());
        let in_v1 = x.product(&worlds2);
        let diff_dir = in_v1.difference(&matched).project(idv2.clone());
        // … symmetrized (erratum fix), so S′ is an equivalence.
        let mut swap: Vec<(Attr, Attr)> = v2.iter().cloned().zip(ids.iter().cloned()).collect();
        swap.extend(ids.iter().cloned().zip(v2.iter().cloned()));
        let s = diff_dir.union(&diff_dir.project_as(swap));
        let sprime = all_pairs.difference(&s);

        // T(d, v, v₂): every answer tuple paired with every world of its
        // group.
        let t = ans.natural_join(&sprime);
        let mut bv2: Vec<Attr> = proj.to_vec();
        bv2.extend(v2.iter().cloned());
        let cand = t.project(bv2);

        self.last_sprime = Some(sprime);
        self.last_t = Some(t);
        Ok((cand, v2))
    }

    fn binary(
        &mut self,
        st: &State,
        a: &Query,
        b: &Query,
        op: BinOp,
    ) -> Result<(State, Expr, Vec<Attr>)> {
        // Both operands are translated against the *original* representation.
        let (st1, ans1, d1) = self.translate(a, st)?;
        let (st2, ans2, d2) = self.translate(b, st)?;
        // W₀ = W′ ⋈ W′′: all combinations of the worlds created by the two
        // operands, agreeing on the pre-existing ids.
        let w0 = st1.w.natural_join(&st2.w);
        let mut ids = st1.ids.clone();
        for v in &st2.ids {
            if !ids.contains(v) {
                ids.push(v.clone());
            }
        }
        let tables: Vec<Expr> = st.tables.iter().map(|t| t.natural_join(&w0)).collect();
        let (answer, d) = match op {
            BinOp::Product => {
                // R′ ⋈_{V=V} R′′ — value product, join on shared ids.
                let mut d = d1.clone();
                d.extend(d2.iter().cloned());
                (ans1.natural_join(&ans2), d)
            }
            _ => {
                if d1.len() != d2.len() {
                    return Err(RelalgError::SchemaMismatch {
                        left: Schema::new(d1),
                        right: Schema::new(d2),
                    });
                }
                // Copy each operand into the combined worlds, then apply the
                // set operation.
                let l = ans1.natural_join(&w0);
                let r = ans2.natural_join(&w0);
                let combined = match op {
                    BinOp::Union => l.union(&r),
                    BinOp::Intersect => l.intersect(&r),
                    BinOp::Difference => l.difference(&r),
                    BinOp::Product => unreachable!(),
                };
                (combined, d1)
            }
        };
        Ok((State { tables, w: w0, ids }, answer, d))
    }
}

enum BinOp {
    Product,
    Union,
    Intersect,
    Difference,
}

impl<'a> Translator<'a> {
    fn new(base: &'a dyn Fn(&str) -> Option<Schema>, names: Vec<String>) -> Translator<'a> {
        Translator {
            base,
            names,
            counter: 0,
            last_sprime: None,
            last_t: None,
        }
    }
}

/// Translate an arbitrary WSA query over an encoded inlined representation.
pub fn translate_general(q: &Query, rep: &InlinedRep) -> Result<Translated> {
    let value_schemas: Vec<(String, Schema)> = rep
        .names
        .iter()
        .zip(&rep.tables)
        .map(|(n, t)| (n.clone(), Schema::new(t.schema().minus(&rep.id_attrs))))
        .collect();
    let lookup = move |name: &str| -> Option<Schema> {
        value_schemas
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.clone())
    };
    let mut tr = Translator::new(&lookup, rep.names.clone());
    let st = State {
        tables: rep.names.iter().map(|n| Expr::table(n)).collect(),
        w: if rep.id_attrs.is_empty() {
            Expr::lit(rep.world_table.clone())
        } else {
            Expr::table(W_TABLE)
        },
        ids: rep.id_attrs.clone(),
    };
    let (st, answer, d) = tr.translate(q, &st)?;
    Ok(Translated {
        names: rep.names.clone(),
        tables: st.tables,
        answer,
        answer_value_attrs: d,
        id_attrs: st.ids,
        world_table: st.w,
    })
}

/// Translate a **complete-to-complete** (`1↦1`) query into a single
/// relational algebra expression over the ordinary input database — the
/// constructive content of Theorem 5.7. The final projection drops the id
/// attributes created by nested operators.
pub fn translate_complete(
    q: &Query,
    base: &dyn Fn(&str) -> Option<Schema>,
    names: &[String],
) -> Result<Expr> {
    if !is_complete_to_complete(q) {
        return Err(RelalgError::TypeError {
            detail: format!("query is not of type 1↦1: {q}"),
        });
    }
    let mut tr = Translator::new(base, names.to_vec());
    let st = State {
        tables: names.iter().map(|n| Expr::table(n)).collect(),
        w: Expr::lit(Relation::unit()),
        ids: vec![],
    };
    let (_, answer, d) = tr.translate(q, &st)?;
    Ok(answer.project(d))
}

/// Run the general translation end to end: encode nothing (the `rep` is
/// given), evaluate every translated table with a relational engine, and
/// decode the resulting representation back into a world-set.
///
/// When the rewrite path is on (the default; `set local rewrite = off`
/// turns it off), the WSA query
/// first runs through the Section-6 logical optimizer with real base-table
/// cardinalities, and the translated expressions are algebraically
/// simplified and join-ordered in one batch. Either way the batch evaluates
/// through one [`relalg::EvalCache`], so a subplan shared across the outputs
/// (the world table every copied base table joins with) evaluates once per
/// call.
///
/// It always runs the Figure-6 translation, however many implicit worlds
/// the query creates: they appear only as rows of the answer's world
/// table, never as materialized databases. (The factorized engine is
/// chosen by `wsa::plan_query` on the world-set route, not here.)
///
/// `run_general(q, encode(A)).rep()` must equal the direct Figure-3
/// semantics `⟦q⟧(A)` — the conservativity tests check exactly this, with
/// the rewrite path both on and off.
pub fn run_general(q: &Query, rep: &InlinedRep, answer_name: &str) -> Result<WorldSet> {
    run_general_counted(q, rep, answer_name).map(|(ws, _)| ws)
}

/// [`run_general`], and the counters of its evaluation memo.
fn run_general_counted(
    q: &Query,
    rep: &InlinedRep,
    answer_name: &str,
) -> Result<(WorldSet, relalg::EvalStats)> {
    let rewrite = relalg::config::rewrite_enabled();
    let optimized;
    let q = if rewrite {
        let value_schemas: Vec<(String, Schema)> = rep
            .names
            .iter()
            .zip(&rep.tables)
            .map(|(n, t)| (n.clone(), Schema::new(t.schema().minus(&rep.id_attrs))))
            .collect();
        let base = |name: &str| -> Option<Schema> {
            value_schemas
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s.clone())
        };
        let cards = |name: &str| -> Option<u64> {
            rep.names
                .iter()
                .position(|n| n == name)
                .map(|i| rep.tables[i].len() as u64)
        };
        // Measured per-column statistics of the inlined tables (restricted
        // to the value attributes the WSA query can reference): the cost
        // model ranks the cost-based rules on real cardinalities.
        let stats = |name: &str| -> Option<wsa_rewrite::TableStats> {
            let i = rep.names.iter().position(|n| n == name)?;
            let table = &rep.tables[i];
            let s = table.stats();
            let distinct = table
                .schema()
                .minus(&rep.id_attrs)
                .into_iter()
                .filter_map(|a| s.distinct_of(table.schema(), &a).map(|d| (a, d)))
                .collect();
            Some(wsa_rewrite::TableStats {
                rows: s.rows,
                distinct,
            })
        };
        // The uniformity-conditioned rules assume a complete database;
        // over a representation encoding several worlds they stay off.
        let multiplicity = if rep.world_count() <= 1 {
            wsa::typing::Multiplicity::One
        } else {
            wsa::typing::Multiplicity::Many
        };
        let ctx = wsa_rewrite::RewriteCtx::new(&base)
            .with_cards(&cards)
            .with_stats(&stats)
            .with_multiplicity(multiplicity);
        optimized = wsa_rewrite::optimize(q, &ctx);
        &optimized
    } else {
        q
    };
    let tr = translate_general(q, rep)?;
    let mut catalog = Catalog::new();
    for (name, table) in rep.names.iter().zip(&rep.tables) {
        catalog.put(name, table.clone());
    }
    catalog.put(W_TABLE, rep.world_table.clone());

    let mut names = tr.names.clone();
    names.push(answer_name.to_string());
    // The k translated base tables, the answer and the world table, in one
    // batch: the world-table subplan is referenced by every one of them.
    let mut outputs = tr.tables.clone();
    outputs.push(tr.answer.clone());
    outputs.push(tr.world_table.clone());
    // On the rewrite path, clean the translated plans up algebraically
    // before evaluation (projection-chain fusion, unit-table elimination —
    // fewer intermediate materializations), then let the statistics-driven
    // Expr-level optimizer re-associate the pairing/join structure on the
    // measured cardinalities of the catalog's tables. Both passes are
    // semantics-preserving and map a node shared across the outputs to one
    // shared node; a batch they cannot handle evaluates raw.
    if rewrite {
        if let Ok(simplified) = relalg::simplify_all(&outputs, &|n| catalog.schema_of(n)) {
            outputs = relalg::opt::optimize_joins_all(&simplified, &catalog);
        }
    }
    // One memo across every output expression, so each shared node
    // evaluates once for the whole batch, not once per table.
    let mut cache = relalg::EvalCache::new();
    let mut shared = outputs
        .iter()
        .map(|e| catalog.eval_cached(e, &mut cache))
        .collect::<Result<Vec<_>>>()?;
    let world_table = shared.pop().expect("the world table is the last output");
    // Decode straight off the shared evaluation results: the eval memo
    // still holds references to them, so unsharing here would deep-copy
    // every materialized table on every call.
    let table_refs: Vec<&Relation> = shared.iter().map(|a| a.as_ref()).collect();
    let ws = crate::rep::decode_worlds(names, &table_refs, &tr.id_attrs, &world_table)?;
    Ok((ws, cache.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::{attrs, Relation};

    fn rep() -> InlinedRep {
        InlinedRep::single_world(vec![
            ("R", Relation::table(&["A", "B"], &[&[1i64, 2], &[2, 3]])),
            ("S", Relation::table(&["C"], &[&[5i64]])),
        ])
    }

    #[test]
    fn translated_struct_exposes_all_parts() {
        let q = Query::rel("R").choice(attrs(&["A"]));
        let t = translate_general(&q, &rep()).unwrap();
        assert_eq!(t.names, vec!["R".to_string(), "S".to_string()]);
        assert_eq!(t.tables.len(), 2);
        assert_eq!(t.answer_value_attrs, attrs(&["A", "B"]));
        assert_eq!(t.id_attrs.len(), 1);
        assert!(t.id_attrs[0].name().starts_with('#'));
    }

    #[test]
    fn unknown_relation_rejected() {
        let q = Query::rel("Nope");
        assert!(translate_general(&q, &rep()).is_err());
    }

    #[test]
    fn world_table_starts_as_unit_for_single_world() {
        let q = Query::rel("R");
        let t = translate_general(&q, &rep()).unwrap();
        assert!(t.id_attrs.is_empty());
        assert_eq!(t.world_table, Expr::lit(Relation::unit()));
    }

    /// B9's trip shape over one world and over four: with the rewrite path
    /// on, the batch evaluates no more composite nodes than an evaluator
    /// that also deduplicated structurally equal subplans did (6).
    #[test]
    fn b9_trip_shapes_evaluate_each_subplan_once() {
        let q = Query::rel("HFlights")
            .choice(attrs(&["Dep"]))
            .project(attrs(&["Arr"]))
            .cert();
        let flights = datagen::flights(1, 8, 12, 6);
        let one = InlinedRep::single_world(vec![("HFlights", flights.clone())]);
        let ws = WorldSet::single(vec![("HFlights", flights)]);
        let split =
            wsa::eval_named(&Query::rel("HFlights").choice(attrs(&["Dep"])), &ws, "HF").unwrap();
        let four: Vec<worldset::World> = split
            .iter()
            .take(4)
            .map(|w| worldset::World::new(vec![w.last().clone()]))
            .collect();
        let four = WorldSet::from_worlds(vec!["HFlights".into()], four).unwrap();
        for rep in [one, InlinedRep::encode(&four).unwrap()] {
            let (out, stats) = run_general_counted(&q, &rep, "Ans").unwrap();
            assert_eq!(
                out,
                wsa::eval_named(&q, &rep.rep().unwrap(), "Ans").unwrap()
            );
            assert!(stats.misses <= 6, "{stats:?}");
        }
    }

    #[test]
    fn run_general_names_the_answer() {
        let q = Query::rel("R").project(attrs(&["B"]));
        let out = run_general(&q, &rep(), "MyAnswer").unwrap();
        assert_eq!(
            out.rel_names(),
            ["R".to_string(), "S".to_string(), "MyAnswer".to_string()]
        );
    }
}
