//! Static typing of WSA queries (Section 4.1, "Operator Typing") and schema
//! inference.
//!
//! Operators are typed by the cardinality of their input and output
//! world-sets: `1↦1`, `1↦m`, `m↦1`, `m↦m` (with overloading). A query is
//! **complete-to-complete** (`1↦1`) when, started on a singleton world-set,
//! its *answer* is the same relation in every resulting world — "their
//! outermost operators are either poss or cert" in the paper's examples.
//! The translation of Section 5 uses this type to decide whether the final
//! world-id attributes can be projected away (Theorem 5.7).

use relalg::{Attr, Pred, RelalgError, Result, Schema};

use crate::Query;

/// Whether a world-set is known to be a singleton.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Multiplicity {
    /// Exactly one world.
    One,
    /// Possibly many worlds.
    Many,
}

/// The inferred world-set type of a query for a given input multiplicity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WorldType {
    /// Cardinality class of the output world-set.
    pub worlds: Multiplicity,
    /// Whether the answer relation is guaranteed identical in all output
    /// worlds (the property that makes a query "map to a complete
    /// database").
    pub uniform: bool,
}

/// Infer the world-set type of `q` when applied to a world-set of
/// multiplicity `input`.
pub fn world_type(q: &Query, input: Multiplicity) -> WorldType {
    match q {
        Query::Rel(_) => WorldType {
            worlds: input,
            uniform: input == Multiplicity::One,
        },
        Query::Select(_, q)
        | Query::Project(_, q)
        | Query::Rename(_, q)
        | Query::Aggregate { input: q, .. } => world_type(q, input),
        Query::Product(a, b)
        | Query::Union(a, b)
        | Query::Intersect(a, b)
        | Query::Difference(a, b)
        | Query::SemiJoin {
            left: a, right: b, ..
        } => {
            let ta = world_type(a, input);
            let tb = world_type(b, input);
            let worlds = if ta.worlds == Multiplicity::One && tb.worlds == Multiplicity::One {
                Multiplicity::One
            } else {
                Multiplicity::Many
            };
            WorldType {
                worlds,
                uniform: ta.uniform && tb.uniform,
            }
        }
        Query::Choice(_, q) => {
            let _ = world_type(q, input);
            WorldType {
                worlds: Multiplicity::Many,
                uniform: false,
            }
        }
        Query::RepairKey(_, q) => {
            let _ = world_type(q, input);
            WorldType {
                worlds: Multiplicity::Many,
                uniform: false,
            }
        }
        Query::PossGroup { input: q, .. } | Query::CertGroup { input: q, .. } => {
            // Grouping preserves the world-set; answers become uniform only
            // if they already were (then all worlds share one group).
            world_type(q, input)
        }
        Query::Poss(q) | Query::Cert(q) => {
            let t = world_type(q, input);
            WorldType {
                worlds: t.worlds,
                uniform: true,
            }
        }
    }
}

/// Whether `q` is a complete-to-complete (`1↦1`) query: on a one-world
/// input, the answer relation is the same in every output world, so the
/// result is a complete database (Theorem 5.7's premise).
pub fn is_complete_to_complete(q: &Query) -> bool {
    let t = world_type(q, Multiplicity::One);
    t.uniform || t.worlds == Multiplicity::One
}

/// Infer the answer-relation schema of `q`, given base-relation schemas.
/// Also validates attribute references (selection conditions, projection
/// lists, grouping attributes, choice attributes, repair keys).
pub fn output_schema(q: &Query, base: &dyn Fn(&str) -> Option<Schema>) -> Result<Schema> {
    match q {
        Query::Rel(name) => {
            base(name).ok_or_else(|| RelalgError::UnknownTable { name: name.clone() })
        }
        Query::Select(pred, inner) => {
            let s = output_schema(inner, base)?;
            check_pred(pred, &s)?;
            Ok(s)
        }
        Query::Project(attrs, inner) => {
            let s = output_schema(inner, base)?;
            check_subset(attrs, &s)?;
            Schema::try_new(attrs.clone()).ok_or_else(|| RelalgError::DuplicateAttr {
                attr: attrs[0].clone(),
            })
        }
        Query::Rename(map, inner) => {
            let s = output_schema(inner, base)?;
            let renamed: Vec<Attr> = s
                .attrs()
                .iter()
                .map(|a| {
                    map.iter()
                        .find(|(src, _)| src == a)
                        .map(|(_, d)| d.clone())
                        .unwrap_or_else(|| a.clone())
                })
                .collect();
            for (src, _) in map {
                if !s.contains(src) {
                    return Err(RelalgError::UnknownAttr {
                        attr: src.clone(),
                        schema: s,
                    });
                }
            }
            Schema::try_new(renamed).ok_or_else(|| RelalgError::DuplicateAttr {
                attr: map[0].1.clone(),
            })
        }
        Query::Product(a, b) => {
            let sa = output_schema(a, base)?;
            let sb = output_schema(b, base)?;
            if !sa.disjoint(&sb) {
                return Err(RelalgError::NotDisjoint {
                    left: sa,
                    right: sb,
                });
            }
            let mut attrs = sa.attrs().to_vec();
            attrs.extend_from_slice(sb.attrs());
            Ok(Schema::new(attrs))
        }
        Query::Union(a, b) | Query::Intersect(a, b) | Query::Difference(a, b) => {
            let sa = output_schema(a, base)?;
            let sb = output_schema(b, base)?;
            if !sa.same_attr_set(&sb) {
                return Err(RelalgError::SchemaMismatch {
                    left: sa,
                    right: sb,
                });
            }
            Ok(sa)
        }
        Query::Choice(attrs, inner) | Query::RepairKey(attrs, inner) => {
            let s = output_schema(inner, base)?;
            check_subset(attrs, &s)?;
            Ok(s)
        }
        Query::Poss(inner) | Query::Cert(inner) => output_schema(inner, base),
        Query::PossGroup { group, proj, input } | Query::CertGroup { group, proj, input } => {
            let s = output_schema(input, base)?;
            check_subset(group, &s)?;
            check_subset(proj, &s)?;
            Schema::try_new(proj.clone()).ok_or_else(|| RelalgError::DuplicateAttr {
                attr: proj[0].clone(),
            })
        }
        Query::Aggregate { group, aggs, input } => {
            let s = output_schema(input, base)?;
            check_subset(group, &s)?;
            for arg in aggs.iter().filter_map(|a| a.arg.as_ref()) {
                check_subset(std::slice::from_ref(arg), &s)?;
            }
            let mut attrs = group.clone();
            attrs.extend(aggs.iter().map(|a| a.out.clone()));
            Schema::try_new(attrs).ok_or_else(|| RelalgError::DuplicateAttr {
                attr: aggs
                    .first()
                    .map_or_else(|| Attr::new("?"), |a| a.out.clone()),
            })
        }
        Query::SemiJoin {
            on, left, right, ..
        } => {
            let sl = output_schema(left, base)?;
            let sr = output_schema(right, base)?;
            let (l, r): (Vec<Attr>, Vec<Attr>) = on.iter().cloned().unzip();
            check_subset(&l, &sl)?;
            check_subset(&r, &sr)?;
            Ok(sl)
        }
    }
}

fn check_subset(attrs: &[Attr], s: &Schema) -> Result<()> {
    for a in attrs {
        if !s.contains(a) {
            return Err(RelalgError::UnknownAttr {
                attr: a.clone(),
                schema: s.clone(),
            });
        }
    }
    Ok(())
}

fn check_pred(pred: &Pred, s: &Schema) -> Result<()> {
    for a in pred.attrs() {
        if !s.contains(&a) {
            return Err(RelalgError::UnknownAttr {
                attr: a,
                schema: s.clone(),
            });
        }
    }
    Ok(())
}

/// An upper bound on the factor by which a query can multiply the number of
/// worlds, given the active-domain size (Section 7's counting argument:
/// "choice-of \[is\] the only operation to increase the number of worlds").
/// `χ_U` multiplies by at most `adom^|U|` (one world per `U`-value
/// combination); `repair-by-key` by at most `adom^arity` per key group —
/// bounded here by `adom^arity` overall per operator application on
/// relations with at most `adom^arity` tuples.
pub fn world_growth_bound(q: &Query, adom: u64) -> u64 {
    match q {
        Query::Rel(_) => 1,
        Query::Select(_, inner)
        | Query::Project(_, inner)
        | Query::Rename(_, inner)
        | Query::Poss(inner)
        | Query::Cert(inner)
        | Query::PossGroup { input: inner, .. }
        | Query::CertGroup { input: inner, .. }
        | Query::Aggregate { input: inner, .. } => world_growth_bound(inner, adom),
        Query::Product(a, b)
        | Query::Union(a, b)
        | Query::Intersect(a, b)
        | Query::Difference(a, b)
        | Query::SemiJoin {
            left: a, right: b, ..
        } => world_growth_bound(a, adom).saturating_mul(world_growth_bound(b, adom)),
        Query::Choice(attrs, inner) => world_growth_bound(inner, adom)
            .saturating_mul(adom.saturating_pow(attrs.len() as u32).saturating_add(1)),
        Query::RepairKey(_, inner) => {
            // Each key group contributes at most its size; the total number
            // of repairs is bounded by adom^arity choose structure — we use
            // the crude bound adom^adom per application, which suffices for
            // the Section-7 separation argument (it is a constant in the
            // number of *worlds*).
            world_growth_bound(inner, adom)
                .saturating_mul(adom.saturating_pow(adom.min(16) as u32).saturating_add(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::attrs;

    fn base(name: &str) -> Option<Schema> {
        match name {
            "R" => Some(Schema::of(&["A", "B"])),
            "S" => Some(Schema::of(&["C"])),
            _ => None,
        }
    }

    #[test]
    fn closed_queries_are_complete_to_complete() {
        let q = Query::rel("R")
            .choice(attrs(&["A"]))
            .project(attrs(&["B"]))
            .cert();
        assert!(is_complete_to_complete(&q));
        assert_eq!(world_type(&q, Multiplicity::One).worlds, Multiplicity::Many);
    }

    #[test]
    fn open_choice_is_not_complete() {
        let q = Query::rel("R").choice(attrs(&["A"]));
        assert!(!is_complete_to_complete(&q));
    }

    #[test]
    fn pure_relational_queries_are_complete() {
        let q = Query::rel("R").select(Pred::eq_const("A", 1));
        assert!(is_complete_to_complete(&q));
        assert_eq!(world_type(&q, Multiplicity::One).worlds, Multiplicity::One);
    }

    #[test]
    fn grouping_preserves_uniformity_only() {
        let open = Query::rel("R")
            .choice(attrs(&["A"]))
            .poss_group(attrs(&["B"]), attrs(&["A", "B"]));
        assert!(!is_complete_to_complete(&open));
        let closed = open.poss();
        assert!(is_complete_to_complete(&closed));
    }

    #[test]
    fn binary_needs_both_uniform() {
        let closed = Query::rel("R").choice(attrs(&["A"])).poss();
        let open = Query::rel("R").choice(attrs(&["A"]));
        assert!(is_complete_to_complete(
            &closed.clone().union(closed.clone())
        ));
        assert!(!is_complete_to_complete(&closed.union(open)));
    }

    #[test]
    fn schema_inference_and_validation() {
        let q = Query::rel("R")
            .choice(attrs(&["A"]))
            .poss_group(attrs(&["A"]), attrs(&["B"]));
        assert_eq!(output_schema(&q, &base).unwrap(), Schema::of(&["B"]));

        let bad = Query::rel("R").project(attrs(&["Z"]));
        assert!(output_schema(&bad, &base).is_err());
        let bad = Query::rel("R").select(Pred::eq_const("Z", 1));
        assert!(output_schema(&bad, &base).is_err());
        let bad = Query::rel("R").union(Query::rel("S"));
        assert!(output_schema(&bad, &base).is_err());
        let bad = Query::rel("R").product(Query::rel("R"));
        assert!(output_schema(&bad, &base).is_err());
    }

    #[test]
    fn choice_and_repair_preserve_schema() {
        let q = Query::rel("R").choice(attrs(&["A"]));
        assert_eq!(output_schema(&q, &base).unwrap(), Schema::of(&["A", "B"]));
        let q = Query::rel("R").repair_by_key(attrs(&["A"]));
        assert_eq!(output_schema(&q, &base).unwrap(), Schema::of(&["A", "B"]));
    }

    use relalg::Pred;
}
