//! X-tuples, lineage and the possible-worlds interpretation of ULDBs.

use std::collections::BTreeMap;

use relalg::{Relation, Result, Schema, Tuple};
use worldset::{World, WorldSet};

/// One alternative of an x-tuple: its values plus its lineage — references
/// to `(external x-tuple id, alternative index)` pairs that must be chosen
/// for this alternative to exist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alternative {
    /// The tuple values.
    pub values: Tuple,
    /// Lineage: all referenced alternatives must be selected.
    pub lineage: Vec<(String, usize)>,
}

impl Alternative {
    /// An alternative with empty lineage.
    pub fn new(values: impl Into<Tuple>) -> Alternative {
        Alternative {
            values: values.into(),
            lineage: vec![],
        }
    }

    /// An alternative whose existence depends on the given external
    /// alternative.
    pub fn with_lineage(values: impl Into<Tuple>, lineage: Vec<(String, usize)>) -> Alternative {
        Alternative {
            values: values.into(),
            lineage,
        }
    }
}

/// An x-tuple: a set of mutually exclusive alternatives; `maybe` x-tuples
/// (`?` in Trio notation) may be absent from a world altogether.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XTuple {
    /// Identifier (`t1`, `t2`, …).
    pub id: String,
    /// Whether the x-tuple may be missing from a world.
    pub maybe: bool,
    /// The mutually exclusive alternatives.
    pub alternatives: Vec<Alternative>,
}

/// A single-relation ULDB: x-tuples over a schema, plus *external* x-tuples
/// (referenced by lineage) given as `(id, number of alternatives)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Uldb {
    /// Schema of the represented relation.
    pub schema: Schema,
    /// The relation's x-tuples.
    pub tuples: Vec<XTuple>,
    /// External x-tuples: id and alternative count.
    pub externals: Vec<(String, usize)>,
}

impl Uldb {
    /// Enumerate the represented world-set: one world per choice of an
    /// alternative for every external x-tuple and per inclusion decision
    /// for the relation's x-tuples, subject to lineage consistency.
    /// Worlds that coincide as databases merge (the result is a *set*).
    pub fn rep(&self) -> Result<WorldSet> {
        // All assignments of external alternatives.
        let mut assignments: Vec<BTreeMap<String, usize>> = vec![BTreeMap::new()];
        for (id, n) in &self.externals {
            let mut next = Vec::with_capacity(assignments.len() * n);
            for a in &assignments {
                for alt in 0..*n {
                    let mut b = a.clone();
                    b.insert(id.clone(), alt);
                    next.push(b);
                }
            }
            assignments = next;
        }

        let mut worlds = Vec::new();
        for assignment in &assignments {
            // For each x-tuple: the alternatives consistent with the
            // assignment; plus absence if `maybe` (or if nothing is
            // consistent).
            let mut choices_per_tuple: Vec<Vec<Option<&Alternative>>> = Vec::new();
            for t in &self.tuples {
                let mut options: Vec<Option<&Alternative>> = t
                    .alternatives
                    .iter()
                    .filter(|alt| {
                        alt.lineage
                            .iter()
                            .all(|(id, i)| assignment.get(id) == Some(i))
                    })
                    .map(Some)
                    .collect();
                if t.maybe || options.is_empty() {
                    options.push(None);
                }
                choices_per_tuple.push(options);
            }
            // Cartesian product of per-tuple choices.
            let mut picks: Vec<Vec<Option<&Alternative>>> = vec![vec![]];
            for options in &choices_per_tuple {
                let mut next = Vec::with_capacity(picks.len() * options.len());
                for p in &picks {
                    for o in options {
                        let mut q = p.clone();
                        q.push(*o);
                        next.push(q);
                    }
                }
                picks = next;
            }
            for pick in picks {
                let rows = pick.into_iter().flatten().map(|alt| &alt.values);
                worlds.push(World::new(vec![Relation::from_rows(
                    self.schema.clone(),
                    rows,
                )?]));
            }
        }
        WorldSet::from_worlds(vec!["R".to_string()], worlds)
    }
}

/// The TriQL query of Remark 4.6 (adapted from the TriQL `[...]` horizontal
/// subquery): select the x-tuples having at least two distinct
/// alternatives. This reads the *representation* — which is exactly why
/// TriQL fails genericity.
pub fn horizontal_select_distinct_alts(db: &Uldb) -> Uldb {
    let tuples = db
        .tuples
        .iter()
        .filter(|t| {
            let distinct: std::collections::BTreeSet<&Tuple> =
                t.alternatives.iter().map(|a| &a.values).collect();
            distinct.len() >= 2
        })
        .cloned()
        .collect();
    Uldb {
        schema: db.schema.clone(),
        tuples,
        externals: db.externals.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::Value;

    /// U1 of Remark 4.6: one maybe x-tuple with alternatives (1) ‖ (2).
    pub fn u1() -> Uldb {
        Uldb {
            schema: Schema::of(&["A"]),
            tuples: vec![XTuple {
                id: "t1".into(),
                maybe: true,
                alternatives: vec![
                    Alternative::new(vec![Value::Int(1)]),
                    Alternative::new(vec![Value::Int(2)]),
                ],
            }],
            externals: vec![],
        }
    }

    /// U2 of Remark 4.6: two maybe x-tuples, each with one alternative,
    /// with lineage to the two alternatives of the external x-tuple s1.
    pub fn u2() -> Uldb {
        Uldb {
            schema: Schema::of(&["A"]),
            tuples: vec![
                XTuple {
                    id: "t1".into(),
                    maybe: true,
                    alternatives: vec![Alternative::with_lineage(
                        vec![Value::Int(1)],
                        vec![("s1".into(), 0)],
                    )],
                },
                XTuple {
                    id: "t2".into(),
                    maybe: true,
                    alternatives: vec![Alternative::with_lineage(
                        vec![Value::Int(2)],
                        vec![("s1".into(), 1)],
                    )],
                },
            ],
            externals: vec![("s1".into(), 2)],
        }
    }

    #[test]
    fn u1_and_u2_represent_the_same_worlds() {
        let w1 = u1().rep().unwrap();
        let w2 = u2().rep().unwrap();
        assert_eq!(w1, w2);
        assert_eq!(w1.len(), 3); // {}, {1}, {2} — worlds A, B, C
    }

    #[test]
    fn remark_4_6_triql_is_not_generic() {
        // The same TriQL query on the two equivalent representations yields
        // different world-sets: identity on U1, empty on U2.
        let q1 = horizontal_select_distinct_alts(&u1());
        let q2 = horizontal_select_distinct_alts(&u2());
        let r1 = q1.rep().unwrap();
        let r2 = q2.rep().unwrap();
        assert_ne!(r1, r2);
        assert_eq!(r1, u1().rep().unwrap()); // q(U1) = U1
        assert_eq!(r2.len(), 1); // q(U2) represents only the empty world
        assert!(r2.iter().next().unwrap().rel(0).is_empty());
    }

    #[test]
    fn wsa_on_the_represented_worlds_is_representation_independent() {
        // Contrast: any WSA query applied to rep(U1) and rep(U2) trivially
        // agrees because the world-sets are equal — WSA queries only see
        // the represented worlds (genericity, Proposition 4.5).
        let q = wsa_query();
        let a1 = wsa::eval(&q, &u1().rep().unwrap()).unwrap();
        let a2 = wsa::eval(&q, &u2().rep().unwrap()).unwrap();
        assert_eq!(a1, a2);
    }

    fn wsa_query() -> wsa::Query {
        wsa::Query::rel("R").poss()
    }

    #[test]
    fn lineage_constrains_coexistence() {
        // Alternatives pointing to different alternatives of the same
        // external x-tuple never share a world.
        let ws = u2().rep().unwrap();
        for w in ws.iter() {
            let rel = w.rel(0);
            assert!(rel.len() <= 1, "1 and 2 must be mutually exclusive");
        }
    }
}
