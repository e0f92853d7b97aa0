//! The possible-worlds semantics of World-set Algebra (Figure 3).
//!
//! `⟦q⟧(A)` maps a world-set `A` over `⟨R₁,…,R_k⟩` to a world-set over
//! `⟨R₁,…,R_{k+1}⟩`: each world is extended with the answer to `q` in it.
//!
//! * Relational operators apply to the answer relation per world; *binary*
//!   operators evaluate both operands against the **original** `A` and then
//!   combine answer relations of operand-worlds that agree on `R₁,…,R_k`
//!   ("we forbid operations between relations that occur in different worlds
//!   in the original world-set").
//! * `χ_U` splits each world into one world per `U`-value of its answer
//!   (keeping `R₁,…,R_k`, which ensures compositionality); an empty answer
//!   yields a single world with the empty answer.
//! * `pγ^V_U` / `cγ^V_U` group **all** worlds whose answers agree on `π_U`,
//!   and replace each answer by the union/intersection of `π_V` within the
//!   group (cf. Example 3.1: grouping looks across all worlds, not only
//!   those sharing a prefix).
//! * `poss`/`cert` are the trivial groupings `pγ^*_true` / `cγ^*_true`.
//! * `repair-by-key_U` splits each world into one world per maximal repair
//!   of the answer under the key `U` (Section 4.1, extension).

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

use relalg::{Relation, Result, Tuple};
use worldset::{Prefix, World, WorldSet};

use crate::Query;

/// Evaluate `q` on world-set `ws`, appending the answer relation under the
/// name `"Q"`.
pub fn eval(q: &Query, ws: &WorldSet) -> Result<WorldSet> {
    eval_named(q, ws, "Q")
}

/// Evaluate `q` on world-set `ws`, appending the answer relation under
/// `out_name`. The input world-set is unchanged except for the appended
/// relation — exactly the `⟨R₁,…,R_k⟩ ↦ ⟨R₁,…,R_{k+1}⟩` scheme of the paper.
pub fn eval_named(q: &Query, ws: &WorldSet, out_name: &str) -> Result<WorldSet> {
    let worlds = eval_worlds(q, ws)?;
    let mut names = ws.rel_names().to_vec();
    names.push(out_name.to_string());
    WorldSet::from_worlds(names, worlds)
}

/// Core evaluator: returns the extended worlds (k+1 relations each),
/// deduplicated (the model is a *set* of worlds; without deduplication
/// nested world-splitting operators would multiply identical worlds).
pub(crate) fn eval_worlds(q: &Query, ws: &WorldSet) -> Result<Vec<World>> {
    let raw = eval_worlds_inner(q, ws)?;
    Ok(dedup_worlds(raw))
}

/// Deduplicate a world list (the model is a *set* of worlds).
pub(crate) fn dedup_worlds(raw: Vec<World>) -> Vec<World> {
    let set: std::collections::BTreeSet<World> = raw.into_iter().collect();
    set.into_iter().collect()
}

fn eval_worlds_inner(q: &Query, ws: &WorldSet) -> Result<Vec<World>> {
    match q {
        Query::Rel(name) => {
            let idx = ws
                .index_of(name)
                .ok_or_else(|| relalg::RelalgError::UnknownTable { name: name.clone() })?;
            // The answer is the base relation itself: a shared handle, so
            // appending it to every world is a reference-count bump.
            Ok(ws
                .iter()
                .map(|w| w.with(w.rel_shared(idx).clone()))
                .collect())
        }

        Query::Select(p, inner) => unary(ws, inner, |r| r.select(p)),
        Query::Project(attrs, inner) => unary(ws, inner, |r| r.project(attrs)),
        Query::Rename(map, inner) => unary(ws, inner, |r| r.rename(map)),

        Query::Product(a, b) => binary(ws, a, b, |l, r| l.product(r)),
        Query::Union(a, b) => binary(ws, a, b, |l, r| l.union(r)),
        Query::Intersect(a, b) => binary(ws, a, b, |l, r| l.intersect(r)),
        Query::Difference(a, b) => binary(ws, a, b, |l, r| l.difference(r)),

        Query::Choice(attrs, inner) => {
            let input = eval_worlds(inner, ws)?;
            apply_choice(&input, attrs)
        }

        Query::Poss(inner) => grouped(ws, inner, None, None, true),
        Query::Cert(inner) => grouped(ws, inner, None, None, false),
        Query::PossGroup { group, proj, input } => {
            grouped(ws, input, Some(group), Some(proj), true)
        }
        Query::CertGroup { group, proj, input } => {
            grouped(ws, input, Some(group), Some(proj), false)
        }

        Query::RepairKey(key, inner) => {
            let input = eval_worlds(inner, ws)?;
            apply_repair(&input, key)
        }
    }
}

/// `χ_U` over already-evaluated worlds: each world splits into one world
/// per `U`-value of its answer; an empty answer keeps the world.
pub(crate) fn apply_choice(input: &[World], attrs: &[relalg::Attr]) -> Result<Vec<World>> {
    let mut out = Vec::new();
    for w in input {
        let answer = w.last();
        if answer.is_empty() {
            // "When applied to the empty relation, choice-of produces an
            // empty relation" — one world survives.
            out.push(w.clone());
            continue;
        }
        // One pass over the answer partitions it by the choice attributes
        // (instead of one σ_{U=v} re-scan per created world); the prefix
        // relations are shared by every successor world.
        let parts = answer.partition_by(attrs)?;
        out.extend(parts.into_iter().map(|(_, part)| w.replace_last(part)));
    }
    Ok(out)
}

/// `repair-by-key_U` over already-evaluated worlds.
pub(crate) fn apply_repair(input: &[World], key: &[relalg::Attr]) -> Result<Vec<World>> {
    let mut out = Vec::new();
    for w in input {
        let repairs = repairs_by_key(w.last(), key)?;
        out.extend(repairs.into_iter().map(|repair| w.replace_last(repair)));
    }
    Ok(out)
}

fn unary(
    ws: &WorldSet,
    inner: &Query,
    f: impl Fn(&Relation) -> Result<Relation>,
) -> Result<Vec<World>> {
    let input = eval_worlds(inner, ws)?;
    apply_unary(&input, f)
}

/// A per-world answer transformation over already-evaluated worlds.
pub(crate) fn apply_unary(
    input: &[World],
    f: impl Fn(&Relation) -> Result<Relation>,
) -> Result<Vec<World>> {
    input
        .iter()
        .map(|w| Ok(w.replace_last(f(w.last())?)))
        .collect()
}

/// Binary operators: evaluate both operands on the *original* world-set and
/// combine the answers of worlds agreeing on the first `k` relations.
/// Pairing uses a map keyed by the shared prefix (hash-join-style), not the
/// naive quadratic scan.
fn binary(
    ws: &WorldSet,
    a: &Query,
    b: &Query,
    op: impl Fn(&Relation, &Relation) -> Result<Relation>,
) -> Result<Vec<World>> {
    let left = eval_worlds(a, ws)?;
    let right = eval_worlds(b, ws)?;
    apply_binary(&left, &right, op)
}

/// Prefix-paired combination of two operand evaluations over the same
/// original world-set.
pub(crate) fn apply_binary(
    left: &[World],
    right: &[World],
    op: impl Fn(&Relation, &Relation) -> Result<Relation>,
) -> Result<Vec<World>> {
    // Group right worlds by their prefix. Prefixes pair by *value* (equal
    // worlds can arrive under distinct allocations from the two operand
    // evaluations), but [`Prefix`] orders like `World`: the base relations
    // both operands share by `Arc` compare by pointer, not row by row.
    let mut by_prefix: BTreeMap<Prefix<'_>, Vec<&Relation>> = BTreeMap::new();
    for w in right {
        by_prefix.entry(w.prefix()).or_default().push(w.last());
    }
    let mut out = Vec::new();
    for w in left {
        let Some(partners) = by_prefix.get(&w.prefix()) else {
            continue;
        };
        for r in partners {
            out.push(w.replace_last(op(w.last(), r)?));
        }
    }
    Ok(out)
}

/// Shared implementation of `poss`, `cert`, `pγ^V_U`, `cγ^V_U`.
///
/// With `group = None` all worlds form one group (the `∼ = true` of
/// `pγ^*_true`); otherwise worlds are grouped by the *set* `π_U(answer)`.
/// With `proj = None` the projection is the identity (`V = *`).
fn grouped(
    ws: &WorldSet,
    inner: &Query,
    group: Option<&[relalg::Attr]>,
    proj: Option<&[relalg::Attr]>,
    is_poss: bool,
) -> Result<Vec<World>> {
    let input = eval_worlds(inner, ws)?;
    apply_grouped(&input, group, proj, is_poss)
}

/// `poss`/`cert`/`pγ`/`cγ` over already-evaluated worlds.
pub(crate) fn apply_grouped(
    input: &[World],
    group: Option<&[relalg::Attr]>,
    proj: Option<&[relalg::Attr]>,
    is_poss: bool,
) -> Result<Vec<World>> {
    // Key: π_U(answer) as a sorted, deduped tuple vector (None ⇒ single
    // group).
    let key_of = |w: &World| -> Result<Option<Vec<Tuple>>> {
        match group {
            None => Ok(None),
            Some(u) => Ok(Some(w.last().distinct_values(u)?)),
        }
    };
    let proj_of = |w: &World| -> Result<Arc<Relation>> {
        match proj {
            // Identity projection: share the answer, no copy.
            None => Ok(w.last_shared().clone()),
            Some(v) => Ok(Arc::new(w.last().project(v)?)),
        }
    };

    type Keyed = (Option<Vec<Tuple>>, Arc<Relation>);
    let keyed: Vec<Keyed> = input
        .iter()
        .map(|w| Ok((key_of(w)?, proj_of(w)?)))
        .collect::<Result<_>>()?;

    // Combine the answers per group, folding in world order (the first
    // member's attribute order wins); answers are shared so that installing
    // a group answer into each member world is an `Arc` bump, and a
    // single-member group keeps its contribution — still a shared handle,
    // no copy.
    let mut group_answer: BTreeMap<&Option<Vec<Tuple>>, Arc<Relation>> = BTreeMap::new();
    for (key, contribution) in &keyed {
        match group_answer.entry(key) {
            Entry::Vacant(e) => {
                e.insert(contribution.clone());
            }
            Entry::Occupied(mut e) => {
                let merged = if is_poss {
                    e.get().union(contribution)?
                } else {
                    e.get().intersect(contribution)?
                };
                e.insert(Arc::new(merged));
            }
        }
    }

    Ok(input
        .iter()
        .zip(&keyed)
        .map(|(w, (key, _))| w.replace_last(group_answer[key].clone()))
        .collect())
}

/// All repairs of `r` under key `key`: choose exactly one tuple from every
/// key-group. The number of repairs is the product of the group sizes —
/// exponential in general (Proposition 4.2).
pub fn repairs_by_key(r: &Relation, key: &[relalg::Attr]) -> Result<Vec<Relation>> {
    if r.is_empty() {
        return Ok(vec![r.clone()]);
    }
    // Group tuples by key value.
    let mut groups: BTreeMap<Tuple, Vec<Tuple>> = BTreeMap::new();
    let key_idx: Vec<usize> = key
        .iter()
        .map(|a| {
            r.schema()
                .index_of(a)
                .ok_or_else(|| relalg::RelalgError::UnknownAttr {
                    attr: a.clone(),
                    schema: r.schema().clone(),
                })
        })
        .collect::<Result<_>>()?;
    for t in r.iter() {
        let k: Tuple = key_idx.iter().map(|&i| t[i]).collect();
        groups.entry(k).or_default().push(t.clone());
    }
    // Cartesian product of one choice per group. A singleton group extends
    // every partial pick in place: only a group with a real choice pays for
    // copying the partials, so the enumeration is O(repairs × rows), not
    // O(groups × repairs × rows).
    let mut picks: Vec<Vec<Tuple>> = vec![vec![]];
    for tuples in groups.values() {
        if let [only] = tuples.as_slice() {
            for partial in &mut picks {
                partial.push(only.clone());
            }
            continue;
        }
        let mut next = Vec::with_capacity(picks.len() * tuples.len());
        for partial in &picks {
            for t in tuples {
                let mut ext = partial.clone();
                ext.push(t.clone());
                next.push(ext);
            }
        }
        picks = next;
    }
    picks
        .into_iter()
        .map(|rows| Relation::from_rows(r.schema().clone(), rows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relalg::{attrs, Pred, Value};

    fn flights() -> Relation {
        Relation::table(
            &["Dep", "Arr"],
            &[
                &["FRA", "BCN"],
                &["FRA", "ATL"],
                &["PAR", "ATL"],
                &["PAR", "BCN"],
                &["PHL", "ATL"],
            ],
        )
    }

    fn single() -> WorldSet {
        WorldSet::single(vec![("Flights", flights())])
    }

    #[test]
    fn rel_copies_into_each_world() {
        let out = eval(&Query::rel("Flights"), &single()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.the_world().unwrap().last(), &flights());
        assert_eq!(out.rel_names(), ["Flights", "Q"]);
    }

    #[test]
    fn figure_2b_choice_of_dep() {
        // χ_Dep(Flights) creates worlds A (FRA), B (PAR), C (PHL).
        let q = Query::rel("Flights").choice(attrs(&["Dep"]));
        let out = eval(&q, &single()).unwrap();
        assert_eq!(out.len(), 3);
        let sizes: Vec<usize> = out.iter().map(|w| w.last().len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 5);
        assert_eq!(*sizes.iter().max().unwrap(), 2);
    }

    #[test]
    fn figure_2d_certain_arrivals() {
        // cert over the choice worlds: {ATL} in every world. Starting from a
        // *single* world, the split lives in the answer relation only, so
        // after cert replaces every answer by {ATL} the worlds become
        // structurally identical and merge (world-sets are sets). The
        // faithful Figure-2(d) reproduction with three distinct base worlds
        // lives in tests/fig2_trip_planning.rs.
        let q = Query::rel("Flights")
            .choice(attrs(&["Dep"]))
            .project(attrs(&["Arr"]))
            .cert();
        let out = eval(&q, &single()).unwrap();
        assert_eq!(out.len(), 1);
        for w in out.iter() {
            assert_eq!(w.last(), &Relation::table(&["Arr"], &[&["ATL"]]));
        }
    }

    #[test]
    fn figure_2d_with_three_base_worlds() {
        // The paper's setting: the world-set of Figure 2(b) has three worlds
        // with *different* Flights relations; `cert` extends each with
        // F = {ATL} and all three worlds remain distinct.
        let mk = |rows: &[&[&str]]| World::new(vec![Relation::table(&["Dep", "Arr"], rows)]);
        let ws = WorldSet::from_worlds(
            vec!["Flights".into()],
            vec![
                mk(&[&["FRA", "BCN"], &["FRA", "ATL"]]),
                mk(&[&["PAR", "ATL"], &["PAR", "BCN"]]),
                mk(&[&["PHL", "ATL"]]),
            ],
        )
        .unwrap();
        let q = Query::rel("Flights").project(attrs(&["Arr"])).cert();
        let out = eval(&q, &ws).unwrap();
        assert_eq!(out.len(), 3);
        for w in out.iter() {
            assert_eq!(w.last(), &Relation::table(&["Arr"], &[&["ATL"]]));
        }
    }

    #[test]
    fn poss_unions_across_worlds() {
        let q = Query::rel("Flights")
            .choice(attrs(&["Dep"]))
            .project(attrs(&["Arr"]))
            .poss();
        let out = eval(&q, &single()).unwrap();
        for w in out.iter() {
            assert_eq!(w.last().len(), 2); // {ATL, BCN}
        }
    }

    #[test]
    fn choice_on_empty_relation_keeps_one_world() {
        let q = Query::rel("Flights")
            .select(Pred::eq_const("Arr", "XXX"))
            .choice(attrs(&["Dep"]));
        let out = eval(&q, &single()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.the_world().unwrap().last().is_empty());
    }

    #[test]
    fn binary_pairs_worlds_on_prefix() {
        // Self-product of a choice: both operands re-run the choice, so the
        // answers are paired across all choice combinations (same prefix).
        let left = Query::rel("Flights")
            .choice(attrs(&["Dep"]))
            .project(attrs(&["Arr"]));
        let right = Query::rel("Flights")
            .choice(attrs(&["Dep"]))
            .project(attrs(&["Arr"]))
            .rename(vec![("Arr".into(), "Arr2".into())]);
        let q = left.product(right);
        let out = eval(&q, &single()).unwrap();
        // 3 choices × 3 choices = 9 combinations, all sharing the single
        // original prefix; some may collapse if answers coincide.
        assert!(out.len() <= 9 && out.len() >= 3, "got {}", out.len());
    }

    #[test]
    fn union_requires_same_schema() {
        let q = Query::rel("Flights").union(Query::rel("Flights").project(attrs(&["Arr"])));
        assert!(eval(&q, &single()).is_err());
    }

    #[test]
    fn group_worlds_by_example_5_4() {
        // Figure 5: R = {(1,2),(2,3),(2,4),(3,2)}; χ_A then pγ^{A,B}_B.
        let r = Relation::table(&["A", "B"], &[&[1i64, 2], &[2, 3], &[2, 4], &[3, 2]]);
        let ws = WorldSet::single(vec![("R", r)]);
        let q = Query::rel("R")
            .choice(attrs(&["A"]))
            .poss_group(attrs(&["B"]), attrs(&["A", "B"]));
        let out = eval(&q, &ws).unwrap();
        // Worlds for A=1 and A=3 agree on π_B = {2}; both get the group
        // union {(1,2),(3,2)} and — sharing the same base R — merge into one
        // world. (The inlined representation of Figure 5(e) keeps both ids 1
        // and 3, which encode this same world twice; cf. Remark after
        // Definition 5.1.)
        assert_eq!(out.len(), 2);
        let merged = Relation::table(&["A", "B"], &[&[1i64, 2], &[3, 2]]);
        let solo = Relation::table(&["A", "B"], &[&[2i64, 3], &[2, 4]]);
        let answers: Vec<&Relation> = out.iter().map(|w| w.last()).collect();
        assert!(answers.contains(&&merged));
        assert!(answers.contains(&&solo));
    }

    #[test]
    fn cert_group_intersects_within_group() {
        let r = Relation::table(&["A", "B"], &[&[1i64, 2], &[2, 3], &[2, 4], &[3, 2]]);
        let ws = WorldSet::single(vec![("R", r)]);
        let q = Query::rel("R")
            .choice(attrs(&["A"]))
            .cert_group(attrs(&["B"]), attrs(&["B"]));
        let out = eval(&q, &ws).unwrap();
        for w in out.iter() {
            let b_vals: Vec<i64> = w.last().iter().map(|t| t[0].as_int().unwrap()).collect();
            // Group {A=1, A=3}: π_B both {2} → intersection {2}.
            // Group {A=2}: π_B = {3,4}.
            assert!(b_vals == vec![2] || b_vals == vec![3, 4]);
        }
    }

    #[test]
    fn repair_by_key_generates_all_repairs() {
        let r = Relation::table(&["K", "V"], &[&[1i64, 10], &[1, 11], &[2, 20]]);
        let ws = WorldSet::single(vec![("R", r)]);
        let q = Query::rel("R").repair_by_key(attrs(&["K"]));
        let out = eval(&q, &ws).unwrap();
        assert_eq!(out.len(), 2); // two choices for K=1, one for K=2
        for w in out.iter() {
            assert_eq!(w.last().len(), 2);
            assert_eq!(w.last().distinct_values(&attrs(&["K"])).unwrap().len(), 2);
        }
    }

    #[test]
    fn repair_on_empty_is_identity() {
        let r = Relation::empty(relalg::Schema::of(&["K", "V"]));
        assert_eq!(repairs_by_key(&r, &attrs(&["K"])).unwrap().len(), 1);
    }

    /// The plain cartesian-product enumeration — every key group extends a
    /// copy of every partial pick — that [`repairs_by_key`] must reproduce,
    /// repair for repair and in the same order.
    fn repairs_reference(r: &Relation, key: &[relalg::Attr]) -> Vec<Relation> {
        let key_idx: Vec<usize> = key
            .iter()
            .map(|a| r.schema().index_of(a).expect("key attribute"))
            .collect();
        let mut groups: BTreeMap<Tuple, Vec<Tuple>> = BTreeMap::new();
        for t in r.iter() {
            let k: Tuple = key_idx.iter().map(|&i| t[i]).collect();
            groups.entry(k).or_default().push(t.clone());
        }
        let mut picks: Vec<Vec<Tuple>> = vec![vec![]];
        for tuples in groups.values() {
            picks = picks
                .iter()
                .flat_map(|partial| {
                    tuples.iter().map(move |t| {
                        let mut ext = partial.clone();
                        ext.push(t.clone());
                        ext
                    })
                })
                .collect();
        }
        picks
            .into_iter()
            .map(|rows| Relation::from_rows(r.schema().clone(), rows).expect("arity"))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Mostly-singleton key groups (the census shape), 0–6 groups of
        /// two and one group of three: same repairs, same order.
        #[test]
        fn repairs_match_the_reference_enumeration(
            seed in any::<u64>(),
            n in 8usize..14,
            violations in 0usize..7,
        ) {
            let census = datagen::census(seed, n, violations);
            // Two more rows on the last clean SSN, which no violation reuses.
            let last_ssn = Value::Int(1000 + n as i64 - 1);
            let extra = ["X", "Y"].map(|name| -> Tuple {
                [last_ssn, Value::str(name), Value::str(name), Value::str(name)]
                    .into_iter()
                    .collect()
            });
            let r = Relation::from_rows(
                census.schema().clone(),
                census.iter().cloned().chain(extra),
            )
            .unwrap();
            let key = attrs(&["SSN"]);
            let repairs = repairs_by_key(&r, &key).unwrap();
            prop_assert_eq!(repairs.len(), 3 << violations);
            prop_assert_eq!(repairs, repairs_reference(&r, &key));
        }
    }

    #[test]
    fn binary_pairs_equal_prefixes_under_distinct_allocations() {
        // The two operand evaluations may hold the same context relation
        // under different allocations (one side rebuilt it): the prefixes
        // are not pointer-equal and must still pair by value — and a prefix
        // that differs by value must not pair.
        let left = World::new(vec![flights(), Relation::table(&["A"], &[&[1i64]])]);
        let right = World::new(vec![flights(), Relation::table(&["A"], &[&[2i64]])]);
        assert!(!Arc::ptr_eq(left.rel_shared(0), right.rel_shared(0)));
        let other = World::new(vec![
            Relation::table(&["Dep", "Arr"], &[&["FRA", "BCN"]]),
            Relation::table(&["A"], &[&[3i64]]),
        ]);
        let out = apply_binary(std::slice::from_ref(&left), &[other, right], |l, r| {
            l.union(r)
        })
        .unwrap();
        assert_eq!(
            out,
            vec![left.replace_last(Relation::table(&["A"], &[&[1i64], &[2]]))]
        );
    }

    #[test]
    fn eval_on_empty_world_set() {
        let ws = WorldSet::empty(vec!["R".into()]);
        let out = eval(&Query::rel("R").poss(), &ws).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn trip_planning_cert_chain() {
        // cert(π_Arr(χ_Dep(HFlights))) — only ATL is reachable from every
        // departure (Example 5.6's semantics).
        let ws = WorldSet::single(vec![("HFlights", flights())]);
        let q = Query::rel("HFlights")
            .choice(attrs(&["Dep"]))
            .project(attrs(&["Arr"]))
            .cert();
        let out = eval(&q, &ws).unwrap();
        for w in out.iter() {
            assert_eq!(w.last().iter().next().unwrap()[0], Value::str("ATL"));
            assert_eq!(w.last().len(), 1);
        }
    }
}
