//! Algebraic laws of the relational substrate, property-tested: the
//! classical identities that the WSA translation relies on (division by
//! difference, the `=⊲⊳` definition of Remark 5.5, join/semijoin
//! decompositions, set-operation laws), plus **join-path equivalence**: the
//! hash-partitioned equi-join and semijoin paths must agree with a
//! nested-loop oracle on randomized inputs from `datagen`.

use proptest::prelude::*;
use relalg::{attr, attrs, AggCall, AggFn, Attr, CmpOp, Operand, Pred, Relation, Schema, Value};

fn rel_ab(rows: Vec<(i64, i64)>) -> Relation {
    Relation::from_rows(
        Schema::of(&["A", "B"]),
        rows.into_iter()
            .map(|(a, b)| vec![Value::Int(a), Value::Int(b)]),
    )
    .unwrap()
}

fn rel_b(rows: Vec<i64>) -> Relation {
    Relation::from_rows(
        Schema::of(&["B"]),
        rows.into_iter().map(|b| vec![Value::Int(b)]),
    )
    .unwrap()
}

fn rel_bc(rows: Vec<(i64, i64)>) -> Relation {
    Relation::from_rows(
        Schema::of(&["B", "C"]),
        rows.into_iter()
            .map(|(b, c)| vec![Value::Int(b), Value::Int(c)]),
    )
    .unwrap()
}

fn small_pairs() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..4, 0i64..4), 0..8)
}

fn small_vals() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(0i64..4, 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// R ÷ S = π_A(R) − π_A(π_A(R) × S − R)  (classical definition).
    #[test]
    fn division_by_difference(r in small_pairs(), s in small_vals()) {
        let r = rel_ab(r);
        let s = rel_b(s);
        let lhs = r.divide(&s).unwrap();
        let pa = r.project(&attrs(&["A"])).unwrap();
        let rhs = pa
            .difference(
                &pa.product(&s)
                    .unwrap()
                    .difference(&r)
                    .unwrap()
                    .project(&attrs(&["A"]))
                    .unwrap(),
            )
            .unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// R =⊲⊳ S = (R ⋈ S) ∪ (R − R⋉S) × {⟨c,…,c⟩}  (Remark 5.5).
    #[test]
    fn outer_pad_join_definition(r in small_pairs(), s in small_pairs()) {
        let r = rel_ab(r);
        let s = rel_bc(s);
        let lhs = r.outer_pad_join(&s);
        let joined = r.natural_join(&s);
        let dangling = r.difference(&r.semijoin(&s)).unwrap();
        let pad = Relation::from_rows(
            Schema::of(&["C"]),
            vec![vec![Value::Pad]],
        )
        .unwrap();
        let rhs = joined.union(&dangling.product(&pad).unwrap()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Semijoin is the projection of the join onto the left schema.
    #[test]
    fn semijoin_is_projected_join(r in small_pairs(), s in small_pairs()) {
        let r = rel_ab(r);
        let s = rel_bc(s);
        let lhs = r.semijoin(&s);
        let rhs = r.natural_join(&s).project(&attrs(&["A", "B"])).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Natural join over disjoint-attribute renamed copies is the theta
    /// join σ_{B=B'}(R × δ(S)).
    #[test]
    fn natural_join_is_selected_product(r in small_pairs(), s in small_pairs()) {
        let r = rel_ab(r);
        let s = rel_bc(s);
        let renamed = s.rename(&[(attr("B"), attr("B2"))]).unwrap();
        let theta = r
            .theta_join(&renamed, &Pred::eq_attr("B", "B2"))
            .unwrap()
            .project(&attrs(&["A", "B", "C"]))
            .unwrap();
        prop_assert_eq!(r.natural_join(&s), theta);
    }

    /// Set-operation laws: idempotence, commutativity-as-sets, absorption.
    #[test]
    fn set_operation_laws(r in small_pairs(), s in small_pairs()) {
        let r = rel_ab(r);
        let s = rel_ab(s);
        prop_assert_eq!(r.union(&r).unwrap(), r.clone());
        prop_assert_eq!(r.intersect(&r).unwrap(), r.clone());
        prop_assert_eq!(r.difference(&r).unwrap().len(), 0);
        prop_assert_eq!(r.union(&s).unwrap(), s.union(&r).unwrap());
        prop_assert_eq!(r.intersect(&s).unwrap(), s.intersect(&r).unwrap());
        // R − (R − S) = R ∩ S.
        prop_assert_eq!(
            r.difference(&r.difference(&s).unwrap()).unwrap(),
            r.intersect(&s).unwrap()
        );
        // |R × S| = |R|·|S| on disjoint schemas.
        let t = rel_bc(vec![(0, 0), (1, 1)])
            .rename(&[(attr("B"), attr("X")), (attr("C"), attr("Y"))])
            .unwrap();
        prop_assert_eq!(r.product(&t).unwrap().len(), r.len() * t.len());
    }

    /// Selection distributes over the set operations.
    #[test]
    fn selection_distributes(r in small_pairs(), s in small_pairs()) {
        let r = rel_ab(r);
        let s = rel_ab(s);
        let phi = Pred::eq_const("A", 1);
        prop_assert_eq!(
            r.union(&s).unwrap().select(&phi).unwrap(),
            r.select(&phi).unwrap().union(&s.select(&phi).unwrap()).unwrap()
        );
        prop_assert_eq!(
            r.difference(&s).unwrap().select(&phi).unwrap(),
            r.select(&phi).unwrap().difference(&s.select(&phi).unwrap()).unwrap()
        );
    }

    /// Projection is idempotent and monotone in the kept attributes.
    #[test]
    fn projection_laws(r in small_pairs()) {
        let r = rel_ab(r);
        let pa = r.project(&attrs(&["A"])).unwrap();
        prop_assert_eq!(pa.project(&attrs(&["A"])).unwrap(), pa.clone());
        prop_assert!(pa.len() <= r.len());
        // Rename round-trip is the identity.
        let renamed = r
            .rename(&[(attr("A"), attr("X"))])
            .unwrap()
            .rename(&[(attr("X"), attr("A"))])
            .unwrap();
        prop_assert_eq!(renamed, r);
    }

    /// The expression evaluator agrees with direct relation operations.
    #[test]
    fn expr_eval_matches_direct(r in small_pairs(), s in small_vals()) {
        use relalg::{Catalog, Expr};
        let r = rel_ab(r);
        let s = rel_b(s);
        let mut catalog = Catalog::new();
        catalog.put("R", r.clone());
        catalog.put("S", s.clone());

        let e = Expr::table("R")
            .select(Pred::eq_const("A", 1))
            .project(attrs(&["B"]))
            .union(&Expr::table("S"));
        let direct = r
            .select(&Pred::eq_const("A", 1))
            .unwrap()
            .project(&attrs(&["B"]))
            .unwrap()
            .union(&s)
            .unwrap();
        prop_assert_eq!(&*catalog.eval(&e).unwrap(), &direct);

        let e = Expr::table("R").divide(&Expr::table("S"));
        prop_assert_eq!(&*catalog.eval(&e).unwrap(), &r.divide(&s).unwrap());
        let e = Expr::table("R").outer_pad_join(&Expr::table("S"));
        prop_assert_eq!(&*catalog.eval(&e).unwrap(), &r.outer_pad_join(&s));
    }
}

// ---- aggregation rewrites of `relalg::simplify` ----

/// `L(A, K, M)`: the measure `M` has few values, so distinct tuples share
/// one.
fn rel_akm(rows: Vec<(i64, i64, i64)>) -> Relation {
    Relation::from_rows(
        Schema::of(&["A", "K", "M"]),
        rows.into_iter()
            .map(|(a, k, m)| vec![Value::Int(a), Value::Int(k), Value::Int(m)]),
    )
    .unwrap()
}

/// The number of `γ` nodes in `e`.
fn aggregates(e: &relalg::Expr) -> usize {
    use relalg::ExprKind::*;
    match e.kind() {
        Table(_) | Lit(_) => 0,
        Aggregate(_, _, c) => 1 + aggregates(c),
        Select(_, c) | Project(_, c) | ProjectAs(_, c) | Rename(_, c) => aggregates(c),
        Product(a, b)
        | Union(a, b)
        | Intersect(a, b)
        | Difference(a, b)
        | NaturalJoin(a, b)
        | ThetaJoin(_, a, b)
        | Divide(a, b)
        | OuterPadJoin(a, b)
        | SemiJoin(_, a, b)
        | AntiJoin(_, a, b) => aggregates(a) + aggregates(b),
    }
}

fn agg_catalog(l: Vec<(i64, i64, i64)>, w: Vec<i64>, m: Vec<(i64, i64)>) -> relalg::Catalog {
    let mut c = relalg::Catalog::new();
    c.put("L", rel_akm(l));
    c.put(
        "R",
        Relation::from_rows(
            Schema::of(&["W"]),
            w.into_iter().map(|x| vec![Value::Int(x)]),
        )
        .unwrap(),
    );
    c.put(
        "M",
        Relation::from_rows(
            Schema::of(&["K2", "W"]),
            m.into_iter()
                .map(|(k, x)| vec![Value::Int(k), Value::Int(x)]),
        )
        .unwrap(),
    );
    c
}

/// `γ_{group; func(arg) as F}((L × R) ⋉/▷_{K=K2, W=W} M)`.
fn grouped_semijoin(group: &[&str], func: AggFn, arg: Option<&str>, anti: bool) -> relalg::Expr {
    use relalg::Expr;
    let on = vec![(attr("K"), attr("K2")), (attr("W"), attr("W"))];
    Expr::table("L")
        .product(&Expr::table("R"))
        .semijoin(&Expr::table("M"), on, anti)
        .aggregate(
            attrs(group),
            vec![AggCall::new(func, arg.map(attr), attr("F"))],
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Eager aggregation: `γ_{G;f}((L × R) ▷_K M)` pre-aggregates `L` when
    /// `attrs(R) ⊆ G` and `f` is `sum`/`count`/`min`/`max` of an `L`
    /// column, and the pushed plan has the same answer.
    #[test]
    fn eager_aggregation_keeps_the_answer(
        l in proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 0..10),
        w in small_vals(),
        m in small_pairs(),
        kind in (0usize..4, 0usize..2),
    ) {
        let c = agg_catalog(l, w, m);
        let base = |n: &str| c.schema_of(n);
        let func = [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max][kind.0];
        let arg = (func != AggFn::Count).then_some("M");
        let e = grouped_semijoin(&["A", "W"], func, arg, kind.1 == 1);
        let pushed = relalg::simplify(&e, &base).unwrap();
        prop_assert_eq!(aggregates(&pushed), 2, "{}", pushed);
        prop_assert_eq!(c.eval(&pushed).unwrap(), c.eval(&e).unwrap(), "{}", pushed);
    }

    /// The rule declines `avg`, an argument from `R`, and a `G` that misses
    /// an `R` column; simplifying keeps the answer anyway.
    #[test]
    fn eager_aggregation_declines_outside_its_conditions(
        l in proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 0..10),
        w in small_vals(),
        m in small_pairs(),
        anti in 0usize..2,
    ) {
        let c = agg_catalog(l, w, m);
        let base = |n: &str| c.schema_of(n);
        let anti = anti == 1;
        for e in [
            grouped_semijoin(&["A", "W"], AggFn::Avg, Some("M"), anti),
            grouped_semijoin(&["A", "W"], AggFn::Sum, Some("W"), anti),
            grouped_semijoin(&["A"], AggFn::Sum, Some("M"), anti),
        ] {
            let simplified = relalg::simplify(&e, &base).unwrap();
            prop_assert_eq!(aggregates(&simplified), 1, "{}", simplified);
            prop_assert_eq!(c.eval(&simplified).unwrap(), c.eval(&e).unwrap(), "{}", simplified);
        }
    }

    /// `γ` moves below a projection that keeps every column (here one that
    /// also copies `A`), never below one that narrows: `γ_{A;sum(M)}` over
    /// `π_{A,M}(L)` sums each distinct `(A, M)` once.
    #[test]
    fn aggregation_moves_below_renamings_only(
        l in proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 0..10),
    ) {
        use relalg::Expr;
        let c = agg_catalog(l, vec![], vec![]);
        let base = |n: &str| c.schema_of(n);
        let sum = vec![AggCall::new(AggFn::Sum, Some(attr("M")), attr("F"))];
        let copying = Expr::table("L")
            .project_as(vec![
                (attr("A"), attr("A")),
                (attr("A"), attr("A2")),
                (attr("K"), attr("K")),
                (attr("M"), attr("M")),
            ])
            .aggregate(attrs(&["A", "A2"]), sum.clone());
        let narrowing = Expr::table("L").project(attrs(&["A", "M"])).aggregate(attrs(&["A"]), sum);
        for e in [copying, narrowing] {
            let simplified = relalg::simplify(&e, &base).unwrap();
            prop_assert_eq!(c.eval(&simplified).unwrap(), c.eval(&e).unwrap(), "{}", simplified);
        }
    }
}

// ---- join-path equivalence: hash paths vs. a nested-loop oracle ----
//
// The engine routes theta joins with equi-conjuncts, natural joins and
// semijoins through hash indexes built on the smaller side. These tests pin
// those paths against the textbook nested-loop definitions on randomized
// inputs produced by `datagen` (seeded, hence reproducible).

/// Nested-loop σ_φ(R × S): the definition `theta_join` must agree with.
fn oracle_theta_join(r: &Relation, s: &Relation, pred: &Pred) -> Relation {
    let mut attrs = r.schema().attrs().to_vec();
    attrs.extend_from_slice(s.schema().attrs());
    let schema = Schema::new(attrs);
    let compiled = pred.compile(&schema).unwrap();
    let mut rows = Vec::new();
    for l in r.iter() {
        for t in s.iter() {
            let mut row = l.to_vec();
            row.extend_from_slice(t);
            if compiled.eval(&row) {
                rows.push(row);
            }
        }
    }
    Relation::from_rows(schema, rows).unwrap()
}

/// Nested-loop natural join on the common attributes.
fn oracle_natural_join(r: &Relation, s: &Relation) -> Relation {
    let common: Vec<Attr> = r.schema().common(s.schema());
    let r_extra: Vec<Attr> = s.schema().minus(&common);
    let mut attrs = r.schema().attrs().to_vec();
    attrs.extend(r_extra.iter().cloned());
    let schema = Schema::new(attrs);
    let mut rows = Vec::new();
    for l in r.iter() {
        for t in s.iter() {
            let agree = common.iter().all(|a| {
                let li = r.schema().index_of(a).unwrap();
                let ri = s.schema().index_of(a).unwrap();
                l[li] == t[ri]
            });
            if agree {
                let mut row = l.to_vec();
                for a in &r_extra {
                    row.push(t[s.schema().index_of(a).unwrap()]);
                }
                rows.push(row);
            }
        }
    }
    Relation::from_rows(schema, rows).unwrap()
}

/// Nested-loop semijoin membership test.
fn oracle_semijoin(r: &Relation, s: &Relation) -> Relation {
    let common: Vec<Attr> = r.schema().common(s.schema());
    let rows = r.iter().filter(|l| {
        s.iter().any(|t| {
            common.iter().all(|a| {
                let li = r.schema().index_of(a).unwrap();
                let ri = s.schema().index_of(a).unwrap();
                l[li] == t[ri]
            })
        })
    });
    Relation::from_rows(r.schema().clone(), rows).unwrap()
}

/// Randomized relations over the given schemas, via datagen's seeded
/// world-set generator (one world, two relations).
fn random_rels(
    seed: u64,
    left: Vec<&'static str>,
    right: Vec<&'static str>,
) -> (Relation, Relation) {
    let spec = datagen::RandomSpec {
        schemas: vec![left, right],
        worlds: 1,
        max_tuples: 12,
        domain: 5,
    };
    let ws = datagen::random_world_set(seed, &spec);
    let w = ws.the_world().expect("single world");
    (w.rel(0).clone(), w.rel(1).clone())
}

#[test]
fn hash_equi_join_agrees_with_nested_loop_oracle() {
    for seed in 0..300u64 {
        let (r, s) = random_rels(seed, vec!["A", "B"], vec!["C", "D"]);
        // Pure equi-join on A = C.
        let pred = Pred::eq_attr("A", "C");
        assert_eq!(
            r.theta_join(&s, &pred).unwrap(),
            oracle_theta_join(&r, &s, &pred),
            "equi-join diverged from oracle at seed {seed}"
        );
        // Equi-conjunct plus residual range conjunct: the hash path must
        // apply the residual on matches.
        let pred = Pred::eq_attr("A", "C").and(Pred::cmp(
            Operand::Attr(attr("B")),
            CmpOp::Lt,
            Operand::Attr(attr("D")),
        ));
        assert_eq!(
            r.theta_join(&s, &pred).unwrap(),
            oracle_theta_join(&r, &s, &pred),
            "equi-join with residual diverged from oracle at seed {seed}"
        );
        // Two equi-conjuncts (composite hash key), written right=left the
        // second time to exercise operand flipping.
        let pred = Pred::eq_attr("A", "C").and(Pred::eq_attr("D", "B"));
        assert_eq!(
            r.theta_join(&s, &pred).unwrap(),
            oracle_theta_join(&r, &s, &pred),
            "composite-key equi-join diverged from oracle at seed {seed}"
        );
        // No equi-conjunct at all: the streamed nested loop path.
        let pred = Pred::cmp(
            Operand::Attr(attr("B")),
            CmpOp::Ge,
            Operand::Attr(attr("D")),
        )
        .or(Pred::eq_const("A", 0));
        assert_eq!(
            r.theta_join(&s, &pred).unwrap(),
            oracle_theta_join(&r, &s, &pred),
            "non-equi theta join diverged from oracle at seed {seed}"
        );
        // Equality under negation must NOT be treated as a hash key.
        let pred = Pred::eq_attr("A", "C").not();
        assert_eq!(
            r.theta_join(&s, &pred).unwrap(),
            oracle_theta_join(&r, &s, &pred),
            "negated equality diverged from oracle at seed {seed}"
        );
    }
}

#[test]
fn hash_natural_join_and_semijoin_agree_with_oracle() {
    for seed in 0..300u64 {
        // Shared attribute B: the natural-join/semijoin key.
        let (r, s) = random_rels(seed, vec!["A", "B"], vec!["B", "C"]);
        assert_eq!(
            r.natural_join(&s),
            oracle_natural_join(&r, &s),
            "natural join diverged from oracle at seed {seed}"
        );
        // Both asymmetries: index-left/probe-right and the reverse.
        assert_eq!(
            s.natural_join(&r),
            oracle_natural_join(&s, &r),
            "reversed natural join diverged from oracle at seed {seed}"
        );
        assert_eq!(
            r.semijoin(&s),
            oracle_semijoin(&r, &s),
            "semijoin diverged from oracle at seed {seed}"
        );
        assert_eq!(
            s.semijoin(&r),
            oracle_semijoin(&s, &r),
            "reversed semijoin diverged from oracle at seed {seed}"
        );
    }
}

fn rel3(names: &[&str], rows: &[(i64, i64, i64)]) -> Relation {
    Relation::from_rows(
        Schema::of(names),
        rows.iter()
            .map(|&(a, b, c)| vec![Value::Int(a), Value::Int(b), Value::Int(c)]),
    )
    .unwrap()
}

fn small_triples() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 0..10)
}

/// Nested-loop `⋉_on` (`anti`: `▷_on`): the tuples of `r` whose columns
/// on the left of the pairs equal the paired columns of some tuple of `s`
/// (`anti`: of none).
fn oracle_semijoin_on(r: &Relation, s: &Relation, on: &[(Attr, Attr)], anti: bool) -> Relation {
    let pairs: Vec<(usize, usize)> = on
        .iter()
        .map(|(l, rr)| {
            (
                r.schema().index_of(l).unwrap(),
                s.schema().index_of(rr).unwrap(),
            )
        })
        .collect();
    let rows = r.iter().filter(|l| {
        let partner = s
            .iter()
            .any(|t| pairs.iter().all(|&(li, ri)| l[li] == t[ri]));
        partner != anti
    });
    Relation::from_rows(r.schema().clone(), rows).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `⋉`/`▷` on column pairs (what `whatif`'s `▷` runs) agrees with the
    /// nested loop for 0, 1 and 2 pairs, with names that differ between
    /// the sides and with one column in two pairs on either side.
    #[test]
    fn semijoin_on_agrees_with_nested_loop_oracle(
        r in small_triples(),
        s in small_triples(),
        pick in 0usize..6,
        anti in any::<bool>(),
    ) {
        let r = rel3(&["A", "B", "C"], &r);
        let s = rel3(&["X", "Y", "Z"], &s);
        let pairs: &[(&str, &str)] = match pick {
            0 => &[],
            1 => &[("B", "Y")],
            2 => &[("C", "X")],
            3 => &[("A", "Z"), ("C", "Y")],
            4 => &[("A", "X"), ("A", "Y")],
            _ => &[("B", "Z"), ("C", "Z")],
        };
        let on: Vec<(Attr, Attr)> = pairs.iter().map(|&(l, r)| (attr(l), attr(r))).collect();
        let got = r.semijoin_on(&s, &on, anti).unwrap();
        prop_assert_eq!(got, oracle_semijoin_on(&r, &s, &on, anti));
    }
}

/// The acceptance test for the hash path: a theta join whose cross product
/// would have ~9·10⁸ rows. Materializing `A × B` here would exhaust memory;
/// the hash-partitioned path touches only the ~30k matching pairs.
#[test]
fn equi_theta_join_never_materializes_the_cross_product() {
    let n: i64 = 30_000;
    let r = Relation::from_rows(
        Schema::of(&["A", "B"]),
        (0..n).map(|i| vec![Value::Int(i), Value::Int(i % 7)]),
    )
    .unwrap();
    let s = Relation::from_rows(
        Schema::of(&["C", "D"]),
        (0..n).map(|i| vec![Value::Int(i), Value::Int(i % 5)]),
    )
    .unwrap();
    // |R × S| = 9·10⁸ tuples (~tens of GB). The equi-conjunct A = C keeps
    // the join linear: exactly n matching pairs, filtered by the residual.
    let pred = Pred::eq_attr("A", "C").and(Pred::cmp(
        Operand::Attr(attr("B")),
        CmpOp::Le,
        Operand::Attr(attr("D")),
    ));
    let out = r.theta_join(&s, &pred).unwrap();
    assert!(!out.is_empty());
    assert!(out.len() < n as usize);
    // Spot-check against the per-tuple definition.
    for t in out.iter().take(100) {
        assert_eq!(t[0], t[2]);
        assert!(t[1] <= t[3]);
    }
}

/// Empty-input short-circuits return the correct schemas without work.
#[test]
fn empty_input_short_circuits() {
    let r = rel_ab(vec![(1, 2)]);
    let empty_ab = Relation::empty(Schema::of(&["A", "B"]));
    let empty_cd = Relation::empty(Schema::of(&["C", "D"]));
    let pred = Pred::eq_attr("A", "C");
    assert!(r.theta_join(&empty_cd, &pred).unwrap().is_empty());
    assert_eq!(
        r.theta_join(&empty_cd, &pred).unwrap().schema(),
        &Schema::of(&["A", "B", "C", "D"])
    );
    assert!(empty_ab.natural_join(&r).is_empty());
    assert!(r.product(&empty_cd).unwrap().is_empty());
    assert!(empty_ab.semijoin(&r).is_empty());
    assert!(r.semijoin(&empty_ab).is_empty());
    assert!(empty_ab.divide(&rel_b(vec![1])).unwrap().is_empty());
}
