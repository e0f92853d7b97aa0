//! Oracle tests for the sorted-vec tuple storage.
//!
//! `Relation` stores its tuples as a sorted, deduplicated `Vec<Tuple>`
//! (built through `RelationBuilder` or one of the order-preserving fast
//! paths). These tests pin every operator against the old `BTreeSet`
//! semantics: an oracle that re-implements each operation over
//! `BTreeSet<Vec<Value>>` must agree with the engine **and** the engine's
//! output must satisfy the storage invariant (strictly sorted, hence
//! deduplicated) — on datagen-seeded randomized inputs and on
//! proptest-shim generated edge cases.

use std::collections::BTreeSet;

use proptest::prelude::*;
use relalg::{attr, attrs, Attr, Pred, Relation, Schema, Tuple, Value};

/// The reference representation: schema + BTreeSet of plain value vectors.
type OracleRel = (Schema, BTreeSet<Vec<Value>>);

fn to_oracle(r: &Relation) -> OracleRel {
    (r.schema().clone(), r.iter().map(|t| t.to_vec()).collect())
}

/// The engine relation must match the oracle set *and* iterate in the
/// BTreeSet's sorted order with no duplicates — the invariant everything
/// downstream (golden tests, printed tables) relies on.
fn assert_matches(engine: &Relation, oracle: &OracleRel, what: &str) {
    assert_eq!(engine.schema(), &oracle.0, "{what}: schema diverged");
    let engine_rows: Vec<Vec<Value>> = engine.iter().map(|t| t.to_vec()).collect();
    let oracle_rows: Vec<Vec<Value>> = oracle.1.iter().cloned().collect();
    assert_eq!(engine_rows, oracle_rows, "{what}: rows or order diverged");
    assert!(
        engine
            .iter()
            .collect::<Vec<&[Value]>>()
            .windows(2)
            .all(|w| w[0] < w[1]),
        "{what}: iteration not strictly sorted"
    );
}

// ---- oracle operator implementations over BTreeSet<Vec<Value>> ----

fn o_select(r: &Relation, pred: &Pred) -> OracleRel {
    let compiled = pred.compile(r.schema()).unwrap();
    (
        r.schema().clone(),
        r.iter()
            .map(|t| t.to_vec())
            .filter(|t| compiled.eval(t))
            .collect(),
    )
}

fn o_project(r: &Relation, keep: &[Attr]) -> OracleRel {
    let idx: Vec<usize> = keep
        .iter()
        .map(|a| r.schema().index_of(a).unwrap())
        .collect();
    (
        Schema::new(keep.to_vec()),
        r.iter()
            .map(|t| idx.iter().map(|&i| t[i]).collect())
            .collect(),
    )
}

fn o_product(r: &Relation, s: &Relation) -> OracleRel {
    let mut a = r.schema().attrs().to_vec();
    a.extend_from_slice(s.schema().attrs());
    let mut set = BTreeSet::new();
    for l in r.iter() {
        for t in s.iter() {
            let mut row = l.to_vec();
            row.extend(t.iter().copied());
            set.insert(row);
        }
    }
    (Schema::new(a), set)
}

fn o_theta_join(r: &Relation, s: &Relation, pred: &Pred) -> OracleRel {
    let (schema, all) = o_product(r, s);
    let compiled = pred.compile(&schema).unwrap();
    let set = all.into_iter().filter(|t| compiled.eval(t)).collect();
    (schema, set)
}

fn o_natural_join(r: &Relation, s: &Relation) -> OracleRel {
    let common = r.schema().common(s.schema());
    let extra: Vec<Attr> = s.schema().minus(&common);
    let mut a = r.schema().attrs().to_vec();
    a.extend(extra.iter().cloned());
    let mut set = BTreeSet::new();
    for l in r.iter() {
        for t in s.iter() {
            let agree = common
                .iter()
                .all(|c| l[r.schema().index_of(c).unwrap()] == t[s.schema().index_of(c).unwrap()]);
            if agree {
                let mut row = l.to_vec();
                for e in &extra {
                    row.push(t[s.schema().index_of(e).unwrap()]);
                }
                set.insert(row);
            }
        }
    }
    (Schema::new(a), set)
}

fn o_semijoin(r: &Relation, s: &Relation) -> OracleRel {
    let common = r.schema().common(s.schema());
    let set = r
        .iter()
        .filter(|l| {
            s.iter().any(|t| {
                common.iter().all(|c| {
                    l[r.schema().index_of(c).unwrap()] == t[s.schema().index_of(c).unwrap()]
                })
            })
        })
        .map(|t| t.to_vec())
        .collect();
    (r.schema().clone(), set)
}

/// Classical definition: `R ÷ S = π_A(R) − π_A(π_A(R) × S − R)`.
fn o_divide(r: &Relation, s: &Relation) -> OracleRel {
    let a: Vec<Attr> = r.schema().minus(s.schema().attrs());
    let (pa_schema, pa) = o_project(r, &a);
    let r_set: BTreeSet<Vec<Value>> = r
        .iter()
        .map(|t| {
            // Reorder into A ++ B order for comparison with the product.
            let mut row: Vec<Value> = a
                .iter()
                .map(|x| t[r.schema().index_of(x).unwrap()])
                .collect();
            for x in s.schema().attrs() {
                row.push(t[r.schema().index_of(x).unwrap()]);
            }
            row
        })
        .collect();
    let mut missing_a = BTreeSet::new();
    for pa_row in &pa {
        for b_row in s.iter() {
            let mut row = pa_row.clone();
            row.extend(b_row.iter().copied());
            if !r_set.contains(&row) {
                missing_a.insert(pa_row.clone());
            }
        }
    }
    (
        pa_schema,
        pa.into_iter().filter(|t| !missing_a.contains(t)).collect(),
    )
}

fn o_union(r: &Relation, s: &Relation) -> OracleRel {
    let (schema, mut set) = to_oracle(r);
    set.extend(aligned_rows(r, s));
    (schema, set)
}

fn o_intersect(r: &Relation, s: &Relation) -> OracleRel {
    let (schema, l) = to_oracle(r);
    let right = aligned_rows(r, s);
    (schema, l.intersection(&right).cloned().collect())
}

fn o_difference(r: &Relation, s: &Relation) -> OracleRel {
    let (schema, l) = to_oracle(r);
    let right = aligned_rows(r, s);
    (schema, l.difference(&right).cloned().collect())
}

/// `s`'s rows reordered into `r`'s column order.
fn aligned_rows(r: &Relation, s: &Relation) -> BTreeSet<Vec<Value>> {
    let idx: Vec<usize> = r
        .schema()
        .attrs()
        .iter()
        .map(|a| s.schema().index_of(a).unwrap())
        .collect();
    s.iter()
        .map(|t| idx.iter().map(|&i| t[i]).collect())
        .collect()
}

// ---- datagen-seeded sweep over every operator ----

fn random_rels(
    seed: u64,
    left: Vec<&'static str>,
    right: Vec<&'static str>,
) -> (Relation, Relation) {
    let spec = datagen::RandomSpec {
        schemas: vec![left, right],
        worlds: 1,
        max_tuples: 14,
        domain: 4,
    };
    let ws = datagen::random_world_set(seed, &spec);
    let w = ws.the_world().expect("single world");
    (w.rel(0).clone(), w.rel(1).clone())
}

#[test]
fn sorted_vec_operators_agree_with_btreeset_oracle() {
    for seed in 0..200u64 {
        // Disjoint schemas: product / theta joins / division.
        let (r, s) = random_rels(seed, vec!["A", "B"], vec!["C", "D"]);
        assert_matches(&r.product(&s).unwrap(), &o_product(&r, &s), "product");

        let equi = Pred::eq_attr("A", "C");
        assert_matches(
            &r.theta_join(&s, &equi).unwrap(),
            &o_theta_join(&r, &s, &equi),
            "equi theta_join",
        );
        let non_equi = Pred::cmp(
            relalg::Operand::Attr(attr("B")),
            relalg::CmpOp::Lt,
            relalg::Operand::Attr(attr("D")),
        );
        assert_matches(
            &r.theta_join(&s, &non_equi).unwrap(),
            &o_theta_join(&r, &s, &non_equi),
            "non-equi theta_join",
        );

        assert_matches(
            &r.select(&Pred::eq_const("A", 1)).unwrap(),
            &o_select(&r, &Pred::eq_const("A", 1)),
            "select",
        );
        assert_matches(
            &r.project(&attrs(&["B"])).unwrap(),
            &o_project(&r, &attrs(&["B"])),
            "project",
        );

        // Division: R[A,B] ÷ S[B] with the B-columns drawn from R itself so
        // the quotient is non-trivial.
        let divisor = s
            .project(&attrs(&["C"]))
            .unwrap()
            .rename(&[(attr("C"), attr("B"))])
            .unwrap();
        assert_matches(
            &r.divide(&divisor).unwrap(),
            &o_divide(&r, &divisor),
            "divide",
        );

        // Shared attribute B: natural join / semijoin / outer pad join.
        let (r2, s2) = random_rels(seed ^ 0xdead_beef, vec!["A", "B"], vec!["B", "C"]);
        assert_matches(
            &r2.natural_join(&s2),
            &o_natural_join(&r2, &s2),
            "natural_join",
        );
        assert_matches(&r2.semijoin(&s2), &o_semijoin(&r2, &s2), "semijoin");

        // Same attribute set (in swapped column order): the set operations
        // exercise the aligned() re-sort path.
        let (u, v) = random_rels(seed ^ 0x5a5a_5a5a, vec!["A", "B"], vec!["B", "A"]);
        assert_matches(&u.union(&v).unwrap(), &o_union(&u, &v), "union");
        assert_matches(&u.intersect(&v).unwrap(), &o_intersect(&u, &v), "intersect");
        assert_matches(
            &u.difference(&v).unwrap(),
            &o_difference(&u, &v),
            "difference",
        );
    }
}

#[test]
fn outer_pad_join_matches_definition_oracle() {
    for seed in 0..200u64 {
        let (r, s) = random_rels(seed, vec!["A", "B"], vec!["B", "C"]);
        // R =⊲⊳ S = (R ⋈ S) ∪ (R − R⋉S) × {⟨c,…,c⟩}, assembled via oracles.
        let (schema, joined) = o_natural_join(&r, &s);
        let (_, matched) = o_semijoin(&r, &s);
        let pad_count = schema.arity() - r.schema().arity();
        let mut set = joined;
        for t in r.iter() {
            if !matched.contains(t) {
                let mut row = t.to_vec();
                row.extend(std::iter::repeat_n(Value::Pad, pad_count));
                set.insert(row);
            }
        }
        assert_matches(&r.outer_pad_join(&s), &(schema, set), "outer_pad_join");
    }
}

#[test]
fn partition_and_distinct_agree_with_grouping_oracle() {
    for seed in 0..200u64 {
        let (r, _) = random_rels(seed, vec!["A", "B"], vec!["C"]);
        let key = attrs(&["A"]);

        // distinct_values = sorted distinct key sub-tuples.
        let oracle_keys: BTreeSet<Vec<Value>> = r.iter().map(|t| vec![t[0]]).collect();
        let got: Vec<Vec<Value>> = r
            .distinct_values(&key)
            .unwrap()
            .iter()
            .map(|t| t.to_vec())
            .collect();
        assert_eq!(got, oracle_keys.iter().cloned().collect::<Vec<_>>());

        // partition_by: keys in sorted order, partitions = σ_{A=k}(R), each
        // partition strictly sorted; partitions cover R exactly.
        let parts = r.partition_by(&key).unwrap();
        let part_keys: Vec<Vec<Value>> = parts.iter().map(|(k, _)| k.to_vec()).collect();
        assert_eq!(part_keys, got, "partition keys");
        let mut covered = 0;
        for (k, part) in &parts {
            let sel = r.select(&Pred::eq_const("A", k[0])).unwrap();
            assert_eq!(part, &sel, "partition content for key {k:?}");
            covered += part.len();
        }
        assert_eq!(covered, r.len(), "partitions cover the relation");
    }
}

/// `Relation::divide` walks the dividend in place when its columns are the
/// quotient then the divisor's, in the divisor's order; any other layout
/// takes the decompose-and-sort path. Both are pinned against the oracle,
/// on the same data.
#[test]
fn divide_in_place_and_general_twin_agree_with_oracle() {
    for seed in 0..200u64 {
        let (r, s) = random_rels(seed, vec!["A", "B", "C"], vec!["D", "E"]);
        // Divisor rows from R itself (plus S's noise) keep quotients
        // non-trivial.
        let from_r = r.project(&attrs(&["B", "C"])).unwrap();
        let noise = s
            .rename(&[(attr("D"), attr("B")), (attr("E"), attr("C"))])
            .unwrap();
        let taken: Vec<Tuple> = from_r.iter().take(2).map(Tuple::from).collect();
        let divisor =
            Relation::from_rows(Schema::of(&["B", "C"]), taken.iter().map(|t| t.to_vec()))
                .unwrap()
                .union(&noise.select(&Pred::eq_const("B", 0)).unwrap())
                .unwrap();
        for d in [
            divisor.clone(),
            from_r.select(&Pred::eq_const("C", 1)).unwrap(),
        ] {
            // In place: R[A,B,C] ÷ S[B,C].
            assert_matches(&r.divide(&d).unwrap(), &o_divide(&r, &d), "divide in place");
            // General twins: the dividend's columns reordered, and the
            // divisor's.
            let r_moved = r.project(&attrs(&["B", "A", "C"])).unwrap();
            assert_matches(
                &r_moved.divide(&d).unwrap(),
                &o_divide(&r_moved, &d),
                "divide moved",
            );
            let d_swapped = d.project(&attrs(&["C", "B"])).unwrap();
            assert_matches(
                &r.divide(&d_swapped).unwrap(),
                &o_divide(&r, &d_swapped),
                "divide swapped",
            );
            // Same answer whichever path ran.
            assert_eq!(r.divide(&d).unwrap(), r_moved.divide(&d).unwrap());
            assert_eq!(r.divide(&d).unwrap(), r.divide(&d_swapped).unwrap());
        }
    }
}

/// Strictly ascending iteration (hence no duplicates). `assert_matches`
/// checks it too; the order-reading paths below assert it on its own, as
/// release builds compile out `from_sorted`'s `debug_assert`.
fn assert_strictly_sorted(r: &Relation, what: &str) {
    assert!(
        r.iter().collect::<Vec<_>>().windows(2).all(|w| w[0] < w[1]),
        "{what}: not strictly sorted"
    );
}

/// `π_{src as dst, …}` over `BTreeSet`s.
fn o_project_as(r: &Relation, list: &[(Attr, Attr)]) -> OracleRel {
    let idx: Vec<usize> = list
        .iter()
        .map(|(s, _)| r.schema().index_of(s).unwrap())
        .collect();
    (
        Schema::new(list.iter().map(|(_, d)| d.clone()).collect()),
        r.iter()
            .map(|t| idx.iter().map(|&i| t[i]).collect())
            .collect(),
    )
}

/// Projection maps over `(A, B, C)`, named by the shape `project_as`
/// distinguishes: kept leading columns in order (streamed), the same with
/// copies of kept columns (streamed), the identity (a copy), and maps that
/// permute or skip a column (sorted).
fn projection_maps() -> Vec<(&'static str, Vec<(Attr, Attr)>)> {
    let m = |pairs: &[(&str, &str)]| -> Vec<(Attr, Attr)> {
        pairs.iter().map(|&(s, d)| (attr(s), attr(d))).collect()
    };
    vec![
        ("prefix A", m(&[("A", "A")])),
        ("prefix A,B", m(&[("A", "A"), ("B", "B")])),
        ("prefix nullary", m(&[])),
        ("prefix with copy", m(&[("A", "A"), ("A", "A2")])),
        (
            "prefix with copies",
            m(&[("A", "X"), ("B", "Y"), ("A", "Z"), ("B", "W")]),
        ),
        (
            "full width with copy",
            m(&[("A", "A"), ("B", "B"), ("C", "C"), ("B", "B2")]),
        ),
        ("full width", m(&[("A", "A"), ("B", "B"), ("C", "C")])),
        (
            "full width renamed",
            m(&[("A", "X"), ("B", "Y"), ("C", "Z")]),
        ),
        ("permuted", m(&[("B", "B"), ("A", "A"), ("C", "C")])),
        ("permuted narrow", m(&[("C", "C"), ("B", "B")])),
        ("interleaved", m(&[("A", "A"), ("C", "C")])),
        (
            "interleaved with copy",
            m(&[("A", "A"), ("C", "C"), ("B", "B"), ("A", "A2")]),
        ),
        ("skips the first", m(&[("B", "B")])),
    ]
}

#[test]
fn project_as_over_every_map_shape_agrees_with_oracle() {
    for seed in 0..200u64 {
        let (r, _) = random_rels(seed, vec!["A", "B", "C"], vec!["D"]);
        for (what, list) in projection_maps() {
            let got = r.project_as(&list).unwrap();
            assert_strictly_sorted(&got, what);
            assert_matches(&got, &o_project_as(&r, &list), what);
        }
    }
    // Six columns and 300 rows: prefix maps stream, the others drop
    // duplicates by hash, or sort when the output is mostly distinct.
    let names = ["A", "B", "C", "D", "E", "F"];
    let wide = Relation::from_rows(
        Schema::of(&names),
        (0..300i64).map(|i| {
            [i % 3, i % 7, i % 5, i % 2, i % 11, i]
                .into_iter()
                .map(Value::Int)
                .collect::<Vec<_>>()
        }),
    )
    .unwrap();
    let identity: Vec<(Attr, Attr)> = names.iter().map(|&n| (attr(n), attr(n))).collect();
    for (what, list) in projection_maps()
        .into_iter()
        .chain([("wide identity", identity)])
    {
        let got = wide.project_as(&list).unwrap();
        assert_strictly_sorted(&got, what);
        assert_matches(&got, &o_project_as(&wide, &list), what);
    }
}

/// `Relation::divide` reads two layouts of the dividend in place — the
/// quotient columns then the divisor's (`A` then `B`), and the divisor's
/// then the quotient's (`B` then `A`, merging the divisor against `R`'s
/// runs) — and sorts any other. Every layout, an empty divisor, a divisor
/// tuple `R` lacks and an empty `R` are pinned against the oracle.
#[test]
fn divide_reads_either_sorted_layout_and_agrees_with_oracle() {
    let layouts: [(&str, [&str; 3]); 5] = [
        ("A then B", ["A", "B", "C"]),
        ("B then A", ["B", "C", "A"]),
        ("B then A, one quotient column after two", ["C", "B", "A"]),
        ("interleaved", ["B", "A", "C"]),
        ("B then A, swapped", ["C", "A", "B"]),
    ];
    for seed in 0..200u64 {
        let (base, _) = random_rels(seed, vec!["A", "B", "C"], vec!["D"]);
        let from_r = base.project(&attrs(&["B", "C"])).unwrap();
        let lacking = Relation::table(&["B", "C"], &[&[99i64, 99]]);
        let divisors = [
            (
                "two from R",
                Relation::from_rows(from_r.schema().clone(), from_r.iter().take(2)).unwrap(),
            ),
            ("all of R", from_r.clone()),
            (
                "one from R",
                Relation::from_rows(from_r.schema().clone(), from_r.iter().skip(1).take(1))
                    .unwrap(),
            ),
            ("a tuple R lacks", from_r.union(&lacking).unwrap()),
            ("empty", Relation::empty(Schema::of(&["B", "C"]))),
            ("B only", base.project(&attrs(&["B"])).unwrap()),
            ("C then B", from_r.project(&attrs(&["C", "B"])).unwrap()),
        ];
        for (lname, cols) in &layouts {
            let r = base.project(&attrs(cols)).unwrap();
            let empty_r = Relation::empty(r.schema().clone());
            for (dname, d) in &divisors {
                for (rel, rname) in [(&r, "R"), (&empty_r, "empty R")] {
                    let what = format!("{rname} {lname} ÷ {dname}");
                    let got = rel.divide(d).unwrap();
                    assert_strictly_sorted(&got, &what);
                    assert_matches(&got, &o_divide(rel, d), &what);
                }
            }
        }
    }
    // The trip shape: every departure reaches HUB, some reach more.
    let f = Relation::table(
        &["Dep", "Arr"],
        &[
            &["FRA", "ATL"],
            &["FRA", "HUB"],
            &["PAR", "ATL"],
            &["PAR", "BCN"],
            &["PAR", "HUB"],
            &["PHL", "ATL"],
            &["PHL", "HUB"],
        ],
    );
    let deps = f.project(&attrs(&["Dep"])).unwrap();
    let got = f.divide(&deps).unwrap();
    assert_strictly_sorted(&got, "trip");
    assert_matches(&got, &o_divide(&f, &deps), "trip");
    assert_eq!(got, Relation::table(&["Arr"], &[&["ATL"], &["HUB"]]));
}

/// `Catalog::eval` divides `e` itself for a dividend `π_L(e)` whose `L`
/// only reorders `e`'s columns and leaves the quotient's order unchanged;
/// any other dividend is evaluated as written. Either way the answer is
/// the one from evaluating the dividend and dividing by hand.
#[test]
fn eval_divides_through_a_column_permutation() {
    use relalg::{Catalog, EvalCache, Expr};
    for seed in 0..100u64 {
        let (t, _) = random_rels(seed, vec!["A", "B", "C"], vec!["D"]);
        let mut cat = Catalog::new();
        cat.put("T", t);
        let tab = Expr::table("T");
        let cases: Vec<(Expr, Expr, bool)> = vec![
            // Quotient (B, C) both ways: read through.
            (
                tab.project(attrs(&["B", "C", "A"])),
                tab.project(attrs(&["A"])),
                true,
            ),
            (
                tab.project(attrs(&["C", "A", "B"])),
                tab.project(attrs(&["C"])),
                true,
            ),
            (
                tab.project_as(vec![
                    (attr("B"), attr("B")),
                    (attr("A"), attr("A")),
                    (attr("C"), attr("C")),
                ]),
                tab.project(attrs(&["A", "C"])),
                true,
            ),
            // Quotient (C, B) against T's (B, C): evaluated as written.
            (
                tab.project(attrs(&["C", "B", "A"])),
                tab.project(attrs(&["A"])),
                false,
            ),
            // A dropped column changes the quotient: as written.
            (
                tab.project(attrs(&["B", "A"])),
                tab.project(attrs(&["A"])),
                false,
            ),
            // Renaming is not a permutation: as written.
            (
                tab.project_as(vec![
                    (attr("B"), attr("X")),
                    (attr("A"), attr("A")),
                    (attr("C"), attr("C")),
                ]),
                tab.project(attrs(&["A"])),
                false,
            ),
        ];
        for (dividend, divisor, through) in cases {
            let plan = dividend.divide(&divisor);
            let mut cache = EvalCache::new();
            let got = cat.eval_cached(&plan, &mut cache).unwrap();
            let by_hand = cat
                .eval(&dividend)
                .unwrap()
                .divide(&cat.eval(&divisor).unwrap())
                .unwrap();
            let what = format!("{plan}");
            assert_strictly_sorted(&got, &what);
            assert_matches(&got, &to_oracle(&by_hand), &what);
            // ÷ and the divisor's π, plus the dividend's π unless read through.
            let misses = if through { 2 } else { 3 };
            assert_eq!(cache.stats().misses, misses, "{what}");
        }
    }
}

// ---- proptest-shim edge cases (empty inputs, heavy duplication) ----

fn rel_from_pairs(schema: &[&str], rows: &[(i64, i64)]) -> Relation {
    Relation::from_rows(
        Schema::of(schema),
        rows.iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]),
    )
    .unwrap()
}

fn tight_pairs() -> impl Strategy<Value = Vec<(i64, i64)>> {
    // Tiny domain: many duplicates, frequent total overlap, empty inputs.
    proptest::collection::vec((0i64..3, 0i64..3), 0..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn set_ops_match_oracle_on_tight_domains(a in tight_pairs(), b in tight_pairs()) {
        let r = rel_from_pairs(&["A", "B"], &a);
        let s = rel_from_pairs(&["A", "B"], &b);
        assert_matches(&r.union(&s).unwrap(), &o_union(&r, &s), "union");
        assert_matches(&r.intersect(&s).unwrap(), &o_intersect(&r, &s), "intersect");
        assert_matches(&r.difference(&s).unwrap(), &o_difference(&r, &s), "difference");
        // Swapped-column alignment path.
        let v = rel_from_pairs(&["B", "A"], &b);
        assert_matches(&r.union(&v).unwrap(), &o_union(&r, &v), "union aligned");
        assert_matches(&r.difference(&v).unwrap(), &o_difference(&r, &v), "difference aligned");
    }

    #[test]
    fn joins_match_oracle_on_tight_domains(a in tight_pairs(), b in tight_pairs()) {
        let r = rel_from_pairs(&["A", "B"], &a);
        let s = rel_from_pairs(&["B", "C"], &b);
        assert_matches(&r.natural_join(&s), &o_natural_join(&r, &s), "natural_join");
        assert_matches(&r.semijoin(&s), &o_semijoin(&r, &s), "semijoin");
        let t = rel_from_pairs(&["C", "D"], &b);
        assert_matches(&r.product(&t).unwrap(), &o_product(&r, &t), "product");
        let pred = Pred::eq_attr("A", "C");
        assert_matches(&r.theta_join(&t, &pred).unwrap(), &o_theta_join(&r, &t, &pred), "theta");
        let divisor = t.project(&attrs(&["C"])).unwrap().rename(&[(attr("C"), attr("B"))]).unwrap();
        assert_matches(&r.divide(&divisor).unwrap(), &o_divide(&r, &divisor), "divide");
    }

    #[test]
    fn divide_matches_oracle_over_column_layouts(
        rows in proptest::collection::vec((0i64..3, 0i64..3, 0i64..2), 0..14),
        picks in proptest::collection::vec(0usize..14, 0..4),
        layout in 0usize..6,
        divisor_layout in 0usize..6,
        width in 1usize..3,
    ) {
        let names = ["A", "B", "C"];
        let row = |&(x, y, z): &(i64, i64, i64), cols: &[usize]| -> Vec<Value> {
            let v = [x, y, z];
            cols.iter().map(|&i| Value::Int(v[i])).collect()
        };
        // The dividend's columns in permutation `layout`; the divisor's are
        // `width` of them, in the order of permutation `divisor_layout`, with
        // rows drawn from the dividend's data so quotients are non-trivial.
        let cols = PERMS[layout];
        let r = Relation::from_rows(
            Schema::of(&cols.map(|i| names[i])),
            rows.iter().map(|t| row(t, &cols)),
        )
        .unwrap();
        let dcols = &PERMS[divisor_layout][..width];
        let dnames: Vec<&str> = dcols.iter().map(|&i| names[i]).collect();
        let divisor = Relation::from_rows(
            Schema::of(&dnames),
            picks.iter().filter_map(|&i| rows.get(i)).map(|t| row(t, dcols)),
        )
        .unwrap();
        assert_matches(&r.divide(&divisor).unwrap(), &o_divide(&r, &divisor), "divide");
    }
}

/// The six column orders of a three-column relation.
const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Mixed value kinds (Pad < Bool < Int < Str with lexicographic strings)
/// must order identically in storage and oracle.
#[test]
fn mixed_value_kinds_keep_canonical_order() {
    let rows: Vec<Vec<Value>> = vec![
        vec![Value::str("BCN"), Value::Int(2)],
        vec![Value::Pad, Value::Int(9)],
        vec![Value::str("ATL"), Value::Int(1)],
        vec![Value::Bool(true), Value::Int(0)],
        vec![Value::Int(-3), Value::Int(7)],
        vec![Value::str("ATL"), Value::Int(1)], // duplicate
    ];
    let rel = Relation::from_rows(Schema::of(&["X", "N"]), rows.clone()).unwrap();
    let oracle: BTreeSet<Vec<Value>> = rows.into_iter().collect();
    assert_matches(&rel, &(Schema::of(&["X", "N"]), oracle), "mixed kinds");
    assert_eq!(rel.len(), 5);
}

/// A clone, a renaming and the identity projection read the same flat row
/// storage; `insert`/`remove` copy it first, so the original keeps its
/// tuples and epoch while the changed relation gets a fresh epoch.
#[test]
fn shared_storage_is_copied_on_write() {
    let r = Relation::table(&["A", "B"], &[&[1i64, 2], &[3, 4], &[5, 6]]);
    let oracle = to_oracle(&r);
    let ptr = r.values().as_ptr();

    let c = r.clone();
    assert_eq!(c.values().as_ptr(), ptr);
    assert_eq!(c.epoch(), r.epoch());

    let renamed = r.rename(&[(attr("A"), attr("X"))]).unwrap();
    assert_eq!(renamed.values().as_ptr(), ptr);
    assert_ne!(renamed.epoch(), r.epoch());
    assert_strictly_sorted(&renamed, "rename");
    assert_matches(
        &renamed,
        &(Schema::of(&["X", "B"]), oracle.1.clone()),
        "rename",
    );

    let identity = r.project(&attrs(&["A", "B"])).unwrap();
    assert_eq!(identity.values().as_ptr(), ptr);
    assert_strictly_sorted(&identity, "identity π");
    assert_matches(&identity, &oracle, "identity π");

    let mut inserted = r.clone();
    inserted.insert(vec![Value::Int(0), Value::Int(9)]).unwrap();
    let mut removed = r.clone();
    assert!(removed.remove(&[Value::Int(3), Value::Int(4)]));
    for (changed, row, present) in [(&inserted, [0, 9], true), (&removed, [3, 4], false)] {
        assert_ne!(changed.values().as_ptr(), ptr);
        assert_ne!(changed.epoch(), r.epoch());
        assert_strictly_sorted(changed, "copy on write");
        let mut expected = oracle.1.clone();
        let row: Vec<Value> = row.into_iter().map(Value::Int).collect();
        if present {
            expected.insert(row);
        } else {
            expected.remove(&row);
        }
        assert_matches(changed, &(oracle.0.clone(), expected), "copy on write");
    }
    // The original, and every relation sharing its storage, is unchanged.
    for shared in [&r, &c, &identity] {
        assert_eq!(shared.values().as_ptr(), ptr);
        assert_matches(shared, &oracle, "original after copy on write");
    }
    assert_eq!(c.epoch(), r.epoch());

    // A no-op `insert`/`remove` copies nothing and keeps the epoch.
    let mut same = r.clone();
    same.insert(vec![Value::Int(1), Value::Int(2)]).unwrap();
    assert!(!same.remove(&[Value::Int(7), Value::Int(7)]));
    assert_eq!(same.values().as_ptr(), ptr);
    assert_eq!(same.epoch(), r.epoch());
}

/// `(A, B, C)` rows of integers.
fn int_rows(rows: impl IntoIterator<Item = [i64; 3]>) -> Relation {
    Relation::from_rows(
        Schema::of(&["A", "B", "C"]),
        rows.into_iter()
            .map(|r| r.map(Value::Int).to_vec())
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

/// A projection that skips the leading column drops duplicates by hashing
/// and builds one tuple per distinct output, until more than half of the
/// rows scanned after the first 32 are distinct; then it sorts every
/// projected row. Both sides of that line, and the line itself, must
/// agree with the oracle.
#[test]
fn hashed_projection_agrees_with_oracle_at_every_share_of_duplicates() {
    let cases: Vec<(&str, Relation)> = vec![
        (
            "every row a duplicate",
            int_rows((0..100).map(|i| [i, 0, 7])),
        ),
        (
            "every row distinct",
            int_rows((0..100).map(|i| [i, (i * 37) % 100, 99 - i])),
        ),
        (
            "32 rows, all distinct",
            int_rows((0..32).map(|i| [i, i % 2, 31 - i])),
        ),
        (
            "33 rows, all distinct",
            int_rows((0..33).map(|i| [i, i % 2, 32 - i])),
        ),
        (
            "33 rows, 17 distinct",
            int_rows((0..33).map(|i| [i, 0, (i / 2) % 17])),
        ),
        (
            "duplicates, then distinct",
            int_rows((0..100).map(|i| [i, 0, if i < 40 { 0 } else { i }])),
        ),
        ("empty", int_rows([])),
    ];
    let m = |pairs: &[(&str, &str)]| -> Vec<(Attr, Attr)> {
        pairs.iter().map(|&(s, d)| (attr(s), attr(d))).collect()
    };
    let maps = [
        ("π{C}", m(&[("C", "C")])),
        ("π{C,B}", m(&[("C", "C"), ("B", "B")])),
        ("π{B as X,C as Y}", m(&[("B", "X"), ("C", "Y")])),
        ("π{C,C as D}", m(&[("C", "C"), ("C", "D")])),
        ("π{}", m(&[])),
    ];
    for (case, r) in &cases {
        for (map, list) in &maps {
            let what = format!("{map} over {case}");
            let got = r.project_as(list).unwrap();
            assert_strictly_sorted(&got, &what);
            assert_matches(&got, &o_project_as(r, list), &what);
        }
        assert_eq!(
            r.project(&[]).unwrap().len(),
            r.len().min(1),
            "π{{}} over {case}"
        );
    }
}

/// `γ_{G; count(*), sum(V), min(V), max(V)}` over `BTreeMap`s.
fn o_aggregate(r: &Relation, group: &[&str], v: &str) -> OracleRel {
    let gi: Vec<usize> = group
        .iter()
        .map(|g| r.schema().index_of(&attr(g)).unwrap())
        .collect();
    let vi = r.schema().index_of(&attr(v)).unwrap();
    let mut groups: std::collections::BTreeMap<Vec<Value>, Vec<i64>> = Default::default();
    for t in r.iter() {
        let Value::Int(x) = t[vi] else {
            panic!("integer column")
        };
        groups
            .entry(gi.iter().map(|&i| t[i]).collect())
            .or_default()
            .push(x);
    }
    let mut names: Vec<&str> = group.to_vec();
    names.extend(["N", "S", "Lo", "Hi"]);
    let rows = groups
        .into_iter()
        .map(|(mut key, xs)| {
            key.extend(
                [
                    xs.len() as i64,
                    xs.iter().sum(),
                    *xs.iter().min().unwrap(),
                    *xs.iter().max().unwrap(),
                ]
                .map(Value::Int),
            );
            key
        })
        .collect();
    (Schema::of(&names), rows)
}

/// Grouping hashes the key columns in place and builds a key tuple once
/// per group: pinned over no key, one run, runs on the leading column,
/// keys that interleave in storage order, and an empty input.
#[test]
fn aggregate_agrees_with_grouping_oracle() {
    use relalg::{AggCall, AggFn};
    let aggs = [
        AggCall::new(AggFn::Count, None, attr("N")),
        AggCall::new(AggFn::Sum, Some(attr("C")), attr("S")),
        AggCall::new(AggFn::Min, Some(attr("C")), attr("Lo")),
        AggCall::new(AggFn::Max, Some(attr("C")), attr("Hi")),
    ];
    let rows = int_rows((0..90).map(|i| [i / 10, i % 7, (i * 13) % 29]));
    let one_run = int_rows((0..40).map(|i| [5, i, i % 3]));
    let cases: Vec<(&str, &Relation, Vec<&str>)> = vec![
        ("no key", &rows, vec![]),
        ("one run", &one_run, vec!["A"]),
        ("runs on the leading column", &rows, vec!["A"]),
        ("interleaved keys", &rows, vec!["B"]),
        ("two interleaved keys", &rows, vec!["B", "A"]),
        ("interleaved keys, one run", &one_run, vec!["C", "A"]),
    ];
    for (what, r, group) in cases {
        let got = r.aggregate(&attrs(&group), &aggs).unwrap();
        assert_strictly_sorted(&got, what);
        assert_matches(&got, &o_aggregate(r, &group, "C"), what);
    }
    let empty = int_rows([]);
    for group in [vec![], vec!["B"]] {
        let got = empty.aggregate(&attrs(&group), &aggs).unwrap();
        assert!(got.is_empty());
        assert_matches(&got, &o_aggregate(&empty, &group, "C"), "empty input");
    }
}

// ---- flat row storage: the sort dispatch, arity 0 and DML ----

/// The arities that reach every row sort: none (an explicit row count),
/// one and eight columns (the smallest and largest sorted as `[Value; K]`
/// chunks), and nine and twelve (sorted by row index).
const FLAT_ARITIES: [usize; 5] = [0, 1, 8, 9, 12];

/// `n` rows of `arity` columns, with duplicates, in an unsorted order.
///
/// Rows come in groups of four that share every column but the last, so
/// only a comparison of whole rows orders them (a sort that stopped at
/// column 8 would not). Within the shared prefix, value `j` of the flat
/// sequence is `j mod (arity + 1)` shifted by the group, so the prefixes
/// of consecutive groups are rotations of one another: a row's values
/// also occur, misaligned, across the boundary of two neighbouring rows,
/// which a sort or dedup that loses the row stride would take for a row.
/// Every row is pushed twice, once next to its copy and once far from it.
fn flat_rows(arity: usize, n: usize) -> Vec<Vec<Value>> {
    let (k, period) = (arity as i64, arity as i64 + 1);
    let distinct: Vec<Vec<Value>> = (0..n as i64)
        .map(|r| {
            let g = r / 4;
            (0..k)
                .map(|c| match c {
                    c if c == k - 1 && k > 1 => Value::Int((r * 3) % 4),
                    c => Value::Int((g * k + c) % period + (g % 3) * 10),
                })
                .collect()
        })
        .collect();
    let mut rows = Vec::with_capacity(2 * n);
    for (i, row) in distinct.iter().enumerate().rev() {
        rows.push(row.clone());
        if i % 2 == 0 {
            rows.push(row.clone());
        }
    }
    rows.extend(distinct.iter().skip(1).step_by(2).cloned());
    rows
}

fn flat_schema(arity: usize) -> Schema {
    let names: Vec<String> = (0..arity).map(|c| format!("C{c}")).collect();
    Schema::of(&names.iter().map(String::as_str).collect::<Vec<_>>())
}

#[test]
fn flat_rows_sort_and_dedup_at_every_arity() {
    for arity in FLAT_ARITIES {
        for n in [0usize, 1, 2, 3, 63, 64, 65, 300] {
            let what = format!("arity {arity}, {n} rows");
            let rows = flat_rows(arity, n);
            let oracle: OracleRel = (flat_schema(arity), rows.iter().cloned().collect());
            let built = Relation::from_rows(flat_schema(arity), &rows).unwrap();
            assert_matches(&built, &oracle, &what);
            assert_eq!(built.len(), oracle.1.len(), "{what}");
            assert_eq!(built.iter().len(), oracle.1.len(), "{what}");
            let back: Vec<&[Value]> = Iterator::rev(built.iter()).collect();
            let fwd: Vec<&[Value]> = built.iter().collect();
            assert!(back.iter().rev().eq(fwd.iter()), "{what}: both ends");
            // The builder sorts whatever order the rows arrive in.
            let mut b = relalg::RelationBuilder::new(flat_schema(arity));
            for row in rows.iter().rev() {
                b.push(row);
            }
            assert_eq!(b.finish(), built, "{what}: builder");
            // A union of halves re-sorts their concatenation.
            let (lo, hi) = rows.split_at(rows.len() / 2);
            let lo = Relation::from_rows(flat_schema(arity), lo).unwrap();
            let hi = Relation::from_rows(flat_schema(arity), hi).unwrap();
            assert_matches(&lo.union_all([&hi]).unwrap(), &oracle, &what);
            assert_matches(&lo.union(&hi).unwrap(), &oracle, &what);
            if arity > 0 {
                // A column permutation sorts every row anew.
                let mut reversed = flat_schema(arity).attrs().to_vec();
                reversed.reverse();
                let list: Vec<(Attr, Attr)> =
                    reversed.iter().map(|a| (a.clone(), a.clone())).collect();
                let permuted = built.project_as(&list).unwrap();
                assert_matches(&permuted, &o_project_as(&built, &list), &what);
            }
        }
    }
}

#[test]
fn nullary_relations_keep_zero_or_one_row() {
    let unit = Relation::unit();
    let none = Relation::nullary_empty();
    assert_eq!((unit.len(), none.len()), (1, 0));
    assert_eq!(unit.iter().collect::<Vec<_>>(), vec![&[] as &[Value]]);
    assert_eq!(none.iter().count(), 0);
    let three = Relation::from_rows(Schema::nullary(), vec![Vec::<Value>::new(); 3]).unwrap();
    assert_eq!(three, unit);
    assert!(none < unit);
    let cases = [
        (unit.union(&none).unwrap(), 1),
        (unit.intersect(&none).unwrap(), 0),
        (unit.difference(&none).unwrap(), 1),
        (none.difference(&unit).unwrap(), 0),
        (unit.product(&unit).unwrap(), 1),
        (unit.natural_join(&unit), 1),
        (unit.select(&Pred::True).unwrap(), 1),
        (unit.select(&Pred::False).unwrap(), 0),
        (unit.divide(&unit).unwrap(), 1),
        (
            unit.with_changes([&[] as &[Value]], Vec::<Tuple>::new())
                .unwrap(),
            0,
        ),
        (none.merge_rows(vec![Vec::<Value>::new(); 2]).unwrap(), 1),
    ];
    for (i, (got, len)) in cases.iter().enumerate() {
        assert_eq!(got.schema().arity(), 0, "case {i}");
        assert_eq!(got.len(), *len, "case {i}");
    }
    // Projecting a relation onto no columns leaves `{⟨⟩}` or `{}`.
    let r = Relation::table(&["A"], &[&[1i64], &[2]]);
    assert_eq!(r.project(&[]).unwrap(), unit);
    assert_eq!(
        Relation::empty(r.schema().clone()).project(&[]).unwrap(),
        none
    );
}

#[test]
fn with_changes_on_flat_rows_agrees_with_oracle() {
    for arity in FLAT_ARITIES {
        for n in [0usize, 1, 5, 64, 200] {
            let what = format!("arity {arity}, {n} rows");
            let rows = flat_rows(arity, n);
            let base = Relation::from_rows(flat_schema(arity), &rows).unwrap();
            let _ = base.stats();
            // Every third row, one absent row and the whole table, in
            // sorted order.
            let absent: Vec<Value> = vec![Value::Int(-1); arity];
            let mut removed: BTreeSet<Vec<Value>> =
                base.iter().step_by(3).map(<[Value]>::to_vec).collect();
            removed.insert(absent.clone());
            let all: BTreeSet<Vec<Value>> = base.iter().map(<[Value]>::to_vec).collect();
            // New rows (one value past the domain), their duplicates and
            // rows already present, in any order.
            let mut added: Vec<Vec<Value>> = flat_rows(arity, n / 2 + 1)
                .into_iter()
                .map(|mut r| {
                    if let Some(v) = r.last_mut() {
                        *v = Value::Int(99);
                    }
                    r
                })
                .collect();
            added.extend(base.iter().take(3).map(<[Value]>::to_vec));
            for (removed, added) in [
                (&removed, added.clone()),
                (&all, Vec::new()),
                (&BTreeSet::new(), added.clone()),
            ] {
                let next = base.with_changes(removed, &added).unwrap();
                let mut want = to_oracle(&base);
                want.1.retain(|r| !removed.contains(r));
                want.1.extend(added.iter().cloned());
                assert_matches(&next, &want, &what);
                let fresh = Relation::from_rows(flat_schema(arity), next.iter()).unwrap();
                if next.epoch() != base.epoch() {
                    assert_eq!(
                        next.stats_if_computed(),
                        Some(fresh.stats()),
                        "{what}: derived statistics"
                    );
                }
            }
        }
    }
}
