//! Conservativity tests (Theorem 5.7): the Figure-6 translation evaluated by
//! the relational engine must denote exactly the same world-set as the
//! direct Figure-3 semantics, and the `1↦1` translations must compute the
//! same answer relation as the direct semantics on complete inputs.

use relalg::{attrs, AggCall, AggFn, Catalog, Pred, Relation, Schema};
use worldset::{World, WorldSet};
use wsa::{eval_named, Query};
use wsa_inlined::{
    run_complete, run_general, translate_complete, translate_opt_complete, InlinedRep,
};

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

fn hotels() -> Relation {
    Relation::table(
        &["Name", "City"],
        &[
            &["Hilton", "ATL"],
            &["Ritz", "BCN"],
            &["Ibis", "ATL"],
            &["Sofitel", "PAR"],
        ],
    )
}

fn r_ab() -> Relation {
    Relation::table(&["A", "B"], &[&[1i64, 2], &[2, 3], &[2, 4], &[3, 2]])
}

fn s_cd() -> Relation {
    Relation::table(&["C", "D"], &[&[2i64, 3], &[4, 5]])
}

/// Check `rep(⟦q⟧τ(encode(A))) = ⟦q⟧(A)` for the general translation.
fn assert_conservative(q: &Query, ws: &WorldSet) {
    let direct = eval_named(q, ws, "Ans").expect("direct semantics");
    let rep = InlinedRep::encode(ws).expect("encode");
    let translated = run_general(q, &rep, "Ans").expect("translated evaluation");
    assert_eq!(
        translated, direct,
        "translation disagrees with direct semantics for {q}"
    );
}

/// Check the 1↦1 translations against the direct semantics on a complete DB.
fn assert_complete_equiv(q: &Query, named: Vec<(&str, Relation)>) {
    let ws = WorldSet::single(named.clone());
    let direct = eval_named(q, &ws, "Ans").expect("direct semantics");
    // All worlds carry the same answer for a 1↦1 query.
    let expected = direct.iter().next().expect("nonempty").last().clone();

    let mut catalog = Catalog::new();
    for (n, r) in &named {
        catalog.put(n, r.clone());
    }
    let names: Vec<String> = named.iter().map(|(n, _)| n.to_string()).collect();
    let base = |n: &str| catalog.schema_of(n);

    let general = translate_complete(q, &base, &names).expect("general 1↦1 translation");
    let got = catalog.eval(&general).expect("evaluate general");
    assert_eq!(*got, expected, "general 1↦1 translation differs for {q}");

    let opt = translate_opt_complete(q, &base).expect("optimized translation");
    let got = catalog.eval(&opt).expect("evaluate optimized");
    assert_eq!(*got, expected, "optimized translation differs for {q}");

    // Simplification must preserve the plan's meaning.
    let simplified = relalg::simplify(&opt, &base).expect("simplify");
    let got = catalog.eval(&simplified).expect("evaluate simplified");
    assert_eq!(*got, expected, "simplified optimized plan differs for {q}");

    // The statement path's route returns the whole world-set.
    let routed = run_complete(q, &ws, "Ans")
        .expect("a 1↦1 query over one world takes the route")
        .expect("relational route");
    assert_eq!(routed, direct, "relational route differs for {q}");
}

#[test]
fn trip_query_conservative() {
    let q = Query::rel("HFlights")
        .choice(attrs(&["Dep"]))
        .project(attrs(&["Arr"]))
        .cert();
    let ws = WorldSet::single(vec![("HFlights", flights())]);
    assert_conservative(&q, &ws);
    assert_complete_equiv(&q, vec![("HFlights", flights())]);
}

/// The trip query over 1100 departures: 1100 implicit worlds, more than
/// any other test gives `run_general`. It runs the Figure-6 translation
/// at this size too, and must still denote the Figure-3 world-set.
#[test]
fn trip_query_conservative_over_many_departures() {
    let q = Query::rel("HFlights")
        .choice(attrs(&["Dep"]))
        .project(attrs(&["Arr"]))
        .cert();
    let flights = datagen::flights(5, 1100, 12, 3);
    let dep = flights.stats().distinct_of(flights.schema(), &"Dep".into());
    assert_eq!(dep, Some(1100));
    let ws = WorldSet::single(vec![("HFlights", flights)]);
    assert_eq!(wsa::plan_query(&q, &ws).peak, 1100, "implicit worlds");
    assert_conservative(&q, &ws);
}

#[test]
fn example_5_8_plan_shape() {
    // The optimized translation simplifies to the paper's division plan.
    let q = Query::rel("HFlights")
        .choice(attrs(&["Dep"]))
        .project(attrs(&["Arr"]))
        .cert();
    let base = |n: &str| (n == "HFlights").then(|| Schema::of(&["Dep", "Arr"]));
    let opt = translate_opt_complete(&q, &base).unwrap();
    let simplified = relalg::simplify(&opt, &base).unwrap();
    assert_eq!(
        simplified.to_string(),
        "(π{Arr,Dep}(HFlights) ÷ π{Dep}(HFlights))"
    );
}

#[test]
fn poss_query_conservative() {
    let q = Query::rel("HFlights")
        .choice(attrs(&["Dep"]))
        .project(attrs(&["Arr"]))
        .poss();
    let ws = WorldSet::single(vec![("HFlights", flights())]);
    assert_conservative(&q, &ws);
    assert_complete_equiv(&q, vec![("HFlights", flights())]);
}

#[test]
fn figure_5_choice_and_group() {
    // χ_A(R) then pγ^{A,B}_B on the Figure-5 data, general translation on a
    // multi-world encoding.
    let ws = WorldSet::single(vec![("R", r_ab()), ("S", s_cd())]);
    let q = Query::rel("R").choice(attrs(&["A"]));
    assert_conservative(&q, &ws);

    let q = Query::rel("R")
        .choice(attrs(&["A"]))
        .poss_group(attrs(&["B"]), attrs(&["A", "B"]));
    assert_conservative(&q, &ws);
}

#[test]
fn cert_group_conservative() {
    let ws = WorldSet::single(vec![("R", r_ab())]);
    let q = Query::rel("R")
        .choice(attrs(&["A"]))
        .cert_group(attrs(&["B"]), attrs(&["B"]));
    assert_conservative(&q, &ws);
}

#[test]
fn binary_ops_conservative() {
    let ws = WorldSet::single(vec![("R", r_ab()), ("S", s_cd())]);

    // Product of two choice branches.
    let q = Query::rel("R")
        .choice(attrs(&["A"]))
        .product(Query::rel("S").choice(attrs(&["C"])));
    assert_conservative(&q, &ws);

    // Union of a choice branch with a plain relation (schema-aligned).
    let q = Query::rel("R").choice(attrs(&["A"])).union(Query::rel("R"));
    assert_conservative(&q, &ws);

    // Difference: certain tuples removed per choice world.
    let q = Query::rel("R").difference(Query::rel("R").choice(attrs(&["A"])));
    assert_conservative(&q, &ws);

    // Intersection of two independent choices.
    let q = Query::rel("R")
        .choice(attrs(&["A"]))
        .intersect(Query::rel("R").choice(attrs(&["B"])));
    assert_conservative(&q, &ws);
}

#[test]
fn nested_choice_conservative() {
    let ws = WorldSet::single(vec![("R", r_ab())]);
    let q = Query::rel("R")
        .choice(attrs(&["A"]))
        .choice(attrs(&["B"]))
        .project(attrs(&["B"]))
        .poss();
    assert_conservative(&q, &ws);
    assert_complete_equiv(&q, vec![("R", r_ab())]);
}

#[test]
fn selection_between_choices_conservative() {
    // Exercises the empty-answer-world paths: σ empties some worlds before
    // the second χ and the cert.
    let ws = WorldSet::single(vec![("R", r_ab())]);
    let q = Query::rel("R")
        .choice(attrs(&["A"]))
        .select(Pred::eq_const("B", 2))
        .choice(attrs(&["B"]))
        .project(attrs(&["B"]))
        .cert();
    assert_conservative(&q, &ws);
    assert_complete_equiv(&q, vec![("R", r_ab())]);
}

#[test]
fn cert_with_empty_world_is_empty() {
    // One choice world has no B=4 tuples ⇒ cert must be empty.
    let q = Query::rel("R")
        .choice(attrs(&["A"]))
        .select(Pred::eq_const("B", 4))
        .project(attrs(&["B"]))
        .cert();
    let ws = WorldSet::single(vec![("R", r_ab())]);
    let direct = eval_named(&q, &ws, "Ans").unwrap();
    for w in direct.iter() {
        assert!(w.last().is_empty());
    }
    assert_conservative(&q, &ws);
    assert_complete_equiv(&q, vec![("R", r_ab())]);
}

#[test]
fn multi_world_input_conservative() {
    // Start from an already-incomplete database (three worlds).
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

    assert_conservative(&Query::rel("Flights").project(attrs(&["Arr"])).cert(), &ws);
    assert_conservative(&Query::rel("Flights").project(attrs(&["Arr"])).poss(), &ws);
    assert_conservative(&Query::rel("Flights").choice(attrs(&["Arr"])), &ws);
    assert_conservative(
        &Query::rel("Flights").poss_group(attrs(&["Dep"]), attrs(&["Dep", "Arr"])),
        &ws,
    );
}

#[test]
fn acquisition_query_conservative() {
    // Example 4.1's inner grouping pattern on the Section-2 data.
    let company = Relation::table(
        &["CID", "EID"],
        &[
            &["ACME", "e1"],
            &["ACME", "e2"],
            &["HAL", "e3"],
            &["HAL", "e4"],
            &["HAL", "e5"],
        ],
    );
    let skills = Relation::table(
        &["EID2", "Skill"],
        &[
            &["e1", "Web"],
            &["e2", "Web"],
            &["e3", "Java"],
            &["e3", "Web"],
            &["e4", "SQL"],
            &["e5", "Java"],
        ],
    );
    let ws = WorldSet::single(vec![("CE", company.clone()), ("ES", skills.clone())]);

    // χ over (CID, EID), join skills, group by CID, certain skills, possible.
    let q = Query::rel("CE")
        .choice(attrs(&["CID", "EID"]))
        .join(Query::rel("ES"), Pred::eq_attr("EID", "EID2"))
        .project(attrs(&["CID", "Skill"]))
        .cert_group(attrs(&["CID"]), attrs(&["CID", "Skill"]))
        .select(Pred::eq_const("Skill", "Web"))
        .project(attrs(&["CID"]))
        .poss();
    assert_conservative(&q, &ws);
    assert_complete_equiv(&q, vec![("CE", company), ("ES", skills)]);
}

#[test]
fn q2_rewritten_equivalence_poss_join() {
    // Example 6.2's q2 on flights × hotels.
    let ws = WorldSet::single(vec![("HFlights", flights()), ("Hotels", hotels())]);
    let q2 = Query::rel("HFlights")
        .product(Query::rel("Hotels"))
        .choice(attrs(&["Dep", "City"]))
        .poss_group(attrs(&["Dep"]), attrs(&["Dep", "Arr", "Name", "City"]))
        .select(Pred::eq_attr("Arr", "City"))
        .project(attrs(&["City"]))
        .poss();
    assert_conservative(&q2, &ws);
    assert_complete_equiv(&q2, vec![("HFlights", flights()), ("Hotels", hotels())]);
}

#[test]
fn translation_size_is_polynomial() {
    // Nested choices: the DAG grows linearly per operator.
    let mut q = Query::rel("R");
    let mut sizes = Vec::new();
    for depth in 0..6 {
        let closed = q.clone().project(attrs(&["B"])).cert();
        let base = |n: &str| (n == "R").then(|| Schema::of(&["A", "B"]));
        let expr = translate_complete(&closed, &base, &["R".to_string()]).unwrap();
        sizes.push((depth, expr.dag_size()));
        q = q.choice(attrs(&["A"]));
    }
    // DAG size grows roughly linearly (well under quadratic blowup).
    for pair in sizes.windows(2) {
        let (_, a) = pair[0];
        let (_, b) = pair[1];
        assert!(b > a, "size must grow with depth");
        assert!(b - a < 40, "per-operator growth must be bounded: {sizes:?}");
    }
}

/// `R(A, B, C)` keyed by `A`: one key group per entry of `sizes`, each of up
/// to three tuples drawn from `vals`, at most six violations in all.
fn keyed_relation(sizes: &[usize], vals: &[(i64, i64)]) -> Relation {
    let mut budget = 6;
    let mut vals = vals.iter();
    let mut rows = Vec::new();
    for (key, &size) in sizes.iter().enumerate() {
        let extra = (size - 1).min(budget);
        budget -= extra;
        for &(b, c) in vals.by_ref().take(1 + extra) {
            rows.push(vec![key as i64, b, c]);
        }
    }
    let rows: Vec<Vec<relalg::Value>> = rows
        .into_iter()
        .map(|r| r.into_iter().map(relalg::Value::Int).collect())
        .collect();
    Relation::from_rows(Schema::of(&["A", "B", "C"]), rows).unwrap()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

    /// `poss`/`cert` over a key-local repair: the relational plan equals
    /// Figure 3's enumeration of every repair.
    #[test]
    fn key_local_repairs_match_figure_3(
        sizes in proptest::collection::vec(1usize..4, 0..6),
        vals in proptest::collection::vec((0i64..3, 0i64..3), 18..19),
        s_vals in proptest::collection::vec(0i64..3, 0..3),
        shape in (0usize..4, 0usize..3, 0usize..5),
        consts in (0i64..3, 0i64..3),
    ) {
        let r = keyed_relation(&sizes, &vals);
        let s_rows: Vec<&[i64]> = s_vals.iter().map(std::slice::from_ref).collect();
        let s = Relation::table(&["D"], &s_rows);
        let ws = WorldSet::single(vec![("R", r), ("S", s)]);

        let (filters, product, proj) = shape;
        let mut q = Query::rel("R");
        if filters & 1 == 1 {
            q = q.select(Pred::eq_const("B", consts.0).not());
        }
        q = q.repair_by_key(attrs(&["A"]));
        if filters & 2 == 2 {
            q = q.select(Pred::eq_const("C", consts.1).not());
        }
        q = match product {
            0 => q,
            1 => q.product(Query::rel("S")),
            _ => Query::rel("S").product(q).select(Pred::eq_attr("B", "D")),
        };
        let keep: &[&str] = match (proj, product) {
            (0, _) => &["A", "B", "C"],
            (1, _) => &["A", "B"],
            (2, _) => &["C"],
            (3, 0) => &["B"],
            (3, _) => &["B", "D"],
            _ => &[],
        };
        let q = q.project(attrs(keep));
        for closed in [q.clone().poss(), q.cert()] {
            let direct = eval_named(&closed, &ws, "Ans").unwrap();
            let routed = run_complete(&closed, &ws, "Ans")
                .expect("a 1↦1 query over one world takes the route")
                .unwrap_or_else(|e| panic!("{closed} is not translatable: {e}"));
            proptest::prop_assert_eq!(routed, direct, "{}", closed);
        }
    }
}

#[test]
fn key_local_repair_plans_are_first_order() {
    // B16's `repair`, and the same with the key projected away.
    let q = Query::rel("R")
        .repair_by_key(attrs(&["A"]))
        .project(attrs(&["A", "B"]))
        .cert();
    let r = Relation::table(
        &["A", "B", "C"],
        &[
            &[1i64, 1, 1],
            &[1, 1, 2],
            &[2, 1, 1],
            &[2, 2, 1],
            &[3, 3, 3],
        ],
    );
    let empty = Relation::empty(Schema::of(&["A", "B", "C"]));
    for q in [q.clone(), q.project(attrs(&["B"]))] {
        let base = |n: &str| (n == "R").then(|| Schema::of(&["A", "B", "C"]));
        // The certain answer is a group-wise difference: no division by a
        // world table, which would list every repair.
        let plan = translate_opt_complete(&q, &base).unwrap();
        assert!(!plan.to_string().contains('÷'), "{plan}");
        // The empty input has one, empty, repair.
        for rel in [&r, &empty] {
            let ws = WorldSet::single(vec![("R", rel.clone())]);
            let routed = run_complete(&q, &ws, "Ans").unwrap().unwrap();
            assert_eq!(routed, eval_named(&q, &ws, "Ans").unwrap(), "{q}");
        }
    }
}

#[test]
fn repairs_outside_the_key_local_fragment_are_not_translatable() {
    let base = |n: &str| match n {
        "R" => Some(Schema::of(&["A", "B"])),
        "S" => Some(Schema::of(&["C", "D"])),
        _ => None,
    };
    let names = ["R".to_string(), "S".to_string()];
    let repaired = || Query::rel("R").repair_by_key(attrs(&["A"]));
    let declined = [
        // A repair over an input that carries ids.
        Query::rel("R")
            .choice(attrs(&["B"]))
            .repair_by_key(attrs(&["A"]))
            .poss(),
        // χ over a repaired input.
        repaired().choice(attrs(&["B"])).cert(),
        // Set operations over a repaired input.
        repaired().union(Query::rel("R")).cert(),
        Query::rel("R").difference(repaired()).poss(),
        repaired().intersect(repaired()).cert(),
        // Grouped `poss`/`cert` over a repaired input.
        repaired().poss_group(attrs(&["A"]), attrs(&["B"])).poss(),
        repaired().cert_group(attrs(&["A"]), attrs(&["B"])).cert(),
        // A second repair over a repaired input.
        repaired().repair_by_key(attrs(&["B"])).cert(),
        // A product of two repaired sides.
        repaired()
            .product(Query::rel("S").repair_by_key(attrs(&["C"])))
            .cert(),
    ];
    for q in declined {
        assert!(translate_opt_complete(&q, &base).is_err(), "{q}");
        // The Figure-6 translation lists every world: it declines repairs.
        assert!(translate_complete(&q, &base, &names).is_err(), "{q}");
    }
}

#[test]
fn non_1to1_queries_rejected_by_complete_translations() {
    let q = Query::rel("R").choice(attrs(&["A"]));
    let base = |n: &str| (n == "R").then(|| Schema::of(&["A", "B"]));
    assert!(translate_complete(&q, &base, &["R".to_string()]).is_err());
    assert!(translate_opt_complete(&q, &base).is_err());
}

#[test]
fn same_attribute_choices_get_distinct_ids() {
    // Both operands choose on the *same* attribute A. The direct semantics
    // pairs the two choices freely (all combinations); the translation must
    // generate distinct id attributes per χ instance or the combinations
    // would collapse onto the diagonal.
    let ws = WorldSet::single(vec![("R", r_ab()), ("S", s_cd())]);
    let left = Query::rel("R").choice(attrs(&["A"]));
    let right = Query::rel("R")
        .choice(attrs(&["A"]))
        .rename(vec![("A".into(), "A2".into()), ("B".into(), "B2".into())]);
    let q = left.product(right);
    assert_conservative(&q, &ws);

    // Also as a set operation.
    let q = Query::rel("R")
        .choice(attrs(&["A"]))
        .union(Query::rel("R").choice(attrs(&["A"])));
    assert_conservative(&q, &ws);
    let q = Query::rel("R")
        .choice(attrs(&["A"]))
        .difference(Query::rel("R").choice(attrs(&["A"])));
    assert_conservative(&q, &ws);
}

#[test]
fn multi_attribute_choice_conservative() {
    let ws = WorldSet::single(vec![("R", r_ab()), ("S", s_cd())]);
    let q = Query::rel("R").choice(attrs(&["A", "B"]));
    assert_conservative(&q, &ws);
    let q = Query::rel("R")
        .choice(attrs(&["A", "B"]))
        .project(attrs(&["B"]))
        .cert();
    assert_conservative(&q, &ws);
    assert_complete_equiv(&q, vec![("R", r_ab())]);
}

#[test]
fn grouping_after_binary_conservative() {
    // Grouping over the combined world dimensions of a product.
    let ws = WorldSet::single(vec![("R", r_ab()), ("S", s_cd())]);
    let q = Query::rel("R")
        .choice(attrs(&["A"]))
        .product(Query::rel("S").choice(attrs(&["C"])))
        .poss_group(attrs(&["B"]), attrs(&["B", "D"]));
    assert_conservative(&q, &ws);
}

#[test]
fn deep_mixed_pipeline_conservative() {
    let ws = WorldSet::single(vec![("R", r_ab()), ("S", s_cd())]);
    let q = Query::rel("R")
        .choice(attrs(&["A"]))
        .poss_group(attrs(&["B"]), attrs(&["A", "B"]))
        .choice(attrs(&["B"]))
        .project(attrs(&["A"]))
        .poss();
    assert_conservative(&q, &ws);
    assert_complete_equiv(&q, vec![("R", r_ab())]);
}

/// A relation over `cols` with integer rows.
fn int_rel(cols: &[&str], rows: Vec<Vec<i64>>) -> Relation {
    let rows = rows
        .into_iter()
        .map(|r| r.into_iter().map(relalg::Value::Int).collect::<Vec<_>>());
    Relation::from_rows(Schema::of(cols), rows).unwrap()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(240))]

    /// `γ` over `⋉`/`▷` (or over a plain input), with 0–3 `χ` dimensions
    /// between the two sides, empty inputs, worlds a `σ` after a `χ`
    /// empties, and measures that repeat across distinct tuples: the
    /// relational route equals Figure 3.
    #[test]
    fn aggregation_and_semijoins_match_figure_3(
        r_rows in proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 0..9),
        s_rows in proptest::collection::vec((0i64..3, 0i64..3), 0..6),
        dims in (0usize..2, 0usize..4),
        ops in (0usize..5, 0usize..5),
        grouping in (0usize..3, 0i64..3),
    ) {
        // R(A, B, M): M is the measure, with few values, so distinct
        // tuples share one.
        let r = int_rel(&["A", "B", "M"], r_rows.iter().map(|&(a, b, m)| vec![a, b, m]).collect());
        let s = int_rel(&["C", "D"], s_rows.iter().map(|&(c, d)| vec![c, d]).collect());
        let ws = WorldSet::single(vec![("R", r), ("S", s)]);
        let ((left_dims, right_dims), (op, func)) = (dims, ops);
        let (group, k) = grouping;

        let mut left = Query::rel("R");
        if left_dims == 1 {
            left = left.choice(attrs(&["A"]));
        }
        let mut right = Query::rel("S");
        if right_dims >= 1 {
            right = right.choice(attrs(&["C"]));
        }
        if right_dims >= 2 {
            right = right.choice(attrs(&["D"]));
        }
        if right_dims == 3 {
            // Empties the worlds whose only tuple has D = k.
            right = right.select(Pred::eq_const("D", k).not());
        }
        let on = vec![(relalg::attr("B"), relalg::attr("C"))];
        let input = match op {
            0 => left.semijoin(right, on, false),
            1 => left.semijoin(right, on, true),
            2 => left.semijoin(right, vec![], false),
            3 => left.semijoin(right, vec![], true),
            _ => left.product(right),
        };
        let func = [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max, AggFn::Avg][func];
        let arg = (func != AggFn::Count).then(|| relalg::attr("M"));
        let group = [attrs(&["A"]), attrs(&["A", "B"]), attrs(&["B"])][group].clone();
        let q = input.aggregate(group, vec![AggCall::new(func, arg, relalg::attr("F"))]);
        for closed in [q.clone().poss(), q.cert()] {
            let direct = eval_named(&closed, &ws, "Ans").unwrap();
            let routed = run_complete(&closed, &ws, "Ans")
                .expect("a 1↦1 query over one world takes the route")
                .unwrap_or_else(|e| panic!("{closed} is not translatable: {e}"));
            proptest::prop_assert_eq!(routed, direct, "{}", closed);
        }
    }
}

#[test]
fn aggregation_and_semijoins_decline_figure_6() {
    let q = Query::rel("R")
        .semijoin(Query::rel("S"), vec![], false)
        .aggregate(attrs(&["A"]), vec![])
        .poss();
    let names = ["R".to_string(), "S".to_string()];
    let base = |n: &str| match n {
        "R" => Some(Schema::of(&["A", "B"])),
        "S" => Some(Schema::of(&["C", "D"])),
        _ => None,
    };
    assert!(translate_complete(&q, &base, &names).is_err());
    assert!(translate_opt_complete(&q, &base).is_ok());
}

/// `χ` over an empty input keeps one world with an empty answer (Figure
/// 3). A set operation with such a side must keep the other side's rows:
/// the side that lacks the `χ` dimension is paired with one padded world,
/// not with the empty choice domain.
#[test]
fn set_operations_over_an_empty_choice_match_figure_3() {
    let r = Relation::table(&["A", "B"], &[&[1i64, 2], &[3, 4]]);
    let ws = WorldSet::single(vec![("R", r)]);
    let empty_choice = || {
        Query::rel("R")
            .select(Pred::eq_const("A", 99))
            .choice(attrs(&["A"]))
    };
    // A second dimension beside the empty choice: the worlds are
    // `R × {(1,2)}` and `R × {(3,4)}`, so nothing is certain.
    let two_dims = || {
        Query::rel("R").union(empty_choice()).product(
            Query::rel("R")
                .rename(vec![("A".into(), "C".into()), ("B".into(), "D".into())])
                .choice(attrs(&["C"])),
        )
    };
    for (q, rows) in [
        (Query::rel("R").union(empty_choice()).poss(), 2),
        (Query::rel("R").union(empty_choice()).cert(), 2),
        (Query::rel("R").difference(empty_choice()).poss(), 2),
        (empty_choice().union(Query::rel("R")).poss(), 2),
        (two_dims().poss(), 4),
        (two_dims().cert(), 0),
    ] {
        let direct = eval_named(&q, &ws, "Ans").unwrap();
        assert_eq!(direct.iter().next().unwrap().last().len(), rows, "{q}");
        let routed = run_complete(&q, &ws, "Ans")
            .expect("a 1↦1 query over one world takes the route")
            .unwrap();
        assert_eq!(routed, direct, "{q}");
    }
}
