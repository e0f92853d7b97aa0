//! Machine verification of the Figure-7 equivalences (E9 in DESIGN.md).
//!
//! Every implemented rule is checked against the direct Figure-3 semantics
//! on randomized world-sets. The printed forms of Eqs (9), (18) and (20)
//! are *unsound* in general; the counterexample tests below document the
//! failures and the side conditions under which the implemented rules fire.

use datagen::{random_world_set, RandomSpec};
use proptest::prelude::*;
use relalg::{attrs, Pred};
use worldset::{World, WorldSet};
use wsa::{eval_named, Query};

/// Evaluate both queries on `ws` and compare the resulting world-sets.
fn equivalent(a: &Query, b: &Query, ws: &WorldSet) -> bool {
    let ra = eval_named(a, ws, "Ans");
    let rb = eval_named(b, ws, "Ans");
    match (ra, rb) {
        (Ok(x), Ok(y)) => x == y,
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

fn assert_equiv(a: Query, b: Query, ws: &WorldSet) {
    let ra = eval_named(&a, ws, "Ans").unwrap();
    let rb = eval_named(&b, ws, "Ans").unwrap();
    assert_eq!(ra, rb, "{a}  ≠  {b}\non {ws}");
}

fn spec_single() -> RandomSpec {
    RandomSpec {
        schemas: vec![vec!["A", "B"], vec!["C", "D"]],
        worlds: 1,
        max_tuples: 5,
        domain: 3,
    }
}

fn spec_multi() -> RandomSpec {
    RandomSpec {
        schemas: vec![vec!["A", "B"], vec!["C", "D"]],
        worlds: 4,
        max_tuples: 4,
        domain: 3,
    }
}

// A world-splitting subquery to exercise the rules below world-set
// machinery: χ_A(R0).
fn split() -> Query {
    Query::rel("R0").choice(attrs(&["A"]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- Commute rules, sound on arbitrary world-sets ----

    #[test]
    fn eq1_poss_select(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        let phi = Pred::eq_const("A", 1);
        assert_equiv(
            split().select(phi.clone()).poss(),
            Query::Select(phi, Box::new(split().poss())),
            &ws,
        );
    }

    #[test]
    fn eq2_poss_project(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            split().project(attrs(&["B"])).poss(),
            split().poss().project(attrs(&["B"])),
            &ws,
        );
    }

    #[test]
    fn eq3_poss_union(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            split().union(Query::rel("R0")).poss(),
            split().poss().union(Query::rel("R0").poss()),
            &ws,
        );
    }

    #[test]
    fn eq4_cert_select(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        let phi = Pred::eq_const("B", 2);
        assert_equiv(
            split().select(phi.clone()).cert(),
            Query::Select(phi, Box::new(split().cert())),
            &ws,
        );
    }

    #[test]
    fn eq5_cert_intersect(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            split().intersect(Query::rel("R0")).cert(),
            split().cert().intersect(Query::rel("R0").cert()),
            &ws,
        );
    }

    #[test]
    fn eq6_cert_product(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            split().product(Query::rel("R1")).cert(),
            split().cert().product(Query::rel("R1").cert()),
            &ws,
        );
    }

    #[test]
    fn eq7_project_choice(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            Query::rel("R0").choice(attrs(&["A"])).project(attrs(&["A", "B"])),
            Query::rel("R0").project(attrs(&["A", "B"])).choice(attrs(&["A"])),
            &ws,
        );
    }

    #[test]
    fn eq8_choice_product(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            Query::rel("R0").choice(attrs(&["A"])).product(Query::rel("R1")),
            Query::rel("R0").product(Query::rel("R1")).choice(attrs(&["A"])),
            &ws,
        );
    }

    // ---- Reduce rules ----

    #[test]
    fn eq11_poss_choice(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(split().choice(attrs(&["B"])).poss(), split().poss(), &ws);
    }

    #[test]
    fn eq12_group_proj_in_group(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            split().poss_group(attrs(&["A", "B"]), attrs(&["A"])),
            split().project(attrs(&["A"])),
            &ws,
        );
        assert_equiv(
            split().cert_group(attrs(&["A", "B"]), attrs(&["A"])),
            split().project(attrs(&["A"])),
            &ws,
        );
    }

    #[test]
    fn eq13_project_collapses_group(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            split()
                .poss_group(attrs(&["A"]), attrs(&["A", "B"]))
                .project(attrs(&["A"])),
            split().project(attrs(&["A"])),
            &ws,
        );
    }

    #[test]
    fn eq14_project_absorbed_by_group(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            split()
                .poss_group(attrs(&["A"]), attrs(&["A", "B"]))
                .project(attrs(&["B"])),
            split().poss_group(attrs(&["A"]), attrs(&["B"])),
            &ws,
        );
    }

    #[test]
    fn eq15_poss_group(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            split().poss_group(attrs(&["A"]), attrs(&["B"])).poss(),
            split().project(attrs(&["B"])).poss(),
            &ws,
        );
    }

    #[test]
    fn eq16_cert_group(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            split().cert_group(attrs(&["A"]), attrs(&["B"])).cert(),
            split().project(attrs(&["B"])).cert(),
            &ws,
        );
    }

    #[test]
    fn eq17_choice_fusion(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            Query::rel("R0").choice(attrs(&["A"])).choice(attrs(&["B"])),
            Query::rel("R0").choice(attrs(&["A", "B"])),
            &ws,
        );
        // Commutation of nested choices.
        assert_equiv(
            Query::rel("R0").choice(attrs(&["A"])).choice(attrs(&["B"])),
            Query::rel("R0").choice(attrs(&["B"])).choice(attrs(&["A"])),
            &ws,
        );
    }

    #[test]
    fn eq18_corrected_nested_groups(seed in any::<u64>()) {
        // pγ^Y_X(pγ^{X∪Z}_X(q)) = pγ^Y_X(q) — same grouping attributes.
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            split()
                .poss_group(attrs(&["A"]), attrs(&["A", "B"]))
                .poss_group(attrs(&["A"]), attrs(&["B"])),
            split().poss_group(attrs(&["A"]), attrs(&["B"])),
            &ws,
        );
        // cγ outer over pγ inner with equal groups also collapses.
        assert_equiv(
            split()
                .poss_group(attrs(&["A"]), attrs(&["A", "B"]))
                .cert_group(attrs(&["A"]), attrs(&["B"])),
            split().poss_group(attrs(&["A"]), attrs(&["B"])),
            &ws,
        );
    }

    #[test]
    fn eq20_group_over_choice_uniform_operand(seed in any::<u64>()) {
        // pγ^Y_X(χ_C(q)) = π_Y(χ_X(q)) with X ⊆ C, on a complete database
        // (uniform operand answer).
        let ws = random_world_set(seed, &spec_single());
        assert_equiv(
            Query::rel("R0")
                .choice(attrs(&["A", "B"]))
                .poss_group(attrs(&["A"]), attrs(&["A", "B"])),
            Query::rel("R0")
                .choice(attrs(&["A"]))
                .project(attrs(&["A", "B"])),
            &ws,
        );
    }

    #[test]
    fn eq21_corrected_group_on_full_schema(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            split().cert_group(attrs(&["A", "B"]), attrs(&["B"])),
            split().project(attrs(&["B"])),
            &ws,
        );
    }

    #[test]
    fn eq22_eq23_closure_idempotence(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(split().cert().poss(), split().cert(), &ws);
        assert_equiv(split().cert().cert(), split().cert(), &ws);
        assert_equiv(split().poss().poss(), split().poss(), &ws);
        assert_equiv(split().poss().cert(), split().poss(), &ws);
    }

    #[test]
    fn eq24_cert_difference(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_multi());
        assert_equiv(
            split().difference(Query::rel("R0")).cert(),
            split().cert().difference(Query::rel("R0")).cert(),
            &ws,
        );
    }

    #[test]
    fn prop_6_3_cert_from_poss_and_difference(seed in any::<u64>()) {
        // cert(Q) = Q − poss(poss(Q) − Q)   (Proposition 6.3, Eq (25)).
        let ws = random_world_set(seed, &spec_multi());
        let q = split();
        let lhs = q.clone().cert();
        let rhs = q.clone().difference(q.clone().poss().difference(q).poss());
        assert_equiv(lhs, rhs, &ws);
    }

    // ---- The optimizer only produces equivalent plans ----

    // End-to-end oracle: optimize() (with real cardinalities, so the
    // cost-based rules fire) followed by the general translation route
    // through `Catalog` must agree with the unrewritten direct Figure-3
    // semantics, with the plan/result caches on and off.
    #[test]
    fn optimize_then_translate_matches_unrewritten_oracle(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_single());
        let world = ws.iter().next().expect("single world");
        let rep = wsa_inlined::InlinedRep::single_world(vec![
            ("R0", world.rel(0).clone()),
            ("R1", world.rel(1).clone()),
        ]);
        let base = |n: &str| match n {
            "R0" => Some(relalg::Schema::of(&["A", "B"])),
            "R1" => Some(relalg::Schema::of(&["C", "D"])),
            _ => None,
        };
        let cards = |n: &str| match n {
            "R0" => Some(world.rel(0).len() as u64),
            "R1" => Some(world.rel(1).len() as u64),
            _ => None,
        };
        let ctx = wsa_rewrite::RewriteCtx::new(&base).with_cards(&cards);
        let candidates = vec![
            // Selection over a product with single-side and cross-side
            // conjuncts (pushdown + join formation under cert).
            Query::rel("R0")
                .product(Query::rel("R1"))
                .select(Pred::eq_const("A", 1).and(Pred::eq_attr("B", "C")))
                .choice(attrs(&["A", "C"]))
                .project(attrs(&["C"]))
                .cert(),
            // Projection through poss over a product chain (reassociation
            // + projection pushdown).
            Query::rel("R0")
                .product(Query::rel("R1"))
                .choice(attrs(&["A"]))
                .project(attrs(&["B", "D"]))
                .poss(),
            // Grouping over choice (the uniformity-conditioned reductions).
            Query::rel("R0")
                .choice(attrs(&["A", "B"]))
                .poss_group(attrs(&["A"]), attrs(&["A", "B"]))
                .select(Pred::eq_const("A", 2))
                .cert(),
        ];
        for q in candidates {
            let oracle = eval_named(&q, &ws, "Ans").unwrap();
            let opt = wsa_rewrite::optimize(&q, &ctx);
            prop_assert_eq!(
                &eval_named(&opt, &ws, "Ans").unwrap(),
                &oracle,
                "direct semantics diverge: {} vs {}",
                q,
                opt
            );
            for rewrite_on in [true, false] {
                let mut cfg = relalg::config::SessionConfig::new();
                cfg.set("rewrite", if rewrite_on { "on" } else { "off" }).unwrap();
                let got = {
                    let _g = relalg::config::overlay(&cfg);
                    wsa_inlined::run_general(&q, &rep, "Ans").unwrap()
                };
                prop_assert_eq!(
                    &got,
                    &oracle,
                    "translation route diverges for {} (rewrite={})",
                    q,
                    rewrite_on
                );
            }
        }
    }

    #[test]
    fn optimizer_preserves_semantics(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec_single());
        let base = |n: &str| match n {
            "R0" => Some(relalg::Schema::of(&["A", "B"])),
            "R1" => Some(relalg::Schema::of(&["C", "D"])),
            _ => None,
        };
        let ctx = wsa_rewrite::RewriteCtx::new(&base);
        let candidates = vec![
            Query::rel("R0")
                .product(Query::rel("R1"))
                .choice(attrs(&["A", "C"]))
                .poss_group(attrs(&["A"]), attrs(&["A", "B", "C", "D"]))
                .select(Pred::eq_attr("B", "C"))
                .project(attrs(&["C"]))
                .cert(),
            Query::rel("R0")
                .choice(attrs(&["A"]))
                .project(attrs(&["B"]))
                .poss(),
            Query::rel("R0")
                .choice(attrs(&["A"]))
                .choice(attrs(&["B"]))
                .cert(),
        ];
        for q in candidates {
            let opt = wsa_rewrite::optimize(&q, &ctx);
            prop_assert!(equivalent(&q, &opt, &ws), "{q} vs {opt}");
        }
    }
}

// ---- Documented errata: the printed forms fail on concrete inputs ----

/// Eq (9) as printed — `σφ(pγ^V_U(q)) = pγ^V_U(σφ(q))` with
/// `Attrs(φ) ⊆ U ∩ V` — is unsound: the selection can merge grouping keys
/// on the right-hand side only.
#[test]
fn eq9_printed_form_counterexample() {
    // Worlds with answers {(a,1)} and {(a,5),(b,2)} under U={A}, V={A,B},
    // φ=(A=a): keys {a} vs {a,b} differ, but after σ both keys are {a}.
    let mk = |rows: &[&[i64]]| World::new(vec![relalg::Relation::table(&["A", "B"], rows)]);
    let ws = WorldSet::from_worlds(
        vec!["R0".into()],
        vec![mk(&[&[7, 1]]), mk(&[&[7, 5], &[8, 2]])],
    )
    .unwrap();
    let phi = Pred::eq_const("A", 7);
    let lhs = Query::rel("R0")
        .poss_group(attrs(&["A"]), attrs(&["A", "B"]))
        .select(phi.clone());
    let rhs = Query::rel("R0")
        .select(phi)
        .poss_group(attrs(&["A"]), attrs(&["A", "B"]));
    assert!(
        !equivalent(&lhs, &rhs, &ws),
        "expected the printed Eq (9) to fail on this input"
    );
}

/// Eq (18) as printed — nested pγ with *different* grouping sets — is
/// unsound: the outer (coarser) grouping can merge inner groups.
#[test]
fn eq18_printed_form_counterexample() {
    // Inner pγ^{A,B}_{A,C} over χ-split worlds; outer pγ^B_A merges the two
    // inner groups that agree on π_A.
    let r = relalg::Relation::table(&["A", "B", "C"], &[&[1i64, 10, 100], &[1, 20, 200]]);
    let ws = WorldSet::single(vec![("R", r)]);
    let q = Query::rel("R").choice(attrs(&["A", "B", "C"]));
    let lhs = q
        .clone()
        .poss_group(attrs(&["A", "C"]), attrs(&["A", "B"]))
        .poss_group(attrs(&["A"]), attrs(&["B"]));
    let rhs = q.poss_group(attrs(&["A", "C"]), attrs(&["B"]));
    assert!(
        !equivalent(&lhs, &rhs, &ws),
        "expected the printed Eq (18) to fail on this input"
    );
}

/// Eq (20) needs the uniform-operand side condition: with a world-splitting
/// operator *below* the χ, the group-worlds-by merges answers across source
/// worlds while `π_Y(χ_X(·))` does not.
#[test]
fn eq20_needs_uniform_operand_counterexample() {
    let r = relalg::Relation::table(&["A", "B"], &[&[1i64, 10], &[1, 20]]);
    let ws = WorldSet::single(vec![("R", r)]);
    let inner = Query::rel("R").choice(attrs(&["B"])); // non-uniform operand
    let lhs = inner
        .clone()
        .choice(attrs(&["A", "B"]))
        .poss_group(attrs(&["A"]), attrs(&["A", "B"]));
    let rhs = inner.choice(attrs(&["A"])).project(attrs(&["A", "B"]));
    assert!(
        !equivalent(&lhs, &rhs, &ws),
        "expected Eq (20) without the uniformity condition to fail"
    );
}

/// Eq (21) as printed — `cγ^Y_X(χ_{X∪Y∪Z}(q)) = π_Y(χ_{X∪Y∪Z}(q))` — fails
/// already on a two-tuple relation: worlds with the same X-value but
/// different Y-values land in one group whose intersection is empty.
#[test]
fn eq21_printed_form_counterexample() {
    let r = relalg::Relation::table(&["A", "B"], &[&[1i64, 10], &[1, 20]]);
    let ws = WorldSet::single(vec![("R", r)]);
    let lhs = Query::rel("R")
        .choice(attrs(&["A", "B"]))
        .cert_group(attrs(&["A"]), attrs(&["B"]));
    let rhs = Query::rel("R")
        .choice(attrs(&["A", "B"]))
        .project(attrs(&["B"]));
    assert!(
        !equivalent(&lhs, &rhs, &ws),
        "expected the printed Eq (21) to fail on this input"
    );
}
