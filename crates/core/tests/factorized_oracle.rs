//! Equivalence oracle for the factorized engine: on every input and
//! query shape covered here, [`wsa::eval_factorized`] must return a
//! world-set **byte-identical** to the enumerated Figure-3 reference
//! ([`wsa::eval_named`]) — and so must the routed entry wherever the
//! planner factorizes, including over a proptest sweep of random choice
//! nestings.
//!
//! The factorized path has no approximation license: it either produces
//! the exact reference answer or reports a budget error (on which the
//! routed entry falls back to the reference evaluator wholesale).

use datagen::{random_query, random_world_set, QuerySpec, RandomSpec};
use proptest::prelude::*;
use relalg::{attrs, Pred, Relation};
use worldset::{World, WorldSet};
use wsa::{
    eval_factorized, eval_named, eval_named_routed, eval_planned, plan_query, Query, RepCard,
};

/// Render covers world order, relation order and every tuple: equal
/// renders mean byte-identical world-sets (and `assert_eq!` on the value
/// pins structural equality on top).
fn render(ws: &WorldSet) -> String {
    format!("{}worlds={}", ws.render(), ws.len())
}

/// The oracle: factorized output must equal the enumerated reference.
fn assert_factorized_matches(q: &Query, ws: &WorldSet) {
    let reference = eval_named(q, ws, "Ans").expect("reference evaluator");
    let fact = eval_factorized(q, ws, "Ans").expect("factorized evaluator");
    assert_eq!(fact, reference, "diverged on {q}");
    assert_eq!(render(&fact), render(&reference), "render diverged on {q}");
}

const SEEDS: [u64; 4] = [3, 11, 23, 47];

/// A multi-world input: flights split by departure (a handful of worlds,
/// so the enumerated side stays cheap enough to act as oracle).
fn split_worlds(seed: u64) -> WorldSet {
    let flights = datagen::flights(seed, 12, 6, 5);
    let ws = WorldSet::single(vec![("F", flights)]);
    eval_named(&Query::rel("F").choice(attrs(&["Dep"])), &ws, "ByDep").expect("split")
}

#[test]
fn choice_chains_match_enumerated() {
    for seed in SEEDS {
        let flights = datagen::flights(seed, 12, 6, 5);
        let ws = WorldSet::single(vec![("F", flights)]);
        assert_factorized_matches(&Query::rel("F").choice(attrs(&["Dep"])), &ws);
        assert_factorized_matches(
            &Query::rel("F")
                .choice(attrs(&["Dep"]))
                .choice(attrs(&["Arr"])),
            &ws,
        );
        assert_factorized_matches(
            &Query::rel("F")
                .choice(attrs(&["Dep"]))
                .select(Pred::ne_attr("Dep", "Arr"))
                .project(attrs(&["Arr"]))
                .choice(attrs(&["Arr"])),
            &ws,
        );
    }
}

#[test]
fn poss_cert_match_enumerated() {
    for seed in SEEDS {
        let ws = split_worlds(seed);
        for q in [
            Query::rel("ByDep").project(attrs(&["Arr"])).poss(),
            Query::rel("ByDep").project(attrs(&["Arr"])).cert(),
            Query::rel("ByDep").choice(attrs(&["Arr"])).poss(),
            Query::rel("ByDep").choice(attrs(&["Arr"])).cert(),
        ] {
            assert_factorized_matches(&q, &ws);
        }
    }
}

#[test]
fn binary_operators_match_enumerated() {
    for seed in SEEDS {
        let ws = split_worlds(seed);
        let left = Query::rel("ByDep").project(attrs(&["Arr"]));
        let plain = Query::rel("F").project(attrs(&["Arr"]));
        // Choices on one or both operands; all four set operations.
        let choice_right = Query::rel("F")
            .choice(attrs(&["Arr"]))
            .project(attrs(&["Arr"]));
        for q in [
            left.clone().union(plain.clone()),
            left.clone().intersect(plain.clone()),
            left.clone().difference(plain.clone()),
            plain.clone().difference(left.clone()),
            left.clone().union(choice_right.clone()),
            left.clone().intersect(choice_right.clone()),
            left.clone().difference(choice_right.clone()),
            left.clone().product(
                choice_right
                    .clone()
                    .rename(vec![("Arr".into(), "Arr2".into())]),
            ),
        ] {
            assert_factorized_matches(&q, &ws);
        }
    }
}

#[test]
fn decode_boundaries_match_enumerated() {
    for seed in SEEDS {
        let ws = split_worlds(seed);
        for q in [
            Query::rel("ByDep").poss_group(attrs(&["Arr"]), attrs(&["Dep", "Arr"])),
            Query::rel("ByDep").cert_group(attrs(&["Arr"]), attrs(&["Arr"])),
            Query::rel("ByDep")
                .choice(attrs(&["Arr"]))
                .poss_group(attrs(&["Arr"]), attrs(&["Arr"])),
            // Continue *past* the boundary: the branch re-enters
            // enumerated evaluation and stays there.
            Query::rel("ByDep")
                .choice(attrs(&["Arr"]))
                .cert_group(attrs(&["Arr"]), attrs(&["Arr"]))
                .poss(),
        ] {
            assert_factorized_matches(&q, &ws);
        }
    }
}

#[test]
fn repair_by_key_matches_enumerated() {
    for seed in SEEDS {
        let census = datagen::census(seed, 8, 3);
        let ws = WorldSet::single(vec![("C", census)]);
        assert_factorized_matches(&Query::rel("C").repair_by_key(attrs(&["SSN"])), &ws);
        assert_factorized_matches(
            &Query::rel("C")
                .repair_by_key(attrs(&["SSN"]))
                .choice(attrs(&["SSN"]))
                .cert(),
            &ws,
        );
    }
}

/// A multi-world base whose splitting factors the planner can steer on:
/// `wc` worlds share `T` (with `groups` distinct keys) and differ only in
/// a one-row marker table `M`.
fn multi(wc: usize, groups: i64) -> WorldSet {
    let rows: Vec<Vec<i64>> = (0..groups).map(|k| vec![k, k % 3]).collect();
    let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
    let t = Relation::table(&["K", "V"], &refs);
    let worlds: Vec<World> = (0..wc)
        .map(|i| World::new(vec![t.clone(), Relation::table(&["M"], &[&[i as i64]])]))
        .collect();
    WorldSet::from_worlds(vec!["T".to_string(), "M".to_string()], worlds).unwrap()
}

/// The planned (mixed-representation) evaluator against the enumerated
/// reference.
fn assert_planned_matches(q: &Query, ws: &WorldSet) {
    let plan = plan_query(q, ws);
    let reference = eval_named(q, ws, "Ans").expect("reference evaluator");
    let planned = eval_planned(q, ws, "Ans", &plan).expect("planned evaluator");
    assert_eq!(planned, reference, "diverged on {q}");
    assert_eq!(
        render(&planned),
        render(&reference),
        "render diverged on {q}"
    );
}

#[test]
fn mixed_plans_match_enumerated() {
    // The B15 shape: a union of two choices squares the split (stays
    // factored, converts at its `cert`), while the single-choice `poss`
    // tail runs enumerated end-to-end — one plan, both representations.
    let ws = multi(4, 8);
    let op1 = Query::rel("T")
        .choice(attrs(&["K"]))
        .project(attrs(&["V"]))
        .union(Query::rel("T").choice(attrs(&["V"])).project(attrs(&["V"])))
        .cert();
    let op2 = Query::rel("T")
        .choice(attrs(&["K"]))
        .project(attrs(&["V"]))
        .poss();
    let q = op1.clone().intersect(op2.clone());
    let plan = plan_query(&q, &ws);
    assert!(plan.any_f(), "plan must keep a factored region");
    assert_eq!(plan.kids[0].card, RepCard::Convert, "F→E switch at cert");
    assert_eq!(
        plan.kids[1].card,
        RepCard::E,
        "linear tail stays enumerated"
    );
    assert_planned_matches(&q, &ws);
    // Both forced-switch directions in isolation: the factored region
    // alone (expansion forced at the root)…
    assert_planned_matches(&op1, &ws);
    // …and past a decode boundary, where the collapsing region below is
    // factored but the grouped merge re-enters enumeration (F→E at `cγ`).
    let boundary = op1.cert_group(attrs(&["V"]), attrs(&["V"]));
    let plan = plan_query(&boundary, &ws);
    assert_eq!(plan.card, RepCard::E, "decode boundary always enumerated");
    assert_eq!(
        plan.kids[0].card,
        RepCard::Convert,
        "subtree expands below it"
    );
    assert_planned_matches(&boundary, &ws);
}

#[test]
fn linear_merges_route_enumerated() {
    // The B12 `merge_poss` regression: a linear choice→project→poss tail
    // gains nothing from factorizing, so the per-node chooser must leave
    // the whole plan enumerated and the routed entry must delegate
    // wholesale (zero conversion overhead, byte-identical output).
    let ws = multi(4, 8);
    let q = Query::rel("T")
        .choice(attrs(&["K"]))
        .project(attrs(&["V"]))
        .poss();
    let plan = plan_query(&q, &ws);
    assert!(!plan.any_f(), "linear merge tails must not factorize");
    let reference = eval_named(&q, &ws, "Ans").expect("reference");
    let routed = eval_named_routed(&q, &ws, "Ans").expect("routed");
    assert_eq!(render(&routed), render(&reference));
}

#[test]
fn routed_agrees_under_both_toggle_positions() {
    for seed in SEEDS {
        let flights = datagen::flights(seed, 16, 8, 6);
        let ws = WorldSet::single(vec![("F", flights)]);
        // Enough implicit worlds that the chooser fires: the routed entry
        // runs the factored plan, which must match the reference.
        let q = Query::rel("F")
            .choice(attrs(&["Dep"]))
            .choice(attrs(&["Arr"]))
            .project(attrs(&["Arr"]))
            .poss();
        assert!(
            plan_query(&q, &ws).any_f(),
            "seed {seed}: the planner factorizes"
        );
        let reference = eval_named(&q, &ws, "Ans").expect("reference");
        let routed = eval_named_routed(&q, &ws, "Ans").expect("routed");
        assert_eq!(routed, reference, "seed {seed}: routed diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random well-typed queries (choice nestings, set operations,
    /// grouped merges) over random world-sets: wherever the strict
    /// factorized evaluator succeeds it must match the reference, and the
    /// routed entry must *always* match it (fallback included).
    #[test]
    fn random_choice_nestings_agree(seed in any::<u64>()) {
        let ws = random_world_set(seed, &RandomSpec {
            schemas: vec![vec!["A", "B"], vec!["C", "D"]],
            worlds: 3,
            max_tuples: 5,
            domain: 4,
        });
        let q = random_query(seed, &QuerySpec::default());
        let reference = eval_named(&q, &ws, "Ans");
        match (&reference, eval_factorized(&q, &ws, "Ans")) {
            (Ok(r), Ok(f)) => {
                prop_assert_eq!(&f, r, "factorized diverged on {} (seed {})", q, seed);
                prop_assert_eq!(render(&f), render(r), "render diverged on {} (seed {})", q, seed);
            }
            // A budget overflow is an allowed outcome — the router falls
            // back — but succeeding where the reference errors is not.
            (Ok(_), Err(_)) | (Err(_), Err(_)) => {}
            (Err(e), Ok(_)) => prop_assert!(false, "factorized succeeded where reference failed ({e}) on {} (seed {})", q, seed),
        }
        let routed = eval_named_routed(&q, &ws, "Ans");
        match (reference, routed) {
            (Ok(r), Ok(o)) => prop_assert_eq!(o, r, "routed diverged on {} (seed {})", q, seed),
            (Err(_), Err(_)) => {}
            (r, o) => prop_assert!(false, "routed outcome mismatch on {} (seed {}): reference {:?} vs routed {:?}", q, seed, r.is_ok(), o.is_ok()),
        }
    }
}
