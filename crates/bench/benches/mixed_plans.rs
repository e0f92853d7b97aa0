//! B15: per-operator representation switching + lineage compaction.
//!
//! Three strategies on one mixed-shape query, `cert(χ ∪ χ) ∩ poss(χ)`:
//! the multiplicative `cert` operand wants the factorized representation
//! (enumeration pairs every left split with every right split), while the
//! linear `poss` tail wants enumeration (one choice, output world count =
//! input world count — the factorized side pays formula satisfiability
//! checks plus a conversion for nothing). `mixed_routed` runs the
//! [`wsa::RepPlan`]-driven evaluator that keeps the `cert` region
//! factored and the `poss` tail enumerated; `mixed_factored` /
//! `mixed_enum` are the two pure strategies. The routed leg must beat
//! both (see EXPERIMENTS.md §B15).
//!
//! The `pair_cert_compact` legs re-run B12's `pair_cert` shape (union of
//! two world-splitting operands closed by `cert`) on the strict factorized
//! entry. Lineage-formula compaction (subsumption plus single-variable
//! merging, always on) keeps the validity DNF near its model count instead
//! of its derivation count, which is what flattens the 16→64-world cost
//! curve (~14.6× per 4× worlds without it, target ≤4×).
//!
//! `merge_poss_routed` is the regression guard for the linear control
//! shape: the per-node planner must route it enumerated end-to-end, so
//! the routed entry tracks `eval_named` at parity instead of paying B12's
//! documented conversion overhead.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use relalg::{attrs, Relation, Schema, Value};
use worldset::WorldSet;
use wsa::{eval_factorized, eval_named, eval_named_routed, Query};

/// A single-column relation with `d` distinct values offset by `base`
/// (as in B12's implicit-worlds legs).
fn domain_rel(name: &str, d: i64, base: i64) -> Relation {
    Relation::from_rows(
        Schema::of(&[name]),
        (0..d).map(|i| vec![Value::Int(base + i)]),
    )
    .unwrap()
}

/// `cert(χ_Arr(ByDep) ∪ χ_Dep(F))` — the multiplicative operand.
fn cert_operand() -> Query {
    Query::rel("ByDep")
        .choice(attrs(&["Arr"]))
        .project(attrs(&["Arr"]))
        .union(
            Query::rel("F")
                .choice(attrs(&["Dep"]))
                .project(attrs(&["Arr"])),
        )
        .cert()
}

/// `poss(χ_Arr(ByDep))` — the linear operand.
fn poss_operand() -> Query {
    Query::rel("ByDep")
        .choice(attrs(&["Arr"]))
        .project(attrs(&["Arr"]))
        .poss()
}

/// A 16/64-world input: flights split by departure (as in B12).
fn split_input(worlds: usize) -> WorldSet {
    let flights = datagen::flights(7, worlds, 12, 6);
    let ws = WorldSet::single(vec![("F", flights)]);
    let by_dep = eval_named(&Query::rel("F").choice(attrs(&["Dep"])), &ws, "ByDep")
        .expect("split by departure");
    assert_eq!(by_dep.len(), worlds);
    by_dep
}

fn bench_mixed_plans(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixed_plans");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_millis(2500));

    // ---- mixed shape: three strategies ----
    let q = cert_operand().intersect(poss_operand());
    for &worlds in &[16usize, 64] {
        let ws = split_input(worlds);
        let tag = format!("{worlds}w");
        // Sanity: the planner must actually produce a mixed plan here,
        // otherwise the three legs don't measure what they claim.
        let plan = wsa::plan_query(&q, &ws);
        assert!(plan.any_f() && plan.kids[1].card == wsa::RepCard::E);

        group.bench_with_input(BenchmarkId::new("mixed_routed", &tag), &(), |b, _| {
            b.iter(|| black_box(eval_named_routed(&q, &ws, "Ans").unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("mixed_factored", &tag), &(), |b, _| {
            b.iter(|| black_box(eval_factorized(&q, &ws, "Ans").unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("mixed_enum", &tag), &(), |b, _| {
            b.iter(|| black_box(eval_named(&q, &ws, "Ans").unwrap()));
        });
    }

    // ---- mixed shape with a conversion-dominated pure-F side ----
    // `cert(χ_A(R) ∪ δ(χ_B(S))) ∩ poss(π_A(T))` over one world: R and S
    // are 32 rows each (32×32 = 1024 implicit worlds — enumeration pairs
    // them all), T is 20k rows touched only by the linear `poss` tail.
    // The pure-factorized strategy must factorize T (hash every row
    // across worlds) just to scan it; the mixed plan factorizes R and S
    // only and the enumerated tail reads T in place. This is the leg
    // where per-operator switching beats both pure strategies.
    {
        let ws = WorldSet::single(vec![
            ("R", domain_rel("A", 32, 0)),
            ("S", domain_rel("B", 32, 1_000_000)),
            ("T", domain_rel("A", 20_000, 0)),
        ]);
        let op1 = Query::rel("R")
            .choice(attrs(&["A"]))
            .union(
                Query::rel("S")
                    .choice(attrs(&["B"]))
                    .rename(vec![("B".into(), "A".into())]),
            )
            .cert();
        let op2 = Query::rel("T").project(attrs(&["A"])).poss();
        let q = op1.intersect(op2);
        let plan = wsa::plan_query(&q, &ws);
        assert!(plan.any_f() && plan.kids[1].card == wsa::RepCard::E);
        group.bench_with_input(BenchmarkId::new("bigtail_routed", "1w"), &(), |b, _| {
            b.iter(|| black_box(eval_named_routed(&q, &ws, "Ans").unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("bigtail_factored", "1w"), &(), |b, _| {
            b.iter(|| black_box(eval_factorized(&q, &ws, "Ans").unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("bigtail_enum", "1w"), &(), |b, _| {
            b.iter(|| black_box(eval_named(&q, &ws, "Ans").unwrap()));
        });
    }

    // ---- lineage compaction on B12's pair_cert shape ----
    let pair = cert_operand();
    for &worlds in &[16usize, 64] {
        let ws = split_input(worlds);
        let tag = format!("{worlds}w");
        group.bench_with_input(BenchmarkId::new("pair_cert_compact", &tag), &(), |b, _| {
            b.iter(|| black_box(eval_factorized(&pair, &ws, "Ans").unwrap()));
        });
    }

    // ---- linear control shape through the routed entry ----
    let merge = Query::rel("ByDep").choice(attrs(&["Arr"])).poss();
    for &worlds in &[16usize, 64] {
        let ws = split_input(worlds);
        let tag = format!("{worlds}w");
        group.bench_with_input(BenchmarkId::new("merge_poss_routed", &tag), &(), |b, _| {
            b.iter(|| black_box(eval_named_routed(&merge, &ws, "Ans").unwrap()));
        });
    }

    group.finish();
}

criterion_group!(benches, bench_mixed_plans);
criterion_main!(benches);
