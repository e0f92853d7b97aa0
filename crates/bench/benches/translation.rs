//! B1: three evaluation strategies for the trip-planning query
//! `cert(π_Arr(χ_Dep(HFlights)))` — the experiment the paper's conclusion
//! motivates ("the optimized translation … can provide one way to evaluate
//! such queries in any relational database engine").
//!
//! Strategies: (a) direct possible-worlds semantics (Figure 3), which
//! materializes one world per departure; (b) the general Figure-6
//! translation on an inlined representation; (c) the Section-5.3 optimized
//! translation (a division query). Expected shape: (c) < (b) ≪ (a) as the
//! number of departures grows. `complete_route/*` times the statement
//! path's whole relational route against the world-set route on 64
//! departures.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relalg::{attrs, Catalog};
use worldset::WorldSet;
use wsa::Query;
use wsa_inlined::{translate_complete, translate_opt_complete, InlinedRep};

fn trip_query() -> Query {
    Query::rel("HFlights")
        .choice(attrs(&["Dep"]))
        .project(attrs(&["Arr"]))
        .cert()
}

fn bench_translation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trip_query_strategies");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1500));

    for &n_dep in &[4usize, 8, 16, 32] {
        let flights = datagen::flights(1, n_dep, 12, 6);
        let ws = WorldSet::single(vec![("HFlights", flights.clone())]);
        let q = trip_query();

        group.bench_with_input(BenchmarkId::new("direct_worlds", n_dep), &n_dep, |b, _| {
            b.iter(|| wsa::eval_named(&q, &ws, "Ans").unwrap());
        });

        let rep = InlinedRep::single_world(vec![("HFlights", flights.clone())]);
        group.bench_with_input(
            BenchmarkId::new("general_translation", n_dep),
            &n_dep,
            |b, _| {
                b.iter(|| wsa_inlined::run_general(&q, &rep, "Ans").unwrap());
            },
        );

        let mut catalog = Catalog::new();
        catalog.put("HFlights", flights.clone());
        let base = |n: &str| catalog.schema_of(n);
        // This leg and `optimized_translation` time one full evaluation of
        // a prebuilt plan per iteration: `Catalog::eval` keeps no memo
        // across calls.
        let general_expr = translate_complete(&q, &base, &["HFlights".to_string()]).unwrap();
        group.bench_with_input(
            BenchmarkId::new("general_expr_eval", n_dep),
            &n_dep,
            |b, _| {
                b.iter(|| catalog.eval(&general_expr).unwrap());
            },
        );

        let opt_expr =
            relalg::simplify(&translate_opt_complete(&q, &base).unwrap(), &base).unwrap();
        group.bench_with_input(
            BenchmarkId::new("optimized_translation", n_dep),
            &n_dep,
            |b, _| {
                b.iter(|| catalog.eval(&opt_expr).unwrap());
            },
        );
    }

    // The statement path's two candidates for the trip query over the B16
    // `Flights` shape (64 departures): the relational route
    // (`run_complete`: translate, simplify, join-order, evaluate, append)
    // against the world-set route it replaced (`eval_named_routed`, which
    // runs this query factorized).
    let flights = datagen::flights(7, 64, 40, 12);
    let ws = WorldSet::single(vec![("HFlights", flights)]);
    let q = trip_query();
    group.bench_with_input(
        BenchmarkId::new("complete_route/relational", 64),
        &64,
        |b, _| {
            b.iter(|| wsa_inlined::run_complete(&q, &ws, "Ans").unwrap().unwrap());
        },
    );
    group.bench_with_input(
        BenchmarkId::new("complete_route/routed", 64),
        &64,
        |b, _| {
            b.iter(|| wsa::eval_named_routed(&q, &ws, "Ans").unwrap());
        },
    );
    group.finish();
}

criterion_group!(benches, bench_translation);
criterion_main!(benches);
