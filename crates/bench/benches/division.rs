//! B3: the three formulations of the trip-planning query from Section 2 —
//! I-SQL with choice-of/certain, relational division, and the
//! double-NOT-EXISTS SQL simulation. The paper argues I-SQL is the most
//! *concise*; this bench shows what each costs to execute in this engine.
//! Expected shape: native division is fastest, and fastest of all on the
//! stored column order (`stored_order`); the nested NOT-EXISTS simulation
//! is quadratic-ish and falls behind as flights grow.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isql::Session;
use relalg::attrs;

fn bench_division(c: &mut Criterion) {
    let mut group = c.benchmark_group("division_formulations");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1500));

    for &n_dep in &[4usize, 8, 16] {
        let flights = datagen::flights(5, n_dep, 10, 6);

        group.bench_with_input(
            BenchmarkId::new("isql_choice_cert", n_dep),
            &n_dep,
            |b, _| {
                b.iter(|| {
                    let mut s = Session::new();
                    s.register("HFlights", flights.clone()).unwrap();
                    s.execute("select certain Arr from HFlights choice of Dep;")
                        .unwrap()
                });
            },
        );

        group.bench_with_input(
            BenchmarkId::new("native_division", n_dep),
            &n_dep,
            |b, _| {
                b.iter(|| {
                    flights
                        .project(&attrs(&["Arr", "Dep"]))
                        .unwrap()
                        .divide(&flights.project(&attrs(&["Dep"])).unwrap())
                        .unwrap()
                });
            },
        );

        // The same division without the column swap: `Flights(Dep, Arr)`
        // is stored sorted by departure, so `÷` merges `π{Dep}` against its
        // runs and `π{Dep}` streams — what the trip plan evaluates to.
        group.bench_with_input(BenchmarkId::new("stored_order", n_dep), &n_dep, |b, _| {
            b.iter(|| {
                flights
                    .divide(&flights.project(&attrs(&["Dep"])).unwrap())
                    .unwrap()
            });
        });

        group.bench_with_input(
            BenchmarkId::new("double_not_exists", n_dep),
            &n_dep,
            |b, _| {
                b.iter(|| {
                    let mut s = Session::new();
                    s.register("HFlights", flights.clone()).unwrap();
                    s.execute(
                        "select Arr from HFlights F1 \
                         where not exists \
                           (select * from HFlights F2 \
                            where not exists \
                              (select * from HFlights F3 \
                               where F3.Dep = F2.Dep and F3.Arr = F1.Arr));",
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_division);
criterion_main!(benches);
