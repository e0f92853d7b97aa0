//! B4: the exponential blow-up of repair-by-key (Proposition 4.2).
//!
//! The census relation has `v` key violations (each duplicating one SSN),
//! so `repair by key SSN` creates `2^v` worlds. Expected shape: runtime
//! doubles with each extra violation — the practical face of the NP-hardness
//! result — while the certain-answer query on a *fixed* number of repairs
//! stays polynomial in relation size.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isql::Session;
use wsa::repair::{is_three_colorable, Graph};

fn bench_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_by_key_blowup");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1500));

    for &violations in &[2usize, 4, 6, 8] {
        let census = datagen::census(11, 12, violations);
        group.bench_with_input(
            BenchmarkId::new("repairs", violations),
            &violations,
            |b, _| {
                b.iter(|| {
                    let mut s = Session::new();
                    s.register("Census", census.clone()).unwrap();
                    s.execute("select certain SSN, Name from Census repair by key SSN;")
                        .unwrap()
                });
            },
        );
    }

    // Relation size scaling at a fixed number of violations (polynomial).
    for &rows in &[10usize, 20, 40] {
        let census = datagen::census(13, rows, 3);
        group.bench_with_input(
            BenchmarkId::new("fixed_violations_rows", rows),
            &rows,
            |b, _| {
                b.iter(|| {
                    let mut s = Session::new();
                    s.register("Census", census.clone()).unwrap();
                    s.execute("select certain SSN, Name from Census repair by key SSN;")
                        .unwrap()
                });
            },
        );
    }

    // The 3-colorability reduction (guess-and-check, 3^n worlds).
    for &n in &[3usize, 4, 5] {
        let g = Graph::cycle(n);
        group.bench_with_input(BenchmarkId::new("three_coloring_cycle", n), &n, |b, _| {
            b.iter(|| is_three_colorable(&g).unwrap());
        });
    }
    group.finish();
}

/// The interpreter's row loops at statement level: the Section-2 what-if
/// (a `not in` row filter over a memoized multi-column answer, then a
/// per-group `sum`), a plain aggregate, and `repair by key` projected in
/// each of its 16 worlds. Each iteration runs `Session::execute` on a fresh
/// session over the same world-set, so kept answers never pile up.
fn bench_interp_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("interp_rows");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1500));

    let what_if = "select possible A.Year, sum(A.Price) as Revenue \
                   from (select * from Lineitem choice of Year) as A \
                   where Quantity not in (select * from Lineitem choice of Quantity) \
                   group by A.Year;";
    let legs = [
        (
            "whatif",
            400,
            "Lineitem",
            datagen::lineitem(7, 400, 3, 4),
            what_if,
        ),
        (
            "whatif",
            1600,
            "Lineitem",
            datagen::lineitem(7, 1600, 3, 4),
            what_if,
        ),
        (
            "agg",
            1600,
            "Lineitem",
            datagen::lineitem(7, 1600, 3, 4),
            "select Year, sum(Price) as Rev from Lineitem group by Year;",
        ),
        (
            "repair",
            200,
            "Census",
            datagen::census(7, 200, 4),
            "select certain SSN, Name from Census repair by key SSN;",
        ),
    ];
    for (name, rows, table, rel, sql) in legs {
        let mut base = Session::new();
        base.register(table, rel).unwrap();
        let ws = base.world_set().clone();
        group.bench_with_input(BenchmarkId::new(name, rows), &rows, |b, _| {
            b.iter(|| Session::with_world_set(ws.clone()).execute(sql).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_repair, bench_interp_rows);
criterion_main!(benches);
