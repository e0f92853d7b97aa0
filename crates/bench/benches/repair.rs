//! B4: the exponential blow-up of repair-by-key (Proposition 4.2).
//!
//! The census relation has `v` key violations (each duplicating one SSN),
//! so `repair by key SSN` creates `2^v` worlds. The certain-answer
//! statement is key-local, so the statement path runs it as one relational
//! plan (a group-wise division) without listing a repair: `repairs/v` and
//! `fixed_violations_rows/n` stay flat in `v` and grow with the relation.
//! `repairs_enumerated/v` runs the same statement with `set local rewrite =
//! off;`, on the interpreter, which builds every repair: its runtime
//! doubles with each extra violation — the practical face of the
//! NP-hardness result — and so does the 3-colorability reduction, whose
//! repaired relation meets itself.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isql::Session;
use wsa::repair::{is_three_colorable, Graph};

fn bench_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_by_key_blowup");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1500));

    for (leg, prelude) in [
        ("repairs", ""),
        ("repairs_enumerated", "set local rewrite = off;"),
    ] {
        for &violations in &[2usize, 4, 6, 8] {
            let census = datagen::census(11, 12, violations);
            let sql = format!("{prelude}select certain SSN, Name from Census repair by key SSN;");
            group.bench_with_input(BenchmarkId::new(leg, violations), &violations, |b, _| {
                b.iter(|| {
                    let mut s = Session::new();
                    s.register("Census", census.clone()).unwrap();
                    s.execute(&sql).unwrap()
                });
            });
        }
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

/// Statement-level legs named for the interpreter's row loops they once
/// timed: the Section-2 what-if, whose `group by` and `not in` now compile
/// to `γ` and an antijoin and run as one relational plan (the sum is taken
/// per quantity and year before the product with the world table), a plain
/// aggregate, which has no world construct and runs as its relational plan
/// too (`agg`; `agg_interp` is the same statement under
/// `set local rewrite = off`, on the interpreter), and B16's `repair`
/// statement, whose key-local `certain` runs as one relational plan rather
/// than over its 16 worlds. Each iteration runs `Session::execute` on a
/// fresh copy of one session, so kept answers never pile up.
fn bench_interp_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("interp_rows");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1500));

    let what_if = "select possible A.Year, sum(A.Price) as Revenue \
                   from (select * from Lineitem choice of Year) as A \
                   where Quantity not in (select * from Lineitem choice of Quantity) \
                   group by A.Year;";
    let agg = "select Year, sum(Price) as Rev from Lineitem group by Year;";
    let legs = [
        (
            "whatif",
            400,
            "Lineitem",
            datagen::lineitem(7, 400, 3, 4),
            what_if,
            "default",
        ),
        (
            "whatif",
            1600,
            "Lineitem",
            datagen::lineitem(7, 1600, 3, 4),
            what_if,
            "default",
        ),
        (
            "agg",
            1600,
            "Lineitem",
            datagen::lineitem(7, 1600, 3, 4),
            agg,
            "default",
        ),
        (
            "agg_interp",
            1600,
            "Lineitem",
            datagen::lineitem(7, 1600, 3, 4),
            agg,
            "off",
        ),
        (
            "repair",
            200,
            "Census",
            datagen::census(7, 200, 4),
            "select certain SSN, Name from Census repair by key SSN;",
            "default",
        ),
    ];
    for (name, rows, table, rel, sql, rewrite) in legs {
        let mut base = Session::new();
        base.register(table, rel).unwrap();
        base.execute(&format!("set local rewrite = {rewrite};"))
            .unwrap();
        group.bench_with_input(BenchmarkId::new(name, rows), &rows, |b, _| {
            b.iter(|| base.clone().execute(sql).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_repair, bench_interp_rows);
criterion_main!(benches);
