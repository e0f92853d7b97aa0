//! B10: wide-scan benchmarks — projection onto one or two columns over a
//! width × rows grid of wide relations: 6 columns, whose rows sort as
//! fixed-size `[Value; 6]` chunks, and 10, whose rows sort by row index.
//! Both are stored flat, one row-major vector per relation.
//!
//! A projection drops duplicates by hashing the kept columns of each row in
//! place and writes one narrow row per distinct output; a mostly distinct
//! output sorts its narrow rows instead. It has one path at
//! every width, timed as one `_row` leg per shape.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use relalg::{attrs, Relation, Schema, Tuple, Value};

/// A deterministic wide relation with per-column domains of different sizes
/// (so dedup and distinct counts behave like real data, not like a key).
fn wide_rel(rows: usize, width: usize) -> Relation {
    let names: Vec<String> = (0..width).map(|c| format!("C{c}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    Relation::from_rows(
        Schema::of(&name_refs),
        (0..rows as i64).map(|i| {
            (0..width as i64)
                .map(|c| Value::Int((i * (11 + c * 7) + c) % (5 + c * 13)))
                .collect::<Tuple>()
        }),
    )
    .unwrap()
}

fn bench_wide_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("wide_scan");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));

    for &width in &[6usize, 10] {
        for &rows in &[2_000usize, 20_000] {
            let rel = wide_rel(rows, width);
            let two = attrs(&["C2", "C0"]);
            let one = attrs(&["C3"]);
            let tag = format!("w{width}x{rows}");

            group.bench_with_input(BenchmarkId::new("project2_row", &tag), &rows, |b, _| {
                b.iter(|| black_box(rel.project(&two).unwrap()));
            });
            group.bench_with_input(BenchmarkId::new("distinct1_row", &tag), &rows, |b, _| {
                b.iter(|| black_box(rel.distinct_values(&one).unwrap()));
            });
        }
    }

    // Statistics computation (the lazy pass the cost model triggers once
    // per relation): full per-column distinct/min/max over a wide table.
    let rows = 20_000usize;
    let rel = wide_rel(rows, 8);
    let empty = Relation::empty(rel.schema().clone());
    group.bench_with_input(BenchmarkId::new("stats_cold", rows), &rows, |b, _| {
        b.iter(|| {
            // Clones share the stats memo, so take a fresh, un-memoized
            // relation with identical content via a linear merge with ∅
            // (its cost is part of the measurement, and small next to
            // the per-column passes).
            let fresh = rel.union(&empty).unwrap();
            black_box(fresh.stats().rows)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_wide_scan);
criterion_main!(benches);
