//! B7: micro-benchmarks of the tuple storage layer — the operations the
//! sorted-vec + interned-value layout is designed to accelerate. `product`
//! and the no-equi-conjunct theta path emit in sorted order (no per-tuple
//! log-factor insert), the set operations are linear merges over sorted
//! vecs, division groups with one sort instead of per-key sets, and string
//! comparison is an O(1) word compare on interned symbols. A renaming
//! shares its input's tuples, and narrow projections and grouping build
//! one tuple per output row, not per input row.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use relalg::{
    attr, attrs, AggCall, AggFn, CmpOp, Operand, Pred, Relation, RelationBuilder, Schema, Value,
};

fn int_rel(names: &[&str], n: usize, stride: usize) -> Relation {
    let width = names.len();
    Relation::from_rows(
        Schema::of(names),
        (0..n).map(|i| {
            (0..width)
                .map(|c| Value::Int((i * stride + c) as i64))
                .collect::<relalg::Tuple>()
        }),
    )
    .unwrap()
}

fn bench_tuple_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("tuple_layout");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));

    for &n in &[64usize, 256] {
        let l = int_rel(&["A", "B"], n, 2);
        let r = int_rel(&["C", "D"], n, 3);
        group.bench_with_input(BenchmarkId::new("product", n), &n, |b, _| {
            b.iter(|| black_box(l.product(&r).unwrap()));
        });

        // No equi-conjunct: the streamed sorted-output theta path.
        let range_pred = Pred::cmp(
            Operand::Attr(attr("B")),
            CmpOp::Lt,
            Operand::Attr(attr("D")),
        );
        group.bench_with_input(BenchmarkId::new("theta_no_equi", n), &n, |b, _| {
            b.iter(|| black_box(l.theta_join(&r, &range_pred).unwrap()));
        });
    }

    for &n in &[1_000usize, 10_000] {
        // Half-overlapping operands: every merge branch exercised.
        let a = int_rel(&["A", "B"], n, 2);
        let b_rel = int_rel(&["A", "B"], n, 4);
        group.bench_with_input(BenchmarkId::new("union_merge", n), &n, |b, _| {
            b.iter(|| black_box(a.union(&b_rel).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("difference_merge", n), &n, |b, _| {
            b.iter(|| black_box(a.difference(&b_rel).unwrap()));
        });

        // Append-unsorted + one sort/dedup pass via the builder.
        let rows: Vec<relalg::Tuple> = (0..n)
            .map(|i| {
                let v = ((i * 2_654_435_761) % n) as i64;
                [Value::Int(v), Value::Int(v % 17)].into_iter().collect()
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("builder_sort_dedup", n), &n, |b, _| {
            b.iter(|| {
                let mut bld = RelationBuilder::with_capacity(Schema::of(&["A", "B"]), rows.len());
                for t in &rows {
                    bld.push(t.clone());
                }
                black_box(bld.finish())
            });
        });
    }

    // Division over a realistic flights-shaped input, including interned
    // string comparison on the group walk.
    for &n_dep in &[16usize, 64] {
        let flights = datagen::flights(7, n_dep, 12, 8);
        let deps = flights.project(&attrs(&["Dep"])).unwrap();
        let arr_dep = flights.project(&attrs(&["Arr", "Dep"])).unwrap();
        group.bench_with_input(BenchmarkId::new("division", n_dep), &n_dep, |b, _| {
            b.iter(|| black_box(arr_dep.divide(&deps).unwrap()));
        });
    }

    // B16's tables: a renaming shares `Flights`' tuples; a projection that
    // skips the leading column drops duplicates by hash, one tuple per
    // distinct output (`dup`: 400 → 4 rows), or sorts when most rows are
    // distinct (`distinct`); grouping builds one key tuple per group.
    let flights = datagen::flights(7, 64, 40, 12);
    let lineitem = datagen::lineitem(7, 400, 3, 4);
    let renaming = [(attr("Dep"), attr("F.Dep")), (attr("Arr"), attr("F.Arr"))];
    group.bench_function("rename", |b| {
        b.iter(|| black_box(flights.rename(&renaming).unwrap()));
    });
    for (leg, cols) in [("dup", &["Quantity"][..]), ("distinct", &["Price", "Year"])] {
        let cols = attrs(cols);
        group.bench_with_input(BenchmarkId::new("project_narrow", leg), &leg, |b, _| {
            b.iter(|| black_box(lineitem.project(&cols).unwrap()));
        });
    }
    let by = attrs(&["Quantity", "Year"]);
    let sum = [AggCall::new(
        AggFn::Sum,
        Some(attr("Price")),
        attr("Revenue"),
    )];
    group.bench_function("aggregate", |b| {
        b.iter(|| black_box(lineitem.aggregate(&by, &sum).unwrap()));
    });

    group.finish();
}

criterion_group!(benches, bench_tuple_layout);
criterion_main!(benches);
