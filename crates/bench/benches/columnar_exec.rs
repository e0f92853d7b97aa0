//! B11: columnar execution benchmarks — the physical-operator layer's
//! vectorized selection and columnar join-key hashing against the row
//! path, on wide relations, plus grouping and division on the same inputs.
//!
//! Each columnar shape runs as a `_row` / `_col` pair: the `row` leg takes
//! the tuple-walking path under a `columnar = off` session overlay
//! (`relalg::config::overlay`), the `col` leg runs at the default, the
//! physical layer's columnar path. Grouping and
//! division have one path, timed as a single `_row` leg. The relations are
//! wider than the inline tuple capacity (so every tuple is heap-spilled)
//! — exactly the shape where extracting the touched columns pays.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use relalg::config::{overlay, SessionConfig};
use relalg::{attr, attrs, CmpOp, Operand, Pred, Relation, Schema, Tuple, Value};

/// A deterministic wide relation with per-column domains of different
/// sizes (column `c` draws from `0..7+5c`, multipliers coprime to the
/// moduli so every column actually varies).
fn wide_rel(seed: i64, rows: usize, width: usize) -> Relation {
    let names: Vec<String> = (0..width).map(|c| format!("C{c}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    Relation::from_rows(
        Schema::of(&name_refs),
        (0..rows as i64).map(|i| {
            (0..width as i64)
                .map(|c| Value::Int((i.wrapping_mul(seed + 2 * c + 1) + c) % (7 + 5 * c)))
                .collect::<Tuple>()
        }),
    )
    .unwrap()
}

/// The join probe side: shares `C2`,`C3` with [`wide_rel`], plus private
/// columns, sized so the hash join produces a non-trivial output.
fn probe_rel(rows: usize) -> Relation {
    Relation::from_rows(
        Schema::of(&["C2", "C3", "D0", "D1", "D2", "D3"]),
        (0..rows as i64).map(|i| {
            [
                Value::Int((i * 3 + 2) % 17), // C2's domain in wide_rel
                Value::Int((i * 5 + 3) % 22), // C3's domain
                Value::Int(i % 11),
                Value::Int((i * 3) % 7),
                Value::Int((i * 5 + 1) % 13),
                Value::Int((i * 7 + 2) % 19),
            ]
            .into_iter()
            .collect::<Tuple>()
        }),
    )
    .unwrap()
}

fn row_leg<R>(group: &mut criterion::BenchmarkGroup<'_>, name: &str, tag: &str, f: impl Fn() -> R) {
    group.bench_with_input(BenchmarkId::new(format!("{name}_row"), tag), &(), |b, _| {
        let mut off = SessionConfig::new();
        off.set("columnar", "off").unwrap();
        let _off = overlay(&off);
        b.iter(|| black_box(f()));
    });
}

fn ab_legs<R>(group: &mut criterion::BenchmarkGroup<'_>, name: &str, tag: &str, f: impl Fn() -> R) {
    row_leg(group, name, tag, &f);
    group.bench_with_input(BenchmarkId::new(format!("{name}_col"), tag), &(), |b, _| {
        b.iter(|| black_box(f()));
    });
}

fn bench_columnar_exec(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_exec");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));

    for &rows in &[4_000usize, 20_000] {
        let rel = wide_rel(11, rows, 8);
        let tag = format!("w8x{rows}");

        // Vectorized selection: four comparison conjuncts written in the
        // worst order — unselective range/inequality tests first, the
        // selective equalities last. The row path evaluates the compiled
        // tree in written order; the bitmap path reorders by estimated
        // selectivity, so the equalities prune almost every row before
        // the range tests run.
        let pred = Pred::cmp(
            Operand::Attr(attr("C4")),
            CmpOp::Ge,
            Operand::Const(Value::Int(5)),
        )
        .and(Pred::cmp(
            Operand::Attr(attr("C3")),
            CmpOp::Ne,
            Operand::Const(Value::Int(2)),
        ))
        .and(Pred::eq_const("C1", 3))
        .and(Pred::eq_const("C2", 5));
        // Stats are memoized on the relation, so the selectivity ranking
        // reads them for free in both legs.
        let _ = rel.stats();
        ab_legs(&mut group, "filter", &tag, || rel.select(&pred).unwrap());

        // Columnar join keys: hash join on the two shared columns; the
        // columnar leg hashes the key columns column-wise into a chain
        // table instead of allocating a `Vec<&Value>` key per row.
        let probe = probe_rel(rows / 4);
        ab_legs(&mut group, "join", &tag, || rel.natural_join(&probe));
        ab_legs(&mut group, "semijoin", &tag, || rel.semijoin(&probe));

        // Grouping: partition on two mid-tuple key columns, and division
        // by a single-column divisor. Both walk full tuples (one fused
        // hash-bucketing or pair-extraction pass); there is no columnar
        // variant to compare, so each is one leg.
        let key = attrs(&["C2", "C5"]);
        row_leg(&mut group, "group", &tag, || {
            rel.partition_by(&key).unwrap()
        });
        let divisor = rel.project(&attrs(&["C7"])).unwrap();
        row_leg(&mut group, "divide", &tag, || rel.divide(&divisor).unwrap());
    }

    group.finish();
}

criterion_group!(benches, bench_columnar_exec);
criterion_main!(benches);
