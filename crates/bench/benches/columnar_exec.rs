//! B11: columnar execution benchmarks — the physical-operator layer's
//! vectorized selection on narrow and wide relations, plus the keyed
//! operators (hash join, semijoin, grouping) and division on the wide
//! inputs.
//!
//! Every shape has one path, so each is timed as a single leg. Rows are
//! stored flat, so a selection reads column `c` of row `i` at value
//! `i·k + c` of one vector whatever the width `k` (2, 4 or 8 columns).
//! `filter_attr_eq` compares two string columns of every row, and
//! `filter/w4x5` times the per-call setup of a 5-row selection.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
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

/// A narrow relation of exactly `rows` rows: [`wide_rel`]'s first
/// `width - 1` columns, then the row id (too few small domains would
/// leave only a few distinct rows).
fn narrow_rel(seed: i64, rows: usize, width: usize) -> Relation {
    let names: Vec<String> = (0..width).map(|c| format!("C{c}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    Relation::from_rows(
        Schema::of(&name_refs),
        (0..rows as i64).map(|i| {
            (0..width as i64 - 1)
                .map(|c| Value::Int((i.wrapping_mul(seed + 2 * c + 1) + c) % (7 + 5 * c)))
                .chain([Value::Int(i)])
                .collect::<Tuple>()
        }),
    )
    .unwrap()
}

/// A relation of `rows` distinct string rows, four columns wide: `C0` and
/// `C1` draw from one 7-value domain, so `C0 = C1` keeps about a seventh
/// of the rows, and `C3` is the row id.
fn string_rel(rows: usize) -> Relation {
    Relation::from_rows(
        Schema::of(&["C0", "C1", "C2", "C3"]),
        (0..rows as i64).map(|i| {
            [i % 7, (i * 3 + 1) % 7, i % 5, i]
                .into_iter()
                .map(|v| Value::str(&format!("v{v:05}")))
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

fn leg<R>(group: &mut criterion::BenchmarkGroup<'_>, name: &str, tag: &str, f: impl Fn() -> R) {
    group.bench_with_input(BenchmarkId::new(name, tag), &(), |b, _| {
        b.iter(|| black_box(f()));
    });
}

fn range(col: &str, op: CmpOp, v: i64) -> Pred {
    Pred::cmp(Operand::Attr(attr(col)), op, Operand::Const(Value::Int(v)))
}

fn bench_columnar_exec(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar_exec");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));

    // Narrow selection, written unselective-first: a range test on the
    // row id that keeps almost every row, then the equalities.
    let narrow = [
        (2, range("C1", CmpOp::Ge, 100).and(Pred::eq_const("C0", 3))),
        (
            4,
            range("C3", CmpOp::Ge, 100)
                .and(range("C2", CmpOp::Ne, 2))
                .and(Pred::eq_const("C1", 3))
                .and(Pred::eq_const("C0", 5)),
        ),
    ];
    for (width, pred) in &narrow {
        let rel = narrow_rel(11, 4_000, *width);
        let _ = rel.stats();
        leg(&mut group, "filter", &format!("w{width}x4000"), || {
            rel.select(pred).unwrap()
        });
    }

    // An attribute-to-attribute comparison over strings reads both
    // operands of every row.
    let strings = string_rel(4_000);
    let same = Pred::eq_attr("C0", "C1");
    leg(&mut group, "filter_attr_eq", "w4x4000", || {
        strings.select(&same).unwrap()
    });
    // A 5-row selection: the per-call setup, not the scan, is the cost.
    let tiny = narrow_rel(11, 5, 4);
    let tiny_pred = Pred::eq_const("C0", 5);
    leg(&mut group, "filter", "w4x5", || {
        tiny.select(&tiny_pred).unwrap()
    });

    for &rows in &[4_000usize, 20_000] {
        let rel = wide_rel(11, rows, 8);
        let tag = format!("w8x{rows}");

        // Vectorized selection: four comparison conjuncts written in the
        // worst order — unselective range/inequality tests first, the
        // selective equalities last. The kernel reorders by estimated
        // selectivity, so the equalities prune almost every row before
        // the range tests run.
        let pred = range("C4", CmpOp::Ge, 5)
            .and(range("C3", CmpOp::Ne, 2))
            .and(Pred::eq_const("C1", 3))
            .and(Pred::eq_const("C2", 5));
        // Stats are memoized on the relation, so the selectivity ranking
        // reads them for free.
        let _ = rel.stats();
        leg(&mut group, "filter", &tag, || rel.select(&pred).unwrap());

        // Hash join and semijoin on the two shared columns: the build side
        // is indexed by hashing its key columns in place.
        let probe = probe_rel(rows / 4);
        leg(&mut group, "join", &tag, || rel.natural_join(&probe));
        leg(&mut group, "semijoin", &tag, || rel.semijoin(&probe));

        // Grouping: partition on two mid-tuple key columns, and division
        // by a single-column divisor. Both walk full tuples (one fused
        // hash-bucketing or pair-extraction pass).
        let key = attrs(&["C2", "C5"]);
        leg(&mut group, "group", &tag, || {
            rel.partition_by(&key).unwrap()
        });
        let divisor = rel.project(&attrs(&["C7"])).unwrap();
        leg(&mut group, "divide", &tag, || rel.divide(&divisor).unwrap());
    }

    group.finish();
}

criterion_group!(benches, bench_columnar_exec);
criterion_main!(benches);
