//! B8: the world axis in place, the storage axis across worker counts.
//!
//! The world-axis shapes (`poss` over a split world-set, binary-operator
//! pairing, repair enumeration) run on the calling thread whatever the
//! worker count, so each is measured once; its id keeps the `/1` suffix
//! the committed baseline is keyed by. The storage-layer paths (builder
//! sort+merge, partitioned hash join) sweep the pool's worker count
//! (`relalg::pool::set_threads`). Every workload is deterministic
//! (datagen-seeded) and produces identical output at every thread count —
//! only the wall clock may move. Record with `scripts/bench_dump.sh
//! parallel_scaling`; results are tracked in EXPERIMENTS.md (B8) and
//! BENCH_core.json.
//!
//! Benchmark ids read `parallel_scaling/<workload>_w<worlds>/1`
//! (world-axis) and `parallel_scaling/<workload>_n<tuples>/<threads>`
//! (storage-axis).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relalg::{attrs, pool, Pred, RelationBuilder, Tuple};
use worldset::WorldSet;
use wsa::Query;

const THREADS: [usize; 3] = [1, 2, 4];

fn bench_world_axis(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));

    for &worlds in &[16usize, 64] {
        // One world per departure; ~160 tuples of per-world answer work.
        let flights = datagen::flights(29, worlds, 40, 160);
        let ws = WorldSet::single(vec![("F", flights)]);
        let split =
            wsa::eval_named(&Query::rel("F").choice(attrs(&["Dep"])), &ws, "ByDep").unwrap();

        let poss = Query::rel("ByDep").project(attrs(&["Arr"])).poss();
        group.bench_function(&format!("poss_w{worlds}/1"), |b| {
            b.iter(|| wsa::eval_named(&poss, &split, "Ans").unwrap());
        });

        let union = Query::rel("ByDep")
            .project(attrs(&["Arr"]))
            .union(Query::rel("F").project(attrs(&["Arr"])));
        group.bench_function(&format!("binary_union_w{worlds}/1"), |b| {
            b.iter(|| wsa::eval_named(&union, &split, "Ans").unwrap());
        });
    }

    // Repair enumeration: 2^10 repairs of one world.
    let census = datagen::census(41, 40, 10);
    let ws = WorldSet::single(vec![("C", census)]);
    let repair = Query::rel("C").repair_by_key(attrs(&["SSN"]));
    group.bench_function("repair_w1024/1", |b| {
        b.iter(|| wsa::eval_named(&repair, &ws, "Ans").unwrap());
    });
    group.finish();
}

fn bench_storage_axis(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));

    // Builder finish: chunked sort + k-way merge over ~41k reversed tuples.
    let big = datagen::flights(31, 500, 100, 40);
    let rows: Vec<Tuple> = big.tuples().iter().rev().cloned().collect();
    let n = rows.len();
    for &t in &THREADS {
        pool::set_threads(t);
        group.bench_with_input(
            BenchmarkId::new(format!("builder_sort_n{n}"), t),
            &t,
            |b, _| {
                b.iter(|| {
                    let mut bld =
                        RelationBuilder::with_capacity(big.schema().clone(), rows.len() * 2);
                    for r in &rows {
                        bld.push(r.clone());
                        bld.push(r.clone());
                    }
                    bld.finish()
                });
            },
        );
    }

    // Partitioned hash join: ~20k probe side against a departure list.
    let left = datagen::flights(37, 400, 120, 50);
    let right = left
        .project(&attrs(&["Dep"]))
        .unwrap()
        .rename(&[(relalg::attr("Dep"), relalg::attr("D2"))])
        .unwrap();
    let join_pred = Pred::eq_attr("Dep", "D2");
    let nl = left.len();
    for &t in &THREADS {
        pool::set_threads(t);
        group.bench_with_input(
            BenchmarkId::new(format!("hash_join_n{nl}"), t),
            &t,
            |b, _| {
                b.iter(|| left.theta_join(&right, &join_pred).unwrap());
            },
        );
    }
    pool::set_threads(0);
    group.finish();
}

criterion_group!(benches, bench_world_axis, bench_storage_axis);
criterion_main!(benches);
