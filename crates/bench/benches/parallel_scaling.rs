//! B8: world-level and storage-level shapes, each on the calling thread.
//!
//! The world-axis shapes (`poss` over a split world-set, binary-operator
//! pairing, repair enumeration) and the two storage shapes (builder
//! sort+dedup, hash join) run on the calling thread — nothing in the
//! engine fans work out — so each is measured once. The ids keep the `/1`
//! suffix the committed baseline is keyed by (the `/2` and `/4` legs left
//! with the world-axis fan-outs in PR 20 and the execution pool in PR 25).
//! Every workload is deterministic (datagen-seeded). Record with
//! `scripts/bench_dump.sh parallel_scaling`; results are tracked in
//! EXPERIMENTS.md (B8) and BENCH_core.json.
//!
//! Benchmark ids read `parallel_scaling/<workload>_w<worlds>/1`
//! (world-axis) and `parallel_scaling/<workload>_n<tuples>/1` (storage).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use relalg::{attrs, Pred, RelationBuilder, Tuple};
use worldset::WorldSet;
use wsa::Query;

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

    // Builder finish: one sort + dedup over ~34k reversed, doubled tuples.
    let big = datagen::flights(31, 500, 100, 40);
    let rows: Vec<Tuple> = Iterator::rev(big.iter()).map(Tuple::from).collect();
    let n = rows.len();
    group.bench_function(&format!("builder_sort_n{n}/1"), |b| {
        b.iter(|| {
            let mut bld = RelationBuilder::with_capacity(big.schema().clone(), rows.len() * 2);
            for r in &rows {
                bld.push(r);
                bld.push(r);
            }
            bld.finish()
        });
    });

    // Hash join: ~17k probe side against a departure list.
    let left = datagen::flights(37, 400, 120, 50);
    let right = left
        .project(&attrs(&["Dep"]))
        .unwrap()
        .rename(&[(relalg::attr("Dep"), relalg::attr("D2"))])
        .unwrap();
    let join_pred = Pred::eq_attr("Dep", "D2");
    let nl = left.len();
    group.bench_function(&format!("hash_join_n{nl}/1"), |b| {
        b.iter(|| left.theta_join(&right, &join_pred).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_world_axis, bench_storage_axis);
criterion_main!(benches);
