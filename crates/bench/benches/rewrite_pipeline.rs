//! B9: the rewrite execution path end to end — the general Figure-6
//! translation route (`run_general`: optimize → translate → evaluate →
//! decode) with the rewrite path **on** versus **off**
//! (a `rewrite = off` session overlay), across a worlds × departures grid.
//!
//! `on` is the production default: the Section-6 optimizer in front of the
//! translation, then simplification and join ordering of the translated
//! plans, in one batch that keeps every shared subplan one node.
//! `off_coldcache` evaluates the raw translation. Both recompute
//! everything on every call — no evaluation memo outlives a call — and
//! both evaluate each DAG node once within a call (the memo is keyed by
//! node identity); the `off_coldcache` id is kept from when `on` was
//! served by a plan cache.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relalg::attrs;
use worldset::WorldSet;
use wsa::Query;
use wsa_inlined::InlinedRep;

fn trip_query() -> Query {
    Query::rel("HFlights")
        .choice(attrs(&["Dep"]))
        .project(attrs(&["Arr"]))
        .cert()
}

/// A representation encoding `worlds` worlds over the flights table (one
/// world: the plain single-world rep; several: an encoded world-set whose
/// worlds differ in a departure's flights).
fn rep_for(worlds: usize, n_dep: usize) -> InlinedRep {
    let flights = datagen::flights(1, n_dep, 12, 6);
    if worlds <= 1 {
        return InlinedRep::single_world(vec![("HFlights", flights)]);
    }
    let ws = WorldSet::single(vec![("HFlights", flights)]);
    let choice = Query::rel("HFlights").choice(attrs(&["Dep"]));
    let out = wsa::eval_named(&choice, &ws, "HF2").unwrap();
    // Keep only the answer relation, capped to `worlds` worlds.
    let capped: Vec<worldset::World> = out
        .iter()
        .take(worlds)
        .map(|w| worldset::World::new(vec![w.last().clone()]))
        .collect();
    let ws = WorldSet::from_worlds(vec!["HFlights".into()], capped).unwrap();
    InlinedRep::encode(&ws).unwrap()
}

fn bench_rewrite_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("rewrite_pipeline");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_millis(1500));

    let q = trip_query();
    let mut rewrite_off = relalg::config::SessionConfig::new();
    rewrite_off.set("rewrite", "off").unwrap();
    for &worlds in &[1usize, 4] {
        for &n_dep in &[8usize, 16, 32] {
            let rep = rep_for(worlds, n_dep);
            let label = format!("w{worlds}_d{n_dep}");

            group.bench_with_input(BenchmarkId::new("on", &label), &n_dep, |b, _| {
                b.iter(|| wsa_inlined::run_general(&q, &rep, "Ans").unwrap());
            });

            // The escape-hatch path: the raw translation.
            let _off = relalg::config::overlay(&rewrite_off);
            group.bench_with_input(BenchmarkId::new("off_coldcache", &label), &n_dep, |b, _| {
                b.iter(|| wsa_inlined::run_general(&q, &rep, "Ans").unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_rewrite_pipeline);
criterion_main!(benches);
