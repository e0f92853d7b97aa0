//! B17: building the relational plan of a B16 select — the fixed cost the
//! relational route (Theorem 5.7) pays on every statement before it
//! evaluates anything.
//!
//! The six B16 select classes (`point`, `join`, `agg`, `trip`, `repair`,
//! `whatif`) over the B16 statement-path tables, generated at seed 7. The
//! statement text is parsed once; each leg times one stage on the previous
//! stage's output:
//!
//! * `plan_build/total/<class>` — `isql::compile_select` plus
//!   `wsa_inlined::relational_plan`, what the statement path runs;
//! * `plan_build/compile/<class>` — `compile_select` alone;
//! * `plan_build/translate/<class>` — the Section-5.3 translation
//!   (`translate_opt_complete`);
//! * `plan_build/simplify/<class>` — `relalg::simplify` of that translation;
//! * `plan_build/optimize_joins/<class>` — `relalg::opt::optimize_joins` of
//!   the simplified plan;
//! * `plan_build/eval/<class>` — evaluating the finished plan, the other
//!   half of the route's engine time, for the build-versus-evaluation
//!   split;
//! * `plan_build/parse/<class>` — `isql::parse_statement` of the statement
//!   text, the statement path's first edge;
//! * `plan_build/render/<class>` — `isql::server::render_outcome` of the
//!   statement's answer, its last edge.
//!
//! Record with `scripts/bench_dump.sh plan_build`; results are tracked in
//! EXPERIMENTS.md (B17) and BENCH_core.json.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isql::server::render_outcome;
use isql::{compile_select, parse_statement, Session, Stmt};
use relalg::{Catalog, Schema};

/// The B16 tables at seed 7, with the sizes the statement path uses.
fn b16_session() -> Session {
    let mut s = Session::new();
    s.register("Flights", datagen::flights(7, 64, 40, 12))
        .unwrap();
    s.register("Hotels", datagen::hotels(7, 400, 40)).unwrap();
    s.register("Lineitem", datagen::lineitem(7, 400, 3, 4))
        .unwrap();
    s.register("Census", datagen::census(7, 200, 4)).unwrap();
    s
}

/// The six B16 selects by class. `join` names the first departure city;
/// the statement path picks the one with the median answer, which changes
/// the literal, not the plan's shape.
fn b16_selects(s: &Session) -> [(&'static str, String); 6] {
    let ws = s.world_set();
    let flights = ws.the_world().unwrap().rel(ws.index_of("Flights").unwrap());
    let dep = flights.iter().next().unwrap()[0].as_str().unwrap();
    [
        ("point", "select * from Hotels where Name = 'H0042';".into()),
        (
            "join",
            format!(
                "select possible F.Dep, H.Name from Flights F, Hotels H \
                 where F.Arr = H.City and F.Dep = '{dep}';"
            ),
        ),
        (
            "agg",
            "select Year, sum(Price) as Rev from Lineitem group by Year;".into(),
        ),
        (
            "trip",
            "select certain Arr from Flights choice of Dep;".into(),
        ),
        (
            "repair",
            "select certain SSN, Name from Census repair by key SSN;".into(),
        ),
        (
            "whatif",
            "select possible A.Year, sum(A.Price) as Revenue \
             from (select * from Lineitem choice of Year) as A \
             where Quantity not in (select * from Lineitem choice of Quantity) \
             group by A.Year;"
                .into(),
        ),
    ]
}

fn bench_plan_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_build");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1000));

    let s = b16_session();
    let mut answering = b16_session();
    let ws = s.world_set();
    let world = ws.the_world().unwrap();
    let mut catalog = Catalog::new();
    for (i, name) in ws.rel_names().iter().enumerate() {
        catalog.put(name, world.rel_shared(i).clone());
    }
    let base = |name: &str| -> Option<Schema> { catalog.schema_of(name) };

    for (class, sql) in b16_selects(&s) {
        let Ok(Stmt::Select(sel)) = parse_statement(&sql) else {
            panic!("`{sql}` is a select");
        };
        let q = compile_select(&sel, &base).unwrap();
        let translated = wsa_inlined::translate_opt_complete(&q, &base).unwrap();
        let simplified = relalg::simplify(&translated, &base).unwrap();
        // The staged legs build the plan the session runs and `EXPLAIN`
        // prints.
        let plan = relalg::opt::optimize_joins(&simplified, &catalog);
        let built = wsa_inlined::relational_plan(&q, ws.rel_names(), world).unwrap();
        let explained = s.explain(&sql).unwrap().relational_plan.unwrap();
        assert_eq!(plan.to_string(), built.expr.to_string(), "{class}");
        assert_eq!(plan.to_string(), explained.to_string(), "{class}");

        group.bench_with_input(BenchmarkId::new("total", class), &sel, |b, sel| {
            b.iter(|| {
                let q = compile_select(sel, &base).unwrap();
                wsa_inlined::relational_plan(&q, ws.rel_names(), world).unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("compile", class), &sel, |b, sel| {
            b.iter(|| compile_select(sel, &base).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("translate", class), &q, |b, q| {
            b.iter(|| wsa_inlined::translate_opt_complete(q, &base).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("simplify", class), &translated, |b, e| {
            b.iter(|| relalg::simplify(e, &base).unwrap());
        });
        group.bench_with_input(
            BenchmarkId::new("optimize_joins", class),
            &simplified,
            |b, e| {
                b.iter(|| relalg::opt::optimize_joins(e, &catalog));
            },
        );
        group.bench_with_input(BenchmarkId::new("eval", class), &built, |b, p| {
            b.iter(|| p.catalog.eval(&p.expr).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("parse", class), &sql, |b, sql| {
            b.iter(|| parse_statement(sql).unwrap());
        });
        let outcome = answering.execute(&sql).unwrap().remove(0);
        let worlds = answering.world_set().len();
        group.bench_with_input(BenchmarkId::new("render", class), &outcome, |b, o| {
            b.iter(|| render_outcome(o, worlds));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_plan_build);
criterion_main!(benches);
