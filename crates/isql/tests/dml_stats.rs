//! Statistics survive DML. Every `insert`, `delete` and `update` builds
//! the changed relation through `Relation::with_changes`, which seeds its
//! statistics from the old relation's instead of leaving them to a recount
//! at the next select. After each statement of a script — in a one-world
//! session, a four-world session, and a durable engine reopened from its
//! snapshot and WAL — the changed relation must have statistics memoized,
//! equal to a fresh count. A statement that changes no row keeps the
//! relation's `Arc`, epoch and statistics, and one that changes a relation
//! the worlds share leaves them sharing its successor.

use std::sync::Arc;

use isql::env::SimEnv;
use isql::{
    compile_select, parse_statement, DurabilityOptions, Engine, ExecOutcome, Session, Stmt,
};
use relalg::{Relation, Value};
use worldset::{World, WorldSet};

/// Inserts (new rows, present rows, duplicates), updates that move rows,
/// merge rows and change nothing, deletes of some, none and all rows.
const SCRIPT: [&str; 10] = [
    "insert into Flights values ('D900', 'HUB');",
    "insert into Flights values ('D900', 'HUB'), ('D901', 'ZZZ'), ('D901', 'ZZZ');",
    "update Flights set Arr = 'XXX' where Arr = 'HUB';",
    "update Flights set Arr = 'YYY' where Dep = 'D901';",
    "delete from Flights where Dep = 'D900';",
    "delete from Flights where Arr = 'XXX';",
    "insert into Flights values ('D902', 'XXX'), ('D903', 'XXX');",
    "update Flights set Dep = 'D000' where Arr != 'YYY';",
    "delete from Flights where Arr = 'YYY';",
    "delete from Flights;",
];

fn flights() -> Relation {
    datagen::flights(3, 6, 8, 4)
}

/// Compute the statistics of every relation in every world.
fn warm(ws: &WorldSet) {
    for w in ws.iter() {
        for r in w.rels() {
            let _ = r.stats();
        }
    }
}

/// Relation `table` has statistics memoized in every world, equal to a
/// fresh count of its rows.
fn assert_carried(ws: &WorldSet, table: &str, what: &str) {
    let idx = ws.index_of(table).expect("table");
    for (k, w) in ws.iter().enumerate() {
        let rel = w.rel(idx);
        let seeded = rel
            .stats_if_computed()
            .unwrap_or_else(|| panic!("{what}: world {k}: {table} lost its statistics"));
        let fresh = Relation::from_rows(rel.schema().clone(), rel.iter().cloned()).unwrap();
        assert_eq!(seeded, fresh.stats(), "{what}: world {k}: {table}");
    }
}

fn run_script(s: &mut Session, what: &str) {
    for stmt in SCRIPT {
        s.execute(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
        assert_carried(s.world_set(), "Flights", &format!("{what}: {stmt}"));
    }
}

/// Four worlds that differ in `Flights` and share `Hotels`.
fn four_worlds() -> WorldSet {
    let base = flights();
    let hotels = Arc::new(datagen::hotels(3, 12, 8));
    let worlds = (0..4).map(|k| {
        let rows = base.iter().enumerate().filter(|(i, _)| i % 4 != k);
        let f = Relation::from_rows(base.schema().clone(), rows.map(|(_, t)| t.clone())).unwrap();
        World::from_shared(vec![Arc::new(f), hotels.clone()])
    });
    WorldSet::from_worlds(vec!["Flights".into(), "Hotels".into()], worlds).unwrap()
}

#[test]
fn one_world_session_keeps_statistics() {
    let mut s = Session::new();
    s.register("Flights", flights()).unwrap();
    warm(s.world_set());
    run_script(&mut s, "one world");
}

#[test]
fn four_world_session_keeps_statistics() {
    let mut s = Session::with_world_set(four_worlds());
    assert_eq!(s.world_set().len(), 4);
    warm(s.world_set());
    run_script(&mut s, "four worlds");
    assert_eq!(s.world_set().len(), 1, "every world ends empty");
}

#[test]
fn statements_that_change_no_row_keep_the_relation() {
    let mut s = Session::with_world_set(four_worlds());
    s.execute("insert into Flights values ('D900', 'HUB');")
        .unwrap();
    warm(s.world_set());
    let idx = s.world_set().index_of("Flights").unwrap();
    let before: Vec<Arc<Relation>> = s
        .world_set()
        .iter()
        .map(|w| w.rel_shared(idx).clone())
        .collect();
    for stmt in [
        "insert into Flights values ('D900', 'HUB');",
        "delete from Flights where Dep = 'NOWHERE';",
        "update Flights set Arr = 'XXX' where Dep = 'NOWHERE';",
        "update Flights set Arr = Arr;",
    ] {
        s.execute(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
        let after: Vec<&Arc<Relation>> = s.world_set().iter().map(|w| w.rel_shared(idx)).collect();
        assert_eq!(after.len(), before.len(), "{stmt}");
        for (b, a) in before.iter().zip(after) {
            assert!(Arc::ptr_eq(b, a), "{stmt}: the relation was rebuilt");
            assert_eq!(b.epoch(), a.epoch(), "{stmt}: a fresh epoch");
            assert!(
                a.stats_if_computed().is_some(),
                "{stmt}: statistics dropped"
            );
        }
    }
}

/// `stmt` applied to every world of `ws` on its own, in a one-world
/// session each: the per-world semantics of DML.
fn per_world(ws: &WorldSet, stmt: &str) -> WorldSet {
    let names = ws.rel_names().to_vec();
    let worlds = ws.iter().map(|w| {
        let one = WorldSet::from_worlds(names.clone(), [w.clone()]).unwrap();
        let mut s = Session::with_world_set(one);
        s.execute(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
        s.world_set().the_world().expect("one world").clone()
    });
    WorldSet::from_worlds(names.clone(), worlds).unwrap()
}

/// Run a select joining both tables on `s` and check its world-set against
/// Figure 3 (`wsa::eval_named` of the compiled statement).
fn assert_select_is_figure3(s: &mut Session, what: &str) {
    let sql = "select possible H.Name, F.Dep from Flights F, Hotels H where F.Arr = H.City;";
    let Stmt::Select(sel) = parse_statement(sql).unwrap() else {
        panic!("not a select");
    };
    let before = s.world_set().clone();
    let base = |name: &str| {
        let idx = before.index_of(name)?;
        Some(before.iter().next()?.rel(idx).schema().clone())
    };
    let algebra = compile_select(&sel, &base).unwrap();
    let out = s.execute(sql).unwrap();
    let ExecOutcome::Rows { name, .. } = &out[0] else {
        panic!("a select answers rows");
    };
    let figure3 = wsa::eval_named(&algebra, &before, name).unwrap();
    assert_eq!(
        s.world_set(),
        &figure3,
        "{what}: select differs from Figure 3"
    );
}

#[test]
fn dml_on_a_shared_relation_keeps_it_shared() {
    // A condition that reads only the row: one successor for all worlds.
    let shared = [
        "insert into Hotels values ('H9000', 'HUB'), ('H9001', 'ZZZ');",
        "update Hotels set City = 'YYY' where City = 'ZZZ';",
        "delete from Hotels where City = 'HUB';",
    ];
    // A subquery reads each world's `Flights`: one successor per world.
    let per_world_stmts = [
        "delete from Hotels where City in (select Arr from Flights);",
        "update Hotels set City = 'HUB' where exists (select * from Flights where Arr = City);",
    ];
    for (i, stmt) in shared.iter().chain(&per_world_stmts).enumerate() {
        let mut s = Session::with_world_set(four_worlds());
        for earlier in shared.iter().take(i.min(shared.len())) {
            s.execute(earlier).unwrap();
        }
        let want = per_world(s.world_set(), stmt);
        s.execute(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
        let ws = s.world_set();
        assert_eq!(ws, &want, "{stmt}: differs from applying it world by world");
        assert_eq!(ws.len(), 4, "{stmt}");
        if i < shared.len() {
            let h = ws.index_of("Hotels").unwrap();
            let worlds: Vec<&World> = ws.iter().collect();
            for pair in worlds.windows(2) {
                assert!(
                    Arc::ptr_eq(pair[0].rel_shared(h), pair[1].rel_shared(h)),
                    "{stmt}: adjacent worlds hold separate copies of Hotels"
                );
            }
        }
        assert_select_is_figure3(&mut s, stmt);
    }
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        snapshot_every: 1 << 20,
        background_snapshots: false,
    }
}

/// The statistics a snapshot carries are the starting point of the DML its
/// WAL replays, so the reopened engine holds them for every changed table.
fn reopen_keeps_statistics(setup: &[&str], worlds: usize, what: &str) {
    let env = SimEnv::new();
    let published = {
        let engine = Engine::open_on(Arc::new(env.clone()), opts()).unwrap();
        let mut s = engine.session();
        s.register("Flights", flights()).unwrap();
        for stmt in setup {
            s.execute(stmt).unwrap();
        }
        assert_eq!(s.world_set().len(), worlds, "{what}");
        warm(s.world_set());
        engine.checkpoint().unwrap();
        run_script(&mut s, what);
        s.world_set().clone()
    };
    let engine = Engine::open_on(Arc::new(env.recovered()), opts()).unwrap();
    let ws = engine.snapshot().world_set().clone();
    assert_eq!(ws, published, "{what}: recovered state");
    assert_carried(&ws, "Flights", &format!("{what}: reopened"));
}

#[test]
fn durable_reopen_keeps_statistics() {
    reopen_keeps_statistics(&[], 1, "durable, one world");
}

#[test]
fn durable_reopen_of_four_worlds_keeps_statistics() {
    // Four departures: `choice of Dep` makes one world per departure.
    let deps: Vec<Value> = flights().iter().map(|t| t[0]).collect();
    let mut deps: Vec<&str> = deps.iter().map(|v| v.as_str().unwrap()).collect();
    deps.dedup();
    let keep = deps[..4]
        .iter()
        .map(|d| format!("Dep = '{d}'"))
        .collect::<Vec<_>>()
        .join(" or ");
    let view = format!("create view Trip as select * from Flights where {keep} choice of Dep;");
    reopen_keeps_statistics(&[&view], 4, "durable, four worlds");
}
