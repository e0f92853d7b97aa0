//! A data directory written by an earlier build still opens, unchanged.
//!
//! `tests/data/parent_format/` holds a snapshot plus a WAL tail that the
//! build before flat row storage wrote (`write_parent_format_fixture`
//! below, run once with `WSDB_WRITE_FIXTURE=<dir>` and `--ignored`). Its
//! relations cover what the row layout must not change on disk: strings
//! and integers, the nullary relations `{⟨⟩}` and `{}`, relations of arity
//! 9 and 10, and one relation that several worlds share. Opening a copy
//! must recover exactly the state the same trace publishes in memory,
//! with the sharing intact.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use isql::env::StdEnv;
use isql::{DurabilityOptions, Engine, Session};
use relalg::{Relation, Schema, Value};

/// `rows` rows of `arity` columns mixing integers and strings.
fn wide(arity: usize, rows: i64) -> Relation {
    let names: Vec<String> = (0..arity).map(|c| format!("W{c}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Relation::from_rows(
        Schema::of(&refs),
        (0..rows).map(|r| {
            (0..arity as i64)
                .map(|c| {
                    if c % 3 == 1 {
                        Value::str(&format!("s{}", (r * 7 + c) % 5))
                    } else {
                        Value::Int((r * (c + 2)) % 11 - 4)
                    }
                })
                .collect::<Vec<Value>>()
        }),
    )
    .expect("every row has the arity")
}

/// The part of the trace that the fixture's snapshot holds.
fn snapshot_part(s: &mut Session) {
    s.register("Flights", datagen::flights(3, 3, 4, 2))
        .expect("register");
    s.register("Wide", wide(10, 12)).expect("register");
    s.register("Unit", Relation::unit()).expect("register");
    s.register("None", Relation::nullary_empty())
        .expect("register");
    s.declare_key("Wide", &["W0", "W1"]).expect("declare key");
    // Splits the session into one world per departure; every other
    // relation stays one object that all worlds share.
    s.execute("create view Pick as select Dep from Flights choice of Dep;")
        .expect("view");
}

/// The part of the trace that the fixture's WAL tail holds.
fn wal_part(s: &mut Session) {
    s.register("Wide9", wide(9, 7)).expect("register");
    s.register("Unit2", Relation::unit()).expect("register");
    s.execute("insert into Flights values ('D777', 'ZRH');")
        .expect("insert");
    s.execute("delete from Wide where W0 = 0;").expect("delete");
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/parent_format")
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create the copy");
    for entry in std::fs::read_dir(from).expect("the fixture directory") {
        let entry = entry.expect("a directory entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy a fixture file");
    }
}

#[test]
fn a_data_directory_from_before_flat_rows_opens() {
    let oracle = Engine::new();
    let mut s = oracle.session();
    snapshot_part(&mut s);
    wal_part(&mut s);
    let want = oracle.snapshot();

    let names: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("the fixture directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert!(names.iter().any(|n| n.starts_with("snap-")), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("wal-")), "{names:?}");

    // Opening rewrites the directory (a fresh snapshot, the WAL truncated),
    // so it opens a copy.
    let dir = std::env::temp_dir().join(format!("wsdb-parent-format-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(&fixture_dir(), &dir);
    let engine = Engine::open(&dir).expect("the parent's directory opens");
    let got = engine.snapshot();
    assert_eq!(got.seq(), want.seq());
    assert!(got.world_set() == want.world_set(), "world-sets differ");
    assert_eq!(got.keys(), want.keys());

    let ws = got.world_set();
    assert!(ws.len() > 1, "the view splits the session into worlds");
    for name in ["Flights", "Wide", "Wide9", "Unit"] {
        let i = ws.index_of(name).expect("a stored relation");
        let first = ws.iter().next().expect("a world").rel_shared(i);
        assert!(
            ws.iter().all(|w| Arc::ptr_eq(w.rel_shared(i), first)),
            "{name} is one object in every world"
        );
    }
    let unit = ws.iter().next().expect("a world");
    assert_eq!(*unit.rel(ws.index_of("Unit").unwrap()), Relation::unit());
    assert!(unit.rel(ws.index_of("None").unwrap()).is_empty());
    assert_eq!(unit.rel(ws.index_of("Wide9").unwrap()).schema().arity(), 9);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes the fixture: `WSDB_WRITE_FIXTURE=<dir> cargo test -p isql --test
/// parent_format -- --ignored`. Only a build whose format the fixture
/// should pin may write it.
#[test]
#[ignore]
fn write_parent_format_fixture() {
    let dir = std::env::var("WSDB_WRITE_FIXTURE").expect("WSDB_WRITE_FIXTURE names the directory");
    let opts = DurabilityOptions {
        snapshot_every: 1 << 20,
        background_snapshots: false,
    };
    let env = Arc::new(StdEnv::new(&dir).expect("the directory"));
    let engine = Engine::open_on(env, opts).expect("a fresh engine");
    let mut s = engine.session();
    snapshot_part(&mut s);
    engine.checkpoint().expect("checkpoint");
    wal_part(&mut s);
    // Dropped without a checkpoint: the last commits stay in the WAL.
}
