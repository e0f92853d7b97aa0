//! Concurrent-session stress suite: N reader sessions against writers
//! issuing DML on one shared `Engine`.
//!
//! The invariant under test is snapshot isolation: every answer a reader
//! computes must be consistent with **exactly one** published snapshot —
//! never a mix of two (a torn update). The tests exploit the PR 5 epoch
//! tags through `Snapshot::epoch_set()`: each committed write builds new
//! relation instances with fresh epochs, so two states with the same epoch
//! set are the same state, and a reader's `(seq, epoch_set)` pair pins the
//! exact snapshot its answers came from.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use isql::{Engine, ExecOutcome, Session};
use relalg::{Relation, Value};

/// Single-column integer answer → the set of values.
fn int_values(rel: &Relation) -> Vec<i64> {
    rel.iter()
        .map(|row| match &row[0] {
            Value::Int(i) => *i,
            other => panic!("expected an int answer, got {other:?}"),
        })
        .collect()
}

/// Run one `select possible V from T;` and return the distinct values
/// observed, plus the `(seq, epoch_set)` identity of the snapshot the
/// session evaluated against.
fn read_t(session: &mut Session) -> (Vec<i64>, u64, Vec<u64>) {
    let out = session.execute("select possible V from T;").unwrap();
    let ExecOutcome::Rows { answers, .. } = &out[0] else {
        panic!("expected rows");
    };
    assert_eq!(answers.len(), 1, "T is certain: one distinct answer");
    let seq = session.snapshot().seq();
    let epochs = session.snapshot().epoch_set();
    (int_values(&answers[0]), seq, epochs)
}

/// A single writer bumps `T.V`; readers must only ever see a uniform `V`
/// equal to the sequence number of one published snapshot, and a second
/// read on the same (diverged) session must agree with the first.
///
/// Writer protocol: registration publishes seq 1 with `V = 0`, and the
/// writer's i-th committed update sets every row to `i` and publishes
/// seq `i + 1`, so *snapshot seq n holds uniformly `V = n − 1`* — any mix
/// of values, or a value that disagrees with the session's snapshot seq,
/// is a torn or misattributed read.
#[test]
fn readers_never_observe_torn_updates() {
    let engine = Engine::new();
    let mut admin = engine.session();
    admin
        .register(
            "T",
            Relation::table(&["K", "V"], &[&[1, 0], &[2, 0], &[3, 0]]),
        )
        .unwrap();
    assert_eq!(admin.snapshot().seq(), 1, "registration is one commit");

    // Record each published snapshot's epoch set, keyed by seq.
    let published: Mutex<BTreeMap<u64, Vec<u64>>> = Mutex::new(BTreeMap::new());
    let stop = AtomicBool::new(false);
    let next = AtomicU64::new(1);

    const READERS: usize = 32;
    const READS_PER_READER: usize = 40;

    std::thread::scope(|s| {
        // One writer serializing V = seq updates.
        s.spawn(|| {
            let mut w = engine.session();
            while !stop.load(Ordering::Relaxed) {
                let v = next.fetch_add(1, Ordering::Relaxed);
                w.execute(&format!("update T set V = {v};")).unwrap();
                assert_eq!(w.snapshot().seq(), v + 1, "writer is the only writer");
                published
                    .lock()
                    .unwrap()
                    .insert(v + 1, w.snapshot().epoch_set());
            }
        });

        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    for _ in 0..READS_PER_READER {
                        let mut r = engine.session();
                        let (vals, seq, epochs) = read_t(&mut r);
                        // Uniform V across all rows: no torn update.
                        assert_eq!(vals.len(), 1, "mixed V values: torn update {vals:?}");
                        // The value matches the snapshot the session opened.
                        assert_eq!(vals[0] as u64, seq - 1, "answer from a different snapshot");
                        // The diverged session re-reads the *same* snapshot
                        // even while the writer keeps publishing.
                        let (vals2, seq2, epochs2) = read_t(&mut r);
                        assert_eq!(vals2, vals, "diverged session changed snapshot");
                        assert_eq!(seq2, seq);
                        assert_eq!(epochs2, epochs);
                        // And the epoch set matches the recorded publication
                        // (skip when the writer has not recorded seq yet —
                        // the record happens just after the commit).
                        if let Some(recorded) = published.lock().unwrap().get(&seq) {
                            assert_eq!(recorded, &epochs, "snapshot seq {seq} epoch set mismatch");
                        }
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
}

/// Mixed DML from several writers: each writer appends `(tid, i)` rows to
/// its own key range sequentially, so every snapshot must contain a
/// *prefix* `1..=k` of each writer's inserts — a reader seeing row `i`
/// without row `i-1` of the same writer observed a torn or lost update.
#[test]
fn mixed_dml_preserves_per_writer_prefixes() {
    let engine = Engine::new();
    let mut admin = engine.session();
    admin
        .register("L", Relation::table::<i64>(&["W", "I"], &[]))
        .unwrap();

    const WRITERS: usize = 4;
    const ROWS_PER_WRITER: usize = 12;
    const READERS: usize = 28; // 32 concurrent sessions in total

    std::thread::scope(|s| {
        for tid in 0..WRITERS {
            let engine = &engine;
            s.spawn(move || {
                let mut w = engine.session();
                for i in 1..=ROWS_PER_WRITER {
                    w.execute(&format!("insert into L values ({tid}, {i});"))
                        .unwrap();
                }
            });
        }
        for _ in 0..READERS {
            s.spawn(|| {
                for _ in 0..24 {
                    let mut r = engine.session();
                    let out = r.execute("select possible W, I from L;").unwrap();
                    let ExecOutcome::Rows { answers, .. } = &out[0] else {
                        panic!("expected rows");
                    };
                    assert_eq!(answers.len(), 1);
                    let mut seen: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
                    for row in answers[0].iter() {
                        let (Value::Int(w), Value::Int(i)) = (&row[0], &row[1]) else {
                            panic!("expected int rows");
                        };
                        seen.entry(*w).or_default().push(*i);
                    }
                    for (w, mut is) in seen {
                        is.sort_unstable();
                        let expect: Vec<i64> = (1..=is.len() as i64).collect();
                        assert_eq!(is, expect, "writer {w}: non-prefix insert set");
                    }
                }
            });
        }
    });

    // Quiesced: a fresh session sees every row.
    let mut r = engine.session();
    let out = r.execute("select possible W, I from L;").unwrap();
    let ExecOutcome::Rows { answers, .. } = &out[0] else {
        panic!()
    };
    assert_eq!(answers[0].len(), WRITERS * ROWS_PER_WRITER);
}

/// A rejected insert (key violation) must commit nothing and leave every
/// session's view unchanged, even under concurrency.
#[test]
fn rejected_insert_publishes_nothing() {
    let engine = Engine::new();
    let mut admin = engine.session();
    admin
        .register("K", Relation::table(&["Id", "V"], &[&[1, 10]]))
        .unwrap();
    admin.declare_key("K", &["Id"]).unwrap();
    let seq_before = admin.snapshot().seq();

    let mut s1 = engine.session();
    let out = s1.execute("insert into K values (1, 99);").unwrap();
    assert_eq!(out, vec![ExecOutcome::Dml { applied: false }]);
    assert_eq!(engine.snapshot().seq(), seq_before, "nothing published");

    let mut s2 = engine.session();
    let out = s2.execute("select possible V from K;").unwrap();
    let ExecOutcome::Rows { answers, .. } = &out[0] else {
        panic!()
    };
    assert_eq!(answers[0], Relation::table(&["V"], &[&[10]]));
}

/// `set local` affects only the issuing session; another session on the
/// same engine keeps the process-wide configuration.
#[test]
fn set_local_is_per_session() {
    let engine = Engine::new();
    let mut a = engine.session();
    let mut b = engine.session();
    let out = a.execute("set local rewrite = off;").unwrap();
    assert_eq!(
        out,
        vec![ExecOutcome::Set {
            name: "rewrite".into(),
            value: "off".into()
        }]
    );
    assert_eq!(a.config().describe(), "rewrite = off");
    assert!(b.config().is_default());
    // Unknown knobs and bad values are rejected.
    assert!(a.execute("set local no_such = 1;").is_err());
    assert!(a.execute("set local rewrite = 7;").is_err());
    // Selection has one path: `columnar` is no longer a knob. Nor are
    // `factorize` and `compact`: the planner alone routes the factorized
    // engine, and its formula compaction always runs.
    for gone in ["columnar", "factorize", "compact"] {
        let err = a.execute(&format!("set local {gone} = off;")).unwrap_err();
        assert!(err.to_string().contains("known: rewrite"), "{gone}: {err}");
    }
    // The worker count is not a knob: storage operators run on the
    // session's own thread.
    assert!(a.execute("set local threads = 4;").is_err());
    // Both sessions still answer queries identically.
    let mut admin = engine.session();
    admin
        .register("R", Relation::table(&["A"], &[&[1], &[2]]))
        .unwrap();
    let oa = a.execute("select possible A from R;").unwrap();
    let ob = b.execute("select possible A from R;").unwrap();
    let (ExecOutcome::Rows { answers: ra, .. }, ExecOutcome::Rows { answers: rb, .. }) =
        (&oa[0], &ob[0])
    else {
        panic!()
    };
    assert_eq!(ra, rb);
}

/// The single-session facade (`Session::new`) still behaves as the
/// pre-`Engine` value type: selects materialize into the working
/// world-set, DML applies to the split/materialized state, and `clone`
/// forks an independent session.
#[test]
fn facade_session_keeps_local_semantics() {
    let mut s = Session::new();
    s.register(
        "F",
        Relation::table(&["Dep", "Arr"], &[&["FRA", "BCN"], &["PAR", "ATL"]]),
    )
    .unwrap();
    // A world-splitting view persists in the session.
    s.execute("create view C as select Dep, Arr from F choice of Dep;")
        .unwrap();
    assert_eq!(s.world_set().len(), 2);
    // DML applies to the split world-set.
    s.execute("delete from F where Dep = 'FRA';").unwrap();
    assert_eq!(s.world_set().len(), 2);
    // Clone forks: mutating the clone leaves the original untouched.
    let mut fork = s.clone();
    fork.execute("delete from F;").unwrap();
    let orig = s.answers("F").unwrap();
    assert!(orig.iter().any(|r| r.len() == 1));
    let forked = fork.answers("F").unwrap();
    assert!(forked.iter().all(|r| r.is_empty()));
}

/// DML in a session whose select split the worlds applies to the
/// snapshot's worlds, as in any other session: the split stays local, the
/// commit publishes one world, and the session adopts the published
/// snapshot, dropping its answers and its split.
#[test]
fn dml_after_a_splitting_select_applies_to_the_snapshot_worlds() {
    let engine = Engine::new();
    let mut s = engine.session();
    s.register(
        "Flights",
        Relation::table(
            &["Dep", "Arr"],
            &[&["FRA", "BCN"], &["FRA", "ATL"], &["PAR", "ATL"]],
        ),
    )
    .unwrap();
    s.execute("select Arr from Flights choice of Dep;").unwrap();
    assert_eq!(s.world_set().len(), 2, "the select splits the session");
    s.execute("insert into Flights values ('ROM', 'BCN');")
        .unwrap();
    let snap = engine.snapshot();
    assert_eq!(snap.world_set().len(), 1, "the split was published");
    assert!(s.world_set() == snap.world_set());
    assert_eq!(s.answers("Flights").unwrap()[0].len(), 4);
}
