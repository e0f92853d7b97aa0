//! Crash-recovery property tests under the deterministic [`SimEnv`].
//!
//! The contract under test: every statement the engine *acknowledged*
//! (returned `Ok` from a committing call) is durable — after a crash at
//! any write boundary, `Engine::open_on` recovers a state that is
//! bit-identical (world-set contents, key constraints) to the state an
//! in-memory oracle engine had published at the recovered sequence
//! number, and that sequence number is at least the last acknowledged
//! one. Faults are enumerated at **every** mutating filesystem operation
//! of a fault-free reference run, times three torn-tail shapes: nothing
//! of the unsynced tail survives, a partial tail survives (a torn WAL
//! record), and the whole unsynced tail survives (append landed, fsync
//! did not).

use std::collections::BTreeMap;
use std::sync::Arc;

use isql::env::{Env, Fault, SimEnv};
use isql::{DurabilityOptions, Engine};
use proptest::prelude::*;
use relalg::{Relation, Schema, Value};
use worldset::WorldSet;

/// One step of a trace. Registers and key declarations go through the
/// session API (they have no I-SQL surface syntax); everything else is a
/// single-statement script.
enum Step {
    Register(&'static str, fn() -> Relation),
    DeclareKey(&'static str, &'static [&'static str]),
    Script(&'static str),
}

fn flights() -> Relation {
    datagen::flights(1, 2, 4, 2)
}

fn census() -> Relation {
    datagen::census(1, 4, 2)
}

/// A trace exercising every WAL record shape: registers, key
/// declarations, a world-multiplying view (so the commits after it write
/// and recover multi-world snapshots), views, all three DML verbs, a
/// select (never logged), a rejected DML statement (never logged), and
/// `set local` (deliberately not durable).
fn trace() -> Vec<Step> {
    use Step::*;
    vec![
        Register("Flights", flights),
        Script("create view Pick as select Arr from Flights choice of Dep;"),
        Script("insert into Flights values ('D900', 'HUB');"),
        Script("create view Dest as select possible Arr from Flights;"),
        Register("Census", census),
        DeclareKey("Census", &["SSN"]),
        Script("set local rewrite = off;"),
        Script("select certain Name from Census repair by key SSN;"),
        // Reuses an existing SSN: violates the declared key in every
        // repair world, so it is rejected and must not be logged.
        Script("insert into Census values (1000, 'Zed', 'HUB', 'HUB');"),
        Script("update Flights set Arr = 'XXX' where Arr = 'HUB';"),
        Script("delete from Dest where Arr = 'XXX';"),
        Script("insert into Flights values ('D901', 'FRA');"),
        // Ten commits: the last snapshot (every third) is followed by a
        // WAL record, which the corruption test flips bytes in.
        Script("delete from Flights where Arr = 'FRA';"),
    ]
}

/// The published states of an engine, keyed by sequence number: the
/// world-set and the declared keys right after each commit.
type States = BTreeMap<u64, (WorldSet, BTreeMap<String, Vec<String>>)>;

/// Run `steps` on a fresh session of `engine`. Records every *acked*
/// published state into `states`; returns the highest acked sequence
/// number. Stops at the first error (a simulated crash poisons the
/// engine; later statements keep failing).
fn run_trace(engine: &Engine, steps: &[Step], states: &mut States) -> u64 {
    let mut session = engine.session();
    let mut acked = engine.snapshot().seq();
    for step in steps {
        let result = match step {
            Step::Register(name, gen) => session.register(name, gen()).map(|_| ()),
            Step::DeclareKey(table, cols) => session.declare_key(table, cols),
            Step::Script(script) => session.execute(script).map(|_| ()),
        };
        if result.is_err() {
            break;
        }
        let snap = engine.snapshot();
        if snap.seq() > acked {
            acked = snap.seq();
            states.insert(acked, (snap.world_set().clone(), snap.keys().clone()));
        }
    }
    acked
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        // Snapshot often, inline, so the fault sweep hits snapshot
        // writes, WAL rotations, and GC — not just WAL appends.
        snapshot_every: 3,
        background_snapshots: false,
    }
}

/// The oracle: the same trace on a purely in-memory engine.
fn oracle_states(steps: &[Step]) -> (States, u64) {
    let engine = Engine::new();
    let mut states = BTreeMap::new();
    let last = run_trace(&engine, steps, &mut states);
    (states, last)
}

/// Recover from the (possibly crashed) disk image and check every
/// durability invariant against the oracle.
fn check_recovery(env: &SimEnv, oracle: &States, acked: u64, what: &str) {
    let disk = env.recovered();
    let engine = Engine::open_on(Arc::new(disk.clone()), opts())
        .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    let snap = engine.snapshot();
    let seq = snap.seq();
    assert!(
        seq >= acked,
        "{what}: recovered seq {seq} lost acked commit {acked}"
    );
    if seq == 0 {
        assert!(
            oracle.get(&1).is_none() || acked == 0,
            "{what}: empty recovery"
        );
        return;
    }
    let (ws, keys) = oracle
        .get(&seq)
        .unwrap_or_else(|| panic!("{what}: recovered seq {seq} was never published by the oracle"));
    assert!(
        snap.world_set() == ws,
        "{what}: recovered world-set at seq {seq} differs from oracle"
    );
    assert!(
        snap.keys() == keys,
        "{what}: recovered key constraints at seq {seq} differ from oracle"
    );
    // Equal epochs must imply equal content; within one snapshot it is
    // enough that the epoch set size never exceeds the relation count.
    let epochs = snap.epoch_set();
    let mut distinct = epochs.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(epochs.len(), distinct.len(), "{what}: duplicate epochs");

    // Recovery must be idempotent: opening the recovered image again
    // (bootstrap rewrote snapshot + WAL) yields the identical state.
    let again = Engine::open_on(Arc::new(disk.recovered()), opts())
        .unwrap_or_else(|e| panic!("{what}: second recovery failed: {e}"));
    let snap2 = again.snapshot();
    assert_eq!(snap2.seq(), seq, "{what}: second recovery changed seq");
    assert!(
        snap2.world_set() == snap.world_set(),
        "{what}: second recovery changed the world-set"
    );
}

/// Fault-free run: the durable engine tracks the oracle exactly, and a
/// recovery from the final image reproduces the final state.
#[test]
fn durable_engine_matches_oracle_without_faults() {
    let steps = trace();
    let (oracle, oracle_last) = oracle_states(&steps);
    let env = SimEnv::new();
    let engine = Engine::open_on(Arc::new(env.clone()), opts()).unwrap();
    let mut durable = BTreeMap::new();
    let last = run_trace(&engine, &steps, &mut durable);
    assert_eq!(last, oracle_last, "durable engine acked a different trace");
    assert_eq!(durable, oracle, "published states diverged from oracle");
    drop(engine); // crash without shutdown: WAL tail must carry everything
    check_recovery(&env, &oracle, last, "fault-free");
}

/// The acceptance sweep: crash at every mutating filesystem operation of
/// the reference run, with three torn-tail shapes each, and verify the
/// kill-and-recover round trip bit-identically against the oracle.
#[test]
fn crash_at_every_write_boundary_recovers_acked_state() {
    let steps = trace();
    let (oracle, _) = oracle_states(&steps);

    // Reference run to count fault points.
    let probe = SimEnv::new();
    {
        let engine = Engine::open_on(Arc::new(probe.clone()), opts()).unwrap();
        let mut s = BTreeMap::new();
        run_trace(&engine, &steps, &mut s);
    }
    let total_ops = probe.op_count();
    assert!(total_ops > 10, "trace too small to be interesting");
    assert!(
        oracle.values().any(|(ws, _)| ws.len() > 1),
        "the trace must publish a multi-world snapshot"
    );

    for at_op in 0..total_ops {
        for keep in [0usize, 3, usize::MAX] {
            let env = SimEnv::new();
            let engine = Engine::open_on(Arc::new(env.clone()), opts()).unwrap();
            env.set_fault(Some(Fault {
                at_op,
                keep_unsynced: keep,
            }));
            let mut states = BTreeMap::new();
            let acked = run_trace(&engine, &steps, &mut states);
            drop(engine);
            check_recovery(&env, &oracle, acked, &format!("op {at_op} keep {keep}"));
        }
    }
}

/// A select that fails must not consume a `Q‹n›` number, and no select,
/// failed or answered, reaches the log: recovery reproduces exactly the
/// state the session's writes committed.
#[test]
fn failed_select_does_not_skip_query_numbers_at_recovery() {
    let env = SimEnv::new();
    let engine = Engine::open_on(Arc::new(env.clone()), opts()).unwrap();
    let mut s = engine.session();
    s.register("T", Relation::table(&["A"], &[&["x"], &["y"]]))
        .unwrap();
    s.execute("select possible A from T;").unwrap(); // Q1
    assert!(
        s.execute("select A from Missing;").is_err(),
        "select on an unknown relation must fail"
    );
    let out = s.execute("select certain A from T;").unwrap();
    let isql::ExecOutcome::Rows { name, .. } = &out[0] else {
        panic!()
    };
    assert_eq!(name, "Q2", "a failed select must not burn a Q number");
    s.execute("insert into T values ('z');").unwrap();
    s.execute("delete from T where A = 'z';").unwrap();
    let pre = engine.snapshot();
    drop(engine);
    let recovered = Engine::open_on(Arc::new(env.recovered()), opts()).unwrap();
    let snap = recovered.snapshot();
    assert_eq!(snap.seq(), pre.seq(), "recovery lost a commit");
    assert!(
        snap.world_set() == pre.world_set(),
        "recovered catalog diverged from the pre-crash committed state"
    );
    assert!(snap.keys() == pre.keys());
}

/// A session's answers stay in the session. After 300 selects, the first
/// of them splitting the worlds, and one `insert`, the published snapshot
/// holds exactly what a twin engine that ran only the `insert` holds, on
/// an in-memory and on a durable engine, and a fresh session cannot read
/// a `Q‹n›` answer. The durable engine recovers to the same state.
/// World-sets are compared, not snapshot bytes: a select memoizes column
/// statistics, and the snapshot codec writes them.
#[test]
fn a_commit_publishes_no_select_answers() {
    let run = |engine: &Engine, selects: usize| {
        let mut s = engine.session();
        s.register("T", Relation::table(&["A"], &[&["x"], &["y"]]))
            .unwrap();
        for i in 0..selects {
            let q = if i == 0 {
                "select A from T choice of A;"
            } else {
                "select possible A from T;"
            };
            s.execute(q).unwrap();
        }
        assert_eq!(s.world_set().len(), if selects > 0 { 2 } else { 1 });
        s.execute("insert into T values ('z');").unwrap();
    };
    let twin = Engine::new();
    run(&twin, 0);
    let twin = twin.snapshot();

    let env = SimEnv::new();
    let durable = Engine::open_on(Arc::new(env.clone()), opts()).unwrap();
    for engine in [Engine::new(), durable] {
        run(&engine, 300);
        let snap = engine.snapshot();
        assert_eq!(snap.world_set().rel_names(), twin.world_set().rel_names());
        assert!(
            snap.world_set() == twin.world_set(),
            "the commit published the session's answers or split"
        );
        let err = engine.session().execute("select * from Q1;").unwrap_err();
        assert!(err.0.contains("unknown relation"), "{err}");
    }
    let recovered = Engine::open_on(Arc::new(env.recovered()), opts()).unwrap();
    let snap = recovered.snapshot();
    assert_eq!(snap.world_set().rel_names(), twin.world_set().rel_names());
    assert!(
        snap.world_set() == twin.world_set(),
        "recovered catalog differs from the twin's"
    );
}

/// Flipping any single byte of the trailing WAL record must not
/// resurrect it: recovery either drops the torn record (state at the
/// previous commit) or fails cleanly — it never panics and never
/// publishes corrupted data.
#[test]
fn corrupted_wal_tail_is_discarded_not_replayed() {
    let steps = trace();
    let (oracle, _) = oracle_states(&steps);
    let env = SimEnv::new();
    {
        let engine = Engine::open_on(Arc::new(env.clone()), opts()).unwrap();
        let mut s = BTreeMap::new();
        run_trace(&engine, &steps, &mut s);
    }
    let disk = env.recovered();
    let wal_name = disk
        .list()
        .unwrap()
        .into_iter()
        .rfind(|n| n.starts_with("wal-"))
        .expect("a WAL file must exist");
    let wal = disk.read(&wal_name).unwrap();
    assert!(!wal.is_empty(), "WAL tail should hold records");
    // Flip one byte at a spread of positions (every 7th byte keeps the
    // test fast while covering header, seq, checksum, and payload bytes).
    for pos in (0..wal.len()).step_by(7) {
        let fresh = env.recovered();
        let mut bytes = fresh.read(&wal_name).unwrap();
        bytes[pos] ^= 0x40;
        fresh.remove(&wal_name).unwrap();
        fresh.append(&wal_name, &bytes).unwrap();
        fresh.sync(&wal_name).unwrap();
        if let Ok(engine) = Engine::open_on(Arc::new(fresh), opts()) {
            let snap = engine.snapshot();
            if snap.seq() > 0 {
                let (ws, _) = oracle
                    .get(&snap.seq())
                    .unwrap_or_else(|| panic!("byte {pos}: recovered unseen seq"));
                assert!(
                    snap.world_set() == ws,
                    "byte {pos}: corrupted replay published wrong data"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DML traces with a random fault point: the recovered state
    /// is always one the oracle published, at or after the last acked
    /// commit.
    #[test]
    fn random_traces_recover_consistently(seed in any::<u64>()) {
        let mut x = seed | 1;
        let mut next = move |m: u64| {
            // xorshift64* — deterministic per seed, no Date/rand needed.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D)) % m.max(1)
        };
        let rel = Relation::from_rows(
            Schema::of(&["K", "V"]),
            (0..4).map(|i| vec![Value::Int(i), Value::Int(i * 10)]),
        )
        .unwrap();

        // Build a random script trace over one table.
        let mut scripts: Vec<String> = Vec::new();
        for _ in 0..(2 + next(8)) {
            scripts.push(match next(4) {
                0 => format!(
                    "insert into T values ({}, {});",
                    next(6), next(100)
                ),
                1 => format!("delete from T where K = {};", next(6)),
                2 => format!(
                    "update T set V = {} where K = {};",
                    next(100), next(6)
                ),
                // A view with a fresh name: it splits the worlds (at most
                // two ways, so the trace stays small) and is logged.
                _ => format!(
                    "create view V{} as select V from T where K < 2 choice of K;",
                    scripts.len()
                ),
            });
        }

        // Oracle run.
        let oracle_engine = Engine::new();
        let mut oracle = BTreeMap::new();
        {
            let mut s = oracle_engine.session();
            s.register("T", rel.clone()).unwrap();
            let snap = oracle_engine.snapshot();
            oracle.insert(snap.seq(), (snap.world_set().clone(), snap.keys().clone()));
            for script in &scripts {
                let _ = s.execute(script);
                let snap = oracle_engine.snapshot();
                oracle.insert(snap.seq(), (snap.world_set().clone(), snap.keys().clone()));
            }
        }

        // Probe run (fault-free) to size the fault window, then a faulted
        // run at a random write boundary.
        let probe = SimEnv::new();
        {
            let engine = Engine::open_on(Arc::new(probe.clone()), opts()).unwrap();
            let mut s = engine.session();
            s.register("T", rel.clone()).unwrap();
            for script in &scripts {
                let _ = s.execute(script);
            }
        }
        let at_op = next(probe.op_count().max(1));
        let keep = [0usize, 5, usize::MAX][next(3) as usize];

        let env = SimEnv::new();
        let engine = Engine::open_on(Arc::new(env.clone()), opts()).unwrap();
        env.set_fault(Some(Fault { at_op, keep_unsynced: keep }));
        let mut acked = 0;
        {
            let mut s = engine.session();
            if s.register("T", rel.clone()).is_ok() {
                acked = engine.snapshot().seq();
                for script in &scripts {
                    if s.execute(script).is_err() {
                        break;
                    }
                    acked = engine.snapshot().seq();
                }
            }
        }
        drop(engine);

        let disk = env.recovered();
        let engine = Engine::open_on(Arc::new(disk), opts())
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        let snap = engine.snapshot();
        prop_assert!(snap.seq() >= acked, "seed {seed}: lost acked commit");
        if snap.seq() > 0 {
            let (ws, keys) = oracle.get(&snap.seq()).unwrap_or_else(|| {
                panic!("seed {seed}: recovered unseen seq {}", snap.seq())
            });
            prop_assert!(snap.world_set() == ws, "seed {seed}: world-set diverged");
            prop_assert!(snap.keys() == keys, "seed {seed}: keys diverged");
        }
    }
}
