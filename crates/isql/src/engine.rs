//! The shared execution engine: one catalog, many sessions.
//!
//! An [`Engine`] owns the database state — the world-set and the declared
//! key constraints — as an immutable [`Snapshot`] behind an `Arc` that is
//! swapped atomically on every committed write. Concurrent
//! [`Session`](crate::Session) handles (one per connection) read the
//! snapshot they opened without taking any lock: a snapshot is never
//! mutated after publication, so a reader can hold it for as long as it
//! likes while writers publish newer ones. Writes serialize through a
//! single writer mutex; each applies against the latest published state
//! and publishes its successor with a bumped sequence number.
//!
//! Snapshot identity builds on the PR 5 epoch tags: every `Relation`
//! carries a process-monotonic epoch, and equal epochs imply identical
//! content, so a snapshot is identified by its sequence number and by its
//! [epoch set](Snapshot::epoch_set) — the sorted set of epochs of every
//! relation instance it contains. The concurrency tests use this to check
//! that an answer observed by a reader is consistent with *exactly one*
//! published snapshot (no torn reads across a concurrent write).
//!
//! The optimizer memo needs no changes for concurrency: it is keyed by
//! `(name, epoch)` fingerprints, so entries from different snapshots can
//! never verify against each other's data. Evaluation memos live for one
//! evaluation and are never shared between sessions.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use worldset::WorldSet;
use wsdb_env::{Env, StdEnv};

use crate::durable::{self, Durability, DurabilityOptions, WalSpec};
use crate::session::Session;

/// An immutable, published state of the database: a world-set plus the
/// declared key constraints, identified by a sequence number.
///
/// Snapshots are never mutated after publication; readers hold them by
/// `Arc` and can keep reading an old snapshot after newer ones publish.
#[derive(Clone, Debug)]
pub struct Snapshot {
    seq: u64,
    ws: WorldSet,
    keys: BTreeMap<String, Vec<String>>,
}

impl Snapshot {
    /// The publication sequence number (0 for the engine's initial state;
    /// each committed write publishes `seq + 1`).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The snapshot's world-set.
    pub fn world_set(&self) -> &WorldSet {
        &self.ws
    }

    /// The declared key constraints (`table → key columns`).
    pub fn keys(&self) -> &BTreeMap<String, Vec<String>> {
        &self.keys
    }

    /// The snapshot's epoch set: the sorted, deduplicated epochs of every
    /// relation instance in every world. Equal epochs imply identical
    /// relation content (the PR 5 invariant), so two answers computed from
    /// states with the same epoch set came from identical database states.
    pub fn epoch_set(&self) -> Vec<u64> {
        let mut epochs: Vec<u64> = self
            .ws
            .iter()
            .flat_map(|w| (0..self.ws.rel_names().len()).map(|i| w.rel(i).epoch()))
            .collect();
        epochs.sort_unstable();
        epochs.dedup();
        epochs
    }
}

#[derive(Debug)]
pub(crate) struct EngineInner {
    /// The latest published snapshot. The mutex guards only the `Arc`
    /// swap/clone, never evaluation: readers clone the `Arc` and drop the
    /// lock immediately.
    published: Mutex<Arc<Snapshot>>,
    /// Serializes writers. Held across apply-and-publish so each write
    /// sees the state left by the previous one.
    writer: Mutex<()>,
    /// The WAL/snapshot machinery when this engine is backed by a data
    /// directory; `None` for a purely in-memory engine.
    durability: Option<Arc<Durability>>,
}

/// The shared execution engine behind one or more I-SQL sessions.
///
/// `Engine` is cheaply cloneable (an `Arc` handle) and `Send + Sync`: hand
/// clones to connection-handler threads and give each its own
/// [`Session`](crate::Session) via [`Engine::session`].
///
/// ```
/// use isql::{Engine, ExecOutcome};
/// use relalg::Relation;
///
/// let engine = Engine::new();
/// let mut admin = engine.session();
/// admin
///     .register("R", Relation::table(&["A"], &[&["x"], &["y"]]))
///     .unwrap();
///
/// // A second session on the same engine sees the committed table.
/// let mut reader = engine.session();
/// let out = reader.execute("select possible A from R;").unwrap();
/// let ExecOutcome::Rows { answers, .. } = &out[0] else { panic!() };
/// assert_eq!(answers[0].len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine over a single empty world. When `WSDB_DATA_DIR` is set,
    /// the engine is transparently durable in a fresh subdirectory of it
    /// (one per engine), so the whole test suite can exercise the WAL
    /// commit path unchanged.
    pub fn new() -> Engine {
        Engine::with_world_set(WorldSet::single(vec![]))
    }

    /// An engine whose initial snapshot is an existing world-set (durable
    /// under `WSDB_DATA_DIR` like [`Engine::new`]).
    pub fn with_world_set(ws: WorldSet) -> Engine {
        if let Ok(dir) = std::env::var("WSDB_DATA_DIR") {
            if !dir.is_empty() {
                match Engine::durable_in(&dir, ws.clone()) {
                    Ok(engine) => return engine,
                    Err(e) => eprintln!("wsdb: WSDB_DATA_DIR disabled: {e}"),
                }
            }
        }
        Engine::with_state(ws, BTreeMap::new())
    }

    fn durable_in(root: &str, ws: WorldSet) -> io::Result<Engine> {
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let n = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
        let dir = Path::new(root).join(format!("engine-{}-{n}", std::process::id()));
        let env: Arc<dyn Env> = Arc::new(StdEnv::new(dir)?);
        Engine::open_on_with_initial(env, DurabilityOptions::default(), Some(ws))
    }

    /// Open (or create) a durable engine over the data directory at
    /// `path`: recover the latest snapshot plus WAL tail, then log every
    /// subsequent commit. See the `durable` module for the protocol and
    /// for what is and is not durable.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Engine> {
        Engine::open_on(Arc::new(StdEnv::new(path)?), DurabilityOptions::default())
    }

    /// [`Engine::open`] over any [`Env`] — tests inject a
    /// [`wsdb_env::SimEnv`] here to crash and recover deterministically.
    pub fn open_on(env: Arc<dyn Env>, opts: DurabilityOptions) -> io::Result<Engine> {
        Engine::open_on_with_initial(env, opts, None)
    }

    fn open_on_with_initial(
        env: Arc<dyn Env>,
        opts: DurabilityOptions,
        initial: Option<WorldSet>,
    ) -> io::Result<Engine> {
        let mut rec = durable::recover(env.as_ref())?;
        if let Some(ws) = initial {
            // Seed only a virgin directory; existing data always wins.
            if rec.seq == 0 && rec.ws.rel_names().is_empty() {
                rec.ws = ws;
            }
        }
        let d = Durability::bootstrap(env, opts, &rec)?;
        Ok(Engine::with_parts(
            rec.ws,
            rec.keys,
            rec.seq,
            Some(Arc::new(d)),
        ))
    }

    /// An engine seeded with a world-set and key constraints (used by
    /// session forking).
    pub(crate) fn with_state(ws: WorldSet, keys: BTreeMap<String, Vec<String>>) -> Engine {
        Engine::with_parts(ws, keys, 0, None)
    }

    pub(crate) fn with_parts(
        ws: WorldSet,
        keys: BTreeMap<String, Vec<String>>,
        seq: u64,
        durability: Option<Arc<Durability>>,
    ) -> Engine {
        Engine {
            inner: Arc::new(EngineInner {
                published: Mutex::new(Arc::new(Snapshot { seq, ws, keys })),
                writer: Mutex::new(()),
                durability,
            }),
        }
    }

    /// Whether commits on this engine are logged to a data directory.
    pub fn is_durable(&self) -> bool {
        self.inner.durability.is_some()
    }

    pub(crate) fn durability(&self) -> Option<&Arc<Durability>> {
        self.inner.durability.as_ref()
    }

    /// Write a snapshot of the latest published state and truncate the
    /// WAL. A no-op `Ok` on a non-durable engine. Safe to call at any
    /// time (graceful shutdown, periodic checkpointing).
    pub fn checkpoint(&self) -> io::Result<()> {
        let Some(d) = &self.inner.durability else {
            return Ok(());
        };
        // Rotate under the writer lock: no commit is mid-append, so the
        // rotation point is exactly the published sequence. The snapshot
        // itself is written outside the lock — commits proceed while it
        // lands, appending to the already-rotated WAL.
        let snap = {
            let _writer = self.inner.writer.lock().unwrap_or_else(|e| e.into_inner());
            let snap = self
                .inner
                .published
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            d.rotate_to(snap.seq)?;
            snap
        };
        d.write_snapshot(&snap)
    }

    /// Open a new session on this engine. The session starts at the latest
    /// published snapshot with default (process-wide) configuration.
    pub fn session(&self) -> Session {
        Session::open(self.clone())
    }

    /// The latest published snapshot (lock held only for the `Arc` clone).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.inner
            .published
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Run one serialized write: `apply` receives the base state (the
    /// caller's working state when it is still current, otherwise the
    /// latest published state) and returns the successor state to publish,
    /// or `None` to commit nothing (a rejected DML statement).
    ///
    /// `working` is the calling session's `(opened seq, world-set, keys)`.
    /// Returns the newly published snapshot (or the reread latest snapshot
    /// when nothing was committed) plus whether a commit happened.
    ///
    /// On a durable engine, `wal` describes the commit for the log: its
    /// record is appended (under the writer lock, so the log order is the
    /// publication order) before the snapshot publishes, and the commit
    /// is only acknowledged — this function only returns `Ok` — after the
    /// record is fsynced. The fsync itself happens after the writer lock
    /// is released so that concurrent committers batch into one fsync
    /// (group commit).
    ///
    /// Group-commit tradeoff: the snapshot therefore *publishes before
    /// its record is durable*. If the fsync then fails, the committer
    /// gets an error and the durability layer is poisoned — every later
    /// commit fails rather than silently diverging from the log — but
    /// the already-published snapshot stays visible to concurrent
    /// readers: it cannot be rolled back, because later commits may have
    /// built on it while the fsync was in flight. The exposure is
    /// bounded by the poisoning (no further writes are accepted) and
    /// ends at restart, when recovery reverts to the logged state.
    pub(crate) fn commit_with(
        &self,
        working: (u64, &WorldSet, &BTreeMap<String, Vec<String>>),
        wal: Option<WalSpec>,
        apply: impl FnOnce(
            &WorldSet,
            &BTreeMap<String, Vec<String>>,
        ) -> Result<
            Option<(WorldSet, BTreeMap<String, Vec<String>>)>,
            crate::lexer::SqlError,
        >,
    ) -> Result<(Arc<Snapshot>, bool), crate::lexer::SqlError> {
        let inner = &self.inner;
        let (snap, committed, ticket) = {
            let _writer = inner.writer.lock().unwrap_or_else(|e| e.into_inner());
            let latest = inner
                .published
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            let (opened_seq, working_ws, working_keys) = working;
            // A session whose snapshot is still the latest commits its
            // *working* state, which may carry query results and world
            // splits the published snapshot lacks (the single-session
            // facade always takes this path, preserving the paper's
            // step-by-step semantics). A stale session rebases: its write
            // applies to the latest published state instead, and its
            // local query results are left behind.
            let rebased = latest.seq != opened_seq;
            let (base_ws, base_keys) = if rebased {
                (&latest.ws, &latest.keys)
            } else {
                (working_ws, working_keys)
            };
            match apply(base_ws, base_keys)? {
                None => (latest, false, None),
                Some((ws, keys)) => {
                    let seq = latest.seq + 1;
                    let ticket = match &inner.durability {
                        None => None,
                        Some(d) => {
                            let spec = wal.as_ref().ok_or_else(|| {
                                crate::lexer::SqlError(
                                    "internal: durable commit without a WAL spec".into(),
                                )
                            })?;
                            let payload = durable::encode_wal_record(spec, rebased);
                            // Append *before* publishing: if the append
                            // fails, nothing was published and the commit
                            // errors out with the state unchanged.
                            let w = d.append(seq, &payload).map_err(durable::io_to_sql)?;
                            Some((w, seq))
                        }
                    };
                    let snap = Arc::new(Snapshot { seq, ws, keys });
                    *inner.published.lock().unwrap_or_else(|e| e.into_inner()) = snap.clone();
                    (snap, true, ticket)
                }
            }
        };
        if let Some((w, seq)) = ticket {
            let d = inner
                .durability
                .as_ref()
                .expect("ticket implies durability");
            d.sync(&w, seq).map_err(durable::io_to_sql)?;
            d.maybe_snapshot(self, seq);
        }
        Ok((snap, committed))
    }
}
