//! An I-SQL session: a per-connection handle onto a shared [`Engine`].
//!
//! A `Session` carries its own open [`Snapshot`](crate::Snapshot), a
//! working world-set (the snapshot's world-set plus any query results and
//! world splits produced locally), per-connection configuration overrides
//! ([`SessionConfig`]), and the `Q1, Q2, …` query counter. Reads never
//! block: a select evaluates against the working world-set with no engine
//! lock held. Writes (DML, views, [`Session::register`],
//! [`Session::declare_key`]) serialize through the engine's single writer
//! and publish a new snapshot for every session to see.
//!
//! # Snapshot isolation
//!
//! A session *auto-refreshes* to the latest published snapshot at each
//! select, **until** it has local state other sessions lack (a
//! materialized `Q‹n›` answer or a world split) — from then on it keeps
//! reading the snapshot those results were computed from, so every answer
//! in one line of investigation is consistent with one database state. A
//! write re-synchronizes: if the session's snapshot is still the latest,
//! the write commits the session's *working* world-set (query results,
//! splits and all — the single-session behavior of the pre-`Engine` API,
//! preserved exactly); if other sessions have published since, the write
//! rebases onto the latest snapshot and the session's local query results
//! are left behind.

use std::collections::BTreeMap;

use relalg::config::SessionConfig;
use relalg::{Relation, Value};
use worldset::WorldSet;

use crate::ast::*;
use crate::durable::{WalAction, WalSpec};
use crate::engine::{Engine, Snapshot};
use crate::interp::{eval_cond_public, eval_select_ws, eval_update_row, Scopes};
use crate::lexer::SqlError;
use crate::parser::parse_script;

type Result<T> = std::result::Result<T, SqlError>;

/// The result of executing one statement.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecOutcome {
    /// A select: the answer relation was added to every world under `name`;
    /// `answers` lists the distinct per-world instances.
    Rows {
        /// Name the answer was materialized under.
        name: String,
        /// Distinct answer relations across worlds.
        answers: Vec<Relation>,
    },
    /// A view definition was materialized in every world.
    ViewCreated {
        /// The view name.
        name: String,
        /// Number of worlds after materialization.
        worlds: usize,
    },
    /// A DML statement; `applied == false` means a constraint was violated
    /// in some world, so (per Section 3) the update was discarded in *all*
    /// worlds.
    Dml {
        /// Whether the change was applied.
        applied: bool,
    },
    /// A `set local` statement: the named per-session override is now in
    /// effect for this session only.
    Set {
        /// Knob name as given.
        name: String,
        /// Value as given.
        value: String,
    },
}

/// An interactive I-SQL session over a world-set database.
///
/// ```
/// use isql::Session;
/// use relalg::Relation;
///
/// let mut s = Session::new();
/// s.register("Flights", Relation::table(
///     &["Dep", "Arr"],
///     &[&["FRA", "BCN"], &["FRA", "ATL"], &["PAR", "ATL"]],
/// )).unwrap();
/// let out = s.execute("select certain Arr from Flights choice of Dep;").unwrap();
/// let isql::ExecOutcome::Rows { answers, .. } = &out[0] else { panic!() };
/// assert_eq!(answers[0], Relation::table(&["Arr"], &[&["ATL"]]));
/// ```
///
/// [`Session::new`] is the single-session facade: it creates a private
/// [`Engine`] under the hood, so scripts behave exactly as they did when a
/// session owned its world-set by value. To serve several connections over
/// one catalog, create one [`Engine`] and call [`Engine::session`] per
/// connection.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    /// The published snapshot this session last synchronized with.
    opened: std::sync::Arc<Snapshot>,
    /// The working world-set: `opened`'s world-set plus local query
    /// results/world splits (when `diverged`).
    ws: WorldSet,
    /// Key constraints as of `opened` (writes republish them).
    keys: BTreeMap<String, Vec<String>>,
    /// Whether `ws` holds local state beyond `opened` (suspends
    /// auto-refresh until the next write re-synchronizes).
    diverged: bool,
    config: SessionConfig,
    query_counter: usize,
    /// On a durable engine: the selects run since the last
    /// synchronization. Their `Q‹n›` answers ride into the next
    /// working-path commit, so its WAL record must replay them. Capped
    /// at [`MAX_WAL_PENDING_SELECTS`]; see `pending_overflow`.
    pending: Vec<SelectStmt>,
    /// The query counter before the first pending select (WAL replay
    /// starts `Q‹n›` numbering here).
    pending_base: usize,
    /// Set when a select arrived with `pending` already full: the local
    /// answers are no longer fully recorded, so the next commit must
    /// take the rebase path (which publishes none of them) instead of
    /// logging a replay list recovery could not bound.
    pending_overflow: bool,
}

/// Cap on the pending-select replay list one WAL record may carry. Past
/// this, the session stops recording selects and its next commit rebases
/// (local `Q‹n›` answers are left behind, exactly as when another session
/// published first), so neither session memory nor recovery-time replay
/// grows without bound under a read-heavy workload.
const MAX_WAL_PENDING_SELECTS: usize = 256;

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Clone for Session {
    /// Fork the session: the clone gets its own private engine seeded with
    /// this session's working state, preserving the value-type independence
    /// of the pre-`Engine` API (mutating either side never affects the
    /// other).
    fn clone(&self) -> Session {
        let engine = Engine::with_state(self.ws.clone(), self.keys.clone());
        let mut s = engine.session();
        s.config = self.config;
        s.query_counter = self.query_counter;
        s
    }
}

impl Session {
    /// A session over a single empty world (on a new private engine).
    pub fn new() -> Session {
        Engine::new().session()
    }

    /// A session over an existing world-set (on a new private engine).
    pub fn with_world_set(ws: WorldSet) -> Session {
        Engine::with_world_set(ws).session()
    }

    /// Open a session at `engine`'s latest snapshot ([`Engine::session`]).
    pub(crate) fn open(engine: Engine) -> Session {
        let opened = engine.snapshot();
        Session {
            ws: opened.world_set().clone(),
            keys: opened.keys().clone(),
            opened,
            engine,
            diverged: false,
            config: SessionConfig::new(),
            query_counter: 0,
            pending: Vec::new(),
            pending_base: 0,
            pending_overflow: false,
        }
    }

    /// Set the `Q‹n›` counter (WAL replay positions a fresh session at the
    /// counter the logging session had).
    pub(crate) fn set_query_counter(&mut self, n: usize) {
        self.query_counter = n;
        self.pending_base = n;
    }

    /// The engine this session executes against.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The published snapshot this session is currently synchronized with.
    /// While the session holds local query results, this is the snapshot
    /// they were computed from.
    pub fn snapshot(&self) -> &std::sync::Arc<Snapshot> {
        &self.opened
    }

    /// This session's configuration overrides (see
    /// [`SessionConfig`] and the `set local` statement).
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Mutable access to this session's configuration overrides.
    pub fn config_mut(&mut self) -> &mut SessionConfig {
        &mut self.config
    }

    /// Register a base relation (added to every world). The relation is
    /// shared across worlds, not copied per world.
    pub fn register(&mut self, name: &str, rel: Relation) -> Result<()> {
        let shared = std::sync::Arc::new(rel);
        let name_owned = name.to_string();
        let wal = self.log_action(|| WalAction::Register {
            name: name_owned.clone(),
            rel: shared.clone(),
        });
        self.write(wal, move |ws, keys| {
            if ws.index_of(&name_owned).is_some() {
                return Err(SqlError(format!("relation {name_owned} already exists")));
            }
            let ws = ws.extend_with(&name_owned, |_| Ok::<_, SqlError>(shared.clone()))?;
            Ok(Some((ws, keys.clone())))
        })?;
        Ok(())
    }

    /// Declare a key constraint `cols → rest` on `table`, enforced by
    /// `insert` with the paper's discard-in-all-worlds semantics. On a
    /// durable engine the declaration is WAL-logged, so it can fail with
    /// a storage error.
    pub fn declare_key(&mut self, table: &str, cols: &[&str]) -> Result<()> {
        let table = table.to_string();
        let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
        let wal = self.log_action(|| WalAction::DeclareKey {
            table: table.clone(),
            cols: cols.clone(),
        });
        self.write(wal, move |ws, keys| {
            let mut keys = keys.clone();
            keys.insert(table, cols);
            Ok(Some((ws.clone(), keys)))
        })?;
        Ok(())
    }

    /// The current world-set (the session's working state: its snapshot
    /// plus any local query results).
    pub fn world_set(&self) -> &WorldSet {
        &self.ws
    }

    /// Distinct instances of relation `name` across worlds.
    pub fn answers(&self, name: &str) -> Result<Vec<Relation>> {
        let idx = self
            .ws
            .index_of(name)
            .ok_or_else(|| SqlError(format!("unknown relation {name}")))?;
        let mut seen = std::collections::BTreeSet::new();
        for w in self.ws.iter() {
            seen.insert(w.rel(idx).clone());
        }
        Ok(seen.into_iter().collect())
    }

    /// Parse and execute a script of `;`-separated statements.
    pub fn execute(&mut self, script: &str) -> Result<Vec<ExecOutcome>> {
        let stmts = parse_script(script)?;
        stmts.into_iter().map(|s| self.run(s)).collect()
    }

    /// Execute one statement. The session's configuration overrides are in
    /// effect for the duration of the statement (on this thread and on the
    /// tuple-axis workers a large relation's operators start from it).
    pub fn run(&mut self, stmt: Stmt) -> Result<ExecOutcome> {
        let _session_cfg = relalg::config::overlay(&self.config);
        match stmt {
            Stmt::Select(sel) => {
                self.refresh_if_clean();
                let durable = self.engine.is_durable();
                if durable && self.pending.is_empty() && !self.pending_overflow {
                    self.pending_base = self.query_counter;
                }
                let logged = durable.then(|| sel.clone());
                let counter_before = self.query_counter;
                let name = self.fresh_query_name();
                self.ws = match eval_select_ws(&sel, &self.ws, &name) {
                    Ok(ws) => ws,
                    Err(e) => {
                        // A failed select publishes nothing and is never
                        // logged, so it must not consume a `Q‹n›` slot:
                        // WAL replay numbers the logged selects
                        // consecutively from `pending_base`, and a
                        // skipped number would rename every later answer
                        // in the recovered catalog.
                        self.query_counter = counter_before;
                        return Err(e);
                    }
                };
                if let Some(sel) = logged {
                    if self.pending.len() < MAX_WAL_PENDING_SELECTS {
                        self.pending.push(sel);
                    } else {
                        self.pending_overflow = true;
                    }
                }
                self.diverged = true;
                Ok(ExecOutcome::Rows {
                    answers: self.answers(&name)?,
                    name,
                })
            }
            Stmt::CreateView { name, query } => {
                let out_name = name.clone();
                let wal = self.log_action(|| {
                    WalAction::Stmt(Box::new(Stmt::CreateView {
                        name: name.clone(),
                        query: query.clone(),
                    }))
                });
                self.write(wal, move |ws, keys| {
                    if ws.index_of(&out_name).is_some() {
                        return Err(SqlError(format!("relation {out_name} already exists")));
                    }
                    let ws = eval_select_ws(&query, ws, &out_name)?;
                    Ok(Some((ws, keys.clone())))
                })?;
                Ok(ExecOutcome::ViewCreated {
                    name,
                    worlds: self.ws.len(),
                })
            }
            // DML builds new relations (fresh epoch tags), so stale cache
            // entries can never verify; the *targeted* invalidation below
            // is memory hygiene that evicts only the plans reading the
            // mutated table — every unrelated cached plan survives the DML.
            Stmt::Insert { table, rows } => {
                relalg::plan_cache::invalidate_tables(&[&table]);
                let wal = self.log_action(|| {
                    WalAction::Stmt(Box::new(Stmt::Insert {
                        table: table.clone(),
                        rows: rows.clone(),
                    }))
                });
                self.insert(wal, &table, rows)
            }
            Stmt::Delete { table, cond } => {
                relalg::plan_cache::invalidate_tables(&[&table]);
                let wal = self.log_action(|| {
                    WalAction::Stmt(Box::new(Stmt::Delete {
                        table: table.clone(),
                        cond: cond.clone(),
                    }))
                });
                self.delete(wal, &table, cond)
            }
            Stmt::Update { table, sets, cond } => {
                relalg::plan_cache::invalidate_tables(&[&table]);
                let wal = self.log_action(|| {
                    WalAction::Stmt(Box::new(Stmt::Update {
                        table: table.clone(),
                        sets: sets.clone(),
                        cond: cond.clone(),
                    }))
                });
                self.update(wal, &table, sets, cond)
            }
            Stmt::SetLocal { name, value } => {
                self.config.set(&name, &value).map_err(SqlError)?;
                Ok(ExecOutcome::Set { name, value })
            }
        }
    }

    /// Sync with the latest published snapshot, unless this session holds
    /// local query results (then it keeps the snapshot they came from).
    fn refresh_if_clean(&mut self) {
        if self.diverged {
            return;
        }
        let latest = self.engine.snapshot();
        if latest.seq() != self.opened.seq() {
            self.ws = latest.world_set().clone();
            self.keys = latest.keys().clone();
            self.opened = latest;
        }
    }

    /// The next unused `Q‹n›` answer name. Counting is per session;
    /// names another session already committed to the catalog are skipped.
    fn fresh_query_name(&mut self) -> String {
        loop {
            self.query_counter += 1;
            let name = format!("Q{}", self.query_counter);
            if self.ws.index_of(&name).is_none() {
                return name;
            }
        }
    }

    /// Build the WAL action for a write on a durable engine; `None` (log
    /// nothing) on an in-memory engine.
    fn log_action(&self, action: impl FnOnce() -> WalAction) -> Option<WalAction> {
        self.engine.is_durable().then(action)
    }

    /// Run one serialized write through the engine and adopt the published
    /// state. Returns whether the write committed (`false` only for a
    /// rejected DML statement, which leaves the session untouched).
    ///
    /// `wal` is the record of this write for a durable engine (the engine
    /// pairs it with this session's pending selects, whose answers a
    /// working-path commit publishes alongside the write).
    fn write(
        &mut self,
        wal: Option<WalAction>,
        apply: impl FnOnce(
            &WorldSet,
            &BTreeMap<String, Vec<String>>,
        ) -> Result<Option<(WorldSet, BTreeMap<String, Vec<String>>)>>,
    ) -> Result<bool> {
        let spec = wal.map(|action| WalSpec {
            stmts_before: self.pending.clone(),
            start_counter: self.pending_base as u64,
            action,
        });
        // A durable session whose pending-select list overflowed commits
        // as if it were stale: the rebase path publishes none of its
        // local answers, so the WAL record carries no replay list that
        // recovery could fail to reproduce.
        let opened_seq = if spec.is_some() && self.pending_overflow {
            u64::MAX // never a published seq: forces the rebase path
        } else {
            self.opened.seq()
        };
        let (snap, committed) =
            self.engine
                .commit_with((opened_seq, &self.ws, &self.keys), spec, apply)?;
        if committed {
            self.ws = snap.world_set().clone();
            self.keys = snap.keys().clone();
            self.opened = snap;
            self.diverged = false;
            self.pending.clear();
            self.pending_overflow = false;
            self.pending_base = self.query_counter;
        }
        Ok(committed)
    }

    /// `insert`: the rows are added in every world; if the insertion
    /// violates a declared key in *some* world, it is discarded in all
    /// (Section 3, "Data Manipulation"). The batch is merged into each
    /// world's relation in one sorted-merge pass (`Relation::merge_rows`),
    /// not one O(n) shifted insert per row; the key check stops at the
    /// first violating world.
    fn insert(
        &mut self,
        wal: Option<WalAction>,
        table: &str,
        rows: Vec<Vec<Literal>>,
    ) -> Result<ExecOutcome> {
        let values: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|r| r.into_iter().map(lit_to_value).collect())
            .collect();
        let table = table.to_string();
        let applied = self.write(wal, move |ws, keys| {
            let idx = table_index(ws, &table)?;
            let proposed = ws.map_worlds(|w| {
                let rel = w
                    .rel(idx)
                    .merge_rows(values.iter().cloned())
                    .map_err(|e| SqlError(e.to_string()))?;
                Ok(w.replace_rel(idx, rel))
            })?;
            if let Some(key_cols) = keys.get(&table) {
                let key_attrs: Vec<relalg::Attr> =
                    key_cols.iter().map(|c| relalg::Attr::new(c)).collect();
                // Discarded in all worlds as soon as one world violates.
                for w in proposed.iter() {
                    let rel = w.rel(idx);
                    let distinct_keys = rel
                        .distinct_values(&key_attrs)
                        .map_err(|e| SqlError(e.to_string()))?;
                    if distinct_keys.len() != rel.len() {
                        return Ok(None);
                    }
                }
            }
            Ok(Some((proposed, keys.clone())))
        })?;
        Ok(ExecOutcome::Dml { applied })
    }

    /// `delete from R [where φ]` in every world.
    fn delete(
        &mut self,
        wal: Option<WalAction>,
        table: &str,
        cond: Option<Cond>,
    ) -> Result<ExecOutcome> {
        let table = table.to_string();
        self.write(wal, move |ws, keys| {
            let idx = table_index(ws, &table)?;
            let names: Vec<String> = ws.rel_names().to_vec();
            let ws = ws.map_worlds(|w| {
                let rel = w.rel(idx);
                let mut scopes = Scopes::new();
                let mut keep = Vec::new();
                for row in rel.iter() {
                    let matches = match &cond {
                        None => true,
                        Some(c) => eval_cond_public(c, w, &names, rel.schema(), row, &mut scopes)?,
                    };
                    if !matches {
                        keep.push(row.clone());
                    }
                }
                let filtered = Relation::from_rows(rel.schema().clone(), keep)
                    .map_err(|e| SqlError(e.to_string()))?;
                Ok(w.replace_rel(idx, filtered))
            })?;
            Ok(Some((ws, keys.clone())))
        })?;
        Ok(ExecOutcome::Dml { applied: true })
    }

    /// `update R set … [where φ]` in every world.
    fn update(
        &mut self,
        wal: Option<WalAction>,
        table: &str,
        sets: Vec<(String, Scalar)>,
        cond: Option<Cond>,
    ) -> Result<ExecOutcome> {
        let table = table.to_string();
        self.write(wal, move |ws, keys| {
            let idx = table_index(ws, &table)?;
            let names: Vec<String> = ws.rel_names().to_vec();
            let ws = ws.map_worlds(|w| {
                let rel = w.rel(idx);
                let schema = rel.schema();
                let mut scopes = Scopes::new();
                let mut rows = Vec::new();
                for row in rel.iter() {
                    let matches = match &cond {
                        None => true,
                        Some(c) => eval_cond_public(c, w, &names, schema, row, &mut scopes)?,
                    };
                    if matches {
                        rows.push(eval_update_row(&sets, w, &names, schema, row, &mut scopes)?);
                    } else {
                        rows.push(row.clone());
                    }
                }
                let updated = Relation::from_rows(rel.schema().clone(), rows)
                    .map_err(|e| SqlError(e.to_string()))?;
                Ok(w.replace_rel(idx, updated))
            })?;
            Ok(Some((ws, keys.clone())))
        })?;
        Ok(ExecOutcome::Dml { applied: true })
    }
}

fn table_index(ws: &WorldSet, table: &str) -> Result<usize> {
    ws.index_of(table)
        .ok_or_else(|| SqlError(format!("unknown relation {table}")))
}

fn lit_to_value(l: Literal) -> Value {
    match l {
        Literal::Int(i) => Value::Int(i),
        Literal::Str(s) => Value::str(&s),
    }
}
