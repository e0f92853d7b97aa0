//! An I-SQL session: a per-connection handle onto a shared [`Engine`].
//!
//! A `Session` carries its own open [`Snapshot`](crate::Snapshot), a
//! working world-set (the snapshot's world-set plus the `Q‹n›` answers and
//! world splits of the selects run since), per-connection configuration
//! overrides ([`SessionConfig`]), and the `Q1, Q2, …` query counter. Reads
//! never block: a select evaluates against the working world-set with no
//! engine lock held. Writes (DML, views, [`Session::register`],
//! [`Session::declare_key`]) serialize through the engine's single writer
//! and publish a new snapshot for every session to see.
//!
//! # Snapshot isolation
//!
//! A session *auto-refreshes* to the latest published snapshot at each
//! select, **until** it has run one — from then on it keeps reading the
//! snapshot its answers were computed from, so every answer in one line
//! of investigation is consistent with one database state.
//!
//! A select's answers stay in the session. Figure 3 extends each world
//! *of the session* by a select's `Q‹n›` answer, and so does this
//! session; no write publishes that answer, nor the world split a
//! `choice of` or `repair by key` select makes. `create view` is how an
//! answer or a split reaches the catalog and other sessions.
//!
//! Every write applies to the latest published snapshot and publishes only
//! the relations its statement writes. DML in a session whose select split
//! the worlds therefore applies to the snapshot's worlds, as it does in
//! any other session. After a committed write the session adopts the
//! published snapshot: its local answers and splits are dropped, and it
//! auto-refreshes again. A rejected DML statement commits nothing and
//! leaves the session as it was.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use relalg::config::SessionConfig;
use relalg::{Relation, Value};
use worldset::{World, WorldSet};

use crate::ast::*;
use crate::durable::{self, WalAction};
use crate::engine::{Engine, Snapshot};
use crate::interp::{delete_rows, eval_select_ws, update_rows};
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
/// [`Engine`] under the hood, so a script sees only its own writes. To
/// serve several connections over one catalog, create one [`Engine`] and
/// call [`Engine::session`] per connection.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    /// The published snapshot this session last synchronized with.
    opened: Arc<Snapshot>,
    /// The working world-set: `opened`'s world-set plus local query
    /// results/world splits (when `diverged`).
    ws: WorldSet,
    /// Whether `ws` holds local state beyond `opened` (suspends
    /// auto-refresh until the next committed write).
    diverged: bool,
    config: SessionConfig,
    query_counter: usize,
}

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
        let engine = Engine::with_state(self.ws.clone(), self.opened.keys().clone());
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
            opened,
            engine,
            diverged: false,
            config: SessionConfig::new(),
            query_counter: 0,
        }
    }

    /// The engine this session executes against.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The published snapshot this session is currently synchronized with.
    /// While the session holds local query results, this is the snapshot
    /// they were computed from.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
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
        let shared = Arc::new(rel);
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
    /// effect for the duration of the statement.
    pub fn run(&mut self, stmt: Stmt) -> Result<ExecOutcome> {
        let _session_cfg = relalg::config::overlay(&self.config);
        // A write's WAL record on a durable engine carries its I-SQL text,
        // refused here, before it runs, if it does not parse back.
        let wal = match &stmt {
            Stmt::Select(_) | Stmt::SetLocal { .. } => None,
            write if self.engine.is_durable() => {
                Some(WalAction::Stmt(durable::logged_text(write)?))
            }
            _ => None,
        };
        match stmt {
            Stmt::Select(sel) => {
                self.refresh_if_clean();
                let counter_before = self.query_counter;
                let name = self.fresh_query_name();
                self.ws = match eval_select_ws(&sel, &self.ws, &name) {
                    Ok(ws) => ws,
                    Err(e) => {
                        // A failed select adds no answer, so it must not
                        // consume a `Q‹n›` slot: the session's next select
                        // takes this name, and the numbering a user reads
                        // has no gaps.
                        self.query_counter = counter_before;
                        return Err(e);
                    }
                };
                self.diverged = true;
                Ok(ExecOutcome::Rows {
                    answers: self.answers(&name)?,
                    name,
                })
            }
            Stmt::CreateView { name, query } => {
                let out_name = name.clone();
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
            // DML builds new relations (fresh epoch tags), so the optimizer
            // memo's `(name, epoch)` keys for the mutated table stop
            // matching; no evaluation memo outlives a statement.
            Stmt::Insert { table, rows } => self.insert(wal, &table, rows),
            Stmt::Delete { table, cond } => self.delete(wal, &table, cond),
            Stmt::Update { table, sets, cond } => self.update(wal, &table, sets, cond),
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
            self.opened = latest;
        }
    }

    /// The next unused `Q‹n›` answer name. Counting is per session; a name
    /// the catalog already holds (a view or table called `Q‹n›`) is skipped.
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
    /// state, dropping the session's local answers and splits. Returns
    /// whether the write committed (`false` only for a rejected DML
    /// statement, which leaves the session untouched).
    ///
    /// `wal` is the record of this write for a durable engine.
    fn write(
        &mut self,
        wal: Option<WalAction>,
        apply: impl FnOnce(
            &WorldSet,
            &BTreeMap<String, Vec<String>>,
        ) -> Result<Option<(WorldSet, BTreeMap<String, Vec<String>>)>>,
    ) -> Result<bool> {
        let (snap, committed) = self.engine.commit_with(wal, apply)?;
        if committed {
            self.ws = snap.world_set().clone();
            self.opened = snap;
            self.diverged = false;
        }
        Ok(committed)
    }

    /// `insert`: the rows are added in every world; if the insertion
    /// violates a declared key in *some* world, it is discarded in all
    /// (Section 3, "Data Manipulation"). The batch is merged into each
    /// distinct relation instance in one sorted-merge pass
    /// (`Relation::merge_rows`), not one O(n) shifted insert per row, and
    /// worlds that shared the relation share its successor; the key check
    /// runs once per distinct successor and stops at the first violation.
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
            let proposed = map_table(ws, idx, true, |w| {
                w.rel(idx)
                    .merge_rows(values.iter().cloned())
                    .map_err(|e| SqlError(e.to_string()))
            })?;
            if let Some(key_cols) = keys.get(&table) {
                let key_attrs: Vec<relalg::Attr> =
                    key_cols.iter().map(|c| relalg::Attr::new(c)).collect();
                // Discarded in all worlds as soon as one world violates.
                let mut checked = HashSet::new();
                for w in proposed.iter() {
                    if !checked.insert(Arc::as_ptr(w.rel_shared(idx))) {
                        continue;
                    }
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
            let per_relation = !cond.as_ref().is_some_and(Cond::reads_relations);
            let ws = map_table(ws, idx, per_relation, |w| {
                delete_rows(w.rel(idx), cond.as_ref(), w, &names)
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
            let per_relation = !cond.as_ref().is_some_and(Cond::reads_relations)
                && !sets.iter().any(|(_, expr)| expr.reads_relations());
            let ws = map_table(ws, idx, per_relation, |w| {
                update_rows(w.rel(idx), &sets, cond.as_ref(), w, &names)
            })?;
            Ok(Some((ws, keys.clone())))
        })?;
        Ok(ExecOutcome::Dml { applied: true })
    }
}

/// `ws` with relation `idx` of every world replaced by its DML successor
/// `successor(world)`. A statement that changed no row returns a clone of
/// the old relation (same epoch), and the world keeps the relation's
/// `Arc`. With `per_relation` the successor depends on the old relation
/// alone (the statement reads no other relation), so it is computed once
/// per distinct `Arc` and the worlds that shared the old relation share
/// the new one.
fn map_table(
    ws: &WorldSet,
    idx: usize,
    per_relation: bool,
    mut successor: impl FnMut(&World) -> Result<Relation>,
) -> Result<WorldSet> {
    let mut memo: HashMap<*const Relation, Arc<Relation>> = HashMap::new();
    ws.map_worlds(|w| {
        let old = w.rel_shared(idx);
        let next = match memo.get(&Arc::as_ptr(old)) {
            Some(next) => next.clone(),
            None => {
                let rel = successor(w)?;
                let next = if rel.epoch() == old.epoch() {
                    old.clone()
                } else {
                    Arc::new(rel)
                };
                if per_relation {
                    memo.insert(Arc::as_ptr(old), next.clone());
                }
                next
            }
        };
        Ok(if Arc::ptr_eq(&next, old) {
            w.clone()
        } else {
            w.replace_rel(idx, next)
        })
    })
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
