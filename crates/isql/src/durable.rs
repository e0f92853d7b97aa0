//! The durability layer: write-ahead logging, binary snapshots, recovery.
//!
//! # What is durable
//!
//! Every *committed write* — DML, `create view`, [`crate::Session::register`],
//! [`crate::Session::declare_key`] — is one checksummed, sequence-stamped
//! WAL record, fsynced before the commit is acknowledged. Because a
//! session's working commit can also publish the `Q‹n›` answers of selects
//! it ran since its last synchronization, each record carries those
//! pending select statements (plus the query-counter base) so replay
//! reproduces the committed catalog exactly; a rebased commit publishes no
//! local results, so its record carries none.
//!
//! Explicitly **not** durable: `set local` (a per-connection tuning
//! override; results are config-independent, so replay under default
//! configuration is unaffected), uncommitted session-local query results,
//! and rejected DML (which publishes nothing).
//!
//! One commit's WAL payload is capped at [`wsdb_env::wal::MAX_PAYLOAD`]
//! (1 GiB): a larger commit — e.g. registering an enormous relation —
//! fails up front with `InvalidInput` instead of being acknowledged and
//! then silently discarded as a torn record at recovery.
//!
//! # WAL record payload
//!
//! A [`wsdb_env::wal`]-framed record whose payload is one
//! [`relalg::codec`] message: the session's query-counter base, the
//! pending select statements, then the action — a statement
//! (tag 0), a registered relation (tag 1, full relation codec), or a key
//! declaration (tag 2). Statements serialize as a compact binary AST
//! (every node type of [`crate::ast`]), not as re-parsed text, so string
//! literals round-trip byte-exactly.
//!
//! # Snapshot payload
//!
//! `seq`, the relation-name list, a relation *pool* deduplicated by epoch
//! tag, each world as a list of pool indices, the key constraints, and
//! the epoch-set cardinality. Decoding assigns fresh epochs (process
//! epochs are not portable across restarts) but preserves the *sharing
//! structure* — which relation instances are the same object — and
//! verifies the recovered epoch-set cardinality against the stored one.
//!
//! # Recovery protocol
//!
//! [`crate::Engine::open`]: load the newest snapshot that passes its
//! checksum, replay WAL records after its sequence number (discarding a
//! torn or corrupt tail), then *bootstrap*: write a fresh snapshot at the
//! recovered sequence, delete all WAL files and older snapshots, and
//! start a new WAL. Bootstrap-first means the new WAL never shares a file
//! with torn pre-crash bytes.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use relalg::codec::{CodecError, Dec, Enc};
use relalg::Relation;
use worldset::{World, WorldSet};
use wsdb_env::wal::{read_records, WalWriter};
use wsdb_env::{
    parse_snap_name, parse_wal_name, read_snapshot_file, snap_file_name, wal_file_name,
    write_snapshot_file, Env,
};

use crate::ast::*;
use crate::engine::Engine;
use crate::lexer::SqlError;

/// Tuning of the durability layer.
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// Write a snapshot (and truncate the WAL) every this many commits.
    /// Defaults to `WSDB_SNAPSHOT_EVERY` or 1024.
    pub snapshot_every: u64,
    /// Snapshot on a background thread (default) instead of inline on the
    /// committing thread. Tests disable this so every I/O operation has a
    /// deterministic index for fault injection.
    pub background_snapshots: bool,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        let snapshot_every = std::env::var("WSDB_SNAPSHOT_EVERY")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1024);
        DurabilityOptions {
            snapshot_every,
            background_snapshots: true,
        }
    }
}

/// The action a WAL record replays.
#[derive(Debug)]
pub(crate) enum WalAction {
    /// A committed statement (DML or `create view`).
    Stmt(Box<Stmt>),
    /// A base relation registered via the API.
    Register { name: String, rel: Arc<Relation> },
    /// A key constraint declared via the API.
    DeclareKey { table: String, cols: Vec<String> },
}

/// Everything the session hands the engine to log one commit.
#[derive(Debug)]
pub(crate) struct WalSpec {
    /// Selects run since the session's last synchronization — their `Q‹n›`
    /// answers ride into the published snapshot on a working-path commit.
    pub stmts_before: Vec<SelectStmt>,
    /// The session query counter before the first pending select.
    pub start_counter: u64,
    /// The committed action.
    pub action: WalAction,
}

struct WalRecord {
    start_counter: u64,
    stmts_before: Vec<SelectStmt>,
    action: WalAction,
}

pub(crate) fn encode_wal_record(spec: &WalSpec, rebased: bool) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_varint(spec.start_counter);
    if rebased {
        // A rebased commit applies to the latest published state and
        // leaves the session's local query results behind: nothing to
        // replay before the action.
        e.put_varint(0);
    } else {
        e.put_varint(spec.stmts_before.len() as u64);
        for s in &spec.stmts_before {
            put_select(&mut e, s);
        }
    }
    match &spec.action {
        WalAction::Stmt(stmt) => {
            e.put_u8(0);
            put_stmt(&mut e, stmt);
        }
        WalAction::Register { name, rel } => {
            e.put_u8(1);
            e.put_str(name);
            e.put_relation(rel);
        }
        WalAction::DeclareKey { table, cols } => {
            e.put_u8(2);
            e.put_str(table);
            e.put_varint(cols.len() as u64);
            for c in cols {
                e.put_str(c);
            }
        }
    }
    e.finish()
}

fn decode_wal_record(payload: &[u8]) -> Result<WalRecord, CodecError> {
    let mut d = Dec::new(payload)?;
    let start_counter = d.get_varint()?;
    let n = d.get_varint()? as usize;
    let mut stmts_before = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        stmts_before.push(get_select(&mut d)?);
    }
    let action = match d.get_u8()? {
        0 => WalAction::Stmt(Box::new(get_stmt(&mut d)?)),
        1 => {
            let name = d.get_string()?;
            let rel = d.get_relation()?;
            WalAction::Register {
                name,
                rel: Arc::new(rel),
            }
        }
        2 => {
            let table = d.get_string()?;
            let n = d.get_varint()? as usize;
            let mut cols = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                cols.push(d.get_string()?);
            }
            WalAction::DeclareKey { table, cols }
        }
        tag => return Err(CodecError(format!("unknown WAL action tag {tag}"))),
    };
    Ok(WalRecord {
        start_counter,
        stmts_before,
        action,
    })
}

// ---------------------------------------------------------------- AST codec

fn put_opt_str(e: &mut Enc, s: &Option<String>) {
    match s {
        None => e.put_u8(0),
        Some(s) => {
            e.put_u8(1);
            e.put_str(s);
        }
    }
}

fn get_opt_str(d: &mut Dec) -> Result<Option<String>, CodecError> {
    match d.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(d.get_string()?)),
        t => Err(CodecError(format!("bad option flag {t}"))),
    }
}

fn put_colref(e: &mut Enc, c: &ColRef) {
    put_opt_str(e, &c.qualifier);
    e.put_str(&c.name);
}

fn get_colref(d: &mut Dec) -> Result<ColRef, CodecError> {
    let qualifier = get_opt_str(d)?;
    let name = d.get_string()?;
    Ok(ColRef { qualifier, name })
}

fn put_colrefs(e: &mut Enc, cols: &[ColRef]) {
    e.put_varint(cols.len() as u64);
    for c in cols {
        put_colref(e, c);
    }
}

fn get_colrefs(d: &mut Dec) -> Result<Vec<ColRef>, CodecError> {
    let n = d.get_varint()? as usize;
    let mut cols = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        cols.push(get_colref(d)?);
    }
    Ok(cols)
}

fn put_literal(e: &mut Enc, l: &Literal) {
    match l {
        Literal::Int(i) => {
            e.put_u8(0);
            e.put_i64(*i);
        }
        Literal::Str(s) => {
            e.put_u8(1);
            e.put_str(s);
        }
    }
}

fn get_literal(d: &mut Dec) -> Result<Literal, CodecError> {
    match d.get_u8()? {
        0 => Ok(Literal::Int(d.get_i64()?)),
        1 => Ok(Literal::Str(d.get_string()?)),
        t => Err(CodecError(format!("unknown literal tag {t}"))),
    }
}

fn put_scalar(e: &mut Enc, s: &Scalar) {
    match s {
        Scalar::Col(c) => {
            e.put_u8(0);
            put_colref(e, c);
        }
        Scalar::Lit(l) => {
            e.put_u8(1);
            put_literal(e, l);
        }
        Scalar::Agg(f, inner) => {
            e.put_u8(2);
            e.put_u8(match f {
                AggFn::Sum => 0,
                AggFn::Count => 1,
                AggFn::Min => 2,
                AggFn::Max => 3,
                AggFn::Avg => 4,
            });
            put_scalar(e, inner);
        }
        Scalar::CountStar => e.put_u8(3),
        Scalar::Arith(op, a, b) => {
            e.put_u8(4);
            e.put_u8(match op {
                ArithOp::Add => 0,
                ArithOp::Sub => 1,
                ArithOp::Mul => 2,
                ArithOp::Div => 3,
            });
            put_scalar(e, a);
            put_scalar(e, b);
        }
        Scalar::Subquery(q) => {
            e.put_u8(5);
            put_select(e, q);
        }
    }
}

fn get_scalar(d: &mut Dec) -> Result<Scalar, CodecError> {
    Ok(match d.get_u8()? {
        0 => Scalar::Col(get_colref(d)?),
        1 => Scalar::Lit(get_literal(d)?),
        2 => {
            let f = match d.get_u8()? {
                0 => AggFn::Sum,
                1 => AggFn::Count,
                2 => AggFn::Min,
                3 => AggFn::Max,
                4 => AggFn::Avg,
                t => return Err(CodecError(format!("unknown aggregate tag {t}"))),
            };
            Scalar::Agg(f, Box::new(get_scalar(d)?))
        }
        3 => Scalar::CountStar,
        4 => {
            let op = match d.get_u8()? {
                0 => ArithOp::Add,
                1 => ArithOp::Sub,
                2 => ArithOp::Mul,
                3 => ArithOp::Div,
                t => return Err(CodecError(format!("unknown arithmetic tag {t}"))),
            };
            Scalar::Arith(op, Box::new(get_scalar(d)?), Box::new(get_scalar(d)?))
        }
        5 => Scalar::Subquery(Box::new(get_select(d)?)),
        t => return Err(CodecError(format!("unknown scalar tag {t}"))),
    })
}

fn put_cmp(e: &mut Enc, op: CmpOp) {
    e.put_u8(match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    });
}

fn get_cmp(d: &mut Dec) -> Result<CmpOp, CodecError> {
    Ok(match d.get_u8()? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(CodecError(format!("unknown comparison tag {t}"))),
    })
}

fn put_cond(e: &mut Enc, c: &Cond) {
    match c {
        Cond::Cmp(a, op, b) => {
            e.put_u8(0);
            put_scalar(e, a);
            put_cmp(e, *op);
            put_scalar(e, b);
        }
        Cond::In {
            expr,
            query,
            negated,
        } => {
            e.put_u8(1);
            put_scalar(e, expr);
            put_select(e, query);
            e.put_u8(*negated as u8);
        }
        Cond::Exists { query, negated } => {
            e.put_u8(2);
            put_select(e, query);
            e.put_u8(*negated as u8);
        }
        Cond::And(a, b) => {
            e.put_u8(3);
            put_cond(e, a);
            put_cond(e, b);
        }
        Cond::Or(a, b) => {
            e.put_u8(4);
            put_cond(e, a);
            put_cond(e, b);
        }
        Cond::Not(a) => {
            e.put_u8(5);
            put_cond(e, a);
        }
    }
}

fn get_bool(d: &mut Dec) -> Result<bool, CodecError> {
    match d.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(CodecError(format!("bad bool flag {t}"))),
    }
}

fn get_cond(d: &mut Dec) -> Result<Cond, CodecError> {
    Ok(match d.get_u8()? {
        0 => {
            let a = get_scalar(d)?;
            let op = get_cmp(d)?;
            let b = get_scalar(d)?;
            Cond::Cmp(a, op, b)
        }
        1 => {
            let expr = get_scalar(d)?;
            let query = Box::new(get_select(d)?);
            let negated = get_bool(d)?;
            Cond::In {
                expr,
                query,
                negated,
            }
        }
        2 => {
            let query = Box::new(get_select(d)?);
            let negated = get_bool(d)?;
            Cond::Exists { query, negated }
        }
        3 => Cond::And(Box::new(get_cond(d)?), Box::new(get_cond(d)?)),
        4 => Cond::Or(Box::new(get_cond(d)?), Box::new(get_cond(d)?)),
        5 => Cond::Not(Box::new(get_cond(d)?)),
        t => return Err(CodecError(format!("unknown condition tag {t}"))),
    })
}

fn put_opt_cond(e: &mut Enc, c: &Option<Cond>) {
    match c {
        None => e.put_u8(0),
        Some(c) => {
            e.put_u8(1);
            put_cond(e, c);
        }
    }
}

fn get_opt_cond(d: &mut Dec) -> Result<Option<Cond>, CodecError> {
    match d.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_cond(d)?)),
        t => Err(CodecError(format!("bad option flag {t}"))),
    }
}

fn put_select(e: &mut Enc, s: &SelectStmt) {
    e.put_u8(match s.quant {
        None => 0,
        Some(Quant::Possible) => 1,
        Some(Quant::Certain) => 2,
    });
    e.put_varint(s.items.len() as u64);
    for item in &s.items {
        match item {
            SelectItem::Star => e.put_u8(0),
            SelectItem::Expr { expr, alias } => {
                e.put_u8(1);
                put_scalar(e, expr);
                put_opt_str(e, alias);
            }
        }
    }
    e.put_varint(s.from.len() as u64);
    for f in &s.from {
        match f {
            FromItem::Table { name, alias } => {
                e.put_u8(0);
                e.put_str(name);
                put_opt_str(e, alias);
            }
            FromItem::Subquery { query, alias } => {
                e.put_u8(1);
                put_select(e, query);
                e.put_str(alias);
            }
        }
    }
    put_opt_cond(e, &s.where_cond);
    put_colrefs(e, &s.group_by);
    put_colrefs(e, &s.choice_of);
    put_colrefs(e, &s.repair_by_key);
    match &s.group_worlds_by {
        None => e.put_u8(0),
        Some(GroupWorldsBy::Columns(cols)) => {
            e.put_u8(1);
            put_colrefs(e, cols);
        }
        Some(GroupWorldsBy::Query(q)) => {
            e.put_u8(2);
            put_select(e, q);
        }
    }
}

fn get_select(d: &mut Dec) -> Result<SelectStmt, CodecError> {
    let quant = match d.get_u8()? {
        0 => None,
        1 => Some(Quant::Possible),
        2 => Some(Quant::Certain),
        t => return Err(CodecError(format!("unknown quantifier tag {t}"))),
    };
    let n_items = d.get_varint()? as usize;
    let mut items = Vec::with_capacity(n_items.min(1 << 16));
    for _ in 0..n_items {
        items.push(match d.get_u8()? {
            0 => SelectItem::Star,
            1 => {
                let expr = get_scalar(d)?;
                let alias = get_opt_str(d)?;
                SelectItem::Expr { expr, alias }
            }
            t => return Err(CodecError(format!("unknown select-item tag {t}"))),
        });
    }
    let n_from = d.get_varint()? as usize;
    let mut from = Vec::with_capacity(n_from.min(1 << 16));
    for _ in 0..n_from {
        from.push(match d.get_u8()? {
            0 => {
                let name = d.get_string()?;
                let alias = get_opt_str(d)?;
                FromItem::Table { name, alias }
            }
            1 => {
                let query = Box::new(get_select(d)?);
                let alias = d.get_string()?;
                FromItem::Subquery { query, alias }
            }
            t => return Err(CodecError(format!("unknown from-item tag {t}"))),
        });
    }
    let where_cond = get_opt_cond(d)?;
    let group_by = get_colrefs(d)?;
    let choice_of = get_colrefs(d)?;
    let repair_by_key = get_colrefs(d)?;
    let group_worlds_by = match d.get_u8()? {
        0 => None,
        1 => Some(GroupWorldsBy::Columns(get_colrefs(d)?)),
        2 => Some(GroupWorldsBy::Query(Box::new(get_select(d)?))),
        t => return Err(CodecError(format!("unknown group-worlds tag {t}"))),
    };
    Ok(SelectStmt {
        quant,
        items,
        from,
        where_cond,
        group_by,
        choice_of,
        repair_by_key,
        group_worlds_by,
    })
}

fn put_stmt(e: &mut Enc, s: &Stmt) {
    match s {
        Stmt::Select(sel) => {
            e.put_u8(0);
            put_select(e, sel);
        }
        Stmt::CreateView { name, query } => {
            e.put_u8(1);
            e.put_str(name);
            put_select(e, query);
        }
        Stmt::Insert { table, rows } => {
            e.put_u8(2);
            e.put_str(table);
            e.put_varint(rows.len() as u64);
            for row in rows {
                e.put_varint(row.len() as u64);
                for l in row {
                    put_literal(e, l);
                }
            }
        }
        Stmt::Delete { table, cond } => {
            e.put_u8(3);
            e.put_str(table);
            put_opt_cond(e, cond);
        }
        Stmt::Update { table, sets, cond } => {
            e.put_u8(4);
            e.put_str(table);
            e.put_varint(sets.len() as u64);
            for (col, scalar) in sets {
                e.put_str(col);
                put_scalar(e, scalar);
            }
            put_opt_cond(e, cond);
        }
        Stmt::SetLocal { name, value } => {
            e.put_u8(5);
            e.put_str(name);
            e.put_str(value);
        }
    }
}

fn get_stmt(d: &mut Dec) -> Result<Stmt, CodecError> {
    Ok(match d.get_u8()? {
        0 => Stmt::Select(get_select(d)?),
        1 => {
            let name = d.get_string()?;
            let query = get_select(d)?;
            Stmt::CreateView { name, query }
        }
        2 => {
            let table = d.get_string()?;
            let n_rows = d.get_varint()? as usize;
            let mut rows = Vec::with_capacity(n_rows.min(1 << 16));
            for _ in 0..n_rows {
                let n = d.get_varint()? as usize;
                let mut row = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    row.push(get_literal(d)?);
                }
                rows.push(row);
            }
            Stmt::Insert { table, rows }
        }
        3 => {
            let table = d.get_string()?;
            let cond = get_opt_cond(d)?;
            Stmt::Delete { table, cond }
        }
        4 => {
            let table = d.get_string()?;
            let n = d.get_varint()? as usize;
            let mut sets = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let col = d.get_string()?;
                let scalar = get_scalar(d)?;
                sets.push((col, scalar));
            }
            let cond = get_opt_cond(d)?;
            Stmt::Update { table, sets, cond }
        }
        5 => {
            let name = d.get_string()?;
            let value = d.get_string()?;
            Stmt::SetLocal { name, value }
        }
        t => return Err(CodecError(format!("unknown statement tag {t}"))),
    })
}

// ---------------------------------------------------------- snapshot codec

pub(crate) fn encode_snapshot(
    seq: u64,
    ws: &WorldSet,
    keys: &BTreeMap<String, Vec<String>>,
) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_varint(seq);
    let names = ws.rel_names();
    e.put_varint(names.len() as u64);
    for n in names {
        e.put_str(n);
    }
    // Relation pool, deduplicated by epoch tag: equal epochs imply equal
    // content (the PR 5 invariant), so each distinct instance serializes
    // once and worlds reference it by pool index. This preserves both the
    // bytes and the sharing structure across a restart.
    let mut pool_index: BTreeMap<u64, u64> = BTreeMap::new();
    let mut pool: Vec<&Arc<Relation>> = Vec::new();
    let mut world_refs: Vec<Vec<u64>> = Vec::new();
    for w in ws.iter() {
        let mut refs = Vec::with_capacity(names.len());
        for r in w.rels() {
            let next = pool.len() as u64;
            let idx = *pool_index.entry(r.epoch()).or_insert_with(|| {
                pool.push(r);
                next
            });
            refs.push(idx);
        }
        world_refs.push(refs);
    }
    e.put_varint(pool.len() as u64);
    for r in &pool {
        e.put_relation(r);
    }
    e.put_varint(world_refs.len() as u64);
    for refs in &world_refs {
        for &i in refs {
            e.put_varint(i);
        }
    }
    e.put_varint(keys.len() as u64);
    for (table, cols) in keys {
        e.put_str(table);
        e.put_varint(cols.len() as u64);
        for c in cols {
            e.put_str(c);
        }
    }
    // Integrity tail: the epoch-set cardinality the decoder must be able
    // to reproduce from the sharing structure alone.
    e.put_varint(pool.len() as u64);
    e.finish()
}

type Keys = BTreeMap<String, Vec<String>>;

pub(crate) fn decode_snapshot(body: &[u8]) -> Result<(u64, WorldSet, Keys), CodecError> {
    let mut d = Dec::new(body)?;
    let seq = d.get_varint()?;
    let n_names = d.get_varint()? as usize;
    let mut names = Vec::with_capacity(n_names.min(1 << 16));
    for _ in 0..n_names {
        names.push(d.get_string()?);
    }
    let pool_len = d.get_varint()? as usize;
    if pool_len > body.len() {
        return Err(CodecError("relation pool count exceeds input size".into()));
    }
    let mut pool: Vec<Arc<Relation>> = Vec::with_capacity(pool_len);
    for _ in 0..pool_len {
        pool.push(Arc::new(d.get_relation()?));
    }
    let n_worlds = d.get_varint()? as usize;
    if n_worlds > body.len() {
        return Err(CodecError("world count exceeds input size".into()));
    }
    let mut worlds = Vec::with_capacity(n_worlds);
    for _ in 0..n_worlds {
        let mut rels = Vec::with_capacity(n_names);
        for _ in 0..n_names {
            let i = d.get_varint()? as usize;
            let rel = pool
                .get(i)
                .cloned()
                .ok_or_else(|| CodecError(format!("relation pool index {i} out of range")))?;
            rels.push(rel);
        }
        worlds.push(World::from_shared(rels));
    }
    let ws = WorldSet::from_worlds(names, worlds)
        .map_err(|e| CodecError(format!("persisted world-set is invalid: {e}")))?;
    if ws.len() != n_worlds {
        return Err(CodecError("persisted worlds are not distinct".into()));
    }
    let n_keys = d.get_varint()? as usize;
    let mut keys = Keys::new();
    for _ in 0..n_keys {
        let table = d.get_string()?;
        let n = d.get_varint()? as usize;
        let mut cols = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            cols.push(d.get_string()?);
        }
        keys.insert(table, cols);
    }
    let epoch_count = d.get_varint()?;
    let mut epochs: Vec<u64> = ws
        .iter()
        .flat_map(|w| w.rels().iter().map(|r| r.epoch()))
        .collect();
    epochs.sort_unstable();
    epochs.dedup();
    if epochs.len() as u64 != epoch_count {
        return Err(CodecError(format!(
            "recovered epoch set has {} entries, snapshot recorded {epoch_count}",
            epochs.len()
        )));
    }
    Ok((seq, ws, keys))
}

// ------------------------------------------------------------ the runtime

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn codec_to_io(e: CodecError) -> io::Error {
    invalid(e.to_string())
}

pub(crate) fn io_to_sql(e: io::Error) -> SqlError {
    SqlError(format!("durability failure: {e}"))
}

/// The state [`recover`] reconstructs from a data directory.
pub(crate) struct Recovered {
    pub ws: WorldSet,
    pub keys: Keys,
    pub seq: u64,
}

/// Load the newest valid snapshot and replay the WAL tail on a private
/// in-memory engine. Torn or corrupt trailing WAL records are discarded
/// (they were never acknowledged); a replayed record that does not
/// publish its recorded sequence number is `InvalidData`.
pub(crate) fn recover(env: &dyn Env) -> io::Result<Recovered> {
    let files = env.list()?;
    let mut snap_seqs: Vec<u64> = files.iter().filter_map(|f| parse_snap_name(f)).collect();
    snap_seqs.sort_unstable();
    let mut base: Option<(u64, WorldSet, Keys)> = None;
    let mut last_err: Option<io::Error> = None;
    for &s in snap_seqs.iter().rev() {
        match read_snapshot_file(env, &snap_file_name(s))
            .and_then(|body| decode_snapshot(&body).map_err(codec_to_io))
        {
            Ok((seq, ws, keys)) if seq == s => {
                base = Some((seq, ws, keys));
                break;
            }
            Ok((seq, _, _)) => {
                last_err = Some(invalid(format!("snapshot {s} encodes sequence {seq}")))
            }
            Err(e) => last_err = Some(e),
        }
    }
    let (mut seq, ws, keys) = match base {
        Some((seq, ws, keys)) => (seq, ws, keys),
        None => {
            if let Some(e) = last_err {
                // Snapshots exist but none decodes: the directory is
                // damaged beyond what WAL replay can repair.
                return Err(e);
            }
            (0, WorldSet::single(vec![]), Keys::new())
        }
    };
    // Replay on a private, non-durable engine seeded at the snapshot.
    let engine = Engine::with_parts(ws, keys, seq, None);
    let mut wal_bases: Vec<u64> = files.iter().filter_map(|f| parse_wal_name(f)).collect();
    wal_bases.sort_unstable();
    for b in wal_bases {
        if b < seq {
            // Rotation happens before the covering snapshot is written,
            // so a WAL file older than the snapshot holds only records
            // the snapshot already contains.
            continue;
        }
        if b > seq {
            // A gap: records b.. are missing, so nothing in this file
            // can chain onto the recovered state.
            break;
        }
        for (rseq, payload) in read_records(env, &wal_file_name(b), b + 1)? {
            replay_record(&engine, &payload, rseq)?;
            seq = rseq;
        }
    }
    let snap = engine.snapshot();
    Ok(Recovered {
        ws: snap.world_set().clone(),
        keys: snap.keys().clone(),
        seq,
    })
}

fn replay_fail(seq: u64, e: SqlError) -> io::Error {
    invalid(format!("WAL replay of record {seq} failed: {e}"))
}

fn replay_record(engine: &Engine, payload: &[u8], expect_seq: u64) -> io::Result<()> {
    let rec = decode_wal_record(payload).map_err(codec_to_io)?;
    let mut session = engine.session();
    session.set_query_counter(rec.start_counter as usize);
    for sel in rec.stmts_before {
        session
            .run(Stmt::Select(sel))
            .map_err(|e| replay_fail(expect_seq, e))?;
    }
    match rec.action {
        WalAction::Stmt(stmt) => {
            session.run(*stmt).map_err(|e| replay_fail(expect_seq, e))?;
        }
        WalAction::Register { name, rel } => {
            let rel = Arc::try_unwrap(rel).unwrap_or_else(|arc| (*arc).clone());
            session
                .register(&name, rel)
                .map_err(|e| replay_fail(expect_seq, e))?;
        }
        WalAction::DeclareKey { table, cols } => {
            let cols: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
            session
                .declare_key(&table, &cols)
                .map_err(|e| replay_fail(expect_seq, e))?;
        }
    }
    let seq = engine.snapshot().seq();
    if seq != expect_seq {
        return Err(invalid(format!(
            "WAL replay of record {expect_seq} published sequence {seq}"
        )));
    }
    Ok(())
}

/// The engine's handle on its data directory: the live WAL writer plus
/// snapshot bookkeeping. One fsync failure poisons the handle — later
/// commits fail rather than silently diverging from the log.
#[derive(Debug)]
pub(crate) struct Durability {
    env: Arc<dyn Env>,
    opts: DurabilityOptions,
    wal: Mutex<Arc<WalWriter<dyn Env>>>,
    last_snap: AtomicU64,
    snapshotting: AtomicBool,
    poisoned: AtomicBool,
}

impl Durability {
    /// Seal a recovered state: write a snapshot at its sequence, delete
    /// every WAL file (their live tails are folded into the snapshot —
    /// and a fresh log must never share a file with torn pre-crash
    /// bytes) and older snapshots, then start a new WAL.
    pub(crate) fn bootstrap(
        env: Arc<dyn Env>,
        opts: DurabilityOptions,
        rec: &Recovered,
    ) -> io::Result<Durability> {
        let body = encode_snapshot(rec.seq, &rec.ws, &rec.keys);
        write_snapshot_file(env.as_ref(), &snap_file_name(rec.seq), &body)?;
        for f in env.list()? {
            let stale_snap = parse_snap_name(&f).is_some_and(|s| s != rec.seq);
            if stale_snap || parse_wal_name(&f).is_some() {
                env.remove(&f)?;
            }
        }
        let wal = WalWriter::create(env.clone(), wal_file_name(rec.seq), rec.seq);
        Ok(Durability {
            env,
            opts,
            wal: Mutex::new(Arc::new(wal)),
            last_snap: AtomicU64::new(rec.seq),
            snapshotting: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        })
    }

    fn writer(&self) -> Arc<WalWriter<dyn Env>> {
        self.wal.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
    }

    /// Append the WAL record for `seq` (caller holds the engine writer
    /// lock, so appends are in sequence order). Returns the writer the
    /// record went to, for the matching [`Durability::sync`].
    pub(crate) fn append(&self, seq: u64, payload: &[u8]) -> io::Result<Arc<WalWriter<dyn Env>>> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(io::Error::other(
                "durability layer is poisoned by an earlier failure",
            ));
        }
        if payload.len() > wsdb_env::wal::MAX_PAYLOAD {
            // Nothing reaches the log: fail this one commit (e.g. a
            // register of an enormous relation) without poisoning the
            // engine. frame_record enforces the same bound as a
            // backstop, but an error from inside the writer poisons.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "commit payload of {} bytes exceeds the {}-byte WAL record limit",
                    payload.len(),
                    wsdb_env::wal::MAX_PAYLOAD
                ),
            ));
        }
        let w = self.writer();
        if let Err(e) = w.append(seq, payload) {
            self.poison();
            return Err(e);
        }
        Ok(w)
    }

    /// Group-commit fsync of record `seq` on the writer it was appended
    /// to. Only after this returns is the commit acknowledged.
    pub(crate) fn sync(&self, w: &WalWriter<dyn Env>, seq: u64) -> io::Result<()> {
        if let Err(e) = w.sync_to(seq) {
            self.poison();
            return Err(e);
        }
        Ok(())
    }

    /// Checkpoint if `snapshot_every` commits have accumulated since the
    /// last snapshot. Never blocks correctness: checkpoint failures are
    /// reported and swallowed (the WAL keeps everything durable).
    pub(crate) fn maybe_snapshot(&self, engine: &Engine, seq: u64) {
        if self.poisoned.load(Ordering::SeqCst) {
            return;
        }
        if seq.saturating_sub(self.last_snap.load(Ordering::SeqCst)) < self.opts.snapshot_every {
            return;
        }
        if self.snapshotting.swap(true, Ordering::SeqCst) {
            return; // one at a time
        }
        if self.opts.background_snapshots {
            let engine = engine.clone();
            std::thread::spawn(move || {
                if let Err(e) = engine.checkpoint() {
                    eprintln!("wsdb: background snapshot failed: {e}");
                }
                if let Some(d) = engine.durability() {
                    d.snapshotting.store(false, Ordering::SeqCst);
                }
            });
        } else {
            if let Err(e) = engine.checkpoint() {
                eprintln!("wsdb: snapshot failed: {e}");
            }
            self.snapshotting.store(false, Ordering::SeqCst);
        }
    }

    /// Rotate the WAL so records after `seq` land in a fresh file. Called
    /// under the engine writer lock (no commit is in flight), *before*
    /// the snapshot covering `seq` is written — so at recovery, a WAL
    /// file older than the newest snapshot is always redundant.
    pub(crate) fn rotate_to(&self, seq: u64) -> io::Result<()> {
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        wal.sync_all()?;
        let target = wal_file_name(seq);
        if wal.file() != target {
            // A crashed earlier rotation may have left bytes here; every
            // record it could hold is ≤ seq, covered by the snapshot
            // about to be written.
            self.env.remove(&target)?;
            *wal = Arc::new(WalWriter::create(self.env.clone(), target, seq));
        }
        Ok(())
    }

    /// Write the snapshot for `snap` and garbage-collect: older
    /// snapshots, and WAL files wholly covered by this snapshot.
    pub(crate) fn write_snapshot(&self, snap: &crate::engine::Snapshot) -> io::Result<()> {
        let body = encode_snapshot(snap.seq(), snap.world_set(), snap.keys());
        write_snapshot_file(self.env.as_ref(), &snap_file_name(snap.seq()), &body)?;
        self.last_snap.fetch_max(snap.seq(), Ordering::SeqCst);
        let current = self.writer().file().to_string();
        for f in self.env.list()? {
            let stale_snap = parse_snap_name(&f).is_some_and(|s| s < snap.seq());
            let stale_wal = parse_wal_name(&f).is_some_and(|b| b < snap.seq() && f != current);
            if stale_snap || stale_wal {
                self.env.remove(&f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script;

    fn roundtrip_stmt(s: &Stmt) -> Stmt {
        let mut e = Enc::new();
        put_stmt(&mut e, s);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes).unwrap();
        let back = get_stmt(&mut d).unwrap();
        assert_eq!(d.remaining(), 0, "trailing bytes after {s:?}");
        back
    }

    #[test]
    fn ast_codec_round_trips_a_parse_corpus() {
        let corpus = [
            "select possible Arr from Flights choice of Dep;",
            "select certain F.Arr as Dest from Flights F, Hotels H \
             where F.Arr = H.City and H.Stars > 3 repair by key Dep;",
            "select * from (select A, B from R where A in \
             (select X from S) group worlds by (C)) T;",
            "select Name, sum(Salary) as Total from Emp \
             where not exists (select * from Absent where Absent.N = Emp.Name) \
             group by Name;",
            "select count(*) from R where (A = 1 or B <> 'xy') and not (C < 2);",
            "select A + 2 * B as V from R group worlds by \
             (select possible D from S);",
            "create view V as select certain A from R choice of B;",
            "insert into R values (1, 'two'), (3, 'four');",
            "delete from R where A >= 10;",
            "update R set A = A + 1, B = 'done' where B = 'pending';",
            "set local rewrite = off;",
        ];
        for script in corpus {
            for stmt in parse_script(script).unwrap() {
                assert_eq!(roundtrip_stmt(&stmt), stmt, "in {script}");
            }
        }
    }

    #[test]
    fn wal_record_round_trips_and_rebase_drops_pending() {
        let sel = match parse_script("select possible A from R;").unwrap().remove(0) {
            Stmt::Select(s) => s,
            _ => unreachable!(),
        };
        let stmt = parse_script("insert into R values (7);").unwrap().remove(0);
        let spec = WalSpec {
            stmts_before: vec![sel.clone()],
            start_counter: 3,
            action: WalAction::Stmt(Box::new(stmt.clone())),
        };
        let rec = decode_wal_record(&encode_wal_record(&spec, false)).unwrap();
        assert_eq!(rec.start_counter, 3);
        assert_eq!(rec.stmts_before, vec![sel]);
        assert!(matches!(rec.action, WalAction::Stmt(ref s) if **s == stmt));

        let rec = decode_wal_record(&encode_wal_record(&spec, true)).unwrap();
        assert!(
            rec.stmts_before.is_empty(),
            "rebased records carry no pending selects"
        );
    }

    #[test]
    fn snapshot_codec_preserves_sharing_and_epoch_count() {
        let shared = Relation::table(&["A"], &[&[1i64], &[2]]);
        let only = Relation::table(&["B"], &[&[9i64]]);
        let other = Relation::table(&["B"], &[&[8i64]]);
        let w1 = World::new(vec![shared.clone(), only]);
        let w2 = World::new(vec![shared, other]);
        let ws = WorldSet::from_worlds(vec!["R".into(), "S".into()], vec![w1, w2]).unwrap();
        let mut keys = Keys::new();
        keys.insert("R".into(), vec!["A".into()]);

        let body = encode_snapshot(17, &ws, &keys);
        let (seq, back, back_keys) = decode_snapshot(&body).unwrap();
        assert_eq!(seq, 17);
        assert_eq!(back, ws);
        assert_eq!(back_keys, keys);
        // Sharing survived: R's instance is one object across both worlds.
        let mut epochs: Vec<u64> = back
            .iter()
            .flat_map(|w| w.rels().iter().map(|r| r.epoch()))
            .collect();
        epochs.sort_unstable();
        epochs.dedup();
        assert_eq!(epochs.len(), 3);
    }

    #[test]
    fn snapshot_codec_rejects_corruption() {
        let ws = WorldSet::single(vec![("R", Relation::table(&["A"], &[&[1i64]]))]);
        let body = encode_snapshot(1, &ws, &Keys::new());
        for cut in 0..body.len() {
            let _ = decode_snapshot(&body[..cut]); // must not panic
        }
        for i in 0..body.len() {
            let mut corrupt = body.clone();
            corrupt[i] ^= 0xFF;
            let _ = decode_snapshot(&corrupt); // must not panic
        }
    }
}
