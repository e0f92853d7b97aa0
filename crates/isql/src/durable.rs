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
//! declaration (tag 2). Statements are stored as their I-SQL text (the
//! canonical printer of [`crate::ast`]), and replay parses them, so the
//! parser is the one statement decoder; `strings wal-*` shows them. String
//! literals round-trip byte-exactly all the same: the printer doubles
//! every `'`, and the property test
//! `ast::tests::string_literals_print_and_parse_back` pins quotes,
//! newlines, `--`, `;`, non-ASCII text and the empty string. A statement
//! whose text would not parse back to it (only the Rust API builds one)
//! is refused before it is logged (`logged_text`); a pending select of
//! that kind makes the commit rebase, publishing none of the session's
//! local answers.
//!
//! A WAL tail written before records carried text (a binary AST) fails
//! recovery with `InvalidData` and is left untouched. To upgrade such a
//! data directory, open it once with the build that wrote it, or stop
//! that build's server with `\shutdown`: either checkpoints the state
//! into a snapshot and truncates the WAL.
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

use crate::ast::{SelectStmt, Stmt};
use crate::engine::Engine;
use crate::lexer::SqlError;
use crate::parser::parse_statement;

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

/// The action a WAL record replays. A committed statement is its I-SQL
/// text when the session logs it (`S = String`), and the statement it
/// parses to once recovery decodes the record.
#[derive(Debug)]
pub(crate) enum WalAction<S = String> {
    /// A committed statement (DML or `create view`).
    Stmt(S),
    /// A base relation registered via the API.
    Register { name: String, rel: Arc<Relation> },
    /// A key constraint declared via the API.
    DeclareKey { table: String, cols: Vec<String> },
}

/// Everything the session hands the engine to log one commit.
#[derive(Debug)]
pub(crate) struct WalSpec {
    /// The I-SQL text of the selects run since the session's last
    /// synchronization — their `Q‹n›` answers ride into the published
    /// snapshot on a working-path commit.
    pub stmts_before: Vec<String>,
    /// The session query counter before the first pending select.
    pub start_counter: u64,
    /// The committed action.
    pub action: WalAction,
}

struct WalRecord {
    start_counter: u64,
    stmts_before: Vec<SelectStmt>,
    action: WalAction<Box<Stmt>>,
}

/// The I-SQL text a WAL record logs `stmt` as. Recovery replays the text
/// through the parser, so a statement the parser does not read back to
/// itself — only the Rust API builds one, e.g. naming a table `my table`
/// or a column `exists` — is refused here, before anything is logged.
pub(crate) fn logged_text(stmt: &Stmt) -> Result<String, SqlError> {
    let text = stmt.to_string();
    match parse_statement(&text) {
        Ok(back) if back == *stmt => Ok(text),
        _ => Err(SqlError(format!(
            "cannot log `{text}`: it does not parse back to the statement it prints"
        ))),
    }
}

pub(crate) fn encode_wal_record(spec: &WalSpec, rebased: bool) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_varint(spec.start_counter);
    // A rebased commit applies to the latest published state and leaves
    // the session's local query results behind: nothing to replay before
    // the action.
    let pending: &[String] = if rebased { &[] } else { &spec.stmts_before };
    e.put_varint(pending.len() as u64);
    for text in pending {
        e.put_str(text);
    }
    match &spec.action {
        WalAction::Stmt(text) => {
            e.put_u8(0);
            e.put_str(text);
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

fn parse_logged(d: &mut Dec) -> Result<Stmt, CodecError> {
    parse_statement(&d.get_string()?)
        .map_err(|e| CodecError(format!("logged statement does not parse: {e}")))
}

fn decode_wal_record(payload: &[u8]) -> Result<WalRecord, CodecError> {
    let mut d = Dec::new(payload)?;
    let start_counter = d.get_varint()?;
    let n = d.get_varint()? as usize;
    let mut stmts_before = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        match parse_logged(&mut d)? {
            Stmt::Select(s) => stmts_before.push(s),
            _ => return Err(CodecError("a pending statement is not a select".into())),
        }
    }
    let action = match d.get_u8()? {
        0 => WalAction::Stmt(Box::new(parse_logged(&mut d)?)),
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
    if d.remaining() != 0 {
        return Err(CodecError("trailing bytes after the WAL record".into()));
    }
    Ok(WalRecord {
        start_counter,
        stmts_before,
        action,
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
    use crate::ast::{CmpOp, ColRef, Cond, FromItem, Literal, Scalar};
    use relalg::{Schema, Value};
    use wsdb_env::wal::frame_record;
    use wsdb_env::SimEnv;

    fn spec(pending: &[&str], stmt: &str) -> WalSpec {
        WalSpec {
            stmts_before: pending.iter().map(|s| s.to_string()).collect(),
            start_counter: 3,
            action: WalAction::Stmt(stmt.to_string()),
        }
    }

    #[test]
    fn wal_record_round_trips_and_rebase_drops_pending() {
        let spec = spec(
            &["select possible A from R"],
            "insert into R values (7, 'it''s')",
        );
        let payload = encode_wal_record(&spec, false);
        let rec = decode_wal_record(&payload).unwrap();
        assert_eq!(rec.start_counter, 3);
        assert_eq!(
            rec.stmts_before
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            spec.stmts_before
        );
        assert!(
            matches!(rec.action, WalAction::Stmt(ref s) if s.to_string() == "insert into R values (7, 'it''s')")
        );
        // The statement is in the record as readable text.
        let text = b"insert into R values (7, 'it''s')";
        assert!(payload.windows(text.len()).any(|w| w == text));

        let rec = decode_wal_record(&encode_wal_record(&spec, true)).unwrap();
        assert!(
            rec.stmts_before.is_empty(),
            "rebased records carry no pending selects"
        );
    }

    /// Valid payloads of every action shape.
    fn valid_payloads() -> Vec<Vec<u8>> {
        let stmt = spec(
            &[
                "select possible A from R choice of B",
                "select certain A from R",
            ],
            "update R set A = A + 1 where not exists (select * from S where S.A = R.A)",
        );
        let register = WalSpec {
            stmts_before: vec![],
            start_counter: 0,
            action: WalAction::Register {
                name: "R".into(),
                rel: Arc::new(Relation::table(&["A"], &[&[1i64], &[2]])),
            },
        };
        let key = WalSpec {
            stmts_before: vec![],
            start_counter: 9,
            action: WalAction::DeclareKey {
                table: "R".into(),
                cols: vec!["A".into()],
            },
        };
        [stmt, register, key]
            .iter()
            .map(|s| encode_wal_record(s, false))
            .collect()
    }

    /// Hostile payloads go straight into the decoder, past the frame
    /// checksum that normally rejects them: none may panic, and random
    /// bytes and truncations are errors. A flipped bit can turn one
    /// valid record into another (another counter value, another letter
    /// in a literal), which only the checksum catches.
    #[test]
    fn hostile_wal_payloads_are_errors_not_panics() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..5000 {
            let len = (next() % 96) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert!(decode_wal_record(&bytes).is_err(), "random {bytes:?}");
        }
        for payload in valid_payloads() {
            assert!(decode_wal_record(&payload).is_ok());
            for cut in 0..payload.len() {
                assert!(decode_wal_record(&payload[..cut]).is_err(), "cut at {cut}");
            }
            for bit in 0..payload.len() * 8 {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = decode_wal_record(&flipped);
            }
        }
    }

    /// A record as the binary AST codec wrote it before WAL records
    /// carried I-SQL text: `encode_wal_record` of `select possible A from
    /// R` pending before `insert into R values (7, 'x')`.
    const BINARY_AST_RECORD: &str =
        "030141015201780001010101000000000100010000000000000002010102000e0102";

    fn sim_opts() -> DurabilityOptions {
        DurabilityOptions {
            snapshot_every: u64::MAX,
            background_snapshots: false,
        }
    }

    fn table_r() -> Relation {
        Relation::from_rows(
            Schema::of(&["A", "B"]),
            [vec![Value::Int(1), Value::str("y")]],
        )
        .unwrap()
    }

    #[test]
    fn recovery_refuses_a_binary_ast_record() {
        let env = Arc::new(SimEnv::new());
        let engine = Engine::open_on(env.clone(), sim_opts()).unwrap();
        engine.session().register("R", table_r()).unwrap();
        drop(engine);
        let wal = env
            .list()
            .unwrap()
            .into_iter()
            .find(|f| parse_wal_name(f).is_some())
            .unwrap();
        let payload: Vec<u8> = (0..BINARY_AST_RECORD.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&BINARY_AST_RECORD[i..i + 2], 16).unwrap())
            .collect();
        env.append(&wal, &frame_record(2, &payload).unwrap())
            .unwrap();
        env.sync(&wal).unwrap();
        let before = env.read(&wal).unwrap();

        let err = Engine::open_on(env.clone(), sim_opts()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // Nothing was replayed or truncated: the log is as the old build
        // left it, so that build can still open the directory.
        assert_eq!(env.read(&wal).unwrap(), before);
    }

    #[test]
    fn a_statement_the_parser_cannot_read_back_is_refused_unlogged() {
        let env = Arc::new(SimEnv::new());
        let engine = Engine::open_on(env.clone(), sim_opts()).unwrap();
        let mut session = engine.session();
        session.register("my table", table_r()).unwrap();
        let seq = engine.snapshot().seq();
        let insert = Stmt::Insert {
            table: "my table".into(),
            rows: vec![vec![Literal::Int(2), Literal::Str("z".into())]],
        };
        let err = session.run(insert).unwrap_err();
        assert!(err.0.contains("cannot log"), "{err}");
        // `delete from R where exists = 1`: `exists` opens a subquery.
        let keyword = Stmt::Delete {
            table: "R".into(),
            cond: Some(Cond::Cmp(
                Scalar::Col(ColRef::new("exists")),
                CmpOp::Eq,
                Scalar::Lit(Literal::Int(1)),
            )),
        };
        assert!(logged_text(&keyword).is_err());
        assert_eq!(engine.snapshot().seq(), seq, "nothing was acknowledged");
        // A select of that kind answers, but its answer cannot be logged,
        // so the next commit rebases and leaves it behind.
        let select = parse_statement("select * from R").unwrap();
        let Stmt::Select(mut sel) = select else {
            unreachable!()
        };
        sel.from = vec![FromItem::Table {
            name: "my table".into(),
            alias: None,
        }];
        session.run(Stmt::Select(sel)).unwrap();
        assert!(session.answers("Q1").is_ok());
        session.register("S", table_r()).unwrap();
        assert_eq!(engine.snapshot().seq(), seq + 1);
        assert!(
            session.answers("Q1").is_err(),
            "the local answer stays local"
        );
        drop((session, engine));
        let engine = Engine::open_on(env, sim_opts()).unwrap();
        assert_eq!(engine.snapshot().seq(), seq + 1);
        let session = engine.session();
        assert_eq!(session.answers("my table").unwrap(), vec![table_r()]);
        assert!(session.answers("Q1").is_err());
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
