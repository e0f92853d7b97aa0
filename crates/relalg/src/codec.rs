//! Length-prefixed binary codec for relational values.
//!
//! This is the serialization substrate of the durability layer: snapshots
//! and WAL records encode through an [`Enc`] and decode through a [`Dec`].
//! The format is deliberately simple and self-contained:
//!
//! * **Varints** — unsigned LEB128 for lengths and counts, zigzag for
//!   `i64` payloads.
//! * **Interned strings** — every string is written once into a
//!   per-message *string table*; the stream stores table indices. This is
//!   the interner-aware idiom: a [`Sym`]-heavy relation (shared city
//!   names, attribute labels, …) serializes each distinct string once,
//!   and decoding re-interns a value through [`Sym::new`] (once per table
//!   entry, at its first use) so the restarted process shares spellings
//!   exactly like the writer did. A string read as text
//!   ([`Dec::get_string`]: a WAL record's statement) is never interned.
//! * **Relations** — schema (attribute names), tuples in the canonical
//!   sorted order, then the memoized [`RelStats`] if the writer had
//!   computed them, so a reopened database keeps warm statistics: a flag
//!   byte (0 none, 2 statistics), the row count and one distinct count per
//!   column. Flag 1, the layout of older snapshots, adds an optional min
//!   and max value per column; it still decodes, and those two are
//!   dropped.
//!
//! Decoding is *validating*: any truncation, out-of-range table index,
//! malformed UTF-8 hiding behind a corrupted length, duplicate schema
//! attribute, or out-of-order tuple yields a [`CodecError`] rather than a
//! panic or a structurally invalid `Relation`. Epoch tags are **not**
//! round-tripped here — a decoded relation gets a fresh epoch, and the
//! durability layer preserves epoch *sharing* (which relations are the
//! same object) via its snapshot-level relation pool.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::tuple::RowBuf;
use crate::{ColStats, RelStats, Relation, Schema, Sym, Value};

/// Decoding failure: corrupted, truncated, or semantically invalid input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

/// Encoder: accumulates a body and a string table, then
/// [`Enc::finish`]es into one self-contained byte message
/// (`table length, table entries, body`).
#[derive(Debug, Default)]
pub struct Enc {
    body: Vec<u8>,
    table: Vec<String>,
    index: HashMap<String, u32>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.body.push(v);
    }

    /// Unsigned LEB128.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.body.push(byte);
                return;
            }
            self.body.push(byte | 0x80);
        }
    }

    /// Zigzag-encoded signed integer.
    pub fn put_i64(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Intern `s` in the message's string table and write its index.
    pub fn put_str(&mut self, s: &str) {
        let idx = match self.index.get(s) {
            Some(&i) => i,
            None => {
                let i = self.table.len() as u32;
                self.table.push(s.to_string());
                self.index.insert(s.to_string(), i);
                i
            }
        };
        self.put_varint(idx as u64);
    }

    pub fn put_value(&mut self, v: Value) {
        match v {
            Value::Pad => self.put_u8(0),
            Value::Bool(false) => self.put_u8(1),
            Value::Bool(true) => self.put_u8(2),
            Value::Int(i) => {
                self.put_u8(3);
                self.put_i64(i);
            }
            Value::Str(s) => {
                self.put_u8(4);
                self.put_str(s.as_str());
            }
        }
    }

    /// Schema, sorted tuples, and (if memoized) statistics.
    pub fn put_relation(&mut self, rel: &Relation) {
        let schema = rel.schema();
        self.put_varint(schema.arity() as u64);
        for attr in schema.attrs() {
            self.put_str(attr.name());
        }
        self.put_varint(rel.len() as u64);
        for &v in rel.values() {
            self.put_value(v);
        }
        match rel.stats_if_computed() {
            None => self.put_u8(STATS_NONE),
            Some(stats) => {
                self.put_u8(STATS_DISTINCT);
                self.put_varint(stats.rows);
                for col in &stats.cols {
                    self.put_varint(col.distinct);
                }
            }
        }
    }

    /// Emit the finished message: string table followed by the body.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 16 * self.table.len());
        put_varint_raw(&mut out, self.table.len() as u64);
        for s in &self.table {
            put_varint_raw(&mut out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        out.extend_from_slice(&self.body);
        out
    }
}

/// Stats flag: the writer had no statistics memoized.
const STATS_NONE: u8 = 0;
/// Stats flag of older snapshots: `rows`, then per column `distinct` and an
/// optional min and max value. Still decoded; min and max are dropped.
const STATS_MIN_MAX: u8 = 1;
/// Stats flag: `rows`, then per column `distinct`.
const STATS_DISTINCT: u8 = 2;

fn put_varint_raw(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decoder over one [`Enc::finish`]ed message. Construction parses and
/// validates the string table, whose entries stay slices of the input;
/// the `get_*` methods then walk the body, validating as they go. An entry
/// is interned on its first [`Dec::get_sym`] only: [`Dec::get_string`]
/// copies it out and never interns (interned strings live as long as the
/// process, so a WAL record's statement text must not become one).
#[derive(Debug)]
pub struct Dec<'a> {
    table: Vec<(&'a str, Option<Sym>)>,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Result<Dec<'a>, CodecError> {
        let mut dec = Dec {
            table: Vec::new(),
            buf,
            pos: 0,
        };
        let count = dec.get_varint()?;
        if count > buf.len() as u64 {
            return err("string table count exceeds input size");
        }
        let mut table = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let len = dec.get_varint()? as usize;
            let bytes = dec.get_bytes(len)?;
            match std::str::from_utf8(bytes) {
                Ok(s) => table.push((s, None)),
                Err(_) => return err("string table entry is not UTF-8"),
            }
        }
        dec.table = table;
        Ok(dec)
    }

    /// Bytes of the body not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn get_bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < len {
            return err("unexpected end of input");
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.get_bytes(1)?[0])
    }

    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return err("varint overflows u64");
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return err("varint too long");
            }
        }
    }

    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        let z = self.get_varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// The string-table entry a reference names.
    fn get_entry(&mut self) -> Result<&mut (&'a str, Option<Sym>), CodecError> {
        let idx = self.get_varint()? as usize;
        match self.table.get_mut(idx) {
            Some(entry) => Ok(entry),
            None => err(format!("string table index {idx} out of range")),
        }
    }

    /// Resolve a string-table reference, interning the entry on first use.
    pub fn get_sym(&mut self) -> Result<Sym, CodecError> {
        let (s, sym) = self.get_entry()?;
        Ok(*sym.get_or_insert_with(|| Sym::new(s)))
    }

    /// Table reference as an owned `String`, not interned.
    pub fn get_string(&mut self) -> Result<String, CodecError> {
        Ok(self.get_entry()?.0.to_string())
    }

    pub fn get_value(&mut self) -> Result<Value, CodecError> {
        match self.get_u8()? {
            0 => Ok(Value::Pad),
            1 => Ok(Value::Bool(false)),
            2 => Ok(Value::Bool(true)),
            3 => Ok(Value::Int(self.get_i64()?)),
            4 => Ok(Value::Str(self.get_sym()?)),
            tag => err(format!("unknown value tag {tag}")),
        }
    }

    /// Skip an optional value of a flag-[`STATS_MIN_MAX`] payload.
    fn skip_opt_value(&mut self) -> Result<(), CodecError> {
        match self.get_u8()? {
            0 => Ok(()),
            1 => self.get_value().map(drop),
            flag => err(format!("bad option flag {flag}")),
        }
    }

    /// Decode and validate one relation. The result carries a *fresh*
    /// epoch tag; persisted statistics are seeded into the memo.
    pub fn get_relation(&mut self) -> Result<Relation, CodecError> {
        let arity = self.get_varint()? as usize;
        if arity > u16::MAX as usize {
            return err(format!("implausible arity {arity}"));
        }
        let mut attrs = Vec::with_capacity(arity);
        for _ in 0..arity {
            attrs.push(crate::Attr::new(self.get_sym()?.as_str()));
        }
        let Some(schema) = Schema::try_new(attrs) else {
            return err("duplicate attribute in persisted schema");
        };
        let rows = self.get_varint()? as usize;
        if rows > self.remaining() {
            // Each tuple costs at least one body byte per value (arity
            // may be 0, in which case 0 or 1 rows are representable).
            if arity > 0 || rows > 1 {
                return err("row count exceeds input size");
            }
        }
        let mut values = Vec::with_capacity((rows * arity).min(1 << 20));
        for _ in 0..rows * arity {
            values.push(self.get_value()?);
        }
        let buf = RowBuf::from_values(arity, rows, values);
        if !buf.rows().is_strictly_sorted() {
            return err("persisted tuples are not strictly sorted");
        }
        let rel = Relation::from_sorted(schema, buf);
        let flag = self.get_u8()?;
        if flag == STATS_NONE {
            return Ok(rel);
        }
        if flag != STATS_MIN_MAX && flag != STATS_DISTINCT {
            return err(format!("bad stats flag {flag}"));
        }
        let srows = self.get_varint()?;
        let mut cols = Vec::with_capacity(arity);
        for _ in 0..arity {
            cols.push(ColStats {
                distinct: self.get_varint()?,
            });
            if flag == STATS_MIN_MAX {
                self.skip_opt_value()?;
                self.skip_opt_value()?;
            }
        }
        if srows != rel.len() as u64 {
            return err("persisted statistics row count mismatch");
        }
        rel.seed_stats(Arc::new(RelStats { rows: srows, cols }));
        Ok(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_and_zigzag_round_trip() {
        let mut enc = Enc::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            enc.put_varint(v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            enc.put_i64(v);
        }
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes).unwrap();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            assert_eq!(dec.get_varint().unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(dec.get_i64().unwrap(), v);
        }
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn string_table_dedupes() {
        let mut enc = Enc::new();
        enc.put_str("hello");
        enc.put_str("world");
        enc.put_str("hello");
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes).unwrap();
        assert_eq!(dec.get_string().unwrap(), "hello");
        assert_eq!(dec.get_string().unwrap(), "world");
        assert_eq!(dec.get_string().unwrap(), "hello");
        // "hello" appears once in the table: the three refs cost 3 bytes.
        let expected = 1 + (1 + 5) + (1 + 5) + 3;
        assert_eq!(bytes.len(), expected);
    }

    #[test]
    fn strings_are_interned_by_get_sym_only() {
        let text = format!("select * from T{} where A = 1;", std::process::id());
        let mut enc = Enc::new();
        enc.put_str(&text);
        enc.put_str(&text);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes).unwrap();
        assert!(!crate::value::is_interned(&text));
        assert_eq!(dec.get_string().unwrap(), text);
        assert!(!crate::value::is_interned(&text), "get_string interned");
        assert_eq!(dec.get_sym().unwrap().as_str(), text);
        assert!(crate::value::is_interned(&text));
    }

    #[test]
    fn values_round_trip() {
        let vals = [
            Value::Pad,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(-40),
            Value::Int(i64::MAX),
            Value::str("tuesday"),
        ];
        let mut enc = Enc::new();
        for v in vals {
            enc.put_value(v);
        }
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes).unwrap();
        for v in vals {
            assert_eq!(dec.get_value().unwrap(), v);
        }
    }

    #[test]
    fn relation_round_trip_with_and_without_stats() {
        let rel = Relation::table(
            &["City", "Pop"],
            &[
                &[Value::str("berlin"), Value::Int(3)],
                &[Value::str("paris"), Value::Int(2)],
                &[Value::str("rome"), Value::Int(2)],
            ],
        );

        // Without stats: decoded relation has no memoized stats.
        let mut enc = Enc::new();
        enc.put_relation(&rel);
        let bytes = enc.finish();
        let back = Dec::new(&bytes).unwrap().get_relation().unwrap();
        assert_eq!(back, rel);
        assert!(back.stats_if_computed().is_none());

        // With stats: decoded relation carries them pre-warmed.
        let _ = rel.stats();
        let mut enc = Enc::new();
        enc.put_relation(&rel);
        let bytes = enc.finish();
        let back = Dec::new(&bytes).unwrap().get_relation().unwrap();
        assert_eq!(back, rel);
        assert_eq!(back.stats_if_computed(), Some(rel.stats()));
        // Fresh epoch, not the writer's.
        assert_ne!(back.epoch(), rel.epoch());
    }

    fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Relations written with stats flag 1 (distinct, min and max per
    /// column) by the encoder before min and max were dropped still open,
    /// with their row and distinct counts.
    #[test]
    fn flag_one_payloads_still_decode() {
        // City/Pop/Tag: (berlin, 3, x), (paris, -2, x), (rome, 3, y).
        let bytes = from_hex(
            "08044369747903506f7003546167066265726c696e017805706172697304726f6d\
             6501790300010203040303060404040503030404040603060407010303010403\
             0104060201030301030602010404010407",
        );
        let rel = Dec::new(&bytes).unwrap().get_relation().unwrap();
        let want = Relation::table(
            &["City", "Pop", "Tag"],
            &[
                &[Value::str("berlin"), Value::Int(3), Value::str("x")],
                &[Value::str("paris"), Value::Int(-2), Value::str("x")],
                &[Value::str("rome"), Value::Int(3), Value::str("y")],
            ],
        );
        assert_eq!(rel, want);
        assert_eq!(rel.stats_if_computed(), Some(want.stats()));

        // An empty A/B relation: no min or max values at all.
        let bytes = from_hex("0201410142020001000100000000000000");
        let rel = Dec::new(&bytes).unwrap().get_relation().unwrap();
        assert!(rel.is_empty());
        assert_eq!(rel.stats_if_computed(), Some(rel.stats()));
        assert_eq!(rel.stats().cols.len(), 2);
    }

    #[test]
    fn corrupted_inputs_are_rejected_not_panicking() {
        let rel = Relation::table(&["A"], &[&[1i64], &[2], &[3]]);
        let _ = rel.stats();
        let mut enc = Enc::new();
        enc.put_relation(&rel);
        let bytes = enc.finish();

        // Every truncation either fails cleanly or (if it cuts exactly at
        // the stats boundary) never panics.
        for cut in 0..bytes.len() {
            let mut dec = match Dec::new(&bytes[..cut]) {
                Ok(d) => d,
                Err(_) => continue,
            };
            let _ = dec.get_relation();
        }
        // Every single-byte corruption is rejected or yields a valid
        // relation (e.g. a flipped payload value) — never a panic.
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            if let Ok(mut dec) = Dec::new(&corrupt) {
                let _ = dec.get_relation();
            }
        }
    }

    #[test]
    fn unsorted_tuples_rejected() {
        // Hand-build a message with out-of-order tuples.
        let mut enc = Enc::new();
        enc.put_varint(1); // arity
        enc.put_str("A");
        enc.put_varint(2); // rows
        enc.put_value(Value::Int(5));
        enc.put_value(Value::Int(1));
        enc.put_u8(0); // no stats
        let bytes = enc.finish();
        let e = Dec::new(&bytes).unwrap().get_relation().unwrap_err();
        assert!(e.0.contains("sorted"), "{e}");
    }

    #[test]
    fn duplicate_attributes_rejected() {
        let mut enc = Enc::new();
        enc.put_varint(2);
        enc.put_str("A");
        enc.put_str("A");
        enc.put_varint(0);
        enc.put_u8(0);
        let bytes = enc.finish();
        assert!(Dec::new(&bytes).unwrap().get_relation().is_err());
    }
}
