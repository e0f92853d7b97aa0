//! Statistics carried across DML successors.
//!
//! [`Relation::with_changes`] builds `(r − removed) ∪ added` and, when `r`
//! has its statistics memoized, seeds the successor with statistics derived
//! from them instead of a recount. After every step of a random sequence of
//! insert, delete and update batches — empty ones, duplicates, rows already
//! present or absent, batches larger than half the table, rows wider than
//! the 8 columns sorted as fixed-size chunks — the seeded statistics must equal a fresh count and
//! a `BTreeSet` oracle, and a batch that changes no row must return the
//! same relation (epoch and statistics).

use std::collections::BTreeSet;

use proptest::prelude::*;
use relalg::{Relation, Schema, Tuple, Value};

/// An arity whose rows sort by row index: wider than the 8 columns sorted
/// as fixed-size chunks.
const WIDE: usize = 10;

type Oracle = BTreeSet<Vec<Value>>;

/// A small deterministic generator over one case's seed.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    /// A value from a narrow domain, so columns repeat values and changes
    /// hit values other rows still hold. Even columns hold strings.
    fn value(&mut self, col: usize, domain: usize) -> Value {
        let v = self.below(domain);
        if col.is_multiple_of(2) {
            Value::str(&format!("v{v}"))
        } else {
            Value::Int(v as i64)
        }
    }

    fn row(&mut self, arity: usize, domain: usize) -> Vec<Value> {
        (0..arity).map(|c| self.value(c, domain)).collect()
    }

    /// A size for a batch: often empty or one row, sometimes more than
    /// half of a table of `n` rows.
    fn batch_len(&mut self, n: usize) -> usize {
        match self.below(4) {
            0 => 0,
            1 => 1,
            2 => self.below(4) + 1,
            _ => n / 2 + 1 + self.below(n + 2),
        }
    }
}

/// The successor's statistics are memoized and equal both a fresh count
/// and the oracle; its rows equal the oracle's.
fn check(next: &Relation, oracle: &Oracle, what: &str) {
    let rows: Oracle = next.iter().map(|t| t.to_vec()).collect();
    assert_eq!(&rows, oracle, "{what}: rows");
    let seeded = next
        .stats_if_computed()
        .unwrap_or_else(|| panic!("{what}: statistics were not carried"));
    let fresh = Relation::from_rows(next.schema().clone(), next.iter().cloned()).unwrap();
    assert_eq!(seeded, fresh.stats(), "{what}: seeded vs recount");
    assert_eq!(seeded.rows, oracle.len() as u64, "{what}: rows");
    for (i, col) in seeded.cols.iter().enumerate() {
        let values: BTreeSet<Value> = oracle.iter().map(|r| r[i]).collect();
        assert_eq!(
            col.distinct,
            values.len() as u64,
            "{what}: distinct of col {i}"
        );
    }
}

/// Apply one change and check the successor; a change of no row keeps the
/// relation as it was.
fn step(
    rel: Relation,
    oracle: &mut Oracle,
    removed: Vec<Tuple>,
    added: Vec<Vec<Value>>,
    what: &str,
) -> Relation {
    let before = oracle.clone();
    for r in &removed {
        oracle.remove(&r.to_vec());
    }
    oracle.extend(added.iter().cloned());
    let next = rel.with_changes(&removed, added).unwrap();
    check(&next, oracle, what);
    if *oracle == before {
        assert_eq!(next.epoch(), rel.epoch(), "{what}: no row changed");
    } else {
        assert_ne!(next.epoch(), rel.epoch(), "{what}: rows changed");
    }
    next
}

/// Rows of `rel` picked at random, in order: a strictly sorted subsequence.
fn pick(g: &mut Gen, rel: &Relation, count: usize) -> Vec<Tuple> {
    if rel.is_empty() {
        return Vec::new();
    }
    let keep = (count * 100 / rel.len()).min(100);
    rel.iter()
        .filter(|_| g.chance(keep))
        .map(Tuple::from)
        .collect()
}

fn run_case(seed: u64) {
    let mut g = Gen(seed | 1);
    // Up to `WIDE` columns, so both row sorts occur.
    let arity = 1 + g.below(WIDE);
    let domain = 2 + g.below(12);
    let names: Vec<String> = (0..arity).map(|i| format!("C{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let rows: Vec<Vec<Value>> = (0..g.below(40)).map(|_| g.row(arity, domain)).collect();
    let mut rel = Relation::from_rows(Schema::of(&names), rows).unwrap();
    let mut oracle: Oracle = rel.iter().map(|t| t.to_vec()).collect();
    let _ = rel.stats();
    for n in 0..12 {
        let len = g.batch_len(rel.len());
        rel = match g.below(3) {
            0 => {
                // New rows, duplicates within the batch, rows present.
                let mut added: Vec<Vec<Value>> = (0..len).map(|_| g.row(arity, domain)).collect();
                added.extend(pick(&mut g, &rel, len / 2).iter().map(|t| t.to_vec()));
                if let Some(first) = added.first().cloned() {
                    added.push(first);
                }
                step(rel, &mut oracle, Vec::new(), added, &format!("insert #{n}"))
            }
            1 => {
                // Present rows, plus absent ones that must be ignored.
                let mut removed: BTreeSet<Tuple> = pick(&mut g, &rel, len).into_iter().collect();
                for _ in 0..g.below(3) {
                    let row: Tuple = g.row(arity, domain).into_iter().collect();
                    if !rel.contains(&row) {
                        removed.insert(row);
                    }
                }
                let removed = removed.into_iter().collect();
                step(
                    rel,
                    &mut oracle,
                    removed,
                    Vec::new(),
                    &format!("delete #{n}"),
                )
            }
            _ => {
                // One column set to a value: some rows keep their value,
                // some collide with rows already present.
                let col = g.below(arity);
                let value = g.value(col, domain);
                let (mut removed, mut added) = (Vec::new(), Vec::new());
                for row in pick(&mut g, &rel, len) {
                    let mut out = row.to_vec();
                    out[col] = value;
                    if out != row.to_vec() {
                        removed.push(row);
                        added.push(out);
                    }
                }
                step(rel, &mut oracle, removed, added, &format!("update #{n}"))
            }
        };
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn seeded_stats_equal_a_recount_after_every_change(seed in any::<u64>()) {
        run_case(seed);
    }
}

#[test]
fn wide_tuples_spill_and_keep_their_stats() {
    let arity = WIDE;
    let names: Vec<String> = (0..arity).map(|i| format!("C{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let row = |k: i64| -> Vec<Value> { (0..arity as i64).map(|c| Value::Int(k * c % 5)).collect() };
    let rel = Relation::from_rows(Schema::of(&names), (0..30).map(row)).unwrap();
    let _ = rel.stats();
    let mut oracle: Oracle = rel.iter().map(|t| t.to_vec()).collect();
    let removed: Vec<Tuple> = rel.iter().step_by(2).map(Tuple::from).collect();
    let added: Vec<Vec<Value>> = (40..60).map(row).collect();
    let next = step(rel, &mut oracle, removed, added, "wide");
    // The whole table goes.
    let all: Vec<Tuple> = next.iter().map(Tuple::from).collect();
    let empty = step(next, &mut oracle, all, Vec::new(), "wide, all deleted");
    assert!(empty.is_empty());
    assert!(empty.stats().cols.iter().all(|c| c.distinct == 0));
}

#[test]
fn no_change_keeps_epoch_and_stats() {
    let rel = Relation::table(&["A", "B"], &[&[1i64, 2], &[3, 4]]);
    let stats = rel.stats().clone();
    let present = Tuple::from(rel.iter().next().unwrap());
    let absent: Tuple = vec![Value::Int(9), Value::Int(9)].into_iter().collect();
    for next in [
        rel.merge_rows([present.to_vec()]).unwrap(),
        rel.with_changes(Vec::<Tuple>::new(), Vec::<Tuple>::new())
            .unwrap(),
        rel.with_changes(std::slice::from_ref(&absent), Vec::<Tuple>::new())
            .unwrap(),
        rel.with_changes(std::slice::from_ref(&present), [present.clone()])
            .unwrap(),
    ] {
        assert_eq!(next.epoch(), rel.epoch());
        assert_eq!(next.stats_if_computed(), Some(&stats));
    }
}
