//! Per-relation statistics: row count and per-column distinct count.
//!
//! Statistics are computed **lazily** on first request and memoized on the
//! relation (see [`crate::Relation::stats`]); all later reads — cost-model
//! estimates, `EXPLAIN` cardinality annotations, join-order ranking — are
//! free. Because a [`crate::Relation`] is immutable once built, the
//! memoized statistics can never go stale: a changed relation is a new
//! relation with a fresh epoch (the two `&mut` entry points,
//! [`crate::Relation::insert`] and [`crate::Relation::remove`], stamp one
//! and drop the memo).
//!
//! A DML successor built by [`crate::Relation::with_changes`] — every
//! `insert`, `delete` and `update` statement — does not start cold: when
//! its predecessor's statistics are memoized, it is seeded with statistics
//! derived from them and the change (`RelStats::changed`), so the first
//! select after a commit does not sort every column again.

use crate::tuple::RowSlice;
use crate::{Schema, Value};

/// Statistics of one column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColStats {
    /// Number of distinct values in the column.
    pub distinct: u64,
}

/// Statistics of a whole relation: the row count plus one [`ColStats`] per
/// schema attribute, in schema order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelStats {
    /// Number of tuples.
    pub rows: u64,
    /// Per-column statistics, in schema column order.
    pub cols: Vec<ColStats>,
}

impl RelStats {
    /// Statistics of column `i` (schema position).
    pub fn col(&self, i: usize) -> Option<&ColStats> {
        self.cols.get(i)
    }

    /// Distinct count of the named attribute.
    pub fn distinct_of(&self, schema: &Schema, attr: &crate::Attr) -> Option<u64> {
        schema.index_of(attr).map(|i| self.cols[i].distinct)
    }

    /// Compute statistics over sorted, deduplicated rows.
    ///
    /// Column 0 inherits the relation's lexicographic sort order, so its
    /// distinct count is a boundary count — no extraction pass. Every other
    /// column is extracted into a transient column vector and sorted once.
    pub(crate) fn compute(rows: RowSlice<'_>) -> RelStats {
        let cols = (0..rows.arity())
            .map(|i| ColStats {
                distinct: if rows.is_empty() {
                    0
                } else {
                    col_distinct(rows, i)
                },
            })
            .collect();
        RelStats {
            rows: rows.len() as u64,
            cols,
        }
    }

    /// The statistics of `next = (prev − gone) ∪ new`, derived from
    /// `self`, the statistics of `prev`, without sorting anything.
    ///
    /// `gone` are the rows of `prev` that `next` lacks and `new` the rows
    /// of `next` that `prev` lacks, both in sorted order. A column loses
    /// each value of `gone` that no row of `next` holds any more and gains
    /// each value of `new` that no row of `prev` held. Column 0 answers
    /// that by binary search on the sorted rows; every other column by one
    /// scan that binary-searches each row's value among the sorted
    /// candidate values and stops once each is found, so the derivation
    /// costs O((n + d) · log d · arity) for `n` rows and `d` changed ones.
    pub(crate) fn changed(
        &self,
        prev: RowSlice<'_>,
        next: RowSlice<'_>,
        gone: &[&[Value]],
        new: &[&[Value]],
    ) -> RelStats {
        let cols = self
            .cols
            .iter()
            .enumerate()
            .map(|(i, col)| ColStats {
                distinct: col.distinct - missing(gone, next, i) + missing(new, prev, i),
            })
            .collect();
        RelStats {
            rows: self.rows + new.len() as u64 - gone.len() as u64,
            cols,
        }
    }
}

fn col_distinct(rows: RowSlice<'_>, i: usize) -> u64 {
    let col = rows.values().iter().skip(i).step_by(rows.arity());
    if i == 0 {
        // The rows are sorted lexicographically: column 0 is already
        // non-decreasing.
        let mut next = col.clone();
        next.next();
        return 1 + col.zip(next).filter(|(a, b)| a != b).count() as u64;
    }
    let mut col: Vec<Value> = col.copied().collect();
    col.sort_unstable();
    col.dedup();
    col.len() as u64
}

/// How many distinct column-`i` values of `probes` no row of `rows` holds.
/// `probes` and `rows` are sorted, so column 0 is searched, not scanned.
fn missing(probes: &[&[Value]], rows: RowSlice<'_>, i: usize) -> u64 {
    if probes.is_empty() {
        return 0;
    }
    if i == 0 {
        let mut count = 0;
        let mut last = None;
        for t in probes {
            let v = t[0];
            if last == Some(v) {
                continue;
            }
            last = Some(v);
            let at = rows.partition_point(|r| r[0] < v);
            if at == rows.len() || rows.row(at)[0] != v {
                count += 1;
            }
        }
        return count;
    }
    // Any other column: one scan, probing each row's value in the sorted
    // wanted values (one comparison a row when one row changed).
    let mut wanted: Vec<Value> = probes.iter().map(|t| t[i]).collect();
    wanted.sort_unstable();
    wanted.dedup();
    let mut found = vec![false; wanted.len()];
    let mut left = wanted.len();
    for r in rows.iter() {
        if let Ok(at) = wanted.binary_search(&r[i]) {
            if !found[at] {
                found[at] = true;
                left -= 1;
                if left == 0 {
                    break;
                }
            }
        }
    }
    left as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attr, Relation};

    #[test]
    fn stats_match_a_btreeset_oracle() {
        let r = Relation::table(
            &["A", "B", "C"],
            &[
                &[1i64, 5, 9],
                &[1, 6, 9],
                &[2, 5, 9],
                &[3, 5, 8],
                &[3, 7, 9],
            ],
        );
        let s = r.stats();
        assert_eq!(s.rows, 5);
        for (i, want_distinct) in [(0usize, 3u64), (1, 3), (2, 2)] {
            let oracle: std::collections::BTreeSet<Value> = r.iter().map(|t| t[i]).collect();
            assert_eq!(s.cols[i].distinct, want_distinct);
            assert_eq!(s.cols[i].distinct, oracle.len() as u64);
        }
        assert_eq!(s.distinct_of(r.schema(), &attr("B")), Some(3));
        assert_eq!(s.distinct_of(r.schema(), &attr("Z")), None);
    }

    #[test]
    fn empty_relation_stats() {
        let r = Relation::empty(crate::Schema::of(&["A", "B"]));
        let s = r.stats();
        assert_eq!(s.rows, 0);
        assert_eq!(s.cols.len(), 2);
        assert_eq!(s.cols[0].distinct, 0);
    }

    #[test]
    fn nullary_relation_stats() {
        let s = Relation::unit();
        assert_eq!(s.stats().rows, 1);
        assert!(s.stats().cols.is_empty());
    }

    #[test]
    fn changes_carry_the_distinct_counts() {
        let r = Relation::table(&["A", "B"], &[&[1i64, 5], &[1, 6], &[2, 5], &[3, 7]]);
        let _ = r.stats();
        // Drops B = 7 and A = 3, adds A = 4 and keeps B = 5.
        let next = r
            .with_changes(r.iter().skip(3), [vec![Value::Int(4), Value::Int(5)]])
            .unwrap();
        let s = next.stats_if_computed().expect("seeded from the old stats");
        assert_eq!(s.rows, 4);
        assert_eq!(s.cols[0].distinct, 3);
        assert_eq!(s.cols[1].distinct, 2);
    }
}
