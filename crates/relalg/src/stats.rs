//! Per-relation statistics: row count and per-column distinct/min/max.
//!
//! Statistics are computed **lazily** on first request and memoized on the
//! relation (see [`crate::Relation::stats`]); all later reads — cost-model
//! estimates, `EXPLAIN` cardinality annotations, join-order ranking — are
//! free. Because a [`crate::Relation`] is immutable once built (the `&mut`
//! entry points stamp a fresh epoch and drop the memo), the memoized
//! statistics can never go stale.

use crate::{Schema, Tuple, Value};

/// Statistics of one column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColStats {
    /// Number of distinct values in the column.
    pub distinct: u64,
    /// Smallest value (`None` for an empty relation).
    pub min: Option<Value>,
    /// Largest value (`None` for an empty relation).
    pub max: Option<Value>,
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

    /// Compute statistics over a sorted, deduplicated tuple vector.
    ///
    /// Column 0 inherits the relation's lexicographic sort order, so its
    /// distinct count is a boundary count and min/max are the first/last
    /// tuple — no extraction pass. Every other column is extracted into a
    /// transient column vector and sorted once.
    pub(crate) fn compute(schema: &Schema, tuples: &[Tuple]) -> RelStats {
        let arity = schema.arity();
        let rows = tuples.len() as u64;
        if tuples.is_empty() || arity == 0 {
            return RelStats {
                rows,
                cols: vec![
                    ColStats {
                        distinct: 0,
                        min: None,
                        max: None,
                    };
                    arity
                ],
            };
        }
        let cols = (0..arity).map(|i| col_stats(tuples, i)).collect();
        RelStats { rows, cols }
    }
}

fn col_stats(tuples: &[Tuple], i: usize) -> ColStats {
    if i == 0 {
        // The tuple vector is sorted lexicographically: column 0 is already
        // non-decreasing.
        let mut distinct = 1u64;
        for w in tuples.windows(2) {
            if w[0][0] != w[1][0] {
                distinct += 1;
            }
        }
        return ColStats {
            distinct,
            min: Some(tuples[0][0]),
            max: Some(tuples[tuples.len() - 1][0]),
        };
    }
    let mut col: Vec<Value> = tuples.iter().map(|t| t[i]).collect();
    col.sort_unstable();
    col.dedup();
    ColStats {
        distinct: col.len() as u64,
        min: col.first().copied(),
        max: col.last().copied(),
    }
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
            assert_eq!(s.cols[i].min, oracle.iter().next().copied());
            assert_eq!(s.cols[i].max, oracle.iter().next_back().copied());
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
        assert_eq!(s.cols[0].min, None);
    }

    #[test]
    fn nullary_relation_stats() {
        let s = Relation::unit();
        assert_eq!(s.stats().rows, 1);
        assert!(s.stats().cols.is_empty());
    }
}
