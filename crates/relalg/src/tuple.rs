//! Row storage: the owned row [`Tuple`], the row iterator [`Rows`], and
//! the row-major buffer every relation keeps its rows in.
//!
//! A relation of arity `k` stores its `n` rows as one `Vec<Value>` of
//! `n · k` values, row after row (`RowBuf`); a row is the `&[Value]` of
//! its `k` values. Kernels write values straight into such a buffer, so
//! building a row allocates nothing, and sorting dispatches on the arity:
//! `[Value; K]` chunks for `K = 1..=8`, row indices above
//! (`RowBuf::sort_dedup`).
//! Arity 0 keeps an explicit row count (0 or 1), because `k = 0` values
//! cannot say how many rows there are.
//!
//! [`Tuple`] is an owned row for API edges: partition keys, rows handed
//! to a builder, rows a caller keeps after the relation is gone.

use std::cmp::Ordering;
use std::fmt;
use std::iter::FusedIterator;
use std::ops::{Deref, DerefMut};

use crate::Value;

/// An owned row: one value per schema attribute, in column order.
///
/// `Tuple` dereferences to `&[Value]`, so indexing, iteration, `len` and
/// every other slice read works on it. Relations do not store `Tuple`s:
/// their rows are slices of one flat buffer ([`crate::Relation::iter`]).
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Vec<Value>);

impl Tuple {
    /// The empty tuple `⟨⟩`.
    pub fn new() -> Tuple {
        Tuple(Vec::new())
    }

    /// The values as a slice.
    pub fn as_slice(&self) -> &[Value] {
        &self.0
    }

    /// Append one value.
    pub fn push(&mut self, v: Value) {
        self.0.push(v);
    }

    /// Append all values of a slice.
    pub fn extend_from_slice(&mut self, vs: &[Value]) {
        self.0.extend_from_slice(vs);
    }

    /// The concatenation `self ++ other` as a new tuple.
    pub fn concat(&self, other: &[Value]) -> Tuple {
        Tuple([self.as_slice(), other].concat())
    }

    /// A tuple holding `n` copies of `v`.
    pub fn filled(v: Value, n: usize) -> Tuple {
        Tuple(vec![v; n])
    }
}

impl Deref for Tuple {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl DerefMut for Tuple {
    fn deref_mut(&mut self) -> &mut [Value] {
        &mut self.0
    }
}

impl AsRef<[Value]> for Tuple {
    fn as_ref(&self) -> &[Value] {
        &self.0
    }
}

impl std::borrow::Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Tuple {
        Tuple(v)
    }
}

impl From<&[Value]> for Tuple {
    fn from(v: &[Value]) -> Tuple {
        Tuple(v.to_vec())
    }
}

impl From<Tuple> for Vec<Value> {
    fn from(t: Tuple) -> Vec<Value> {
        t.0
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        Tuple(iter.into_iter().collect())
    }
}

impl Extend<Value> for Tuple {
    fn extend<I: IntoIterator<Item = Value>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl IntoIterator for Tuple {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// The rows of a relation, in sorted order: an iterator of `&[Value]`, one
/// slice of the relation's arity per row ([`crate::Relation::iter`]).
#[derive(Clone)]
pub struct Rows<'a> {
    values: &'a [Value],
    arity: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    /// The rows as owned [`Tuple`]s.
    ///
    /// This inherent method shadows [`Iterator::cloned`], which a row
    /// iterator cannot offer (its items are unsized slices). It keeps
    /// callers written against the old `Tuple`-storing relations
    /// compiling; delete it in the next `benchmark` change, once the
    /// benchmark's own probes stop calling it.
    pub fn cloned(self) -> std::iter::Map<Rows<'a>, fn(&[Value]) -> Tuple> {
        self.map(owned as fn(&[Value]) -> Tuple)
    }

    /// The rows in reverse order, as owned [`Tuple`]s.
    ///
    /// This inherent method shadows [`Iterator::rev`]: the benchmark's
    /// probes walk `rel.iter().rev()` and `clone()` each item, which on a
    /// `&[Value]` only copies the reference and fails the
    /// `noop_method_call` lint. Code that wants borrowed rows backwards
    /// calls `Iterator::rev(rel.iter())`. Delete it in the next
    /// `benchmark` change, with [`Rows::cloned`].
    pub fn rev(self) -> impl DoubleEndedIterator<Item = Tuple> + ExactSizeIterator + 'a {
        Iterator::rev(self).map(owned)
    }
}

fn owned(row: &[Value]) -> Tuple {
    Tuple::from(row)
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let (row, rest) = self.values.split_at(self.arity);
        self.values = rest;
        Some(row)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl DoubleEndedIterator for Rows<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let (rest, row) = self.values.split_at(self.values.len() - self.arity);
        self.values = rest;
        Some(row)
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl FusedIterator for Rows<'_> {}

/// A borrowed run of row-major rows: `len` rows of `arity` values. The
/// kernels' read side: rows by index, sub-runs and binary searches.
#[derive(Clone, Copy)]
pub(crate) struct RowSlice<'a> {
    values: &'a [Value],
    arity: usize,
    len: usize,
}

impl<'a> RowSlice<'a> {
    /// Number of rows.
    #[inline]
    pub(crate) fn len(self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Values per row.
    #[inline]
    pub(crate) fn arity(self) -> usize {
        self.arity
    }

    /// Row `i`.
    #[inline]
    pub(crate) fn row(self, i: usize) -> &'a [Value] {
        debug_assert!(i < self.len);
        &self.values[i * self.arity..(i + 1) * self.arity]
    }

    /// The first row, if any.
    #[inline]
    pub(crate) fn first(self) -> Option<&'a [Value]> {
        (self.len > 0).then(|| self.row(0))
    }

    /// Rows `lo..hi`.
    #[inline]
    pub(crate) fn slice(self, lo: usize, hi: usize) -> RowSlice<'a> {
        debug_assert!(lo <= hi && hi <= self.len);
        RowSlice {
            values: &self.values[lo * self.arity..hi * self.arity],
            arity: self.arity,
            len: hi - lo,
        }
    }

    /// Rows `lo..`.
    #[inline]
    pub(crate) fn tail(self, lo: usize) -> RowSlice<'a> {
        self.slice(lo, self.len)
    }

    /// The values of all rows, row after row.
    #[inline]
    pub(crate) fn values(self) -> &'a [Value] {
        self.values
    }

    #[inline]
    pub(crate) fn iter(self) -> Rows<'a> {
        Rows {
            values: self.values,
            arity: self.arity,
            len: self.len,
        }
    }

    /// The index of the first row for which `pred` is false, assuming it
    /// holds for a prefix of the rows (a binary search).
    #[inline]
    pub(crate) fn partition_point(self, mut pred: impl FnMut(&[Value]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.row(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Binary search for `row` in strictly sorted rows: `Ok(position)` if
    /// present, `Err(insertion point)` otherwise.
    #[inline]
    pub(crate) fn binary_search(self, row: &[Value]) -> Result<usize, usize> {
        let at = self.partition_point(|r| r < row);
        if at < self.len && self.row(at) == row {
            Ok(at)
        } else {
            Err(at)
        }
    }

    /// Whether every row is strictly below the next one.
    pub(crate) fn is_strictly_sorted(self) -> bool {
        (1..self.len).all(|i| self.row(i - 1) < self.row(i))
    }
}

/// An owned row-major buffer: `len` rows of `arity` values in one vector.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct RowBuf {
    arity: usize,
    len: usize,
    values: Vec<Value>,
}

impl RowBuf {
    /// An empty buffer of rows of `arity` values.
    pub(crate) fn new(arity: usize) -> RowBuf {
        RowBuf {
            arity,
            len: 0,
            values: Vec::new(),
        }
    }

    /// An empty buffer with room for `rows` rows.
    pub(crate) fn with_capacity(arity: usize, rows: usize) -> RowBuf {
        RowBuf {
            arity,
            len: 0,
            values: Vec::with_capacity(arity * rows),
        }
    }

    /// The buffer of `len` rows whose values are `values`, row after row.
    pub(crate) fn from_values(arity: usize, len: usize, values: Vec<Value>) -> RowBuf {
        assert_eq!(values.len(), arity * len, "values of {len} rows of {arity}");
        RowBuf { arity, len, values }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    /// The rows as a borrowed run.
    #[inline]
    pub(crate) fn rows(&self) -> RowSlice<'_> {
        RowSlice {
            values: &self.values,
            arity: self.arity,
            len: self.len,
        }
    }

    /// Row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[Value] {
        self.rows().row(i)
    }

    /// Append one row.
    #[inline]
    pub(crate) fn push(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity, "row arity mismatch");
        self.values.extend_from_slice(row);
        self.len += 1;
    }

    /// Append the row `a ++ b`.
    #[inline]
    pub(crate) fn push_concat(&mut self, a: &[Value], b: &[Value]) {
        debug_assert_eq!(a.len() + b.len(), self.arity, "row arity mismatch");
        self.values.extend_from_slice(a);
        self.values.extend_from_slice(b);
        self.len += 1;
    }

    /// Append the row whose values `vals` yields, one per column.
    #[inline]
    pub(crate) fn push_iter(&mut self, vals: impl IntoIterator<Item = Value>) {
        let before = self.values.len();
        self.values.extend(vals);
        debug_assert_eq!(self.values.len() - before, self.arity, "row arity mismatch");
        self.len += 1;
    }

    /// The last row.
    #[inline]
    pub(crate) fn last(&self) -> &[Value] {
        self.row(self.len - 1)
    }

    /// Drop the last row.
    #[inline]
    pub(crate) fn pop(&mut self) {
        self.len -= 1;
        self.values.truncate(self.len * self.arity);
    }

    /// Append every row of `rows`.
    pub(crate) fn extend_rows(&mut self, rows: RowSlice<'_>) {
        debug_assert_eq!(rows.arity, self.arity, "row arity mismatch");
        self.values.extend_from_slice(rows.values);
        self.len += rows.len;
    }

    /// Insert `row` before row `at`.
    pub(crate) fn insert(&mut self, at: usize, row: &[Value]) {
        debug_assert_eq!(row.len(), self.arity, "row arity mismatch");
        let pos = at * self.arity;
        self.values.splice(pos..pos, row.iter().copied());
        self.len += 1;
    }

    /// Remove row `at`.
    pub(crate) fn remove(&mut self, at: usize) {
        let pos = at * self.arity;
        self.values.drain(pos..pos + self.arity);
        self.len -= 1;
    }

    /// Keep only the rows for which `keep` holds, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&[Value]) -> bool) {
        if self.arity == 0 {
            if self.len > 0 && !keep(&[]) {
                self.len = 0;
            }
            return;
        }
        let k = self.arity;
        let mut w = 0;
        for r in 0..self.len {
            if keep(&self.values[r * k..(r + 1) * k]) {
                self.values.copy_within(r * k..(r + 1) * k, w * k);
                w += 1;
            }
        }
        self.values.truncate(w * k);
        self.len = w;
    }

    /// Sort the rows lexicographically and drop duplicates: one
    /// `sort_unstable` over `[Value; K]` chunks for arities `K = 1..=8`, so
    /// rows move as fixed-size values, and a sort of row indices above
    /// that. Arity 0 keeps at most one (empty) row.
    pub(crate) fn sort_dedup(&mut self) {
        match self.arity {
            0 => self.len = self.len.min(1),
            1 => sort_dedup_chunks::<1>(self),
            2 => sort_dedup_chunks::<2>(self),
            3 => sort_dedup_chunks::<3>(self),
            4 => sort_dedup_chunks::<4>(self),
            5 => sort_dedup_chunks::<5>(self),
            6 => sort_dedup_chunks::<6>(self),
            7 => sort_dedup_chunks::<7>(self),
            8 => sort_dedup_chunks::<8>(self),
            _ => sort_dedup_indices(self),
        }
    }
}

fn sort_dedup_chunks<const K: usize>(buf: &mut RowBuf) {
    let (rows, rest) = buf.values.as_chunks_mut::<K>();
    debug_assert!(rest.is_empty());
    rows.sort_unstable();
    let mut kept = usize::from(!rows.is_empty());
    for r in 1..rows.len() {
        if rows[r] != rows[kept - 1] {
            rows[kept] = rows[r];
            kept += 1;
        }
    }
    buf.values.truncate(kept * K);
    buf.len = kept;
}

fn sort_dedup_indices(buf: &mut RowBuf) {
    let rows = buf.rows();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_unstable_by(|&a, &b| rows.row(a).cmp(rows.row(b)));
    let mut out = RowBuf::with_capacity(buf.arity, rows.len());
    let mut last: Option<&[Value]> = None;
    for i in order {
        let row = rows.row(i);
        if last != Some(row) {
            out.push(row);
            last = Some(row);
        }
    }
    *buf = out;
}

impl PartialOrd for RowBuf {
    fn partial_cmp(&self, other: &RowBuf) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RowBuf {
    /// Lexicographic over the rows, as a `Vec` of rows would compare: for
    /// one arity, the first differing row decides at its first differing
    /// value, which is the first differing value of the flat vectors, and
    /// a prefix sorts first. Arity 0 compares by row count.
    fn cmp(&self, other: &RowBuf) -> Ordering {
        self.arity
            .cmp(&other.arity)
            .then_with(|| self.values.cmp(&other.values))
            .then_with(|| self.len.cmp(&other.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(ns: &[i64]) -> Tuple {
        ns.iter().map(|&n| Value::Int(n)).collect()
    }

    fn buf(arity: usize, rows: &[&[i64]]) -> RowBuf {
        let mut b = RowBuf::new(arity);
        for r in rows {
            b.push(&ints(r));
        }
        b
    }

    #[test]
    fn slice_reads_work() {
        let t = ints(&[5, 6]);
        assert_eq!(t.len(), 2);
        assert_eq!(t[1], Value::Int(6));
        assert_eq!(t.iter().count(), 2);
        assert_eq!(t.to_vec(), vec![Value::Int(5), Value::Int(6)]);
    }

    #[test]
    fn extend_from_slice_appends() {
        let mut t = ints(&[1, 2, 3]);
        t.extend_from_slice(&[Value::Int(4), Value::Int(5)]);
        assert_eq!(t, ints(&[1, 2, 3, 4, 5]));
    }

    #[test]
    fn concat_and_filled() {
        let t = ints(&[1]).concat(&ints(&[2, 3]));
        assert_eq!(t, ints(&[1, 2, 3]));
        assert_eq!(Tuple::filled(Value::Pad, 6).len(), 6);
        assert!(Tuple::filled(Value::Pad, 6).iter().all(|v| v.is_pad()));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(ints(&[1, 2]) < ints(&[1, 3]));
        assert!(ints(&[1]) < ints(&[1, 0]));
        assert!(ints(&[2]) > ints(&[1, 9, 9]));
    }

    #[test]
    fn mutation_through_deref_mut() {
        let mut t = ints(&[1, 2]);
        t[0] = Value::Int(7);
        assert_eq!(t, ints(&[7, 2]));
    }

    #[test]
    fn rows_walk_both_ends_at_every_arity() {
        for arity in [0usize, 1, 3, 9] {
            let mut b = RowBuf::new(arity);
            let n = if arity == 0 { 1 } else { 4 };
            for r in 0..n as i64 {
                b.push_iter((0..arity as i64).map(|c| Value::Int(r * 10 + c)));
            }
            let fwd: Vec<&[Value]> = b.rows().iter().collect();
            let mut back: Vec<&[Value]> = Iterator::rev(b.rows().iter()).collect();
            back.reverse();
            assert_eq!(fwd, back);
            assert_eq!(fwd.len(), n);
            assert_eq!(b.rows().iter().len(), n);
            assert!(fwd.iter().all(|r| r.len() == arity));
            assert_eq!(
                b.rows().iter().cloned().next().map(|t| t.len()),
                Some(arity)
            );
            let owned_back: Vec<Tuple> = b.rows().iter().rev().collect();
            assert!(owned_back
                .iter()
                .map(|t| t.as_slice())
                .eq(back.iter().rev().copied()));
        }
    }

    #[test]
    fn sort_dedup_matches_a_sorted_set_at_every_dispatch() {
        for arity in [0usize, 1, 2, 5, 8, 9, 12] {
            let mut b = RowBuf::new(arity);
            let mut want = std::collections::BTreeSet::new();
            for i in 0..40i64 {
                let row: Vec<Value> = (0..arity as i64)
                    .map(|c| Value::Int((i * 7 + c) % 5))
                    .collect();
                b.push(&row);
                want.insert(row);
            }
            b.sort_dedup();
            let got: Vec<Vec<Value>> = b.rows().iter().map(<[Value]>::to_vec).collect();
            assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "arity {arity}");
            assert_eq!(b.len(), got.len());
        }
    }

    #[test]
    fn search_insert_remove_retain() {
        let mut b = buf(2, &[&[1, 1], &[2, 0], &[3, 5]]);
        assert_eq!(b.rows().binary_search(&ints(&[2, 0])), Ok(1));
        assert_eq!(b.rows().binary_search(&ints(&[2, 1])), Err(2));
        b.insert(2, &ints(&[2, 1]));
        b.remove(0);
        assert_eq!(b, buf(2, &[&[2, 0], &[2, 1], &[3, 5]]));
        b.retain(|r| r[1] != Value::Int(1));
        assert_eq!(b, buf(2, &[&[2, 0], &[3, 5]]));
        assert!(b.rows().is_strictly_sorted());
    }

    #[test]
    fn buffers_order_as_vectors_of_rows() {
        let rows = [
            buf(2, &[&[1, 2]]),
            buf(2, &[&[1, 2], &[0, 0]]),
            buf(2, &[&[1, 3]]),
        ];
        for a in &rows {
            for b in &rows {
                let va: Vec<&[Value]> = a.rows().iter().collect();
                let vb: Vec<&[Value]> = b.rows().iter().collect();
                assert_eq!(a.cmp(b), va.cmp(&vb));
            }
        }
        assert!(buf(0, &[]) < buf(0, &[&[]]));
    }
}
