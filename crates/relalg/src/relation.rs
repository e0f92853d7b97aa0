//! [`Relation`]: a set of rows over a schema, kept sorted and deduplicated
//! in one row-major `Vec<Value>` (see [`crate::Rows`] and the `tuple`
//! module for the storage), and the algebra's kernels over it.
//!
//! Every kernel reads its inputs' rows as `&[Value]` slices of the flat
//! storage and writes its output's values straight into a new relation's
//! vector: selection and semijoin copy surviving rows, projection writes
//! the kept columns of each distinct output row, the joins and the
//! product write concatenations, the set operations merge sorted runs,
//! and grouping writes one key per group. A row is never built as an
//! object of its own, so no kernel allocates per row. Outputs that come
//! out of order are sorted once (`RowBuf::sort_dedup`).

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::stats::RelStats;
use crate::tuple::{RowBuf, RowSlice};
use crate::{Attr, CmpOp, Operand, Pred, RelalgError, Result, Rows, Schema, Tuple, Value};

/// A fast non-cryptographic hasher (the FxHash construction) for the
/// engine-internal hash maps on the join/partition hot paths, where the
/// keys are short tuples of already-interned values and SipHash's
/// per-lookup cost is the dominant constant. Never used for anything
/// attacker-controlled or iteration-order-observable.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuild>;
/// A set-semantics relation: a schema plus a **sorted, deduplicated run of
/// rows**, stored flat.
///
/// The rows live in one row-major `Vec<Value>` (`n · k` values for `n`
/// rows of arity `k`), and a row is the `&[Value]` slice of its `k`
/// values ([`Relation::iter`]). Arity 0 keeps an explicit row count of 0
/// or 1. Kernels write values straight into a new relation's vector, so
/// building a row allocates nothing whatever its width, and a sort moves
/// rows as fixed-size `[Value; K]` chunks (`K ≤ 8`) or sorts row indices
/// (wider rows).
///
/// The sorted-vec invariant keeps iteration order — and therefore
/// everything derived from it (printed tables, golden tests, benchmark
/// inputs) — deterministic, while construction is append-then-sort, the
/// set operations are linear merges, and lookups are binary searches.
/// Operators whose output is produced in sorted order already (selection,
/// product, the streamed theta path, semijoin) skip the sort entirely.
///
/// All construction goes through [`RelationBuilder`] or one of the
/// sorted-preserving fast paths; the rows are never mutated in a way that
/// could break the invariant.
///
/// The row vector is shared (`Arc`): a clone, a renaming and the identity
/// projection read the same storage instead of copying it, and a set
/// operation reads an operand in the same column order in place.
/// [`Relation::insert`] and [`Relation::remove`] copy the vector first
/// when it is shared.
///
/// # Versioning and statistics
///
/// Every relation carries a process-monotonic **epoch tag**, stamped by the
/// constructing operation. Clones share the tag (a clone is the same
/// content), a renaming stamps its own (its schema differs); the `&mut`
/// entry points ([`Relation::insert`],
/// [`Relation::remove`]) stamp a fresh one. Equal tags therefore imply
/// equal content, which lets the isql optimizer memo and snapshot identity
/// key on `(name, epoch)` in O(1).
///
/// A relation also lazily computes and memoizes per-column statistics
/// ([`Relation::stats`]: row count and per-column distinct count) —
/// the cost model's cardinality inputs. [`Relation::with_changes`], the
/// constructor of DML successors, seeds them from its input's memoized
/// statistics instead of leaving them to a recount. Neither the tag nor
/// the statistics participate in equality, ordering, or hashing: those
/// remain purely structural (schema + rows), and relations order as their
/// row sequences do.
pub struct Relation {
    schema: Schema,
    rows: Arc<RowBuf>,
    /// Process-monotonic construction tag; equal tags ⇒ equal content.
    epoch: u64,
    /// Lazily computed statistics; never stale because the content under a
    /// given epoch is immutable.
    stats: OnceLock<Arc<RelStats>>,
}

/// Epoch source: every constructing operation takes the next value, so no
/// two independently built relations ever share a tag.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

impl Clone for Relation {
    #[inline]
    fn clone(&self) -> Relation {
        Relation {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            // A clone is the same content: it shares the rows, keeps the
            // epoch (O(1) cache verification treats it as identical) and
            // any computed stats.
            epoch: self.epoch,
            stats: self.stats.clone(),
        }
    }
}

impl PartialEq for Relation {
    #[inline]
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl Eq for Relation {}

impl PartialOrd for Relation {
    #[inline]
    fn partial_cmp(&self, other: &Relation) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Relation {
    #[inline]
    fn cmp(&self, other: &Relation) -> std::cmp::Ordering {
        self.schema
            .cmp(&other.schema)
            .then_with(|| self.rows.cmp(&other.rows))
    }
}

impl std::hash::Hash for Relation {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.schema.hash(state);
        self.rows.hash(state);
    }
}

/// An append-only builder for [`Relation`]: push rows in any order (and
/// with duplicates), then [`RelationBuilder::finish`] runs one sort + dedup
/// pass and seals the sorted-vec invariant.
#[derive(Clone, Debug)]
pub struct RelationBuilder {
    schema: Schema,
    rows: RowBuf,
}

impl RelationBuilder {
    /// A builder over the given schema.
    pub fn new(schema: Schema) -> RelationBuilder {
        let rows = RowBuf::new(schema.arity());
        RelationBuilder { schema, rows }
    }

    /// A builder with room for `cap` rows.
    pub fn with_capacity(schema: Schema, cap: usize) -> RelationBuilder {
        let rows = RowBuf::with_capacity(schema.arity(), cap);
        RelationBuilder { schema, rows }
    }

    /// The target schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append a row assumed to match the schema arity (operators construct
    /// rows positionally, so this is checked only in debug builds). The
    /// values are copied into the builder's flat buffer.
    pub fn push(&mut self, row: impl AsRef<[Value]>) {
        self.rows.push(row.as_ref());
    }

    /// Append the row whose values `vals` yields, one per column, written
    /// straight into the builder's flat buffer (arity is checked only in
    /// debug builds, as for [`RelationBuilder::push`]).
    pub fn push_values(&mut self, vals: impl IntoIterator<Item = Value>) {
        self.rows.push_iter(vals);
    }

    /// Append a row, validating arity.
    pub fn try_push(&mut self, row: impl AsRef<[Value]>) -> Result<()> {
        let row = row.as_ref();
        if row.len() != self.schema.arity() {
            return Err(RelalgError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Number of rows appended so far (duplicates included).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// One sort + dedup pass over the appended rows.
    pub fn finish(self) -> Relation {
        let RelationBuilder { schema, mut rows } = self;
        rows.sort_dedup();
        Relation::sealed(schema, rows)
    }

    /// Seal rows that were appended in strictly ascending order, skipping
    /// the sort + dedup pass. The caller owns the ordering proof; it is
    /// only `debug_assert`ed, as for [`Relation::from_sorted_rows`].
    pub fn finish_sorted(self) -> Relation {
        Relation::from_sorted(self.schema, self.rows)
    }
}

impl Relation {
    /// The one place a `Relation` comes into existence: seals the sorted
    /// rows and stamps a fresh epoch tag.
    fn sealed(schema: Schema, rows: RowBuf) -> Relation {
        Relation::sharing(schema, Arc::new(rows))
    }

    /// A relation over already sealed rows, with a fresh epoch tag.
    fn sharing(schema: Schema, rows: Arc<RowBuf>) -> Relation {
        debug_assert_eq!(rows.arity(), schema.arity(), "rows of another arity");
        Relation {
            schema,
            rows,
            epoch: next_epoch(),
            stats: OnceLock::new(),
        }
    }

    /// An empty relation over the given schema.
    pub fn empty(schema: Schema) -> Relation {
        let rows = RowBuf::new(schema.arity());
        Relation::sealed(schema, rows)
    }

    /// Internal constructor for rows that are already strictly sorted
    /// (operators that produce output in order use this to skip the
    /// builder's sort pass; the snapshot codec uses it because relations
    /// are persisted in sorted order).
    pub(crate) fn from_sorted(schema: Schema, rows: RowBuf) -> Relation {
        debug_assert!(
            rows.rows().is_strictly_sorted(),
            "from_sorted requires strictly sorted rows"
        );
        Relation::sealed(schema, rows)
    }

    /// Build a relation from rows that are already strictly sorted
    /// (ascending, no duplicates), validating arity and skipping the
    /// builder's sort+dedup pass. Callers own the ordering proof — the
    /// sortedness is only `debug_assert`ed; sorted-map iteration and
    /// sorted-merge producers (the factorized layer's conversion and
    /// decode paths) use this to avoid re-sorting what they emit in
    /// order.
    pub fn from_sorted_rows(
        schema: Schema,
        rows: impl IntoIterator<Item = impl AsRef<[Value]>>,
    ) -> Result<Relation> {
        let mut b = RelationBuilder::new(schema);
        for row in rows {
            b.try_push(row)?;
        }
        Ok(b.finish_sorted())
    }

    /// Build a relation from rows, validating arity.
    pub fn from_rows(
        schema: Schema,
        rows: impl IntoIterator<Item = impl AsRef<[Value]>>,
    ) -> Result<Relation> {
        let mut b = RelationBuilder::new(schema);
        for row in rows {
            b.try_push(row)?;
        }
        Ok(b.finish())
    }

    /// Convenience constructor from attribute names and value-convertible
    /// rows; panics on arity mismatch (intended for literals in tests and
    /// examples).
    pub fn table<V: Into<Value> + Clone>(names: &[&str], rows: &[&[V]]) -> Relation {
        let mut b = RelationBuilder::with_capacity(Schema::of(names), rows.len());
        for row in rows {
            assert_eq!(
                row.len(),
                names.len(),
                "row arity mismatch in Relation::table"
            );
            b.push_values(row.iter().map(|v| v.clone().into()));
        }
        b.finish()
    }

    /// The nullary relation containing the single empty tuple: `{⟨⟩}`.
    /// This is the initial world table `W` of a one-world database
    /// (Example 5.6, step 1).
    pub fn unit() -> Relation {
        let mut rows = RowBuf::new(0);
        rows.push(&[]);
        Relation::sealed(Schema::nullary(), rows)
    }

    /// The nullary relation with no tuples (the empty world-set encoding).
    pub fn nullary_empty() -> Relation {
        Relation::empty(Schema::nullary())
    }

    /// The relation schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The epoch tag: a process-monotonic identifier of this relation's
    /// construction. Equal tags imply equal content (clones share the tag;
    /// every constructing or mutating operation stamps a fresh one), so
    /// caches verify "is this still the same relation?" in O(1).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-column statistics (row count and distinct counts), computed
    /// lazily on first call and memoized for the relation's lifetime.
    /// Clones share already-computed statistics.
    pub fn stats(&self) -> &RelStats {
        self.stats
            .get_or_init(|| Arc::new(RelStats::compute(self.rows.rows())))
    }

    /// The memoized statistics **only if already computed** — `None`
    /// otherwise. The vectorized-selection conjunct ordering consults this
    /// instead of [`Relation::stats`]: forcing the lazy per-column pass on
    /// an intermediate relation could cost more than the selection itself.
    pub fn stats_if_computed(&self) -> Option<&RelStats> {
        self.stats.get().map(Arc::as_ref)
    }

    /// Pre-populate the statistics memo (no-op if already computed). The
    /// snapshot codec uses this so a restarted process keeps the warm
    /// statistics it persisted instead of recomputing them on first use.
    pub(crate) fn seed_stats(&self, stats: Arc<RelStats>) {
        let _ = self.stats.set(stats);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate the rows in sorted order, each a `&[Value]` of the
    /// relation's arity.
    pub fn iter(&self) -> Rows<'_> {
        self.rows.rows().iter()
    }

    /// The rows as a borrowed run (the kernels' view).
    pub(crate) fn row_slice(&self) -> RowSlice<'_> {
        self.rows.rows()
    }

    /// The values of every row, row after row: the relation's flat storage
    /// (shared by clones, renamings and identity projections).
    pub fn values(&self) -> &[Value] {
        self.rows.rows().values()
    }

    /// Membership test (binary search over the sorted rows).
    pub fn contains(&self, t: &[Value]) -> bool {
        self.rows.rows().binary_search(t).is_ok()
    }

    /// Insert a row (validating arity), keeping the sorted invariant.
    pub fn insert(&mut self, t: impl AsRef<[Value]>) -> Result<()> {
        let t = t.as_ref();
        if t.len() != self.schema.arity() {
            return Err(RelalgError::ArityMismatch {
                expected: self.schema.arity(),
                got: t.len(),
            });
        }
        if let Err(pos) = self.rows.rows().binary_search(t) {
            Arc::make_mut(&mut self.rows).insert(pos, t);
            self.content_changed();
        }
        Ok(())
    }

    /// In-place mutation (on storage no other relation shares any more):
    /// the content under the old epoch no longer exists, so stamp a fresh
    /// tag and drop any memoized statistics.
    fn content_changed(&mut self) {
        self.epoch = next_epoch();
        self.stats = OnceLock::new();
    }

    /// Insert a batch of rows: [`Relation::with_changes`] with nothing
    /// removed.
    pub fn merge_rows(
        &self,
        rows: impl IntoIterator<Item = impl AsRef<[Value]>>,
    ) -> Result<Relation> {
        self.with_changes(std::iter::empty::<&[Value]>(), rows)
    }

    /// The successor of a DML statement: `(self − removed) ∪ added`.
    ///
    /// `removed` must come strictly sorted (rows a filter matched, in the
    /// relation's order); rows of it that `self` lacks are ignored. `added`
    /// may come in any order, with duplicates and with rows already present
    /// (arity is validated). The batch is sorted and deduped, then merged
    /// into the existing rows in one pass that gallops over the unchanged
    /// runs, so a small change to a large table compares O(d · log n)
    /// rows, not O(n).
    ///
    /// When no row changes, the result is a clone: same storage, epoch and
    /// statistics. Otherwise it gets a fresh epoch, and if `self` has its
    /// statistics memoized, the successor is seeded with statistics derived
    /// from them (`RelStats::changed`) instead of starting cold.
    pub fn with_changes(
        &self,
        removed: impl IntoIterator<Item = impl AsRef<[Value]>>,
        added: impl IntoIterator<Item = impl AsRef<[Value]>>,
    ) -> Result<Relation> {
        let mut batch = RelationBuilder::new(self.schema.clone());
        for row in added {
            batch.try_push(row)?;
        }
        batch.rows.sort_dedup();
        let (rows, gone, new) = merge_changes(self.rows.rows(), removed, batch.rows.rows());
        if gone.is_empty() && new.is_empty() {
            return Ok(self.clone());
        }
        let next = Relation::from_sorted(self.schema.clone(), rows);
        if let Some(stats) = self.stats_if_computed() {
            let derived = stats.changed(self.rows.rows(), next.rows.rows(), &gone, &new);
            debug_assert_eq!(
                derived,
                RelStats::compute(next.rows.rows()),
                "statistics derived from a change differ from a recount"
            );
            next.seed_stats(Arc::new(derived));
        }
        Ok(next)
    }

    /// Remove a row.
    pub fn remove(&mut self, t: &[Value]) -> bool {
        match self.rows.rows().binary_search(t) {
            Ok(pos) => {
                Arc::make_mut(&mut self.rows).remove(pos);
                self.content_changed();
                true
            }
            Err(_) => false,
        }
    }

    pub(crate) fn positions(&self, attrs: &[Attr]) -> Result<Vec<usize>> {
        attrs
            .iter()
            .map(|a| {
                self.schema
                    .index_of(a)
                    .ok_or_else(|| RelalgError::UnknownAttr {
                        attr: a.clone(),
                        schema: self.schema.clone(),
                    })
            })
            .collect()
    }

    /// Projection `π_A`: keep the listed attributes (deduplicating rows).
    pub fn project(&self, attrs: &[Attr]) -> Result<Relation> {
        let list: Vec<(Attr, Attr)> = attrs.iter().map(|a| (a.clone(), a.clone())).collect();
        self.project_as(&list)
    }

    /// Generalized projection with output names: each `(src, dst)` pair
    /// copies column `src` to output column `dst`. This subsumes plain
    /// projection, column duplication (`π_{D, B as V_B}` in the Figure-6
    /// choice-of translation) and projection-with-renaming.
    pub fn project_as(&self, list: &[(Attr, Attr)]) -> Result<Relation> {
        let srcs: Vec<Attr> = list.iter().map(|(s, _)| s.clone()).collect();
        let idx = self.positions(&srcs)?;
        let out_schema = Schema::try_new(list.iter().map(|(_, d)| d.clone()).collect())
            .ok_or_else(|| RelalgError::DuplicateAttr {
                attr: list
                    .iter()
                    .map(|(_, d)| d.clone())
                    .find(|d| list.iter().filter(|(_, x)| x == d).count() > 1)
                    .unwrap_or_else(|| Attr::new("?")),
            })?;
        // A map that keeps the leading columns in source order (copies of
        // kept columns allowed) emits in source order: equal outputs are
        // adjacent, so one pass writes a row per change of that prefix.
        // The identity map shares the rows.
        if let Some(kept) = stream_prefix(&idx) {
            if kept == idx.len() && kept == self.schema.arity() {
                return Ok(Relation::sharing(out_schema, self.rows.clone()));
            }
            let mut out = RowBuf::with_capacity(idx.len(), self.len());
            let mut last: Option<&[Value]> = None;
            for t in self.iter() {
                if last.is_some_and(|l| l[..kept] == t[..kept]) {
                    continue;
                }
                out.push_iter(idx.iter().map(|&i| t[i]));
                last = Some(t);
            }
            return Ok(Relation::from_sorted(out_schema, out));
        }
        // Any other map first drops duplicates by hash, writing one row
        // per distinct output; a mostly distinct output sorts instead.
        if let Some(rows) = project_hashed(self.rows.rows(), &idx) {
            return Ok(Relation::from_sorted(out_schema, rows));
        }
        let mut b = RelationBuilder::with_capacity(out_schema, self.len());
        for t in self.iter() {
            b.push_values(idx.iter().map(|&i| t[i]));
        }
        Ok(b.finish())
    }

    /// Selection `σ_φ`. Filtering preserves sortedness, so the output is
    /// assembled without a sort pass.
    ///
    /// Every selection runs the vectorized kernel
    /// (`physical::filter_rows`): comparison conjuncts evaluate into a
    /// selection bitmap (most selective first, using statistics if already
    /// computed), the rest of the predicate runs on the surviving rows, and
    /// survivors materialize late.
    pub fn select(&self, pred: &Pred) -> Result<Relation> {
        let stats = self.stats_if_computed();
        let distinct_of = |i: usize| stats.and_then(|s| s.col(i)).map(|c| c.distinct);
        let rows = crate::physical::filter_rows(&self.schema, self.rows.rows(), pred, distinct_of)?;
        Ok(Relation::from_sorted(self.schema.clone(), rows))
    }

    /// Renaming `δ_{src→dst}`: columns keep their position; names change.
    /// Unlisted attributes are preserved.
    pub fn rename(&self, map: &[(Attr, Attr)]) -> Result<Relation> {
        for (src, _) in map {
            if !self.schema.contains(src) {
                return Err(RelalgError::UnknownAttr {
                    attr: src.clone(),
                    schema: self.schema.clone(),
                });
            }
        }
        let new_attrs: Vec<Attr> = self
            .schema
            .attrs()
            .iter()
            .map(|a| {
                map.iter()
                    .find(|(s, _)| s == a)
                    .map(|(_, d)| d.clone())
                    .unwrap_or_else(|| a.clone())
            })
            .collect();
        let schema =
            Schema::try_new(new_attrs.clone()).ok_or_else(|| RelalgError::DuplicateAttr {
                attr: new_attrs
                    .iter()
                    .find(|d| new_attrs.iter().filter(|x| x == d).count() > 1)
                    .cloned()
                    .unwrap_or_else(|| Attr::new("?")),
            })?;
        Ok(Relation::sharing(schema, self.rows.clone()))
    }

    /// Cartesian product `×` over disjoint schemas. The left-major nested
    /// loop over two sorted inputs emits concatenations in strictly
    /// increasing order, so the output needs neither sort nor dedup.
    pub fn product(&self, other: &Relation) -> Result<Relation> {
        if !self.schema.disjoint(&other.schema) {
            return Err(RelalgError::NotDisjoint {
                left: self.schema.clone(),
                right: other.schema.clone(),
            });
        }
        let mut attrs = self.schema.attrs().to_vec();
        attrs.extend_from_slice(other.schema.attrs());
        let schema = Schema::new(attrs);
        let mut out = RowBuf::with_capacity(schema.arity(), self.len() * other.len());
        for l in self.iter() {
            for r in other.iter() {
                out.push_concat(l, r);
            }
        }
        Ok(Relation::from_sorted(schema, out))
    }

    /// Reorder `other`'s columns into `self`'s column order (both must have
    /// the same attribute set), returning its sorted rows — `other`'s own
    /// when the order already matches; used by the set operations.
    fn aligned<'a>(&self, other: &'a Relation) -> Result<Cow<'a, RowBuf>> {
        if !self.schema.same_attr_set(&other.schema) {
            return Err(RelalgError::SchemaMismatch {
                left: self.schema.clone(),
                right: other.schema.clone(),
            });
        }
        if self.schema == other.schema {
            return Ok(Cow::Borrowed(&other.rows));
        }
        let idx: Vec<usize> = self
            .schema
            .attrs()
            .iter()
            .map(|a| other.schema.index_of(a).expect("checked same_attr_set"))
            .collect();
        // Column reordering destroys the sort order; re-sort once.
        let mut rows = RowBuf::with_capacity(idx.len(), other.len());
        for t in other.iter() {
            rows.push_iter(idx.iter().map(|&i| t[i]));
        }
        rows.sort_dedup();
        Ok(Cow::Owned(rows))
    }

    /// Union `∪` (same attribute set; right side is reordered as needed):
    /// a linear merge of the two sorted row runs.
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        let right = self.aligned(other)?;
        let rows = merge_union(self.rows.rows(), right.rows());
        Ok(Relation::from_sorted(self.schema.clone(), rows))
    }

    /// Union of `self` and every relation in `others` (same attribute set;
    /// each is reordered to `self`'s columns as [`Relation::union`] does):
    /// one builder pass over all members, where a fold of `union` would
    /// copy its growing accumulator once per member.
    pub fn union_all<'a>(
        &self,
        others: impl IntoIterator<Item = &'a Relation>,
    ) -> Result<Relation> {
        let mut b = RelationBuilder::new(self.schema.clone());
        b.rows.extend_rows(self.rows.rows());
        for other in others {
            b.rows.extend_rows(self.aligned(other)?.rows());
        }
        Ok(b.finish())
    }

    /// Intersection `∩`: a linear merge.
    pub fn intersect(&self, other: &Relation) -> Result<Relation> {
        let right = self.aligned(other)?;
        let rows = merge_intersect(self.rows.rows(), right.rows());
        Ok(Relation::from_sorted(self.schema.clone(), rows))
    }

    /// Difference `−`: a linear merge.
    pub fn difference(&self, other: &Relation) -> Result<Relation> {
        let right = self.aligned(other)?;
        let rows = merge_difference(self.rows.rows(), right.rows());
        Ok(Relation::from_sorted(self.schema.clone(), rows))
    }

    /// Natural join `⋈` on the common attributes: a hash join that builds
    /// its index on the smaller input and probes with the larger one.
    pub fn natural_join(&self, other: &Relation) -> Relation {
        let common = self.schema.common(&other.schema);
        let l_idx: Vec<usize> = common
            .iter()
            .map(|a| self.schema.index_of(a).unwrap())
            .collect();
        let r_idx: Vec<usize> = common
            .iter()
            .map(|a| other.schema.index_of(a).unwrap())
            .collect();
        let r_extra: Vec<usize> = other
            .schema
            .attrs()
            .iter()
            .enumerate()
            .filter(|(_, a)| !common.contains(a))
            .map(|(i, _)| i)
            .collect();

        let mut attrs = self.schema.attrs().to_vec();
        for &i in &r_extra {
            attrs.push(other.schema.attrs()[i].clone());
        }
        let schema = Schema::new(attrs);
        if self.is_empty() || other.is_empty() {
            return Relation::empty(schema);
        }

        // Index the smaller side, probe with the larger; each match is
        // written back in left-then-right column order.
        let index_left = self.len() <= other.len();
        let (build, build_keys, probe, probe_keys) = if index_left {
            (self.rows.rows(), &l_idx, other.rows.rows(), &r_idx)
        } else {
            (other.rows.rows(), &r_idx, self.rows.rows(), &l_idx)
        };
        let mut out = RowBuf::new(schema.arity());
        hash_join(build, build_keys, probe, probe_keys, |m, p| {
            let (l, r) = if index_left { (m, p) } else { (p, m) };
            out.push_iter(l.iter().copied().chain(r_extra.iter().map(|&i| r[i])));
        });
        out.sort_dedup();
        Relation::sealed(schema, out)
    }

    /// Theta join `⋈_φ` over disjoint schemas, semantically `σ_φ(self × other)`.
    ///
    /// When `φ` contains equi-conjuncts `a = b` linking the two sides, the
    /// join runs as a hash-partitioned equi-join: the smaller side is
    /// indexed on its key columns, the larger side probes, and the residual
    /// predicate (compiled once against the combined schema) filters the
    /// matches. The cross product is **never** materialized; without any
    /// equi-conjunct the pairs stream row-by-row through the compiled
    /// predicate in sorted order, so that path — like `product` — skips the
    /// output sort entirely.
    pub fn theta_join(&self, other: &Relation, pred: &Pred) -> Result<Relation> {
        if !self.schema.disjoint(&other.schema) {
            return Err(RelalgError::NotDisjoint {
                left: self.schema.clone(),
                right: other.schema.clone(),
            });
        }
        let mut attrs = self.schema.attrs().to_vec();
        attrs.extend_from_slice(other.schema.attrs());
        let schema = Schema::new(attrs);
        if self.is_empty() || other.is_empty() {
            return Ok(Relation::empty(schema));
        }

        let (keys, residual) = split_equi_conjuncts(pred, &self.schema, &other.schema);
        // Compile once per operator; per-row evaluation is index-based.
        let residual = residual.compile(&schema)?;
        let l_arity = self.schema.arity();

        // Each candidate pair is written in place and taken back if the
        // residual rejects it.
        let mut out = RowBuf::new(schema.arity());
        let mut emit = |l: &[Value], r: &[Value]| {
            out.push_concat(l, r);
            if !residual.eval(out.last()) {
                out.pop();
            }
        };

        if keys.is_empty() {
            // No equi-conjunct: the left-major nested loop emits a filtered
            // subsequence of the sorted product — already strictly sorted.
            for l in self.iter() {
                for r in other.iter() {
                    emit(l, r);
                }
            }
            Ok(Relation::from_sorted(schema, out))
        } else {
            let l_keys: Vec<usize> = keys.iter().map(|(l, _)| *l).collect();
            let r_keys: Vec<usize> = keys.iter().map(|(_, r)| *r - l_arity).collect();
            let (left, right) = (self.rows.rows(), other.rows.rows());
            if self.len() <= other.len() {
                hash_join(left, &l_keys, right, &r_keys, |l, r| emit(l, r));
            } else {
                hash_join(right, &r_keys, left, &l_keys, |r, l| emit(l, r));
            }
            out.sort_dedup();
            Ok(Relation::sealed(schema, out))
        }
    }

    /// Semijoin `⋉`: rows of `self` with a natural-join partner in
    /// `other` — [`Relation::semijoin_on`] with every common attribute
    /// paired with itself.
    pub fn semijoin(&self, other: &Relation) -> Relation {
        let on: Vec<(Attr, Attr)> = self
            .schema
            .common(&other.schema)
            .into_iter()
            .map(|a| (a.clone(), a))
            .collect();
        self.semijoin_on(other, &on, false)
            .expect("common attributes are in both schemas")
    }

    /// Semijoin `⋉_{l₁=r₁,…}` (`anti`: antijoin `▷`) on explicit column
    /// pairs: the rows of `self` whose `l` columns equal the `r` columns
    /// of some row of `other` (`anti`: of none). With no pairs, a row
    /// has a partner iff `other` is non-empty (`exists`). One pass: `other`
    /// is indexed once on its `r` columns (`KeyIndex`) and `self` streams
    /// through the index, so the output keeps `self`'s order and is never
    /// re-sorted.
    pub fn semijoin_on(
        &self,
        other: &Relation,
        on: &[(Attr, Attr)],
        anti: bool,
    ) -> Result<Relation> {
        let (l, r): (Vec<Attr>, Vec<Attr>) = on.iter().cloned().unzip();
        let (l_idx, r_idx) = (self.positions(&l)?, other.positions(&r)?);
        if self.is_empty() {
            return Ok(self.clone());
        }
        let others = other.rows.rows();
        let index = KeyIndex::over_rows(others, &r_idx);
        let mut out = RowBuf::with_capacity(self.schema.arity(), self.len());
        for t in self.iter() {
            let found = index
                .chain(key_hash(t, &l_idx))
                .any(|o| cols_eq(t, &l_idx, others.row(o), &r_idx));
            if found != anti {
                out.push(t);
            }
        }
        Ok(Relation::from_sorted(self.schema.clone(), out))
    }

    /// Division `÷`: for `R[A ∪ B] ÷ S[B]`, the `A`-rows `a` such that
    /// `(a, b) ∈ R` for **every** `b ∈ S`. Used by the `cert` translation
    /// (`R ÷ W` in Figure 6). When `S` is empty the result is `π_A(R)`
    /// (vacuous universal quantification), consistent with the classical
    /// RA definition `π_A(R) − π_A(π_A(R) × S − R)`.
    ///
    /// Two layouts of `R` are read in place, without sorting (sort-based
    /// division on sorted input, Graefe, ICDE 1989):
    ///
    /// * `A` then `B` (`B` in `S`'s column order): the sorted rows run
    ///   by their `A`-part, and each run's `B`-parts are checked against
    ///   `S` in one forward walk;
    /// * `B` then `A` (what `Flights(Dep, Arr) ÷ π{Dep}(Flights)` reads
    ///   when [`crate::Catalog::eval`] looks through the trip plan's
    ///   `π{Arr,Dep}`): the rows run by their `B`-part, `S` is merged
    ///   against those runs, and the runs' sorted `A`-lists are
    ///   intersected. A divisor row without a run empties the quotient.
    ///
    /// Any other layout, and an empty `S` under `B`-then-`A`, first copies
    /// `R`'s rows into `A`-then-`B` column order and sorts them once, then
    /// walks them as the first layout.
    pub fn divide(&self, divisor: &Relation) -> Result<Relation> {
        let b: Vec<Attr> = divisor.schema.attrs().to_vec();
        if !self.schema.contains_all(&b) {
            return Err(RelalgError::BadDivision {
                left: self.schema.clone(),
                right: divisor.schema.clone(),
            });
        }
        let a: Vec<Attr> = self.schema.minus(&b);
        let out_schema = Schema::new(a.clone());
        if self.is_empty() {
            return Ok(Relation::empty(out_schema));
        }
        let a_idx: Vec<usize> = a.iter().map(|x| self.schema.index_of(x).unwrap()).collect();
        let b_idx: Vec<usize> = b.iter().map(|x| self.schema.index_of(x).unwrap()).collect();
        let needed = divisor.rows.rows();
        fn in_order<'c>(cols: impl Iterator<Item = &'c usize>) -> bool {
            cols.enumerate().all(|(i, &x)| x == i)
        }

        let m = b.len();
        if !in_order(a_idx.iter().chain(&b_idx))
            && !needed.is_empty()
            && in_order(b_idx.iter().chain(&a_idx))
        {
            let rows = self.rows.rows();
            let mut out = RowBuf::new(a.len());
            let mut start = 0;
            for (n, kb) in needed.iter().enumerate() {
                // The divisor ascends, so its run starts at or after the
                // previous one's.
                while start < rows.len() && rows.row(start)[..m] < *kb {
                    start += 1;
                }
                let mut end = start;
                while end < rows.len() && rows.row(end)[..m] == *kb {
                    end += 1;
                }
                let run = rows.slice(start, end);
                if n == 0 {
                    for t in run.iter() {
                        out.push(&t[m..]);
                    }
                } else {
                    let mut j = 0;
                    out.retain(|ka| {
                        while j < run.len() && run.row(j)[m..] < *ka {
                            j += 1;
                        }
                        j < run.len() && run.row(j)[m..] == *ka
                    });
                }
                if out.is_empty() {
                    break;
                }
                start = end;
            }
            // A run's `A`-parts ascend, and intersecting keeps that order.
            return Ok(Relation::from_sorted(out_schema, out));
        }

        // `A` then `B`: in place, or from a sorted copy in that order.
        let reordered;
        let rows = if in_order(a_idx.iter().chain(&b_idx)) {
            self.rows.rows()
        } else {
            let mut copy = RowBuf::with_capacity(self.schema.arity(), self.len());
            for t in self.iter() {
                copy.push_iter(a_idx.iter().chain(&b_idx).map(|&i| t[i]));
            }
            copy.sort_dedup();
            reordered = copy;
            reordered.rows()
        };
        let k = a.len();
        let mut out = RowBuf::new(k);
        let mut run = 0;
        while run < rows.len() {
            let ka = &rows.row(run)[..k];
            let mut end = run + 1;
            while end < rows.len() && &rows.row(end)[..k] == ka {
                end += 1;
            }
            if covers(rows.slice(run, end).iter().map(|t| &t[k..]), needed) {
                out.push(ka);
            }
            run = end;
        }
        // Runs appear in the rows' (sorted) order.
        Ok(Relation::from_sorted(out_schema, out))
    }

    /// The modified left outer join `=⊲⊳` of Remark 5.5:
    /// `R =⊲⊳ S = (R ⋈ S) ∪ (R − R ⋉ S) × {⟨c,…,c⟩}` — natural join, with
    /// dangling `R`-rows padded on `S`'s private attributes by the
    /// constant [`Value::Pad`].
    pub fn outer_pad_join(&self, other: &Relation) -> Relation {
        let joined = self.natural_join(other);
        let dangling = self
            .difference(&self.semijoin(other))
            .expect("same schema by construction");
        let pad_count = joined.schema.arity() - self.schema.arity();
        // Padding a sorted set of distinct rows with a constant suffix
        // keeps it sorted; merge it with the join output.
        let mut padded = RowBuf::with_capacity(joined.schema.arity(), dangling.len());
        for t in dangling.iter() {
            padded.push_iter(
                t.iter()
                    .copied()
                    .chain(std::iter::repeat_n(Value::Pad, pad_count)),
            );
        }
        let rows = merge_union(joined.rows.rows(), padded.rows());
        Relation::from_sorted(joined.schema, rows)
    }

    /// The distinct values of the listed attributes, as a sorted, deduped
    /// vector of sub-tuples (i.e. `π_attrs` as owned rows — convenient for
    /// world grouping).
    pub fn distinct_values(&self, attrs: &[Attr]) -> Result<Vec<Tuple>> {
        Ok(self.project(attrs)?.iter().map(Tuple::from).collect())
    }

    /// Partition the relation by the values of `attrs`: one sub-relation
    /// per distinct key, in the key's sorted order. One hash-bucketing scan
    /// assigns every row to its group — each bucket, being a subsequence
    /// of the sorted rows, is born sorted — and only the distinct *keys*
    /// are sorted afterwards (`O(N + K log K)`, not the `O(N log N)`
    /// full-relation key sort this replaces: partitioning is the inner loop
    /// of both `choice-of` splitting and inlined-representation decoding).
    pub fn partition_by(&self, attrs: &[Attr]) -> Result<Vec<(Tuple, Relation)>> {
        let idx = self.positions(attrs)?;
        let arity = self.schema.arity();
        let groups = group_rows(
            self.rows.rows(),
            &idx,
            || RowBuf::new(arity),
            |b, t| b.push(t),
        );
        Ok(sorted_parts(groups, &self.schema))
    }

    /// [`Relation::partition_by`] fused with a projection of each part to
    /// `keep` — the decode loop of the inlined representation
    /// (`rep(T) = {π_U(σ_{V=w}(Rᵀ)) | w ∈ W}`) in one pass.
    ///
    /// When `keep` is exactly the leading columns in schema order and the
    /// key covers all remaining columns (the layout the Figure-6
    /// translation produces: value attributes first, world ids appended),
    /// every bucket has a constant key suffix, so its projected prefixes
    /// are strictly sorted already: the parts are assembled without any
    /// sort, dedup, or second projection pass. Any other layout falls back
    /// to `partition_by` + `project`.
    pub fn partition_by_project(
        &self,
        key: &[Attr],
        keep: &[Attr],
    ) -> Result<Vec<(Tuple, Relation)>> {
        let key_idx = self.positions(key)?;
        let keep_idx = self.positions(keep)?;
        let vlen = keep.len();
        let fast = keep_idx.iter().enumerate().all(|(i, &p)| i == p)
            && key_idx.iter().all(|&p| p >= vlen)
            && key_idx.len() + vlen == self.schema.arity();
        if !fast {
            return self
                .partition_by(key)?
                .into_iter()
                .map(|(k, part)| Ok((k, part.project(keep)?)))
                .collect();
        }
        let out_schema =
            Schema::try_new(keep.to_vec()).ok_or_else(|| RelalgError::DuplicateAttr {
                attr: keep.first().cloned().unwrap_or_else(|| Attr::new("?")),
            })?;
        let groups = group_rows(
            self.rows.rows(),
            &key_idx,
            || RowBuf::new(vlen),
            |b, t| b.push(&t[..vlen]),
        );
        Ok(sorted_parts(groups, &out_schema))
    }

    /// Render as an aligned table (used by the shell, the server, examples
    /// and docs): [`Relation::write_table`] into a new `String`.
    pub fn to_table_string(&self, name: &str) -> String {
        let mut out = String::new();
        self.write_table(name, &mut out);
        out
    }

    /// Append the table [`Relation::to_table_string`] renders to `out`: a
    /// header line of `name` and the attribute names, then one line per
    /// row, indented by `name`'s width. A column is as wide as its longest
    /// cell in bytes, and a cell is padded to that width by characters, so
    /// non-ASCII text gets the extra spaces its byte length asks for;
    /// columns are two spaces apart.
    ///
    /// One pass over the flat values reads every string cell's text once
    /// (one [`Sym::as_str`](crate::Sym::as_str) each) and computes the
    /// widths (an integer's from its digit count) and so the table's byte
    /// length. The second pass fills a buffer of that many spaces and
    /// copies every cell to its place, writing integers two digits at a
    /// time. Only non-ASCII text has its `chars()` counted, for the extra
    /// bytes it adds to its line.
    pub fn write_table(&self, name: &str, out: &mut String) {
        if self.schema.arity() == 0 {
            use std::fmt::Write as _;
            let _ = writeln!(out, "{name}  ({} nullary tuple(s))", self.len());
            return;
        }
        let attrs = self.schema.attrs();
        let mut widths: Vec<usize> = attrs.iter().map(|a| a.name().len()).collect();
        // The string cells' texts and their bytes beyond their characters,
        // in row order, and those extra bytes over the whole table.
        let mut strs: Vec<(&'static str, usize)> = Vec::with_capacity(self.len());
        let mut extra_total = attrs.iter().map(|a| extra_bytes(a.name())).sum::<usize>();
        for row in self.iter() {
            for (w, v) in widths.iter_mut().zip(row) {
                let len = match v {
                    Value::Str(sym) => {
                        let s = sym.as_str();
                        let e = extra_bytes(s);
                        strs.push((s, e));
                        extra_total += e;
                        s.len()
                    }
                    Value::Int(i) => int_len(*i),
                    Value::Bool(b) => bool_text(*b).len(),
                    Value::Pad => PAD_TEXT.len(),
                };
                *w = (*w).max(len);
            }
        }
        let indent = name.len() + 2;
        // A line's bytes, its newline included, before non-ASCII text
        // lengthens it.
        let line = indent + widths.iter().map(|w| w + 2).sum::<usize>() + 1;
        let mut buf = vec![b' '; line * (self.len() + 1) + extra_total];
        buf[..name.len()].copy_from_slice(name.as_bytes());
        let mut at = indent;
        for (a, &w) in attrs.iter().zip(&widths) {
            let a = a.name();
            at = put_cell(&mut buf, at, a, extra_bytes(a), w);
        }
        let mut strs = strs.into_iter();
        for row in self.iter() {
            buf[at] = b'\n';
            at += 1 + indent;
            for (v, &w) in row.iter().zip(&widths) {
                at = match v {
                    Value::Str(_) => {
                        let (s, extra) = strs.next().expect("one text per string cell");
                        put_cell(&mut buf, at, s, extra, w)
                    }
                    Value::Int(i) => {
                        write_int(&mut buf[at..], *i);
                        at + w + 2
                    }
                    Value::Bool(b) => put_cell(&mut buf, at, bool_text(*b), 0, w),
                    Value::Pad => put_cell(&mut buf, at, PAD_TEXT, 0, w),
                };
            }
        }
        buf[at] = b'\n';
        debug_assert_eq!(at + 1, buf.len());
        out.push_str(std::str::from_utf8(&buf).expect("cells are copied whole into spaces"));
    }
}

/// The parts of a partition, `(key, sorted part)` in key order.
fn sorted_parts((keys, parts): (RowBuf, Vec<RowBuf>), schema: &Schema) -> Vec<(Tuple, Relation)> {
    let mut out: Vec<(Tuple, Relation)> = keys
        .rows()
        .iter()
        .map(Tuple::from)
        .zip(parts)
        .map(|(key, rows)| (key, Relation::from_sorted(schema.clone(), rows)))
        .collect();
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Group `rows` by the values at `key_idx`: each group's bucket starts as
/// `init()` and folds in its rows with `add`, in scan order (so row
/// buckets over sorted input stay sorted). Returns the group keys (row
/// `g` is group `g`'s key) and the buckets, in order of first occurrence.
///
/// Sorted inputs whose key columns correlate with the sort order arrive in
/// *runs* of equal keys; the previous row's group is re-used with a plain
/// value comparison, and the hash index is only consulted on run
/// boundaries. It hashes the key columns in place, so a key is written
/// once per group, not once per row.
pub(crate) fn group_rows<B>(
    rows: RowSlice<'_>,
    key_idx: &[usize],
    init: impl Fn() -> B,
    mut add: impl FnMut(&mut B, &[Value]),
) -> (RowBuf, Vec<B>) {
    let mut keys = RowBuf::new(key_idx.len());
    let mut buckets: Vec<B> = Vec::new();
    let mut index = KeyIndex::default();
    let mut last = usize::MAX;
    for t in rows.iter() {
        let in_run = last != usize::MAX && same_key(t, key_idx, keys.row(last));
        if !in_run {
            let hash = key_hash(t, key_idx);
            let found = index
                .chain(hash)
                .find(|&g| same_key(t, key_idx, keys.row(g)));
            last = match found {
                Some(g) => g,
                None => {
                    index.push(hash);
                    keys.push_iter(key_idx.iter().map(|&i| t[i]));
                    buckets.push(init());
                    buckets.len() - 1
                }
            };
        }
        add(&mut buckets[last], t);
    }
    (keys, buckets)
}

/// Whether `t`'s values at `cols` are `key`.
#[inline]
fn same_key(t: &[Value], cols: &[usize], key: &[Value]) -> bool {
    cols.iter().zip(key).all(|(&i, k)| t[i] == *k)
}

/// Whether `a`'s values at `a_cols` equal `b`'s at `b_cols`, pairwise.
#[inline]
fn cols_eq(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> bool {
    a_cols.iter().zip(b_cols).all(|(&i, &j)| a[i] == b[j])
}

/// The hash of `t`'s values at `cols`, taken in place (no key is built).
#[inline]
fn key_hash(t: &[Value], cols: &[usize]) -> u64 {
    use std::hash::Hash as _;
    let mut h = FxHasher::default();
    for &i in cols {
        t[i].hash(&mut h);
    }
    h.finish()
}

/// Closes a [`KeyIndex`] chain.
const END: u32 = u32::MAX;

/// The one hash index of the keyed operators (`⋈`, `⋈_φ`, `⋉`/`▷`, `γ`,
/// `π`, partitioning). Its entries are numbered `0, 1, …`; `head` maps a
/// key hash ([`key_hash`]) to the first entry of its chain, and `next`
/// links each entry to the next one with the same hash (`END` closes a
/// chain). The index stores no keys: callers keep what an entry stands
/// for (a row, a group key) and confirm a chain entry by comparing
/// columns, which also resolves hash collisions.
#[derive(Default)]
struct KeyIndex {
    head: FxHashMap<u64, u32>,
    next: Vec<u32>,
}

impl KeyIndex {
    /// The index whose entry `i` is row `i` of `rows`, keyed by its values
    /// at `cols`. Inserting from the last row to the first makes every
    /// chain walk its rows in ascending order.
    fn over_rows(rows: RowSlice<'_>, cols: &[usize]) -> KeyIndex {
        assert!(rows.len() < END as usize, "too many rows to index");
        let mut index = KeyIndex {
            head: FxHashMap::with_capacity_and_hasher(rows.len(), FxBuild::default()),
            next: vec![END; rows.len()],
        };
        for (i, t) in rows.iter().enumerate().rev() {
            if let Some(later) = index.head.insert(key_hash(t, cols), i as u32) {
                index.next[i] = later;
            }
        }
        index
    }

    /// Add entry `len()` under `hash`, at the front of its chain.
    #[inline]
    fn push(&mut self, hash: u64) {
        let entry = u32::try_from(self.next.len())
            .ok()
            .filter(|&e| e != END)
            .expect("too many keys to index");
        self.next.push(self.head.insert(hash, entry).unwrap_or(END));
    }

    /// The entries under `hash`, in chain order.
    #[inline]
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut cur = self.head.get(&hash).copied().unwrap_or(END);
        std::iter::from_fn(move || {
            (cur != END).then(|| {
                let e = cur as usize;
                cur = self.next[e];
                e
            })
        })
    }

    /// Number of entries.
    fn len(&self) -> usize {
        self.next.len()
    }
}

/// The distinct rows of `rows` at `cols`, sorted, written once per
/// distinct output: duplicates are found by hashing the columns in place.
/// `None` once more than half of the rows scanned, after the first
/// `DEDUP_PROBE_ROWS`, are distinct — then sorting every projected row is
/// cheaper than hashing them.
fn project_hashed(rows: RowSlice<'_>, cols: &[usize]) -> Option<RowBuf> {
    /// Rows scanned before the distinct share is judged.
    const DEDUP_PROBE_ROWS: usize = 32;
    let mut index = KeyIndex::default();
    let mut out = RowBuf::new(cols.len());
    for (n, t) in rows.iter().enumerate() {
        let hash = key_hash(t, cols);
        if !index.chain(hash).any(|e| same_key(t, cols, out.row(e))) {
            index.push(hash);
            out.push_iter(cols.iter().map(|&i| t[i]));
        }
        let scanned = n + 1;
        if scanned > DEDUP_PROBE_ROWS && 2 * index.len() > scanned {
            return None;
        }
    }
    out.sort_dedup();
    Some(out)
}

/// Linear merge of two strictly sorted row runs: union.
fn merge_union(a: RowSlice<'_>, b: RowSlice<'_>) -> RowBuf {
    let mut out = RowBuf::with_capacity(a.arity(), a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a.row(i), b.row(j));
        match x.cmp(y) {
            std::cmp::Ordering::Less => {
                out.push(x);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(y);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_rows(a.tail(i));
    out.extend_rows(b.tail(j));
    out
}

/// The merge under [`Relation::with_changes`]: `(old − removed) ∪ added`
/// over strictly sorted inputs, with the rows `old` lost (`gone`) and the
/// rows it gained (`new`), each in sorted order. The next changed row is
/// located in the unconsumed rest of `old` by galloping, and the run before
/// it is copied as a whole.
fn merge_changes<'a, R: AsRef<[Value]>>(
    old: RowSlice<'a>,
    removed: impl IntoIterator<Item = R>,
    added: RowSlice<'a>,
) -> (RowBuf, Vec<&'a [Value]>, Vec<&'a [Value]>) {
    let mut out = RowBuf::with_capacity(old.arity(), old.len() + added.len());
    let (mut gone, mut new) = (Vec::new(), Vec::new());
    let mut removed = removed.into_iter().peekable();
    let (mut rest, mut added) = (old, added);
    let mut last_removed: Option<R> = None;
    loop {
        let (take_removed, take_added) = match (removed.peek(), added.first()) {
            (None, None) => break,
            (Some(_), None) => (true, false),
            (None, Some(_)) => (false, true),
            (Some(r), Some(a)) => match r.as_ref().cmp(a) {
                std::cmp::Ordering::Less => (true, false),
                std::cmp::Ordering::Greater => (false, true),
                std::cmp::Ordering::Equal => (true, true),
            },
        };
        let r = if take_removed { removed.next() } else { None };
        if let Some(r) = &r {
            debug_assert!(
                last_removed
                    .as_ref()
                    .is_none_or(|l| l.as_ref() < r.as_ref()),
                "with_changes requires strictly sorted removed rows"
            );
        }
        let added_row = take_added.then(|| added.row(0));
        let key: &[Value] = match (added_row, &r) {
            (Some(a), _) => a,
            (None, Some(r)) => r.as_ref(),
            (None, None) => unreachable!("one side supplies the key"),
        };
        let before = gallop(rest, key);
        out.extend_rows(rest.slice(0, before));
        rest = rest.tail(before);
        let present = rest.first() == Some(key);
        match (present, added_row) {
            (true, Some(_)) => out.push(rest.row(0)),
            (true, None) => gone.push(rest.row(0)),
            (false, Some(a)) => {
                out.push(a);
                new.push(a);
            }
            (false, None) => {}
        }
        if present {
            rest = rest.tail(1);
        }
        if take_added {
            added = added.tail(1);
        }
        if r.is_some() {
            last_removed = r;
        }
    }
    out.extend_rows(rest);
    (out, gone, new)
}

/// The number of rows of the sorted `rows` below `key`, found by an
/// exponential search from the front: O(log p) comparisons for an answer
/// `p`, so successive searches over a shrinking rest stay linear overall.
fn gallop(rows: RowSlice<'_>, key: &[Value]) -> usize {
    let mut hi = 1;
    while hi <= rows.len() && rows.row(hi - 1) < key {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(rows.len());
    lo + rows.slice(lo, hi).partition_point(|r| r < key)
}

/// Linear merge of two strictly sorted row runs: intersection.
fn merge_intersect(a: RowSlice<'_>, b: RowSlice<'_>) -> RowBuf {
    let mut out = RowBuf::new(a.arity());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let x = a.row(i);
        match x.cmp(b.row(j)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Linear merge of two strictly sorted row runs: difference `a − b`.
fn merge_difference(a: RowSlice<'_>, b: RowSlice<'_>) -> RowBuf {
    let mut out = RowBuf::with_capacity(a.arity(), a.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let x = a.row(i);
        match x.cmp(b.row(j)) {
            std::cmp::Ordering::Less => {
                out.push(x);
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_rows(a.tail(i));
    out
}

/// The build/probe phases of the hash equi-join under
/// [`Relation::natural_join`] and [`Relation::theta_join`]: `build` is
/// indexed on its key columns ([`KeyIndex::over_rows`]) and every probe
/// row walks the chain of its key hash. Chains walk build rows in sorted
/// order, so a probe row's matches come out in that order, which keeps
/// the output as presorted as the inputs allow for the callers' sort.
///
/// `emit(build_row, probe_row)` is called once per key-matching pair.
fn hash_join(
    build: RowSlice<'_>,
    build_keys: &[usize],
    probe: RowSlice<'_>,
    probe_keys: &[usize],
    mut emit: impl FnMut(&[Value], &[Value]),
) {
    let index = KeyIndex::over_rows(build, build_keys);
    for p in probe.iter() {
        for b in index.chain(key_hash(p, probe_keys)) {
            let m = build.row(b);
            if cols_eq(m, build_keys, p, probe_keys) {
                emit(m, p);
            }
        }
    }
}

/// Split `pred` into hash-joinable equi-conjuncts and a residual predicate.
///
/// An equi-conjunct is a top-level conjunct `a = b` with one attribute from
/// `left` and one from `right` (in either order); it is returned as the
/// column pair `(left index, combined-schema index of the right column)`.
/// Every other conjunct — non-equality comparisons, disjunctions, negations,
/// single-side equalities — stays in the residual, which callers apply to
/// the concatenated tuple.
fn split_equi_conjuncts(pred: &Pred, left: &Schema, right: &Schema) -> (Vec<(usize, usize)>, Pred) {
    fn walk(p: &Pred, left: &Schema, right: &Schema, keys: &mut Vec<(usize, usize)>) -> Pred {
        match p {
            Pred::And(a, b) => {
                let ra = walk(a, left, right, keys);
                let rb = walk(b, left, right, keys);
                ra.and(rb)
            }
            Pred::Cmp(Operand::Attr(a), CmpOp::Eq, Operand::Attr(b)) => {
                let (la, rb) = (left.index_of(a), right.index_of(b));
                if let (Some(i), Some(j)) = (la, rb) {
                    keys.push((i, left.arity() + j));
                    return Pred::True;
                }
                let (lb, ra) = (left.index_of(b), right.index_of(a));
                if let (Some(i), Some(j)) = (lb, ra) {
                    keys.push((i, left.arity() + j));
                    return Pred::True;
                }
                p.clone()
            }
            other => other.clone(),
        }
    }
    let mut keys = Vec::new();
    let residual = walk(pred, left, right, &mut keys);
    (keys, residual)
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.schema)?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, v) in t.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")?;
        }
        write!(f, "}}")
    }
}

/// How [`Relation::write_table`] prints [`Value::Pad`].
const PAD_TEXT: &str = "#c";

fn bool_text(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

/// The byte length of `i` in decimal, sign included.
fn int_len(i: i64) -> usize {
    let digits = i
        .unsigned_abs()
        .checked_ilog10()
        .map_or(1, |d| d as usize + 1);
    digits + usize::from(i < 0)
}

/// The decimal digits of 0–99, two bytes each.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Write `i` in decimal over the first [`int_len`] bytes of `dst` (what
/// `write!(out, "{i}")` writes), two digits at a time from the right.
fn write_int(dst: &mut [u8], i: i64) {
    let mut end = int_len(i);
    let mut n = i.unsigned_abs();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        dst[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        n /= 100;
        end -= 2;
    }
    if n >= 10 {
        let pair = n as usize * 2;
        dst[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        dst[end - 1] = b'0' + n as u8;
    }
    if i < 0 {
        dst[0] = b'-';
    }
}

/// How many more bytes than characters `s` has: 0 for ASCII text.
fn extra_bytes(s: &str) -> usize {
    if s.is_ascii() {
        0
    } else {
        s.len() - s.chars().count()
    }
}

/// Copy cell text `s` over the spaces at byte `at` of `buf`, and return
/// where the next column starts: `width` (at least `s`'s byte length) plus
/// the two-space gap, plus the `extra` bytes by which `s` is longer than
/// its characters (so a cell pads by characters, as
/// `format!("{s:<width$}  ")` does).
fn put_cell(buf: &mut [u8], at: usize, s: &str, extra: usize, width: usize) -> usize {
    buf[at..at + s.len()].copy_from_slice(s.as_bytes());
    at + width + 2 + extra
}

/// The number of leading source columns a projection map keeps when its
/// first occurrences are exactly `0, 1, …, k-1` in that order (later
/// entries may repeat a kept column); `None` for any other map. Over
/// sorted input such a map's outputs come out sorted, and equal outputs
/// are adjacent.
fn stream_prefix(idx: &[usize]) -> Option<usize> {
    let mut kept = 0;
    for &i in idx {
        if i == kept {
            kept += 1;
        } else if i > kept {
            return None;
        }
    }
    Some(kept)
}

/// Whether the ascending divisor parts of one quotient run include every
/// tuple of the (sorted) divisor: a single forward walk over both.
fn covers<'a>(run: impl Iterator<Item = &'a [Value]>, needed: RowSlice<'_>) -> bool {
    let mut ni = 0;
    for kb in run {
        if ni == needed.len() {
            break;
        }
        match kb.cmp(needed.row(ni)) {
            std::cmp::Ordering::Less => {}
            std::cmp::Ordering::Equal => ni += 1,
            std::cmp::Ordering::Greater => break,
        }
    }
    ni == needed.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attr, attrs};

    fn r() -> Relation {
        Relation::table(
            "A B".split(' ').collect::<Vec<_>>().as_slice(),
            &[&[1i64, 2], &[2, 3], &[2, 4], &[3, 2]],
        )
    }

    fn s() -> Relation {
        Relation::table(&["C", "D"], &[&[2i64, 3], &[4, 5]])
    }

    #[test]
    fn construction_and_dedup() {
        let rel = Relation::from_rows(
            Schema::of(&["A"]),
            vec![
                vec![Value::int(1)],
                vec![Value::int(1)],
                vec![Value::int(2)],
            ],
        )
        .unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn arity_checked() {
        let bad = Relation::from_rows(Schema::of(&["A"]), vec![Tuple::new()]);
        assert!(matches!(bad, Err(RelalgError::ArityMismatch { .. })));
    }

    #[test]
    fn unit_and_nullary() {
        assert_eq!(Relation::unit().len(), 1);
        assert_eq!(Relation::unit().schema().arity(), 0);
        assert!(Relation::nullary_empty().is_empty());
    }

    #[test]
    fn builder_sorts_and_dedups() {
        let mut b = RelationBuilder::new(Schema::of(&["A"]));
        for v in [3i64, 1, 2, 1, 3] {
            b.push([Value::int(v)]);
        }
        let rel = b.finish();
        assert_eq!(rel.len(), 3);
        let vals: Vec<i64> = rel.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn insert_remove_keep_sorted() {
        let mut rel = Relation::table(&["A"], &[&[1i64], &[3]]);
        rel.insert(vec![Value::int(2)]).unwrap();
        rel.insert(vec![Value::int(2)]).unwrap(); // duplicate, no-op
        let vals: Vec<i64> = rel.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
        assert!(rel.remove(&[Value::int(2)]));
        assert!(!rel.remove(&[Value::int(9)]));
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn project_dedups() {
        let p = r().project(&attrs(&["A"])).unwrap();
        assert_eq!(p.len(), 3); // 1, 2, 3
    }

    #[test]
    fn project_as_copies_columns() {
        let p = r()
            .project_as(&[
                (attr("A"), attr("A")),
                (attr("B"), attr("B")),
                (attr("A"), attr("V.A")),
            ])
            .unwrap();
        assert_eq!(p.schema().arity(), 3);
        assert!(p.contains(&[Value::int(1), Value::int(2), Value::int(1)]));
    }

    #[test]
    fn project_unknown_attr() {
        assert!(r().project(&attrs(&["Z"])).is_err());
    }

    #[test]
    fn project_as_duplicate_output() {
        let bad = r().project_as(&[(attr("A"), attr("X")), (attr("B"), attr("X"))]);
        assert!(matches!(bad, Err(RelalgError::DuplicateAttr { .. })));
    }

    #[test]
    fn select_filters() {
        let sel = r().select(&Pred::eq_const("A", 2)).unwrap();
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn rename_keeps_positions() {
        let ren = r().rename(&[(attr("A"), attr("X"))]).unwrap();
        assert_eq!(ren.schema().attrs(), &[attr("X"), attr("B")]);
        assert_eq!(ren.len(), 4);
    }

    #[test]
    fn rename_collision_rejected() {
        assert!(matches!(
            r().rename(&[(attr("A"), attr("B"))]),
            Err(RelalgError::DuplicateAttr { .. })
        ));
    }

    #[test]
    fn product_disjoint_only() {
        let p = r().product(&s()).unwrap();
        assert_eq!(p.len(), 8);
        assert_eq!(p.schema().arity(), 4);
        assert!(r().product(&r()).is_err());
    }

    #[test]
    fn set_ops_align_columns() {
        let left = Relation::table(&["A", "B"], &[&[1i64, 10]]);
        let right = Relation::table(&["B", "A"], &[&[10i64, 1], &[20, 2]]);
        assert_eq!(left.union(&right).unwrap().len(), 2);
        assert_eq!(left.intersect(&right).unwrap().len(), 1);
        assert_eq!(right.difference(&left).unwrap().len(), 1);
    }

    #[test]
    fn set_ops_schema_mismatch() {
        assert!(r().union(&s()).is_err());
    }

    #[test]
    fn union_all_equals_the_fold_of_union() {
        let permuted = Relation::table(&["B", "A"], &[&[9i64, 1], &[2, 1], &[5, 7]]);
        let empty_permuted = Relation::empty(Schema::of(&["B", "A"]));
        let more = Relation::table(&["A", "B"], &[&[0i64, 0], &[2, 3]]);
        let base = r();
        let fold = |first: &Relation, rest: &[&Relation]| {
            rest.iter().try_fold(first.clone(), |acc, r| acc.union(r))
        };
        let cases: [(Relation, Vec<&Relation>); 4] = [
            (r(), vec![&permuted, &more, &empty_permuted]),
            (permuted.clone(), vec![&base, &more]),
            (Relation::empty(Schema::of(&["A", "B"])), vec![&permuted]),
            (r(), vec![]),
        ];
        for (first, rest) in &cases {
            let all = first.union_all(rest.iter().copied()).unwrap();
            let folded = fold(first, rest).unwrap();
            assert_eq!(all, folded);
            assert_eq!(all.schema().attrs(), first.schema().attrs());
        }
        assert!(matches!(
            r().union_all([&more, &s()]),
            Err(RelalgError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn natural_join_basic() {
        let t = Relation::table(&["B", "E"], &[&[2i64, 100], &[3, 200]]);
        let j = r().natural_join(&t);
        assert_eq!(j.schema().attrs(), &[attr("A"), attr("B"), attr("E")]);
        // B=2 matches (1,2) and (3,2); B=3 matches (2,3)
        assert_eq!(j.len(), 3);
    }

    #[test]
    fn natural_join_no_common_is_product() {
        let j = r().natural_join(&s());
        assert_eq!(j.len(), 8);
    }

    #[test]
    fn semijoin_basic() {
        let t = Relation::table(&["B"], &[&[2i64]]);
        let sj = r().semijoin(&t);
        assert_eq!(sj.len(), 2); // (1,2) and (3,2)
    }

    #[test]
    fn semijoin_on_pairs_and_antijoin() {
        // B = C: (1,2) and (3,2) meet C = 2; (2,4) meets C = 4.
        let on = [(attr("B"), attr("C"))];
        let sj = r().semijoin_on(&s(), &on, false).unwrap();
        assert_eq!(
            sj,
            Relation::table(&["A", "B"], &[&[1i64, 2], &[2, 4], &[3, 2]])
        );
        let aj = r().semijoin_on(&s(), &on, true).unwrap();
        assert_eq!(aj, Relation::table(&["A", "B"], &[&[2i64, 3]]));
        // No pairs: `exists` — everything or nothing.
        assert_eq!(r().semijoin_on(&s(), &[], false).unwrap(), r());
        let none = Relation::empty(Schema::of(&["C", "D"]));
        assert!(r().semijoin_on(&none, &[], false).unwrap().is_empty());
        assert_eq!(r().semijoin_on(&none, &on, true).unwrap(), r());
        assert!(r()
            .semijoin_on(&s(), &[(attr("Z"), attr("C"))], false)
            .is_err());
    }

    #[test]
    fn divide_basic() {
        // Flights-style: Arr appearing with every Dep.
        let f = Relation::table(
            &["Dep", "Arr"],
            &[
                &["FRA", "BCN"],
                &["FRA", "ATL"],
                &["PAR", "ATL"],
                &["PAR", "BCN"],
                &["PHL", "ATL"],
            ],
        );
        let deps = f.project(&attrs(&["Dep"])).unwrap();
        let q = f.divide(&deps).unwrap();
        assert_eq!(q.schema().attrs(), &[attr("Arr")]);
        assert_eq!(q.len(), 1);
        assert!(q.contains(&[Value::str("ATL")]));
    }

    #[test]
    fn divide_by_empty_is_vacuous() {
        let empty = Relation::empty(Schema::of(&["B"]));
        let q = r().divide(&empty).unwrap();
        assert_eq!(q, r().project(&attrs(&["A"])).unwrap());
    }

    #[test]
    fn divide_bad_divisor() {
        assert!(r().divide(&s()).is_err());
    }

    #[test]
    fn outer_pad_join_pads_with_constant() {
        let w = Relation::table(&["V"], &[&[1i64], &[2], &[3]]);
        let x = Relation::table(&["V", "P"], &[&[1i64, 10]]);
        let j = w.outer_pad_join(&x);
        assert_eq!(j.len(), 3);
        assert!(j.contains(&[Value::int(1), Value::int(10)]));
        assert!(j.contains(&[Value::int(2), Value::Pad]));
        assert!(j.contains(&[Value::int(3), Value::Pad]));
    }

    #[test]
    fn outer_pad_join_on_unit_world_table() {
        // Example 5.6 step 3: W = {⟨⟩}, joined with a non-empty relation is
        // that relation; with an empty relation it is one all-pad tuple.
        let w = Relation::unit();
        let f = Relation::table(&["Dep"], &[&["FRA"], &["PAR"]]);
        assert_eq!(w.outer_pad_join(&f).len(), 2);
        let e = Relation::empty(Schema::of(&["Dep"]));
        let j = w.outer_pad_join(&e);
        assert_eq!(j.len(), 1);
        assert!(j.contains(&[Value::Pad]));
    }

    #[test]
    fn theta_join_works() {
        let t = Relation::table(&["E", "F"], &[&[2i64, 1], &[9, 9]]);
        let j = r().theta_join(&t, &Pred::eq_attr("B", "E")).unwrap();
        assert_eq!(j.len(), 2); // (1,2)×(2,1), (3,2)×(2,1)
    }

    #[test]
    fn key_index_resolves_equal_hashes_by_comparing_keys() {
        // Every key goes under one hash, as a full hash collision would.
        let keys: Vec<Tuple> = (0..20i64)
            .map(|i| {
                [Value::int(i), Value::str(&format!("k{i}"))]
                    .into_iter()
                    .collect()
            })
            .collect();
        let cols = [0, 1];
        let mut index = KeyIndex::default();
        for _ in &keys {
            index.push(7);
        }
        assert_eq!(index.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            let found = index.chain(7).find(|&e| same_key(k, &cols, &keys[e]));
            assert_eq!(found, Some(i));
        }
        let absent: Tuple = [Value::int(3), Value::str("k4")].into_iter().collect();
        assert!(!index.chain(7).any(|e| same_key(&absent, &cols, &keys[e])));
        assert_eq!(index.chain(8).count(), 0);

        // Rows indexed in place: each chain walks its rows in ascending order.
        let mut rows = RowBuf::new(2);
        for i in 0..30i64 {
            rows.push(&[Value::int(i % 3), Value::int(i)]);
        }
        let index = KeyIndex::over_rows(rows.rows(), &[0]);
        for k in 0..3i64 {
            let chain: Vec<usize> = index
                .chain(key_hash(&[Value::int(k)], &[0]))
                .filter(|&e| rows.row(e)[0] == Value::int(k))
                .collect();
            let want: Vec<usize> = (0..30).filter(|&i| i as i64 % 3 == k).collect();
            assert_eq!(chain, want);
        }
    }

    #[test]
    fn joins_emit_every_match_of_a_repeated_build_key() {
        // The smaller side (the build side) repeats one key 200 times.
        let build = Relation::from_rows(
            Schema::of(&["K", "B"]),
            (0..200i64).map(|i| vec![Value::int(1), Value::int(i)]),
        )
        .unwrap();
        let probe = Relation::from_rows(
            Schema::of(&["K", "P"]),
            (0..300i64).map(|i| vec![Value::int(i % 3), Value::int(i)]),
        )
        .unwrap();
        // 100 probe rows have K = 1, each meeting all 200 build rows.
        let j = build.natural_join(&probe);
        assert_eq!(j.len(), 200 * 100);
        assert!(j.iter().all(|t| t[0] == Value::int(1)));
        let renamed = probe.rename(&[(attr("K"), attr("K2"))]).unwrap();
        let t = build
            .theta_join(&renamed, &Pred::eq_attr("K", "K2"))
            .unwrap();
        assert_eq!(t.len(), 200 * 100);
        assert_eq!(build.semijoin(&probe), build);
        assert_eq!(probe.semijoin(&build).len(), 100);
    }

    #[test]
    fn partition_by_groups_in_key_order() {
        let parts = r().partition_by(&attrs(&["A"])).unwrap();
        assert_eq!(parts.len(), 3);
        let keys: Vec<i64> = parts.iter().map(|(k, _)| k[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(parts[1].1.len(), 2); // A=2 has two tuples
        for (_, part) in &parts {
            assert!(part
                .iter()
                .collect::<Vec<_>>()
                .windows(2)
                .all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn partition_by_project_matches_partition_then_project() {
        // Fast path (value prefix + id suffix) and fallback (key first)
        // must both agree with the two-step decomposition.
        let t = Relation::table(
            &["A", "B", "V"],
            &[
                &[1i64, 2, 9],
                &[1, 3, 8],
                &[2, 2, 9],
                &[2, 2, 8],
                &[5, 5, 7],
            ],
        );
        for (key, keep) in [
            (attrs(&["V"]), attrs(&["A", "B"])), // fast path
            (attrs(&["A"]), attrs(&["B", "V"])), // fallback (key leads)
            (attrs(&["B", "V"]), attrs(&["A"])), // fallback (scattered)
        ] {
            let fused = t.partition_by_project(&key, &keep).unwrap();
            let twostep: Vec<(Tuple, Relation)> = t
                .partition_by(&key)
                .unwrap()
                .into_iter()
                .map(|(k, p)| (k, p.project(&keep).unwrap()))
                .collect();
            assert_eq!(fused, twostep, "key {key:?} keep {keep:?}");
        }
    }

    #[test]
    fn distinct_values_sorted_dedup() {
        let vals = r().distinct_values(&attrs(&["A"])).unwrap();
        let ints: Vec<i64> = vals.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(ints, vec![1, 2, 3]);
    }

    #[test]
    fn iteration_is_sorted_and_strict() {
        let ops: Vec<Relation> = vec![
            r().product(&s()).unwrap(),
            r().natural_join(&Relation::table(&["B", "E"], &[&[2i64, 1], &[3, 2]])),
            r().union(&Relation::table(&["A", "B"], &[&[0i64, 0]]))
                .unwrap(),
            r().theta_join(&s(), &Pred::eq_attr("B", "C")).unwrap(),
        ];
        for rel in ops {
            let ts: Vec<&[Value]> = rel.iter().collect();
            assert!(ts.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
        }
    }

    #[test]
    fn table_string_renders() {
        let s = r().to_table_string("R");
        assert!(s.contains('A'));
        assert!(s.contains('1'));
    }

    /// The renderer as it was before it wrote into one buffer: a `String`
    /// per cell (through `Value`'s `Display`) and a `format!` per padded
    /// cell.
    fn reference_table_string(r: &Relation, name: &str) -> String {
        let headers: Vec<String> = r.schema().attrs().iter().map(|a| a.to_string()).collect();
        let rows: Vec<Vec<String>> = r
            .iter()
            .map(|t| t.iter().map(|v| v.to_string()).collect())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(name);
        if r.schema().arity() == 0 {
            out.push_str(&format!("  ({} nullary tuple(s))\n", r.len()));
            return out;
        }
        out.push_str("  ");
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!("{h:<w$}  "));
        }
        out.push('\n');
        for row in &rows {
            out.push_str(&" ".repeat(name.len()));
            out.push_str("  ");
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!("{cell:<w$}  "));
            }
            out.push('\n');
        }
        out
    }

    /// A xorshift stream for the generated tables below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// Names and string cells for the generated tables: empty, non-ASCII,
    /// and wider (in bytes and in characters) than the renderer's run of
    /// spaces.
    const TEXTS: [&str; 12] = [
        "",
        "A",
        "ATL",
        "Zürich",
        "東京",
        "ü",
        "Ångström",
        "H0042",
        "O'Brien",
        "a fairly long cell that is wider than sixty-four spaces of padding, and then some more",
        "ÄÖÜ äöü ß — non-ASCII text that is wider than any run of spaces the renderer copies from, 東京",
        "x",
    ];

    /// A cell: the integer extremes, zero, integers of either sign on both
    /// sides of every digit count (`±10^k` and `±(10^k − 1)`), others,
    /// booleans, `#c` and strings from [`TEXTS`].
    fn cell(rng: &mut Rng) -> Value {
        match rng.below(10) {
            0 => Value::Int(i64::MIN),
            1 => Value::Int(i64::MAX),
            2 => Value::Int(0),
            3 => {
                let n = 10i64.pow(rng.below(19) as u32) - rng.below(2) as i64;
                Value::Int(if rng.below(2) == 1 { -n } else { n })
            }
            4 => Value::Int(rng.below(100) as i64 * 1_000_000_007 - 50_000_000_000),
            5 => Value::Bool(rng.below(2) == 1),
            6 => Value::Pad,
            _ => Value::str(rng.pick(&TEXTS)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        /// [`Relation::to_table_string`] against the per-cell reference, on
        /// tables of arity 0–6 and 0–300 rows under names from [`TEXTS`].
        #[test]
        fn table_string_matches_the_per_cell_reference(
            arity in 0usize..7,
            rows in 0usize..301,
            seed in proptest::any::<u64>(),
        ) {
            let mut rng = Rng(seed | 1);
            let rel = if arity == 0 {
                if rows % 2 == 0 {
                    Relation::unit()
                } else {
                    Relation::nullary_empty()
                }
            } else {
                let names: Vec<String> = (0..arity)
                    .map(|i| format!("{}{i}", rng.pick(&TEXTS)))
                    .collect();
                let names: Vec<&str> = names.iter().map(String::as_str).collect();
                let table: Vec<Vec<Value>> = (0..rows)
                    .map(|_| (0..arity).map(|_| cell(&mut rng)).collect())
                    .collect();
                Relation::from_rows(Schema::of(&names), table).unwrap()
            };
            let name = rng.pick(&TEXTS);
            let mut out = String::from("prefix\n");
            rel.write_table(name, &mut out);
            let reference = reference_table_string(&rel, name);
            proptest::prop_assert_eq!(&out["prefix\n".len()..], reference.as_str());
            proptest::prop_assert_eq!(rel.to_table_string(name), reference);
        }
    }
}
