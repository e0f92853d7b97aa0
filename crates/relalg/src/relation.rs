use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::stats::RelStats;
use crate::{Attr, CmpOp, Operand, Pred, RelalgError, Result, Schema, Tuple, Value};

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

    /// A hasher resuming from a previous state, so a multi-column key hash
    /// can be built one column at a time (see
    /// [`crate::physical::key_hashes`]).
    #[inline]
    pub(crate) fn seeded(hash: u64) -> FxHasher {
        FxHasher { hash }
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
pub(crate) type FxHashSet<K> = HashSet<K, FxBuild>;

/// Whether wide operators take the columnar paths (projection, vectorized
/// selection, join-key and grouping-key extraction — see
/// [`crate::physical`]): the [`crate::config::COLUMNAR`] toggle.
/// `WSDB_NO_COLUMNAR` (non-empty) turns them off; [`set_columnar_enabled`]
/// overrides at runtime (benchmarks and the oracle suite A/B the two
/// paths).
#[inline]
pub fn columnar_enabled() -> bool {
    crate::config::COLUMNAR.enabled()
}

/// Force the columnar execution paths on/off for this process; `None`
/// restores the environment-derived default.
pub fn set_columnar_enabled(on: Option<bool>) {
    crate::config::COLUMNAR.set(on);
}

/// A set-semantics relation: a schema plus a **sorted, deduplicated vector**
/// of tuples.
///
/// The sorted-vec invariant replaces the previous `BTreeSet` storage:
/// iteration order — and therefore everything derived from it (printed
/// tables, golden tests, benchmark inputs) — stays deterministic, while
/// construction is append-then-sort (no per-tuple log-factor insert), the
/// set operations are linear merges, and lookups are binary searches.
/// Operators whose output is produced in sorted order already (selection,
/// product, the streamed theta path, semijoin) skip the sort entirely.
///
/// All construction goes through [`RelationBuilder`] or one of the
/// sorted-preserving fast paths; `tuples` is never mutated in a way that
/// could break the invariant.
///
/// # Versioning and statistics
///
/// Every relation carries a process-monotonic **epoch tag**, stamped by the
/// constructing operation. Clones share the tag (a clone is the same
/// content); the `&mut` entry points ([`Relation::insert`],
/// [`Relation::remove`]) stamp a fresh one. Equal tags therefore imply
/// equal content, which lets the plan cache verify hits in O(1)
/// ([`Relation::fast_eq`]) with content comparison kept only as a fallback
/// for content-equal relations built independently (rebuilt catalogs).
///
/// A relation also lazily computes and memoizes per-column statistics
/// ([`Relation::stats`]: row count, per-column distinct count, min/max) —
/// the cost model's cardinality inputs. Neither the tag nor the statistics
/// participate in equality, ordering, or hashing: those remain purely
/// structural (schema + tuples).
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
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
            tuples: self.tuples.clone(),
            // A clone is the same content: it keeps the epoch (O(1) cache
            // verification treats it as identical) and any computed stats.
            epoch: self.epoch,
            stats: self.stats.clone(),
        }
    }
}

impl PartialEq for Relation {
    #[inline]
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
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
            .then_with(|| self.tuples.cmp(&other.tuples))
    }
}

impl std::hash::Hash for Relation {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.schema.hash(state);
        self.tuples.hash(state);
    }
}

/// An append-only builder for [`Relation`]: push tuples in any order (and
/// with duplicates), then [`RelationBuilder::finish`] runs one sort + dedup
/// pass and seals the sorted-vec invariant.
#[derive(Clone, Debug)]
pub struct RelationBuilder {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl RelationBuilder {
    /// A builder over the given schema.
    pub fn new(schema: Schema) -> RelationBuilder {
        RelationBuilder {
            schema,
            tuples: Vec::new(),
        }
    }

    /// A builder with room for `cap` tuples.
    pub fn with_capacity(schema: Schema, cap: usize) -> RelationBuilder {
        RelationBuilder {
            schema,
            tuples: Vec::with_capacity(cap),
        }
    }

    /// The target schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append a tuple assumed to match the schema arity (operators construct
    /// tuples positionally, so this is checked only in debug builds).
    pub fn push(&mut self, t: Tuple) {
        debug_assert_eq!(t.len(), self.schema.arity(), "tuple arity mismatch");
        self.tuples.push(t);
    }

    /// Append a tuple, validating arity.
    pub fn try_push(&mut self, t: impl Into<Tuple>) -> Result<()> {
        let t = t.into();
        if t.len() != self.schema.arity() {
            return Err(RelalgError::ArityMismatch {
                expected: self.schema.arity(),
                got: t.len(),
            });
        }
        self.tuples.push(t);
        Ok(())
    }

    /// Number of tuples appended so far (duplicates included).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// One sort + dedup pass over the appended tuples. Large batches sort
    /// in parallel chunks merged k-way (`relalg::pool`); the sorted,
    /// deduplicated result is canonical, so the output is byte-identical
    /// to the sequential sort whatever the worker count.
    pub fn finish(self) -> Relation {
        let RelationBuilder { schema, tuples } = self;
        let tuples = crate::pool::par_sort_dedup(tuples);
        Relation::sealed(schema, tuples)
    }
}

impl Relation {
    /// The one place a `Relation` comes into existence: seals the sorted
    /// tuple vector and stamps a fresh epoch tag.
    fn sealed(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        Relation {
            schema,
            tuples,
            epoch: next_epoch(),
            stats: OnceLock::new(),
        }
    }

    /// An empty relation over the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation::sealed(schema, Vec::new())
    }

    /// Internal constructor for tuple vectors that are already strictly
    /// sorted (operators that produce output in order use this to skip the
    /// builder's sort pass; the snapshot codec uses it because relations
    /// are persisted in sorted order).
    pub(crate) fn from_sorted_vec(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        debug_assert!(
            tuples.windows(2).all(|w| w[0] < w[1]),
            "from_sorted_vec requires strictly sorted tuples"
        );
        Relation::sealed(schema, tuples)
    }

    /// Build a relation from rows that are already strictly sorted
    /// (ascending, no duplicates), validating arity and skipping the
    /// builder's sort+dedup pass. Callers own the ordering proof — the
    /// sortedness is only `debug_assert`ed; sorted-map iteration and
    /// sorted-merge producers (the factorized layer's conversion and
    /// decode paths) use this to avoid re-sorting what they emit in
    /// order.
    pub fn from_sorted_rows(schema: Schema, tuples: Vec<Tuple>) -> Result<Relation> {
        let arity = schema.arity();
        if let Some(t) = tuples.iter().find(|t| t.len() != arity) {
            return Err(RelalgError::ArityMismatch {
                expected: arity,
                got: t.len(),
            });
        }
        Ok(Relation::from_sorted_vec(schema, tuples))
    }

    /// Build a relation from rows, validating arity.
    pub fn from_rows(
        schema: Schema,
        rows: impl IntoIterator<Item = impl Into<Tuple>>,
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
        let schema = Schema::of(names);
        let rows = rows
            .iter()
            .map(|r| r.iter().map(|v| v.clone().into()).collect::<Tuple>());
        Relation::from_rows(schema, rows).expect("row arity mismatch in Relation::table")
    }

    /// The nullary relation containing the single empty tuple: `{⟨⟩}`.
    /// This is the initial world table `W` of a one-world database
    /// (Example 5.6, step 1).
    pub fn unit() -> Relation {
        Relation::sealed(Schema::nullary(), vec![Tuple::new()])
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

    /// O(1)-first content equality: epoch-tag comparison, with the full
    /// structural comparison as the fallback for content-equal relations
    /// built independently (e.g. a rebuilt catalog).
    pub fn fast_eq(&self, other: &Relation) -> bool {
        self.epoch == other.epoch || self == other
    }

    /// Per-column statistics (row count, distinct count, min/max), computed
    /// lazily on first call and memoized for the relation's lifetime.
    /// Clones share already-computed statistics.
    pub fn stats(&self) -> &RelStats {
        self.stats
            .get_or_init(|| Arc::new(RelStats::compute(&self.schema, &self.tuples)))
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

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterate tuples in sorted order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// The tuples as a sorted slice.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Membership test (binary search over the sorted tuples).
    pub fn contains(&self, t: &[Value]) -> bool {
        self.tuples
            .binary_search_by(|probe| probe.as_slice().cmp(t))
            .is_ok()
    }

    /// Insert a tuple (validating arity), keeping the sorted invariant.
    pub fn insert(&mut self, t: impl Into<Tuple>) -> Result<()> {
        let t = t.into();
        if t.len() != self.schema.arity() {
            return Err(RelalgError::ArityMismatch {
                expected: self.schema.arity(),
                got: t.len(),
            });
        }
        if let Err(pos) = self.tuples.binary_search(&t) {
            self.tuples.insert(pos, t);
            self.content_changed();
        }
        Ok(())
    }

    /// In-place mutation: the content under the old epoch no longer exists,
    /// so stamp a fresh tag and drop any memoized statistics.
    fn content_changed(&mut self) {
        self.epoch = next_epoch();
        self.stats = OnceLock::new();
    }

    /// Insert a batch of rows in one pass: the batch is sorted and deduped
    /// through [`RelationBuilder`], then linearly merged with the existing
    /// tuples. This replaces per-row [`Relation::insert`] calls — an
    /// O(n)-per-row shifted insert — on the DML path (`Session::insert`).
    pub fn merge_rows(&self, rows: impl IntoIterator<Item = impl Into<Tuple>>) -> Result<Relation> {
        let mut b = RelationBuilder::new(self.schema.clone());
        for row in rows {
            b.try_push(row)?;
        }
        if b.is_empty() {
            return Ok(self.clone());
        }
        let batch = b.finish();
        let tuples = merge_union(&self.tuples, &batch.tuples);
        Ok(Relation::from_sorted_vec(self.schema.clone(), tuples))
    }

    /// Remove a tuple.
    pub fn remove(&mut self, t: &[Value]) -> bool {
        match self
            .tuples
            .binary_search_by(|probe| probe.as_slice().cmp(t))
        {
            Ok(pos) => {
                self.tuples.remove(pos);
                self.content_changed();
                true
            }
            Err(_) => false,
        }
    }

    fn positions(&self, attrs: &[Attr]) -> Result<Vec<usize>> {
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

    /// Projection `π_A`: keep the listed attributes (deduplicating tuples).
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
        // A prefix projection (keeping the leading columns in order) cannot
        // disturb the sort order and cannot be re-deduplicated into a
        // *different* order, but it can merge tuples — only the identity
        // column selection is guaranteed dedup-free, so go through a
        // sort+dedup pass in general. Relations wider than the inline tuple
        // capacity take the columnar path: the touched columns are
        // extracted into transient narrow vectors (in parallel chunks) and
        // the sort runs over those, never walking the full heap tuples
        // again.
        if idx.len() < self.schema.arity()
            && crate::physical::choose(self.schema.arity(), self.tuples.len())
                == crate::physical::PhysPath::Columnar
        {
            return Ok(self.project_columnar(&idx, out_schema));
        }
        let mut b = RelationBuilder::with_capacity(out_schema, self.tuples.len());
        for t in &self.tuples {
            b.push(idx.iter().map(|&i| t[i]).collect());
        }
        Ok(b.finish())
    }

    /// The columnar wide-scan path of [`Relation::project_as`]: one chunked
    /// pass over the (heap-spilled) source tuples extracts only the touched
    /// columns — a single transient column vector of [`Value`]s for
    /// single-column scans, narrow inline tuples otherwise — and the
    /// canonical sort+dedup then operates on the narrow data. Chunk
    /// extraction fans out over the pool ([`crate::pool::par_map`]) and the
    /// output is byte-identical to the row path at any thread count
    /// (`par_sort_dedup` is canonical).
    fn project_columnar(&self, idx: &[usize], out_schema: Schema) -> Relation {
        let parallel = crate::pool::parallelize(self.tuples.len(), crate::pool::par_min_tuples());
        let chunk_len = self
            .tuples
            .len()
            .div_ceil(crate::pool::num_threads() * 4)
            .max(1);
        if let [col] = idx {
            // Single column: a true column vector — sort/dedup runs over
            // plain `Value`s (16 bytes each), not tuples.
            let col = *col;
            let values: Vec<Value> = if parallel {
                let chunks: Vec<&[Tuple]> = self.tuples.chunks(chunk_len).collect();
                crate::pool::par_map(&chunks, |chunk| {
                    chunk.iter().map(|t| t[col]).collect::<Vec<Value>>()
                })
                .into_iter()
                .flatten()
                .collect()
            } else {
                self.tuples.iter().map(|t| t[col]).collect()
            };
            let values = crate::pool::par_sort_dedup(values);
            let tuples: Vec<Tuple> = values
                .into_iter()
                .map(|v| [v].into_iter().collect())
                .collect();
            return Relation::from_sorted_vec(out_schema, tuples);
        }
        // Multiple columns: the narrow tuples themselves are the transient
        // column data. Chunk the extraction only when the pool will
        // actually fan it out — the chunked concat is pure overhead on one
        // worker.
        let narrow: Vec<Tuple> = if parallel {
            let chunks: Vec<&[Tuple]> = self.tuples.chunks(chunk_len).collect();
            crate::pool::par_map(&chunks, |chunk| {
                chunk
                    .iter()
                    .map(|t| idx.iter().map(|&i| t[i]).collect::<Tuple>())
                    .collect::<Vec<Tuple>>()
            })
            .into_iter()
            .flatten()
            .collect()
        } else {
            self.tuples
                .iter()
                .map(|t| idx.iter().map(|&i| t[i]).collect())
                .collect()
        };
        Relation::from_sorted_vec(out_schema, crate::pool::par_sort_dedup(narrow))
    }

    /// Selection `σ_φ`. Filtering preserves sortedness, so the output is
    /// assembled without a sort pass.
    ///
    /// Wide relations with enough rows take the vectorized path
    /// ([`crate::physical::filter_tuples`]): comparison conjuncts evaluate
    /// over extracted column vectors into a selection bitmap (most
    /// selective first, using statistics if already computed) and
    /// survivors materialize late. The output is identical to the row
    /// path; predicates without any vectorizable conjunct fall back to it.
    pub fn select(&self, pred: &Pred) -> Result<Relation> {
        if crate::physical::choose(self.schema.arity(), self.tuples.len())
            == crate::physical::PhysPath::Columnar
        {
            let stats = self.stats_if_computed();
            let distinct_of = |i: usize| stats.and_then(|s| s.col(i)).map(|c| c.distinct);
            if let Some(tuples) =
                crate::physical::filter_tuples(&self.schema, &self.tuples, pred, distinct_of)?
            {
                return Ok(Relation::from_sorted_vec(self.schema.clone(), tuples));
            }
        }
        let compiled = pred.compile(&self.schema)?;
        let tuples: Vec<Tuple> = self
            .tuples
            .iter()
            .filter(|t| compiled.eval(t))
            .cloned()
            .collect();
        Ok(Relation::from_sorted_vec(self.schema.clone(), tuples))
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
        Ok(Relation::sealed(schema, self.tuples.clone()))
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
        if self.is_empty() || other.is_empty() {
            return Ok(Relation::empty(schema));
        }
        // Chunks of the sorted left side emit sorted, disjoint output runs,
        // so the pool's in-order concatenation stays strictly sorted.
        let tuples = if crate::pool::parallelize(
            self.len().saturating_mul(other.len()),
            crate::pool::par_min_tuples(),
        ) {
            par_left_chunks(&self.tuples, |chunk, out| {
                out.reserve(chunk.len() * other.tuples.len());
                for l in chunk {
                    for r in &other.tuples {
                        out.push(l.concat(r));
                    }
                }
            })
        } else {
            let mut tuples = Vec::with_capacity(self.tuples.len() * other.tuples.len());
            for l in &self.tuples {
                for r in &other.tuples {
                    tuples.push(l.concat(r));
                }
            }
            tuples
        };
        Ok(Relation::from_sorted_vec(schema, tuples))
    }

    /// Reorder `other`'s columns into `self`'s column order (both must have
    /// the same attribute set), returning a sorted tuple vector; used by the
    /// set operations.
    fn aligned(&self, other: &Relation) -> Result<Vec<Tuple>> {
        if !self.schema.same_attr_set(&other.schema) {
            return Err(RelalgError::SchemaMismatch {
                left: self.schema.clone(),
                right: other.schema.clone(),
            });
        }
        if self.schema == other.schema {
            return Ok(other.tuples.clone());
        }
        let idx: Vec<usize> = self
            .schema
            .attrs()
            .iter()
            .map(|a| other.schema.index_of(a).expect("checked same_attr_set"))
            .collect();
        // Column reordering destroys the sort order; re-sort once.
        let mut tuples: Vec<Tuple> = other
            .tuples
            .iter()
            .map(|t| idx.iter().map(|&i| t[i]).collect())
            .collect();
        tuples.sort_unstable();
        tuples.dedup();
        Ok(tuples)
    }

    /// Union `∪` (same attribute set; right side is reordered as needed):
    /// a linear merge of the two sorted tuple vectors.
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        let right = self.aligned(other)?;
        let tuples = merge_union(&self.tuples, &right);
        Ok(Relation::from_sorted_vec(self.schema.clone(), tuples))
    }

    /// Intersection `∩`: a linear merge.
    pub fn intersect(&self, other: &Relation) -> Result<Relation> {
        let right = self.aligned(other)?;
        let tuples = merge_intersect(&self.tuples, &right);
        Ok(Relation::from_sorted_vec(self.schema.clone(), tuples))
    }

    /// Difference `−`: a linear merge.
    pub fn difference(&self, other: &Relation) -> Result<Relation> {
        let right = self.aligned(other)?;
        let tuples = merge_difference(&self.tuples, &right);
        Ok(Relation::from_sorted_vec(self.schema.clone(), tuples))
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

        // Index the smaller side, probe with the larger; the emit closure
        // reorients each match back into left-then-right column order.
        let index_left = self.len() <= other.len();
        let (build, build_keys, probe, probe_keys) = if index_left {
            (&self.tuples, &l_idx, &other.tuples, &r_idx)
        } else {
            (&other.tuples, &r_idx, &self.tuples, &l_idx)
        };
        let tuples = hash_join_collect(build, build_keys, probe, probe_keys, |m, p, _, out| {
            let (l, r): (&Tuple, &Tuple) = if index_left { (m, p) } else { (p, m) };
            let mut t = Tuple::with_capacity(l.len() + r_extra.len());
            t.extend_from_slice(l);
            for &i in &r_extra {
                t.push(r[i]);
            }
            out.push(t);
        });
        let mut b = RelationBuilder::new(schema);
        b.tuples = tuples;
        b.finish()
    }

    /// Theta join `⋈_φ` over disjoint schemas, semantically `σ_φ(self × other)`.
    ///
    /// When `φ` contains equi-conjuncts `a = b` linking the two sides, the
    /// join runs as a hash-partitioned equi-join: the smaller side is
    /// indexed on its key columns, the larger side probes, and the residual
    /// predicate (compiled once against the combined schema) filters the
    /// matches. The cross product is **never** materialized; without any
    /// equi-conjunct the pairs stream tuple-by-tuple through the compiled
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
        // Compile once per operator; per-tuple evaluation is index-based.
        let residual = residual.compile(&schema)?;
        let l_arity = self.schema.arity();

        let emit = |l: &Tuple, r: &Tuple, scratch: &mut Tuple, out: &mut Vec<Tuple>| {
            scratch.clear();
            scratch.extend_from_slice(l);
            scratch.extend_from_slice(r);
            if residual.eval(scratch) {
                out.push(scratch.clone());
            }
        };

        if keys.is_empty() {
            // No equi-conjunct: the left-major nested loop emits a filtered
            // subsequence of the sorted product — already strictly sorted.
            // Large pairings fan the left side out over the pool; chunks of
            // the sorted left input produce sorted, disjoint output runs,
            // so the in-order concatenation is still strictly sorted.
            let tuples = if crate::pool::parallelize(
                self.len().saturating_mul(other.len()),
                crate::pool::par_min_tuples(),
            ) {
                par_left_chunks(&self.tuples, |chunk, out| {
                    let mut scratch = Tuple::new();
                    for l in chunk {
                        for r in &other.tuples {
                            emit(l, r, &mut scratch, out);
                        }
                    }
                })
            } else {
                let mut scratch = Tuple::new();
                let mut out = Vec::new();
                for l in &self.tuples {
                    for r in &other.tuples {
                        emit(l, r, &mut scratch, &mut out);
                    }
                }
                out
            };
            Ok(Relation::from_sorted_vec(schema, tuples))
        } else {
            let l_keys: Vec<usize> = keys.iter().map(|(l, _)| *l).collect();
            let r_keys: Vec<usize> = keys.iter().map(|(_, r)| *r - l_arity).collect();
            let tuples = if self.len() <= other.len() {
                hash_join_collect(
                    &self.tuples,
                    &l_keys,
                    &other.tuples,
                    &r_keys,
                    |l, r, scratch, out| emit(l, r, scratch, out),
                )
            } else {
                hash_join_collect(
                    &other.tuples,
                    &r_keys,
                    &self.tuples,
                    &l_keys,
                    |r, l, scratch, out| emit(l, r, scratch, out),
                )
            };
            let mut b = RelationBuilder::new(schema);
            b.tuples = tuples;
            Ok(b.finish())
        }
    }

    /// Semijoin `⋉`: tuples of `self` with a natural-join partner in
    /// `other`. The key set is hashed from `other`'s common-attribute
    /// columns; `self` streams through it (a filter, so order is kept).
    pub fn semijoin(&self, other: &Relation) -> Relation {
        if self.is_empty() {
            return self.clone();
        }
        let common = self.schema.common(&other.schema);
        if other.is_empty() && !common.is_empty() {
            return Relation::empty(self.schema.clone());
        }
        let l_idx: Vec<usize> = common
            .iter()
            .map(|a| self.schema.index_of(a).unwrap())
            .collect();
        let r_idx: Vec<usize> = common
            .iter()
            .map(|a| other.schema.index_of(a).unwrap())
            .collect();
        // Wide/large inputs hash the common columns column-wise into a
        // chain table over `other`'s rows ([`crate::physical::key_hashes`],
        // [`hash_chain`]); `self` probes by hash and confirms by direct
        // column equality — no `Vec<&Value>` key allocation per row, no
        // materialized key tuples. Filtering keeps `self`'s order, and a
        // large probe side fans out over the pool in contiguous chunks.
        let width = self.schema.arity().max(other.schema.arity());
        if crate::physical::columnar_keys(width, self.len().max(other.len()), common.len())
            && other.len() < u32::MAX as usize
        {
            use crate::pool;
            let oh = crate::physical::key_hashes(&other.tuples, &r_idx);
            let sh = crate::physical::key_hashes(&self.tuples, &l_idx);
            let (head, next) = hash_chain(&oh);
            let keep = |si: usize| -> bool {
                let Some(&first) = head.get(&sh[si]) else {
                    return false;
                };
                let mut cur = first;
                while cur != u32::MAX {
                    let oi = cur as usize;
                    if l_idx
                        .iter()
                        .zip(&r_idx)
                        .all(|(&lc, &rc)| self.tuples[si][lc] == other.tuples[oi][rc])
                    {
                        return true;
                    }
                    cur = next[oi];
                }
                false
            };
            let probe_range = |lo: usize, hi: usize| {
                (lo..hi)
                    .filter(|&si| keep(si))
                    .map(|si| self.tuples[si].clone())
                    .collect::<Vec<Tuple>>()
            };
            let n = self.tuples.len();
            let tuples: Vec<Tuple> = if pool::parallelize(n, pool::par_min_tuples()) {
                let chunk_len = n.div_ceil(pool::num_threads() * 4).max(1);
                let ranges: Vec<(usize, usize)> = (0..n)
                    .step_by(chunk_len)
                    .map(|lo| (lo, (lo + chunk_len).min(n)))
                    .collect();
                pool::par_map(&ranges, |&(lo, hi)| probe_range(lo, hi))
                    .into_iter()
                    .flatten()
                    .collect()
            } else {
                probe_range(0, n)
            };
            return Relation::from_sorted_vec(self.schema.clone(), tuples);
        }
        let keys: FxHashSet<Vec<&Value>> = other
            .tuples
            .iter()
            .map(|t| r_idx.iter().map(|&i| &t[i]).collect())
            .collect();
        let tuples: Vec<Tuple> = self
            .tuples
            .iter()
            .filter(|t| {
                let key: Vec<&Value> = l_idx.iter().map(|&i| &t[i]).collect();
                keys.contains(&key)
            })
            .cloned()
            .collect();
        Relation::from_sorted_vec(self.schema.clone(), tuples)
    }

    /// Division `÷`: for `R[A ∪ B] ÷ S[B]`, the `A`-tuples `a` such that
    /// `(a, b) ∈ R` for **every** `b ∈ S`. Used by the `cert` translation
    /// (`R ÷ W` in Figure 6). When `S` is empty the result is `π_A(R)`
    /// (vacuous universal quantification), consistent with the classical
    /// RA definition `π_A(R) − π_A(π_A(R) × S − R)`.
    ///
    /// One `(A-part, B-part)` extraction pass plus one sort groups the
    /// divisor check into contiguous runs — no intermediate per-key sets.
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

        // Decompose each tuple into (A-part, B-part) and sort once; equal
        // A-parts become contiguous runs with sorted B-parts. Wide inputs
        // extract the two parts as column groups chunked over the pool —
        // but only when the pool actually fans out: the columnar win here
        // is splitting the extraction passes across workers, while a lone
        // worker does better with the fused per-row build.
        let columnar = crate::physical::choose(self.schema.arity(), self.tuples.len())
            == crate::physical::PhysPath::Columnar
            && crate::pool::parallelize(self.tuples.len(), crate::pool::par_min_tuples());
        let mut pairs: Vec<(Tuple, Tuple)> = if columnar {
            let a_parts = crate::physical::extract_keys(&self.tuples, &a_idx);
            let b_parts = crate::physical::extract_keys(&self.tuples, &b_idx);
            a_parts.into_iter().zip(b_parts).collect()
        } else {
            self.tuples
                .iter()
                .map(|t| {
                    (
                        a_idx.iter().map(|&i| t[i]).collect(),
                        b_idx.iter().map(|&i| t[i]).collect(),
                    )
                })
                .collect()
        };
        pairs.sort_unstable();

        let needed = &divisor.tuples;
        let mut tuples: Vec<Tuple> = Vec::new();
        let mut run = 0;
        while run < pairs.len() {
            let ka = &pairs[run].0;
            let mut end = run;
            while end < pairs.len() && &pairs[end].0 == ka {
                end += 1;
            }
            // The run's B-parts and the divisor are both sorted: a single
            // forward walk checks the subset property.
            let mut ni = 0;
            for (_, kb) in &pairs[run..end] {
                if ni == needed.len() {
                    break;
                }
                match kb.cmp(&needed[ni]) {
                    std::cmp::Ordering::Less => {}
                    std::cmp::Ordering::Equal => ni += 1,
                    std::cmp::Ordering::Greater => break,
                }
            }
            if ni == needed.len() {
                tuples.push(ka.clone());
            }
            run = end;
        }
        // A-parts of a sorted pair list appear in sorted order.
        Ok(Relation::from_sorted_vec(out_schema, tuples))
    }

    /// The modified left outer join `=⊲⊳` of Remark 5.5:
    /// `R =⊲⊳ S = (R ⋈ S) ∪ (R − R ⋉ S) × {⟨c,…,c⟩}` — natural join, with
    /// dangling `R`-tuples padded on `S`'s private attributes by the
    /// constant [`Value::Pad`].
    pub fn outer_pad_join(&self, other: &Relation) -> Relation {
        let joined = self.natural_join(other);
        let dangling = self
            .difference(&self.semijoin(other))
            .expect("same schema by construction");
        let pad_count = joined.schema.arity() - self.schema.arity();
        // Padding a sorted set of distinct tuples with a constant suffix
        // keeps it sorted; merge it with the join output.
        let padded: Vec<Tuple> = dangling
            .tuples
            .iter()
            .map(|t| {
                let mut p = Tuple::with_capacity(t.len() + pad_count);
                p.extend_from_slice(t);
                for _ in 0..pad_count {
                    p.push(Value::Pad);
                }
                p
            })
            .collect();
        let tuples = merge_union(&joined.tuples, &padded);
        Relation::from_sorted_vec(joined.schema, tuples)
    }

    /// The distinct values of the listed attributes, as a sorted, deduped
    /// vector of sub-tuples (i.e. `π_attrs` as raw tuples — convenient for
    /// world grouping).
    pub fn distinct_values(&self, attrs: &[Attr]) -> Result<Vec<Tuple>> {
        Ok(self.project(attrs)?.tuples)
    }

    /// Partition the relation by the values of `attrs`: one sub-relation
    /// per distinct key, in the key's sorted order. One hash-bucketing scan
    /// assigns every tuple to its group — each bucket, being a subsequence
    /// of the sorted tuple vector, is born sorted — and only the distinct
    /// *keys* are sorted afterwards (`O(N + K log K)`, not the `O(N log N)`
    /// full-relation key sort this replaces: partitioning is the inner loop
    /// of both `choice-of` splitting and inlined-representation decoding).
    pub fn partition_by(&self, attrs: &[Attr]) -> Result<Vec<(Tuple, Relation)>> {
        let idx = self.positions(attrs)?;
        // Columnar grouping keys pay when the extraction pass splits over
        // the pool; a lone worker keeps the fused hash-bucketing scan.
        let grouped =
            if crate::physical::columnar_keys(self.schema.arity(), self.tuples.len(), idx.len())
                && crate::pool::parallelize(self.tuples.len(), crate::pool::par_min_tuples())
            {
                let keys = crate::physical::extract_keys(&self.tuples, &idx);
                group_rows_keys(&self.tuples, &keys, Tuple::clone)
            } else {
                group_rows(&self.tuples, &idx, Tuple::clone)
            };
        let mut out: Vec<(Tuple, Relation)> = grouped
            .into_iter()
            .map(|(key, tuples)| (key, Relation::from_sorted_vec(self.schema.clone(), tuples)))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
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
        let emit = |t: &Tuple| {
            let mut v = Tuple::with_capacity(vlen);
            v.extend_from_slice(&t[..vlen]);
            v
        };
        let grouped = if crate::physical::columnar_keys(
            self.schema.arity(),
            self.tuples.len(),
            key_idx.len(),
        ) && crate::pool::parallelize(
            self.tuples.len(),
            crate::pool::par_min_tuples(),
        ) {
            let keys = crate::physical::extract_keys(&self.tuples, &key_idx);
            group_rows_keys(&self.tuples, &keys, emit)
        } else {
            group_rows(&self.tuples, &key_idx, emit)
        };
        let mut out: Vec<(Tuple, Relation)> = grouped
            .into_iter()
            .map(|(k, tuples)| (k, Relation::from_sorted_vec(out_schema.clone(), tuples)))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Render as an aligned ASCII table (used by examples and docs).
    pub fn to_table_string(&self, name: &str) -> String {
        let headers: Vec<String> = self.schema.attrs().iter().map(|a| a.to_string()).collect();
        let rows: Vec<Vec<String>> = self
            .tuples
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
        if self.schema.arity() == 0 {
            out.push_str(&format!("  ({} nullary tuple(s))\n", self.tuples.len()));
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
}

/// Group `tuples` by the values at `key_idx`, emitting `emit(t)` into each
/// group's bucket in scan order (so buckets over sorted input stay sorted).
///
/// Sorted inputs whose key columns correlate with the sort order arrive in
/// *runs* of equal keys; the previous row's group is re-used with a plain
/// value comparison, and the hash map is only consulted on run boundaries.
fn group_rows(
    tuples: &[Tuple],
    key_idx: &[usize],
    emit: impl Fn(&Tuple) -> Tuple,
) -> Vec<(Tuple, Vec<Tuple>)> {
    let mut groups: Vec<(Tuple, Vec<Tuple>)> = Vec::new();
    let mut index: FxHashMap<Tuple, usize> = FxHashMap::default();
    let mut last = usize::MAX;
    for t in tuples {
        let in_run = last != usize::MAX && {
            let k = &groups[last].0;
            key_idx.iter().enumerate().all(|(j, &i)| t[i] == k[j])
        };
        if !in_run {
            let key: Tuple = key_idx.iter().map(|&i| t[i]).collect();
            last = *index.entry(key.clone()).or_insert_with(|| {
                groups.push((key, Vec::new()));
                groups.len() - 1
            });
        }
        groups[last].1.push(emit(t));
    }
    groups
}

/// [`group_rows`] over pre-extracted keys: `keys[i]` is the (narrow,
/// inline) grouping key of `tuples[i]`, produced by a chunked column
/// extraction pass. Group discovery order — and therefore the output —
/// matches `group_rows` exactly; only the per-row key gather differs.
fn group_rows_keys(
    tuples: &[Tuple],
    keys: &[Tuple],
    emit: impl Fn(&Tuple) -> Tuple,
) -> Vec<(Tuple, Vec<Tuple>)> {
    debug_assert_eq!(tuples.len(), keys.len());
    let mut groups: Vec<(Tuple, Vec<Tuple>)> = Vec::new();
    let mut index: FxHashMap<Tuple, usize> = FxHashMap::default();
    let mut last = usize::MAX;
    for (t, key) in tuples.iter().zip(keys) {
        let in_run = last != usize::MAX && &groups[last].0 == key;
        if !in_run {
            last = *index.entry(key.clone()).or_insert_with(|| {
                groups.push((key.clone(), Vec::new()));
                groups.len() - 1
            });
        }
        groups[last].1.push(emit(t));
    }
    groups
}

/// Linear merge of two strictly sorted tuple vectors: union.
fn merge_union(a: &[Tuple], b: &[Tuple]) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Linear merge of two strictly sorted tuple vectors: intersection.
fn merge_intersect(a: &[Tuple], b: &[Tuple]) -> Vec<Tuple> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Linear merge of two strictly sorted tuple vectors: difference `a − b`.
fn merge_difference(a: &[Tuple], b: &[Tuple]) -> Vec<Tuple> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out
}

/// A chain hash table over precomputed per-row key hashes (see
/// [`crate::physical::key_hashes`]): `head` maps a key hash to the *first*
/// row index bearing it, `next[i]` links row `i` to the next row with the
/// same hash (`u32::MAX` terminates the chain) — built by a reverse scan,
/// so walking a chain visits rows in ascending index order, exactly the
/// emit order of the row path's index (its per-key match lists push in
/// scan order). Collisions are resolved by the caller with direct column
/// comparisons against the original tuples — no per-row key is ever
/// materialized.
fn hash_chain(hashes: &[u64]) -> (FxHashMap<u64, u32>, Vec<u32>) {
    debug_assert!(hashes.len() < u32::MAX as usize);
    let mut head: FxHashMap<u64, u32> =
        FxHashMap::with_capacity_and_hasher(hashes.len(), FxBuild::default());
    let mut next: Vec<u32> = vec![u32::MAX; hashes.len()];
    for (i, &h) in hashes.iter().enumerate().rev() {
        if let Some(later) = head.insert(h, i as u32) {
            next[i] = later;
        }
    }
    (head, next)
}

/// Build a hash index over `tuples`, keyed by the values at `key_cols`.
fn hash_index<'a>(
    tuples: &'a [Tuple],
    key_cols: &[usize],
) -> FxHashMap<Vec<&'a Value>, Vec<&'a Tuple>> {
    let mut index: FxHashMap<Vec<&Value>, Vec<&Tuple>> =
        FxHashMap::with_capacity_and_hasher(tuples.len(), FxBuild::default());
    for t in tuples {
        let key: Vec<&Value> = key_cols.iter().map(|&i| &t[i]).collect();
        index.entry(key).or_default().push(t);
    }
    index
}

/// Build a hash index over tuple references (the per-partition variant of
/// [`hash_index`] used by the parallel join path).
fn hash_index_refs<'a>(
    tuples: &[&'a Tuple],
    key_cols: &[usize],
) -> FxHashMap<Vec<&'a Value>, Vec<&'a Tuple>> {
    let mut index: FxHashMap<Vec<&Value>, Vec<&Tuple>> =
        FxHashMap::with_capacity_and_hasher(tuples.len(), FxBuild::default());
    for &t in tuples {
        let key: Vec<&Value> = key_cols.iter().map(|&i| &t[i]).collect();
        index.entry(key).or_default().push(t);
    }
    index
}

/// Hash-partition `tuples` by their key-column values into `nparts`
/// buckets. Chunks of the input are scattered by parallel workers into
/// per-chunk bucket lists which are then concatenated in chunk order, so
/// each bucket preserves the input's relative tuple order. The partition
/// hash depends only on the key *values* (interned `Sym` ids are stable
/// process-wide), so both join sides route matching keys to the same
/// partition.
fn partition_by_key_hash<'a>(
    tuples: &'a [Tuple],
    key_cols: &[usize],
    nparts: usize,
) -> Vec<Vec<&'a Tuple>> {
    let chunk_len = tuples.len().div_ceil(nparts).max(1);
    let chunks: Vec<&[Tuple]> = tuples.chunks(chunk_len).collect();
    let locals = crate::pool::par_map(&chunks, |chunk| {
        let mut buckets: Vec<Vec<&Tuple>> = vec![Vec::new(); nparts];
        for t in *chunk {
            buckets[key_hash(t, key_cols) % nparts].push(t);
        }
        buckets
    });
    let mut parts: Vec<Vec<&Tuple>> = vec![Vec::new(); nparts];
    for local in locals {
        for (part, bucket) in parts.iter_mut().zip(local) {
            part.extend(bucket);
        }
    }
    parts
}

/// Fan a sorted left input out over the pool in contiguous chunks (4 per
/// worker); `emit_chunk` fills one buffer per chunk and the buffers are
/// concatenated in chunk order. Used by the sorted streaming paths
/// (`product`, no-equi theta), whose per-chunk output runs are sorted and
/// disjoint, so the concatenation preserves the sequential output exactly.
fn par_left_chunks<F>(left: &[Tuple], emit_chunk: F) -> Vec<Tuple>
where
    F: Fn(&[Tuple], &mut Vec<Tuple>) + Sync,
{
    let chunk_len = left.len().div_ceil(crate::pool::num_threads() * 4).max(1);
    let chunks: Vec<&[Tuple]> = left.chunks(chunk_len).collect();
    crate::pool::par_map(&chunks, |chunk| {
        let mut out = Vec::new();
        emit_chunk(chunk, &mut out);
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Deterministic hash of a tuple's key columns (partition routing).
fn key_hash(t: &Tuple, key_cols: &[usize]) -> usize {
    use std::hash::{Hash as _, Hasher as _};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for &i in key_cols {
        t[i].hash(&mut h);
    }
    h.finish() as usize
}

/// The build/probe phases of a hash equi-join, returning the emitted output
/// tuples (unsorted — callers run them through [`RelationBuilder::finish`]).
///
/// `emit(build_tuple, probe_tuple, scratch, out)` appends the output rows
/// for one key-matching pair (zero rows when a residual predicate rejects
/// it). With more than one pool worker and a probe side of at least
/// [`crate::pool::par_min_tuples`], the probe is chunk-partitioned across
/// the pool: each worker probes with one contiguous chunk and emits into a
/// local buffer, and a large build side is additionally hash-partitioned
/// into per-shard indexes built in parallel (a small build side — the
/// common case, since callers build on the smaller input — is indexed once
/// and shared read-only). The caller's final sort+dedup canonicalizes the
/// concatenated buffers, so output is identical to the sequential loop.
fn hash_join_collect<F>(
    build: &[Tuple],
    build_keys: &[usize],
    probe: &[Tuple],
    probe_keys: &[usize],
    emit: F,
) -> Vec<Tuple>
where
    F: Fn(&Tuple, &Tuple, &mut Tuple, &mut Vec<Tuple>) + Sync,
{
    use crate::pool;
    // Wide inputs hash their key columns column-wise ([`crate::physical`])
    // into a chain table instead of allocating a `Vec<&Value>` key per row
    // over heap-spilled tuples. (The chain stores row indices as `u32`;
    // larger build sides — far beyond anything the engine materializes —
    // stay on the row path.)
    let width = build
        .first()
        .map_or(0, |t| t.len())
        .max(probe.first().map_or(0, |t| t.len()));
    if crate::physical::columnar_keys(width, build.len().max(probe.len()), build_keys.len())
        && build.len() < u32::MAX as usize
    {
        return hash_join_collect_columnar(build, build_keys, probe, probe_keys, emit);
    }
    let parallel = pool::parallelize(probe.len(), pool::par_min_tuples());
    if parallel && build.len() >= pool::par_min_tuples() {
        // Large build side: partition it by key hash and build the
        // per-shard indexes in parallel; probe chunks route each tuple to
        // its shard by the same key hash.
        let nshards = pool::num_threads() * 4;
        let build_parts = partition_by_key_hash(build, build_keys, nshards);
        let shard_indexes: Vec<FxHashMap<Vec<&Value>, Vec<&Tuple>>> =
            pool::par_map(&build_parts, |part| hash_index_refs(part, build_keys));
        let chunk_len = probe.len().div_ceil(nshards).max(1);
        let chunks: Vec<&[Tuple]> = probe.chunks(chunk_len).collect();
        pool::par_map(&chunks, |chunk| {
            let mut out = Vec::new();
            let mut scratch = Tuple::new();
            for p in *chunk {
                let shard = &shard_indexes[key_hash(p, probe_keys) % nshards];
                let key: Vec<&Value> = probe_keys.iter().map(|&i| &p[i]).collect();
                if let Some(matches) = shard.get(&key) {
                    for &m in matches {
                        emit(m, p, &mut scratch, &mut out);
                    }
                }
            }
            out
        })
        .into_iter()
        .flatten()
        .collect()
    } else {
        let index = hash_index(build, build_keys);
        let probe_one = |p: &Tuple, scratch: &mut Tuple, out: &mut Vec<Tuple>| {
            let key: Vec<&Value> = probe_keys.iter().map(|&i| &p[i]).collect();
            if let Some(matches) = index.get(&key) {
                for &m in matches {
                    emit(m, p, scratch, out);
                }
            }
        };
        if parallel {
            // Small build side: one shared read-only index, probe chunks
            // fan out over the pool with thread-local output buffers.
            let chunk_len = probe.len().div_ceil(pool::num_threads() * 4).max(1);
            let chunks: Vec<&[Tuple]> = probe.chunks(chunk_len).collect();
            pool::par_map(&chunks, |chunk| {
                let mut out = Vec::new();
                let mut scratch = Tuple::new();
                for p in *chunk {
                    probe_one(p, &mut scratch, &mut out);
                }
                out
            })
            .into_iter()
            .flatten()
            .collect()
        } else {
            let mut out = Vec::new();
            let mut scratch = Tuple::new();
            for p in probe {
                probe_one(p, &mut scratch, &mut out);
            }
            out
        }
    }
}

/// The columnar-key variant of [`hash_join_collect`]: both sides' key
/// hashes are combined column-wise (one pass per key column — see
/// [`crate::physical::key_hashes`]) and the build side becomes a chain
/// hash table over row indices ([`hash_chain`]); probe rows walk the chain
/// for their hash, confirming matches by direct column equality against
/// the build tuples. No per-row key — neither a `Vec<&Value>` nor an
/// inline key tuple — is ever materialized. Chains walk in ascending
/// build-row order, so matches emit exactly as the row path's index emits
/// them (this keeps the pre-sort output just as presorted, which the
/// caller's final sort exploits); the caller's sort+dedup then
/// canonicalizes the output, so the result is byte-identical to the row
/// path at any thread count. The chain build is one sequential pass over
/// the hash vector (cheap even for large build sides); the hash passes
/// and the probe fan out over the pool.
fn hash_join_collect_columnar<F>(
    build: &[Tuple],
    build_keys: &[usize],
    probe: &[Tuple],
    probe_keys: &[usize],
    emit: F,
) -> Vec<Tuple>
where
    F: Fn(&Tuple, &Tuple, &mut Tuple, &mut Vec<Tuple>) + Sync,
{
    use crate::pool;
    let bh = crate::physical::key_hashes(build, build_keys);
    let ph = crate::physical::key_hashes(probe, probe_keys);
    let (head, next) = hash_chain(&bh);
    let keys_eq = |bi: usize, pi: usize| {
        build_keys
            .iter()
            .zip(probe_keys)
            .all(|(&bc, &pc)| build[bi][bc] == probe[pi][pc])
    };
    let probe_range = |lo: usize, hi: usize| {
        let mut out = Vec::new();
        let mut scratch = Tuple::new();
        for pi in lo..hi {
            let Some(&first) = head.get(&ph[pi]) else {
                continue;
            };
            let mut cur = first;
            while cur != u32::MAX {
                let bi = cur as usize;
                if keys_eq(bi, pi) {
                    emit(&build[bi], &probe[pi], &mut scratch, &mut out);
                }
                cur = next[bi];
            }
        }
        out
    };
    if pool::parallelize(probe.len(), pool::par_min_tuples()) {
        let chunk_len = probe.len().div_ceil(pool::num_threads() * 4).max(1);
        let ranges: Vec<(usize, usize)> = (0..probe.len())
            .step_by(chunk_len)
            .map(|lo| (lo, (lo + chunk_len).min(probe.len())))
            .collect();
        pool::par_map(&ranges, |&(lo, hi)| probe_range(lo, hi))
            .into_iter()
            .flatten()
            .collect()
    } else {
        probe_range(0, probe.len())
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
pub(crate) fn split_equi_conjuncts(
    pred: &Pred,
    left: &Schema,
    right: &Schema,
) -> (Vec<(usize, usize)>, Pred) {
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
        for (i, t) in self.tuples.iter().enumerate() {
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
            b.push([Value::int(v)].into_iter().collect());
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
            let ts: Vec<&Tuple> = rel.iter().collect();
            assert!(ts.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
        }
    }

    #[test]
    fn table_string_renders() {
        let s = r().to_table_string("R");
        assert!(s.contains('A'));
        assert!(s.contains('1'));
    }
}
