use std::borrow::Cow;
use std::collections::HashMap;
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
/// The tuple vector is shared (`Arc`): a clone, a renaming and the
/// identity projection read the same storage instead of copying it, and a
/// set operation reads an operand in the same column order in place.
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
/// remain purely structural (schema + tuples).
pub struct Relation {
    schema: Schema,
    tuples: Arc<Vec<Tuple>>,
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
            // A clone is the same content: it shares the tuples, keeps the
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

    /// One sort + dedup pass over the appended tuples.
    pub fn finish(self) -> Relation {
        let RelationBuilder { schema, mut tuples } = self;
        tuples.sort_unstable();
        tuples.dedup();
        Relation::sealed(schema, tuples)
    }
}

impl Relation {
    /// The one place a `Relation` comes into existence: seals the sorted
    /// tuple vector and stamps a fresh epoch tag.
    fn sealed(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        Relation::sharing(schema, Arc::new(tuples))
    }

    /// A relation over already sealed tuples, with a fresh epoch tag.
    fn sharing(schema: Schema, tuples: Arc<Vec<Tuple>>) -> Relation {
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

    /// Per-column statistics (row count and distinct counts), computed
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
            Arc::make_mut(&mut self.tuples).insert(pos, t);
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
    pub fn merge_rows(&self, rows: impl IntoIterator<Item = impl Into<Tuple>>) -> Result<Relation> {
        self.with_changes(&[], rows)
    }

    /// The successor of a DML statement: `(self − removed) ∪ added`.
    ///
    /// `removed` must be strictly sorted (rows a filter matched, in the
    /// relation's order); rows of it that `self` lacks are ignored. `added`
    /// may come in any order, with duplicates and with rows already present
    /// (arity is validated). The batch is sorted and deduped, then merged
    /// into the existing tuples in one pass that gallops over the unchanged
    /// runs, so a small change to a large table compares O(d · log n)
    /// tuples, not O(n).
    ///
    /// When no row changes, the result is a clone: same storage, epoch and
    /// statistics. Otherwise it gets a fresh epoch, and if `self` has its
    /// statistics memoized, the successor is seeded with statistics derived
    /// from them (`RelStats::changed`) instead of starting cold.
    pub fn with_changes(
        &self,
        removed: &[Tuple],
        added: impl IntoIterator<Item = impl Into<Tuple>>,
    ) -> Result<Relation> {
        debug_assert!(
            removed.windows(2).all(|w| w[0] < w[1]),
            "with_changes requires strictly sorted removed rows"
        );
        let mut batch = RelationBuilder::new(self.schema.clone());
        for row in added {
            batch.try_push(row)?;
        }
        let added = batch.finish();
        let (tuples, gone, new) = merge_changes(&self.tuples, removed, &added.tuples);
        if gone.is_empty() && new.is_empty() {
            return Ok(self.clone());
        }
        let next = Relation::from_sorted_vec(self.schema.clone(), tuples);
        if let Some(stats) = self.stats_if_computed() {
            let derived = stats.changed(&self.tuples, &next.tuples, &gone, &new);
            debug_assert_eq!(
                derived,
                RelStats::compute(&next.schema, &next.tuples),
                "statistics derived from a change differ from a recount"
            );
            next.seed_stats(Arc::new(derived));
        }
        Ok(next)
    }

    /// Remove a tuple.
    pub fn remove(&mut self, t: &[Value]) -> bool {
        match self
            .tuples
            .binary_search_by(|probe| probe.as_slice().cmp(t))
        {
            Ok(pos) => {
                Arc::make_mut(&mut self.tuples).remove(pos);
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
        // A map that keeps the leading columns in source order (copies of
        // kept columns allowed) emits in source order: equal outputs are
        // adjacent, so one pass builds a tuple per change of that prefix.
        // The identity map shares the tuples.
        if let Some(kept) = stream_prefix(&idx) {
            if kept == idx.len() && kept == self.schema.arity() {
                return Ok(Relation::sharing(out_schema, self.tuples.clone()));
            }
            let mut tuples: Vec<Tuple> = Vec::new();
            let mut last: Option<&Tuple> = None;
            for t in self.tuples.iter() {
                if last.is_some_and(|l| l[..kept] == t[..kept]) {
                    continue;
                }
                tuples.push(idx.iter().map(|&i| t[i]).collect());
                last = Some(t);
            }
            return Ok(Relation::from_sorted_vec(out_schema, tuples));
        }
        // Any other map first drops duplicates by hash, building one tuple
        // per distinct output; a mostly distinct output sorts instead.
        if let Some(tuples) = project_hashed(&self.tuples, &idx) {
            return Ok(Relation::from_sorted_vec(out_schema, tuples));
        }
        let mut b = RelationBuilder::with_capacity(out_schema, self.tuples.len());
        for t in self.tuples.iter() {
            b.push(idx.iter().map(|&i| t[i]).collect());
        }
        Ok(b.finish())
    }

    /// Selection `σ_φ`. Filtering preserves sortedness, so the output is
    /// assembled without a sort pass.
    ///
    /// Wide relations with enough rows take the vectorized path
    /// (`physical::filter_tuples`): comparison conjuncts evaluate
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
        Ok(Relation::sharing(schema, self.tuples.clone()))
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
        let mut tuples = Vec::with_capacity(self.tuples.len() * other.tuples.len());
        for l in self.tuples.iter() {
            for r in other.tuples.iter() {
                tuples.push(l.concat(r));
            }
        }
        Ok(Relation::from_sorted_vec(schema, tuples))
    }

    /// Reorder `other`'s columns into `self`'s column order (both must have
    /// the same attribute set), returning its sorted tuples — `other`'s own
    /// when the order already matches; used by the set operations.
    fn aligned<'a>(&self, other: &'a Relation) -> Result<Cow<'a, [Tuple]>> {
        if !self.schema.same_attr_set(&other.schema) {
            return Err(RelalgError::SchemaMismatch {
                left: self.schema.clone(),
                right: other.schema.clone(),
            });
        }
        if self.schema == other.schema {
            return Ok(Cow::Borrowed(&other.tuples));
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
        Ok(Cow::Owned(tuples))
    }

    /// Union `∪` (same attribute set; right side is reordered as needed):
    /// a linear merge of the two sorted tuple vectors.
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        let right = self.aligned(other)?;
        let tuples = merge_union(&self.tuples, &right);
        Ok(Relation::from_sorted_vec(self.schema.clone(), tuples))
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
        b.tuples.extend_from_slice(&self.tuples);
        for other in others {
            b.tuples.extend_from_slice(&self.aligned(other)?);
        }
        Ok(b.finish())
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
            let mut scratch = Tuple::new();
            let mut tuples = Vec::new();
            for l in self.tuples.iter() {
                for r in other.tuples.iter() {
                    emit(l, r, &mut scratch, &mut tuples);
                }
            }
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
    /// pairs: the tuples of `self` whose `l` columns equal the `r` columns
    /// of some tuple of `other` (`anti`: of none). With no pairs, a tuple
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
        let index = KeyIndex::over_rows(&other.tuples, &r_idx);
        let tuples: Vec<Tuple> = self
            .tuples
            .iter()
            .filter(|t| {
                let found = index
                    .chain(key_hash(t, &l_idx))
                    .any(|o| cols_eq(t, &l_idx, &other.tuples[o], &r_idx));
                found != anti
            })
            .cloned()
            .collect();
        Ok(Relation::from_sorted_vec(self.schema.clone(), tuples))
    }

    /// Division `÷`: for `R[A ∪ B] ÷ S[B]`, the `A`-tuples `a` such that
    /// `(a, b) ∈ R` for **every** `b ∈ S`. Used by the `cert` translation
    /// (`R ÷ W` in Figure 6). When `S` is empty the result is `π_A(R)`
    /// (vacuous universal quantification), consistent with the classical
    /// RA definition `π_A(R) − π_A(π_A(R) × S − R)`.
    ///
    /// Two layouts of `R` are read in place, without sorting (sort-based
    /// division on sorted input, Graefe, ICDE 1989):
    ///
    /// * `A` then `B` (`B` in `S`'s column order): the sorted tuples run
    ///   by their `A`-part, and each run's `B`-parts are checked against
    ///   `S` in one forward walk;
    /// * `B` then `A` (what `Flights(Dep, Arr) ÷ π{Dep}(Flights)` reads
    ///   when [`crate::Catalog::eval`] looks through the trip plan's
    ///   `π{Arr,Dep}`): the tuples run by their `B`-part, `S` is merged
    ///   against those runs, and the runs' sorted `A`-lists are
    ///   intersected. A divisor tuple without a run empties the quotient.
    ///
    /// Any other layout, and an empty `S` under `B`-then-`A`, takes one
    /// `(A-part, B-part)` extraction pass plus one sort, which groups the
    /// divisor check into contiguous runs.
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
        // Plain slices: the loops below index them without going through
        // the `Arc`.
        let needed: &[Tuple] = &divisor.tuples;
        let k = a.len();
        let mut tuples: Vec<Tuple> = Vec::new();

        if a_idx.iter().chain(&b_idx).enumerate().all(|(i, &x)| x == i) {
            let rows: &[Tuple] = &self.tuples;
            let mut run = 0;
            while run < rows.len() {
                let ka = &rows[run][..k];
                let mut end = run + 1;
                while end < rows.len() && &rows[end][..k] == ka {
                    end += 1;
                }
                if covers(rows[run..end].iter().map(|t| &t[k..]), needed) {
                    tuples.push(ka.iter().copied().collect());
                }
                run = end;
            }
            // Runs appear in the relation's (sorted) order.
            return Ok(Relation::from_sorted_vec(out_schema, tuples));
        }

        let m = b.len();
        if !needed.is_empty() && b_idx.iter().chain(&a_idx).enumerate().all(|(i, &x)| x == i) {
            let rows: &[Tuple] = &self.tuples;
            let mut start = 0;
            for (n, kb) in needed.iter().enumerate() {
                // The divisor ascends, so its run starts at or after the
                // previous one's.
                while start < rows.len() && rows[start][..m] < kb[..] {
                    start += 1;
                }
                let mut end = start;
                while end < rows.len() && rows[end][..m] == kb[..] {
                    end += 1;
                }
                let run = &rows[start..end];
                if n == 0 {
                    tuples = run
                        .iter()
                        .map(|t| t[m..].iter().copied().collect())
                        .collect();
                } else {
                    let mut j = 0;
                    tuples.retain(|ka| {
                        while j < run.len() && run[j][m..] < ka[..] {
                            j += 1;
                        }
                        j < run.len() && run[j][m..] == ka[..]
                    });
                }
                if tuples.is_empty() {
                    break;
                }
                start = end;
            }
            // A run's `A`-parts ascend, and intersecting keeps that order.
            return Ok(Relation::from_sorted_vec(out_schema, tuples));
        }

        // Decompose each tuple into (A-part, B-part) and sort once; equal
        // A-parts become contiguous runs with sorted B-parts.
        let mut pairs: Vec<(Tuple, Tuple)> = self
            .tuples
            .iter()
            .map(|t| {
                (
                    a_idx.iter().map(|&i| t[i]).collect(),
                    b_idx.iter().map(|&i| t[i]).collect(),
                )
            })
            .collect();
        pairs.sort_unstable();

        let mut run = 0;
        while run < pairs.len() {
            let ka = &pairs[run].0;
            let mut end = run;
            while end < pairs.len() && &pairs[end].0 == ka {
                end += 1;
            }
            if covers(pairs[run..end].iter().map(|(_, kb)| &kb[..]), needed) {
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
        let projected = self.project(attrs)?;
        Ok(Arc::unwrap_or_clone(projected.tuples))
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
        let mut out: Vec<(Tuple, Relation)> =
            group_rows(&self.tuples, &idx, Vec::new, |b, t| b.push(t.clone()))
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
        let mut out: Vec<(Tuple, Relation)> =
            group_rows(&self.tuples, &key_idx, Vec::new, |b, t| b.push(emit(t)))
                .into_iter()
                .map(|(k, tuples)| (k, Relation::from_sorted_vec(out_schema.clone(), tuples)))
                .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Render as an aligned ASCII table (used by examples and docs).
    ///
    /// Every cell is written straight into one buffer. A column is as wide
    /// as its longest cell in bytes, and a cell is padded to that width by
    /// characters, so non-ASCII text gets the extra spaces its byte length
    /// asks for.
    pub fn to_table_string(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(name);
        if self.schema.arity() == 0 {
            let _ = writeln!(out, "  ({} nullary tuple(s))", self.tuples.len());
            return out;
        }
        let mut widths: Vec<usize> = self.schema.attrs().iter().map(|a| a.name().len()).collect();
        for t in self.tuples.iter() {
            for (w, v) in widths.iter_mut().zip(t.iter()) {
                *w = (*w).max(cell_len(v));
            }
        }
        let line = name.len() + 2 + widths.iter().map(|w| w + 2).sum::<usize>() + 1;
        out.reserve(line * (self.tuples.len() + 1));
        out.push_str("  ");
        for (a, &w) in self.schema.attrs().iter().zip(&widths) {
            push_cell(&mut out, a.name(), w);
        }
        out.push('\n');
        for t in self.tuples.iter() {
            push_spaces(&mut out, name.len() + 2);
            for (v, &w) in t.iter().zip(&widths) {
                match v {
                    Value::Str(s) => push_cell(&mut out, s.as_str(), w),
                    // `#c`, booleans and integers are ASCII: bytes are chars.
                    _ => {
                        let start = out.len();
                        let _ = write!(out, "{v}");
                        let len = out.len() - start;
                        push_spaces(&mut out, w.saturating_sub(len) + 2);
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Group `tuples` by the values at `key_idx`: each group's bucket starts
/// as `init()` and folds in its tuples with `add`, in scan order (so row
/// buckets over sorted input stay sorted). Groups appear in order of first
/// occurrence.
///
/// Sorted inputs whose key columns correlate with the sort order arrive in
/// *runs* of equal keys; the previous row's group is re-used with a plain
/// value comparison, and the hash index is only consulted on run
/// boundaries. It hashes the key columns in place, so a key tuple is built
/// once per group, not once per row.
pub(crate) fn group_rows<B>(
    tuples: &[Tuple],
    key_idx: &[usize],
    init: impl Fn() -> B,
    mut add: impl FnMut(&mut B, &Tuple),
) -> Vec<(Tuple, B)> {
    let mut groups: Vec<(Tuple, B)> = Vec::new();
    let mut index = KeyIndex::default();
    let mut last = usize::MAX;
    for t in tuples {
        let in_run = last != usize::MAX && same_key(t, key_idx, &groups[last].0);
        if !in_run {
            let hash = key_hash(t, key_idx);
            let found = index
                .chain(hash)
                .find(|&g| same_key(t, key_idx, &groups[g].0));
            last = match found {
                Some(g) => g,
                None => {
                    index.push(hash);
                    groups.push((key_idx.iter().map(|&i| t[i]).collect(), init()));
                    groups.len() - 1
                }
            };
        }
        add(&mut groups[last].1, t);
    }
    groups
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
    /// The index whose entry `i` is `rows[i]`, keyed by its values at
    /// `cols`. Inserting from the last row to the first makes every chain
    /// walk its rows in ascending order.
    fn over_rows(rows: &[Tuple], cols: &[usize]) -> KeyIndex {
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

/// The distinct rows of `tuples` at `cols`, sorted, built one tuple per
/// distinct output: duplicates are found by hashing the columns in place.
/// `None` once more than half of the rows scanned, after the first
/// `DEDUP_PROBE_ROWS`, are distinct — then sorting every projected row is
/// cheaper than hashing them.
fn project_hashed(tuples: &[Tuple], cols: &[usize]) -> Option<Vec<Tuple>> {
    /// Rows scanned before the distinct share is judged.
    const DEDUP_PROBE_ROWS: usize = 32;
    let mut index = KeyIndex::default();
    let mut out: Vec<Tuple> = Vec::new();
    for (n, t) in tuples.iter().enumerate() {
        let hash = key_hash(t, cols);
        if !index.chain(hash).any(|e| same_key(t, cols, &out[e])) {
            index.push(hash);
            out.push(cols.iter().map(|&i| t[i]).collect());
        }
        let scanned = n + 1;
        if scanned > DEDUP_PROBE_ROWS && 2 * index.len() > scanned {
            return None;
        }
    }
    out.sort_unstable();
    Some(out)
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

/// The merge under [`Relation::with_changes`]: `(old − removed) ∪ added`
/// over strictly sorted inputs, with the rows `old` lost (`gone`) and the
/// rows it gained (`new`), each in sorted order. The next changed row is
/// located in the unconsumed rest of `old` by galloping, and the run before
/// it is copied as a whole.
fn merge_changes<'a>(
    old: &'a [Tuple],
    removed: &'a [Tuple],
    added: &'a [Tuple],
) -> (Vec<Tuple>, Vec<&'a Tuple>, Vec<&'a Tuple>) {
    let mut out = Vec::with_capacity(old.len() + added.len());
    let (mut gone, mut new) = (Vec::new(), Vec::new());
    let (mut rest, mut removed, mut added) = (old, removed, added);
    loop {
        let key = match (removed.first(), added.first()) {
            (None, None) => break,
            (Some(r), None) => r,
            (None, Some(a)) => a,
            (Some(r), Some(a)) => r.min(a),
        };
        let before = gallop(rest, key);
        out.extend_from_slice(&rest[..before]);
        rest = &rest[before..];
        let present = rest.first() == Some(key);
        if removed.first() == Some(key) {
            removed = &removed[1..];
        }
        let is_added = added.first() == Some(key);
        if is_added {
            added = &added[1..];
        }
        match (present, is_added) {
            (true, true) => out.push(rest[0].clone()),
            (true, false) => gone.push(&rest[0]),
            (false, true) => {
                out.push(key.clone());
                new.push(key);
            }
            (false, false) => {}
        }
        if present {
            rest = &rest[1..];
        }
    }
    out.extend_from_slice(rest);
    (out, gone, new)
}

/// The number of rows of the sorted `rows` below `key`, found by an
/// exponential search from the front: O(log p) comparisons for an answer
/// `p`, so successive searches over a shrinking rest stay linear overall.
fn gallop(rows: &[Tuple], key: &Tuple) -> usize {
    let mut hi = 1;
    while hi <= rows.len() && rows[hi - 1] < *key {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(rows.len());
    lo + rows[lo..hi].partition_point(|r| r < key)
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

/// The build/probe phases of the hash equi-join under
/// [`Relation::natural_join`] and [`Relation::theta_join`]: `build` is
/// indexed on its key columns ([`KeyIndex::over_rows`]) and every probe
/// row walks the chain of its key hash. Chains walk build rows in sorted
/// order, so a probe row's matches come out in that order, which keeps
/// the output as presorted as the inputs allow for the callers'
/// [`RelationBuilder::finish`].
///
/// `emit(build_tuple, probe_tuple, scratch, out)` appends the output rows
/// for one key-matching pair (zero rows when a residual predicate rejects
/// it).
fn hash_join_collect<F>(
    build: &[Tuple],
    build_keys: &[usize],
    probe: &[Tuple],
    probe_keys: &[usize],
    emit: F,
) -> Vec<Tuple>
where
    F: Fn(&Tuple, &Tuple, &mut Tuple, &mut Vec<Tuple>),
{
    let index = KeyIndex::over_rows(build, build_keys);
    let mut out = Vec::new();
    let mut scratch = Tuple::new();
    for p in probe {
        for b in index.chain(key_hash(p, probe_keys)) {
            let m = &build[b];
            if cols_eq(m, build_keys, p, probe_keys) {
                emit(m, p, &mut scratch, &mut out);
            }
        }
    }
    out
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

/// The byte length of `v` as [`Relation::to_table_string`] prints it.
fn cell_len(v: &Value) -> usize {
    match v {
        Value::Pad => 2,
        Value::Bool(b) => {
            if *b {
                4
            } else {
                5
            }
        }
        Value::Int(i) => {
            let digits = i
                .unsigned_abs()
                .checked_ilog10()
                .map_or(1, |d| d as usize + 1);
            digits + usize::from(*i < 0)
        }
        Value::Str(s) => s.as_str().len(),
    }
}

/// `s`, padded by characters to `width` and followed by the two-space
/// column gap (what `format!("{s:<width$}  ")` writes).
fn push_cell(out: &mut String, s: &str, width: usize) {
    out.push_str(s);
    push_spaces(out, width.saturating_sub(s.chars().count()) + 2);
}

fn push_spaces(out: &mut String, n: usize) {
    out.extend(std::iter::repeat_n(' ', n));
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
fn covers<'a>(run: impl Iterator<Item = &'a [Value]>, needed: &[Tuple]) -> bool {
    let mut ni = 0;
    for kb in run {
        if ni == needed.len() {
            break;
        }
        match kb.cmp(&needed[ni][..]) {
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
        let rows: Vec<Tuple> = (0..30i64)
            .map(|i| [Value::int(i % 3), Value::int(i)].into_iter().collect())
            .collect();
        let index = KeyIndex::over_rows(&rows, &[0]);
        for k in 0..3i64 {
            let chain: Vec<usize> = index
                .chain(key_hash(&[Value::int(k)], &[0]))
                .filter(|&e| rows[e][0] == Value::int(k))
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

    /// The renderer as it was before it wrote into one buffer: a `String`
    /// per cell and a `format!` per padded cell.
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

    #[test]
    fn table_string_matches_the_per_cell_reference() {
        let rows: Vec<Vec<Value>> = vec![
            vec![
                Value::str("Zürich"),
                Value::Int(-7),
                Value::Bool(true),
                Value::Pad,
            ],
            vec![
                Value::str("東京"),
                Value::Int(i64::MIN),
                Value::Bool(false),
                Value::Int(0),
            ],
            vec![
                Value::str("ATL"),
                Value::Int(1234567),
                Value::Pad,
                Value::str("ü"),
            ],
            vec![
                Value::str(""),
                Value::Int(-1),
                Value::Int(10),
                Value::Bool(false),
            ],
        ];
        let mixed = Relation::from_rows(Schema::of(&["City", "N", "Flag", "Ä"]), rows).unwrap();
        let wide_headers =
            Relation::table(&["LongHeaderName", "Ångström"], &[&[1i64, -2], &[3, 4]]);
        // More answers than the shell prints (it shows the first 8).
        let answers: Vec<Relation> = (0..10i64)
            .map(|i| Relation::table(&["K", "V"], &[&[i, -i * 1000], &[i + 100, i]]))
            .collect();
        let mut cases = vec![
            (mixed, "Q"),
            (wide_headers, "Wide"),
            (Relation::unit(), "Unit"),
            (Relation::nullary_empty(), "None"),
            (Relation::empty(Schema::of(&["A", "Bé"])), "Empty"),
            (r(), "R"),
            (r(), ""),
        ];
        cases.extend(answers.into_iter().map(|a| (a, "Ans[é]")));
        for (rel, name) in &cases {
            assert_eq!(
                rel.to_table_string(name),
                reference_table_string(rel, name),
                "{name}: {rel:?}"
            );
        }
    }
}
