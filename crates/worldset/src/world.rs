use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use relalg::{RelalgError, Relation, Result, Schema};

/// One possible world: a complete database instance, i.e. an ordered tuple
/// of relations `⟨R₁, …, R_k⟩`. Relation *names* live on the enclosing
/// [`WorldSet`], since all worlds share the schema.
///
/// Relations are held behind [`Arc`], so the world-rewriting primitives
/// ([`World::with`], [`World::replace_last`], [`World::drop_last`]) copy a
/// vector of pointers — O(k) reference-count bumps — instead of cloning
/// relation data. This is what makes the Figure-3 semantics affordable when
/// `choice-of` fans a single world out into hundreds: the base relations
/// `R₁…R_k` are shared by every successor world.
#[derive(Clone, Eq, Debug)]
pub struct World {
    rels: Vec<Arc<Relation>>,
}

// Comparisons shortcut on pointer identity before falling back to content:
// worlds produced by fan-out (and by the factorized decode) share their
// unchanged relations by `Arc`, and deduplicating them into a `BTreeSet`
// would otherwise re-compare those shared relations row-by-row on every
// insertion. Pointer equality implies content equality, so the orderings
// are unchanged. `Hash` stays content-based to remain consistent with `Eq`.
// [`World`] and [`Prefix`] both compare through these two functions.
fn rels_eq(a: &[Arc<Relation>], b: &[Arc<Relation>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
}

fn rels_cmp(a: &[Arc<Relation>], b: &[Arc<Relation>]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        if Arc::ptr_eq(x, y) {
            continue;
        }
        match x.cmp(y) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    a.len().cmp(&b.len())
}

impl PartialEq for World {
    fn eq(&self, other: &World) -> bool {
        rels_eq(&self.rels, &other.rels)
    }
}

impl Ord for World {
    fn cmp(&self, other: &World) -> Ordering {
        rels_cmp(&self.rels, &other.rels)
    }
}

impl PartialOrd for World {
    fn partial_cmp(&self, other: &World) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for World {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.rels.hash(state);
    }
}

impl World {
    /// Build a world from owned relations.
    pub fn new(rels: Vec<Relation>) -> World {
        World {
            rels: rels.into_iter().map(Arc::new).collect(),
        }
    }

    /// Build a world from already-shared relations (no data copied).
    pub fn from_shared(rels: Vec<Arc<Relation>>) -> World {
        World { rels }
    }

    /// Number of relations.
    pub fn arity(&self) -> usize {
        self.rels.len()
    }

    /// The `i`-th relation.
    pub fn rel(&self, i: usize) -> &Relation {
        &self.rels[i]
    }

    /// The `i`-th relation as a shared handle (cheap to clone).
    pub fn rel_shared(&self, i: usize) -> &Arc<Relation> {
        &self.rels[i]
    }

    /// The relations in order, as shared handles.
    pub fn rels(&self) -> &[Arc<Relation>] {
        &self.rels
    }

    /// The last relation — the query answer `R_{k+1}` during evaluation.
    pub fn last(&self) -> &Relation {
        self.rels.last().expect("world with no relations")
    }

    /// The last relation as a shared handle.
    pub fn last_shared(&self) -> &Arc<Relation> {
        self.rels.last().expect("world with no relations")
    }

    /// All relations except the last (the context `⟨R₁,…,R_k⟩`).
    pub fn prefix(&self) -> Prefix<'_> {
        Prefix(&self.rels[..self.rels.len() - 1])
    }

    /// A copy of this world with one more relation appended. All existing
    /// relations are shared, not cloned.
    pub fn with(&self, rel: impl Into<Arc<Relation>>) -> World {
        let mut rels = self.rels.clone();
        rels.push(rel.into());
        World { rels }
    }

    /// A copy of this world with the last relation replaced (prefix shared).
    pub fn replace_last(&self, rel: impl Into<Arc<Relation>>) -> World {
        let mut rels = self.rels.clone();
        *rels.last_mut().expect("world with no relations") = rel.into();
        World { rels }
    }

    /// A copy of this world with the `i`-th relation replaced; every other
    /// relation is shared.
    pub fn replace_rel(&self, i: usize, rel: impl Into<Arc<Relation>>) -> World {
        let mut rels = self.rels.clone();
        rels[i] = rel.into();
        World { rels }
    }

    /// A copy of this world with the last relation removed (rest shared).
    pub fn drop_last(&self) -> World {
        let mut rels = self.rels.clone();
        rels.pop();
        World { rels }
    }
}

/// The context `⟨R₁,…,R_k⟩` of a world, ordered and compared exactly like
/// [`World`] itself: pointer identity first, relation content as the
/// fallback. A map keyed by `Prefix` therefore pairs worlds whose contexts
/// are equal *by value* (the two operand evaluations of a binary operator
/// may hold equal relations under distinct allocations) without re-reading
/// the relations they share by `Arc` row by row on every comparison.
#[derive(Clone, Copy, Debug)]
pub struct Prefix<'a>(pub &'a [Arc<Relation>]);

impl PartialEq for Prefix<'_> {
    fn eq(&self, other: &Self) -> bool {
        rels_eq(self.0, other.0)
    }
}

impl Eq for Prefix<'_> {}

impl Ord for Prefix<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        rels_cmp(self.0, other.0)
    }
}

impl PartialOrd for Prefix<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A finite set of possible worlds over a shared schema.
///
/// Worlds are deduplicated structurally (the model is a *set* of worlds) and
/// iterate in a deterministic order. The relation-name list is shared and
/// reference-counted; appending an answer relation clones it once.
///
/// Every world-level operation ([`WorldSet::map_worlds`],
/// [`WorldSet::flat_map_worlds`], [`WorldSet::extend_with`], the
/// `poss`/`cert` folds) visits the worlds in that order on the calling
/// thread, so the callbacks are plain `FnMut`. Worlds share almost all
/// their data by `Arc`, which leaves nothing to split across threads
/// (EXPERIMENTS.md, B8); `relalg`'s operators run on the calling thread
/// too, so evaluating a world-set starts no thread.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorldSet {
    rel_names: Arc<Vec<String>>,
    worlds: BTreeSet<World>,
}

impl WorldSet {
    /// The empty world-set (no worlds at all — distinct from a world-set
    /// containing one empty world).
    pub fn empty(rel_names: Vec<String>) -> WorldSet {
        WorldSet {
            rel_names: Arc::new(rel_names),
            worlds: BTreeSet::new(),
        }
    }

    /// A singleton world-set: the complete database `⟨R₁,…,R_k⟩`.
    pub fn single(named_rels: Vec<(&str, Relation)>) -> WorldSet {
        let rel_names = named_rels.iter().map(|(n, _)| n.to_string()).collect();
        let world = World::new(named_rels.into_iter().map(|(_, r)| r).collect());
        WorldSet {
            rel_names: Arc::new(rel_names),
            worlds: [world].into(),
        }
    }

    /// Build from explicit worlds, validating that every world matches the
    /// schema width and that each relation position has a uniform attribute
    /// set across worlds.
    pub fn from_worlds(
        rel_names: Vec<String>,
        worlds: impl IntoIterator<Item = World>,
    ) -> Result<WorldSet> {
        let mut set: BTreeSet<World> = BTreeSet::new();
        let mut schemas: Vec<Option<Schema>> = vec![None; rel_names.len()];
        for w in worlds {
            if w.arity() != rel_names.len() {
                return Err(RelalgError::ArityMismatch {
                    expected: rel_names.len(),
                    got: w.arity(),
                });
            }
            for (i, r) in w.rels().iter().enumerate() {
                match &schemas[i] {
                    None => schemas[i] = Some(r.schema().clone()),
                    Some(s) => {
                        if !s.same_attr_set(r.schema()) {
                            return Err(RelalgError::SchemaMismatch {
                                left: s.clone(),
                                right: r.schema().clone(),
                            });
                        }
                    }
                }
            }
            set.insert(w);
        }
        Ok(WorldSet {
            rel_names: Arc::new(rel_names),
            worlds: set,
        })
    }

    /// Number of worlds.
    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    /// True iff there are no worlds.
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// The shared relation names.
    pub fn rel_names(&self) -> &[String] {
        &self.rel_names
    }

    /// Index of the relation called `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.rel_names.iter().position(|n| n == name)
    }

    /// Iterate the worlds in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &World> {
        self.worlds.iter()
    }

    /// The worlds as a vector (cloned).
    pub fn worlds(&self) -> Vec<World> {
        self.worlds.iter().cloned().collect()
    }

    /// If this is a singleton world-set, the single world.
    pub fn the_world(&self) -> Option<&World> {
        if self.worlds.len() == 1 {
            self.worlds.iter().next()
        } else {
            None
        }
    }

    /// Extend every world with the relation produced by `f`, naming the new
    /// relation `name`. This is the world-set counterpart of appending the
    /// answer `R_{k+1}` in Figure 3. Generic over the caller's error type;
    /// `f` may return an owned [`Relation`] or a shared `Arc<Relation>` (the
    /// latter lets one relation be appended to every world without copies).
    pub fn extend_with<E, R: Into<Arc<Relation>>>(
        &self,
        name: &str,
        mut f: impl FnMut(&World) -> std::result::Result<R, E>,
    ) -> std::result::Result<WorldSet, E> {
        let mut rel_names = (*self.rel_names).clone();
        rel_names.push(name.to_string());
        let mut worlds = BTreeSet::new();
        for w in &self.worlds {
            worlds.insert(w.with(f(w)?));
        }
        Ok(WorldSet {
            rel_names: Arc::new(rel_names),
            worlds,
        })
    }

    /// Map every world through `f` (schema-preserving transformations;
    /// duplicate results merge). Generic over the caller's error type.
    pub fn map_worlds<E>(
        &self,
        mut f: impl FnMut(&World) -> std::result::Result<World, E>,
    ) -> std::result::Result<WorldSet, E> {
        let mut worlds = BTreeSet::new();
        for w in &self.worlds {
            worlds.insert(f(w)?);
        }
        Ok(WorldSet {
            rel_names: self.rel_names.clone(),
            worlds,
        })
    }

    /// Replace every world by zero or more successor worlds (used by
    /// choice-of and repair-by-key, which split worlds). Generic over the
    /// caller's error type.
    pub fn flat_map_worlds<E>(
        &self,
        mut f: impl FnMut(&World) -> std::result::Result<Vec<World>, E>,
    ) -> std::result::Result<WorldSet, E> {
        let mut worlds = BTreeSet::new();
        for w in &self.worlds {
            worlds.extend(f(w)?);
        }
        Ok(WorldSet {
            rel_names: self.rel_names.clone(),
            worlds,
        })
    }

    /// Same world-set with a different shared name list (used when the
    /// answer relation is renamed into place).
    pub fn with_rel_names(&self, rel_names: Vec<String>) -> WorldSet {
        assert_eq!(
            rel_names.len(),
            self.rel_names.len(),
            "renaming must preserve schema width"
        );
        WorldSet {
            rel_names: Arc::new(rel_names),
            worlds: self.worlds.clone(),
        }
    }

    /// Keep only the relations at the listed positions, in the given order
    /// (used by evaluators to discard temporary relations; worlds that
    /// differed only in dropped relations merge).
    pub fn keep_rels(&self, keep: &[usize]) -> WorldSet {
        let rel_names = keep.iter().map(|&i| self.rel_names[i].clone()).collect();
        let worlds = self
            .worlds
            .iter()
            .map(|w| World::from_shared(keep.iter().map(|&i| w.rel_shared(i).clone()).collect()))
            .collect();
        WorldSet {
            rel_names: Arc::new(rel_names),
            worlds,
        }
    }

    /// Drop the last relation from every world (closing an evaluation step;
    /// worlds that only differed in the answer merge).
    pub fn drop_last(&self) -> WorldSet {
        let mut rel_names = (*self.rel_names).clone();
        rel_names.pop();
        WorldSet {
            rel_names: Arc::new(rel_names),
            worlds: self.worlds.iter().map(|w| w.drop_last()).collect(),
        }
    }

    /// Pretty-print all worlds with their relation names.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, w) in self.worlds.iter().enumerate() {
            out.push_str(&format!("── world {} ──\n", i + 1));
            for (name, rel) in self.rel_names.iter().zip(w.rels()) {
                out.push_str(&rel.to_table_string(name));
            }
        }
        out
    }
}

impl fmt::Display for WorldSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// The world-pairing operation discussed in Section 7 of the paper: for
/// every ordered pair of worlds `(I, J)`, a world holding `I`'s relations
/// plus `J`'s relations under primed names. Pairing is *generic* and
/// expressible in relational algebra on inlined representations, but **not**
/// in World-set Algebra: starting from the world-set of all `2ⁿ` subsets of
/// an n-element relation it produces up to `2^{2n}` distinct worlds, more
/// than any fixed WSA query can create (choice-of being the only
/// world-increasing operation). See `tests/sec7_expressiveness.rs`.
pub fn pair_worlds(ws: &WorldSet) -> WorldSet {
    let mut names: Vec<String> = ws.rel_names().to_vec();
    names.extend(ws.rel_names().iter().map(|n| format!("{n}'")));
    let worlds = ws
        .iter()
        .flat_map(|i| {
            ws.iter().map(move |j| {
                let mut rels = i.rels().to_vec();
                rels.extend(j.rels().iter().cloned());
                World::from_shared(rels)
            })
        })
        .collect();
    WorldSet {
        rel_names: Arc::new(names),
        worlds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::attrs;

    fn flights() -> Relation {
        Relation::table(
            &["Dep", "Arr"],
            &[
                &["FRA", "BCN"],
                &["FRA", "ATL"],
                &["PAR", "ATL"],
                &["PAR", "BCN"],
                &["PHL", "ATL"],
            ],
        )
    }

    #[test]
    fn single_world() {
        let ws = WorldSet::single(vec![("Flights", flights())]);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.rel_names(), ["Flights"]);
        assert!(ws.the_world().is_some());
        assert_eq!(ws.index_of("Flights"), Some(0));
        assert_eq!(ws.index_of("Nope"), None);
    }

    #[test]
    fn worlds_dedup() {
        let w = World::new(vec![flights()]);
        let ws = WorldSet::from_worlds(vec!["F".into()], vec![w.clone(), w.clone()]).unwrap();
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn schema_uniformity_enforced() {
        let w1 = World::new(vec![flights()]);
        let w2 = World::new(vec![Relation::table(&["X"], &[&[1i64]])]);
        assert!(WorldSet::from_worlds(vec!["F".into()], vec![w1, w2]).is_err());
    }

    #[test]
    fn arity_enforced() {
        let w1 = World::new(vec![flights(), flights()]);
        assert!(WorldSet::from_worlds(vec!["F".into()], vec![w1]).is_err());
    }

    #[test]
    fn extend_and_drop() {
        let ws = WorldSet::single(vec![("Flights", flights())]);
        let ext = ws
            .extend_with("Deps", |w| w.rel(0).project(&attrs(&["Dep"])))
            .unwrap();
        assert_eq!(ext.rel_names(), ["Flights", "Deps"]);
        assert_eq!(ext.the_world().unwrap().last().len(), 3);
        assert_eq!(ext.drop_last(), ws);
    }

    #[test]
    fn flat_map_splits_worlds() {
        let ws = WorldSet::single(vec![("Flights", flights())]);
        let split = ws
            .flat_map_worlds(|w| -> Result<Vec<World>> {
                let deps = w.rel(0).distinct_values(&attrs(&["Dep"]))?;
                deps.into_iter()
                    .map(|d| {
                        let pred = relalg::Pred::eq_const("Dep", d[0]);
                        Ok(World::new(vec![w.rel(0).select(&pred)?]))
                    })
                    .collect()
            })
            .unwrap();
        assert_eq!(split.len(), 3); // FRA, PAR, PHL — Figure 2(b)
    }

    #[test]
    fn world_accessors() {
        let w = World::new(vec![flights(), Relation::unit()]);
        assert_eq!(w.arity(), 2);
        assert_eq!(w.prefix().0.len(), 1);
        assert_eq!(w.last(), &Relation::unit());
        assert_eq!(w.replace_last(flights()).last(), &flights());
        assert_eq!(w.drop_last().arity(), 1);
    }

    #[test]
    fn render_contains_names() {
        let ws = WorldSet::single(vec![("Flights", flights())]);
        let s = ws.render();
        assert!(s.contains("Flights"));
        assert!(s.contains("FRA"));
    }
}
