//! The inlined representation of world-sets (Definition 5.1, Figure 4).

use std::collections::BTreeMap;

use relalg::{attr, Attr, Relation, Result, Schema, Tuple, Value};
use worldset::{World, WorldSet};

/// An inlined representation `T = ⟨R₁ᵀ[U₁∪V], …, R_kᵀ[U_k∪V], W[V]⟩`.
///
/// Every table carries the world-id attributes `V`; the world table `W`
/// holds all world ids, possibly including ids appearing in no table (which
/// encode empty worlds). `V` may be empty, in which case the representation
/// encodes a single world (`W = {⟨⟩}`) or the empty world-set (`W = ∅`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InlinedRep {
    /// Relation names `R₁…R_k`.
    pub names: Vec<String>,
    /// The inlined tables, schema `Uᵢ ∪ V` each.
    pub tables: Vec<Relation>,
    /// The world-id attributes `V`.
    pub id_attrs: Vec<Attr>,
    /// The world table `W[V]`.
    pub world_table: Relation,
}

/// The id attribute used by [`InlinedRep::encode`].
pub(crate) const WID: &str = "#wid";

impl InlinedRep {
    /// Represent a complete (single-world) database: `V = ∅`, `W = {⟨⟩}`.
    pub fn single_world(named_rels: Vec<(&str, Relation)>) -> InlinedRep {
        InlinedRep {
            names: named_rels.iter().map(|(n, _)| n.to_string()).collect(),
            tables: named_rels.into_iter().map(|(_, r)| r).collect(),
            id_attrs: vec![],
            world_table: Relation::unit(),
        }
    }

    /// Encode an arbitrary world-set by assigning string world ids
    /// `w1, w2, …` in the world-set's deterministic order, under the single
    /// id attribute `#wid`.
    pub fn encode(ws: &WorldSet) -> Result<InlinedRep> {
        let wid = attr(WID);
        let names: Vec<String> = ws.rel_names().to_vec();
        let k = names.len();
        let mut w_rows: Vec<Vec<Value>> = Vec::with_capacity(ws.len());
        // Schema per position: value attrs ∪ {#wid}.
        let mut tables: Vec<Option<Relation>> = vec![None; k];
        for (i, world) in ws.iter().enumerate() {
            let id = Value::str(&format!("w{}", i + 1));
            w_rows.push(vec![id]);
            for (pos, rel) in world.rels().iter().enumerate() {
                let mut attrs = rel.schema().attrs().to_vec();
                attrs.push(wid.clone());
                let schema = Schema::new(attrs);
                let rows = rel.iter().map(|t| {
                    let mut row = t.clone();
                    row.push(id);
                    row
                });
                let with_id = Relation::from_rows(schema, rows)?;
                tables[pos] = Some(match tables[pos].take() {
                    None => with_id,
                    Some(acc) => acc.union(&with_id)?,
                });
            }
        }
        // A world-set with zero worlds still needs table schemas; recover
        // them from nothing is impossible, so represent as empty tables with
        // just the id attribute when unknown (only reachable for k = 0 or
        // empty world-sets, where rep() returns the empty world-set anyway).
        let tables: Vec<Relation> = tables
            .into_iter()
            .map(|t| t.unwrap_or_else(|| Relation::empty(Schema::new(vec![wid.clone()]))))
            .collect();
        Ok(InlinedRep {
            names,
            tables,
            id_attrs: vec![wid],
            world_table: Relation::from_rows(Schema::new(vec![attr(WID)]), w_rows)?,
        })
    }

    /// The represented world-set (the `rep` function of Section 5.1):
    /// `rep(T) = {⟨π_{U₁}(σ_{V=w}(R₁ᵀ)), …⟩ | w ∈ W}`. Equivalent worlds
    /// under different ids collapse, since a world-set is a set.
    ///
    /// Decoding partitions every table by the id attributes **once**
    /// (`O(N log N)` total) instead of running one full-table selection per
    /// world id (`O(worlds × N)`) — on the Figure-6 translation route the
    /// per-world selects used to dominate the whole pipeline.
    pub fn rep(&self) -> Result<WorldSet> {
        let tables: Vec<&Relation> = self.tables.iter().collect();
        decode_worlds(
            self.names.clone(),
            &tables,
            &self.id_attrs,
            &self.world_table,
        )
    }

    /// Number of worlds encoded (ids in `W`; distinct worlds may be fewer).
    pub fn world_count(&self) -> usize {
        self.world_table.len()
    }
}

/// The decode behind [`InlinedRep::rep`], over borrowed tables — so the
/// translation route can decode its evaluated `Arc<Relation>` results
/// without unsharing (and deep-copying) them first.
pub(crate) fn decode_worlds(
    names: Vec<String>,
    tables: &[&Relation],
    id_attrs: &[Attr],
    world_table: &Relation,
) -> Result<WorldSet> {
    if id_attrs.is_empty() {
        // V = ∅: a single world (W = {⟨⟩}) or the empty world-set.
        let mut worlds = Vec::new();
        if !world_table.is_empty() {
            worlds.push(World::new(tables.iter().map(|t| (*t).clone()).collect()));
        }
        return WorldSet::from_worlds(names, worlds);
    }
    // One partition pass per table: world id → value-attribute slice.
    let mut partitioned: Vec<(Schema, BTreeMap<Tuple, Relation>)> = tables
        .iter()
        .map(|table| {
            let value_attrs = table.schema().minus(id_attrs);
            let parts = table
                .partition_by_project(id_attrs, &value_attrs)?
                .into_iter()
                .collect();
            Ok((Schema::new(value_attrs), parts))
        })
        .collect::<Result<_>>()?;
    // Assemble one world per id in W; ids absent from a table encode an
    // empty relation there. Keys are extracted in `id_attrs` order so they
    // compare against the partition keys attribute-by-attribute. The ids
    // are distinct, so each world takes its slices out of the partition
    // maps instead of copying them.
    let wids = world_table.distinct_values(id_attrs)?;
    let worlds = wids.iter().map(|wid| {
        let rels = partitioned
            .iter_mut()
            .map(|(value_schema, parts)| {
                parts
                    .remove(wid)
                    .unwrap_or_else(|| Relation::empty(value_schema.clone()))
            })
            .collect();
        World::new(rels)
    });
    WorldSet::from_worlds(names, worlds)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 4: Rᵀ(A,V) = {(1,1),(3,1),(1,2)}, W = {1,2,3} represents the
    /// three worlds R₁={1,3}, R₂={1}, R₃={}.
    fn figure4() -> InlinedRep {
        InlinedRep {
            names: vec!["R".into()],
            tables: vec![Relation::table(
                &["A", "V"],
                &[&[1i64, 1], &[3, 1], &[1, 2]],
            )],
            id_attrs: vec![attr("V")],
            world_table: Relation::table(&["V"], &[&[1i64], &[2], &[3]]),
        }
    }

    #[test]
    fn figure_4_decodes_to_three_worlds() {
        let ws = figure4().rep().unwrap();
        assert_eq!(ws.len(), 3);
        let sizes: Vec<usize> = ws.iter().map(|w| w.rel(0).len()).collect();
        assert_eq!(sizes, vec![0, 1, 2]); // sorted world order: {}, {1}, {1,3}
    }

    #[test]
    fn empty_world_table_is_empty_world_set() {
        let mut t = figure4();
        t.world_table = Relation::empty(Schema::of(&["V"]));
        assert!(t.rep().unwrap().is_empty());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ws = figure4().rep().unwrap();
        let enc = InlinedRep::encode(&ws).unwrap();
        assert_eq!(enc.world_count(), 3);
        assert_eq!(enc.rep().unwrap(), ws);
    }

    #[test]
    fn single_world_rep() {
        let rep = InlinedRep::single_world(vec![("R", Relation::table(&["A"], &[&[1i64]]))]);
        let ws = rep.rep().unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.the_world().unwrap().rel(0).len(), 1);
    }

    #[test]
    fn equivalent_worlds_collapse_in_rep() {
        // Two ids encoding the same world: rep() yields one world.
        let t = InlinedRep {
            names: vec!["R".into()],
            tables: vec![Relation::table(&["A", "V"], &[&[1i64, 1], &[1, 2]])],
            id_attrs: vec![attr("V")],
            world_table: Relation::table(&["V"], &[&[1i64], &[2]]),
        };
        assert_eq!(t.world_count(), 2);
        assert_eq!(t.rep().unwrap().len(), 1);
    }
}
