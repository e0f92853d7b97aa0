//! World-set isomorphism (Definition 4.3) and domain bijections.
//!
//! Genericity (Definition 4.4, Proposition 4.5) states that for isomorphic
//! world-sets `A ≅θ A′`, query answers are isomorphic under the same `θ`:
//! `q(A) ≅θ q(A′)`. The [`Bijection`] type applies a domain permutation to
//! relations, worlds and world-sets so property tests can check exactly
//! this.

use std::collections::{BTreeMap, BTreeSet};

use relalg::{Relation, Result, Value};

use crate::{World, WorldSet};

/// All constants occurring in any relation of any world — the active domain
/// `dom(A)` of a world-set.
pub fn active_domain(ws: &WorldSet) -> BTreeSet<Value> {
    let mut dom = BTreeSet::new();
    for w in ws.iter() {
        for r in w.rels() {
            for t in r.iter() {
                dom.extend(t.iter().cloned());
            }
        }
    }
    dom
}

/// A bijection `θ : dom → dom′` between domain values. Values not in the map
/// are fixed points (the identity outside the support), which keeps the
/// definition total as required by Definition 4.3.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bijection {
    fwd: BTreeMap<Value, Value>,
    bwd: BTreeMap<Value, Value>,
}

impl Bijection {
    /// The identity bijection.
    pub fn identity() -> Bijection {
        Bijection::default()
    }

    /// Build from pairs; returns `None` if the pairs are not one-to-one.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Value, Value)>) -> Option<Bijection> {
        let mut fwd = BTreeMap::new();
        let mut bwd = BTreeMap::new();
        for (a, b) in pairs {
            if fwd.insert(a, b).is_some() {
                return None;
            }
            if bwd.insert(b, a).is_some() {
                return None;
            }
        }
        Some(Bijection { fwd, bwd })
    }

    /// The inverse bijection `θ⁻¹`.
    pub fn inverse(&self) -> Bijection {
        Bijection {
            fwd: self.bwd.clone(),
            bwd: self.fwd.clone(),
        }
    }

    /// Image of one value.
    pub fn apply_value(&self, v: &Value) -> Value {
        self.fwd.get(v).cloned().unwrap_or(*v)
    }

    /// Image of a relation (tuple-wise).
    pub fn apply_relation(&self, r: &Relation) -> Result<Relation> {
        let mut b = relalg::RelationBuilder::with_capacity(r.schema().clone(), r.len());
        for t in r.iter() {
            b.push_values(t.iter().map(|v| self.apply_value(v)));
        }
        Ok(b.finish())
    }

    /// Image of a world.
    pub fn apply_world(&self, w: &World) -> Result<World> {
        let rels: Result<Vec<Relation>> = w.rels().iter().map(|r| self.apply_relation(r)).collect();
        Ok(World::new(rels?))
    }

    /// Image of a world-set: `θ(A) = {θ(I) | I ∈ A}`.
    pub fn apply(&self, ws: &WorldSet) -> Result<WorldSet> {
        ws.map_worlds(|w| self.apply_world(w))
    }

    /// Definition 4.3: `A ≅θ A′` iff `θ(A) ⊆ A′` and `θ⁻¹(A′) ⊆ A`
    /// (equivalently `θ(A) = A′` for finite sets).
    pub fn isomorphic(&self, a: &WorldSet, b: &WorldSet) -> Result<bool> {
        Ok(self.apply(a)? == *b && self.inverse().apply(b)? == *a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(vals: &[&[i64]]) -> WorldSet {
        let worlds = vals
            .iter()
            .map(|vs| {
                World::new(vec![Relation::table(
                    &["A"],
                    &vs.iter().map(std::slice::from_ref).collect::<Vec<_>>(),
                )])
            })
            .collect::<Vec<_>>();
        WorldSet::from_worlds(vec!["R".into()], worlds).unwrap()
    }

    #[test]
    fn active_domain_collects() {
        let a = ws(&[&[1, 2], &[3]]);
        let dom = active_domain(&a);
        assert_eq!(dom.len(), 3);
        assert!(dom.contains(&Value::int(2)));
    }

    #[test]
    fn bijection_must_be_one_to_one() {
        assert!(Bijection::from_pairs(vec![
            (Value::int(1), Value::int(10)),
            (Value::int(2), Value::int(10)),
        ])
        .is_none());
        assert!(Bijection::from_pairs(vec![
            (Value::int(1), Value::int(10)),
            (Value::int(1), Value::int(11)),
        ])
        .is_none());
    }

    #[test]
    fn apply_and_isomorphic() {
        let theta = Bijection::from_pairs(vec![
            (Value::int(1), Value::int(10)),
            (Value::int(2), Value::int(20)),
            (Value::int(3), Value::int(30)),
        ])
        .unwrap();
        let a = ws(&[&[1, 2], &[3]]);
        let b = ws(&[&[10, 20], &[30]]);
        assert!(theta.isomorphic(&a, &b).unwrap());
        assert!(!theta.isomorphic(&a, &ws(&[&[10, 20]])).unwrap());
        assert_eq!(theta.inverse().apply(&b).unwrap(), a);
    }

    #[test]
    fn identity_fixes_everything() {
        let a = ws(&[&[1, 2], &[3]]);
        assert!(Bijection::identity().isomorphic(&a, &a).unwrap());
    }

    #[test]
    fn unmapped_values_are_fixed_points() {
        let theta = Bijection::from_pairs(vec![(Value::int(1), Value::int(9))]).unwrap();
        assert_eq!(theta.apply_value(&Value::int(5)), Value::int(5));
        assert_eq!(theta.apply_value(&Value::int(1)), Value::int(9));
    }
}
