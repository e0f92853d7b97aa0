//! Factorized evaluation of World-set Algebra: the algebra runs over the
//! succinct [`FactoredSet`] representation, and explicit worlds are only
//! materialized at *decode boundaries*.
//!
//! The evaluator mirrors the reference semantics (the `semantics` module)
//! node for node, but carries a mixed representation (`Rep`): a branch is
//! either **factored** — a lineage-carrying answer [`Relation`] plus a
//! world-validity [`Dnf`] over
//! the shared [`FactoredSet`] — or **enumerated**, the explicit world list
//! of the reference semantics. Operators translate as follows:
//!
//! * `σ`/`π`/`δ` run directly on the factored answer (lineage rides along
//!   as an ordinary column through the vectorized kernels);
//! * `×`/`∪`/`∩`/`−` conjoin the operands' validity formulas — the
//!   factorized analogue of the reference evaluator's prefix pairing —
//!   and combine lineage per tuple, checking mutual exclusion at join
//!   time;
//! * `χ_U` allocates one fresh choice variable instead of materializing
//!   one world per group: `n` chained choices multiply the implicit world
//!   count while the representation grows by `n` variables;
//! * `poss`/`cert` fold the lineage column back to certainty without
//!   expanding;
//! * `pγ`/`cγ` (grouping reads *answers across worlds* as first-class
//!   values), `repair-by-key`, aggregation `γ` and the semijoin/antijoin
//!   (aggregating or probing over lineage is out of scope) are decode
//!   boundaries: the branch is expanded to explicit worlds and evaluation
//!   continues enumerated.
//!
//! One evaluator (`Fx::eval_p`) runs a query under a [`RepPlan`], and one
//! chooser builds that plan: [`plan_query`], using the [`Relation::stats`]
//! cardinalities to estimate the implicit world count, assigns each node
//! factored or enumerated. [`eval_named_routed`] is the public entry: it
//! runs the plan when any node is factored, and *any* factorized error —
//! a representation budget overflow or a genuine algebra error — falls
//! back to the reference evaluator, whose result (or error) is
//! authoritative. The strict entry [`eval_factorized`] is exposed for
//! equivalence testing: it runs the same evaluator under a plan with the
//! cost test dropped (every node with no decode boundary at or below it
//! runs factored) and returns a world-set byte-identical to
//! [`crate::eval_named`]'s, or a budget error.

use relalg::{Attr, Relation, Result};
use uldb::{Dnf, FResult, FactorError, FactoredSet};
use worldset::{World, WorldSet};

use crate::semantics::{
    apply_binary, apply_choice, apply_grouped, apply_repair, apply_unary, dedup_worlds,
};
use crate::Query;

/// A branch of the evaluation: factored (answer relation + validity
/// formula over the shared variable space) or enumerated (explicit
/// worlds, exactly as in [`crate::semantics`]).
enum Rep {
    F { rel: Relation, w: Dnf },
    E(Vec<World>),
}

struct Fx<'a> {
    fs: FactoredSet,
    ws: &'a WorldSet,
}

impl Fx<'_> {
    /// Plan-directed evaluation: each node runs in the representation the
    /// [`RepPlan`] assigned to it.
    ///
    /// Three regimes, by construction of the plan:
    ///
    /// * a node whose whole subtree is enumerated delegates wholesale to
    ///   the reference evaluator — byte-identical to
    ///   [`crate::eval_named`] by definition, with zero conversion
    ///   overhead (the per-operator fix for the `merge_poss` regression);
    /// * a factored node has only factored children (the planner forces
    ///   `F` down through its subtree — an enumerated branch cannot be
    ///   re-factorized, because re-encoding would assign fresh variables
    ///   and diverge from the shared prefix space);
    /// * an enumerated node above a factored region is the *conversion
    ///   site*: the factored child is expanded here
    ///   ([`FactoredSet::expand_with`]) and evaluation continues
    ///   enumerated.
    fn eval_p(&mut self, q: &Query, p: &RepPlan) -> FResult<Rep> {
        if !p.f && p.all_e {
            return Ok(Rep::E(crate::semantics::eval_worlds(q, self.ws)?));
        }
        if p.f {
            return match q {
                Query::Rel(name) => {
                    let rel = self
                        .fs
                        .table(name)
                        .ok_or_else(|| relalg::RelalgError::UnknownTable { name: name.clone() })?
                        .clone();
                    Ok(Rep::F {
                        rel,
                        w: self.fs.worlds().clone(),
                    })
                }
                Query::Select(pred, i) => {
                    let (rel, w) = self.eval_pf(i, &p.kids[0])?;
                    Ok(Rep::F {
                        rel: self.fs.select(&rel, pred)?,
                        w,
                    })
                }
                Query::Project(attrs, i) => {
                    let (rel, w) = self.eval_pf(i, &p.kids[0])?;
                    Ok(Rep::F {
                        rel: self.fs.project(&rel, attrs)?,
                        w,
                    })
                }
                Query::Rename(map, i) => {
                    let (rel, w) = self.eval_pf(i, &p.kids[0])?;
                    Ok(Rep::F {
                        rel: self.fs.rename(&rel, map)?,
                        w,
                    })
                }
                Query::Choice(attrs, i) => {
                    let (rel, w) = self.eval_pf(i, &p.kids[0])?;
                    let (rel, w) = self.fs.choice(&rel, attrs, &w)?;
                    Ok(Rep::F { rel, w })
                }
                Query::Poss(i) => {
                    let (rel, w) = self.eval_pf(i, &p.kids[0])?;
                    Ok(Rep::F {
                        rel: self.fs.poss(&rel, &w)?,
                        w,
                    })
                }
                Query::Cert(i) => {
                    let (rel, w) = self.eval_pf(i, &p.kids[0])?;
                    Ok(Rep::F {
                        rel: self.fs.cert(&rel, &w)?,
                        w,
                    })
                }
                Query::Product(a, b)
                | Query::Union(a, b)
                | Query::Intersect(a, b)
                | Query::Difference(a, b) => {
                    let (la, wa) = self.eval_pf(a, &p.kids[0])?;
                    let (lb, wb) = self.eval_pf(b, &p.kids[1])?;
                    let w = wa
                        .and_dnf(&wb, self.fs.doms(), self.fs.budget())
                        .ok_or(FactorError::Budget("binary validity product"))?;
                    let rel = match q {
                        Query::Product(_, _) => self.fs.product(&la, &lb)?,
                        Query::Union(_, _) => self.fs.union(&la, &lb)?,
                        Query::Intersect(_, _) => self.fs.intersect(&la, &lb)?,
                        _ => self.fs.difference(&la, &lb)?,
                    };
                    Ok(Rep::F { rel, w })
                }
                Query::PossGroup { .. }
                | Query::CertGroup { .. }
                | Query::RepairKey(_, _)
                | Query::Aggregate { .. }
                | Query::SemiJoin { .. } => {
                    unreachable!("planner never marks a decode boundary factored")
                }
            };
        }
        // Enumerated node with at least one factored descendant: evaluate
        // the children per plan, expand any factored branch here, apply
        // the reference operator.
        match q {
            Query::Rel(_) => Ok(Rep::E(crate::semantics::eval_worlds(q, self.ws)?)),
            Query::Select(pred, i) => {
                let input = self.child_worlds(i, &p.kids[0])?;
                Ok(Rep::E(dedup_worlds(apply_unary(&input, |r| {
                    r.select(pred)
                })?)))
            }
            Query::Project(attrs, i) => {
                let input = self.child_worlds(i, &p.kids[0])?;
                Ok(Rep::E(dedup_worlds(apply_unary(&input, |r| {
                    r.project(attrs)
                })?)))
            }
            Query::Rename(map, i) => {
                let input = self.child_worlds(i, &p.kids[0])?;
                Ok(Rep::E(dedup_worlds(apply_unary(&input, |r| {
                    r.rename(map)
                })?)))
            }
            Query::Choice(attrs, i) => {
                let input = self.child_worlds(i, &p.kids[0])?;
                Ok(Rep::E(dedup_worlds(apply_choice(&input, attrs)?)))
            }
            Query::Poss(i) => {
                let input = self.child_worlds(i, &p.kids[0])?;
                Ok(Rep::E(dedup_worlds(apply_grouped(
                    &input, None, None, true,
                )?)))
            }
            Query::Cert(i) => {
                let input = self.child_worlds(i, &p.kids[0])?;
                Ok(Rep::E(dedup_worlds(apply_grouped(
                    &input, None, None, false,
                )?)))
            }
            Query::PossGroup { group, proj, input } => {
                let worlds = self.child_worlds(input, &p.kids[0])?;
                Ok(Rep::E(dedup_worlds(apply_grouped(
                    &worlds,
                    Some(group),
                    Some(proj),
                    true,
                )?)))
            }
            Query::CertGroup { group, proj, input } => {
                let worlds = self.child_worlds(input, &p.kids[0])?;
                Ok(Rep::E(dedup_worlds(apply_grouped(
                    &worlds,
                    Some(group),
                    Some(proj),
                    false,
                )?)))
            }
            Query::RepairKey(key, i) => {
                let worlds = self.child_worlds(i, &p.kids[0])?;
                Ok(Rep::E(dedup_worlds(apply_repair(&worlds, key)?)))
            }
            Query::Aggregate { group, aggs, input } => {
                let worlds = self.child_worlds(input, &p.kids[0])?;
                Ok(Rep::E(dedup_worlds(apply_unary(&worlds, |r| {
                    r.aggregate(group, aggs)
                })?)))
            }
            Query::Product(a, b) => self.binary_p(a, b, p, Relation::product),
            Query::Union(a, b) => self.binary_p(a, b, p, Relation::union),
            Query::Intersect(a, b) => self.binary_p(a, b, p, Relation::intersect),
            Query::Difference(a, b) => self.binary_p(a, b, p, Relation::difference),
            Query::SemiJoin {
                on,
                anti,
                left,
                right,
            } => self.binary_p(left, right, p, |l, r| l.semijoin_on(r, on, *anti)),
        }
    }

    /// Evaluate a factored-plan child, destructuring the invariant that
    /// factored nodes only have factored children.
    fn eval_pf(&mut self, q: &Query, p: &RepPlan) -> FResult<(Relation, Dnf)> {
        match self.eval_p(q, p)? {
            Rep::F { rel, w } => Ok((rel, w)),
            Rep::E(_) => unreachable!("planner invariant: factored node with enumerated child"),
        }
    }

    /// Evaluate a child per plan and decode to explicit worlds (prefix
    /// relations + answer last, the input format of the `apply_*`
    /// helpers): the conversion site of an enumerated parent over a
    /// factored branch.
    fn child_worlds(&mut self, q: &Query, p: &RepPlan) -> FResult<Vec<World>> {
        match self.eval_p(q, p)? {
            Rep::E(worlds) => Ok(worlds),
            Rep::F { rel, w } => Ok(self.fs.expand_with(&w, Some(("Q", &rel)))?.worlds()),
        }
    }

    /// An enumerated binary node: `op` on each pair of operand worlds
    /// over the shared prefix.
    fn binary_p(
        &mut self,
        a: &Query,
        b: &Query,
        p: &RepPlan,
        op: impl Fn(&Relation, &Relation) -> Result<Relation>,
    ) -> FResult<Rep> {
        let left = self.child_worlds(a, &p.kids[0])?;
        let right = self.child_worlds(b, &p.kids[1])?;
        Ok(Rep::E(dedup_worlds(apply_binary(&left, &right, op)?)))
    }
}

/// Factorization pays only when the implicit world count dwarfs the
/// worlds an enumerated plan would actually touch: a node runs factored
/// when its subtree peak is at least `GAIN × (input + output worlds)`.
/// The margin absorbs the per-world constant advantage of the enumerated
/// kernels (no lineage column, no validity formula) and the decode cost
/// at the region boundary.
const GAIN: u128 = 8;

/// The representation a plan node runs in, as reported by `EXPLAIN`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RepCard {
    /// Factored: lineage-carrying relation + validity formula.
    F,
    /// Enumerated: explicit worlds, reference semantics.
    E,
    /// Factored *region root*: evaluates factored, expanded here for an
    /// enumerated consumer (the conversion site).
    Convert,
}

impl RepCard {
    /// The `EXPLAIN` token.
    pub fn label(self) -> &'static str {
        match self {
            RepCard::F => "F",
            RepCard::E => "E",
            RepCard::Convert => "convert",
        }
    }
}

/// Per-node representation plan for a query over a given world count:
/// one node per [`Query`] node (children in query order), each carrying
/// the cost-model estimates and the representation decision.
///
/// Built in two passes. Bottom-up, each node gets an *output world
/// estimate* `out` (worlds its result distinguishes: choices multiply by
/// the group count, `poss`/`cert` collapse back to the base count since
/// their answer is uniform across worlds, binaries pair operand worlds
/// over the shared prefix) and a subtree `peak`; its own cost rule fires
/// when the input world-set is non-empty, the subtree is decode-free,
/// contains a choice, and `peak ≥ max(FACTORIZE_MIN_WORLDS, GAIN·(input +
/// out))` ([`eval_factorized`]'s plan keeps only the first two tests).
/// Top-down finalization then assigns the actual mode: decode boundaries
/// (`pγ`/`cγ`/`repair-by-key`/`γ`/`⋉`/`▷`) are always enumerated, a
/// factored parent forces its whole subtree factored (an enumerated branch
/// cannot be re-encoded into the shared variable space), a binary under an
/// enumerated parent goes factored only when *both* operands' own rules
/// fire (otherwise each operand decides independently — the mixed plan),
/// and any other node under an enumerated parent follows its own rule.
#[derive(Clone, Debug)]
pub struct RepPlan {
    /// The decision, including conversion-site marking.
    pub card: RepCard,
    /// Estimated worlds distinguished by this node's output.
    pub out: u128,
    /// Maximum `out` across the subtree (the implicit-world estimate).
    pub peak: u128,
    /// Child plans, in query-children order.
    pub kids: Vec<RepPlan>,
    /// Evaluates factored.
    f: bool,
    /// This node's own cost rule (before top-down finalization).
    rule_f: bool,
    /// Subtree contains a `choice-of`.
    has_choice: bool,
    /// Subtree is free of decode boundaries.
    decode_free: bool,
    /// Entire subtree enumerated (wholesale delegation to the reference
    /// evaluator).
    all_e: bool,
}

impl RepPlan {
    /// Whether any node of the plan runs factored.
    pub fn any_f(&self) -> bool {
        !self.all_e
    }
}

struct Planner<'a> {
    ws: &'a WorldSet,
    /// Base world count of the input world-set (≥ 1).
    wc: u128,
    /// Drop the cost test: every decode-free node runs factored
    /// ([`eval_factorized`]).
    force: bool,
}

impl Planner<'_> {
    /// Bottom-up pass: estimates and per-node rules.
    fn build(&self, q: &Query) -> RepPlan {
        let kids: Vec<RepPlan> = q.children().into_iter().map(|i| self.build(i)).collect();
        let out = match q {
            Query::Rel(_) => self.wc,
            Query::Select(_, _)
            | Query::Project(_, _)
            | Query::Rename(_, _)
            | Query::Aggregate { .. } => kids[0].out,
            // poss/cert install one merged answer in every world: the
            // result distinguishes only the base prefixes again.
            Query::Poss(_) | Query::Cert(_) => self.wc,
            Query::PossGroup { .. } | Query::CertGroup { .. } => kids[0].out,
            Query::Choice(attrs, i) => kids[0].out.saturating_mul(self.group_estimate(attrs, i)),
            // Repairs multiply by the product of key-group sizes; without
            // per-group statistics use a small constant.
            Query::RepairKey(_, _) => kids[0].out.saturating_mul(4),
            // Binaries pair operand worlds over the shared base prefix:
            // operand-private splits multiply, the shared base count is
            // common to both sides.
            Query::Product(_, _)
            | Query::Union(_, _)
            | Query::Intersect(_, _)
            | Query::Difference(_, _)
            | Query::SemiJoin { .. } => kids[0]
                .out
                .saturating_mul(kids[1].out)
                .checked_div(self.wc)
                .unwrap_or(u128::MAX)
                .max(1),
        };
        let peak = kids.iter().map(|k| k.peak).fold(out, u128::max);
        let has_choice = matches!(q, Query::Choice(_, _)) || kids.iter().any(|k| k.has_choice);
        let decode_free = !is_decode_boundary(q) && kids.iter().all(|k| k.decode_free);
        let rule_f = !self.ws.is_empty()
            && decode_free
            && (self.force
                || has_choice
                    && peak
                        >= FACTORIZE_MIN_WORLDS
                            .max(GAIN.saturating_mul(self.wc.saturating_add(out))));
        RepPlan {
            card: RepCard::E,
            out,
            peak,
            kids,
            f: false,
            rule_f,
            has_choice,
            decode_free,
            all_e: true,
        }
    }

    /// Estimated number of `χ_U` groups: when the choice input resolves to
    /// a base relation through unary operators (renames map the
    /// `U`-attributes back to the base schema), the largest distinct count
    /// of the `U`-attributes in that relation's statistics (first world,
    /// capped by its row count); else a default of 4.
    fn group_estimate(&self, attrs: &[Attr], inner: &Query) -> u128 {
        const DEFAULT: u128 = 4;
        let mut cur = inner;
        let mut attrs: Vec<Attr> = attrs.to_vec();
        let name = loop {
            match cur {
                Query::Rel(n) => break n,
                Query::Select(_, i) | Query::Project(_, i) | Query::Choice(_, i) => cur = i,
                Query::Rename(map, i) => {
                    for a in &mut attrs {
                        if let Some((src, _)) = map.iter().find(|(_, dst)| dst == a) {
                            *a = src.clone();
                        }
                    }
                    cur = i;
                }
                _ => return DEFAULT,
            }
        };
        let distinct = || {
            let r = self.ws.iter().next()?.rel(self.ws.index_of(name)?);
            let stats = r.stats();
            let d = attrs
                .iter()
                .filter_map(|a| stats.distinct_of(r.schema(), a))
                .max()?;
            Some((d.min(stats.rows).max(1)) as u128)
        };
        distinct().unwrap_or(DEFAULT)
    }

    /// Top-down pass: assign modes and conversion sites (see the
    /// [`RepPlan`] docs for the rule).
    fn finalize(&self, p: &mut RepPlan, q: &Query, parent_f: bool) {
        let f = match q {
            _ if is_decode_boundary(q) => false,
            _ if parent_f => true,
            Query::Product(_, _)
            | Query::Union(_, _)
            | Query::Intersect(_, _)
            | Query::Difference(_, _) => p.kids[0].rule_f && p.kids[1].rule_f,
            _ => p.rule_f,
        };
        p.f = f;
        p.card = match (f, parent_f) {
            (true, true) => RepCard::F,
            (true, false) => RepCard::Convert,
            (false, _) => RepCard::E,
        };
        for (kid, i) in p.kids.iter_mut().zip(q.children()) {
            self.finalize(kid, i, f);
        }
        p.all_e = !p.f && p.kids.iter().all(|k| k.all_e);
    }
}

/// Whether `q`'s root always runs enumerated: grouping worlds, repairs,
/// aggregation and the semijoin/antijoin read answers the factorized
/// representation does not hold as relations.
fn is_decode_boundary(q: &Query) -> bool {
    matches!(
        q,
        Query::PossGroup { .. }
            | Query::CertGroup { .. }
            | Query::RepairKey(_, _)
            | Query::Aggregate { .. }
            | Query::SemiJoin { .. }
    )
}

/// Minimum estimated implicit world count before a node runs factored.
/// Below it, enumerated evaluation is cheap and avoids the expand step
/// entirely.
const FACTORIZE_MIN_WORLDS: u128 = 16;

/// Build the per-node representation plan for `q` over `ws`, using the
/// relation statistics for the group estimates.
pub fn plan_query(q: &Query, ws: &WorldSet) -> RepPlan {
    plan(q, ws, false)
}

/// [`plan_query`], or with `force` the plan of [`eval_factorized`].
fn plan(q: &Query, ws: &WorldSet, force: bool) -> RepPlan {
    let planner = Planner {
        ws,
        wc: (ws.len() as u128).max(1),
        force,
    };
    let mut plan = planner.build(q);
    planner.finalize(&mut plan, q, false);
    plan
}

/// Evaluate `q` strictly on the factorized path (no fallback): identical
/// output to [`crate::eval_named`] whenever it succeeds. Budget overflows
/// surface as [`FactorError::Budget`]. Every node with no decode boundary
/// at or below it runs factored regardless of cost (the
/// equivalence-testing entry); the cost-driven mixed plan is
/// [`plan_query`].
pub fn eval_factorized(q: &Query, ws: &WorldSet, out_name: &str) -> FResult<WorldSet> {
    eval_planned(q, ws, out_name, &plan(q, ws, true))
}

/// Collect the base relations read by the plan's factored regions:
/// the only tables the conversion needs to factorize. Enumerated regions
/// read the original world-set directly, so everything else rides through
/// unconverted (see [`FactoredSet::from_world_set_filtered`]).
fn factored_rels(q: &Query, p: &RepPlan, out: &mut std::collections::BTreeSet<String>) {
    if p.f {
        if let Query::Rel(name) = q {
            out.insert(name.clone());
        }
    }
    for (i, kid) in q.children().into_iter().zip(&p.kids) {
        factored_rels(i, kid, out);
    }
}

/// Evaluate `q` under an explicit [`RepPlan`] (see `Fx::eval_p`):
/// factored regions run succinct, enumerated regions run the reference
/// semantics, conversions happen exactly at the plan's `Convert` nodes.
/// Only the relations the factored regions actually read are converted —
/// the enumerated regions' inputs skip the factorization scan entirely.
/// No fallback: errors surface to the caller.
pub fn eval_planned(q: &Query, ws: &WorldSet, out_name: &str, plan: &RepPlan) -> FResult<WorldSet> {
    let mut needed = std::collections::BTreeSet::new();
    factored_rels(q, plan, &mut needed);
    let fs = FactoredSet::from_world_set_filtered(ws, &|name| needed.contains(name))?;
    let mut fx = Fx { fs, ws };
    match fx.eval_p(q, plan)? {
        Rep::F { rel, w } => fx.fs.expand_with(&w, Some((out_name, &rel))),
        Rep::E(worlds) => {
            let mut names = ws.rel_names().to_vec();
            names.push(out_name.to_string());
            Ok(WorldSet::from_worlds(names, worlds)?)
        }
    }
}

/// Evaluate `q`, choosing the representation *per operator*: the
/// [`RepPlan`] assigns each node factored or enumerated, and the mixed
/// evaluator converts at the plan's region boundaries. Transparent
/// fallback to the reference evaluator on *any* factorized error (the
/// enumerated result — or error — is authoritative). An all-enumerated
/// plan short-circuits to the reference evaluator directly.
pub fn eval_named_routed(q: &Query, ws: &WorldSet, out_name: &str) -> Result<WorldSet> {
    let plan = plan_query(q, ws);
    if plan.any_f() {
        if let Ok(out) = eval_planned(q, ws, out_name, &plan) {
            return Ok(out);
        }
    }
    crate::semantics::eval_named(q, ws, out_name)
}

/// Whether the planner routes any part of `q` to the factorized path: a
/// non-empty input and at least one node whose cost rule fires (subtree
/// peak at least `GAIN ×` the worlds an enumerated plan would touch, and
/// no smaller than `FACTORIZE_MIN_WORLDS`).
pub fn should_factorize(q: &Query, ws: &WorldSet) -> bool {
    plan_query(q, ws).any_f()
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

    fn single() -> WorldSet {
        WorldSet::single(vec![("Flights", flights())])
    }

    fn both(q: &Query, ws: &WorldSet) {
        let fact = eval_factorized(q, ws, "Q").expect("factorized path");
        let reference = crate::eval_named(q, ws, "Q").expect("enumerated path");
        assert_eq!(fact, reference);
    }

    #[test]
    fn factorized_matches_enumerated_on_core_shapes() {
        let ws = single();
        let dep = attrs(&["Dep"]);
        let arr = attrs(&["Arr"]);
        both(&Query::rel("Flights"), &ws);
        both(&Query::rel("Flights").choice(dep.clone()), &ws);
        both(
            &Query::rel("Flights")
                .choice(dep.clone())
                .project(arr.clone()),
            &ws,
        );
        both(
            &Query::rel("Flights")
                .choice(dep.clone())
                .project(arr.clone())
                .poss(),
            &ws,
        );
        both(
            &Query::rel("Flights")
                .choice(dep.clone())
                .project(arr.clone())
                .cert(),
            &ws,
        );
        both(
            &Query::rel("Flights")
                .choice(dep.clone())
                .choice(arr.clone()),
            &ws,
        );
    }

    #[test]
    fn factorized_matches_enumerated_on_binary_shapes() {
        let ws = single();
        let dep = attrs(&["Dep"]);
        let arr = attrs(&["Arr"]);
        // Independent choices on the two operands of a product.
        let left = Query::rel("Flights")
            .choice(dep.clone())
            .project(arr.clone());
        let right = Query::rel("Flights")
            .choice(dep.clone())
            .project(arr.clone())
            .rename(vec![("Arr".into(), "Arr2".into())]);
        both(&left.clone().product(right), &ws);
        // Difference against a choice.
        let q = Query::rel("Flights")
            .project(arr.clone())
            .difference(left.clone());
        both(&q, &ws);
        // Union and intersection.
        both(
            &left
                .clone()
                .union(Query::rel("Flights").project(arr.clone())),
            &ws,
        );
        both(
            &left
                .clone()
                .intersect(Query::rel("Flights").project(arr.clone())),
            &ws,
        );
    }

    #[test]
    fn decode_boundaries_match_enumerated() {
        let r = Relation::table(&["A", "B"], &[&[1i64, 2], &[2, 3], &[2, 4], &[3, 2]]);
        let ws = WorldSet::single(vec![("R", r)]);
        both(
            &Query::rel("R")
                .choice(attrs(&["A"]))
                .poss_group(attrs(&["B"]), attrs(&["A", "B"])),
            &ws,
        );
        both(
            &Query::rel("R")
                .choice(attrs(&["A"]))
                .cert_group(attrs(&["B"]), attrs(&["B"])),
            &ws,
        );
        both(&Query::rel("R").repair_by_key(attrs(&["A"])), &ws);
        // A choice *after* a decode boundary continues enumerated.
        both(
            &Query::rel("R")
                .repair_by_key(attrs(&["A"]))
                .choice(attrs(&["A"])),
            &ws,
        );
        // Aggregation and the semijoin/antijoin decode too.
        let sum = vec![relalg::AggCall::new(
            relalg::AggFn::Sum,
            Some("B".into()),
            "S".into(),
        )];
        for anti in [false, true] {
            let probed = Query::rel("R").choice(attrs(&["B"])).project(attrs(&["B"]));
            let on = vec![("A".into(), "B".into())];
            both(
                &Query::rel("R")
                    .choice(attrs(&["A"]))
                    .semijoin(probed, on, anti)
                    .aggregate(attrs(&["A"]), sum.clone())
                    .poss(),
                &ws,
            );
        }
    }

    #[test]
    fn aggregation_and_semijoins_run_enumerated_over_a_factored_region() {
        let ws = multi(4, 8);
        let sum = vec![relalg::AggCall::new(
            relalg::AggFn::Sum,
            Some("K".into()),
            "S".into(),
        )];
        let region = Query::rel("T").choice(attrs(&["K"]));
        let q = region
            .semijoin(Query::rel("M"), vec![], true)
            .aggregate(attrs(&["V"]), sum)
            .cert();
        let plan = plan_query(&q, &ws);
        assert_eq!(plan.kids[0].card, RepCard::E, "γ is enumerated");
        assert_eq!(plan.kids[0].kids[0].card, RepCard::E, "▷ is enumerated");
        let planned = eval_planned(&q, &ws, "Q", &plan).expect("planned path");
        assert_eq!(planned, crate::eval_named(&q, &ws, "Q").unwrap());
    }

    #[test]
    fn routed_equals_enumerated_and_falls_back() {
        let ws = single();
        let q = Query::rel("Flights")
            .choice(attrs(&["Dep"]))
            .project(attrs(&["Arr"]));
        assert_eq!(
            eval_named_routed(&q, &ws, "Q").unwrap(),
            crate::eval_named(&q, &ws, "Q").unwrap()
        );
        // Unknown table: routed must surface the enumerated error.
        let bad = Query::rel("Nope").choice(attrs(&["Dep"]));
        assert!(eval_named_routed(&bad, &ws, "Q").is_err());
    }

    /// A table with `n` distinct `K` values in one world.
    fn keyed(n: i64) -> WorldSet {
        let rows: Vec<Vec<i64>> = (0..n).map(|k| vec![k, k % 3]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        WorldSet::single(vec![("T", Relation::table(&["K", "V"], &refs))])
    }

    #[test]
    fn chooser_uses_stats_and_toggle() {
        let ws = single();
        let q3 = Query::rel("Flights").choice(attrs(&["Dep"]));
        // 1 world × 3 Dep groups.
        assert_eq!(plan_query(&q3, &ws).peak, 3);
        // Chained choices multiply: 3 Dep × 2 Arr.
        let q6 = Query::rel("Flights")
            .choice(attrs(&["Dep"]))
            .choice(attrs(&["Arr"]));
        assert_eq!(plan_query(&q6, &ws).peak, 6);
        assert!(!should_factorize(&q6, &ws), "6 < default threshold 16");
        // A query that *ends* in its widest choice gains nothing from
        // factorizing: every implicit world is decoded at the output
        // anyway, so the per-node rule keeps it enumerated.
        let q_big = q6.clone().choice(attrs(&["Dep"]));
        assert_eq!(plan_query(&q_big, &ws).peak, 18);
        assert!(
            !should_factorize(&q_big, &ws),
            "χ-ended query decodes its peak at the output"
        );
        // A cert-closed query collapses back to one world: 20 implicit
        // worlds never materialize, so the factored path pays.
        let kws = keyed(20);
        let q_cert = Query::rel("T")
            .choice(attrs(&["K"]))
            .project(attrs(&["V"]))
            .cert();
        assert_eq!(plan_query(&q_cert, &kws).peak, 20);
        assert!(should_factorize(&q_cert, &kws));
        // No choice node ⇒ never factorize.
        assert!(!should_factorize(&Query::rel("Flights"), &ws));
    }

    /// `wc` worlds sharing a `T` with `groups` distinct `K` values, told
    /// apart by a one-row marker table `M`.
    fn multi(wc: usize, groups: i64) -> WorldSet {
        let rows: Vec<Vec<i64>> = (0..groups).map(|k| vec![k, k % 3]).collect();
        let refs: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let t = Relation::table(&["K", "V"], &refs);
        let worlds: Vec<World> = (0..wc)
            .map(|i| World::new(vec![t.clone(), Relation::table(&["M"], &[&[i as i64]])]))
            .collect();
        WorldSet::from_worlds(vec!["T".to_string(), "M".to_string()], worlds).unwrap()
    }

    #[test]
    fn planner_builds_mixed_plans() {
        // 4 base worlds, 8 K-groups: a single-choice tail peaks at
        // 4×8 = 32 < GAIN·(4+4) = 64 (enumerated), while a union of two
        // choices squares the split — peak 4×8×3 = 96 ≥ 64 (factored).
        let ws = multi(4, 8);
        let op1 = Query::rel("T")
            .choice(attrs(&["K"]))
            .project(attrs(&["V"]))
            .union(Query::rel("T").choice(attrs(&["V"])).project(attrs(&["V"])))
            .cert();
        let op2 = Query::rel("T")
            .choice(attrs(&["K"]))
            .project(attrs(&["V"]))
            .poss();
        let q = op1.clone().intersect(op2.clone());
        let plan = plan_query(&q, &ws);
        assert_eq!(plan.card, RepCard::E, "mixed: the intersect pairs worlds");
        assert_eq!(
            plan.kids[0].card,
            RepCard::Convert,
            "cert region expands here"
        );
        assert_eq!(
            plan.kids[0].kids[0].card,
            RepCard::F,
            "union stays factored"
        );
        assert_eq!(plan.kids[1].card, RepCard::E, "poss tail stays enumerated");
        assert!(plan.kids[1].all_e);
        assert!(plan.any_f());
        // The mixed plan still matches the reference byte-for-byte.
        let planned = eval_planned(&q, &ws, "Q", &plan).expect("planned path");
        let reference = crate::eval_named(&q, &ws, "Q").expect("enumerated path");
        assert_eq!(planned, reference);
        // The poss-only query plans all-enumerated end-to-end (the
        // merge_poss parity fix: no conversion overhead at all).
        let plan2 = plan_query(&op2, &ws);
        assert!(!plan2.any_f());
        assert!(plan2.all_e);
        // The cert-closed query plans factored bottom-to-top.
        let plan1 = plan_query(&op1, &ws);
        assert_eq!(plan1.card, RepCard::Convert, "decoded at the output");
        assert_eq!(plan1.kids[0].card, RepCard::F);
        assert_eq!(
            plan1.kids[0].kids[0].kids[0].kids[0].card,
            RepCard::F,
            "Rel leaf"
        );
    }

    #[test]
    fn planned_matches_reference_on_forced_switches() {
        let ws = multi(4, 8);
        // Decode boundary above a factored region: the region converts,
        // the grouped tail runs enumerated.
        let region = Query::rel("T")
            .choice(attrs(&["K"]))
            .project(attrs(&["V"]))
            .union(Query::rel("T").choice(attrs(&["V"])).project(attrs(&["V"])))
            .cert();
        let q = region.cert_group(attrs(&["V"]), attrs(&["V"]));
        let plan = plan_query(&q, &ws);
        assert_eq!(plan.card, RepCard::E, "decode boundary is enumerated");
        assert_eq!(plan.kids[0].card, RepCard::Convert);
        let planned = eval_planned(&q, &ws, "Q", &plan).expect("planned path");
        let reference = crate::eval_named(&q, &ws, "Q").expect("enumerated path");
        assert_eq!(planned, reference);
    }
}
