//! Factorized world-set execution: the algebra over succinct
//! representations.
//!
//! A [`FactoredSet`] generalizes the x-tuple sketch of the `xtuple` module
//! into an executable representation: every table is an ordinary
//! [`Relation`] whose last column (`#lin`, [`LIN_ATTR`]) carries a
//! **lineage id** — an interned conjunction of `(variable, alternative-set)`
//! literals over a vector of finite **choice variables**. A tuple is
//! present in a world exactly when its lineage constraint is satisfied by
//! the world's variable assignment, and a world-set validity constraint
//! (a [`Dnf`] over the same variables) says which assignments denote
//! worlds at all. A set with variables of domain sizes `d₁,…,d_m` encodes
//! up to `∏ dᵢ` worlds in space proportional to the tuples, not the
//! worlds.
//!
//! Because lineage rides along as a plain extra column, the relational
//! operators execute **directly on the factorized form** through the
//! existing `relalg` kernels (vectorized selection, hash-deduplicating
//! projection, `partition_by` grouping): selection and projection keep the column,
//! product and intersection conjoin the two lineage columns — mutual
//! exclusion (`X=i ∧ X=j`) is detected at join time and the pair dropped —
//! and the world operators `χ_U`/`poss`/`cert` manipulate the constraint
//! side without touching tuples at all. Presence of a *value* is the
//! disjunction of the lineages of its tuples, so duplicate or overlapping
//! lineages are harmless under set semantics; difference expands the
//! required negation into a budget-bounded DNF.
//!
//! Explicit worlds only materialize at **decode boundaries** —
//! [`FactoredSet::expand`], used by `poss-group`/`cert-group`/
//! `repair-by-key` and final decoding — via one
//! [`Relation::partition_by_project`] pass per table followed by an
//! assignment enumeration that visits *only* the variables referenced by
//! tuple lineage (validity-only variables are checked for satisfiability,
//! never enumerated). Every budget overflow surfaces as
//! [`FactorError::Budget`], the signal for callers to fall back to the
//! enumerated evaluator; the representation never answers incorrectly, it
//! only declines.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use relalg::{Attr, Pred, RelalgError, Relation, RelationBuilder, Schema, Value};
use worldset::{World, WorldSet};

use crate::xtuple::Uldb;

/// Index of a choice variable in a [`FactoredSet`]'s domain vector.
pub type Var = u32;

/// Reserved name of the lineage column (kept last in every factored
/// table's schema).
pub const LIN_ATTR: &str = "#lin";

/// Second reserved lineage name, used transiently while computing products.
const LIN2_ATTR: &str = "#lin2";

/// Pool id of the always-true lineage constraint `⊤`.
pub const TOP: u32 = 0;

/// Effective maximum number of disjuncts in a world-validity [`Dnf`]
/// before the factorized path gives up ([`FactorError::Budget`]), for a
/// representation with `nvars` choice variables.
///
/// The base allowance is `WORLDS_BUDGET` (1024) and the effective budget is
/// **adaptive**: it scales with the variable count, because a formula over
/// more choice variables legitimately carries more disjuncts — a fixed cap
/// made deep choice chains fall back to enumeration even when each
/// conjunction site stayed small after compaction.
pub fn worlds_budget(nvars: usize) -> usize {
    WORLDS_BUDGET.saturating_mul(nvars / 4 + 1)
}

/// Base disjunct allowance of a world-validity [`Dnf`] per group of four
/// choice variables (see [`worlds_budget`]).
const WORLDS_BUDGET: usize = 1024;

/// Disjunct count below which [`Dnf`] compaction is not attempted (tiny
/// formulas are already cheap; the passes would only burn cycles).
const COMPACT_MIN: usize = 4;

/// Disjunct count above which the quadratic subsumption pass is skipped
/// (the budget is about to trip anyway).
const SUBSUME_MAX: usize = 2048;

/// Maximum number of conjuncts produced while expanding one tuple's
/// negated lineage in `difference`/`cert`.
const DIFF_BUDGET: usize = 256;

/// Maximum number of explicit worlds an [`FactoredSet::expand`] call will
/// enumerate.
const EXPAND_CAP: usize = 1 << 20;

/// Errors of the factorized path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FactorError {
    /// A representation budget was exceeded — the caller should fall back
    /// to enumerated evaluation (the factorized path declines, it never
    /// answers incorrectly).
    Budget(&'static str),
    /// A hard relational-algebra error; the enumerated path raises the
    /// equivalent error.
    Alg(RelalgError),
}

impl From<RelalgError> for FactorError {
    fn from(e: RelalgError) -> FactorError {
        FactorError::Alg(e)
    }
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::Budget(what) => write!(f, "factorization budget exceeded: {what}"),
            FactorError::Alg(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FactorError {}

/// Result type of the factorized path.
pub type FResult<T> = std::result::Result<T, FactorError>;

/// A set of alternatives of one variable, closed under complement without
/// materializing the domain: either `var ∈ items` (`neg = false`) or
/// `var ∉ items` (`neg = true`). `items` is sorted and duplicate-free.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AltSet {
    neg: bool,
    items: Arc<[u32]>,
}

impl AltSet {
    /// The singleton set `{a}`.
    pub fn one(a: u32) -> AltSet {
        AltSet {
            neg: false,
            items: Arc::from(vec![a]),
        }
    }

    /// The co-singleton set `≠ a`.
    pub fn not_one(a: u32) -> AltSet {
        AltSet {
            neg: true,
            items: Arc::from(vec![a]),
        }
    }

    fn from_sorted(neg: bool, items: Vec<u32>) -> AltSet {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        AltSet {
            neg,
            items: Arc::from(items),
        }
    }

    /// Membership test.
    pub fn contains(&self, a: u32) -> bool {
        self.items.binary_search(&a).is_ok() != self.neg
    }

    /// Number of members given the variable's domain size.
    fn width(&self, dom: usize) -> usize {
        if self.neg {
            dom.saturating_sub(self.items.len())
        } else {
            self.items.len()
        }
    }

    /// The complement set (flips the representation; zero-cost).
    fn complement(&self) -> AltSet {
        AltSet {
            neg: !self.neg,
            items: Arc::clone(&self.items),
        }
    }

    /// Whether every member of `self` is a member of `other`, given the
    /// variable's domain size.
    fn subset_of(&self, other: &AltSet, dom: usize) -> bool {
        if self.width(dom) > other.width(dom) {
            return false;
        }
        match (self.neg, other.neg) {
            (false, false) => self
                .items
                .iter()
                .all(|a| other.items.binary_search(a).is_ok()),
            (false, true) => self
                .items
                .iter()
                .all(|a| other.items.binary_search(a).is_err()),
            (true, true) => other
                .items
                .iter()
                .all(|a| self.items.binary_search(a).is_ok()),
            // `dom \ items ⊆ other.items`: walk the domain once. Rare
            // (a complemented literal against a positive one) and the
            // width guard above already filtered the common failures.
            (true, false) => (0..dom as u32).all(|a| {
                self.items.binary_search(&a).is_ok() || other.items.binary_search(&a).is_ok()
            }),
        }
    }

    /// Set union (unnormalized: may be full; literal construction
    /// normalizes against the domain size).
    fn union(&self, other: &AltSet) -> AltSet {
        self.complement()
            .intersect(&other.complement())
            .complement()
    }

    /// Set intersection (unnormalized: may be empty or full; literal
    /// construction normalizes against the domain size).
    fn intersect(&self, other: &AltSet) -> AltSet {
        match (self.neg, other.neg) {
            (false, false) => AltSet::from_sorted(
                false,
                self.items
                    .iter()
                    .filter(|a| other.items.binary_search(a).is_ok())
                    .copied()
                    .collect(),
            ),
            (false, true) => AltSet::from_sorted(
                false,
                self.items
                    .iter()
                    .filter(|a| other.items.binary_search(a).is_err())
                    .copied()
                    .collect(),
            ),
            (true, false) => other.intersect(self),
            (true, true) => {
                let mut merged: Vec<u32> = self
                    .items
                    .iter()
                    .chain(other.items.iter())
                    .copied()
                    .collect();
                merged.sort_unstable();
                merged.dedup();
                AltSet::from_sorted(true, merged)
            }
        }
    }
}

/// Normalization of one `(var, set)` literal against the domain size.
enum Lit {
    /// The literal is unsatisfiable (kills the whole conjunct).
    Unsat,
    /// The literal is trivially true (drop it).
    True,
    /// A proper literal.
    Keep(AltSet),
}

fn norm_lit(set: AltSet, dom: usize) -> Lit {
    match set.width(dom) {
        0 => Lit::Unsat,
        w if w >= dom => Lit::True,
        _ => Lit::Keep(set),
    }
}

/// A conjunction of per-variable alternative-set literals, sorted by
/// variable, each literal satisfiable and non-trivial. The empty
/// conjunction is `⊤`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Constraint {
    lits: Vec<(Var, AltSet)>,
}

impl Constraint {
    /// The always-true constraint.
    pub fn top() -> Constraint {
        Constraint::default()
    }

    /// Whether this is `⊤`.
    pub fn is_top(&self) -> bool {
        self.lits.is_empty()
    }

    /// The single-literal constraint `var ∈ set` (caller guarantees the
    /// set is satisfiable and non-trivial for the variable's domain).
    pub fn lit(var: Var, set: AltSet) -> Constraint {
        Constraint {
            lits: vec![(var, set)],
        }
    }

    /// The variables this constraint mentions.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.lits.iter().map(|(v, _)| *v)
    }

    /// Conjoin with a single literal; `None` when unsatisfiable.
    fn and_lit(&self, var: Var, set: &AltSet, doms: &[usize]) -> Option<Constraint> {
        let dom = doms[var as usize];
        let pos = self.lits.binary_search_by_key(&var, |(v, _)| *v);
        let mut lits = self.lits.clone();
        match pos {
            Err(i) => match norm_lit(set.clone(), dom) {
                Lit::Unsat => return None,
                Lit::True => {}
                Lit::Keep(s) => lits.insert(i, (var, s)),
            },
            Ok(i) => match norm_lit(lits[i].1.intersect(set), dom) {
                Lit::Unsat => return None,
                Lit::True => {
                    lits.remove(i);
                }
                Lit::Keep(s) => lits[i].1 = s,
            },
        }
        Some(Constraint { lits })
    }

    /// Conjunction of two constraints; `None` when unsatisfiable.
    pub fn conjoin(&self, other: &Constraint, doms: &[usize]) -> Option<Constraint> {
        if other.lits.len() > self.lits.len() {
            return other.conjoin(self, doms);
        }
        let mut out = self.clone();
        for (v, s) in &other.lits {
            out = out.and_lit(*v, s, doms)?;
        }
        Some(out)
    }

    /// Whether the conjunction with `other` is satisfiable (per-variable
    /// intersection check; no allocation of the result).
    pub fn consistent(&self, other: &Constraint, doms: &[usize]) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.lits.len() && j < other.lits.len() {
            let (va, sa) = &self.lits[i];
            let (vb, sb) = &other.lits[j];
            match va.cmp(vb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if sa.intersect(sb).width(doms[*va as usize]) == 0 {
                        return false;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        true
    }

    /// Whether the assignment (a value per variable, indexed through
    /// `pos_of`) satisfies every literal. Variables without a position are
    /// treated as unconstrained — callers must cover all mentioned
    /// variables.
    fn satisfied_by(&self, assign: &[u32], pos_of: &HashMap<Var, usize>) -> bool {
        self.lits.iter().all(|(v, s)| match pos_of.get(v) {
            Some(&p) => s.contains(assign[p]),
            None => true,
        })
    }

    /// Whether every model of `self` is a model of `other` (`self ⇒
    /// other`): for each of `other`'s literals, `self` must constrain the
    /// same variable at least as tightly. Literals are per-variable unary
    /// constraints, so this syntactic check is exact.
    fn implies(&self, other: &Constraint, doms: &[usize]) -> bool {
        let mut i = 0;
        for (vo, so) in &other.lits {
            while i < self.lits.len() && self.lits[i].0 < *vo {
                i += 1;
            }
            match self.lits.get(i) {
                Some((vs, ss)) if vs == vo => {
                    if !ss.subset_of(so, doms[*vo as usize]) {
                        return false;
                    }
                }
                // `self` leaves the variable unconstrained while `other`
                // restricts it (literals are non-trivial by construction).
                _ => return false,
            }
        }
        true
    }

    /// The complement as a disjunction of single-literal constraints
    /// (unsatisfiable complements dropped): `¬(∧ᵢ vᵢ∈Sᵢ) = ∨ᵢ vᵢ∉Sᵢ`.
    /// Empty for `⊤` (whose complement is unsatisfiable).
    fn complements(&self, doms: &[usize]) -> Vec<(Var, AltSet)> {
        self.lits
            .iter()
            .filter_map(|(v, s)| match norm_lit(s.complement(), doms[*v as usize]) {
                Lit::Keep(c) => Some((*v, c)),
                // `True` cannot arise: the literal was non-trivial.
                _ => None,
            })
            .collect()
    }
}

/// A disjunction of [`Constraint`]s — the world-validity formula. The
/// empty disjunction is unsatisfiable; a disjunct `⊤` makes the whole
/// formula `⊤`. Kept sorted and deduplicated.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Dnf {
    ds: Vec<Constraint>,
}

impl Dnf {
    /// The valid-everywhere formula.
    pub fn top() -> Dnf {
        Dnf {
            ds: vec![Constraint::top()],
        }
    }

    /// The unsatisfiable formula (no valid worlds).
    pub fn none() -> Dnf {
        Dnf { ds: vec![] }
    }

    /// Whether no assignment satisfies the formula.
    pub fn is_unsat(&self) -> bool {
        self.ds.is_empty()
    }

    /// Whether every assignment satisfies the formula.
    pub fn is_top(&self) -> bool {
        self.ds.iter().any(|c| c.is_top())
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.ds.len()
    }

    /// Whether the formula has no disjuncts (alias of [`Dnf::is_unsat`]).
    pub fn is_empty(&self) -> bool {
        self.ds.is_empty()
    }

    /// Canonicalize: sort, dedup, collapse to `⊤` if any disjunct is `⊤`.
    fn canon(mut ds: Vec<Constraint>) -> Dnf {
        if ds.iter().any(|c| c.is_top()) {
            return Dnf::top();
        }
        ds.sort_unstable();
        ds.dedup();
        Dnf { ds }
    }

    /// [`Dnf::canon`] plus **formula compaction** when the formula is big
    /// enough to pay: single-variable disjunct merging
    /// (`A∧v∈S₁ ∨ A∧v∈S₂ → A∧v∈S₁∪S₂`, dropping the literal entirely
    /// when the union covers the domain) and subsumption (a disjunct
    /// implied by another is redundant). Both passes preserve the *model
    /// set* of the formula exactly, so they are safe at every conjunction
    /// site — validity formulas included. Run incrementally here, they
    /// keep `pair_cert`-style validity formulas from growing
    /// superlinearly with the world count.
    fn canon_compact(ds: Vec<Constraint>, doms: &[usize]) -> Dnf {
        let d = Dnf::canon(ds);
        if d.ds.len() <= COMPACT_MIN {
            return d;
        }
        Dnf::canon(compact_disjuncts(d.ds, doms))
    }

    /// Existential projection onto the `keep` variables: drop every
    /// literal on a variable outside `keep`, then compact.
    ///
    /// The result is *satisfiability-equivalent* over the kept variables
    /// (`∃u.(∨ᵢ dᵢ) = ∨ᵢ ∃u.dᵢ`, and each dropped literal is
    /// independently satisfiable because literals are per-variable and
    /// non-trivial) — exactly what refutation checks and decode-time
    /// enumeration consume. It is **not** model-preserving over the full
    /// variable space: never store the result as a validity formula.
    fn project_onto(&self, keep: &BTreeSet<Var>, doms: &[usize]) -> Dnf {
        if self
            .ds
            .iter()
            .all(|d| d.lits.iter().all(|(v, _)| keep.contains(v)))
        {
            return self.clone();
        }
        Dnf::canon_compact(
            self.ds
                .iter()
                .map(|d| Constraint {
                    lits: d
                        .lits
                        .iter()
                        .filter(|(v, _)| keep.contains(v))
                        .cloned()
                        .collect(),
                })
                .collect(),
            doms,
        )
    }

    /// `self ∧ c`, distributing over the disjuncts.
    pub fn and_constraint(&self, c: &Constraint, doms: &[usize]) -> Dnf {
        if c.is_top() {
            return self.clone();
        }
        Dnf::canon_compact(
            self.ds.iter().filter_map(|d| d.conjoin(c, doms)).collect(),
            doms,
        )
    }

    /// `self ∧ other` (DNF product); `None` when the result exceeds
    /// `budget` disjuncts.
    pub fn and_dnf(&self, other: &Dnf, doms: &[usize], budget: usize) -> Option<Dnf> {
        if self.is_top() {
            return Some(other.clone());
        }
        if other.is_top() {
            return Some(self.clone());
        }
        let mut out = Vec::new();
        for a in &self.ds {
            for b in &other.ds {
                if let Some(c) = a.conjoin(b, doms) {
                    out.push(c);
                }
            }
            if out.len() > budget * 4 {
                return None;
            }
        }
        let d = Dnf::canon_compact(out, doms);
        (d.len() <= budget).then_some(d)
    }

    /// `self ∧ ¬c`; `None` when the result exceeds `budget` disjuncts.
    pub fn and_not(&self, c: &Constraint, doms: &[usize], budget: usize) -> Option<Dnf> {
        if c.is_top() {
            return Some(Dnf::none());
        }
        let comps = c.complements(doms);
        let mut out = Vec::new();
        for d in &self.ds {
            for (v, s) in &comps {
                if let Some(x) = d.and_lit(*v, s, doms) {
                    out.push(x);
                }
            }
            if out.len() > budget * 4 {
                return None;
            }
        }
        let d = Dnf::canon_compact(out, doms);
        (d.len() <= budget).then_some(d)
    }

    /// Whether some disjunct is consistent with `c` — i.e. whether `c`
    /// holds in at least one valid world.
    pub fn consistent_with(&self, c: &Constraint, doms: &[usize]) -> bool {
        self.ds.iter().any(|d| d.consistent(c, doms))
    }
}

/// Model-preserving DNF compaction: alternate single-variable disjunct
/// merging and subsumption to a (bounded) fixpoint. Deterministic — the
/// merge pass groups through a `BTreeMap` and ties in the subsumption
/// pass break toward the lower index — so a given formula always compacts
/// to the same shape.
fn compact_disjuncts(mut ds: Vec<Constraint>, doms: &[usize]) -> Vec<Constraint> {
    for _ in 0..4 {
        ds.sort_unstable();
        ds.dedup();
        let merged = merge_single_var(&mut ds, doms);
        let subsumed = subsume(&mut ds, doms);
        if !merged && !subsumed {
            break;
        }
    }
    ds
}

/// Merge disjuncts that are identical except for one variable's
/// alternative set: `A∧v∈S₁ ∨ A∧v∈S₂ → A∧v∈(S₁∪S₂)`; when the union
/// covers the domain the literal drops (possibly leaving `⊤`). Each
/// disjunct joins at most one merge group per pass (claimed in
/// deterministic key order).
fn merge_single_var(ds: &mut Vec<Constraint>, doms: &[usize]) -> bool {
    if ds.len() < 2 {
        return false;
    }
    let mut groups: BTreeMap<(Constraint, Var), Vec<usize>> = BTreeMap::new();
    for (idx, d) in ds.iter().enumerate() {
        for i in 0..d.lits.len() {
            let (v, _) = d.lits[i];
            let mut rest = d.lits.clone();
            rest.remove(i);
            groups
                .entry((Constraint { lits: rest }, v))
                .or_default()
                .push(idx);
        }
    }
    let mut dead = vec![false; ds.len()];
    let mut fresh: Vec<Constraint> = Vec::new();
    let mut changed = false;
    for ((rest, v), members) in groups {
        let live: Vec<usize> = members.into_iter().filter(|&i| !dead[i]).collect();
        if live.len() < 2 {
            continue;
        }
        let mut union: Option<AltSet> = None;
        for &i in &live {
            let pos = ds[i]
                .lits
                .binary_search_by_key(&v, |(x, _)| *x)
                .expect("grouped on a present literal");
            let s = &ds[i].lits[pos].1;
            union = Some(match union {
                None => s.clone(),
                Some(acc) => acc.union(s),
            });
        }
        let merged = match norm_lit(union.expect("non-empty group"), doms[v as usize]) {
            // The union covers the domain: the literal drops entirely.
            Lit::True => rest,
            Lit::Keep(s) => rest
                .and_lit(v, &s, doms)
                .expect("union of satisfiable sets is satisfiable"),
            Lit::Unsat => unreachable!("union of non-empty sets is non-empty"),
        };
        for &i in &live {
            dead[i] = true;
        }
        fresh.push(merged);
        changed = true;
    }
    if changed {
        let mut out: Vec<Constraint> = ds
            .iter()
            .enumerate()
            .filter(|(i, _)| !dead[*i])
            .map(|(_, d)| d.clone())
            .collect();
        out.extend(fresh);
        *ds = out;
    }
    changed
}

/// Drop disjuncts implied by another disjunct (their models are already
/// covered). Mutually-implied pairs — syntactically different but
/// equivalent — keep the lower index. Skipped above [`SUBSUME_MAX`]
/// disjuncts, where the quadratic pass would cost more than the budget
/// fallback it tries to prevent.
fn subsume(ds: &mut Vec<Constraint>, doms: &[usize]) -> bool {
    let n = ds.len();
    if !(2..=SUBSUME_MAX).contains(&n) {
        return false;
    }
    let mut dead = vec![false; n];
    let mut changed = false;
    for j in 0..n {
        if dead[j] {
            continue;
        }
        for i in 0..n {
            if i == j || dead[i] {
                continue;
            }
            if ds[j].implies(&ds[i], doms) && (i < j || !ds[i].implies(&ds[j], doms)) {
                dead[j] = true;
                changed = true;
                break;
            }
        }
    }
    if changed {
        let mut i = 0;
        ds.retain(|_| {
            let keep = !dead[i];
            i += 1;
            keep
        });
    }
    changed
}

/// Interning pool of lineage constraints. Id [`TOP`] is always `⊤`; ids
/// are dense and deterministic given the (sequential) interning order.
#[derive(Clone, Debug)]
struct Pool {
    list: Vec<Constraint>,
    index: HashMap<Constraint, u32>,
}

impl Pool {
    fn new() -> Pool {
        let top = Constraint::top();
        let mut index = HashMap::new();
        index.insert(top.clone(), TOP);
        Pool {
            list: vec![top],
            index,
        }
    }

    fn intern(&mut self, c: Constraint) -> u32 {
        if let Some(&id) = self.index.get(&c) {
            return id;
        }
        let id = self.list.len() as u32;
        self.list.push(c.clone());
        self.index.insert(c, id);
        id
    }

    fn get(&self, id: u32) -> &Constraint {
        &self.list[id as usize]
    }
}

/// A factorized world-set: named tables carrying a lineage column over a
/// vector of finite choice variables, plus a world-validity [`Dnf`].
///
/// See the module docs for the semantics. Operator methods take and
/// return lineage-carrying [`Relation`]s (the "answer" being computed) so
/// an evaluator can thread per-branch validity formulas explicitly; the
/// set itself only grows monotonically (variables and interned
/// constraints are never removed — unused ones are semantically inert).
#[derive(Clone, Debug)]
pub struct FactoredSet {
    names: Vec<String>,
    doms: Vec<usize>,
    pool: Pool,
    worlds: Dnf,
    tables: Vec<Relation>,
    /// Per-world originals of the tables of a set converted from a
    /// world-set ([`FactoredSet::from_world_set_filtered`]), aligned with
    /// `names` (`None` for a set built otherwise, e.g. from a ULDB).
    /// [`FactoredSet::expand_with`] splices the original relation back by
    /// the base-world variable's assignment instead of decoding the table.
    originals: Vec<Option<Vec<Arc<Relation>>>>,
    /// Relations excluded from factorization, aligned with `names`:
    /// [`FactoredSet::table`] reports them absent.
    skipped: Vec<bool>,
}

fn lin_attr() -> Attr {
    Attr::new(LIN_ATTR)
}

/// Schema of `data` with the lineage column appended. Rejects data
/// schemas that already use a reserved `#`-prefixed name.
fn lin_schema(data: &Schema) -> FResult<Schema> {
    if data.attrs().iter().any(|a| a.name().starts_with('#')) {
        return Err(FactorError::Budget("reserved '#' attribute in schema"));
    }
    let mut attrs = data.attrs().to_vec();
    attrs.push(lin_attr());
    Schema::try_new(attrs).ok_or(FactorError::Budget("reserved '#' attribute in schema"))
}

/// Append the row `data ++ ⟨lid⟩` to `rows`.
fn push_lin(rows: &mut RelationBuilder, data: &[Value], lid: u32) {
    rows.push_values(data.iter().copied().chain([Value::int(lid as i64)]));
}

fn lin_of(t: &[Value]) -> u32 {
    t[t.len() - 1].as_int().expect("lineage column holds ids") as u32
}

impl FactoredSet {
    /// Convert an enumerated world-set into factorized form: a single
    /// world becomes a variable-free set; `n ≥ 2` worlds become one
    /// variable of domain `n`. Identical rows are shared across worlds: a
    /// row present in the world subset `S` carries one lineage `X₀ ∈ S`
    /// (`⊤` when `S` is every world), so a table equal in all worlds
    /// stays a single untagged copy instead of `n` tagged ones.
    pub fn from_world_set(ws: &WorldSet) -> FResult<FactoredSet> {
        Self::from_world_set_filtered(ws, &|_| true)
    }

    /// [`FactoredSet::from_world_set`], but only relations with
    /// `keep(name)` are factorized (hashed across worlds and assigned
    /// lineage). The rest are carried as per-world originals: a mixed
    /// plan whose factored region touches a few small relations skips
    /// paying the conversion scan over large relations only its
    /// enumerated regions read. Skipped relations are invisible to
    /// [`FactoredSet::table`] but reappear — spliced from the originals —
    /// in every world [`FactoredSet::expand_with`] produces, so decode
    /// output is independent of the filter.
    pub fn from_world_set_filtered(
        ws: &WorldSet,
        keep: &dyn Fn(&str) -> bool,
    ) -> FResult<FactoredSet> {
        let names = ws.rel_names().to_vec();
        let mut pool = Pool::new();
        let worlds_vec = ws.worlds();
        if worlds_vec.is_empty() {
            return Ok(FactoredSet {
                names,
                doms: vec![],
                pool,
                worlds: Dnf::none(),
                tables: vec![],
                originals: vec![],
                skipped: vec![],
            });
        }
        let n = worlds_vec.len();
        let doms = if n == 1 { vec![] } else { vec![n] };
        let mut tables = Vec::with_capacity(names.len());
        let mut originals = Vec::with_capacity(names.len());
        let mut skipped = Vec::with_capacity(names.len());
        for (pos, name) in names.iter().enumerate() {
            let schema0 = worlds_vec[0].rel(pos).schema().clone();
            let schema = lin_schema(&schema0)?;
            originals.push(Some(
                worlds_vec
                    .iter()
                    .map(|w| w.rel_shared(pos).clone())
                    .collect(),
            ));
            skipped.push(!keep(name));
            if !keep(name) {
                tables.push(Relation::empty(schema));
                continue;
            }
            // Shared-relation fast path: when every world holds the same
            // `Arc` for this table (always so for a single world; prefix
            // relations untouched since the worlds split), every row is in
            // all worlds — tag them `⊤` in one pass instead of hashing
            // rows × worlds memberships.
            if worlds_vec
                .iter()
                .all(|w| Arc::ptr_eq(w.rel_shared(pos), worlds_vec[0].rel_shared(pos)))
            {
                let data = worlds_vec[0].rel(pos);
                let mut rows = RelationBuilder::with_capacity(schema, data.len());
                for t in data.iter() {
                    push_lin(&mut rows, t, TOP);
                }
                // Relation storage is sorted; appending the constant
                // lineage id keeps the order strict.
                tables.push(rows.finish_sorted());
                continue;
            }
            // Worlds containing each distinct row (ascending, distinct —
            // relations are sets and `i` increases). Keys borrow from the
            // worlds; rows are cloned once, at emission.
            let mut aligned: Vec<Relation> = Vec::new();
            for w in worlds_vec.iter() {
                let r = w.rel(pos);
                if r.schema().attrs() != schema0.attrs() {
                    aligned.push(r.project(schema0.attrs()).map_err(FactorError::from)?);
                }
            }
            let mut membership: BTreeMap<&[Value], Vec<u32>> = BTreeMap::new();
            let mut ai = 0usize;
            for (i, w) in worlds_vec.iter().enumerate() {
                let r = w.rel(pos);
                let r = if r.schema().attrs() == schema0.attrs() {
                    r
                } else {
                    ai += 1;
                    &aligned[ai - 1]
                };
                for t in r.iter() {
                    membership.entry(t).or_default().push(i as u32);
                }
            }
            let mut rows = RelationBuilder::with_capacity(schema, membership.len());
            for (t, in_worlds) in membership {
                let lid = if in_worlds.len() == n {
                    TOP
                } else {
                    pool.intern(Constraint::lit(0, AltSet::from_sorted(false, in_worlds)))
                };
                push_lin(&mut rows, t, lid);
            }
            // `membership` iterates in sorted data order and keys are
            // distinct, so the emitted rows are strictly sorted.
            tables.push(rows.finish_sorted());
        }
        Ok(FactoredSet {
            names,
            doms,
            pool,
            worlds: Dnf::top(),
            tables,
            originals,
            skipped,
        })
    }

    /// The table names, in world-set position order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The factored table registered under `name` (lineage column
    /// included). `None` for unknown names and for relations excluded by
    /// [`FactoredSet::from_world_set_filtered`] — skipped relations have
    /// no lineage and cannot be operated on in factored form.
    pub fn table(&self, name: &str) -> Option<&Relation> {
        self.names
            .iter()
            .position(|n| n == name)
            .filter(|&i| !self.skipped[i])
            .map(|i| &self.tables[i])
    }

    /// Domain sizes of the choice variables.
    pub fn doms(&self) -> &[usize] {
        &self.doms
    }

    /// The adaptive DNF budget for this set's current variable count
    /// (see [`worlds_budget`]).
    pub fn budget(&self) -> usize {
        worlds_budget(self.doms.len())
    }

    /// The base world-validity formula (before any per-branch extension).
    pub fn worlds(&self) -> &Dnf {
        &self.worlds
    }

    /// Upper bound on the number of worlds this set can encode: the
    /// product of the variable domains (saturating).
    pub fn implicit_world_count(&self) -> u128 {
        self.doms
            .iter()
            .fold(1u128, |acc, &d| acc.saturating_mul(d as u128))
    }

    /// Selection `σ_p` — the predicate sees only data columns; lineage
    /// rides along through the vectorized selection kernel.
    pub fn select(&self, rel: &Relation, pred: &Pred) -> FResult<Relation> {
        Ok(rel.select(pred)?)
    }

    /// Projection `π_attrs` — keeps the lineage column; tuples that merge
    /// on the projected values stay as separate rows per distinct lineage
    /// (presence is their disjunction).
    pub fn project(&self, rel: &Relation, attrs: &[Attr]) -> FResult<Relation> {
        let mut keep = attrs.to_vec();
        keep.push(lin_attr());
        Ok(rel.project(&keep)?)
    }

    /// Renaming `δ` of data attributes.
    pub fn rename(&self, rel: &Relation, map: &[(Attr, Attr)]) -> FResult<Relation> {
        Ok(rel.rename(map)?)
    }

    /// Union `∪`: concatenation — presence disjunction needs no lineage
    /// arithmetic at all.
    pub fn union(&self, a: &Relation, b: &Relation) -> FResult<Relation> {
        Ok(a.union(b)?)
    }

    /// Product `×`: pairs rows and conjoins their lineages; pairs whose
    /// lineages are mutually exclusive (e.g. `X=1 ∧ X=2`) are dropped at
    /// join time.
    pub fn product(&mut self, a: &Relation, b: &Relation) -> FResult<Relation> {
        let b2 = b.rename(&[(lin_attr(), Attr::new(LIN2_ATTR))])?;
        let prod = a.product(&b2)?;
        let arity = prod.schema().arity();
        let l1 = a.schema().arity() - 1;
        let l2 = arity - 1;
        let mut data_attrs: Vec<Attr> = Vec::with_capacity(arity - 2);
        for (i, at) in prod.schema().attrs().iter().enumerate() {
            if i != l1 && i != l2 {
                data_attrs.push(at.clone());
            }
        }
        let schema = lin_schema(&Schema::new(data_attrs))?;
        let mut memo: HashMap<(u32, u32), Option<u32>> = HashMap::new();
        let mut rows = RelationBuilder::with_capacity(schema, prod.len());
        for t in prod.iter() {
            let la = t[l1].as_int().expect("lineage id") as u32;
            let lb = t[l2].as_int().expect("lineage id") as u32;
            let combined = *memo.entry((la, lb)).or_insert_with(|| {
                self.pool
                    .get(la)
                    .conjoin(self.pool.get(lb), &self.doms)
                    .map(|c| self.pool.intern(c))
            });
            if let Some(lid) = combined {
                let data = t
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != l1 && i != l2)
                    .map(|(_, v)| *v);
                rows.push_values(data.chain([Value::int(lid as i64)]));
            }
        }
        Ok(rows.finish())
    }

    /// Intersection `∩`: for each value present on both sides, all
    /// consistent pairwise lineage conjunctions.
    pub fn intersect(&mut self, a: &Relation, b: &Relation) -> FResult<Relation> {
        let b = self.align(a, b)?;
        let mut rows = RelationBuilder::new(a.schema().clone());
        let mut memo: HashMap<(u32, u32), Option<u32>> = HashMap::new();
        for (data, la, lbs) in match_groups(a, &b) {
            for l1 in la {
                for l2 in lbs.iter().copied() {
                    let combined = *memo.entry((l1, l2)).or_insert_with(|| {
                        self.pool
                            .get(l1)
                            .conjoin(self.pool.get(l2), &self.doms)
                            .map(|c| self.pool.intern(c))
                    });
                    if let Some(lid) = combined {
                        push_lin(&mut rows, data, lid);
                    }
                }
            }
        }
        Ok(rows.finish())
    }

    /// Difference `−`: a value survives with lineage `L ∧ ¬L₁ ∧ … ∧ ¬L_s`
    /// over the matching right-side lineages, expanded into a
    /// budget-bounded DNF (one output row per conjunct).
    pub fn difference(&mut self, a: &Relation, b: &Relation) -> FResult<Relation> {
        let b = self.align(a, b)?;
        let mut rows = RelationBuilder::new(a.schema().clone());
        let mut groups: Vec<(Vec<Value>, Vec<u32>, Vec<u32>)> = Vec::new();
        for (data, la, lbs) in match_groups(a, &b) {
            groups.push((data.to_vec(), la, lbs));
        }
        for (data, la, mut lbs) in groups {
            lbs.sort_unstable();
            lbs.dedup();
            if lbs.is_empty() {
                for l in la {
                    push_lin(&mut rows, &data, l);
                }
                continue;
            }
            if lbs.contains(&TOP) {
                continue;
            }
            for l in la {
                let mut cur: Vec<Constraint> = vec![self.pool.get(l).clone()];
                for &lb in &lbs {
                    let comps = self.pool.get(lb).complements(&self.doms);
                    let mut next = Vec::new();
                    for c in &cur {
                        for (v, s) in &comps {
                            if let Some(x) = c.and_lit(*v, s, &self.doms) {
                                next.push(x);
                            }
                        }
                    }
                    // Compaction keeps the negation chain from blowing
                    // up row counts: the complements of successive
                    // lineages often re-merge into few disjuncts.
                    let next = Dnf::canon_compact(next, &self.doms).ds;
                    if next.len() > DIFF_BUDGET {
                        return Err(FactorError::Budget("difference negation"));
                    }
                    cur = next;
                    if cur.is_empty() {
                        break;
                    }
                }
                for c in cur {
                    let lid = self.pool.intern(c);
                    push_lin(&mut rows, &data, lid);
                }
            }
        }
        Ok(rows.finish())
    }

    /// Choice `χ_U` under the branch-validity formula `w`: allocates a
    /// fresh variable with one alternative per `U`-group (plus an
    /// "empty answer" alternative when the answer can be empty in some
    /// valid world), tags each tuple's lineage with its group and returns
    /// the extended validity formula.
    ///
    /// Fast path: when every group is present in every valid world (some
    /// tuple of the group has lineage `⊤`) and the answer can never be
    /// empty, the new variable is unconstrained and `w` is returned
    /// unchanged — chained choices over a complete database never grow
    /// the formula.
    pub fn choice(&mut self, rel: &Relation, u: &[Attr], w: &Dnf) -> FResult<(Relation, Dnf)> {
        let parts = rel.partition_by(u)?;
        if rel.is_empty() {
            // Choice-of on an empty answer keeps the (empty) answer in
            // every world.
            return Ok((rel.clone(), w.clone()));
        }
        // Distinct lineages of the whole answer, for the possibly-empty
        // analysis.
        let mut all_lins: BTreeSet<u32> = BTreeSet::new();
        for t in rel.iter() {
            all_lins.insert(lin_of(t));
        }
        let empty_dnf = if all_lins.contains(&TOP) {
            Dnf::none()
        } else {
            // Compact the lineage family first (see [`cert_covers`]):
            // per-world presence literals merge into a few set-valued
            // constraints, shortening the negation chain.
            let lcs = compact_disjuncts(
                all_lins.iter().map(|&l| self.pool.get(l).clone()).collect(),
                &self.doms,
            );
            let mut cur = w.clone();
            for c in &lcs {
                cur = cur
                    .and_not(c, &self.doms, self.budget())
                    .ok_or(FactorError::Budget("choice emptiness analysis"))?;
                if cur.is_unsat() {
                    break;
                }
            }
            cur
        };
        let possibly_empty = !empty_dnf.is_unsat();
        if parts.len() == 1 && !possibly_empty {
            // A single always-present group: every valid world keeps its
            // whole answer; no variable needed.
            return Ok((rel.clone(), w.clone()));
        }
        let dom = parts.len() + usize::from(possibly_empty);
        let x = self.doms.len() as Var;
        self.doms.push(dom);

        // Per-group presence lineages (deduplicated; `⊤` absorbs).
        let mut presence: Vec<Vec<u32>> = Vec::with_capacity(parts.len());
        for (_, part) in &parts {
            let mut lins: BTreeSet<u32> = BTreeSet::new();
            for t in part.iter() {
                lins.insert(lin_of(t));
            }
            if lins.contains(&TOP) {
                presence.push(vec![TOP]);
            } else {
                presence.push(lins.into_iter().collect());
            }
        }

        let all_certain = presence.iter().all(|p| p == &[TOP]);
        let new_w = if all_certain && !possibly_empty {
            // Every alternative of the fresh variable is valid wherever
            // `w` holds: the constraint `∨_g X=g` is a tautology over the
            // variable's domain, so `w` carries over unchanged.
            w.clone()
        } else {
            let mut ds: Vec<Constraint> = Vec::new();
            for (g, pres) in presence.iter().enumerate() {
                let x_is_g = Constraint::lit(x, AltSet::one(g as u32));
                // Compact each group's presence family before
                // distributing it over `w`: per-world literals merge
                // into a few set-valued constraints, so the validity
                // formula is built near its compacted size instead of
                // one disjunct per derivation.
                let pcs = compact_disjuncts(
                    pres.iter().map(|&l| self.pool.get(l).clone()).collect(),
                    &self.doms,
                );
                for c in &pcs {
                    let with_l = match c.conjoin(&x_is_g, &self.doms) {
                        Some(c) => c,
                        None => continue,
                    };
                    for d in w.and_constraint(&with_l, &self.doms).ds {
                        ds.push(d);
                    }
                    if ds.len() > self.budget() * 4 {
                        return Err(FactorError::Budget("choice validity formula"));
                    }
                }
            }
            if possibly_empty {
                let x_is_empty = Constraint::lit(x, AltSet::one(parts.len() as u32));
                for d in empty_dnf.and_constraint(&x_is_empty, &self.doms).ds {
                    ds.push(d);
                }
            }
            let d = Dnf::canon_compact(ds, &self.doms);
            if d.len() > self.budget() {
                return Err(FactorError::Budget("choice validity formula"));
            }
            d
        };

        // Tag each tuple with its group's alternative. The fresh
        // variable's id is larger than every id a lineage can mention,
        // so the conjunction is a plain literal append — no merge walk.
        let mut memo: HashMap<(u32, u32), u32> = HashMap::new();
        let mut rows = RelationBuilder::with_capacity(rel.schema().clone(), rel.len());
        for (g, (_, part)) in parts.iter().enumerate() {
            for t in part.iter() {
                let l = lin_of(t);
                let lid = *memo.entry((g as u32, l)).or_insert_with(|| {
                    let mut lits = self.pool.get(l).lits.clone();
                    lits.push((x, AltSet::one(g as u32)));
                    self.pool.intern(Constraint { lits })
                });
                push_lin(&mut rows, &t[..t.len() - 1], lid);
            }
        }
        Ok((rows.finish(), new_w))
    }

    /// `poss` under `w`: the values whose lineage holds in at least one
    /// valid world, with lineage `⊤` (the enumerated semantics installs
    /// the same merged answer in every world).
    pub fn poss(&self, rel: &Relation, w: &Dnf) -> FResult<Relation> {
        let mut memo: HashMap<u32, bool> = HashMap::new();
        let mut rows = RelationBuilder::new(rel.schema().clone());
        for t in rel.iter() {
            let l = lin_of(t);
            let possible = *memo
                .entry(l)
                .or_insert_with(|| w.consistent_with(self.pool.get(l), &self.doms));
            if possible {
                push_lin(&mut rows, &t[..t.len() - 1], TOP);
            }
        }
        Ok(rows.finish())
    }

    /// `cert` under `w`: the values present in *every* valid world —
    /// those whose lineage disjunction covers `w` (checked by
    /// budget-bounded refutation, memoized per distinct lineage set).
    pub fn cert(&self, rel: &Relation, w: &Dnf) -> FResult<Relation> {
        if w.is_unsat() {
            // No valid worlds: the expansion is the empty world-set and
            // the answer never materializes.
            return Ok(Relation::empty(rel.schema().clone()));
        }
        let mut memo: HashMap<Vec<u32>, bool> = HashMap::new();
        let mut rows = RelationBuilder::new(rel.schema().clone());
        for (data, la, _) in match_groups(rel, rel) {
            let mut lins: Vec<u32> = la.to_vec();
            lins.sort_unstable();
            lins.dedup();
            let certain = if lins.contains(&TOP) {
                true
            } else if let Some(&c) = memo.get(&lins) {
                c
            } else {
                let c = self.cert_covers(&lins, w)?;
                memo.insert(lins, c);
                c
            };
            if certain {
                push_lin(&mut rows, data, TOP);
            }
        }
        // `match_groups` yields distinct data values in ascending order
        // and the appended lineage is constant, so rows are sorted.
        Ok(rows.finish_sorted())
    }

    /// Does the disjunction of the lineages `lins` cover every valid
    /// world of `w`? `w ∧ ¬L₁ ∧ … ∧ ¬L_s` is unsatisfiable iff each
    /// `dᵢ ∧ ¬L₁ ∧ … ∧ ¬L_s` is for every disjunct `dᵢ` of `w` (the
    /// conjunction distributes over the disjunction), so the refutation
    /// runs disjunct-by-disjunct: intermediate formulas stay small and
    /// the first uncovered disjunct answers `false` immediately. `w` is
    /// first projected onto the variables the lineages mention —
    /// satisfiability against lineage-var formulas is preserved
    /// ([`Dnf::project_onto`]) and the compacted projection is usually
    /// far smaller than the full validity formula.
    fn cert_covers(&self, lins: &[u32], w: &Dnf) -> FResult<bool> {
        let budget = self.budget();
        let mut keep: BTreeSet<Var> = BTreeSet::new();
        for &l in lins {
            keep.extend(self.pool.get(l).vars());
        }
        let w = w.project_onto(&keep, &self.doms);
        // The lineage set is itself a DNF; compact it before refuting.
        // χ-produced lineages come in single-variable families
        // (`X=d ∧ Y=g` across `d`, say), which [`merge_single_var`]
        // collapses into one constraint each — the negation chain then
        // runs over a handful of merged constraints instead of one per
        // derivation. Model-preserving, so coverage is unchanged.
        let lcs = compact_disjuncts(
            lins.iter().map(|&l| self.pool.get(l).clone()).collect(),
            &self.doms,
        );
        'disjunct: for d in &w.ds {
            // Fast path: a single lineage constraint implied by the
            // disjunct covers it outright (every world of `d` satisfies
            // that lineage). This is the common case for χ-produced
            // lineages, whose per-(group, alternative) literals mirror
            // the validity disjuncts — it turns the quadratic negation
            // chain into a linear scan of cheap literal comparisons.
            if lcs.iter().any(|c| d.implies(c, &self.doms)) {
                continue 'disjunct;
            }
            let mut cur = Dnf {
                ds: vec![d.clone()],
            };
            for c in &lcs {
                // A lineage inconsistent with the disjunct excludes no
                // world of it: `cur ∧ ¬c = cur` since `cur ⊨ d ⊨ ¬c`.
                if !d.consistent(c, &self.doms) {
                    continue;
                }
                cur = cur
                    .and_not(c, &self.doms, budget)
                    .ok_or(FactorError::Budget("cert refutation"))?;
                if cur.is_unsat() {
                    continue 'disjunct;
                }
            }
            return Ok(false);
        }
        Ok(true)
    }

    /// Align `b`'s columns to `a`'s order (both lineage-carrying), with
    /// the enumerated path's schema-mismatch error parity.
    fn align(&self, a: &Relation, b: &Relation) -> FResult<Relation> {
        if a.schema().attrs() == b.schema().attrs() {
            return Ok(b.clone());
        }
        if !a.schema().same_attr_set(b.schema()) {
            return Err(RelalgError::SchemaMismatch {
                left: strip_lin(a.schema()),
                right: strip_lin(b.schema()),
            }
            .into());
        }
        Ok(b.project(a.schema().attrs())?)
    }

    /// Decode into an explicit [`WorldSet`], optionally appending an
    /// answer relation under `out_name`, under the validity formula `w`.
    ///
    /// A table converted from a world-set is spliced back from the input
    /// world it came from — the same `Arc`, so its epoch and statistics
    /// survive the decode. The answer (and any table without originals)
    /// is split once by lineage id
    /// ([`Relation::partition_by_project`], the fast decode path); then
    /// the assignments of the variables actually referenced by lineage
    /// are enumerated with validity pruning (validity-only variables are
    /// never enumerated) and each valid assignment assembles its world
    /// from the pre-split parts.
    pub fn expand_with(&self, w: &Dnf, answer: Option<(&str, &Relation)>) -> FResult<WorldSet> {
        let mut names = self.names.clone();
        let mut rels: Vec<(&Relation, Option<&[Arc<Relation>]>)> = self
            .tables
            .iter()
            .zip(&self.originals)
            .map(|(t, orig)| (t, orig.as_deref()))
            .collect();
        if let Some((n, r)) = answer {
            names.push(n.to_string());
            rels.push((r, None));
        }
        if w.is_unsat() {
            return Ok(WorldSet::empty(names));
        }

        // Split the answer and every table without originals by lineage
        // id, once. The other tables contribute their per-world originals
        // directly at assembly time.
        enum Src<'a> {
            Split {
                schema: Schema,
                parts: Vec<(&'a Constraint, Arc<Relation>)>,
            },
            Orig(&'a [Arc<Relation>]),
        }
        let mut split: Vec<Src> = Vec::with_capacity(rels.len());
        let mut content: BTreeSet<Var> = BTreeSet::new();
        for &(r, orig) in &rels {
            if let Some(orig) = orig {
                split.push(Src::Orig(orig));
                continue;
            }
            let data: Vec<Attr> = r.schema().attrs()[..r.schema().arity() - 1].to_vec();
            let schema = Schema::new(data.clone());
            let parts = r
                .partition_by_project(&[lin_attr()], &data)?
                .into_iter()
                .map(|(key, part)| {
                    let id = key[0].as_int().expect("lineage id") as u32;
                    let c = self.pool.get(id);
                    content.extend(c.vars());
                    (c, Arc::new(part))
                })
                .collect();
            split.push(Src::Split { schema, parts });
        }
        // A table that differs across base worlds forces the base-world
        // variable (always variable 0 in a set built by
        // `from_world_set_filtered`) into the enumeration: the worlds it
        // distinguishes must not merge, or the splice would be ambiguous.
        let varies = rels.iter().any(|&(_, orig)| {
            orig.is_some_and(|orig| {
                orig.windows(2)
                    .any(|p| !Arc::ptr_eq(&p[0], &p[1]) && p[0] != p[1])
            })
        });
        if varies {
            content.insert(0);
        }
        // Project the validity formula onto the content variables:
        // validity-only literals are existentially satisfiable per
        // disjunct, so the projection prunes exactly the same branches
        // while the compacted result gives the enumeration fewer
        // disjuncts to test at each level.
        let wp = w.project_onto(&content, &self.doms);
        let content: Vec<Var> = content.into_iter().collect();
        let pos_of: HashMap<Var, usize> =
            content.iter().enumerate().map(|(i, &v)| (v, i)).collect();

        // Enumerate assignments of the content variables, pruning by the
        // validity formula: a branch survives while some disjunct is
        // consistent with the partial assignment.
        let mut assigns: Vec<Vec<u32>> = Vec::new();
        let mut stack: Vec<u32> = Vec::with_capacity(content.len());
        let alive: Vec<&Constraint> = wp.ds.iter().collect();
        self.enumerate(&content, &mut stack, &alive, &mut assigns)?;

        // Assemble one world per valid assignment (the world-set
        // constructor deduplicates).
        let assemble = |assign: &Vec<u32>| -> relalg::Result<World> {
            let rels: Vec<Arc<Relation>> = split
                .iter()
                .map(|src| {
                    let Src::Split { schema, parts } = src else {
                        let Src::Orig(orig) = src else { unreachable!() };
                        let i = pos_of
                            .get(&0)
                            .map(|&p| assign[p] as usize)
                            .filter(|_| orig.len() > 1)
                            .unwrap_or(0);
                        return Ok(orig[i].clone());
                    };
                    let live: Vec<&Arc<Relation>> = parts
                        .iter()
                        .filter(|(c, _)| c.satisfied_by(assign, &pos_of))
                        .map(|(_, part)| part)
                        .collect();
                    match live.len() {
                        0 => Ok(Arc::new(Relation::empty(schema.clone()))),
                        1 => Ok(live[0].clone()),
                        _ => Ok(Arc::new(Relation::from_rows(
                            schema.clone(),
                            live.iter().flat_map(|r| r.iter().cloned()),
                        )?)),
                    }
                })
                .collect::<relalg::Result<_>>()?;
            Ok(World::from_shared(rels))
        };
        let worlds: Vec<World> = assigns
            .iter()
            .map(assemble)
            .collect::<relalg::Result<_>>()?;
        Ok(WorldSet::from_worlds(names, worlds)?)
    }

    /// [`FactoredSet::expand_with`] under the base validity formula,
    /// tables only.
    pub fn expand(&self) -> FResult<WorldSet> {
        self.expand_with(&self.worlds, None)
    }

    fn enumerate(
        &self,
        content: &[Var],
        stack: &mut Vec<u32>,
        alive: &[&Constraint],
        out: &mut Vec<Vec<u32>>,
    ) -> FResult<()> {
        if alive.is_empty() {
            return Ok(());
        }
        let depth = stack.len();
        if depth == content.len() {
            if out.len() >= EXPAND_CAP {
                return Err(FactorError::Budget("world expansion"));
            }
            out.push(stack.clone());
            return Ok(());
        }
        let var = content[depth];
        for val in 0..self.doms[var as usize] as u32 {
            stack.push(val);
            let next: Vec<&Constraint> = alive
                .iter()
                .filter(|c| {
                    c.lits
                        .binary_search_by_key(&var, |(v, _)| *v)
                        .map(|i| c.lits[i].1.contains(val))
                        .unwrap_or(true)
                })
                .copied()
                .collect();
            self.enumerate(content, stack, &next, out)?;
            stack.pop();
        }
        Ok(())
    }
}

/// Walk two lineage-carrying relations (sorted by data prefix, lineage
/// last) and yield, per distinct data value of `a`, the lineage ids on
/// each side. `b` must already be column-aligned with `a`.
fn match_groups<'a>(
    a: &'a Relation,
    b: &'a Relation,
) -> impl Iterator<Item = (&'a [Value], Vec<u32>, Vec<u32>)> {
    let mut at = a.iter().peekable();
    let mut bt = b.iter().peekable();
    std::iter::from_fn(move || {
        let first = *at.peek()?;
        let key: &[Value] = &first[..first.len() - 1];
        let la = std::iter::from_fn(|| at.next_if(|t| t.starts_with(key)))
            .map(lin_of)
            .collect();
        // Advance b to the group (both sides sorted by data prefix).
        while bt.next_if(|t| t[..key.len()] < *key).is_some() {}
        let lb = std::iter::from_fn(|| bt.next_if(|t| t.starts_with(key)))
            .map(lin_of)
            .collect();
        Some((key, la, lb))
    })
}

fn strip_lin(s: &Schema) -> Schema {
    Schema::new(s.attrs()[..s.arity() - 1].to_vec())
}

impl Uldb {
    /// Convert this ULDB into factorized form: one variable per external
    /// x-tuple (its alternatives) and one per x-tuple that is not fully
    /// determined (its alternatives plus an "absent" slot), with the
    /// validity formula enforcing the `rep()` rules — an alternative is
    /// choosable only where its lineage holds, and absence only for
    /// `maybe` x-tuples or where no alternative's lineage holds.
    ///
    /// The per-tuple validity terms multiply into the DNF, so densely
    /// lineage-connected ULDBs can exceed the budget
    /// ([`FactorError::Budget`]); `rep()` remains the fallback.
    pub fn to_factored(&self) -> FResult<FactoredSet> {
        let names = vec!["R".to_string()];
        let mut pool = Pool::new();
        let schema = lin_schema(&self.schema)?;
        if self.externals.iter().any(|(_, n)| *n == 0) {
            // An external with no alternatives admits no assignment at
            // all: rep() is the empty world-set.
            return Ok(FactoredSet {
                names,
                doms: vec![],
                pool,
                worlds: Dnf::none(),
                tables: vec![Relation::empty(schema)],
                originals: vec![None],
                skipped: vec![false],
            });
        }
        let mut doms: Vec<usize> = Vec::new();
        let mut ext_var: BTreeMap<&str, Var> = BTreeMap::new();
        for (id, n) in &self.externals {
            ext_var.insert(id.as_str(), doms.len() as Var);
            doms.push(*n);
        }
        let mut w = Dnf::top();
        let mut rows = RelationBuilder::new(schema);
        // An alternative of another arity is an error, as `from_rows`
        // reports it.
        let mut push = |values: &[Value], lid: u32| {
            rows.try_push(
                values
                    .iter()
                    .copied()
                    .chain([Value::int(lid as i64)])
                    .collect::<Vec<_>>(),
            )
        };
        for t in &self.tuples {
            // Lineage constraint per alternative; `None` when the lineage
            // can never hold (unknown external, out-of-range alternative,
            // or two different alternatives of one external).
            let alt_cons: Vec<Option<Constraint>> = t
                .alternatives
                .iter()
                .map(|alt| {
                    let mut c = Constraint::top();
                    for (id, i) in &alt.lineage {
                        let &v = ext_var.get(id.as_str())?;
                        if *i >= doms[v as usize] {
                            return None;
                        }
                        c = c.and_lit(v, &AltSet::one(*i as u32), &doms)?;
                    }
                    Some(c)
                })
                .collect();
            if !t.maybe
                && t.alternatives.len() == 1
                && alt_cons[0].as_ref().is_some_and(|c| c.is_top())
            {
                // Fully determined: present in every world, no variable.
                push(&t.alternatives[0].values, TOP)?;
                continue;
            }
            let k = t.alternatives.len();
            let x = doms.len() as Var;
            doms.push(k + 1); // alternatives 0..k, absent = k
            let mut term: Vec<Constraint> = Vec::new();
            for (i, c) in alt_cons.iter().enumerate() {
                let Some(c) = c else { continue };
                let tagged = c
                    .conjoin(&Constraint::lit(x, AltSet::one(i as u32)), &doms)
                    .expect("fresh variable cannot conflict");
                push(&t.alternatives[i].values, pool.intern(tagged.clone()))?;
                term.push(tagged);
            }
            let absent = Constraint::lit(x, AltSet::one(k as u32));
            if t.maybe {
                term.push(absent);
            } else {
                // Absence is valid exactly where no alternative's lineage
                // holds.
                let mut cur = Dnf { ds: vec![absent] };
                for c in alt_cons.iter().flatten() {
                    cur = cur
                        .and_not(c, &doms, worlds_budget(doms.len()))
                        .ok_or(FactorError::Budget("uldb absence analysis"))?;
                    if cur.is_unsat() {
                        break;
                    }
                }
                term.extend(cur.ds);
            }
            w = w
                .and_dnf(
                    &Dnf::canon_compact(term, &doms),
                    &doms,
                    worlds_budget(doms.len()),
                )
                .ok_or(FactorError::Budget("uldb validity formula"))?;
        }
        let table = rows.finish();
        Ok(FactoredSet {
            names,
            doms,
            pool,
            worlds: w,
            tables: vec![table],
            originals: vec![None],
            skipped: vec![false],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn altset_intersections_normalize() {
        let doms = [4usize];
        let a = Constraint::lit(0, AltSet::one(1));
        let b = Constraint::lit(0, AltSet::one(2));
        assert!(a.conjoin(&b, &doms).is_none(), "mutual exclusion");
        assert!(a.conjoin(&a, &doms).is_some());
        let n = Constraint::lit(0, AltSet::not_one(1));
        assert!(a.conjoin(&n, &doms).is_none());
        assert!(b.conjoin(&n, &doms).is_some());
    }

    #[test]
    fn dnf_and_not_refutes() {
        let doms = [2usize];
        let l0 = Constraint::lit(0, AltSet::one(0));
        let l1 = Constraint::lit(0, AltSet::one(1));
        let w = Dnf::top();
        let no0 = w.and_not(&l0, &doms, 16).unwrap();
        assert!(!no0.is_unsat());
        let neither = no0.and_not(&l1, &doms, 16).unwrap();
        assert!(neither.is_unsat(), "X=0 or X=1 is a tautology on dom 2");
    }

    #[test]
    fn roundtrip_single_world() {
        let ws = single();
        let fs = FactoredSet::from_world_set(&ws).unwrap();
        assert_eq!(fs.implicit_world_count(), 1);
        assert_eq!(fs.expand().unwrap(), ws);
    }

    #[test]
    fn roundtrip_multi_world() {
        let q = wsa_choice();
        let ws = wsa::eval_named(&q, &single(), "Q").unwrap();
        let fs = FactoredSet::from_world_set(&ws).unwrap();
        assert_eq!(fs.implicit_world_count(), 3);
        assert_eq!(fs.expand().unwrap(), ws);
    }

    fn wsa_choice() -> wsa::Query {
        wsa::Query::rel("Flights").choice(relalg::attrs(&["Dep"]))
    }

    #[test]
    fn filtered_conversion_splices_skipped_relations() {
        let q = wsa_choice();
        let ws = wsa::eval_named(&q, &single(), "Q").unwrap();
        // Keep only the world-varying answer "Q": the uniform "Flights"
        // rides through unconverted and is spliced back at expansion.
        let fs = FactoredSet::from_world_set_filtered(&ws, &|n| n == "Q").unwrap();
        assert!(fs.table("Q").is_some());
        assert!(
            fs.table("Flights").is_none(),
            "skipped tables are not operable"
        );
        assert_eq!(fs.expand().unwrap(), ws);
        // Keep only the uniform "Flights": the skipped "Q" *varies* per
        // world, so expansion must enumerate the base-world variable and
        // splice the matching original instead of merging worlds.
        let fs2 = FactoredSet::from_world_set_filtered(&ws, &|n| n == "Flights").unwrap();
        assert_eq!(fs2.expand().unwrap(), ws);
        // Degenerate filter: nothing factorized — the world-set must
        // still round-trip from the originals alone.
        let none = FactoredSet::from_world_set_filtered(&ws, &|_| false).unwrap();
        assert_eq!(none.expand().unwrap(), ws);
    }

    #[test]
    fn decode_splices_the_input_relations() {
        // One world: the decode hands back the very `Arc` it was given.
        let ws = single();
        let mut fs = FactoredSet::from_world_set(&ws).unwrap();
        let rel = fs.table("Flights").unwrap().clone();
        let w = fs.worlds().clone();
        let (ans, w2) = fs.choice(&rel, &relalg::attrs(&["Dep"]), &w).unwrap();
        let expanded = fs.expand_with(&w2, Some(("Q", &ans))).unwrap();
        assert_eq!(expanded, wsa::eval_named(&wsa_choice(), &ws, "Q").unwrap());
        let flights = ws.the_world().unwrap().rel_shared(0);
        assert!(expanded
            .iter()
            .all(|w| Arc::ptr_eq(w.rel_shared(0), flights)));
        // Many worlds: each world gets its own originals back.
        let fs = FactoredSet::from_world_set(&expanded).unwrap();
        let back = fs.expand().unwrap();
        assert_eq!(back, expanded);
        for (a, b) in back.iter().zip(expanded.iter()) {
            assert!(a
                .rels()
                .iter()
                .zip(b.rels())
                .all(|(x, y)| Arc::ptr_eq(x, y)));
        }
    }

    #[test]
    fn choice_fast_path_leaves_worlds_top() {
        let ws = single();
        let mut fs = FactoredSet::from_world_set(&ws).unwrap();
        let rel = fs.table("Flights").unwrap().clone();
        let w = fs.worlds().clone();
        let (ans, w2) = fs.choice(&rel, &relalg::attrs(&["Dep"]), &w).unwrap();
        assert!(w2.is_top(), "complete database: validity stays ⊤");
        assert_eq!(fs.doms(), &[3]);
        assert_eq!(ans.len(), 5, "every tuple tagged, none dropped");
        // Expanding with the answer yields the enumerated choice result.
        let expanded = fs.expand_with(&w2, Some(("Q", &ans))).unwrap();
        let reference = wsa::eval_named(&wsa_choice(), &ws, "Q").unwrap();
        assert_eq!(expanded, reference);
    }

    #[test]
    fn chained_choices_multiply_domains_not_formula() {
        let ws = single();
        let mut fs = FactoredSet::from_world_set(&ws).unwrap();
        let rel = fs.table("Flights").unwrap().clone();
        let w = fs.worlds().clone();
        let (a1, w1) = fs.choice(&rel, &relalg::attrs(&["Dep"]), &w).unwrap();
        let (_a2, w2) = fs.choice(&a1, &relalg::attrs(&["Arr"]), &w1).unwrap();
        // Pre-compaction: one disjunct per (Arr group, Dep lineage) pair
        // — ATL reachable from all three Deps, BCN from two, 5 in total
        // (linear in the data, not in the 6 = 3×2 implicit worlds).
        // Compaction then merges ATL's three `X=i ∧ Y=ATL` disjuncts: the
        // union of the X-sets covers the domain, the literal drops, and
        // `Y=ATL` alone remains next to `X∈{...} ∧ Y=BCN`.
        assert_eq!(w2.len(), 2);
        assert_eq!(fs.doms().len(), 2);
    }

    #[test]
    fn poss_and_cert_match_enumerated() {
        let ws = single();
        let mut fs = FactoredSet::from_world_set(&ws).unwrap();
        let rel = fs.table("Flights").unwrap().clone();
        let w = fs.worlds().clone();
        let (chosen, w1) = fs.choice(&rel, &relalg::attrs(&["Dep"]), &w).unwrap();
        let arr = fs.project(&chosen, &relalg::attrs(&["Arr"])).unwrap();
        let p = fs.poss(&arr, &w1).unwrap();
        assert_eq!(p.len(), 2, "poss: ATL and BCN");
        let c = fs.cert(&arr, &w1).unwrap();
        assert_eq!(c.len(), 1, "cert: only ATL");
    }

    #[test]
    fn product_checks_mutual_exclusion() {
        let ws = single();
        let mut fs = FactoredSet::from_world_set(&ws).unwrap();
        let rel = fs.table("Flights").unwrap().clone();
        let w = fs.worlds().clone();
        let (chosen, _w1) = fs.choice(&rel, &relalg::attrs(&["Dep"]), &w).unwrap();
        let left = fs.project(&chosen, &relalg::attrs(&["Arr"])).unwrap();
        let right = fs
            .rename(&left, &[(Attr::new("Arr"), Attr::new("Arr2"))])
            .unwrap();
        let prod = fs.product(&left, &right).unwrap();
        // Same variable on both sides: only same-alternative pairs
        // survive (X=i ∧ X=j is dropped at join time), so every row's
        // lineage pins the shared choice variable.
        for t in prod.iter() {
            let lid = lin_of(t);
            assert!(!fs.pool.get(lid).is_top());
        }
        // Reusing `chosen` on both sides correlates the choices: the
        // expansion has one world per Dep group, each squaring its own
        // Arr set — never a cross-group (ATL-only × BCN-ish) mix.
        let expanded = fs.expand_with(&_w1, Some(("Q", &prod))).unwrap();
        assert!(expanded.len() <= 3);
    }

    #[test]
    fn difference_expands_negation() {
        let ws = single();
        let mut fs = FactoredSet::from_world_set(&ws).unwrap();
        let rel = fs.table("Flights").unwrap().clone();
        let w = fs.worlds().clone();
        let (chosen, w1) = fs.choice(&rel, &relalg::attrs(&["Dep"]), &w).unwrap();
        let all = fs.project(&rel, &relalg::attrs(&["Arr"])).unwrap();
        let some = fs.project(&chosen, &relalg::attrs(&["Arr"])).unwrap();
        let diff = fs.difference(&all, &some).unwrap();
        let expanded = fs.expand_with(&w1, Some(("Q", &diff))).unwrap();
        // Enumerated reference: π_Arr(Flights) − π_Arr(χ_Dep(Flights)).
        let q = wsa::Query::rel("Flights")
            .project(relalg::attrs(&["Arr"]))
            .difference(
                wsa::Query::rel("Flights")
                    .choice(relalg::attrs(&["Dep"]))
                    .project(relalg::attrs(&["Arr"])),
            );
        let reference = wsa::eval_named(&q, &ws, "Q").unwrap();
        assert_eq!(expanded, reference);
    }

    #[test]
    fn empty_world_set_roundtrip() {
        let ws = WorldSet::empty(vec!["R".to_string()]);
        let fs = FactoredSet::from_world_set(&ws).unwrap();
        assert!(fs.worlds().is_unsat());
        assert_eq!(fs.expand().unwrap(), ws);
    }

    #[test]
    fn uldb_to_factored_matches_rep() {
        use crate::xtuple::{Alternative, XTuple};
        // U1 of Remark 4.6.
        let u1 = Uldb {
            schema: Schema::of(&["A"]),
            tuples: vec![XTuple {
                id: "t1".into(),
                maybe: true,
                alternatives: vec![
                    Alternative::new(vec![Value::int(1)]),
                    Alternative::new(vec![Value::int(2)]),
                ],
            }],
            externals: vec![],
        };
        let fs = u1.to_factored().unwrap();
        assert_eq!(fs.expand().unwrap(), u1.rep().unwrap());
        // U2: lineage to an external x-tuple.
        let u2 = Uldb {
            schema: Schema::of(&["A"]),
            tuples: vec![
                XTuple {
                    id: "t1".into(),
                    maybe: true,
                    alternatives: vec![Alternative::with_lineage(
                        vec![Value::int(1)],
                        vec![("s1".into(), 0)],
                    )],
                },
                XTuple {
                    id: "t2".into(),
                    maybe: true,
                    alternatives: vec![Alternative::with_lineage(
                        vec![Value::int(2)],
                        vec![("s1".into(), 1)],
                    )],
                },
            ],
            externals: vec![("s1".into(), 2)],
        };
        let fs2 = u2.to_factored().unwrap();
        assert_eq!(fs2.expand().unwrap(), u2.rep().unwrap());
        // And the two factorizations expand to the same world-set.
        assert_eq!(fs.expand().unwrap(), fs2.expand().unwrap());
    }

    /// Build a constraint from per-variable alternative bitmasks (`0`
    /// bits excluded); `None` when some mask is empty (unsatisfiable).
    fn cons(masks: &[u32], doms: &[usize]) -> Option<Constraint> {
        let mut c = Constraint::top();
        for (v, &mask) in masks.iter().enumerate() {
            let items: Vec<u32> = (0..doms[v] as u32)
                .filter(|a| mask & (1 << a) != 0)
                .collect();
            c = c.and_lit(v as Var, &AltSet::from_sorted(false, items), doms)?;
        }
        Some(c)
    }

    /// All satisfying assignments of a disjunct list, by brute-force
    /// enumeration of the full domain product.
    fn models(ds: &[Constraint], doms: &[usize]) -> BTreeSet<Vec<u32>> {
        let pos_of: HashMap<Var, usize> = (0..doms.len()).map(|i| (i as Var, i)).collect();
        let mut out = BTreeSet::new();
        let mut assign = vec![0u32; doms.len()];
        'all: loop {
            if ds.iter().any(|c| c.satisfied_by(&assign, &pos_of)) {
                out.insert(assign.clone());
            }
            let mut i = 0;
            loop {
                if i == doms.len() {
                    break 'all;
                }
                assign[i] += 1;
                if (assign[i] as usize) < doms[i] {
                    break;
                }
                assign[i] = 0;
                i += 1;
            }
        }
        out
    }

    #[test]
    fn compaction_merges_single_var_disjuncts() {
        let doms = [3usize, 2];
        // X=0∧Y=0 ∨ X=1∧Y=0 ∨ X=2∧Y=0: the X-sets union to the full
        // domain, so the whole thing collapses to Y=0.
        let ds: Vec<Constraint> = (0..3)
            .map(|x| cons(&[1 << x, 0b01], &doms).unwrap())
            .collect();
        let before = models(&ds, &doms);
        let out = compact_disjuncts(ds, &doms);
        assert_eq!(out, vec![cons(&[0b111, 0b01], &doms).unwrap()]);
        assert_eq!(models(&out, &doms), before);
    }

    #[test]
    fn compaction_subsumes_covered_disjuncts() {
        let doms = [3usize, 2];
        // X∈{0,1} absorbs X=0∧Y=1 (every model of the latter satisfies
        // the former); the unrelated X=2∧Y=0 survives.
        let wide = cons(&[0b011, 0b11], &doms).unwrap();
        let narrow = cons(&[0b001, 0b10], &doms).unwrap();
        let other = cons(&[0b100, 0b01], &doms).unwrap();
        let ds = vec![narrow, wide.clone(), other.clone()];
        let before = models(&ds, &doms);
        let mut out = compact_disjuncts(ds, &doms);
        out.sort_unstable();
        let mut expect = vec![wide, other];
        expect.sort_unstable();
        assert_eq!(out, expect);
        assert_eq!(models(&out, &doms), before);
    }

    #[test]
    fn projection_is_satisfiability_equivalent() {
        let doms = [3usize, 2, 4];
        // w = (X=0 ∧ Z=1) ∨ (X=1 ∧ Y=0 ∧ Z=2); projected onto {X} the
        // Y/Z literals drop (each independently satisfiable). The result
        // stays below COMPACT_MIN so the X-singletons are kept as-is.
        let w = Dnf::canon(vec![
            cons(&[0b001, 0b11, 0b0010], &doms).unwrap(),
            cons(&[0b010, 0b01, 0b0100], &doms).unwrap(),
        ]);
        let keep: BTreeSet<Var> = [0].into_iter().collect();
        let p = w.project_onto(&keep, &doms);
        assert_eq!(
            p.ds,
            vec![
                cons(&[0b001], &doms).unwrap(),
                cons(&[0b010], &doms).unwrap()
            ]
        );
        // Satisfiability against X-only constraints is unchanged.
        for mask in 1u32..8 {
            let c = cons(&[mask], &doms).unwrap();
            assert_eq!(
                w.consistent_with(&c, &doms),
                p.consistent_with(&c, &doms),
                "mask {mask:#b}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]
        /// Compaction never changes the model set of a formula.
        #[test]
        fn compaction_preserves_models(
            raw in proptest::collection::vec((0u32..8, 0u32..4, 0u32..16), 0..12)
        ) {
            let doms = [3usize, 2, 4];
            let ds: Vec<Constraint> = raw
                .iter()
                .filter_map(|&(a, b, c)| cons(&[a, b, c], &doms))
                .collect();
            let before = models(&ds, &doms);
            let out = compact_disjuncts(ds.clone(), &doms);
            prop_assert!(out.len() <= {
                let mut d = ds.clone();
                d.sort_unstable();
                d.dedup();
                d.len()
            });
            prop_assert_eq!(models(&out, &doms), before);
        }
    }
}
