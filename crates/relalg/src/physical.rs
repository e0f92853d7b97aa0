//! The physical-operator layer: the row-vs-columnar path choice of
//! selection `σ` and its columnar kernel.
//!
//! The logical algebra ([`crate::Expr`], the direct [`crate::Relation`]
//! methods) says *what* each node computes; this module decides *how* a
//! selection runs. A relation wider than the inline tuple capacity spills
//! every tuple to the heap, so a filter that tests a few of its columns
//! pays a pointer chase per access. **Vectorized selection**
//! (`filter_tuples`) evaluates the predicate's simple comparison
//! conjuncts into a selection bitmap, cheapest (most selective) conjunct
//! first; later conjuncts and any residual predicate only run on
//! still-set bits, and surviving tuples are materialized late, in one
//! pass. Columns shared by several conjuncts are extracted into transient
//! column vectors at first use. The kernel runs on the calling thread in
//! one pass over the input, so its output is strictly sorted and
//! identical to the row path's (pinned by `tests/columnar_oracle.rs`).
//!
//! Every keyed operator (joins, semijoins, grouping, projection) runs one
//! kernel whatever its input's width: `relation::KeyIndex` hashes a row's
//! key columns in place, so no per-row key is built on either path.
//!
//! The chooser ([`choose`]): columnar when the path is enabled
//! ([`crate::columnar_enabled`]), the relation is wider than
//! [`crate::INLINE_TUPLE_CAP`], and it has at least `COLUMNAR_MIN_ROWS`
//! (64) rows (below that, kernel setup dominates). `EXPLAIN` reports the
//! chosen path per plan node ([`crate::opt::PlanCard::phys`]): `columnar`
//! only on a `σ` whose kernel runs.

use crate::pred::CompiledPred;
use crate::{CmpOp, Operand, Pred, RelalgError, Result, Schema, Tuple, Value};

/// Row count before a columnar kernel pays for its setup.
const COLUMNAR_MIN_ROWS: usize = 64;

/// The physical execution path chosen for one operator instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhysPath {
    /// Walk full tuples row by row.
    Row,
    /// Evaluate comparisons over column vectors into a selection bitmap
    /// (selection only).
    Columnar,
}

impl PhysPath {
    /// The label `EXPLAIN` prints for this path.
    pub fn label(self) -> &'static str {
        match self {
            PhysPath::Row => "row",
            PhysPath::Columnar => "columnar",
        }
    }
}

/// The central row-vs-columnar rule: columnar when the path is enabled,
/// the input is wider than the inline tuple capacity (its tuples live on
/// the heap), and there are enough rows to amortize kernel setup.
pub fn choose(width: usize, rows: usize) -> PhysPath {
    if crate::columnar_enabled() && width > crate::INLINE_TUPLE_CAP && rows >= COLUMNAR_MIN_ROWS {
        PhysPath::Columnar
    } else {
        PhysPath::Row
    }
}

// ---------------------------------------------------------------------------
// Vectorized selection.
// ---------------------------------------------------------------------------

/// One side of a vectorizable comparison, resolved against the schema.
enum VOperand {
    Col(usize),
    Const(Value),
}

impl VOperand {
    #[inline]
    fn get(&self, cols: &[Option<Vec<Value>>], tuples: &[Tuple], i: usize) -> Value {
        match self {
            VOperand::Col(c) => match &cols[*c] {
                Some(v) => v[i],
                None => tuples[i][*c],
            },
            VOperand::Const(v) => *v,
        }
    }
}

/// A vectorizable conjunct: a simple comparison over columns/constants.
struct VConjunct {
    l: VOperand,
    op: CmpOp,
    r: VOperand,
}

fn resolve(o: &Operand, schema: &Schema) -> Result<VOperand> {
    match o {
        Operand::Attr(a) => {
            schema
                .index_of(a)
                .map(VOperand::Col)
                .ok_or_else(|| RelalgError::UnknownAttr {
                    attr: a.clone(),
                    schema: schema.clone(),
                })
        }
        Operand::Const(v) => Ok(VOperand::Const(*v)),
    }
}

/// Estimated selectivity of one conjunct (fraction of rows kept), used
/// only to order the conjunct evaluation — most selective first, so later
/// conjuncts run over the fewest set bits. Distinct counts come from the
/// relation's statistics **only if already computed**
/// ([`crate::Relation::stats_if_computed`]): forcing the lazy per-column
/// stats pass could cost more than the selection itself. Reordering is
/// sound — conjunction is commutative and comparisons have no effects —
/// so this never changes the output, only the work.
fn estimated_selectivity(c: &VConjunct, distinct_of: impl Fn(usize) -> Option<u64>) -> f64 {
    let col_distinct = |o: &VOperand| match o {
        VOperand::Col(i) => distinct_of(*i),
        VOperand::Const(_) => None,
    };
    match c.op {
        CmpOp::Eq => match (col_distinct(&c.l), col_distinct(&c.r)) {
            (Some(d), None) | (None, Some(d)) => 1.0 / d.max(1) as f64,
            (Some(da), Some(db)) => 1.0 / da.max(db).max(1) as f64,
            // No stats: a constant equality is still the best static bet.
            (None, None) => 0.1,
        },
        CmpOp::Ne => 0.9,
        // Range comparisons: the classic 1/2.
        _ => 0.5,
    }
}

/// Vectorized selection over `tuples`: returns the surviving tuples in
/// input order, or `None` when the predicate has no vectorizable conjunct
/// (the caller falls back to the row path).
///
/// The predicate's top-level conjuncts split into simple comparisons
/// (vectorized) and a residual (everything else, re-conjoined and compiled
/// once). The touched columns are extracted into transient column vectors
/// at first use; the first comparison scans the whole input into a
/// selection bitmap, each later one — ordered by estimated selectivity —
/// only tests still-set bits, the residual runs row-wise on the survivors,
/// and set bits late-materialize into output clones. Filtering preserves
/// order, so the output is strictly sorted.
pub(crate) fn filter_tuples(
    schema: &Schema,
    tuples: &[Tuple],
    pred: &Pred,
    distinct_of: impl Fn(usize) -> Option<u64>,
) -> Result<Option<Vec<Tuple>>> {
    let mut vecs: Vec<VConjunct> = Vec::new();
    let mut residual = Pred::True;
    for c in pred.conjuncts() {
        match c {
            Pred::Cmp(l, op, r) => vecs.push(VConjunct {
                l: resolve(&l, schema)?,
                op,
                r: resolve(&r, schema)?,
            }),
            other => residual = residual.and(other),
        }
    }
    if vecs.is_empty() {
        return Ok(None);
    }
    // Most selective first; f64 ranks are finite positive, stable sort
    // keeps the split order deterministic on ties.
    let mut ranked: Vec<(f64, VConjunct)> = vecs
        .into_iter()
        .map(|c| (estimated_selectivity(&c, &distinct_of), c))
        .collect();
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let vecs: Vec<VConjunct> = ranked.into_iter().map(|(_, c)| c).collect();
    let residual = match residual {
        Pred::True => None,
        p => Some(p.compile(schema)?),
    };

    Ok(Some(filter_bitmap(tuples, &vecs, residual.as_ref())))
}

/// The vectorized filter's body: bitmap evaluation over extracted column
/// vectors, then late materialization of the set bits.
fn filter_bitmap(
    tuples: &[Tuple],
    conjs: &[VConjunct],
    residual: Option<&CompiledPred>,
) -> Vec<Tuple> {
    let n = tuples.len();
    if n == 0 {
        return Vec::new();
    }
    let words = n.div_ceil(64);
    let mut bits = vec![u64::MAX; words];
    if !n.is_multiple_of(64) {
        bits[words - 1] = (1u64 << (n % 64)) - 1;
    }
    // Transient column vectors for columns referenced by more than one
    // conjunct, extracted at first use (one linear copy each — every later
    // access is contiguous). A single-use column reads straight from the
    // tuples: extracting it would copy each value exactly once in order to
    // read it exactly once.
    let col_of = |o: &VOperand| match o {
        VOperand::Col(c) => Some(*c),
        VOperand::Const(_) => None,
    };
    let mut uses: Vec<(usize, u32)> = Vec::new();
    for c in conjs {
        for col in [col_of(&c.l), col_of(&c.r)].into_iter().flatten() {
            match uses.iter_mut().find(|(i, _)| *i == col) {
                Some((_, n)) => *n += 1,
                None => uses.push((col, 1)),
            }
        }
    }
    let ncols = uses.iter().map(|&(i, _)| i + 1).max().unwrap_or(0);
    let mut cols: Vec<Option<Vec<Value>>> = Vec::new();
    cols.resize_with(ncols, || None);
    let extract = |o: &VOperand, cols: &mut Vec<Option<Vec<Value>>>| {
        if let VOperand::Col(c) = o {
            let shared = uses.iter().any(|&(i, n)| i == *c && n >= 2);
            if shared && cols[*c].is_none() {
                cols[*c] = Some(tuples.iter().map(|t| t[*c]).collect());
            }
        }
    };
    for (ci, c) in conjs.iter().enumerate() {
        if bits.iter().all(|&w| w == 0) {
            return Vec::new();
        }
        extract(&c.l, &mut cols);
        extract(&c.r, &mut cols);
        if ci == 0 {
            for (i, word) in bits.iter_mut().enumerate() {
                let base = i << 6;
                let lanes = (n - base).min(64);
                let mut w = *word;
                for b in 0..lanes {
                    let row = base + b;
                    if !c
                        .op
                        .apply(&c.l.get(&cols, tuples, row), &c.r.get(&cols, tuples, row))
                    {
                        w &= !(1u64 << b);
                    }
                }
                *word = w;
            }
        } else {
            // Short-circuit: only still-set bits are tested.
            for (i, word) in bits.iter_mut().enumerate() {
                let mut m = *word;
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    let row = (i << 6) | b;
                    if !c
                        .op
                        .apply(&c.l.get(&cols, tuples, row), &c.r.get(&cols, tuples, row))
                    {
                        *word &= !(1u64 << b);
                    }
                    m &= m - 1;
                }
            }
        }
    }
    if let Some(res) = residual {
        for (i, word) in bits.iter_mut().enumerate() {
            let mut m = *word;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                if !res.eval(&tuples[(i << 6) | b]) {
                    *word &= !(1u64 << b);
                }
                m &= m - 1;
            }
        }
    }
    let survivors: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
    let mut out = Vec::with_capacity(survivors);
    for (i, word) in bits.iter().enumerate() {
        let mut m = *word;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            out.push(tuples[(i << 6) | b].clone());
            m &= m - 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Relation, Schema};

    fn rel(rows: usize) -> Relation {
        let names: Vec<String> = (0..6).map(|c| format!("C{c}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        Relation::from_rows(
            Schema::of(&refs),
            (0..rows as i64).map(|i| {
                (0..6i64)
                    .map(|c| Value::Int((i * (3 + c) + c) % (4 + c * 3)))
                    .collect::<Tuple>()
            }),
        )
        .unwrap()
    }

    #[test]
    fn chooser_respects_width_rows_and_toggle() {
        assert_eq!(choose(6, 1000), PhysPath::Columnar);
        assert_eq!(choose(4, 1000), PhysPath::Row, "inline-width stays row");
        assert_eq!(choose(6, 3), PhysPath::Row, "tiny inputs stay row");
        assert_eq!(choose(6, 63), PhysPath::Row);
        assert_eq!(choose(6, 64), PhysPath::Columnar);
        let mut off = crate::config::SessionConfig::new();
        off.set("columnar", "off").unwrap();
        let _g = crate::config::overlay(&off);
        assert_eq!(choose(6, 1000), PhysPath::Row);
    }

    #[test]
    fn filter_matches_compiled_pred_with_and_without_residual() {
        let r = rel(500);
        // Two vectorizable conjuncts + one residual disjunction.
        let pred = Pred::eq_const("C1", 2)
            .and(Pred::cmp(
                Operand::Attr("C3".into()),
                CmpOp::Ge,
                Operand::Const(Value::Int(3)),
            ))
            .and(Pred::eq_const("C0", 1).or(Pred::eq_const("C2", 0)));
        let compiled = pred.compile(r.schema()).unwrap();
        let want: Vec<Tuple> = r.iter().filter(|t| compiled.eval(t)).cloned().collect();
        let got = filter_tuples(r.schema(), r.tuples(), &pred, |_| None)
            .unwrap()
            .expect("has vectorizable conjuncts");
        assert_eq!(got, want);
        // Stats-ranked ordering changes the work, never the output.
        let stats = r.stats().clone();
        let got2 = filter_tuples(r.schema(), r.tuples(), &pred, |i| {
            stats.col(i).map(|c| c.distinct)
        })
        .unwrap()
        .unwrap();
        assert_eq!(got2, want);
    }

    #[test]
    fn filter_without_vectorizable_conjunct_falls_back() {
        let r = rel(100);
        let pred = Pred::eq_const("C0", 1).or(Pred::eq_const("C1", 2));
        assert!(filter_tuples(r.schema(), r.tuples(), &pred, |_| None)
            .unwrap()
            .is_none());
    }

    #[test]
    fn filter_unknown_attr_errors_like_the_row_path() {
        let r = rel(100);
        let pred = Pred::eq_const("Z", 1);
        assert!(filter_tuples(r.schema(), r.tuples(), &pred, |_| None).is_err());
        let pred = Pred::eq_const("C0", 1).and(Pred::eq_const("Z", 1).not());
        assert!(filter_tuples(r.schema(), r.tuples(), &pred, |_| None).is_err());
    }
}
