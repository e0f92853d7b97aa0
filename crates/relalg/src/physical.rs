//! The physical-operator layer: selection `σ`'s one kernel.
//!
//! The logical algebra ([`crate::Expr`], the direct [`crate::Relation`]
//! methods) says *what* each node computes; this module says *how* a
//! selection runs. Every selection is a **vectorized selection**
//! (`filter_rows`, in the style of MonetDB/X100's selection vectors):
//! the predicate's simple comparison conjuncts evaluate into a selection
//! bitmap, cheapest (most selective) conjunct first; later conjuncts and
//! any residual predicate only run on still-set bits, and surviving rows
//! are materialized late, in one pass. A predicate without a comparison
//! conjunct runs as the compiled residual over the all-set bitmap, and a
//! predicate that is a single comparison runs without a conjunct list.
//!
//! The kernel reads the relation's flat row-major storage in place: a
//! conjunct compares its two operands by reference, column `c` of row `i`
//! being value `i·k + c` of the one `Vec<Value>` (arity `k`), and the
//! survivors are copied row by row into the output's vector. Columns
//! shared by several conjuncts are extracted into transient column vectors
//! at first use. The kernel runs on the calling thread in one pass over
//! the input, so its output is strictly sorted and identical to the
//! compiled predicate's row filter ([`crate::Pred::compile`]; pinned by
//! `tests/columnar_oracle.rs`).
//!
//! Every keyed operator (joins, semijoins, grouping, projection) runs one
//! kernel whatever its input's width: `relation::KeyIndex` hashes a row's
//! key columns in place, so no per-row key is built.

use crate::pred::{CompiledPred, ResolvedOperand};
use crate::tuple::{RowBuf, RowSlice};
use crate::{CmpOp, Pred, Result, Schema, Value};

/// Operand `o` of row `i`, borrowed: from an extracted column vector if
/// there is one, else straight from the flat rows.
#[inline]
fn value_at<'a>(
    o: &'a ResolvedOperand,
    cols: &'a [Option<Vec<Value>>],
    rows: RowSlice<'a>,
    i: usize,
) -> &'a Value {
    match o {
        ResolvedOperand::Col(c) => match cols.get(*c) {
            Some(Some(v)) => &v[i],
            _ => &rows.values()[i * rows.arity() + *c],
        },
        ResolvedOperand::Const(v) => v,
    }
}

/// A vectorizable conjunct: a simple comparison over columns/constants.
struct VConjunct {
    l: ResolvedOperand,
    op: CmpOp,
    r: ResolvedOperand,
}

impl VConjunct {
    /// Whether row `i` passes.
    #[inline]
    fn test(&self, cols: &[Option<Vec<Value>>], rows: RowSlice<'_>, i: usize) -> bool {
        self.op.apply(
            value_at(&self.l, cols, rows, i),
            value_at(&self.r, cols, rows, i),
        )
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
    let col_distinct = |o: &ResolvedOperand| match o {
        ResolvedOperand::Col(i) => distinct_of(*i),
        ResolvedOperand::Const(_) => None,
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

/// Vectorized selection over `rows`: returns the surviving rows in input
/// order.
///
/// The predicate's top-level conjuncts split into simple comparisons
/// (vectorized) and a residual (everything else, re-conjoined and compiled
/// once). The first comparison — in order of estimated selectivity —
/// scans the whole input into a selection bitmap, each later one only
/// tests still-set bits, the residual runs row-wise on the survivors, and
/// set bits are copied late into the output rows. Filtering preserves
/// order, so the output is strictly sorted. A predicate that is one
/// comparison allocates no conjunct list.
pub(crate) fn filter_rows(
    schema: &Schema,
    rows: RowSlice<'_>,
    pred: &Pred,
    distinct_of: impl Fn(usize) -> Option<u64>,
) -> Result<RowBuf> {
    if let Pred::Cmp(l, op, r) = pred {
        let one = VConjunct {
            l: l.resolve(schema)?,
            op: *op,
            r: r.resolve(schema)?,
        };
        return Ok(filter_bitmap(rows, std::slice::from_ref(&one), None));
    }
    let mut vecs: Vec<VConjunct> = Vec::new();
    let mut residual = Pred::True;
    split(pred, schema, &mut vecs, &mut residual)?;
    // Most selective first; the stable sort keeps the split order
    // deterministic on ties.
    vecs.sort_by(|a, b| {
        estimated_selectivity(a, &distinct_of).total_cmp(&estimated_selectivity(b, &distinct_of))
    });
    let residual = match residual {
        Pred::True => None,
        p => Some(p.compile(schema)?),
    };
    Ok(filter_bitmap(rows, &vecs, residual.as_ref()))
}

/// Split `p`'s top-level conjuncts, left to right, into resolved simple
/// comparisons (`vecs`) and the conjunction of the rest (`residual`),
/// without cloning the comparisons.
fn split(p: &Pred, schema: &Schema, vecs: &mut Vec<VConjunct>, residual: &mut Pred) -> Result<()> {
    match p {
        Pred::And(a, b) => {
            split(a, schema, vecs, residual)?;
            split(b, schema, vecs, residual)
        }
        Pred::Cmp(l, op, r) => {
            vecs.push(VConjunct {
                l: l.resolve(schema)?,
                op: *op,
                r: r.resolve(schema)?,
            });
            Ok(())
        }
        other => {
            *residual = std::mem::replace(residual, Pred::True).and(other.clone());
            Ok(())
        }
    }
}

/// The vectorized filter's body: bitmap evaluation over extracted column
/// vectors, then late materialization of the set bits.
fn filter_bitmap(
    rows: RowSlice<'_>,
    conjs: &[VConjunct],
    residual: Option<&CompiledPred>,
) -> RowBuf {
    let n = rows.len();
    if n == 0 {
        return RowBuf::new(rows.arity());
    }
    let words = n.div_ceil(64);
    // Up to 64 rows, the bitmap is one word on the stack.
    let mut one = [u64::MAX];
    let mut many;
    let bits: &mut [u64] = if words == 1 {
        &mut one
    } else {
        many = vec![u64::MAX; words];
        &mut many
    };
    if !n.is_multiple_of(64) {
        bits[words - 1] = (1u64 << (n % 64)) - 1;
    }
    // Transient column vectors for columns referenced by more than one
    // conjunct, extracted at first use (one linear copy each — every later
    // access is contiguous). A single-use column reads straight from the
    // rows: extracting it would copy each value exactly once in order to
    // read it exactly once. Only two or more conjuncts can share a column,
    // so a single conjunct counts nothing and allocates nothing.
    let col_of = |o: &ResolvedOperand| match o {
        ResolvedOperand::Col(c) => Some(*c),
        ResolvedOperand::Const(_) => None,
    };
    let mut uses: Vec<(usize, u32)> = Vec::new();
    let mut cols: Vec<Option<Vec<Value>>> = Vec::new();
    if conjs.len() >= 2 {
        for c in conjs {
            for col in [col_of(&c.l), col_of(&c.r)].into_iter().flatten() {
                match uses.iter_mut().find(|(i, _)| *i == col) {
                    Some((_, n)) => *n += 1,
                    None => uses.push((col, 1)),
                }
            }
        }
        let ncols = uses.iter().map(|&(i, _)| i + 1).max().unwrap_or(0);
        cols.resize_with(ncols, || None);
    }
    let extract = |o: &ResolvedOperand, cols: &mut Vec<Option<Vec<Value>>>| {
        if let ResolvedOperand::Col(c) = o {
            let shared = uses.iter().any(|&(i, n)| i == *c && n >= 2);
            if shared && cols[*c].is_none() {
                cols[*c] = Some(rows.iter().map(|t| t[*c]).collect());
            }
        }
    };
    for (ci, c) in conjs.iter().enumerate() {
        if bits.iter().all(|&w| w == 0) {
            return RowBuf::new(rows.arity());
        }
        extract(&c.l, &mut cols);
        extract(&c.r, &mut cols);
        if ci == 0 {
            for (i, word) in bits.iter_mut().enumerate() {
                let base = i << 6;
                let lanes = (n - base).min(64);
                let mut w = *word;
                for b in 0..lanes {
                    if !c.test(&cols, rows, base + b) {
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
                    if !c.test(&cols, rows, (i << 6) | b) {
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
                if !res.eval(rows.row((i << 6) | b)) {
                    *word &= !(1u64 << b);
                }
                m &= m - 1;
            }
        }
    }
    let survivors: usize = bits.iter().map(|w| w.count_ones() as usize).sum();
    let mut out = RowBuf::with_capacity(rows.arity(), survivors);
    for (i, word) in bits.iter().enumerate() {
        let mut m = *word;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            out.push(rows.row((i << 6) | b));
            m &= m - 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Operand, Relation, Schema, Tuple};

    fn rel_of(width: usize, rows: usize) -> Relation {
        let names: Vec<String> = (0..width).map(|c| format!("C{c}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        Relation::from_rows(
            Schema::of(&refs),
            (0..rows as i64).map(|i| {
                (0..width as i64)
                    .map(|c| Value::Int((i * (3 + c) + c) % (4 + c * 3)))
                    .collect::<Tuple>()
            }),
        )
        .unwrap()
    }

    fn rel(rows: usize) -> Relation {
        rel_of(6, rows)
    }

    /// The compiled predicate's row filter: the reference every kernel
    /// output must equal.
    fn reference(r: &Relation, pred: &Pred) -> Vec<Tuple> {
        let compiled = pred.compile(r.schema()).unwrap();
        r.iter()
            .filter(|t| compiled.eval(t))
            .map(Tuple::from)
            .collect()
    }

    /// The kernel's output rows.
    fn filter_tuples(
        r: &Relation,
        pred: &Pred,
        distinct_of: impl Fn(usize) -> Option<u64>,
    ) -> Result<Vec<Tuple>> {
        let out = filter_rows(r.schema(), r.row_slice(), pred, distinct_of)?;
        Ok(out.rows().iter().map(Tuple::from).collect())
    }

    #[test]
    fn filter_matches_compiled_pred_on_narrow_and_tiny_inputs() {
        for width in [1, 2, 4] {
            for rows in [0, 1, 5, 63, 64, 65, 200] {
                let r = rel_of(width, rows);
                let last = format!("C{}", width - 1);
                let preds = [
                    Pred::eq_const("C0", 1),
                    Pred::eq_const("C0", 1).and(Pred::cmp(
                        Operand::Attr(last.as_str().into()),
                        CmpOp::Ge,
                        Operand::Const(Value::Int(1)),
                    )),
                    Pred::eq_const("C0", 0).or(Pred::eq_const(last.as_str(), 2)),
                    Pred::True,
                    Pred::False,
                ];
                for pred in &preds {
                    let got = filter_tuples(&r, pred, |_| None).unwrap();
                    assert_eq!(got, reference(&r, pred), "w{width}x{rows}: {pred}");
                }
            }
        }
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
        let want = reference(&r, &pred);
        let got = filter_tuples(&r, &pred, |_| None).unwrap();
        assert_eq!(got, want);
        // Stats-ranked ordering changes the work, never the output.
        let stats = r.stats().clone();
        let got2 = filter_tuples(&r, &pred, |i| stats.col(i).map(|c| c.distinct)).unwrap();
        assert_eq!(got2, want);
    }

    #[test]
    fn filter_without_vectorizable_conjunct_falls_back() {
        // No comparison conjunct: the compiled residual runs over the
        // all-set bitmap.
        let r = rel(100);
        let pred = Pred::eq_const("C0", 1).or(Pred::eq_const("C1", 2));
        let got = filter_tuples(&r, &pred, |_| None).unwrap();
        let want = reference(&r, &pred);
        assert!(!want.is_empty() && want.len() < r.len());
        assert_eq!(got, want);
    }

    #[test]
    fn filter_unknown_attr_errors_like_the_row_path() {
        for rows in [0, 100] {
            let r = rel(rows);
            for pred in [
                Pred::eq_const("Z", 1),
                Pred::eq_const("C0", 1).and(Pred::eq_const("Z", 1).not()),
                Pred::eq_const("Z", 1).or(Pred::eq_const("C0", 1)),
            ] {
                assert!(pred.compile(r.schema()).is_err());
                assert!(filter_tuples(&r, &pred, |_| None).is_err());
            }
        }
    }
}
