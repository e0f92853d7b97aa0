//! Grouping with aggregation `γ_{G; f(a) as o, …}`: the relational operator
//! behind SQL's `group by`, under set semantics.
//!
//! The input is a *set* of whole tuples, so `sum(Price)` adds the price of
//! every distinct tuple of a group — two tuples with equal prices both
//! count. A projection that narrows the input before `γ` would merge them,
//! which is why no rewrite moves one below this operator. An empty input
//! has no groups and yields no row, also when `G` is empty (SQL's one row
//! over an empty input is the interpreter's business, not the algebra's).

use std::fmt;

use crate::relation::group_rows;
use crate::tuple::RowBuf;
use crate::{Attr, RelalgError, Relation, Result, Schema, Value};

/// An aggregate function.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AggFn {
    /// Integer sum.
    Sum,
    /// Number of tuples.
    Count,
    /// Least value.
    Min,
    /// Greatest value.
    Max,
    /// Integer mean, truncated toward zero.
    Avg,
}

impl fmt::Display for AggFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFn::Sum => "sum",
            AggFn::Count => "count",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Avg => "avg",
        })
    }
}

/// One aggregate of a `γ` node: `func(arg) as out`. `arg` is `None` for
/// `count(*)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AggCall {
    /// The function.
    pub func: AggFn,
    /// The argument column (`None`: `count(*)`).
    pub arg: Option<Attr>,
    /// The output column.
    pub out: Attr,
}

impl AggCall {
    /// `func(arg) as out`.
    pub fn new(func: AggFn, arg: Option<Attr>, out: Attr) -> AggCall {
        AggCall { func, arg, out }
    }
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(a) => write!(f, "{}({a}) as {}", self.func, self.out),
            None => write!(f, "{}(*) as {}", self.func, self.out),
        }
    }
}

/// The running state of one aggregate over one group. Errors (a sum over a
/// non-integer, a sum that overflows) are kept until [`Acc::finish`], so
/// folding never fails.
#[derive(Clone, Debug)]
pub struct Acc {
    func: AggFn,
    n: i64,
    /// The sum so far, wide enough that no fold order overflows it: only
    /// a result outside `i64` is an error.
    total: i128,
    best: Option<Value>,
    bad: Option<Value>,
}

impl Acc {
    /// The empty state of `func`.
    pub fn new(func: AggFn) -> Acc {
        Acc {
            func,
            n: 0,
            total: 0,
            best: None,
            bad: None,
        }
    }

    /// Fold in one argument value.
    pub fn push(&mut self, v: Value) {
        self.n += 1;
        match self.func {
            AggFn::Count => {}
            AggFn::Sum | AggFn::Avg => match v {
                Value::Int(i) => self.total += i128::from(i),
                other => {
                    self.bad.get_or_insert(other);
                }
            },
            AggFn::Min => {
                if self.best.is_none_or(|b| v < b) {
                    self.best = Some(v);
                }
            }
            AggFn::Max => {
                if self.best.is_none_or(|b| v > b) {
                    self.best = Some(v);
                }
            }
        }
    }

    /// The aggregate's value.
    pub fn finish(&self) -> Result<Value> {
        let err = |detail: String| Err(RelalgError::TypeError { detail });
        if let Some(v) = self.bad {
            return err(format!("sum/avg over non-integer {v}"));
        }
        let int = |v: i128| {
            i64::try_from(v)
                .map(Value::Int)
                .map_err(|_| RelalgError::Overflow)
        };
        match self.func {
            AggFn::Count => Ok(Value::Int(self.n)),
            AggFn::Sum => int(self.total),
            AggFn::Avg if self.n == 0 => err("avg over empty group".into()),
            AggFn::Avg => int(self.total / i128::from(self.n)),
            AggFn::Min | AggFn::Max => match self.best {
                Some(v) => Ok(v),
                None => err(format!("{} over empty group", self.func)),
            },
        }
    }
}

impl Relation {
    /// `γ_{group; aggs}(self)`: one row per distinct value of `group`,
    /// holding that value followed by each aggregate over the group's
    /// tuples. The output schema is `group` then the `out` columns.
    pub fn aggregate(&self, group: &[Attr], aggs: &[AggCall]) -> Result<Relation> {
        let mut out_attrs = group.to_vec();
        out_attrs.extend(aggs.iter().map(|a| a.out.clone()));
        let schema = Schema::try_new(out_attrs).ok_or_else(|| RelalgError::DuplicateAttr {
            attr: aggs
                .first()
                .map_or_else(|| Attr::new("?"), |a| a.out.clone()),
        })?;
        let key_idx = self.positions(group)?;
        let arg_idx: Vec<Option<usize>> = aggs
            .iter()
            .map(|a| {
                a.arg
                    .as_ref()
                    .map(|x| self.positions(std::slice::from_ref(x)).map(|p| p[0]))
                    .transpose()
            })
            .collect::<Result<_>>()?;
        let (keys, groups) = group_rows(
            self.row_slice(),
            &key_idx,
            || aggs.iter().map(|a| Acc::new(a.func)).collect::<Vec<_>>(),
            |accs, t| {
                for (acc, i) in accs.iter_mut().zip(&arg_idx) {
                    // `count(*)` counts the tuple; any value will do.
                    acc.push(i.map_or(Value::Pad, |i| t[i]));
                }
            },
        );
        let mut rows = RowBuf::with_capacity(schema.arity(), groups.len());
        for (key, accs) in keys.rows().iter().zip(&groups) {
            let finished = accs
                .iter()
                .map(Acc::finish)
                .collect::<Result<Vec<Value>>>()?;
            rows.push_concat(key, &finished);
        }
        rows.sort_dedup();
        Ok(Relation::from_sorted(schema, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attr, attrs};

    fn lineitem() -> Relation {
        Relation::table(
            &["Product", "Price", "Year"],
            &[
                &[Value::str("P1"), Value::Int(10), Value::Int(2000)],
                &[Value::str("P2"), Value::Int(10), Value::Int(2000)],
                &[Value::str("P3"), Value::Int(7), Value::Int(2001)],
            ],
        )
    }

    #[test]
    fn sums_every_distinct_tuple() {
        let r = lineitem();
        let out = r
            .aggregate(
                &attrs(&["Year"]),
                &[AggCall::new(AggFn::Sum, Some(attr("Price")), attr("Rev"))],
            )
            .unwrap();
        // P1 and P2 share a price: both count.
        assert_eq!(
            out,
            Relation::table(&["Year", "Rev"], &[&[2000i64, 20], &[2001, 7]])
        );
    }

    #[test]
    fn count_min_max_avg() {
        let r = lineitem();
        let aggs = [
            AggCall::new(AggFn::Count, None, attr("N")),
            AggCall::new(AggFn::Min, Some(attr("Product")), attr("Lo")),
            AggCall::new(AggFn::Max, Some(attr("Price")), attr("Hi")),
            AggCall::new(AggFn::Avg, Some(attr("Price")), attr("Mean")),
        ];
        let out = r.aggregate(&[], &aggs).unwrap();
        assert_eq!(out.len(), 1);
        let t = out.iter().next().unwrap();
        assert_eq!(
            t,
            &[
                Value::Int(3),
                Value::str("P1"),
                Value::Int(10),
                Value::Int(9)
            ]
        );
    }

    #[test]
    fn empty_input_has_no_groups() {
        let r = Relation::empty(Schema::of(&["A", "B"]));
        let out = r
            .aggregate(&[], &[AggCall::new(AggFn::Count, None, attr("N"))])
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(out.schema(), &Schema::of(&["N"]));
    }

    #[test]
    fn sum_over_strings_is_an_error() {
        let r = lineitem();
        let sum = [AggCall::new(AggFn::Sum, Some(attr("Product")), attr("S"))];
        assert!(r.aggregate(&attrs(&["Year"]), &sum).is_err());
        let dup = [AggCall::new(AggFn::Count, None, attr("Year"))];
        assert!(r.aggregate(&attrs(&["Year"]), &dup).is_err());
    }

    #[test]
    fn overflowing_sum_is_an_error() {
        let r = Relation::table(&["K", "V"], &[&[1i64, i64::MAX], &[2, 5], &[3, -7]]);
        let sum = [AggCall::new(AggFn::Sum, Some(attr("V")), attr("S"))];
        let two = r.select(&crate::Pred::eq_const("K", 3).not()).unwrap();
        assert_eq!(two.aggregate(&[], &sum), Err(RelalgError::Overflow));
        // The sum is judged, not its prefixes: `MAX + 5 - 7` is in range,
        // and so is every mean.
        let all = r.aggregate(&[], &sum).unwrap();
        assert_eq!(all.iter().next().unwrap()[0], Value::Int(i64::MAX - 2));
        let avg = [AggCall::new(AggFn::Avg, Some(attr("V")), attr("M"))];
        assert!(two.aggregate(&[], &avg).is_ok());
    }
}
