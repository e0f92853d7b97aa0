//! Genericity of World-set Algebra (Definitions 4.3/4.4, Proposition 4.5).
//!
//! A query `q` is *generic* iff for world-sets `A ≅θ A′` (isomorphic under a
//! domain bijection `θ`) the answers are isomorphic under the same `θ`:
//! `q(A) ≅θ q(A′)`. The definition "ignores the issue of constants in
//! queries": a query mentioning constant `c` is generic relative to
//! bijections that fix `c`, which is how [`check_generic`] treats it
//! (cf. the remark after Definition 4.4).

use std::collections::BTreeSet;

use relalg::{Operand, Pred, Result, Value};
use worldset::{Bijection, WorldSet};

use crate::{eval, Query};

/// All constants mentioned in selection conditions of `q`. A bijection must
/// fix these for the genericity property to apply as stated.
pub fn query_constants(q: &Query) -> BTreeSet<Value> {
    let mut out = BTreeSet::new();
    collect(q, &mut out);
    out
}

fn collect_pred(p: &Pred, out: &mut BTreeSet<Value>) {
    match p {
        Pred::True | Pred::False => {}
        Pred::Cmp(l, _, r) => {
            if let Operand::Const(v) = l {
                out.insert(*v);
            }
            if let Operand::Const(v) = r {
                out.insert(*v);
            }
        }
        Pred::And(a, b) | Pred::Or(a, b) => {
            collect_pred(a, out);
            collect_pred(b, out);
        }
        Pred::Not(a) => collect_pred(a, out),
    }
}

fn collect(q: &Query, out: &mut BTreeSet<Value>) {
    match q {
        Query::Select(p, inner) => {
            collect_pred(p, out);
            collect(inner, out);
        }
        _ => q.children().into_iter().for_each(|c| collect(c, out)),
    }
}

/// Check the genericity property for one instance: evaluate `q` on `ws` and
/// on `θ(ws)` and verify `q(θ(ws)) = θ(q(ws))`.
///
/// Returns `Ok(false)` — a genericity violation — only if `θ` respects the
/// query constants; otherwise the premise of Definition 4.4 does not hold
/// and the check vacuously succeeds.
pub fn check_generic(q: &Query, ws: &WorldSet, theta: &Bijection) -> Result<bool> {
    for c in query_constants(q) {
        if theta.apply_value(&c) != c {
            return Ok(true); // θ does not fix the query constants: vacuous
        }
    }
    let lhs = eval(q, &theta.apply(ws)?)?;
    let rhs = theta.apply(&eval(q, ws)?)?;
    Ok(lhs == rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::{attrs, Relation};

    fn ws() -> WorldSet {
        WorldSet::single(vec![(
            "R",
            Relation::table(&["A", "B"], &[&[1i64, 2], &[2, 3], &[3, 2]]),
        )])
    }

    fn theta() -> Bijection {
        Bijection::from_pairs(vec![
            (Value::int(1), Value::int(100)),
            (Value::int(2), Value::int(200)),
            (Value::int(3), Value::int(300)),
        ])
        .unwrap()
    }

    #[test]
    fn choice_cert_is_generic() {
        let q = Query::rel("R")
            .choice(attrs(&["A"]))
            .project(attrs(&["B"]))
            .cert();
        assert!(check_generic(&q, &ws(), &theta()).unwrap());
    }

    #[test]
    fn grouping_is_generic() {
        let q = Query::rel("R")
            .choice(attrs(&["A"]))
            .poss_group(attrs(&["B"]), attrs(&["A", "B"]));
        assert!(check_generic(&q, &ws(), &theta()).unwrap());
    }

    #[test]
    fn repair_is_generic() {
        let q = Query::rel("R").repair_by_key(attrs(&["B"])).poss();
        assert!(check_generic(&q, &ws(), &theta()).unwrap());
    }

    #[test]
    fn constants_collected_and_respected() {
        let q = Query::rel("R").select(Pred::eq_const("A", 1));
        assert_eq!(query_constants(&q), [Value::int(1)].into());
        // θ moves the constant 1 → vacuously generic.
        assert!(check_generic(&q, &ws(), &theta()).unwrap());
        // A bijection fixing 1 is a real check.
        let fix1 = Bijection::from_pairs(vec![
            (Value::int(2), Value::int(20)),
            (Value::int(3), Value::int(30)),
        ])
        .unwrap();
        assert!(check_generic(&q, &ws(), &fix1).unwrap());
    }
}
