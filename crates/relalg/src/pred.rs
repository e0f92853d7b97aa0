use std::collections::BTreeSet;
use std::fmt;

use crate::{Attr, RelalgError, Result, Schema, Value};

/// Comparison operators usable in selection conditions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Apply the comparison to two values.
    pub fn apply(self, l: &Value, r: &Value) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }

    /// The comparison with swapped operands (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "≠",
            CmpOp::Lt => "<",
            CmpOp::Le => "≤",
            CmpOp::Gt => ">",
            CmpOp::Ge => "≥",
        };
        write!(f, "{s}")
    }
}

/// One side of a comparison: an attribute reference or a constant.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    Attr(Attr),
    Const(Value),
}

impl Operand {
    /// This operand's column index in `schema`, or its constant.
    pub(crate) fn resolve(&self, schema: &Schema) -> Result<ResolvedOperand> {
        match self {
            Operand::Attr(a) => schema.index_of(a).map(ResolvedOperand::Col).ok_or_else(|| {
                RelalgError::UnknownAttr {
                    attr: a.clone(),
                    schema: schema.clone(),
                }
            }),
            Operand::Const(v) => Ok(ResolvedOperand::Const(*v)),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Attr(a) => write!(f, "{a}"),
            Operand::Const(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
        }
    }
}

/// An [`Operand`] resolved against a schema: a column index or a constant.
pub(crate) enum ResolvedOperand {
    Col(usize),
    Const(Value),
}

impl ResolvedOperand {
    fn get<'a>(&'a self, t: &'a [Value]) -> &'a Value {
        match self {
            ResolvedOperand::Col(i) => &t[*i],
            ResolvedOperand::Const(v) => v,
        }
    }
}

/// A selection condition over a single tuple: comparisons combined with
/// boolean connectives. This is the `φ` of `σ_φ` in the paper.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Pred {
    /// Always true (`σ_true` is the identity).
    True,
    /// Always false.
    False,
    /// Binary comparison between attributes and/or constants.
    Cmp(Operand, CmpOp, Operand),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

impl Pred {
    /// `attr = 'constant'` shorthand.
    pub fn eq_const(a: impl Into<Attr>, v: impl Into<Value>) -> Pred {
        Pred::Cmp(Operand::Attr(a.into()), CmpOp::Eq, Operand::Const(v.into()))
    }

    /// `attr1 = attr2` shorthand.
    pub fn eq_attr(a: impl Into<Attr>, b: impl Into<Attr>) -> Pred {
        Pred::Cmp(Operand::Attr(a.into()), CmpOp::Eq, Operand::Attr(b.into()))
    }

    /// `attr1 ≠ attr2` shorthand.
    pub fn ne_attr(a: impl Into<Attr>, b: impl Into<Attr>) -> Pred {
        Pred::Cmp(Operand::Attr(a.into()), CmpOp::Ne, Operand::Attr(b.into()))
    }

    /// General comparison shorthand.
    pub fn cmp(l: Operand, op: CmpOp, r: Operand) -> Pred {
        Pred::Cmp(l, op, r)
    }

    /// Conjunction, flattening trivial cases.
    pub fn and(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::True, p) | (p, Pred::True) => p,
            (Pred::False, _) | (_, Pred::False) => Pred::False,
            (a, b) => Pred::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction, flattening trivial cases.
    pub fn or(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::True, _) | (_, Pred::True) => Pred::True,
            (Pred::False, p) | (p, Pred::False) => p,
            (a, b) => Pred::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        match self {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::Not(inner) => *inner,
            p => Pred::Not(Box::new(p)),
        }
    }

    /// All attributes referenced by the condition — the `Attrs(φ)` of the
    /// Figure-7 side conditions.
    pub fn attrs(&self) -> BTreeSet<Attr> {
        let mut out = BTreeSet::new();
        self.collect_attrs(&mut out);
        out
    }

    /// The top-level conjuncts of this predicate, flattened left to right
    /// (`p` itself when it is not a conjunction).
    pub fn conjuncts(&self) -> Vec<Pred> {
        fn walk(p: &Pred, out: &mut Vec<Pred>) {
            match p {
                Pred::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other.clone()),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    fn collect_attrs(&self, out: &mut BTreeSet<Attr>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Cmp(l, _, r) => {
                if let Operand::Attr(a) = l {
                    out.insert(a.clone());
                }
                if let Operand::Attr(a) = r {
                    out.insert(a.clone());
                }
            }
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_attrs(out);
                b.collect_attrs(out);
            }
            Pred::Not(a) => a.collect_attrs(out),
        }
    }

    /// Rewrite attribute references through a renaming map.
    pub fn rename_attrs(&self, map: &dyn Fn(&Attr) -> Attr) -> Pred {
        let ren = |o: &Operand| match o {
            Operand::Attr(a) => Operand::Attr(map(a)),
            Operand::Const(v) => Operand::Const(*v),
        };
        match self {
            Pred::True => Pred::True,
            Pred::False => Pred::False,
            Pred::Cmp(l, op, r) => Pred::Cmp(ren(l), *op, ren(r)),
            Pred::And(a, b) => {
                Pred::And(Box::new(a.rename_attrs(map)), Box::new(b.rename_attrs(map)))
            }
            Pred::Or(a, b) => {
                Pred::Or(Box::new(a.rename_attrs(map)), Box::new(b.rename_attrs(map)))
            }
            Pred::Not(a) => Pred::Not(Box::new(a.rename_attrs(map))),
        }
    }

    /// Compile the predicate against a schema into a closure evaluable on
    /// tuples of that schema. Resolution happens once; evaluation per tuple
    /// is index-based.
    pub fn compile(&self, schema: &Schema) -> Result<CompiledPred> {
        Ok(CompiledPred {
            prog: self.compile_inner(schema)?,
        })
    }

    fn compile_inner(&self, schema: &Schema) -> Result<Node> {
        Ok(match self {
            Pred::True => Node::Const(true),
            Pred::False => Node::Const(false),
            Pred::Cmp(l, op, r) => Node::Cmp(l.resolve(schema)?, *op, r.resolve(schema)?),
            Pred::And(a, b) => Node::And(
                Box::new(a.compile_inner(schema)?),
                Box::new(b.compile_inner(schema)?),
            ),
            Pred::Or(a, b) => Node::Or(
                Box::new(a.compile_inner(schema)?),
                Box::new(b.compile_inner(schema)?),
            ),
            Pred::Not(a) => Node::Not(Box::new(a.compile_inner(schema)?)),
        })
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::False => write!(f, "false"),
            Pred::Cmp(l, op, r) => write!(f, "{l}{op}{r}"),
            Pred::And(a, b) => write!(f, "({a} ∧ {b})"),
            Pred::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Pred::Not(a) => write!(f, "¬{a}"),
        }
    }
}

enum Node {
    Const(bool),
    Cmp(ResolvedOperand, CmpOp, ResolvedOperand),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
}

/// A predicate resolved against a concrete schema.
pub struct CompiledPred {
    prog: Node,
}

impl CompiledPred {
    /// Evaluate on one tuple of the schema the predicate was compiled for.
    pub fn eval(&self, t: &[Value]) -> bool {
        Self::eval_node(&self.prog, t)
    }

    fn eval_node(n: &Node, t: &[Value]) -> bool {
        match n {
            Node::Const(b) => *b,
            Node::Cmp(l, op, r) => op.apply(l.get(t), r.get(t)),
            Node::And(a, b) => Self::eval_node(a, t) && Self::eval_node(b, t),
            Node::Or(a, b) => Self::eval_node(a, t) || Self::eval_node(b, t),
            Node::Not(a) => !Self::eval_node(a, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr;

    fn schema() -> Schema {
        Schema::of(&["A", "B"])
    }

    fn tup(a: i64, b: i64) -> Vec<Value> {
        vec![Value::int(a), Value::int(b)]
    }

    #[test]
    fn compare_ops() {
        for (op, lt, eq, gt) in [
            (CmpOp::Eq, false, true, false),
            (CmpOp::Ne, true, false, true),
            (CmpOp::Lt, true, false, false),
            (CmpOp::Le, true, true, false),
            (CmpOp::Gt, false, false, true),
            (CmpOp::Ge, false, true, true),
        ] {
            assert_eq!(op.apply(&Value::int(1), &Value::int(2)), lt, "{op:?} lt");
            assert_eq!(op.apply(&Value::int(2), &Value::int(2)), eq, "{op:?} eq");
            assert_eq!(op.apply(&Value::int(3), &Value::int(2)), gt, "{op:?} gt");
        }
    }

    #[test]
    fn flip_roundtrip() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
            assert_eq!(
                op.apply(&Value::int(1), &Value::int(2)),
                op.flip().apply(&Value::int(2), &Value::int(1))
            );
        }
    }

    #[test]
    fn compiled_eval() {
        let p = Pred::eq_attr("A", "B").or(Pred::eq_const("A", 7));
        let c = p.compile(&schema()).unwrap();
        assert!(c.eval(&tup(3, 3)));
        assert!(c.eval(&tup(7, 9)));
        assert!(!c.eval(&tup(1, 2)));
    }

    #[test]
    fn unknown_attr_rejected() {
        let p = Pred::eq_attr("A", "Z");
        assert!(matches!(
            p.compile(&schema()),
            Err(RelalgError::UnknownAttr { .. })
        ));
    }

    #[test]
    fn attrs_collects() {
        let p = Pred::eq_attr("A", "B").and(Pred::eq_const("C", 1)).not();
        let attrs = p.attrs();
        assert_eq!(attrs.len(), 3);
        assert!(attrs.contains(&attr("C")));
    }

    #[test]
    fn simplifying_connectives() {
        assert_eq!(
            Pred::True.and(Pred::eq_const("A", 1)),
            Pred::eq_const("A", 1)
        );
        assert_eq!(Pred::False.and(Pred::eq_const("A", 1)), Pred::False);
        assert_eq!(
            Pred::False.or(Pred::eq_const("A", 1)),
            Pred::eq_const("A", 1)
        );
        assert_eq!(Pred::True.not(), Pred::False);
        assert_eq!(Pred::eq_const("A", 1).not().not(), Pred::eq_const("A", 1));
    }

    #[test]
    fn rename_attrs_rewrites() {
        let p = Pred::eq_attr("A", "B");
        let q = p.rename_attrs(&|a: &Attr| {
            if a.name() == "A" {
                attr("X")
            } else {
                a.clone()
            }
        });
        assert_eq!(q, Pred::eq_attr("X", "B"));
    }
}
