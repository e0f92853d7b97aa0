use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::{AggCall, Attr, Pred, RelalgError, Relation, Result, Schema};

/// The node of a relational algebra expression.
///
/// Expressions are immutable and reference-counted ([`Expr`] wraps an
/// `Arc<ExprKind>`), so the WSA-to-RA translation can build *DAGs*: the same
/// subplan (e.g. the world table `W`) is shared by many consumers and is
/// evaluated once (the evaluator memoizes by node identity).
#[derive(Debug, PartialEq)]
pub enum ExprKind {
    /// A named base table, resolved against a [`crate::Catalog`].
    Table(String),
    /// A literal relation (e.g. the one-world table `{⟨⟩}`), shared so that
    /// evaluation returns it without copying.
    Lit(Arc<Relation>),
    /// Selection `σ_φ(e)`.
    Select(Pred, Expr),
    /// Projection `π_A(e)`.
    Project(Vec<Attr>, Expr),
    /// Generalized projection `π_{src as dst, …}(e)`; supports the Figure-6
    /// idiom `π_{D, V, B as V_B}` that copies choice attributes into world-id
    /// columns.
    ProjectAs(Vec<(Attr, Attr)>, Expr),
    /// Renaming `δ_{src→dst}(e)`.
    Rename(Vec<(Attr, Attr)>, Expr),
    /// Cartesian product `e₁ × e₂` (disjoint schemas).
    Product(Expr, Expr),
    /// Union `e₁ ∪ e₂`.
    Union(Expr, Expr),
    /// Intersection `e₁ ∩ e₂`.
    Intersect(Expr, Expr),
    /// Difference `e₁ − e₂`.
    Difference(Expr, Expr),
    /// Natural join `e₁ ⋈ e₂`.
    NaturalJoin(Expr, Expr),
    /// Theta join `e₁ ⋈_φ e₂` (disjoint schemas).
    ThetaJoin(Pred, Expr, Expr),
    /// Division `e₁ ÷ e₂`.
    Divide(Expr, Expr),
    /// Modified left outer join `e₁ =⊲⊳ e₂` (Remark 5.5).
    OuterPadJoin(Expr, Expr),
    /// Grouping with aggregation `γ_{G; f(a) as o,…}(e)`, over the distinct
    /// tuples of each group (see [`Relation::aggregate`]).
    Aggregate(Vec<Attr>, Vec<AggCall>, Expr),
    /// Semijoin `e₁ ⋉_{l=r,…} e₂` on explicit column pairs.
    SemiJoin(Vec<(Attr, Attr)>, Expr, Expr),
    /// Antijoin `e₁ ▷_{l=r,…} e₂`: the tuples of `e₁` without a partner.
    AntiJoin(Vec<(Attr, Attr)>, Expr, Expr),
}

/// A shareable relational algebra expression.
#[derive(Clone, Debug)]
pub struct Expr(pub(crate) Arc<ExprKind>);

impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}
impl Eq for Expr {}

impl Expr {
    /// Reference a base table by name.
    pub fn table(name: &str) -> Expr {
        Expr(Arc::new(ExprKind::Table(name.to_string())))
    }

    /// Embed a literal relation (owned or already shared).
    pub fn lit(rel: impl Into<Arc<Relation>>) -> Expr {
        Expr(Arc::new(ExprKind::Lit(rel.into())))
    }

    /// The node this expression points at.
    pub fn kind(&self) -> &ExprKind {
        &self.0
    }

    /// Stable identity for memoization.
    pub(crate) fn id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// `σ_φ(self)`.
    pub fn select(&self, pred: Pred) -> Expr {
        Expr(Arc::new(ExprKind::Select(pred, self.clone())))
    }

    /// `π_A(self)`.
    pub fn project(&self, attrs: Vec<Attr>) -> Expr {
        Expr(Arc::new(ExprKind::Project(attrs, self.clone())))
    }

    /// `π_{src as dst}(self)`.
    pub fn project_as(&self, list: Vec<(Attr, Attr)>) -> Expr {
        Expr(Arc::new(ExprKind::ProjectAs(list, self.clone())))
    }

    /// `δ_{src→dst}(self)`.
    pub fn rename(&self, map: Vec<(Attr, Attr)>) -> Expr {
        Expr(Arc::new(ExprKind::Rename(map, self.clone())))
    }

    /// `self × other`.
    pub fn product(&self, other: &Expr) -> Expr {
        Expr(Arc::new(ExprKind::Product(self.clone(), other.clone())))
    }

    /// `self ∪ other`.
    pub fn union(&self, other: &Expr) -> Expr {
        Expr(Arc::new(ExprKind::Union(self.clone(), other.clone())))
    }

    /// `self ∩ other`.
    pub fn intersect(&self, other: &Expr) -> Expr {
        Expr(Arc::new(ExprKind::Intersect(self.clone(), other.clone())))
    }

    /// `self − other`.
    pub fn difference(&self, other: &Expr) -> Expr {
        Expr(Arc::new(ExprKind::Difference(self.clone(), other.clone())))
    }

    /// `self ⋈ other`.
    pub fn natural_join(&self, other: &Expr) -> Expr {
        Expr(Arc::new(ExprKind::NaturalJoin(self.clone(), other.clone())))
    }

    /// `self ⋈_φ other`.
    pub fn theta_join(&self, other: &Expr, pred: Pred) -> Expr {
        Expr(Arc::new(ExprKind::ThetaJoin(
            pred,
            self.clone(),
            other.clone(),
        )))
    }

    /// `self ÷ other`.
    pub fn divide(&self, other: &Expr) -> Expr {
        Expr(Arc::new(ExprKind::Divide(self.clone(), other.clone())))
    }

    /// `self =⊲⊳ other`.
    pub fn outer_pad_join(&self, other: &Expr) -> Expr {
        Expr(Arc::new(ExprKind::OuterPadJoin(
            self.clone(),
            other.clone(),
        )))
    }

    /// `γ_{group; aggs}(self)`.
    pub fn aggregate(&self, group: Vec<Attr>, aggs: Vec<AggCall>) -> Expr {
        Expr(Arc::new(ExprKind::Aggregate(group, aggs, self.clone())))
    }

    /// `self ⋉_{on} other` (`anti`: `self ▷_{on} other`).
    pub fn semijoin(&self, other: &Expr, on: Vec<(Attr, Attr)>, anti: bool) -> Expr {
        Expr(Arc::new(if anti {
            ExprKind::AntiJoin(on, self.clone(), other.clone())
        } else {
            ExprKind::SemiJoin(on, self.clone(), other.clone())
        }))
    }

    /// Number of distinct operator nodes in the DAG (shared nodes counted
    /// once). Together with [`Expr::tree_size`] this quantifies the
    /// polynomial-size claim after Theorem 5.7.
    pub fn dag_size(&self) -> usize {
        let mut seen = HashSet::new();
        self.walk(&mut seen);
        seen.len()
    }

    fn walk(&self, seen: &mut HashSet<usize>) {
        if seen.insert(self.id()) {
            self.children().for_each(|c| c.walk(seen));
        }
    }

    /// Number of operator nodes when the DAG is expanded to a tree.
    pub fn tree_size(&self) -> usize {
        1 + self.children().map(Expr::tree_size).sum::<usize>()
    }

    /// The node's operands, left to right: none for a table or a literal.
    pub fn children(&self) -> impl Iterator<Item = &Expr> {
        let (a, b) = match self.kind() {
            ExprKind::Table(_) | ExprKind::Lit(_) => (None, None),
            ExprKind::Select(_, e)
            | ExprKind::Project(_, e)
            | ExprKind::ProjectAs(_, e)
            | ExprKind::Rename(_, e)
            | ExprKind::Aggregate(_, _, e) => (Some(e), None),
            ExprKind::Product(a, b)
            | ExprKind::Union(a, b)
            | ExprKind::Intersect(a, b)
            | ExprKind::Difference(a, b)
            | ExprKind::NaturalJoin(a, b)
            | ExprKind::ThetaJoin(_, a, b)
            | ExprKind::Divide(a, b)
            | ExprKind::OuterPadJoin(a, b)
            | ExprKind::SemiJoin(_, a, b)
            | ExprKind::AntiJoin(_, a, b) => (Some(a), Some(b)),
        };
        a.into_iter().chain(b)
    }

    /// The same operator over new operands, given in [`Expr::children`]
    /// order. A table or a literal is returned as it is.
    pub(crate) fn with_children(&self, mut kids: impl Iterator<Item = Expr>) -> Expr {
        let mut kid = || kids.next().expect("one operand per child");
        Expr(Arc::new(match self.kind() {
            ExprKind::Table(_) | ExprKind::Lit(_) => return self.clone(),
            ExprKind::Select(p, _) => ExprKind::Select(p.clone(), kid()),
            ExprKind::Project(a, _) => ExprKind::Project(a.clone(), kid()),
            ExprKind::ProjectAs(l, _) => ExprKind::ProjectAs(l.clone(), kid()),
            ExprKind::Rename(m, _) => ExprKind::Rename(m.clone(), kid()),
            ExprKind::Aggregate(g, a, _) => ExprKind::Aggregate(g.clone(), a.clone(), kid()),
            ExprKind::Product(..) => ExprKind::Product(kid(), kid()),
            ExprKind::Union(..) => ExprKind::Union(kid(), kid()),
            ExprKind::Intersect(..) => ExprKind::Intersect(kid(), kid()),
            ExprKind::Difference(..) => ExprKind::Difference(kid(), kid()),
            ExprKind::NaturalJoin(..) => ExprKind::NaturalJoin(kid(), kid()),
            ExprKind::ThetaJoin(p, ..) => ExprKind::ThetaJoin(p.clone(), kid(), kid()),
            ExprKind::Divide(..) => ExprKind::Divide(kid(), kid()),
            ExprKind::OuterPadJoin(..) => ExprKind::OuterPadJoin(kid(), kid()),
            ExprKind::SemiJoin(on, ..) => ExprKind::SemiJoin(on.clone(), kid(), kid()),
            ExprKind::AntiJoin(on, ..) => ExprKind::AntiJoin(on.clone(), kid(), kid()),
        }))
    }

    /// Static schema inference given the schemas of base tables.
    pub fn infer_schema(&self, base: &dyn Fn(&str) -> Option<Schema>) -> Result<Schema> {
        match self.kind() {
            ExprKind::Table(name) => {
                base(name).ok_or_else(|| RelalgError::UnknownTable { name: name.clone() })
            }
            ExprKind::Lit(rel) => Ok(rel.schema().clone()),
            ExprKind::Select(_, e) => e.infer_schema(base),
            ExprKind::Project(attrs, e) => {
                let s = e.infer_schema(base)?;
                for a in attrs {
                    if !s.contains(a) {
                        return Err(RelalgError::UnknownAttr {
                            attr: a.clone(),
                            schema: s,
                        });
                    }
                }
                Ok(Schema::new(attrs.clone()))
            }
            ExprKind::ProjectAs(list, e) => {
                let s = e.infer_schema(base)?;
                for (src, _) in list {
                    if !s.contains(src) {
                        return Err(RelalgError::UnknownAttr {
                            attr: src.clone(),
                            schema: s,
                        });
                    }
                }
                Schema::try_new(list.iter().map(|(_, d)| d.clone()).collect()).ok_or_else(|| {
                    RelalgError::DuplicateAttr {
                        attr: Attr::new("?"),
                    }
                })
            }
            ExprKind::Rename(map, e) => {
                let s = e.infer_schema(base)?;
                let attrs: Vec<Attr> = s
                    .attrs()
                    .iter()
                    .map(|a| {
                        map.iter()
                            .find(|(src, _)| src == a)
                            .map(|(_, d)| d.clone())
                            .unwrap_or_else(|| a.clone())
                    })
                    .collect();
                Schema::try_new(attrs).ok_or_else(|| RelalgError::DuplicateAttr {
                    attr: Attr::new("?"),
                })
            }
            ExprKind::Product(a, b) | ExprKind::ThetaJoin(_, a, b) => {
                let sa = a.infer_schema(base)?;
                let sb = b.infer_schema(base)?;
                let mut attrs = sa.attrs().to_vec();
                attrs.extend_from_slice(sb.attrs());
                Schema::try_new(attrs).ok_or(RelalgError::NotDisjoint {
                    left: sa,
                    right: sb,
                })
            }
            ExprKind::Union(a, b) | ExprKind::Intersect(a, b) | ExprKind::Difference(a, b) => {
                let sa = a.infer_schema(base)?;
                let sb = b.infer_schema(base)?;
                if !sa.same_attr_set(&sb) {
                    return Err(RelalgError::SchemaMismatch {
                        left: sa,
                        right: sb,
                    });
                }
                Ok(sa)
            }
            ExprKind::NaturalJoin(a, b) | ExprKind::OuterPadJoin(a, b) => {
                let sa = a.infer_schema(base)?;
                let sb = b.infer_schema(base)?;
                let mut attrs = sa.attrs().to_vec();
                for x in sb.attrs() {
                    if !sa.contains(x) {
                        attrs.push(x.clone());
                    }
                }
                Ok(Schema::new(attrs))
            }
            ExprKind::Divide(a, b) => {
                let sa = a.infer_schema(base)?;
                let sb = b.infer_schema(base)?;
                if !sa.contains_all(sb.attrs()) {
                    return Err(RelalgError::BadDivision {
                        left: sa,
                        right: sb,
                    });
                }
                Ok(Schema::new(sa.minus(sb.attrs())))
            }
            ExprKind::Aggregate(group, aggs, e) => {
                let s = e.infer_schema(base)?;
                let args = aggs.iter().filter_map(|a| a.arg.as_ref());
                check_attrs(group.iter().chain(args), &s)?;
                let mut attrs = group.clone();
                attrs.extend(aggs.iter().map(|a| a.out.clone()));
                Schema::try_new(attrs).ok_or_else(|| RelalgError::DuplicateAttr {
                    attr: Attr::new("?"),
                })
            }
            ExprKind::SemiJoin(on, a, b) | ExprKind::AntiJoin(on, a, b) => {
                let sa = a.infer_schema(base)?;
                let sb = b.infer_schema(base)?;
                check_attrs(on.iter().map(|(l, _)| l), &sa)?;
                check_attrs(on.iter().map(|(_, r)| r), &sb)?;
                Ok(sa)
            }
        }
    }
}

/// Every attribute of `attrs` is in `s`.
fn check_attrs<'a>(mut attrs: impl Iterator<Item = &'a Attr>, s: &Schema) -> Result<()> {
    match attrs.find(|a| !s.contains(a)) {
        Some(a) => Err(RelalgError::UnknownAttr {
            attr: a.clone(),
            schema: s.clone(),
        }),
        None => Ok(()),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn attr_list(attrs: &[Attr]) -> String {
            attrs
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(",")
        }
        fn pair_list(list: &[(Attr, Attr)], arrow: &str) -> String {
            list.iter()
                .map(|(s, d)| {
                    if s == d {
                        s.to_string()
                    } else {
                        format!("{s}{arrow}{d}")
                    }
                })
                .collect::<Vec<_>>()
                .join(",")
        }
        match self.kind() {
            ExprKind::Table(name) => write!(f, "{name}"),
            ExprKind::Lit(rel) => {
                if **rel == Relation::unit() {
                    write!(f, "{{⟨⟩}}")
                } else {
                    write!(f, "{rel:?}")
                }
            }
            ExprKind::Select(p, e) => write!(f, "σ[{p}]({e})"),
            ExprKind::Project(attrs, e) => write!(f, "π{{{}}}({e})", attr_list(attrs)),
            ExprKind::ProjectAs(list, e) => {
                write!(f, "π{{{}}}({e})", pair_list(list, " as "))
            }
            ExprKind::Rename(map, e) => write!(f, "δ{{{}}}({e})", pair_list(map, "→")),
            ExprKind::Product(a, b) => write!(f, "({a} × {b})"),
            ExprKind::Union(a, b) => write!(f, "({a} ∪ {b})"),
            ExprKind::Intersect(a, b) => write!(f, "({a} ∩ {b})"),
            ExprKind::Difference(a, b) => write!(f, "({a} − {b})"),
            ExprKind::NaturalJoin(a, b) => write!(f, "({a} ⋈ {b})"),
            ExprKind::ThetaJoin(p, a, b) => write!(f, "({a} ⋈[{p}] {b})"),
            ExprKind::Divide(a, b) => write!(f, "({a} ÷ {b})"),
            ExprKind::OuterPadJoin(a, b) => write!(f, "({a} =⊲⊳ {b})"),
            ExprKind::Aggregate(group, aggs, e) => {
                let aggs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                write!(f, "γ{{{};{}}}({e})", attr_list(group), aggs.join(","))
            }
            ExprKind::SemiJoin(on, a, b) => write!(f, "({a} ⋉[{}] {b})", pair_list(on, "=")),
            ExprKind::AntiJoin(on, a, b) => write!(f, "({a} ▷[{}] {b})", pair_list(on, "=")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attr, attrs};

    fn base(name: &str) -> Option<Schema> {
        match name {
            "R" => Some(Schema::of(&["A", "B"])),
            "S" => Some(Schema::of(&["C", "D"])),
            _ => None,
        }
    }

    #[test]
    fn schema_inference() {
        let e = Expr::table("R")
            .project(attrs(&["A"]))
            .product(&Expr::table("S"));
        assert_eq!(e.infer_schema(&base).unwrap(), Schema::of(&["A", "C", "D"]));
    }

    #[test]
    fn schema_errors_propagate() {
        assert!(Expr::table("Z").infer_schema(&base).is_err());
        assert!(Expr::table("R")
            .project(attrs(&["Z"]))
            .infer_schema(&base)
            .is_err());
        assert!(Expr::table("R")
            .union(&Expr::table("S"))
            .infer_schema(&base)
            .is_err());
        assert!(Expr::table("R")
            .product(&Expr::table("R"))
            .infer_schema(&base)
            .is_err());
    }

    #[test]
    fn divide_schema() {
        let e = Expr::table("R").divide(&Expr::table("S").project_as(vec![(attr("C"), attr("B"))]));
        assert_eq!(e.infer_schema(&base).unwrap(), Schema::of(&["A"]));
    }

    #[test]
    fn sizes_count_sharing() {
        let shared = Expr::table("R").select(Pred::True);
        let e = shared.product(&shared.clone().project(attrs(&["A"])));
        assert_eq!(e.dag_size(), 4); // table, select, project, product
        assert_eq!(e.tree_size(), 6); // table+select duplicated in tree view
    }

    #[test]
    fn display_is_algebraic() {
        let e = Expr::table("R")
            .select(Pred::eq_const("A", 1))
            .project(attrs(&["B"]));
        assert_eq!(e.to_string(), "π{B}(σ[A=1](R))");
    }
}
