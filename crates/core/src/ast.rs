use std::fmt;

use relalg::{AggCall, Attr, Pred};

/// A World-set Algebra query (Section 4.1 of the paper).
///
/// The relational core is `σ`, `π`, `δ`, `×`, `∪`, `∩`, `−`; the world-set
/// operators are `χ_U` (choice-of), `poss`/`cert`, the grouping operators
/// `pγ^V_U`/`cγ^V_U`, and the `repair-by-key` extension (Section 4.1,
/// "Extending World-set Algebra"). Joins `⋈_φ` are sugar for `σ_φ(q₁ × q₂)`.
/// SQL's grouping with aggregation (`γ`) and `[not] in`/`[not] exists`
/// (semijoin `⋉` and antijoin `▷`) are relational operators too, lifted to
/// world-sets like the others: each applies to the answer of every world.
///
/// Builder methods construct queries fluently:
///
/// ```
/// use wsa::Query;
/// use relalg::{attrs, Pred};
///
/// // cert(π_Arr(χ_Dep(HFlights)))  — the trip-planning query (Example 5.6)
/// let q = Query::rel("HFlights")
///     .choice(attrs(&["Dep"]))
///     .project(attrs(&["Arr"]))
///     .cert();
/// assert_eq!(q.to_string(), "cert(π{Arr}(χ{Dep}(HFlights)))");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Query {
    /// Reference to a base relation `Rᵢ` of the world schema.
    Rel(String),
    /// Selection `σ_φ(q)`.
    Select(Pred, Box<Query>),
    /// Projection `π_A(q)`.
    Project(Vec<Attr>, Box<Query>),
    /// Renaming `δ_{A→B}(q)`.
    Rename(Vec<(Attr, Attr)>, Box<Query>),
    /// Product `q₁ × q₂` (disjoint attribute sets).
    Product(Box<Query>, Box<Query>),
    /// Union `q₁ ∪ q₂`.
    Union(Box<Query>, Box<Query>),
    /// Intersection `q₁ ∩ q₂`.
    Intersect(Box<Query>, Box<Query>),
    /// Difference `q₁ − q₂`.
    Difference(Box<Query>, Box<Query>),
    /// Choice-of `χ_U(q)`: one world per value combination of `U`.
    Choice(Vec<Attr>, Box<Query>),
    /// `poss(q)`: union of the answer across all worlds.
    Poss(Box<Query>),
    /// `cert(q)`: intersection of the answer across all worlds.
    Cert(Box<Query>),
    /// `pγ^V_U(q)`: group worlds agreeing on `π_U(answer)`; within each
    /// group replace the answer by the union of `π_V(answer)`.
    PossGroup {
        /// Grouping attributes `U`.
        group: Vec<Attr>,
        /// Projection attributes `V`.
        proj: Vec<Attr>,
        /// Input query.
        input: Box<Query>,
    },
    /// `cγ^V_U(q)`: like [`Query::PossGroup`] with intersection.
    CertGroup {
        /// Grouping attributes `U`.
        group: Vec<Attr>,
        /// Projection attributes `V`.
        proj: Vec<Attr>,
        /// Input query.
        input: Box<Query>,
    },
    /// `repair-by-key_U(q)`: one world per maximal repair in which `U` is a
    /// key of the answer relation (NP-hard in general, Proposition 4.2;
    /// first-order when the repair is key-local, see [`crate::repair`]).
    RepairKey(Vec<Attr>, Box<Query>),
    /// Grouping with aggregation `γ_{G; f(a) as o,…}(q)`: one row per
    /// distinct `G`-value of the answer, aggregating its distinct tuples
    /// ([`relalg::Relation::aggregate`]; a world with an empty answer gets an
    /// empty one).
    Aggregate {
        /// Grouping attributes `G`.
        group: Vec<Attr>,
        /// The aggregates.
        aggs: Vec<AggCall>,
        /// Input query.
        input: Box<Query>,
    },
    /// Semijoin `q₁ ⋉_{l=r,…} q₂` (`anti`: antijoin `q₁ ▷ q₂`): the tuples
    /// of `q₁`'s answer whose `l` columns equal the `r` columns of some
    /// (`anti`: no) tuple of `q₂`'s answer. No pairs is `[not] exists`.
    SemiJoin {
        /// The `(q₁ column, q₂ column)` pairs.
        on: Vec<(Attr, Attr)>,
        /// Antijoin instead of semijoin.
        anti: bool,
        /// The filtered query `q₁`.
        left: Box<Query>,
        /// The probed query `q₂`.
        right: Box<Query>,
    },
}

impl Query {
    /// Reference a base relation.
    pub fn rel(name: &str) -> Query {
        Query::Rel(name.to_string())
    }

    /// `σ_φ(self)`.
    pub fn select(self, pred: Pred) -> Query {
        Query::Select(pred, Box::new(self))
    }

    /// `π_A(self)`.
    pub fn project(self, attrs: Vec<Attr>) -> Query {
        Query::Project(attrs, Box::new(self))
    }

    /// `δ_{A→B}(self)`.
    pub fn rename(self, map: Vec<(Attr, Attr)>) -> Query {
        Query::Rename(map, Box::new(self))
    }

    /// `self × other`.
    pub fn product(self, other: Query) -> Query {
        Query::Product(Box::new(self), Box::new(other))
    }

    /// `self ⋈_φ other` — sugar for `σ_φ(self × other)`.
    pub fn join(self, other: Query, pred: Pred) -> Query {
        self.product(other).select(pred)
    }

    /// `self ∪ other`.
    pub fn union(self, other: Query) -> Query {
        Query::Union(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    pub fn intersect(self, other: Query) -> Query {
        Query::Intersect(Box::new(self), Box::new(other))
    }

    /// `self − other`.
    pub fn difference(self, other: Query) -> Query {
        Query::Difference(Box::new(self), Box::new(other))
    }

    /// `χ_U(self)`.
    pub fn choice(self, attrs: Vec<Attr>) -> Query {
        Query::Choice(attrs, Box::new(self))
    }

    /// `poss(self)`.
    pub fn poss(self) -> Query {
        Query::Poss(Box::new(self))
    }

    /// `cert(self)`.
    pub fn cert(self) -> Query {
        Query::Cert(Box::new(self))
    }

    /// `pγ^V_U(self)`.
    pub fn poss_group(self, group: Vec<Attr>, proj: Vec<Attr>) -> Query {
        Query::PossGroup {
            group,
            proj,
            input: Box::new(self),
        }
    }

    /// `cγ^V_U(self)`.
    pub fn cert_group(self, group: Vec<Attr>, proj: Vec<Attr>) -> Query {
        Query::CertGroup {
            group,
            proj,
            input: Box::new(self),
        }
    }

    /// `repair-by-key_U(self)`.
    pub fn repair_by_key(self, key: Vec<Attr>) -> Query {
        Query::RepairKey(key, Box::new(self))
    }

    /// `γ_{group; aggs}(self)`.
    pub fn aggregate(self, group: Vec<Attr>, aggs: Vec<AggCall>) -> Query {
        Query::Aggregate {
            group,
            aggs,
            input: Box::new(self),
        }
    }

    /// `self ⋉_{on} other` (`anti`: `self ▷_{on} other`).
    pub fn semijoin(self, other: Query, on: Vec<(Attr, Attr)>, anti: bool) -> Query {
        Query::SemiJoin {
            on,
            anti,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// The operand queries, left to right.
    pub fn children(&self) -> Vec<&Query> {
        match self {
            Query::Rel(_) => vec![],
            Query::Select(_, q)
            | Query::Project(_, q)
            | Query::Rename(_, q)
            | Query::Choice(_, q)
            | Query::Poss(q)
            | Query::Cert(q)
            | Query::PossGroup { input: q, .. }
            | Query::CertGroup { input: q, .. }
            | Query::RepairKey(_, q)
            | Query::Aggregate { input: q, .. } => vec![q],
            Query::Product(a, b)
            | Query::Union(a, b)
            | Query::Intersect(a, b)
            | Query::Difference(a, b)
            | Query::SemiJoin {
                left: a, right: b, ..
            } => vec![a, b],
        }
    }

    /// Number of operator nodes (for plan-size comparisons).
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|q| q.size()).sum::<usize>()
    }

    /// The base-relation names the query references, in left-to-right order
    /// of occurrence (a name referenced twice appears twice).
    pub fn rel_names(&self) -> Vec<String> {
        fn collect(q: &Query, out: &mut Vec<String>) {
            match q {
                Query::Rel(name) => out.push(name.clone()),
                _ => q.children().into_iter().for_each(|c| collect(c, out)),
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out
    }

    /// Whether the query contains any world-set operator (χ, poss, cert,
    /// γ, repair). A query without them is plain relational algebra.
    pub fn is_relational(&self) -> bool {
        match self {
            Query::Rel(_) => true,
            Query::Select(_, q)
            | Query::Project(_, q)
            | Query::Rename(_, q)
            | Query::Aggregate { input: q, .. } => q.is_relational(),
            Query::Product(a, b)
            | Query::Union(a, b)
            | Query::Intersect(a, b)
            | Query::Difference(a, b)
            | Query::SemiJoin {
                left: a, right: b, ..
            } => a.is_relational() && b.is_relational(),
            _ => false,
        }
    }
}

fn attr_list(attrs: &[Attr]) -> String {
    attrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Rel(name) => write!(f, "{name}"),
            Query::Select(p, q) => write!(f, "σ[{p}]({q})"),
            Query::Project(attrs, q) => write!(f, "π{{{}}}({q})", attr_list(attrs)),
            Query::Rename(map, q) => {
                let m = map
                    .iter()
                    .map(|(s, d)| format!("{s}→{d}"))
                    .collect::<Vec<_>>()
                    .join(",");
                write!(f, "δ{{{m}}}({q})")
            }
            Query::Product(a, b) => write!(f, "({a} × {b})"),
            Query::Union(a, b) => write!(f, "({a} ∪ {b})"),
            Query::Intersect(a, b) => write!(f, "({a} ∩ {b})"),
            Query::Difference(a, b) => write!(f, "({a} − {b})"),
            Query::Choice(attrs, q) => write!(f, "χ{{{}}}({q})", attr_list(attrs)),
            Query::Poss(q) => write!(f, "poss({q})"),
            Query::Cert(q) => write!(f, "cert({q})"),
            Query::PossGroup { group, proj, input } => {
                write!(f, "pγ{{{}|{}}}({input})", attr_list(proj), attr_list(group))
            }
            Query::CertGroup { group, proj, input } => {
                write!(f, "cγ{{{}|{}}}({input})", attr_list(proj), attr_list(group))
            }
            Query::RepairKey(attrs, q) => {
                write!(f, "repair-key{{{}}}({q})", attr_list(attrs))
            }
            Query::Aggregate { group, aggs, input } => {
                let aggs: Vec<String> = aggs.iter().map(|a| a.to_string()).collect();
                write!(f, "γ{{{};{}}}({input})", attr_list(group), aggs.join(","))
            }
            Query::SemiJoin {
                on,
                anti,
                left,
                right,
            } => {
                let on: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
                let op = if *anti { "▷" } else { "⋉" };
                write!(f, "({left} {op}{{{}}} {right})", on.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::attrs;

    #[test]
    fn builders_and_display() {
        let q = Query::rel("R")
            .choice(attrs(&["A"]))
            .project(attrs(&["B"]))
            .poss();
        assert_eq!(q.to_string(), "poss(π{B}(χ{A}(R)))");
        assert_eq!(q.size(), 4);
    }

    #[test]
    fn join_is_sugar() {
        let q = Query::rel("R").join(Query::rel("S"), Pred::eq_attr("A", "C"));
        assert!(matches!(q, Query::Select(_, _)));
        assert_eq!(q.to_string(), "σ[A=C]((R × S))");
    }

    #[test]
    fn relational_detection() {
        assert!(Query::rel("R")
            .select(Pred::True)
            .product(Query::rel("S"))
            .is_relational());
        assert!(!Query::rel("R").choice(attrs(&["A"])).is_relational());
        assert!(!Query::rel("R").poss().is_relational());
    }

    #[test]
    fn group_display() {
        let q = Query::rel("R").poss_group(attrs(&["A"]), attrs(&["A", "B"]));
        assert_eq!(q.to_string(), "pγ{A,B|A}(R)");
        let q = Query::rel("R").cert_group(attrs(&["A"]), attrs(&["B"]));
        assert_eq!(q.to_string(), "cγ{B|A}(R)");
    }
}
