//! The I-SQL abstract syntax (Figure 1 of the paper).

use std::fmt;

/// `possible` / `certain` quantifiers on the select list.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Quant {
    /// Union across worlds (within a world group, if any).
    Possible,
    /// Intersection across worlds (within a world group, if any).
    Certain,
}

/// A (possibly qualified) column reference, e.g. `R1.CID` or `Skill`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ColRef {
    /// The table alias, if written.
    pub qualifier: Option<String>,
    /// The column name.
    pub name: String,
}

impl ColRef {
    /// Unqualified column.
    pub fn new(name: &str) -> ColRef {
        ColRef {
            qualifier: None,
            name: name.to_string(),
        }
    }

    /// Qualified column.
    pub fn qualified(q: &str, name: &str) -> ColRef {
        ColRef {
            qualifier: Some(q.to_string()),
            name: name.to_string(),
        }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A literal constant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
}

/// Aggregate functions (evaluated per world by the interpreter; WSA itself
/// excludes aggregation, cf. Section 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFn {
    Sum,
    Count,
    Min,
    Max,
    Avg,
}

/// Binary arithmetic on integers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// A scalar expression in select lists and conditions.
#[derive(Clone, PartialEq, Debug)]
pub enum Scalar {
    /// Column reference.
    Col(ColRef),
    /// Constant.
    Lit(Literal),
    /// Aggregate over a scalar (only in select lists with grouping).
    Agg(AggFn, Box<Scalar>),
    /// `count(*)`.
    CountStar,
    /// Integer arithmetic.
    Arith(ArithOp, Box<Scalar>, Box<Scalar>),
    /// A scalar subquery (must produce one column; its single value per
    /// evaluation, or NULL-like absence rejected with an error).
    Subquery(Box<SelectStmt>),
}

/// Comparison operators in conditions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Map to the relational-algebra comparison operator.
    pub fn to_relalg(self) -> relalg::CmpOp {
        match self {
            CmpOp::Eq => relalg::CmpOp::Eq,
            CmpOp::Ne => relalg::CmpOp::Ne,
            CmpOp::Lt => relalg::CmpOp::Lt,
            CmpOp::Le => relalg::CmpOp::Le,
            CmpOp::Gt => relalg::CmpOp::Gt,
            CmpOp::Ge => relalg::CmpOp::Ge,
        }
    }
}

/// A boolean condition (`where` clause).
#[derive(Clone, PartialEq, Debug)]
pub enum Cond {
    /// Scalar comparison.
    Cmp(Scalar, CmpOp, Scalar),
    /// `x [not] in (subquery)`.
    In {
        /// The probe expression.
        expr: Scalar,
        /// The subquery producing the membership set.
        query: Box<SelectStmt>,
        /// Negation flag (`not in`).
        negated: bool,
    },
    /// `[not] exists (subquery)`.
    Exists {
        /// The subquery.
        query: Box<SelectStmt>,
        /// Negation flag.
        negated: bool,
    },
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

/// One entry of the select list.
#[derive(Clone, PartialEq, Debug)]
pub enum SelectItem {
    /// `*` — all columns of the from-product.
    Star,
    /// An expression with an optional output alias.
    Expr {
        /// The expression.
        expr: Scalar,
        /// `as` alias.
        alias: Option<String>,
    },
}

/// An entry of the `from` clause.
#[derive(Clone, PartialEq, Debug)]
pub enum FromItem {
    /// A base relation (or view) with an optional alias.
    Table {
        /// Relation name.
        name: String,
        /// Alias (defaults to the relation name).
        alias: Option<String>,
    },
    /// A parenthesized subquery with an alias.
    Subquery {
        /// The subquery.
        query: Box<SelectStmt>,
        /// The alias (required).
        alias: String,
    },
}

/// The world-grouping clause: either an explicit attribute list (shorthand
/// noted in Section 3) or a full subquery.
#[derive(Clone, PartialEq, Debug)]
pub enum GroupWorldsBy {
    /// `group worlds by (A, B, …)` — shorthand for a projection.
    Columns(Vec<ColRef>),
    /// `group worlds by (select …)`.
    Query(Box<SelectStmt>),
}

/// A full I-SQL select statement (Figure 1).
#[derive(Clone, PartialEq, Debug)]
pub struct SelectStmt {
    /// `possible` / `certain`, if present.
    pub quant: Option<Quant>,
    /// The select list.
    pub items: Vec<SelectItem>,
    /// `from` items (empty only for constant selects, which we disallow).
    pub from: Vec<FromItem>,
    /// `where` condition.
    pub where_cond: Option<Cond>,
    /// SQL `group by` columns (for aggregation).
    pub group_by: Vec<ColRef>,
    /// `choice of` columns.
    pub choice_of: Vec<ColRef>,
    /// `repair by key` columns.
    pub repair_by_key: Vec<ColRef>,
    /// `group worlds by` clause.
    pub group_worlds_by: Option<GroupWorldsBy>,
}

/// A top-level statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// A query.
    Select(SelectStmt),
    /// `create view Name as select …` — materialized per world, as in the
    /// paper's step-by-step scenarios.
    CreateView {
        /// View name.
        name: String,
        /// Defining query.
        query: SelectStmt,
    },
    /// `insert into R values (…), (…)`.
    Insert {
        /// Target relation.
        table: String,
        /// Rows to insert.
        rows: Vec<Vec<Literal>>,
    },
    /// `delete from R [where …]`.
    Delete {
        /// Target relation.
        table: String,
        /// Optional condition.
        cond: Option<Cond>,
    },
    /// `update R set A = expr, … [where …]`.
    Update {
        /// Target relation.
        table: String,
        /// Assignments.
        sets: Vec<(String, Scalar)>,
        /// Optional condition.
        cond: Option<Cond>,
    },
    /// `set local <knob> = <value>` — a per-connection execution-path
    /// toggle, the only way to turn one off (e.g. `set local columnar =
    /// off;`).
    SetLocal {
        /// Knob name (`rewrite`, `columnar`, `factorize` or `compact`).
        name: String,
        /// Raw value text (`on`, `off`, `default`, …).
        value: String,
    },
}

impl SelectStmt {
    /// Whether this statement (or any subquery) uses a world-set construct.
    pub fn uses_world_constructs(&self) -> bool {
        if self.quant.is_some()
            || !self.choice_of.is_empty()
            || !self.repair_by_key.is_empty()
            || self.group_worlds_by.is_some()
        {
            return true;
        }
        self.from.iter().any(|f| match f {
            FromItem::Table { .. } => false,
            FromItem::Subquery { query, .. } => query.uses_world_constructs(),
        }) || cond_uses_world_constructs(self.where_cond.as_ref())
    }
}

fn cond_uses_world_constructs(c: Option<&Cond>) -> bool {
    match c {
        None => false,
        Some(Cond::Cmp(a, _, b)) => {
            scalar_uses_world_constructs(a) || scalar_uses_world_constructs(b)
        }
        Some(Cond::In { expr, query, .. }) => {
            scalar_uses_world_constructs(expr) || query.uses_world_constructs()
        }
        Some(Cond::Exists { query, .. }) => query.uses_world_constructs(),
        Some(Cond::And(a, b)) | Some(Cond::Or(a, b)) => {
            cond_uses_world_constructs(Some(a)) || cond_uses_world_constructs(Some(b))
        }
        Some(Cond::Not(a)) => cond_uses_world_constructs(Some(a)),
    }
}

fn scalar_uses_world_constructs(s: &Scalar) -> bool {
    match s {
        Scalar::Col(_) | Scalar::Lit(_) | Scalar::CountStar => false,
        Scalar::Agg(_, inner) => scalar_uses_world_constructs(inner),
        Scalar::Arith(_, a, b) => {
            scalar_uses_world_constructs(a) || scalar_uses_world_constructs(b)
        }
        Scalar::Subquery(q) => q.uses_world_constructs(),
    }
}
