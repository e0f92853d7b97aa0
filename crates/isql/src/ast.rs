//! The I-SQL abstract syntax (Figure 1 of the paper), and its canonical
//! printer.
//!
//! `Display` prints every node as I-SQL text, with parentheses only where
//! precedence needs them, and [`crate::parse_statement`] reads a printed
//! statement back to an equal one; the write-ahead log stores statements
//! this way. The one
//! exception is a statement the Rust API built with a name that is not
//! an identifier (`my table`) or is a keyword where the grammar expects
//! one (a column `exists` in a condition): the parser cannot read such
//! text back, and a durable engine refuses to log it.

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

/// Aggregate functions: the algebra's own. Under `group by` over columns
/// they compile to World-set Algebra's `γ` (`crate::compile`); elsewhere
/// (no `group by`, arithmetic arguments) the interpreter folds them per
/// world with the same [`relalg::Acc`].
pub use relalg::AggFn;

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

impl Scalar {
    /// Whether evaluating this scalar can read a relation (it holds a
    /// subquery).
    pub(crate) fn reads_relations(&self) -> bool {
        match self {
            Scalar::Col(_) | Scalar::Lit(_) | Scalar::CountStar => false,
            Scalar::Agg(_, inner) => inner.reads_relations(),
            Scalar::Arith(_, a, b) => a.reads_relations() || b.reads_relations(),
            Scalar::Subquery(_) => true,
        }
    }
}

/// Comparison operators in conditions: the algebra's own.
pub use relalg::CmpOp;

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
    /// `exists (subquery)`; `not exists` is its [`Cond::Not`].
    Exists(Box<SelectStmt>),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl Cond {
    /// Whether evaluating this condition on a row can read a relation (it
    /// holds a subquery); without one it reads the row alone.
    pub(crate) fn reads_relations(&self) -> bool {
        match self {
            Cond::Cmp(a, _, b) => a.reads_relations() || b.reads_relations(),
            Cond::In { .. } | Cond::Exists(_) => true,
            Cond::And(a, b) | Cond::Or(a, b) => a.reads_relations() || b.reads_relations(),
            Cond::Not(a) => a.reads_relations(),
        }
    }

    /// The top-level conjuncts, left to right.
    pub(crate) fn conjuncts(&self) -> Vec<&Cond> {
        match self {
            Cond::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }
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
    /// off;`, which sends every selection down the row filter instead of
    /// the vectorized one).
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
        Some(Cond::Exists(query)) => query.uses_world_constructs(),
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

// ------------------------------------------------------------- printing

fn write_list<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T]) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

/// An operand of a binary operator, parenthesized when it binds more
/// loosely than its position allows.
fn write_operand(f: &mut fmt::Formatter<'_>, x: &impl fmt::Display, paren: bool) -> fmt::Result {
    if paren {
        write!(f, "({x})")
    } else {
        write!(f, "{x}")
    }
}

fn write_alias(f: &mut fmt::Formatter<'_>, alias: &Option<String>) -> fmt::Result {
    match alias {
        Some(a) => write!(f, " as {a}"),
        None => Ok(()),
    }
}

/// A string literal: quoted, with each `'` doubled.
fn write_quoted(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "'{}'", s.replace('\'', "''"))
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Str(s) => write_quoted(f, s),
        }
    }
}

impl Scalar {
    /// How tightly the printed form binds: `+ -` 1, `* /` 2, atoms 3.
    fn precedence(&self) -> u8 {
        match self {
            Scalar::Arith(ArithOp::Add | ArithOp::Sub, ..) => 1,
            Scalar::Arith(..) => 2,
            _ => 3,
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Col(c) => write!(f, "{c}"),
            Scalar::Lit(l) => write!(f, "{l}"),
            Scalar::Agg(func, inner) => write!(f, "{func}({inner})"),
            Scalar::CountStar => f.write_str("count(*)"),
            // Left-associative: a right operand of equal precedence keeps
            // its parentheses.
            Scalar::Arith(op, a, b) => {
                let p = self.precedence();
                write_operand(f, a, a.precedence() < p)?;
                f.write_str(match op {
                    ArithOp::Add => " + ",
                    ArithOp::Sub => " - ",
                    ArithOp::Mul => " * ",
                    ArithOp::Div => " / ",
                })?;
                write_operand(f, b, b.precedence() <= p)
            }
            Scalar::Subquery(q) => write!(f, "({q})"),
        }
    }
}

impl Cond {
    /// How tightly the printed form binds: `or` 1, `and` 2, the rest 3.
    fn precedence(&self) -> u8 {
        match self {
            Cond::Or(..) => 1,
            Cond::And(..) => 2,
            _ => 3,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Cmp(a, op, b) => {
                let op = match op {
                    CmpOp::Eq => "=",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                write!(f, "{a} {op} {b}")
            }
            Cond::In {
                expr,
                query,
                negated,
            } => {
                let not = if *negated { "not " } else { "" };
                write!(f, "{expr} {not}in ({query})")
            }
            Cond::Exists(query) => write!(f, "exists ({query})"),
            Cond::And(a, b) | Cond::Or(a, b) => {
                let p = self.precedence();
                write_operand(f, a, a.precedence() < p)?;
                f.write_str(if p == 1 { " or " } else { " and " })?;
                write_operand(f, b, b.precedence() <= p)
            }
            Cond::Not(c) if matches!(**c, Cond::Exists(_)) => write!(f, "not {c}"),
            Cond::Not(c) => write!(f, "not ({c})"),
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Star => f.write_str("*"),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                write_alias(f, alias)
            }
        }
    }
}

impl fmt::Display for FromItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromItem::Table { name, alias } => {
                write!(f, "{name}")?;
                write_alias(f, alias)
            }
            FromItem::Subquery { query, alias } => write!(f, "({query}) as {alias}"),
        }
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.quant {
            None => "select ",
            Some(Quant::Possible) => "select possible ",
            Some(Quant::Certain) => "select certain ",
        })?;
        write_list(f, &self.items)?;
        f.write_str(" from ")?;
        write_list(f, &self.from)?;
        if let Some(c) = &self.where_cond {
            write!(f, " where {c}")?;
        }
        for (clause, cols) in [
            ("group by", &self.group_by),
            ("choice of", &self.choice_of),
            ("repair by key", &self.repair_by_key),
        ] {
            if !cols.is_empty() {
                write!(f, " {clause} ")?;
                write_list(f, cols)?;
            }
        }
        match &self.group_worlds_by {
            None => Ok(()),
            Some(GroupWorldsBy::Query(q)) => write!(f, " group worlds by ({q})"),
            Some(GroupWorldsBy::Columns(cols)) => {
                f.write_str(" group worlds by (")?;
                write_list(f, cols)?;
                f.write_str(")")
            }
        }
    }
}

/// The text of a statement, without the terminating `;`.
impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let write_where = |f: &mut fmt::Formatter<'_>, cond: &Option<Cond>| match cond {
            Some(c) => write!(f, " where {c}"),
            None => Ok(()),
        };
        match self {
            Stmt::Select(s) => write!(f, "{s}"),
            Stmt::CreateView { name, query } => write!(f, "create view {name} as {query}"),
            Stmt::Insert { table, rows } => {
                write!(f, "insert into {table} values ")?;
                for (i, row) in rows.iter().enumerate() {
                    f.write_str(if i > 0 { ", (" } else { "(" })?;
                    write_list(f, row)?;
                    f.write_str(")")?;
                }
                Ok(())
            }
            Stmt::Delete { table, cond } => {
                write!(f, "delete from {table}")?;
                write_where(f, cond)
            }
            Stmt::Update { table, sets, cond } => {
                write!(f, "update {table} set ")?;
                for (i, (col, value)) in sets.iter().enumerate() {
                    let sep = if i > 0 { ", " } else { "" };
                    write!(f, "{sep}{col} = {value}")?;
                }
                write_where(f, cond)
            }
            // Quoted, so that any value text reads back unchanged.
            Stmt::SetLocal { name, value } => {
                write!(f, "set local {name} = ")?;
                write_quoted(f, value)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_script, parse_statement};
    use proptest::prelude::*;

    fn assert_reads_back(stmt: &Stmt) {
        let text = stmt.to_string();
        assert_eq!(
            parse_statement(&text).as_ref(),
            Ok(stmt),
            "printed as {text}"
        );
    }

    #[test]
    fn printed_statements_parse_back() {
        let corpus = [
            "select possible Arr from Flights choice of Dep;",
            "select certain F.Arr as Dest from Flights F, Hotels H \
             where F.Arr = H.City and H.Stars > 3 repair by key Dep;",
            "select * from (select A, B from R where A in \
             (select X from S) group worlds by (C)) T;",
            "select Name, sum(Salary) as Total from Emp \
             where not exists (select * from Absent where Absent.N = Emp.Name) \
             group by Name;",
            "select count(*) from R where (A = 1 or B <> 'xy') and not (C < 2);",
            "select A + 2 * B as V from R group worlds by \
             (select possible D from S);",
            "create view V as select certain A from R choice of B;",
            "insert into R values (1, 'two'), (3, 'four');",
            "delete from R where A >= 10;",
            "update R set A = A + 1, B = 'done' where B = 'pending';",
            "set local rewrite = off;",
            // Precedence and associativity the printer must keep.
            "select A - (B - C), (A - B) - C, A / (B * C), -3 * (A + -4) from R \
             where A = 1 or (B = 2 or C = 3) and not (D = 4 and E = 5);",
            "select A from R where (Price + 1) * 2 > 10 and (A) not in (select B from S) \
             and ((select max(B) from S) - 1) * 2 <= -9223372036854775808;",
        ];
        for script in corpus {
            for stmt in parse_script(script).unwrap() {
                assert_reads_back(&stmt);
            }
        }
    }

    /// A generator of statements the grammar can express: names are
    /// identifiers, not keywords, and lists are non-empty where the
    /// grammar requires.
    struct Gen<'r>(&'r mut TestRng);

    impl Gen<'_> {
        fn below(&mut self, n: u64) -> u64 {
            self.0.next_u64() % n
        }

        fn name(&mut self) -> String {
            const NAMES: [&str; 6] = ["A", "b2", "Dep", "_x", "Ünï", "Year"];
            NAMES[self.below(6) as usize].to_string()
        }

        fn opt_name(&mut self) -> Option<String> {
            (self.below(2) == 0).then(|| self.name())
        }

        fn col(&mut self) -> ColRef {
            ColRef {
                qualifier: self.opt_name(),
                name: self.name(),
            }
        }

        fn cols(&mut self, min: u64) -> Vec<ColRef> {
            (0..min + self.below(3)).map(|_| self.col()).collect()
        }

        fn literal(&mut self) -> Literal {
            match self.below(4) {
                0 => Literal::Int(self.0.next_u64() as i64),
                1 => Literal::Int([i64::MIN, -1, 0, i64::MAX][self.below(4) as usize]),
                _ => Literal::Str(string_literal(self.0)),
            }
        }

        fn scalar(&mut self, depth: u32) -> Scalar {
            let pick = if depth == 0 {
                self.below(3)
            } else {
                self.below(7)
            };
            match pick {
                0 => Scalar::Col(self.col()),
                1 => Scalar::Lit(self.literal()),
                2 => Scalar::CountStar,
                3 => {
                    let f = [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max, AggFn::Avg]
                        [self.below(5) as usize];
                    Scalar::Agg(f, Box::new(self.scalar(depth - 1)))
                }
                4 => Scalar::Subquery(Box::new(self.select(depth - 1))),
                _ => {
                    let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]
                        [self.below(4) as usize];
                    let a = self.scalar(depth - 1);
                    Scalar::Arith(op, Box::new(a), Box::new(self.scalar(depth - 1)))
                }
            }
        }

        fn cond(&mut self, depth: u32) -> Cond {
            let pick = if depth == 0 { 0 } else { self.below(7) };
            match pick {
                0 => {
                    let op = [
                        CmpOp::Eq,
                        CmpOp::Ne,
                        CmpOp::Lt,
                        CmpOp::Le,
                        CmpOp::Gt,
                        CmpOp::Ge,
                    ][self.below(6) as usize];
                    let a = self.scalar(depth.saturating_sub(1));
                    Cond::Cmp(a, op, self.scalar(depth.saturating_sub(1)))
                }
                1 => Cond::In {
                    expr: self.scalar(depth - 1),
                    query: Box::new(self.select(depth - 1)),
                    negated: self.below(2) == 0,
                },
                2 => Cond::Exists(Box::new(self.select(depth - 1))),
                3 => Cond::Not(Box::new(self.cond(depth - 1))),
                4 => {
                    let a = self.cond(depth - 1);
                    Cond::Or(Box::new(a), Box::new(self.cond(depth - 1)))
                }
                _ => {
                    let a = self.cond(depth - 1);
                    Cond::And(Box::new(a), Box::new(self.cond(depth - 1)))
                }
            }
        }

        fn select(&mut self, depth: u32) -> SelectStmt {
            let sub = depth.saturating_sub(1);
            let items = if self.below(4) == 0 {
                vec![SelectItem::Star]
            } else {
                (0..1 + self.below(3))
                    .map(|_| SelectItem::Expr {
                        expr: self.scalar(sub),
                        alias: self.opt_name(),
                    })
                    .collect()
            };
            let from = (0..1 + self.below(2))
                .map(|_| {
                    if depth > 0 && self.below(3) == 0 {
                        FromItem::Subquery {
                            query: Box::new(self.select(sub)),
                            alias: self.name(),
                        }
                    } else {
                        FromItem::Table {
                            name: self.name(),
                            alias: self.opt_name(),
                        }
                    }
                })
                .collect();
            SelectStmt {
                quant: [None, Some(Quant::Possible), Some(Quant::Certain)][self.below(3) as usize],
                items,
                from,
                where_cond: (self.below(2) == 0).then(|| self.cond(sub)),
                group_by: self.cols(0),
                choice_of: self.cols(0),
                repair_by_key: self.cols(0),
                group_worlds_by: match self.below(3) {
                    0 => None,
                    1 => Some(GroupWorldsBy::Columns(self.cols(1))),
                    _ => Some(GroupWorldsBy::Query(Box::new(self.select(sub)))),
                },
            }
        }

        fn stmt(&mut self, depth: u32) -> Stmt {
            let opt_cond = |g: &mut Self| (g.below(2) == 0).then(|| g.cond(depth));
            match self.below(6) {
                0 => Stmt::Select(self.select(depth)),
                1 => Stmt::CreateView {
                    name: self.name(),
                    query: self.select(depth),
                },
                2 => Stmt::Insert {
                    table: self.name(),
                    rows: (0..1 + self.below(3))
                        .map(|_| (0..1 + self.below(3)).map(|_| self.literal()).collect())
                        .collect(),
                },
                3 => Stmt::Delete {
                    table: self.name(),
                    cond: opt_cond(self),
                },
                4 => Stmt::Update {
                    table: self.name(),
                    sets: (0..1 + self.below(2))
                        .map(|_| (self.name(), self.scalar(depth)))
                        .collect(),
                    cond: opt_cond(self),
                },
                _ => Stmt::SetLocal {
                    name: self.name(),
                    value: string_literal(self.0),
                },
            }
        }
    }

    /// Text mixing quotes, newlines, comment and statement delimiters,
    /// non-ASCII letters, and nothing at all.
    fn string_literal(rng: &mut TestRng) -> String {
        const PIECES: [&str; 10] = ["'", "''", "\n", "--", ";", "é", "日本", " ", "x", "\\"];
        let n = rng.next_u64() % 6;
        (0..n)
            .map(|_| PIECES[(rng.next_u64() % 10) as usize])
            .collect()
    }

    struct Stmts;

    impl Strategy for Stmts {
        type Value = Stmt;
        fn generate(&self, rng: &mut TestRng) -> Stmt {
            let depth = (rng.next_u64() % 5) as u32;
            Gen(rng).stmt(depth)
        }
    }

    struct Strings;

    impl Strategy for Strings {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            string_literal(rng)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn generated_statements_print_and_parse_back(stmt in Stmts) {
            assert_reads_back(&stmt);
        }

        #[test]
        fn string_literals_print_and_parse_back(s in Strings) {
            assert_reads_back(&Stmt::Insert {
                table: "R".into(),
                rows: vec![vec![Literal::Str(s.clone()), Literal::Str(s)]],
            });
        }
    }
}
