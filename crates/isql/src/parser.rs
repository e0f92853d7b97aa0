//! Recursive-descent parser for the Figure-1 grammar.

use crate::ast::*;
use crate::lexer::{lex, unescape, SqlError, Token};

/// The deepest AST the parser builds: a statement whose select, condition
/// and scalar nodes nest deeper than this is an `SqlError`. Every later
/// stage (evaluation, compilation, printing, drop) walks the AST
/// recursively, so the bound keeps one hostile statement from overflowing
/// the stack of the thread that runs it. A flat `and`/`or`/arithmetic
/// chain parses to a left-deep tree and counts by its length; the parser
/// also refuses to nest its own recursion deeper, even where redundant
/// parentheses add no node. The printed form of an accepted statement
/// (`Display` on [`Stmt`]) therefore parses again within the bound.
pub const MAX_DEPTH: usize = 256;

/// Parse a script of `;`-separated statements.
pub fn parse_script(input: &str) -> Result<Vec<Stmt>, SqlError> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    while let Some(stmt) = p.next_statement()? {
        out.push(stmt);
    }
    Ok(out)
}

/// Parse exactly one statement (a trailing `;` is allowed). A script of
/// any other length is parsed to the end, so its first error wins over the
/// count.
pub fn parse_statement(input: &str) -> Result<Stmt, SqlError> {
    let mut p = Parser::new(input)?;
    let first = p.next_statement()?;
    match first {
        Some(stmt) if p.at_end() => Ok(stmt),
        _ => {
            let mut n = usize::from(first.is_some());
            while p.next_statement()?.is_some() {
                n += 1;
            }
            Err(SqlError(format!("expected one statement, found {n}")))
        }
    }
}

/// A parsed node and its height: 1 for a leaf, one more than its highest
/// child otherwise. Boxed, as the AST links it anyway, so that the deep
/// recursion of a nested statement moves a pointer, not the node.
type Node<T> = (Box<T>, usize);

/// The height of a node over children at most `child` high.
fn node(child: usize) -> Result<usize, SqlError> {
    if child >= MAX_DEPTH {
        return Err(SqlError(format!(
            "statement nests deeper than {MAX_DEPTH} levels"
        )));
    }
    Ok(child + 1)
}

/// The value of an integer literal of magnitude `n`.
fn int_literal(n: u64, negative: bool) -> Result<Literal, SqlError> {
    let v = if negative {
        0i64.checked_sub_unsigned(n)
    } else {
        0i64.checked_add_unsigned(n)
    };
    v.map(Literal::Int)
        .ok_or_else(|| SqlError(format!("integer literal {n} out of range")))
}

/// The parser over one script's tokens. Tokens are `Copy` and borrow the
/// script's text, so reading one copies it without allocating, and the
/// parser allocates only the strings the AST keeps.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Select, condition and scalar parses in progress (see [`MAX_DEPTH`]).
    depth: usize,
    /// The index of each `(`'s matching `)` (`tokens.len()` if unmatched),
    /// built on the first parenthesis [`Parser::paren_opens_operand`] asks
    /// about.
    closers: Option<Vec<usize>>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Parser<'a>, SqlError> {
        Ok(Parser {
            tokens: lex(input)?,
            pos: 0,
            depth: 0,
            closers: None,
        })
    }

    /// The next statement of the script and the `;`s after it, or `None`
    /// at its end.
    fn next_statement(&mut self) -> Result<Option<Stmt>, SqlError> {
        if self.at_end() {
            return Ok(None);
        }
        let stmt = self.statement()?;
        while self.eat(&Token::Semicolon) {}
        Ok(Some(stmt))
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn peek_ahead(&self, n: usize) -> Option<&Token<'a>> {
        self.tokens.get(self.pos + n)
    }

    /// The token at the cursor as error messages show it: `Some(Ident("x"))`
    /// or `None`, a string literal with its escapes undone.
    fn found(&self) -> String {
        match self.peek() {
            Some(Token::Str(raw)) => format!("Some(Str({:?}))", unescape(raw)),
            t => format!("{t:?}"),
        }
    }

    fn next(&mut self) -> Result<Token<'a>, SqlError> {
        let t = *self
            .peek()
            .ok_or_else(|| SqlError("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), SqlError> {
        let got = self.next()?;
        if &got == t {
            Ok(())
        } else {
            Err(SqlError(format!("expected {t}, found {got}")))
        }
    }

    fn is_kw(&self, n: usize, kw: &str) -> bool {
        matches!(self.peek_ahead(n), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(0, kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError(format!(
                "expected keyword {kw}, found {}",
                self.found()
            )))
        }
    }

    fn ident(&mut self) -> Result<&'a str, SqlError> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(SqlError(format!("expected identifier, found {other}"))),
        }
    }

    /// Enter one more select, condition or scalar parse, refusing past
    /// [`MAX_DEPTH`]. A successful parse leaves again (`depth -= 1`); an
    /// error aborts the whole script, so its path need not.
    fn enter(&mut self) -> Result<(), SqlError> {
        self.depth = node(self.depth)?;
        Ok(())
    }

    /// Parse `( select … )`.
    fn paren_select(&mut self) -> Result<Node<SelectStmt>, SqlError> {
        self.expect(&Token::LParen)?;
        let q = self.select_stmt()?;
        self.expect(&Token::RParen)?;
        Ok(q)
    }

    fn statement(&mut self) -> Result<Stmt, SqlError> {
        if self.is_kw(0, "select") {
            return Ok(Stmt::Select(*self.select_stmt()?.0));
        }
        if self.eat_kw("create") {
            self.expect_kw("view")?;
            let name = self.ident()?.to_owned();
            self.expect_kw("as")?;
            let query = *self.select_stmt()?.0;
            return Ok(Stmt::CreateView { name, query });
        }
        if self.eat_kw("insert") {
            self.expect_kw("into")?;
            let table = self.ident()?.to_owned();
            self.expect_kw("values")?;
            let mut rows = vec![self.value_row()?];
            while self.eat(&Token::Comma) {
                rows.push(self.value_row()?);
            }
            return Ok(Stmt::Insert { table, rows });
        }
        if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.ident()?.to_owned();
            let cond = self.where_clause()?.map(|(c, _)| *c);
            return Ok(Stmt::Delete { table, cond });
        }
        if self.is_kw(0, "set") && self.is_kw(1, "local") {
            self.eat_kw("set");
            self.eat_kw("local");
            let name = self.ident()?.to_owned();
            self.expect(&Token::Eq)?;
            let value = match self.next()? {
                Token::Ident(s) => s.to_owned(),
                Token::Int(i) => i.to_string(),
                Token::Str(raw) => unescape(raw),
                other => {
                    return Err(SqlError(format!(
                        "expected a knob value after set local {name} =, found {other}"
                    )))
                }
            };
            return Ok(Stmt::SetLocal { name, value });
        }
        if self.eat_kw("update") {
            let table = self.ident()?.to_owned();
            self.expect_kw("set")?;
            let mut sets = Vec::new();
            loop {
                let col = self.ident()?.to_owned();
                self.expect(&Token::Eq)?;
                let val = *self.scalar()?.0;
                sets.push((col, val));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            let cond = self.where_clause()?.map(|(c, _)| *c);
            return Ok(Stmt::Update { table, sets, cond });
        }
        Err(SqlError(format!(
            "expected a statement, found {}",
            self.found()
        )))
    }

    fn where_clause(&mut self) -> Result<Option<Node<Cond>>, SqlError> {
        if self.eat_kw("where") {
            Ok(Some(self.cond()?))
        } else {
            Ok(None)
        }
    }

    fn value_row(&mut self) -> Result<Vec<Literal>, SqlError> {
        self.expect(&Token::LParen)?;
        let mut row = Vec::new();
        loop {
            row.push(self.literal()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(row)
    }

    fn literal(&mut self) -> Result<Literal, SqlError> {
        match self.next()? {
            Token::Int(n) => int_literal(n, false),
            Token::Str(raw) => Ok(Literal::Str(unescape(raw))),
            Token::Minus => match self.next()? {
                Token::Int(n) => int_literal(n, true),
                other => Err(SqlError(format!(
                    "expected number after '-', found {other}"
                ))),
            },
            other => Err(SqlError(format!("expected literal, found {other}"))),
        }
    }

    fn select_stmt(&mut self) -> Result<Node<SelectStmt>, SqlError> {
        self.enter()?;
        self.expect_kw("select")?;
        let quant = if self.eat_kw("possible") {
            Some(Quant::Possible)
        } else if self.eat_kw("certain") {
            Some(Quant::Certain)
        } else {
            None
        };
        let (items, mut h) = self.select_list()?;
        self.expect_kw("from")?;
        let mut stmt = Box::new(SelectStmt {
            quant,
            items,
            from: Vec::new(),
            where_cond: None,
            group_by: Vec::new(),
            choice_of: Vec::new(),
            repair_by_key: Vec::new(),
            group_worlds_by: None,
        });
        loop {
            let (item, hi) = self.parse_from_item()?;
            stmt.from.push(item);
            h = h.max(hi);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        if let Some((c, hc)) = self.where_clause()? {
            stmt.where_cond = Some(*c);
            h = h.max(hc);
        }
        h = h.max(self.select_clauses(&mut stmt)?);
        self.depth -= 1;
        Ok((stmt, node(h)?))
    }

    /// The clauses after `where`, in any order; the height of a `group
    /// worlds by` subquery.
    fn select_clauses(&mut self, stmt: &mut SelectStmt) -> Result<usize, SqlError> {
        let mut h = 0;
        loop {
            if self.is_kw(0, "group") && self.is_kw(1, "by") {
                self.pos += 2;
                stmt.group_by = self.colref_list()?;
            } else if self.is_kw(0, "group") && self.is_kw(1, "worlds") {
                self.pos += 2;
                self.expect_kw("by")?;
                let (g, hg) = self.group_worlds_spec()?;
                stmt.group_worlds_by = Some(g);
                h = hg;
            } else if self.eat_kw("choice") {
                self.expect_kw("of")?;
                stmt.choice_of = self.colref_list()?;
            } else if self.eat_kw("repair") {
                self.expect_kw("by")?;
                self.expect_kw("key")?;
                stmt.repair_by_key = self.colref_list()?;
            } else {
                return Ok(h);
            }
        }
    }

    fn group_worlds_spec(&mut self) -> Result<(GroupWorldsBy, usize), SqlError> {
        if self.peek() == Some(&Token::LParen) {
            if self.is_kw(1, "select") {
                let (q, h) = self.paren_select()?;
                return Ok((GroupWorldsBy::Query(q), h));
            }
            self.expect(&Token::LParen)?;
            let cols = self.colref_list()?;
            self.expect(&Token::RParen)?;
            return Ok((GroupWorldsBy::Columns(cols), 0));
        }
        Ok((GroupWorldsBy::Columns(self.colref_list()?), 0))
    }

    fn select_list(&mut self) -> Result<(Vec<SelectItem>, usize), SqlError> {
        if self.eat(&Token::Star) {
            return Ok((vec![SelectItem::Star], 0));
        }
        let mut items = Vec::new();
        let mut h = 0;
        loop {
            let (expr, he) = self.scalar()?;
            h = h.max(he);
            let alias = if self.eat_kw("as") {
                Some(self.ident()?.to_owned())
            } else {
                None
            };
            items.push(SelectItem::Expr { expr: *expr, alias });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok((items, h))
    }

    fn parse_from_item(&mut self) -> Result<(FromItem, usize), SqlError> {
        if self.peek() == Some(&Token::LParen) {
            let (query, h) = self.paren_select()?;
            self.eat_kw("as");
            let alias = self.ident()?.to_owned();
            return Ok((FromItem::Subquery { query, alias }, h));
        }
        let name = self.ident()?.to_owned();
        // An optional alias: the next identifier, unless it is a clause
        // keyword.
        let has_alias = self.eat_kw("as")
            || matches!(self.peek(), Some(Token::Ident(s)) if !is_clause_keyword(s));
        let alias = if has_alias {
            Some(self.ident()?.to_owned())
        } else {
            None
        };
        Ok((FromItem::Table { name, alias }, 0))
    }

    fn colref_list(&mut self) -> Result<Vec<ColRef>, SqlError> {
        let mut cols = vec![self.colref()?];
        while self.eat(&Token::Comma) {
            cols.push(self.colref()?);
        }
        Ok(cols)
    }

    fn colref(&mut self) -> Result<ColRef, SqlError> {
        let first = self.ident()?.to_owned();
        if self.eat(&Token::Dot) {
            let second = self.ident()?.to_owned();
            Ok(ColRef {
                qualifier: Some(first),
                name: second,
            })
        } else {
            Ok(ColRef {
                qualifier: None,
                name: first,
            })
        }
    }

    // ---- conditions ----
    //
    // The recursion below is what a deeply nested statement drives: one
    // level of parentheses costs the frames of `cond`, `conjunction` and
    // `primary_cond` (or `scalar`, `term` and `factor`), which stay small
    // because nodes travel boxed.

    fn cond(&mut self) -> Result<Node<Cond>, SqlError> {
        self.enter()?;
        let mut left = self.conjunction()?;
        while self.eat_kw("or") {
            left = join(Cond::Or, left, self.conjunction()?)?;
        }
        self.depth -= 1;
        Ok(left)
    }

    fn conjunction(&mut self) -> Result<Node<Cond>, SqlError> {
        let mut left = self.primary_cond()?;
        while self.eat_kw("and") {
            left = join(Cond::And, left, self.primary_cond()?)?;
        }
        Ok(left)
    }

    /// `[not] exists (…)`, `[not] (cond)`, or a comparison or `[not] in`.
    fn primary_cond(&mut self) -> Result<Node<Cond>, SqlError> {
        let negated = self.is_kw(0, "not")
            && (self.is_kw(1, "exists") || self.peek_ahead(1) == Some(&Token::LParen));
        if negated {
            self.pos += 1;
        }
        let (c, h) = if self.eat_kw("exists") {
            let (q, h) = self.paren_select()?;
            (Box::new(Cond::Exists(q)), node(h)?)
        } else if self.peek() == Some(&Token::LParen) && !self.paren_opens_operand() {
            self.pos += 1;
            let c = self.cond()?;
            self.expect(&Token::RParen)?;
            c
        } else {
            self.comparison()?
        };
        if negated {
            Ok((Box::new(Cond::Not(c)), node(h)?))
        } else {
            Ok((c, h))
        }
    }

    fn comparison(&mut self) -> Result<Node<Cond>, SqlError> {
        let (left, hl) = self.scalar()?;
        let negated = self.is_kw(0, "not") && self.is_kw(1, "in");
        if negated {
            self.pos += 1;
        }
        if self.eat_kw("in") {
            let (q, hq) = self.paren_select()?;
            let c = Cond::In {
                expr: *left,
                query: q,
                negated,
            };
            return Ok((Box::new(c), node(hl.max(hq))?));
        }
        let token = self.next()?;
        let op = cmp_op(&token)
            .ok_or_else(|| SqlError(format!("expected comparison, found {token}")))?;
        let (right, hr) = self.scalar()?;
        Ok((Box::new(Cond::Cmp(*left, op, *right)), node(hl.max(hr))?))
    }

    /// Whether the `(` at the cursor opens the left operand of a
    /// comparison or `in`, as in `(Price + 1) * 2 > 10`, rather than a
    /// parenthesized condition: decided by the token after its matching
    /// `)`, which continues or compares an operand.
    fn paren_opens_operand(&mut self) -> bool {
        let tokens = &self.tokens;
        let closers = self.closers.get_or_insert_with(|| {
            let mut closers = vec![tokens.len(); tokens.len()];
            let mut open = Vec::new();
            for (i, t) in tokens.iter().enumerate() {
                match t {
                    Token::LParen => open.push(i),
                    Token::RParen => {
                        if let Some(o) = open.pop() {
                            closers[o] = i;
                        }
                    }
                    _ => {}
                }
            }
            closers
        });
        let after = closers[self.pos] + 1 - self.pos;
        let continues = |t: &Token| {
            cmp_op(t).is_some()
                || matches!(t, Token::Plus | Token::Minus | Token::Star | Token::Slash)
        };
        self.peek_ahead(after).is_some_and(continues)
            || self.is_kw(after, "in")
            || (self.is_kw(after, "not") && self.is_kw(after + 1, "in"))
    }

    // ---- scalar expressions ----

    fn scalar(&mut self) -> Result<Node<Scalar>, SqlError> {
        self.enter()?;
        let mut left = self.term()?;
        loop {
            let op = if self.eat(&Token::Plus) {
                ArithOp::Add
            } else if self.eat(&Token::Minus) {
                ArithOp::Sub
            } else {
                self.depth -= 1;
                return Ok(left);
            };
            left = join(|a, b| Scalar::Arith(op, a, b), left, self.term()?)?;
        }
    }

    fn term(&mut self) -> Result<Node<Scalar>, SqlError> {
        let mut left = self.factor()?;
        loop {
            let op = if self.eat(&Token::Star) {
                ArithOp::Mul
            } else if self.eat(&Token::Slash) {
                ArithOp::Div
            } else {
                return Ok(left);
            };
            left = join(|a, b| Scalar::Arith(op, a, b), left, self.factor()?)?;
        }
    }

    fn factor(&mut self) -> Result<Node<Scalar>, SqlError> {
        let name = match self.peek() {
            Some(&Token::Ident(name)) if self.peek_ahead(1) == Some(&Token::LParen) => name,
            Some(Token::Ident(_)) => return Ok((Box::new(Scalar::Col(self.colref()?)), 1)),
            Some(Token::Int(_) | Token::Minus | Token::Str(_)) => {
                return Ok((Box::new(Scalar::Lit(self.literal()?)), 1));
            }
            Some(Token::LParen) if self.is_kw(1, "select") => {
                let (q, h) = self.paren_select()?;
                return Ok((Box::new(Scalar::Subquery(q)), node(h)?));
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let s = self.scalar()?;
                self.expect(&Token::RParen)?;
                return Ok(s);
            }
            _ => {
                return Err(SqlError(format!(
                    "expected expression, found {}",
                    self.found()
                )))
            }
        };
        let Some(&(_, f)) = AGG_FNS
            .iter()
            .find(|(spelling, _)| name.eq_ignore_ascii_case(spelling))
        else {
            return Ok((Box::new(Scalar::Col(self.colref()?)), 1));
        };
        self.pos += 2; // function name and `(`
        if f == AggFn::Count && self.eat(&Token::Star) {
            self.expect(&Token::RParen)?;
            return Ok((Box::new(Scalar::CountStar), 1));
        }
        let (inner, h) = self.scalar()?;
        self.expect(&Token::RParen)?;
        Ok((Box::new(Scalar::Agg(f, inner)), node(h)?))
    }
}

/// The aggregate functions, by name (matched case-insensitively).
const AGG_FNS: [(&str, AggFn); 5] = [
    ("sum", AggFn::Sum),
    ("count", AggFn::Count),
    ("min", AggFn::Min),
    ("max", AggFn::Max),
    ("avg", AggFn::Avg),
];

fn cmp_op(t: &Token) -> Option<CmpOp> {
    Some(match t {
        Token::Eq => CmpOp::Eq,
        Token::Ne => CmpOp::Ne,
        Token::Lt => CmpOp::Lt,
        Token::Le => CmpOp::Le,
        Token::Gt => CmpOp::Gt,
        Token::Ge => CmpOp::Ge,
        _ => return None,
    })
}

/// `make(left, right)`, one level above the higher of the two.
fn join<T>(
    make: impl FnOnce(Box<T>, Box<T>) -> T,
    (left, hl): Node<T>,
    (right, hr): Node<T>,
) -> Result<Node<T>, SqlError> {
    Ok((Box::new(make(left, right)), node(hl.max(hr))?))
}

/// The words that end a `from` item, so that they never read as its
/// alias.
const CLAUSE_KEYWORDS: [&str; 15] = [
    "where", "group", "choice", "repair", "on", "order", "select", "from", "and", "or", "not",
    "in", "exists", "values", "set",
];

fn is_clause_keyword(s: &str) -> bool {
    CLAUSE_KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_trip_query() {
        let s = parse_statement("select certain Arr from HFlights choice of Dep;").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(sel.quant, Some(Quant::Certain));
        assert_eq!(sel.choice_of, vec![ColRef::new("Dep")]);
        assert_eq!(sel.items.len(), 1);
    }

    #[test]
    fn parses_acquisition_step2() {
        let s = parse_statement(
            "select R1.CID, R1.EID \
             from Company_Emp R1, (select * from U choice of EID) R2 \
             where R1.CID = R2.CID and R1.EID != R2.EID;",
        )
        .unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(sel.from.len(), 2);
        match &sel.from[1] {
            FromItem::Subquery { alias, query } => {
                assert_eq!(alias, "R2");
                assert_eq!(query.choice_of, vec![ColRef::new("EID")]);
            }
            other => panic!("expected subquery, got {other:?}"),
        }
        assert!(matches!(sel.where_cond, Some(Cond::And(_, _))));
    }

    #[test]
    fn parses_group_worlds_by_query() {
        let s = parse_statement(
            "select certain CID, Skill from V, Emp_Skill \
             where V.EID = Emp_Skill.EID \
             group worlds by (select CID from V);",
        )
        .unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert!(matches!(sel.group_worlds_by, Some(GroupWorldsBy::Query(_))));
    }

    #[test]
    fn parses_group_worlds_by_columns() {
        let s = parse_statement("select possible A from R group worlds by B, C;").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(
            sel.group_worlds_by,
            Some(GroupWorldsBy::Columns(vec![
                ColRef::new("B"),
                ColRef::new("C")
            ]))
        );
    }

    #[test]
    fn parses_tpch_view() {
        let s = parse_statement(
            "create view YearQuantity as \
             select A.Year, sum(A.Price) as Revenue \
             from (select * from Lineitem choice of Year) as A \
             where Quantity not in (select * from Lineitem choice of Quantity) \
             group by A.Year;",
        )
        .unwrap();
        let Stmt::CreateView { name, query } = s else {
            panic!()
        };
        assert_eq!(name, "YearQuantity");
        assert_eq!(query.group_by, vec![ColRef::qualified("A", "Year")]);
        assert!(matches!(
            query.where_cond,
            Some(Cond::In { negated: true, .. })
        ));
    }

    #[test]
    fn parses_scalar_subquery_arithmetic() {
        let s = parse_statement(
            "select possible Year from YearQuantity as Y \
             where (select sum(Price) from Lineitem where Lineitem.Year = Y.Year) \
                   - Y.Revenue > 1000000;",
        )
        .unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        match sel.where_cond {
            Some(Cond::Cmp(Scalar::Arith(ArithOp::Sub, l, _), CmpOp::Gt, _)) => {
                assert!(matches!(*l, Scalar::Subquery(_)));
            }
            other => panic!("unexpected condition {other:?}"),
        }
    }

    #[test]
    fn parses_repair_by_key() {
        let s = parse_statement("select * from Census repair by key SSN;").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(sel.repair_by_key, vec![ColRef::new("SSN")]);
    }

    #[test]
    fn parses_nested_not_exists_division() {
        let s = parse_statement(
            "select Arr from HFlights F1 \
             where not exists \
               (select * from HFlights F2 \
                where not exists \
                  (select * from HFlights F3 \
                   where F3.Dep = F2.Dep and F3.Arr = F1.Arr));",
        )
        .unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert!(matches!(sel.where_cond, Some(Cond::Not(_))));
    }

    #[test]
    fn parses_dml() {
        assert!(matches!(
            parse_statement("insert into Flights values ('FRA', 'BCN'), ('PAR', 'ATL');"),
            Ok(Stmt::Insert { rows, .. }) if rows.len() == 2
        ));
        assert!(matches!(
            parse_statement("delete from Flights where Arr = 'ATL';"),
            Ok(Stmt::Delete { cond: Some(_), .. })
        ));
        assert!(matches!(
            parse_statement("update Flights set Arr = 'XXX' where Dep = 'FRA';"),
            Ok(Stmt::Update { sets, .. }) if sets.len() == 1
        ));
    }

    #[test]
    fn parses_script() {
        let stmts = parse_script(
            "create view V as select * from R choice of A; \
             select certain B from V;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn parenthesized_operand_starts_a_comparison() {
        let s = parse_statement("select Year from Lineitem where (Price + 1) * 2 > 10;").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        let price_plus_one = Scalar::Arith(
            ArithOp::Add,
            Box::new(Scalar::Col(ColRef::new("Price"))),
            Box::new(Scalar::Lit(Literal::Int(1))),
        );
        let times_two = Scalar::Arith(
            ArithOp::Mul,
            Box::new(price_plus_one),
            Box::new(Scalar::Lit(Literal::Int(2))),
        );
        assert_eq!(
            sel.where_cond,
            Some(Cond::Cmp(
                times_two,
                CmpOp::Gt,
                Scalar::Lit(Literal::Int(10))
            ))
        );
        for ok in [
            "select A from R where (A) in (select B from S);",
            "select A from R where (A + 1) not in (select B from S) and (A = 1 or A = 2);",
            "select A from R where ((select max(B) from S) - A) * 2 = 4;",
            "select A from R where not ((A - 1) / 2 <= 3);",
        ] {
            assert!(parse_statement(ok).is_ok(), "{ok}");
        }
        assert!(parse_statement("select A from R where (A + 1);").is_err());
    }

    #[test]
    fn i64_min_is_a_literal() {
        let s =
            parse_statement("insert into R values (-9223372036854775808, 9223372036854775807);");
        assert_eq!(
            s,
            Ok(Stmt::Insert {
                table: "R".into(),
                rows: vec![vec![Literal::Int(i64::MIN), Literal::Int(i64::MAX)]],
            })
        );
        let s = parse_statement("select A from R where A > -9223372036854775808;").unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert!(matches!(
            sel.where_cond,
            Some(Cond::Cmp(_, CmpOp::Gt, Scalar::Lit(Literal::Int(i64::MIN))))
        ));
        assert!(parse_statement("select A from R where A > 9223372036854775808;").is_err());
        assert!(parse_statement("insert into R values (-9223372036854775809);").is_err());
    }

    /// `select * from R where c` with `c` nesting `levels` `not (…)`
    /// around `A = 1`, and `c` a flat chain of `conjuncts` comparisons:
    /// AST heights `levels + 3` and `conjuncts + 2`.
    fn nested_not(levels: usize) -> String {
        format!(
            "select * from R where {}A = 1{};",
            "not (".repeat(levels),
            ")".repeat(levels)
        )
    }

    fn flat_and(conjuncts: usize) -> String {
        format!(
            "select * from R where {};",
            vec!["A = 1"; conjuncts].join(" and ")
        )
    }

    #[test]
    fn depth_is_bounded_by_nesting_and_chain_length() {
        assert!(parse_statement(&nested_not(MAX_DEPTH - 3)).is_ok());
        assert!(parse_statement(&nested_not(MAX_DEPTH - 2)).is_err());
        assert!(parse_statement(&flat_and(MAX_DEPTH - 2)).is_ok());
        assert!(parse_statement(&flat_and(MAX_DEPTH - 1)).is_err());
        let sum = format!("select {} from R;", vec!["1"; MAX_DEPTH].join(" + "));
        assert!(parse_statement(&sum).is_err());
        // Redundant parentheses add no node, but the parser's recursion
        // stays bounded too.
        let parens = format!(
            "select * from R where {}A = 1{};",
            "(".repeat(5000),
            ")".repeat(5000)
        );
        assert!(parse_statement(&parens).is_err());
        // At the bound, the printed form reads back, within the bound.
        for text in [nested_not(MAX_DEPTH - 3), flat_and(MAX_DEPTH - 2)] {
            let stmt = parse_statement(&text).unwrap();
            assert_eq!(parse_statement(&stmt.to_string()), Ok(stmt));
        }
    }

    /// A xorshift stream for the generators below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// A condition nesting `depth` constructs: parentheses, `not`,
    /// subqueries, aggregates, arithmetic and `and`/`or` chains.
    fn nested_cond(rng: &mut Rng, depth: usize) -> String {
        if depth == 0 {
            return "A = 1".into();
        }
        let inner = nested_cond(rng, depth - 1);
        match rng.below(7) {
            0 => format!("not ({inner})"),
            1 => format!("({inner}) or A = 2"),
            2 => format!("{inner} and A = 2 and B = 3"),
            3 => format!("exists (select * from R where {inner})"),
            4 => format!("A not in (select A from R where {inner})"),
            5 => format!("{} > 0 and {inner}", nested_scalar(rng, depth - 1)),
            _ => format!("A = 1 or ({inner})"),
        }
    }

    fn nested_scalar(rng: &mut Rng, depth: usize) -> String {
        if depth == 0 {
            return "A".into();
        }
        let inner = nested_scalar(rng, depth - 1);
        match rng.below(4) {
            0 => format!("({inner} + 1) * 2"),
            1 => format!("sum({inner})"),
            2 => format!("(select {inner} from R)"),
            _ => format!("1 - {inner} / 3"),
        }
    }

    /// Random token sequences, and statements nested around and past
    /// [`MAX_DEPTH`], parse to `Ok` or `Err` on a 2 MiB stack without
    /// panicking or overflowing; every statement accepted prints to text
    /// that parses back to it.
    #[test]
    fn random_token_sequences_neither_panic_nor_overflow() {
        const VOCAB: [&str; 44] = [
            "select",
            "from",
            "where",
            "(",
            ")",
            "not",
            "exists",
            "and",
            "or",
            "in",
            "A",
            "R.A",
            "R",
            "1",
            "'s'",
            "=",
            "<",
            "+",
            "-",
            "*",
            "/",
            ",",
            ";",
            "group",
            "worlds",
            "by",
            "choice",
            "of",
            "repair",
            "key",
            "possible",
            "certain",
            "count",
            "sum",
            "insert",
            "into",
            "values",
            "update",
            "set",
            "delete",
            "as",
            "9223372036854775808",
            "A = 1",
            "(select A from R)",
        ];
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        let mut scripts = Vec::new();
        for _ in 0..3000 {
            let len = rng.below(40);
            let words: Vec<&str> = (0..len).map(|_| VOCAB[rng.below(VOCAB.len())]).collect();
            scripts.push(words.join(" "));
        }
        for _ in 0..300 {
            let depth = 60 + rng.below(140);
            scripts.push(format!(
                "select * from R where {};",
                nested_cond(&mut rng, depth)
            ));
        }
        scripts.push("(".repeat(100_000));
        scripts.push(nested_not(100_000));
        scripts.push(flat_and(100_000));
        let (accepted, deep) = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let (mut accepted, mut deep) = (0, 0usize);
                for text in &scripts {
                    for stmt in parse_script(text).into_iter().flatten() {
                        let printed = stmt.to_string();
                        assert_eq!(parse_statement(&printed), Ok(stmt), "{text}");
                        accepted += 1;
                        deep += usize::from(printed.len() > 2000);
                    }
                }
                (accepted, deep)
            })
            .unwrap()
            .join()
            .expect("the parser panicked");
        // The nested statements straddle the bound: many parse, many not.
        assert!((100..280).contains(&deep), "{accepted} parsed, {deep} deep");
    }

    /// Every statement of `tests/conformance.rs`, `tests/toggle_matrix.rs`
    /// and the B16 catalog (`statement_path/src/catalog.rs`, with `X0`
    /// for its generated names), plus escapes, Unicode names and error
    /// cases, parses to the `Debug` text the `char` lexer and cloning
    /// parser gave it. `tests/data/parse_corpus.txt` holds each script on
    /// one line and that parser's `parse_script` result on the next.
    #[test]
    fn corpus_parses_as_recorded() {
        let corpus = include_str!("../tests/data/parse_corpus.txt");
        let lines: Vec<&str> = corpus.lines().collect();
        assert!(lines.len() >= 200 && lines.len().is_multiple_of(2));
        for pair in lines.chunks(2) {
            let got = format!("{:?}", parse_script(pair[0]));
            assert_eq!(got, pair[1], "{}", pair[0]);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement("selec * from R;").is_err());
        assert!(parse_statement("select from R;").is_err());
        assert!(parse_statement("select * R;").is_err());
    }
}
