//! Compilation of the clean I-SQL fragment to World-set Algebra.
//!
//! World-set Algebra is "to I-SQL what relational algebra is to SQL"
//! (Section 1): the fragment compiles to WSA operators. The compiled query
//! can then be run through the direct semantics, the Section-5.3
//! relational plan, or the Section-6 optimizer — connecting the surface
//! language to the rest of the system.
//!
//! Supported: `select [possible|certain] cols from tables/subqueries
//! [where comparisons and [not] in / [not] exists conjuncts] [choice of …]
//! [repair by key …] [group by cols] [group worlds by cols]`. A `group by`
//! with `sum`/`count`/`min`/`max`/`avg` over columns becomes `γ`; an
//! uncorrelated `x [not] in (q)` conjunct becomes a semijoin (antijoin) on
//! the probe column — a one-column `q`'s column, else the one named like
//! `x` — and `[not] exists (q)` one on no columns. Still interpreter-only:
//! arithmetic, correlated subqueries, scalar subqueries, subqueries under
//! `or`, aggregates without `group by` (SQL answers one row over an empty
//! input, which `γ` does not), and `group worlds by` over an aggregate.

use relalg::{AggCall, Attr, Pred, Schema};
use wsa::Query;

use crate::ast::*;
use crate::lexer::SqlError;

type Result<T> = std::result::Result<T, SqlError>;

/// Compile a clean-fragment select statement to a WSA query.
///
/// `base` supplies the schemas of base relations (unqualified column
/// names). The compiled query projects to the *bare* output column names,
/// matching the interpreter's output convention.
pub fn compile_select(stmt: &SelectStmt, base: &dyn Fn(&str) -> Option<Schema>) -> Result<Query> {
    Ok(compile_inner(stmt, base)?.0)
}

fn outside(what: &str) -> SqlError {
    SqlError(format!("{what} is outside the WSA fragment"))
}

/// Returns the query plus its qualified output schema.
fn compile_inner(
    stmt: &SelectStmt,
    base: &dyn Fn(&str) -> Option<Schema>,
) -> Result<(Query, Vec<Attr>)> {
    // From-product with alias qualification.
    let mut acc: Option<(Query, Vec<Attr>)> = None;
    for item in &stmt.from {
        let (q, attrs) = compile_from_item(item, base)?;
        acc = Some(match acc {
            None => (q, attrs),
            Some((aq, mut aattrs)) => {
                aattrs.extend(attrs.iter().cloned());
                (aq.product(q), aattrs)
            }
        });
    }
    let (mut q, schema) = acc.ok_or_else(|| SqlError("from clause must not be empty".into()))?;

    // Where: the comparisons as one selection, then one semijoin or
    // antijoin per subquery conjunct (conjunction commutes).
    if let Some(cond) = &stmt.where_cond {
        let (subqueries, comparisons): (Vec<&Cond>, Vec<&Cond>) = cond
            .conjuncts()
            .into_iter()
            .partition(|c| membership(c).is_some());
        if let Some(pred) = comparisons
            .into_iter()
            .map(|c| compile_cond(c, &schema))
            .reduce(|a, b| Ok(a?.and(b?)))
        {
            q = q.select(pred?);
        }
        for c in subqueries {
            let (probe, query, anti) = membership(c).expect("partitioned on it");
            let (sub, sub_out) = compile_inner(query, base)?;
            let on = match probe {
                None => vec![],
                Some(Scalar::Col(c)) => {
                    // A multi-column answer is probed on the column with the
                    // probe's bare name, whatever its qualifier.
                    let col = match sub_out.as_slice() {
                        [only] => only.clone(),
                        _ => resolve(&ColRef::new(&c.name), &sub_out)?,
                    };
                    vec![(resolve(c, &schema)?, col)]
                }
                Some(_) => return Err(outside("an in-probe that is not a column")),
            };
            q = q.semijoin(sub, on, anti);
        }
    }

    // choice of / repair by key.
    if !stmt.choice_of.is_empty() {
        q = q.choice(resolve_all(&stmt.choice_of, &schema)?);
    }
    if !stmt.repair_by_key.is_empty() {
        q = q.repair_by_key(resolve_all(&stmt.repair_by_key, &schema)?);
    }

    // Select list: column references, plus aggregates over columns under
    // `group by`.
    let mut out_attrs = Vec::new();
    let mut out_names = Vec::new();
    let aggregating = !stmt.group_by.is_empty()
        || stmt.items.iter().any(|i| {
            matches!(
                i,
                SelectItem::Expr {
                    expr: Scalar::Agg(..) | Scalar::CountStar,
                    ..
                }
            )
        });
    if aggregating {
        if stmt.group_by.is_empty() {
            return Err(outside("an aggregate without group by"));
        }
        if stmt.group_worlds_by.is_some() {
            return Err(outside("group worlds by over an aggregate"));
        }
        let group = resolve_all(&stmt.group_by, &schema)?;
        let mut aggs = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(outside("select * with group by"));
            };
            let (func, arg) = match expr {
                Scalar::Col(c) => {
                    let attr = resolve(c, &schema)?;
                    if !group.contains(&attr) {
                        return Err(outside(&format!("select item {i} outside group by")));
                    }
                    out_attrs.push(attr);
                    out_names.push(Attr::new(alias.as_deref().unwrap_or(&c.name)));
                    continue;
                }
                Scalar::Agg(f, arg) => match arg.as_ref() {
                    Scalar::Col(c) => (*f, Some(resolve(c, &schema)?)),
                    _ => return Err(outside(&format!("select item {i}"))),
                },
                Scalar::CountStar => (AggFn::Count, None),
                _ => return Err(outside(&format!("select item {i}"))),
            };
            // The interpreter's output name of an unnamed expression.
            let out = Attr::new(&alias.clone().unwrap_or_else(|| format!("expr{i}")));
            aggs.push(AggCall::new(func, arg, out.clone()));
            out_attrs.push(out.clone());
            out_names.push(out);
        }
        q = q.aggregate(group, aggs);
    } else if stmt.items.len() == 1 && matches!(stmt.items[0], SelectItem::Star) {
        for a in &schema {
            out_attrs.push(a.clone());
            let bare = a.name().rsplit('.').next().unwrap_or(a.name());
            let ambiguous = schema
                .iter()
                .filter(|b| b.name().rsplit('.').next().unwrap_or(b.name()) == bare)
                .count()
                > 1;
            out_names.push(if ambiguous {
                a.clone()
            } else {
                Attr::new(bare)
            });
        }
    } else {
        for (i, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Expr {
                    expr: Scalar::Col(c),
                    alias,
                } => {
                    let attr = resolve(c, &schema)?;
                    out_attrs.push(attr);
                    out_names.push(Attr::new(
                        alias.clone().unwrap_or_else(|| c.name.clone()).as_str(),
                    ));
                }
                _ => {
                    return Err(outside(&format!(
                        "select item {i} (column references only)"
                    )))
                }
            }
        }
    }
    if Schema::try_new(out_names.clone()).is_none() {
        return Err(SqlError("duplicate output column name".into()));
    }

    // group worlds by (+ possible/certain) or plain projection/closure.
    match (&stmt.group_worlds_by, stmt.quant) {
        (Some(GroupWorldsBy::Columns(cols)), Some(quant)) => {
            let group = resolve_all(cols, &schema)?;
            q = match quant {
                Quant::Possible => q.poss_group(group, out_attrs.clone()),
                Quant::Certain => q.cert_group(group, out_attrs.clone()),
            };
        }
        (Some(_), None) => {
            return Err(SqlError(
                "group worlds by requires possible or certain".into(),
            ))
        }
        (Some(GroupWorldsBy::Query(_)), Some(_)) => {
            return Err(SqlError(
                "group worlds by subquery is interpreter-only; use the column shorthand".into(),
            ))
        }
        (None, Some(quant)) => {
            q = q.project(out_attrs.clone());
            q = match quant {
                Quant::Possible => q.poss(),
                Quant::Certain => q.cert(),
            };
        }
        (None, None) => {
            q = q.project(out_attrs.clone());
        }
    }

    // Rename qualified output columns to their bare output names.
    let renames: Vec<(Attr, Attr)> = out_attrs
        .iter()
        .cloned()
        .zip(out_names.iter().cloned())
        .filter(|(a, b)| a != b)
        .collect();
    if !renames.is_empty() {
        q = q.rename(renames);
    }
    Ok((q, out_names))
}

/// A `[not] in` / `[not] exists` conjunct, as its probe (`None` for
/// `exists`), subquery and whether it keeps the rows without a partner.
fn membership(c: &Cond) -> Option<(Option<&Scalar>, &SelectStmt, bool)> {
    match c {
        Cond::In {
            expr,
            query,
            negated,
        } => Some((Some(expr), query, *negated)),
        Cond::Exists { query, negated } => Some((None, query, *negated)),
        Cond::Not(inner) => membership(inner).map(|(p, q, anti)| (p, q, !anti)),
        _ => None,
    }
}

fn compile_from_item(
    item: &FromItem,
    base: &dyn Fn(&str) -> Option<Schema>,
) -> Result<(Query, Vec<Attr>)> {
    match item {
        FromItem::Table { name, alias } => {
            let schema = base(name).ok_or_else(|| SqlError(format!("unknown relation {name}")))?;
            let alias = alias.clone().unwrap_or_else(|| name.clone());
            let qualified: Vec<Attr> = schema
                .attrs()
                .iter()
                .map(|a| Attr::new(&format!("{alias}.{}", a.name())))
                .collect();
            let renames: Vec<(Attr, Attr)> = schema
                .attrs()
                .iter()
                .cloned()
                .zip(qualified.iter().cloned())
                .collect();
            Ok((Query::rel(name).rename(renames), qualified))
        }
        FromItem::Subquery { query, alias } => {
            let (q, out) = compile_inner(query, base)?;
            let qualified: Vec<Attr> = out
                .iter()
                .map(|a| {
                    let bare = a.name().rsplit('.').next().unwrap_or(a.name());
                    Attr::new(&format!("{alias}.{bare}"))
                })
                .collect();
            let renames: Vec<(Attr, Attr)> = out
                .iter()
                .cloned()
                .zip(qualified.iter().cloned())
                .filter(|(a, b)| a != b)
                .collect();
            let q = if renames.is_empty() {
                q
            } else {
                q.rename(renames)
            };
            Ok((q, qualified))
        }
    }
}

fn resolve(col: &ColRef, schema: &[Attr]) -> Result<Attr> {
    let matches: Vec<&Attr> = schema
        .iter()
        .filter(|a| {
            let name = a.name();
            match &col.qualifier {
                Some(q) => name == format!("{q}.{}", col.name),
                None => {
                    name == col.name
                        || name
                            .rsplit_once('.')
                            .map(|(_, bare)| bare == col.name)
                            .unwrap_or(false)
                }
            }
        })
        .collect();
    match matches.len() {
        1 => Ok(matches[0].clone()),
        0 => Err(SqlError(format!("unknown column {col}"))),
        _ => Err(SqlError(format!("ambiguous column {col}"))),
    }
}

fn resolve_all(cols: &[ColRef], schema: &[Attr]) -> Result<Vec<Attr>> {
    cols.iter().map(|c| resolve(c, schema)).collect()
}

fn compile_cond(cond: &Cond, schema: &[Attr]) -> Result<Pred> {
    match cond {
        Cond::Cmp(l, op, r) => {
            let lo = compile_operand(l, schema)?;
            let ro = compile_operand(r, schema)?;
            Ok(Pred::cmp(lo, op.to_relalg(), ro))
        }
        Cond::And(a, b) => Ok(compile_cond(a, schema)?.and(compile_cond(b, schema)?)),
        Cond::Or(a, b) => Ok(compile_cond(a, schema)?.or(compile_cond(b, schema)?)),
        Cond::Not(a) => Ok(compile_cond(a, schema)?.not()),
        Cond::In { .. } | Cond::Exists { .. } => Err(SqlError(
            "in/exists subqueries are outside the WSA fragment".into(),
        )),
    }
}

fn compile_operand(s: &Scalar, schema: &[Attr]) -> Result<relalg::Operand> {
    match s {
        Scalar::Col(c) => Ok(relalg::Operand::Attr(resolve(c, schema)?)),
        Scalar::Lit(Literal::Int(i)) => Ok(relalg::Operand::Const(relalg::Value::Int(*i))),
        Scalar::Lit(Literal::Str(t)) => Ok(relalg::Operand::Const(relalg::Value::str(t))),
        _ => Err(SqlError(
            "only columns and literals are allowed in WSA conditions".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::Stmt;

    fn base(name: &str) -> Option<Schema> {
        match name {
            "HFlights" => Some(Schema::of(&["Dep", "Arr"])),
            "Hotels" => Some(Schema::of(&["Name", "City"])),
            _ => None,
        }
    }

    fn compile(sql: &str) -> Result<Query> {
        let Stmt::Select(sel) = parse_statement(sql).unwrap() else {
            panic!("not a select");
        };
        compile_select(&sel, &base)
    }

    #[test]
    fn compiles_trip_query() {
        let q = compile("select certain Arr from HFlights choice of Dep;").unwrap();
        // Output rename over cert over projection over choice.
        let Query::Rename(_, inner) = &q else {
            panic!("expected output rename, got {q}")
        };
        assert!(matches!(inner.as_ref(), Query::Cert(_)));
        assert!(q.to_string().contains("χ{HFlights.Dep}"));
    }

    #[test]
    fn compiles_group_worlds_by() {
        let q =
            compile("select certain Arr from HFlights choice of Dep group worlds by Dep;").unwrap();
        assert!(matches!(q, Query::Rename(_, _)));
        assert!(q.to_string().contains("cγ"));
    }

    #[test]
    fn compiles_join() {
        let q = compile("select possible City from HFlights, Hotels where Arr = City;").unwrap();
        assert!(q.to_string().contains("×"));
        assert!(q.to_string().contains("poss"));
    }

    #[test]
    fn compiles_grouping_and_membership() {
        let q = compile(
            "select possible Dep, count(*) as N from HFlights \
             where Arr not in (select City from Hotels) group by Dep;",
        )
        .unwrap();
        let printed = q.to_string();
        assert!(
            printed.contains("γ{HFlights.Dep;count(*) as N}"),
            "{printed}"
        );
        assert!(printed.contains("▷{HFlights.Arr=City}"), "{printed}");
        // `not exists` is an antijoin on no columns; a multi-column answer
        // is probed on the column with the probe's bare name.
        let q = compile(
            "select F.Dep from HFlights F where not exists (select * from Hotels) \
             and F.Arr in (select * from Hotels H, HFlights G where H.City = G.Arr);",
        )
        .unwrap();
        let printed = q.to_string();
        assert!(printed.contains("▷{}"), "{printed}");
        assert!(printed.contains("⋉{F.Arr=Arr}"), "{printed}");
    }

    /// What stays interpreter-only: correlated subqueries, arithmetic,
    /// aggregates without `group by` (SQL's one row over an empty input),
    /// a select column outside the `group by`, and grouping worlds over an
    /// aggregate.
    #[test]
    fn declines_what_stays_interpreter_only() {
        for sql in [
            "select Dep from HFlights F where Arr in (select City from Hotels where Name = F.Dep);",
            "select possible Dep from HFlights where Arr in (select City from Hotels) or Dep = 'FRA' \
             choice of Dep;",
            "select Dep, count(*) + 1 as N from HFlights group by Dep;",
            "select sum(Arr) from HFlights;",
            "select count(*) as N from HFlights choice of Dep;",
            "select Dep, Arr, count(*) as N from HFlights group by Dep;",
            "select possible Dep, count(*) as N from HFlights choice of Dep \
             group by Dep group worlds by Dep;",
        ] {
            assert!(compile(sql).is_err(), "{sql}");
        }
    }

    #[test]
    fn compiled_semantics_match_interpreter() {
        use worldset::WorldSet;
        let flights = relalg::Relation::table(
            &["Dep", "Arr"],
            &[
                &["FRA", "BCN"],
                &["FRA", "ATL"],
                &["PAR", "ATL"],
                &["PAR", "BCN"],
                &["PHL", "ATL"],
            ],
        );
        let sql = "select certain Arr from HFlights choice of Dep;";
        let q = compile(sql).unwrap();
        let ws = WorldSet::single(vec![("HFlights", flights.clone())]);
        let algebra = wsa::eval_named(&q, &ws, "A").unwrap();

        let mut session = crate::Session::new();
        session.register("HFlights", flights).unwrap();
        let out = session.execute(sql).unwrap();
        let crate::ExecOutcome::Rows { answers, .. } = &out[0] else {
            panic!()
        };

        // Both report {ATL} as the certain arrival in every world.
        let expected = relalg::Relation::table(&["Arr"], &[&["ATL"]]);
        assert_eq!(answers, &vec![expected.clone()]);
        for w in algebra.iter() {
            assert_eq!(w.last(), &expected);
        }
    }
}
