//! Interpreter ↔ algebra agreement: on the clean I-SQL fragment (the part
//! World-set Algebra formalizes), the direct world-set interpreter and the
//! compiled WSA query must produce the same answers — "World-set algebra is
//! to I-SQL what relational algebra is to SQL" (Section 1), made executable.

use datagen::{random_world_set, RandomSpec};
use isql::{compile_select, parse_statement, ExecOutcome, Session, Stmt};
use proptest::prelude::*;
use relalg::{Relation, Schema};
use worldset::WorldSet;

fn spec() -> RandomSpec {
    RandomSpec {
        schemas: vec![vec!["A", "B"], vec!["C", "D"]],
        worlds: 1,
        max_tuples: 6,
        domain: 4,
    }
}

/// Clean-fragment statements parameterized over constants.
fn statements(k: i64) -> Vec<String> {
    vec![
        format!("select A from R0 where B = {k};"),
        "select certain B from R0 choice of A;".to_string(),
        "select possible A, B from R0 choice of B;".to_string(),
        format!("select possible A from R0 where B != {k} choice of A;"),
        "select certain A, B from R0 choice of A, B;".to_string(),
        "select possible B from R0 choice of A group worlds by B;".to_string(),
        "select certain B from R0 choice of A group worlds by B;".to_string(),
        "select possible A, C from R0, R1 where B = C choice of A;".to_string(),
        "select certain D from R0, R1 where A = C choice of B;".to_string(),
        "select B from (select * from R0 choice of A) X;".to_string(),
    ]
}

/// Compile the statement to WSA, run both pipelines, compare answer sets.
fn check(sql: &str, ws: &WorldSet) -> Result<(), TestCaseError> {
    let Stmt::Select(sel) = parse_statement(sql).unwrap() else {
        panic!("not a select: {sql}");
    };
    let base = |name: &str| -> Option<Schema> {
        let idx = ws.index_of(name)?;
        Some(ws.iter().next()?.rel(idx).schema().clone())
    };
    let Ok(algebra) = compile_select(&sel, &base) else {
        return Ok(()); // outside the clean fragment
    };

    // Algebra route.
    let out = wsa::eval_named(&algebra, ws, "Ans").unwrap();
    let mut algebra_answers: Vec<Relation> = out.iter().map(|w| w.last().clone()).collect();
    algebra_answers.sort();
    algebra_answers.dedup();

    // Interpreter route — forced: with the rewrite path off for this
    // session it cannot silently delegate to the algebra engine (with it
    // on, a statement the optimizer improves would take the algebra route
    // and this suite would compare the algebra engine against itself).
    let mut session = Session::with_world_set(ws.clone());
    session.execute("set local rewrite = off;").unwrap();
    let outcomes = session.execute(sql).unwrap();
    let ExecOutcome::Rows { answers, .. } = &outcomes[0] else {
        panic!()
    };

    // Same distinct answer relations (modulo column order).
    prop_assert_eq!(
        algebra_answers.len(),
        answers.len(),
        "distinct answer count differs for {}",
        sql
    );
    for (a, b) in algebra_answers.iter().zip(answers.iter()) {
        prop_assert!(
            a.schema().same_attr_set(b.schema()),
            "schemas differ for {}: {} vs {}",
            sql,
            a.schema(),
            b.schema()
        );
        // Align column order before comparing tuples.
        let aligned = b.project(a.schema().attrs()).expect("aligned projection");
        prop_assert_eq!(a, &aligned, "answers differ for {}", sql);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn interpreter_agrees_with_algebra(seed in any::<u64>(), k in 0i64..4) {
        let ws = random_world_set(seed, &spec());
        for sql in statements(k) {
            check(&sql, &ws)?;
        }
    }
}

/// The paper's own clean-fragment queries, pinned explicitly.
#[test]
fn paper_queries_agree() {
    let flights = Relation::table(
        &["Dep", "Arr"],
        &[
            &["FRA", "BCN"],
            &["FRA", "ATL"],
            &["PAR", "ATL"],
            &["PAR", "BCN"],
            &["PHL", "ATL"],
        ],
    );
    let ws = WorldSet::single(vec![("HFlights", flights)]);
    // Renamed relation name to match the statement.
    let sqls = [
        "select certain Arr from HFlights choice of Dep;",
        "select possible Arr from HFlights choice of Dep;",
        "select certain Arr from HFlights choice of Dep group worlds by Dep;",
    ];
    for sql in sqls {
        check(sql, &ws).unwrap();
    }
}
