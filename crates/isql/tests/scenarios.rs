//! The paper's Section-2 application scenarios, end to end in I-SQL
//! (experiments E1, E2, E15, E16, E17 in DESIGN.md).

use isql::{ExecOutcome, Session};
use relalg::{Relation, Value};

fn company_db() -> Session {
    let mut s = Session::new();
    s.register(
        "Company_Emp",
        Relation::table(
            &["CID", "EID"],
            &[
                &["ACME", "e1"],
                &["ACME", "e2"],
                &["HAL", "e3"],
                &["HAL", "e4"],
                &["HAL", "e5"],
            ],
        ),
    )
    .unwrap();
    s.register(
        "Emp_Skills",
        Relation::table(
            &["EID", "Skill"],
            &[
                &["e1", "Web"],
                &["e2", "Web"],
                &["e3", "Java"],
                &["e3", "Web"],
                &["e4", "SQL"],
                &["e5", "Java"],
            ],
        ),
    )
    .unwrap();
    s
}

/// The complete acquisition walk-through of Section 2, step by step, with
/// the exact intermediate tables the paper prints.
#[test]
fn acquisition_walkthrough() {
    let mut s = company_db();

    // "Suppose I choose to buy exactly one company."
    s.execute("create view U as select * from Company_Emp choice of CID;")
        .unwrap();
    assert_eq!(s.world_set().len(), 2);
    let us = s.answers("U").unwrap();
    assert!(us.contains(&Relation::table(
        &["CID", "EID"],
        &[&["ACME", "e1"], &["ACME", "e2"]],
    )));
    assert!(us.contains(&Relation::table(
        &["CID", "EID"],
        &[&["HAL", "e3"], &["HAL", "e4"], &["HAL", "e5"]],
    )));

    // "Assume that one (key) employee leaves that company."
    s.execute(
        "create view V as select R1.CID, R1.EID \
         from Company_Emp R1, (select * from U choice of EID) R2 \
         where R1.CID = R2.CID and R1.EID != R2.EID;",
    )
    .unwrap();
    assert_eq!(s.world_set().len(), 5);
    let vs = s.answers("V").unwrap();
    let expect = |rows: &[&[&str]]| Relation::table(&["CID", "EID"], rows);
    // V1.1, V1.2, V2.1, V2.2, V2.3 of the paper.
    for v in [
        expect(&[&["ACME", "e1"]]),
        expect(&[&["ACME", "e2"]]),
        expect(&[&["HAL", "e3"], &["HAL", "e4"]]),
        expect(&[&["HAL", "e3"], &["HAL", "e5"]]),
        expect(&[&["HAL", "e4"], &["HAL", "e5"]]),
    ] {
        assert!(vs.contains(&v), "missing V table {v:?}");
    }

    // "Which skills can I obtain for certain?"
    s.execute(
        "create view W as select certain CID, Skill from V, Emp_Skills \
         where V.EID = Emp_Skills.EID \
         group worlds by (select CID from V);",
    )
    .unwrap();
    assert_eq!(s.world_set().len(), 5);
    let ws = s.answers("W").unwrap();
    assert_eq!(ws.len(), 2);
    assert!(ws.contains(&Relation::table(&["CID", "Skill"], &[&["ACME", "Web"]])));
    assert!(ws.contains(&Relation::table(&["CID", "Skill"], &[&["HAL", "Java"]])));

    // "List the possible acquisition targets guaranteeing skill Web."
    let out = s
        .execute("select possible CID from W where Skill = 'Web';")
        .unwrap();
    let ExecOutcome::Rows { answers, .. } = &out[0] else {
        panic!()
    };
    assert_eq!(answers, &vec![Relation::table(&["CID"], &[&["ACME"]])]);
}

fn flights_db() -> Session {
    let mut s = Session::new();
    s.register(
        "Flights",
        Relation::table(
            &["Dep", "Arr"],
            &[
                &["FRA", "BCN"],
                &["FRA", "ATL"],
                &["PAR", "ATL"],
                &["PAR", "BCN"],
                &["PHL", "ATL"],
            ],
        ),
    )
    .unwrap();
    s.register(
        "Hometowns",
        Relation::table(&["City"], &[&["FRA"], &["PAR"], &["PHL"]]),
    )
    .unwrap();
    s
}

/// Section 2 trip planning: the I-SQL choice-of/certain formulation, the
/// division formulation, and the double-NOT-EXISTS simulation all agree.
#[test]
fn trip_planning_three_formulations() {
    let mut s = flights_db();
    s.execute(
        "create view HFlights as select * from Flights where Dep in \
         (select City from Hometowns);",
    )
    .unwrap();

    let atl = Relation::table(&["Arr"], &[&["ATL"]]);

    // (a) I-SQL with choice-of and certain.
    let out = s
        .execute("select certain Arr from HFlights choice of Dep;")
        .unwrap();
    let ExecOutcome::Rows { answers, .. } = &out[0] else {
        panic!()
    };
    assert_eq!(answers, &vec![atl.clone()]);

    // (b) Relational division, native operator.
    let hf = s.world_set();
    let idx = hf.index_of("HFlights").unwrap();
    let hfr = hf.iter().next().unwrap().rel(idx).clone();
    let division = hfr
        .project(&relalg::attrs(&["Arr", "Dep"]))
        .unwrap()
        .divide(&hfr.project(&relalg::attrs(&["Dep"])).unwrap())
        .unwrap();
    assert_eq!(division, atl);

    // (c) The double NOT-EXISTS SQL simulation from Section 2.
    let out = s
        .execute(
            "select Arr from HFlights F1 \
             where not exists \
               (select * from HFlights F2 \
                where not exists \
                  (select * from HFlights F3 \
                   where F3.Dep = F2.Dep and F3.Arr = F1.Arr));",
        )
        .unwrap();
    let ExecOutcome::Rows { answers, .. } = &out[0] else {
        panic!()
    };
    assert_eq!(answers, &vec![atl]);
}

/// Figure 2(b,c): choice-of then a possible-worlds delete.
#[test]
fn figure_2_deletion() {
    let mut s = flights_db();
    s.execute("create view ByDep as select * from Flights choice of Dep;")
        .unwrap();
    assert_eq!(s.world_set().len(), 3);
    // Deleting ATL arrivals acts in every world (Figure 2(c) deletes on the
    // view relation).
    s.execute("delete from ByDep where Arr = 'ATL';").unwrap();
    let answers = s.answers("ByDep").unwrap();
    // Worlds: {FRA→BCN}, {PAR→BCN}, {} (PHL world lost its only flight).
    assert_eq!(answers.len(), 3);
    assert!(answers.iter().any(|r| r.is_empty()));
    assert!(answers.contains(&Relation::table(&["Dep", "Arr"], &[&["FRA", "BCN"]])));
    assert!(answers.contains(&Relation::table(&["Dep", "Arr"], &[&["PAR", "BCN"]])));
}

/// Column references bind once per row loop, yet an unknown one fails only
/// when a row reads it: in a world where the filter leaves no row, the
/// select answers empty.
#[test]
fn unknown_columns_fail_only_on_rows_that_read_them() {
    let mut s = flights_db();
    s.execute("create view ByDep as select * from Flights choice of Dep;")
        .unwrap();
    let out = s
        .execute("select Bogus from ByDep where Arr = 'nowhere';")
        .unwrap();
    let ExecOutcome::Rows { answers, .. } = &out[0] else {
        panic!("a select answers rows")
    };
    // Three worlds, one distinct (empty) answer.
    assert_eq!(s.world_set().len(), 3);
    assert_eq!(answers.len(), 1);
    assert!(answers[0].is_empty());
    let err = s.execute("select Bogus from ByDep;").unwrap_err();
    assert_eq!(err.0, "unresolved column Bogus");
}

/// The TPC-H-style what-if query of Section 2: which years lose more than a
/// threshold of revenue if some quantity becomes unavailable?
#[test]
fn tpch_what_if_revenue() {
    let mut s = Session::new();
    // Lineitem(Product, Quantity, Price, Year): year 2001's quantity-100
    // sales are worth 1_500_000 (above threshold); everything else small.
    s.register(
        "Lineitem",
        Relation::from_rows(
            relalg::Schema::of(&["Product", "Quantity", "Price", "Year"]),
            vec![
                vec![
                    Value::str("P1"),
                    Value::Int(100),
                    Value::Int(1_500_000),
                    Value::Int(2001),
                ],
                vec![
                    Value::str("P2"),
                    Value::Int(250),
                    Value::Int(300),
                    Value::Int(2001),
                ],
                vec![
                    Value::str("P3"),
                    Value::Int(100),
                    Value::Int(400),
                    Value::Int(2002),
                ],
                vec![
                    Value::str("P4"),
                    Value::Int(250),
                    Value::Int(500),
                    Value::Int(2002),
                ],
            ],
        )
        .unwrap(),
    )
    .unwrap();

    s.execute(
        "create view YearQuantity as \
         select A.Year, sum(A.Price) as Revenue \
         from (select * from Lineitem choice of Year) as A \
         where Quantity not in (select * from Lineitem choice of Quantity) \
         group by A.Year;",
    )
    .unwrap();
    // 2 years × 2 quantities = 4 worlds (some may merge).
    assert!(s.world_set().len() >= 3);

    let out = s
        .execute(
            "select possible Year from YearQuantity as Y \
             where (select sum(Price) from Lineitem where Lineitem.Year = Y.Year) \
                   - Y.Revenue > 1000000;",
        )
        .unwrap();
    let ExecOutcome::Rows { answers, .. } = &out[0] else {
        panic!()
    };
    // Only 2001 loses > 1M when quantity 100 disappears.
    let expected =
        Relation::from_rows(relalg::Schema::of(&["Year"]), vec![vec![Value::Int(2001)]]).unwrap();
    assert_eq!(answers, &vec![expected]);
}

/// Census cleaning with repair-by-key (Section 2): all consistent repairs
/// become worlds.
#[test]
fn census_repair_by_key() {
    let mut s = Session::new();
    s.register(
        "Census",
        Relation::table(
            &["SSN", "Name", "POB", "POW"],
            &[
                &["111", "Ann", "FRA", "PAR"],
                &["111", "Anne", "FRA", "PAR"], // mistyped duplicate
                &["222", "Bob", "PHL", "PHL"],
                &["222", "Rob", "NYC", "PHL"], // mistyped duplicate
                &["333", "Cleo", "BCN", "BCN"],
            ],
        ),
    )
    .unwrap();
    let out = s
        .execute("select * from Census repair by key SSN;")
        .unwrap();
    let ExecOutcome::Rows { answers, .. } = &out[0] else {
        panic!()
    };
    assert_eq!(s.world_set().len(), 4); // 2 × 2 × 1 repairs
    for r in answers {
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.distinct_values(&relalg::attrs(&["SSN"])).unwrap().len(),
            3,
            "SSN must be a key in every repair"
        );
    }
}

/// DML semantics: inserts are discarded in all worlds when a declared key
/// is violated in some world.
#[test]
fn insert_constraint_discards_everywhere() {
    let mut s = Session::new();
    s.register(
        "R",
        Relation::table(&["K", "V"], &[&["a", "1"], &["b", "2"]]),
    )
    .unwrap();
    s.declare_key("R", &["K"]).unwrap();

    // Fine: new key.
    let out = s.execute("insert into R values ('c', '3');").unwrap();
    assert_eq!(out[0], ExecOutcome::Dml { applied: true });
    assert_eq!(s.answers("R").unwrap()[0].len(), 3);

    // Violates the key in the (single) world: discarded.
    let out = s.execute("insert into R values ('a', '9');").unwrap();
    assert_eq!(out[0], ExecOutcome::Dml { applied: false });
    assert_eq!(s.answers("R").unwrap()[0].len(), 3);

    // Split worlds, then attempt an insert violating the key in only some
    // worlds (the K='a' world already holds ('a','1')): discarded
    // everywhere, including the worlds where it would have been fine.
    s.execute("create view C as select * from R choice of K;")
        .unwrap();
    s.declare_key("C", &["K"]).unwrap();
    let before = s.world_set().clone();
    assert_eq!(before.len(), 3);
    // Each key is held by exactly one of the three worlds, so the violating
    // world is the first, a middle and the last one visited in turn (the
    // key check stops at the first violation): the whole catalog stays as
    // it was every time.
    for k in ["a", "b", "c"] {
        let out = s
            .execute(&format!("insert into C values ('{k}', '9');"))
            .unwrap();
        assert_eq!(out[0], ExecOutcome::Dml { applied: false }, "K = {k}");
        assert_eq!(s.world_set(), &before, "K = {k}");
    }
    // A key no world holds yet goes into all of them.
    let out = s.execute("insert into C values ('d', '4');").unwrap();
    assert_eq!(out[0], ExecOutcome::Dml { applied: true });
    assert!(s.answers("C").unwrap().iter().all(|c| c.len() == 2));
}

/// `update` applies per world.
#[test]
fn update_applies_in_every_world() {
    let mut s = flights_db();
    s.execute("create view ByDep as select * from Flights choice of Dep;")
        .unwrap();
    s.execute("update ByDep set Arr = 'XXX' where Arr = 'ATL';")
        .unwrap();
    for r in s.answers("ByDep").unwrap() {
        assert!(r.iter().all(|t| t[1] != Value::str("ATL")));
    }
}

/// `group worlds by` with the column-list shorthand.
#[test]
fn group_worlds_by_columns_shorthand() {
    let mut s = company_db();
    let out = s
        .execute(
            "select certain CID, EID from Company_Emp \
             choice of CID, EID group worlds by CID;",
        )
        .unwrap();
    let ExecOutcome::Rows { answers, .. } = &out[0] else {
        panic!()
    };
    // Within each CID group the single-employee worlds intersect to ∅.
    assert!(answers.iter().all(|r| r.is_empty()));
}

/// Nested session state: repeated queries materialize Q1, Q2, …
#[test]
fn session_names_queries() {
    let mut s = flights_db();
    let out = s
        .execute("select * from Flights; select * from Flights;")
        .unwrap();
    let names: Vec<&str> = out
        .iter()
        .map(|o| match o {
            ExecOutcome::Rows { name, .. } => name.as_str(),
            _ => panic!(),
        })
        .collect();
    assert_eq!(names, vec!["Q1", "Q2"]);
}

/// The TPC-H Q6-style what-if of Section 2: revenue increase from
/// eliminating discounts in a percentage range, per hypothetical
/// (year, discount) world.
#[test]
fn tpch_q6_discount_elimination() {
    let mut s = Session::new();
    s.register(
        "Lineitem",
        Relation::from_rows(
            relalg::Schema::of(&["Product", "Quantity", "Price", "Discount", "Year"]),
            vec![
                // year 2001: two discounted items in range, one outside.
                vec![
                    Value::str("P1"),
                    Value::Int(100),
                    Value::Int(1000),
                    Value::Int(5),
                    Value::Int(2001),
                ],
                vec![
                    Value::str("P2"),
                    Value::Int(250),
                    Value::Int(2000),
                    Value::Int(4),
                    Value::Int(2001),
                ],
                vec![
                    Value::str("P3"),
                    Value::Int(100),
                    Value::Int(500),
                    Value::Int(9),
                    Value::Int(2001),
                ],
                // year 2002: one in range.
                vec![
                    Value::str("P4"),
                    Value::Int(250),
                    Value::Int(3000),
                    Value::Int(2),
                    Value::Int(2002),
                ],
            ],
        )
        .unwrap(),
    )
    .unwrap();

    // A world per (year, in-range discount); gain = Σ price·discount / 100.
    s.execute(
        "create view Q6 as \
         select A.Year, A.Discount, sum(A.Price * A.Discount) / 100 as Gain \
         from (select * from Lineitem choice of Year, Discount) as A \
         where A.Discount >= 2 and A.Discount <= 6 \
         group by A.Year, A.Discount;",
    )
    .unwrap();

    let out = s
        .execute("select possible Year, Discount, Gain from Q6;")
        .unwrap();
    let ExecOutcome::Rows { answers, .. } = &out[0] else {
        panic!()
    };
    let expected = Relation::from_rows(
        relalg::Schema::of(&["Year", "Discount", "Gain"]),
        vec![
            vec![Value::Int(2001), Value::Int(5), Value::Int(50)], // 1000·5/100
            vec![Value::Int(2001), Value::Int(4), Value::Int(80)], // 2000·4/100
            vec![Value::Int(2002), Value::Int(2), Value::Int(60)], // 3000·2/100
        ],
    )
    .unwrap();
    assert_eq!(answers, &vec![expected]);
}

/// Larger synthetic Q6 run on the datagen workload: the possible gains per
/// year are consistent with a direct computation.
#[test]
fn tpch_q6_on_generated_workload() {
    let lineitem = datagen::lineitem_q6(9, 120, 2);
    let mut s = Session::new();
    s.register("Lineitem", lineitem.clone()).unwrap();
    s.execute(
        "create view Q6 as \
         select A.Year, A.Discount, sum(A.Price * A.Discount) / 100 as Gain \
         from (select * from Lineitem choice of Year, Discount) as A \
         where A.Discount >= 3 and A.Discount <= 7 \
         group by A.Year, A.Discount;",
    )
    .unwrap();
    let out = s
        .execute("select possible Year, Discount, Gain from Q6;")
        .unwrap();
    let ExecOutcome::Rows { answers, .. } = &out[0] else {
        panic!()
    };
    let result = &answers[0];

    // Direct check against a hand computation over the base data.
    use std::collections::BTreeMap;
    let mut expected: BTreeMap<(i64, i64), i64> = BTreeMap::new();
    for t in lineitem.iter() {
        let (price, discount, year) = (
            t[2].as_int().unwrap(),
            t[3].as_int().unwrap(),
            t[4].as_int().unwrap(),
        );
        if (3..=7).contains(&discount) {
            *expected.entry((year, discount)).or_default() += price * discount;
        }
    }
    assert_eq!(result.len(), expected.len());
    for t in result.iter() {
        let key = (t[0].as_int().unwrap(), t[1].as_int().unwrap());
        assert_eq!(
            t[2].as_int().unwrap(),
            expected[&key] / 100,
            "world {key:?}"
        );
    }
}
