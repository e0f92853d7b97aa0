//! Statement-level referee of the relational route: a `1↦1` select over a
//! one-world session runs as its Section-5.3 relational plan (Theorem 5.7),
//! not as a world-set. A select without world constructs is `1↦1`, so it
//! takes the route too.
//!
//! Every corpus statement must render byte-identically to the same
//! statement with `set local rewrite = off;` (the interpreter), leave the
//! session's world-set equal to `wsa::eval_named(compile_select(..))` — the
//! Figure-3 reference — and keep every base relation the same `Arc`.
//! The paper's what-if query takes it too: `group by` compiles to `γ` and
//! `[not] in`/`[not] exists` to semijoins and antijoins.
//! `repair by key` takes the route when the repair is key-local: its input
//! is complete, and only σ, π, renaming and products with complete
//! relations lie between it and `possible`/`certain`. Multi-world sessions,
//! world-set-valued statements and every other repair shape do not.

use std::collections::HashSet;
use std::sync::Arc;

use isql::server::render_outcome;
use isql::{compile_select, parse_statement, ExecOutcome, Explanation, Session, Stmt};
use relalg::opt::PlanCard;
use relalg::{Expr, ExprKind, Relation, Schema, Value};

/// The B16 statement-path catalog's `Flights` and `Hotels` (seed 7), and a
/// departure city that has flights.
fn b16_session() -> (Session, String) {
    let flights = datagen::flights(7, 64, 40, 12);
    let dep = flights.iter().next().expect("flights")[0]
        .as_str()
        .expect("Dep is a string")
        .to_string();
    let mut s = Session::new();
    s.register("Flights", flights).unwrap();
    s.register("Hotels", datagen::hotels(7, 400, 40)).unwrap();
    (s, dep)
}

/// B16's `Census` (seed 7: 200 people, 4 mistyped SSNs, so 16 repairs) and
/// the paper's Figure-2 flights and hotels as `Flights` and `Hotels`.
fn repair_session() -> Session {
    let mut s = figure2_session();
    s.register("Census", datagen::census(7, 200, 4)).unwrap();
    let hflights = s.world_set().index_of("HFlights").unwrap();
    let flights = s.world_set().the_world().unwrap().rel(hflights).clone();
    s.register("Flights", flights).unwrap();
    s
}

/// `possible`/`certain` over key-local repairs.
const REPAIR_CORPUS: [&str; 6] = [
    // B16's `repair`.
    "select certain SSN, Name from Census repair by key SSN;",
    // The key is not in the select list.
    "select certain Name from Census repair by key SSN;",
    "select possible SSN, POW from Census repair by key SSN;",
    // The filter removes the mistyped tuple from key group 1000.
    "select certain SSN, Name from Census where Name != 'Typo0' repair by key SSN;",
    // A repair of a join: departures keyed, `ATL` certain through PHL.
    "select certain F.Arr from Flights F, Hotels H where F.Arr = H.City \
     repair by key F.Dep;",
    "select possible F.Dep, H.Name from Flights F, Hotels H where F.Arr = H.City \
     repair by key F.Dep;",
];

/// The paper's Figure-2 instance.
fn figure2_session() -> Session {
    let mut s = Session::new();
    s.register(
        "HFlights",
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
        "Hotels",
        Relation::table(
            &["Name", "City"],
            &[
                &["Hilton", "ATL"],
                &["Ritz", "BCN"],
                &["Ibis", "ATL"],
                &["Sofitel", "PAR"],
            ],
        ),
    )
    .unwrap();
    s
}

fn corpus(dep: &str) -> Vec<String> {
    vec![
        // B16's `trip` and `join`.
        "select certain Arr from Flights choice of Dep;".to_string(),
        format!(
            "select possible F.Dep, H.Name from Flights F, Hotels H \
             where F.Arr = H.City and F.Dep = '{dep}';"
        ),
        // possible/certain over `choice of` with a join and a selection.
        format!(
            "select possible F.Arr, H.Name from Flights F, Hotels H \
             where F.Arr = H.City and F.Dep != '{dep}' choice of F.Dep;"
        ),
        "select certain H.City from Flights F, Hotels H \
         where F.Arr = H.City choice of F.Dep;"
            .to_string(),
        format!("select certain Arr from Flights where Dep != '{dep}' choice of Dep;"),
        "select possible Dep from Flights choice of Arr;".to_string(),
        // A self-product of two `choice of`s.
        "select certain A.Arr from (select * from Flights choice of Dep) A, \
         (select * from Flights choice of Dep) B where A.Arr = B.Arr;"
            .to_string(),
        "select possible B.Dep from (select * from Flights choice of Dep) A, \
         (select * from Flights choice of Arr) B where A.Arr = B.Arr and A.Dep != B.Dep;"
            .to_string(),
    ]
}

/// Examples 6.1 (`certain`) and 6.2 (`possible`): the group-worlds-by
/// query over `HFlights × Hotels` split by `Dep, City`, as I-SQL writes it.
fn examples_6_1_and_6_2() -> Vec<String> {
    ["certain", "possible"]
        .iter()
        .map(|q| {
            format!(
                "select {q} City from (select possible Dep, Arr, Name, City \
                 from HFlights, Hotels choice of Dep, City group worlds by Dep) X \
                 where Arr = City;"
            )
        })
        .collect()
}

/// B16's `Lineitem` (seed 7: 400 rows, 3 years, 4 quantities) and a small
/// `Sales` table in which distinct tuples share a price.
fn whatif_session() -> Session {
    let mut s = Session::new();
    s.register("Lineitem", datagen::lineitem(7, 400, 3, 4))
        .unwrap();
    let sales = Relation::table(
        &["Product", "Quantity", "Price", "Year"],
        &[
            &[
                Value::str("P1"),
                Value::Int(1),
                Value::Int(10),
                Value::Int(2000),
            ],
            &[
                Value::str("P2"),
                Value::Int(1),
                Value::Int(10),
                Value::Int(2000),
            ],
            &[
                Value::str("P3"),
                Value::Int(2),
                Value::Int(10),
                Value::Int(2000),
            ],
            &[
                Value::str("P1"),
                Value::Int(2),
                Value::Int(5),
                Value::Int(2001),
            ],
            &[
                Value::str("P4"),
                Value::Int(3),
                Value::Int(7),
                Value::Int(2001),
            ],
        ],
    );
    s.register("Sales", sales).unwrap();
    s
}

/// The paper's Section-2 what-if query and its neighbours: `group by` and
/// `[not] in`/`[not] exists` over `choice of` subqueries.
const WHATIF_CORPUS: [&str; 11] = [
    // B16's `whatif`.
    "select possible A.Year, sum(A.Price) as Revenue \
     from (select * from Lineitem choice of Year) as A \
     where Quantity not in (select * from Lineitem choice of Quantity) \
     group by A.Year;",
    // A qualified probe names the subquery's column by its bare name.
    "select possible A.Year, sum(A.Price) as Revenue \
     from (select * from Lineitem choice of Year) as A \
     where A.Quantity not in (select * from Lineitem choice of Quantity) \
     group by A.Year;",
    // `in` against the `not in` above.
    "select possible A.Year, sum(A.Price) as Revenue \
     from (select * from Lineitem choice of Year) as A \
     where Quantity in (select * from Lineitem choice of Quantity) \
     group by A.Year;",
    // `count(*)`, `min` and `max`, closed both ways.
    "select possible A.Year, count(*) as N, min(A.Price) as Lo, max(A.Product) as Hi \
     from (select * from Sales choice of Quantity) as A group by A.Year;",
    "select certain A.Year, count(*) as N, min(A.Price) as Lo \
     from (select * from Sales choice of Product) as A group by A.Year;",
    // P1 and P2 share a price: the sum is over whole tuples, 20 in the
    // world of quantity 1.
    "select possible Year, sum(Price) as Revenue from Sales choice of Quantity group by Year;",
    // The `choice of` input is empty: Figure 3 keeps one world with an
    // empty answer, so every row survives the `not in`.
    "select possible A.Year, sum(A.Price) as Revenue \
     from (select * from Sales choice of Year) as A \
     where A.Quantity not in (select * from Sales where Price > 100 choice of Quantity) \
     group by A.Year;",
    // The `where` after the `choice of` empties the world of quantity 3:
    // there nothing is excluded, and 2000 keeps its full revenue of 30.
    "select possible A.Year, sum(A.Price) as Revenue \
     from (select * from Sales choice of Year) as A \
     where A.Product not in \
       (select * from (select * from Sales choice of Quantity) as S where S.Price > 9) \
     group by A.Year;",
    "select possible A.Year, sum(A.Price) as Revenue \
     from (select * from Sales choice of Year) as A \
     where A.Product in \
       (select * from (select * from Sales choice of Quantity) as S where S.Price > 9) \
     group by A.Year;",
    // Uncorrelated `[not] exists`, over the same emptied worlds.
    "select possible A.Year, count(*) as N from (select * from Sales choice of Year) as A \
     where not exists \
       (select * from (select * from Sales choice of Quantity) as S where S.Price > 9) \
     group by A.Year;",
    "select possible Product from Sales \
     where exists (select * from Sales where Price > 9 choice of Product) \
       and Price < 9 choice of Year;",
];

/// The session's base relations, by name, as shared handles.
fn base_arcs(s: &Session) -> Vec<(String, Arc<Relation>)> {
    let ws = s.world_set();
    let w = ws.iter().next().expect("one world");
    ws.rel_names()
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), w.rel_shared(i).clone()))
        .collect()
}

/// Run `sql` on `s` and check it against the interpreter and Figure 3.
fn check(s: &mut Session, sql: &str) {
    check_on(s, sql, true);
}

/// The composite nodes of `plan` that evaluation visits, deduplicated by
/// printed form: `cards` is `plan`'s pre-order `EXPLAIN` annotation, which
/// marks the projections `÷` reads through (never evaluated).
fn distinct_evaluated(
    plan: &Expr,
    cards: &mut std::slice::Iter<PlanCard>,
    out: &mut HashSet<String>,
) {
    let card = cards.next().expect("one card per plan node");
    if !card.read_through && !matches!(plan.kind(), ExprKind::Table(_) | ExprKind::Lit(_)) {
        out.insert(plan.to_string());
    }
    for c in plan.children() {
        distinct_evaluated(c, cards, out);
    }
}

/// No subplan of the routed plan evaluates twice: the evaluator memoizes by
/// node identity only, so the plan builders must have kept every repeated
/// subplan one shared node. Then the misses are exactly the structurally
/// distinct composite subplans evaluation visits.
fn assert_no_subplan_evaluates_twice(e: &Explanation, sql: &str) {
    let plan = e
        .relational_plan
        .as_ref()
        .expect("a routed select has a plan");
    let misses = e.cache.expect("the plan was trial-evaluated").misses;
    let mut distinct = HashSet::new();
    distinct_evaluated(plan, &mut e.node_cards.iter(), &mut distinct);
    assert_eq!(
        misses,
        distinct.len() as u64,
        "`{sql}` evaluates a structural copy of a subplan: {plan}"
    );
}

/// [`check`], where `route` says whether `sql` takes the relational route.
fn check_on(s: &mut Session, sql: &str, route: bool) {
    let e = s.explain(sql).unwrap();
    assert_eq!(
        e.relational_route, route,
        "`{sql}` should take the relational route: {route}"
    );
    if route {
        assert_no_subplan_evaluates_twice(&e, sql);
    }
    assert_eq!(
        e.render().contains("route:      relational"),
        route,
        "{sql}"
    );

    let Stmt::Select(sel) = parse_statement(sql).unwrap() else {
        panic!("not a select: {sql}");
    };
    let before = s.world_set().clone();
    let base = |name: &str| -> Option<Schema> {
        let idx = before.index_of(name)?;
        Some(before.iter().next()?.rel(idx).schema().clone())
    };
    let algebra = compile_select(&sel, &base).unwrap();
    let arcs = base_arcs(s);

    let mut plain = s.clone();
    plain.execute("set local rewrite = off;").unwrap();
    let reference = plain.execute(sql).unwrap();
    let routed = s.execute(sql).unwrap();
    assert_eq!(
        render_outcome(&routed[0], s.world_set().len()),
        render_outcome(&reference[0], plain.world_set().len()),
        "`{sql}` renders differently from the interpreter"
    );

    let ExecOutcome::Rows { name, .. } = &routed[0] else {
        panic!("a select answers rows");
    };
    let figure3 = wsa::eval_named(&algebra, &before, name).unwrap();
    assert_eq!(s.world_set(), &figure3, "`{sql}` differs from Figure 3");

    let w = s.world_set().iter().next().unwrap();
    for (i, (n, arc)) in arcs.iter().enumerate() {
        assert!(
            Arc::ptr_eq(w.rel_shared(i), arc),
            "`{sql}` replaced base relation {n}"
        );
    }
}

#[test]
fn complete_to_complete_statements_match_the_interpreter_and_figure_3() {
    let (mut s, dep) = b16_session();
    for sql in corpus(&dep) {
        check(&mut s, &sql);
    }
    let mut s = figure2_session();
    for sql in examples_6_1_and_6_2() {
        check(&mut s, &sql);
    }
}

#[test]
fn what_if_statements_match_the_interpreter_and_figure_3() {
    let mut s = whatif_session();
    for sql in WHATIF_CORPUS {
        check(&mut s, sql);
    }
}

/// Selects without world constructs: B16's `point` and `agg`, joins,
/// subquery conjuncts and grouping.
fn plain_corpus(dep: &str) -> Vec<String> {
    vec![
        // B16's `point`.
        "select * from Hotels where Name = 'H0042';".to_string(),
        // Aliased joins, with and without `select *`.
        format!(
            "select F.Dep, H.Name from Flights F, Hotels H \
             where F.Arr = H.City and F.Dep = '{dep}';"
        ),
        format!("select * from Flights F, Hotels H where F.Arr = H.City and F.Dep = '{dep}';"),
        format!("select * from Flights where Dep = '{dep}';"),
        "select A.Dep, B.Arr from Flights A, Flights B \
         where A.Arr = B.Dep and A.Dep != B.Arr;"
            .to_string(),
        // `[not] in` and `[not] exists`.
        format!(
            "select Name from Hotels where City in \
             (select Arr from Flights where Dep = '{dep}');"
        ),
        "select Name, City from Hotels where City not in (select Arr from Flights);".to_string(),
        format!(
            "select Dep, Arr from Flights where exists \
             (select * from Hotels where City = '{dep}');"
        ),
        "select Dep from Flights where not exists \
         (select * from Hotels where City = 'nowhere');"
            .to_string(),
    ]
}

/// Grouping over B16's `Lineitem` and the small `Sales`, whose distinct
/// tuples share prices, and over an empty table.
const PLAIN_GROUP_CORPUS: [&str; 6] = [
    // B16's `agg`.
    "select Year, sum(Price) as Rev from Lineitem group by Year;",
    // Every function; P1, P2 and P3 each cost 10 in 2000, and all three
    // count: 30.
    "select Year, count(*) as N, sum(Price) as S, min(Product) as Lo, \
     max(Price) as Hi, avg(Price) as M from Sales group by Year;",
    "select Price, count(*) as N from Sales group by Price;",
    "select Year, Quantity, sum(Price) as S from Lineitem \
     where Quantity != 2 group by Year, Quantity;",
    // No rows, no groups.
    "select Year, count(*) as N, sum(Price) as S from NoSales group by Year;",
    "select Year, max(Price) as Hi from Sales where Price > 100 group by Year;",
];

#[test]
fn plain_selects_match_the_interpreter_and_figure_3() {
    let (mut s, dep) = b16_session();
    for sql in plain_corpus(&dep) {
        check(&mut s, &sql);
    }
    let mut s = whatif_session();
    s.register(
        "NoSales",
        Relation::empty(Schema::of(&["Product", "Price", "Year"])),
    )
    .unwrap();
    for sql in PLAIN_GROUP_CORPUS {
        check(&mut s, sql);
    }
    // A view is a relation of the session: defining one over a plain
    // select takes the route, and so does a select over it.
    let cheap = "select Product, Year from Sales where Price < 10;";
    assert!(s.explain(cheap).unwrap().relational_route);
    s.execute(&format!("create view Cheap as {cheap}")).unwrap();
    check(&mut s, "select Year from Cheap;");
    // A `choice of` view splits the session into worlds: a plain select
    // over it falls back to the interpreter.
    s.execute("create view ByYear as select * from Sales choice of Year;")
        .unwrap();
    assert_eq!(s.world_set().len(), 2);
    check_on(&mut s, "select Product, Price from ByYear;", false);
    check_on(&mut s, PLAIN_GROUP_CORPUS[1], false);
}

/// Every corpus statement prints as I-SQL text that parses back to it:
/// the text a durable engine logs.
#[test]
fn corpus_statements_print_and_parse_back() {
    let dep = b16_session().1;
    let fixed = WHATIF_CORPUS
        .iter()
        .chain(&PLAIN_GROUP_CORPUS)
        .chain(&REPAIR_CORPUS)
        .map(|s| s.to_string());
    let corpus = corpus(&dep)
        .into_iter()
        .chain(examples_6_1_and_6_2())
        .chain(plain_corpus(&dep))
        .chain(fixed);
    for sql in corpus {
        let stmt = parse_statement(&sql).unwrap();
        assert_eq!(parse_statement(&stmt.to_string()), Ok(stmt), "{sql}");
    }
}

#[test]
fn key_local_repairs_match_the_interpreter_and_figure_3() {
    let mut s = repair_session();
    for sql in REPAIR_CORPUS {
        check(&mut s, sql);
    }
}

/// The B16 selects' plans evaluate no more composite nodes than when the
/// evaluator also deduplicated structurally equal subplans: the counts
/// below are the misses of that evaluator on the same plans. Each plan also
/// prints as the text it had while attribute names were reference-counted
/// strings, before they were interned: interning changes no rewrite's
/// choice, no column order and no name.
#[test]
fn b16_plans_evaluate_each_subplan_once() {
    let (b16, dep) = b16_session();
    let (whatif, repair) = (whatif_session(), repair_session());
    let join = format!(
        "select possible F.Dep, H.Name from Flights F, Hotels H \
         where F.Arr = H.City and F.Dep = '{dep}';"
    );
    let point_plan = "δ{Hotels.Name→Name,Hotels.City→City}(σ[Hotels.Name='H0042']\
                      (δ{Name→Hotels.Name,City→Hotels.City}(Hotels)))";
    let join_plan = format!(
        "π{{F.Dep as Dep,H.Name as Name}}((σ[F.Dep='{dep}'](δ{{Dep→F.Dep,Arr→F.Arr}}(Flights)) \
         ⋈[F.Arr=H.City] δ{{Name→H.Name,City→H.City}}(Hotels)))"
    );
    let agg_plan = "δ{Lineitem.Year→Year}(γ{Lineitem.Year;sum(Lineitem.Price) as Rev}\
                    (δ{Product→Lineitem.Product,Quantity→Lineitem.Quantity,\
                    Price→Lineitem.Price,Year→Lineitem.Year}(Lineitem)))";
    let trip_plan = "(π{Arr,Dep}(Flights) ÷ π{Dep}(Flights))";
    let repair_plan = "π{Census.SSN as SSN,Census.Name as Name}\
        ((π{SSN as Census.SSN,Name as Census.Name,SSN as #1.Census.SSN}(Census) \
        − π{Census.SSN,Census.Name,#1.Census.SSN}\
        (((π{SSN as Census.SSN,Name as Census.Name,SSN as #1.Census.SSN}(Census) \
        ⋈ π{SSN as #1.Census.SSN,Name as #1.Census.Name,POB as #1.Census.POB,\
        POW as #1.Census.POW}(Census)) \
        − π{SSN as Census.SSN,Name as Census.Name,SSN as #1.Census.SSN,\
        Name as #1.Census.Name,POB as #1.Census.POB,POW as #1.Census.POW}(Census)))))";
    let whatif_plan = "π{A.Year as Year,Revenue}\
        (γ{A.Year,#1.Lineitem.Year,#2.Lineitem.Quantity;sum(Revenue) as Revenue}\
        (((π{Quantity as A.Quantity,Year as A.Year,Year as #1.Lineitem.Year,Revenue}\
        (γ{Quantity,Year;sum(Price) as Revenue}(Lineitem)) \
        × ({⟨⟩} =⊲⊳ π{Quantity as #2.Lineitem.Quantity}(Lineitem))) \
        ▷[A.Quantity=Quantity,#2.Lineitem.Quantity] \
        π{Quantity,Quantity as #2.Lineitem.Quantity}(Lineitem))))";
    for (s, sql, misses, plan) in [
        (
            &b16,
            "select * from Hotels where Name = 'H0042';",
            3,
            point_plan,
        ),
        (&b16, join.as_str(), 5, join_plan.as_str()),
        (&whatif, PLAIN_GROUP_CORPUS[0], 3, agg_plan),
        (
            &b16,
            "select certain Arr from Flights choice of Dep;",
            2,
            trip_plan,
        ),
        (&repair, REPAIR_CORPUS[0], 8, repair_plan),
        (&whatif, WHATIF_CORPUS[0], 9, whatif_plan),
    ] {
        let e = s.explain(sql).unwrap();
        assert!(e.relational_route, "{sql}");
        let printed = e.relational_plan.as_ref().expect("a relational plan");
        assert_eq!(printed.to_string(), plan, "`{sql}`");
        let stats = e.cache.expect("the plan was trial-evaluated");
        assert!(
            stats.misses <= misses,
            "`{sql}`: {stats:?}, at most {misses} misses"
        );
    }
}

/// Repair-by-key is NP-hard in general (Proposition 4.2): a repair over a
/// `choice of`, or two repairs meeting in a product, keep the interpreter.
#[test]
fn repairs_outside_the_fragment_do_not_take_the_route() {
    let s = repair_session();
    for sql in [
        "select certain SSN from Census choice of POW repair by key SSN;",
        "select certain A.Name from (select * from Census repair by key SSN) A, \
         (select * from Census repair by key SSN) B where A.SSN = B.SSN;",
    ] {
        assert!(!s.explain(sql).unwrap().relational_route, "{sql}");
    }
}

#[test]
fn multi_world_sessions_do_not_take_the_route() {
    let (mut s, _) = b16_session();
    // A world-set-valued statement is not `1↦1`.
    assert!(
        !s.explain("select Arr from Flights choice of Dep;")
            .unwrap()
            .relational_route
    );
    // A `choice of` view splits the session into many worlds.
    s.execute("create view ByDep as select * from Flights choice of Dep;")
        .unwrap();
    assert!(s.world_set().len() > 1);
    assert!(
        !s.explain("select certain Arr from Flights choice of Dep;")
            .unwrap()
            .relational_route
    );
}

/// A world-set-valued select splits the session into one world per
/// departure, and every world keeps the session's `Flights`.
#[test]
fn world_splitting_select_keeps_the_base_relations() {
    let (mut s, _) = b16_session();
    let idx = s.world_set().index_of("Flights").unwrap();
    let flights = s.world_set().the_world().unwrap().rel_shared(idx).clone();
    s.execute("select Arr from Flights choice of Dep;").unwrap();
    assert_eq!(s.world_set().len(), 64);
    assert!(s
        .world_set()
        .iter()
        .all(|w| Arc::ptr_eq(w.rel_shared(idx), &flights)));
}

/// Over many worlds the same `certain … choice of` runs factorized; its
/// decode splices every base relation back from the input world-set
/// instead of rebuilding it, so each world keeps its `Arc`s.
#[test]
fn factorized_decode_keeps_the_base_relations() {
    let (mut s, _) = b16_session();
    s.execute("create view ByDep as select * from Flights choice of Dep;")
        .unwrap();
    assert_eq!(s.world_set().len(), 64);
    let sql = "select certain Arr from Flights choice of Dep;";
    assert_eq!(s.explain(sql).unwrap().rep, "factored");
    let before = s.world_set().clone();
    s.execute(sql).unwrap();
    assert_eq!(s.world_set().len(), 64);
    for (w, b) in s.world_set().iter().zip(before.iter()) {
        for (i, n) in before.rel_names().iter().enumerate() {
            assert!(
                Arc::ptr_eq(w.rel_shared(i), b.rel_shared(i)),
                "{n} was rebuilt"
            );
        }
    }
}

/// Integer overflow is an error on every route, never a panic or a wrapped
/// value: a `sum` past `i64::MAX` (on the relational route, `γ` fails and
/// the interpreter then fails alike) and `+ − × ÷` past the range (outside
/// the fragment, so the interpreter's), rendered the same with the algebra
/// routes off.
#[test]
fn integer_overflow_is_an_error_on_every_route() {
    let mut s = Session::new();
    s.register(
        "Big",
        Relation::table(
            &["K", "V"],
            &[&[1i64, i64::MAX], &[1, 5], &[2, -i64::MAX], &[3, 7]],
        ),
    )
    .unwrap();
    let mut plain = s.clone();
    plain.execute("set local rewrite = off;").unwrap();
    for (sql, routed) in [
        ("select K, sum(V) as S from Big group by K;", true),
        (
            "select possible K, sum(V) as S from Big choice of K group by K;",
            true,
        ),
        ("select K, V + 9223372036854775807 as W from Big;", false),
        ("select K, V - 9 as W from Big where K = 2;", false),
        ("select K, V * 2 as W from Big where K = 1;", false),
        (
            "select K, (V - 1) / (0 - 1) as W from Big where K = 2;",
            false,
        ),
    ] {
        assert_eq!(s.explain(sql).is_ok(), routed, "{sql}");
        let reference = plain.execute(sql).unwrap_err().to_string();
        assert!(reference.contains("integer overflow"), "{sql}: {reference}");
        let before = isql::route_fallbacks();
        let error = s.execute(sql).unwrap_err().to_string();
        let after = isql::route_fallbacks();
        assert_eq!(error, reference, "{sql}");
        if routed {
            assert!(after.route_errors > before.route_errors, "{sql}");
        }
    }
    // In range, the same statements answer; a mean of `i64` values always
    // is.
    s.execute("select K, sum(V) as S from Big where K > 1 group by K;")
        .unwrap();
    s.execute("select K, avg(V) as M from Big where K = 1 group by K;")
        .unwrap();
    s.execute("select K, sum(V) as S from Big where V != 5 group by K;")
        .unwrap();
    s.execute("select K, (V - 1) / (0 - 1) as W from Big where K = 3;")
        .unwrap();
}
