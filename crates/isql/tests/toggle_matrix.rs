//! Statement-level differential test of the four execution-path toggles.
//!
//! `rewrite`, `columnar`, `factorize` and `compact` each choose between two
//! evaluation routes that must agree. Every script of a fixed I-SQL corpus
//! runs under all 16 `set local` combinations; each combination must render
//! every statement byte-identically to the all-on reference and end in the
//! same world-set. Each script also runs on a durable engine under simulated
//! storage with all toggles on and with all off, and the reopened engine
//! must recover the world-set the in-memory engine published.
//!
//! The corpus: the paper's Figure-2 trip planning, Section-2 acquisition,
//! census cleaning, TPC-H what-if and three-coloring examples; the
//! interpreter-vs-algebra statements over a seeded multi-world world-set;
//! and the statement-path benchmark's seven classes (`point`, `join`, `agg`,
//! `trip`, `repair`, `whatif` and the `commit` insert/update/delete cycle).

use std::sync::Arc;

use isql::env::SimEnv;
use isql::server::render_outcome;
use isql::{DurabilityOptions, Engine};
use relalg::{Relation, Schema, Value};
use worldset::WorldSet;

const TOGGLES: [&str; 4] = ["rewrite", "columnar", "factorize", "compact"];

/// One corpus entry: base tables and key constraints registered through the
/// session API (I-SQL has no DDL for them), then I-SQL statements.
struct Script {
    name: &'static str,
    tables: Vec<(&'static str, Relation)>,
    keys: Vec<(&'static str, &'static [&'static str])>,
    statements: Vec<String>,
}

impl Script {
    fn new(
        name: &'static str,
        tables: Vec<(&'static str, Relation)>,
        statements: &[&str],
    ) -> Script {
        Script {
            name,
            tables,
            keys: Vec::new(),
            statements: statements.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// What one run of a script leaves behind.
struct Run {
    /// One rendered outcome (or error) per statement.
    transcript: Vec<String>,
    /// The session's final world-set, local answers included.
    session_ws: WorldSet,
}

/// The `set local` prelude of combination `mask`: bit `i` turns toggle
/// `TOGGLES[i]` off.
fn prelude(mask: usize) -> String {
    TOGGLES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let value = if mask >> i & 1 == 1 { "off" } else { "on" };
            format!("set local {name} = {value};")
        })
        .collect()
}

fn label(mask: usize) -> String {
    let off: Vec<&str> = (0..TOGGLES.len())
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| TOGGLES[i])
        .collect();
    if off.is_empty() {
        "all on".to_string()
    } else {
        format!("{} off", off.join("+"))
    }
}

/// Run `script` on a fresh session of `engine` under combination `mask`.
fn run(engine: &Engine, script: &Script, mask: usize) -> Run {
    let mut s = engine.session();
    s.execute(&prelude(mask))
        .expect("the four toggle names are accepted");
    for (name, rel) in &script.tables {
        s.register(name, rel.clone()).expect("register");
    }
    for (table, cols) in &script.keys {
        s.declare_key(table, cols).expect("declare key");
    }
    let transcript = script
        .statements
        .iter()
        .map(|stmt| match s.execute(stmt) {
            Ok(outcomes) => outcomes
                .iter()
                .map(|o| render_outcome(o, s.world_set().len()))
                .collect(),
            Err(e) => format!("error: {e}\n"),
        })
        .collect();
    Run {
        transcript,
        session_ws: s.world_set().clone(),
    }
}

/// Panic with the first statement whose rendering differs.
fn assert_same_transcript(script: &Script, want: &Run, got: &Run, what: &str) {
    for ((stmt, w), g) in script
        .statements
        .iter()
        .zip(&want.transcript)
        .zip(&got.transcript)
    {
        assert_eq!(
            g, w,
            "{} [{what}]: `{stmt}` renders differently",
            script.name
        );
    }
    assert!(
        got.session_ws == want.session_ws,
        "{} [{what}]: final world-set differs",
        script.name
    );
}

fn check_matrix(script: &Script) {
    let ref_engine = Engine::new();
    let reference = run(&ref_engine, script, 0);
    for (stmt, out) in script.statements.iter().zip(&reference.transcript) {
        assert!(
            !out.starts_with("error:"),
            "{}: corpus statement `{stmt}` fails: {out}",
            script.name
        );
    }
    let published = ref_engine.snapshot();

    for mask in 1..1 << TOGGLES.len() {
        let engine = Engine::new();
        let got = run(&engine, script, mask);
        assert_same_transcript(script, &reference, &got, &label(mask));
        assert!(
            engine.snapshot().world_set() == published.world_set(),
            "{} [{}]: published world-set differs",
            script.name,
            label(mask)
        );
    }

    let opts = || DurabilityOptions {
        snapshot_every: 4,
        background_snapshots: false,
    };
    for mask in [0, (1 << TOGGLES.len()) - 1] {
        let what = format!("durable, {}", label(mask));
        let env = SimEnv::new();
        let engine = Engine::open_on(Arc::new(env.clone()), opts()).expect("open");
        let got = run(&engine, script, mask);
        assert_same_transcript(script, &reference, &got, &what);
        drop(engine);
        let reopened = Engine::open_on(Arc::new(env.recovered()), opts())
            .unwrap_or_else(|e| panic!("{} [{what}]: recovery failed: {e}", script.name));
        let snap = reopened.snapshot();
        assert!(
            snap.world_set() == published.world_set() && snap.keys() == published.keys(),
            "{} [{what}]: recovered state differs from the in-memory engine",
            script.name
        );
    }
}

/// Figure 2's trip planning, plus self-joins of two `choice of` subqueries
/// over a generated `Routes` table: their 36 implicit worlds are enough for
/// the planner to pick the factorized route.
fn trip_planning() -> Script {
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
    let hometowns = Relation::table(&["City"], &[&["FRA"], &["PAR"], &["PHL"]]);
    Script::new(
        "trip planning",
        vec![
            ("Flights", flights),
            ("Hometowns", hometowns),
            ("Routes", datagen::flights(5, 6, 8, 3)),
        ],
        &[
            "create view HFlights as select * from Flights where Dep in \
             (select City from Hometowns);",
            "select certain Arr from HFlights choice of Dep;",
            "select possible Arr from HFlights choice of Dep;",
            "select certain Arr from HFlights choice of Dep group worlds by Dep;",
            "select Arr from HFlights F1 where not exists \
             (select * from HFlights F2 where not exists \
              (select * from HFlights F3 where F3.Dep = F2.Dep and F3.Arr = F1.Arr));",
            "create view ByDep as select * from Flights choice of Dep;",
            "delete from ByDep where Arr = 'ATL';",
            "select possible Dep, Arr from ByDep;",
            "select certain Arr from Flights choice of Dep;",
            "select certain A.Arr from (select * from Routes choice of Dep) A, \
             (select * from Routes choice of Dep) B where A.Arr = B.Arr;",
            "select possible A.Dep, A.Arr from (select * from Routes choice of Dep) A, \
             (select * from Routes choice of Arr) B where A.Arr = B.Arr and A.Dep != B.Dep;",
            "select possible B.Dep from (select * from Routes choice of Dep) A, \
             (select * from Routes choice of Dep) B where A.Arr = B.Arr and A.Dep != B.Dep;",
        ],
    )
}

fn acquisition() -> Script {
    let company = Relation::table(
        &["CID", "EID"],
        &[
            &["ACME", "e1"],
            &["ACME", "e2"],
            &["HAL", "e3"],
            &["HAL", "e4"],
            &["HAL", "e5"],
        ],
    );
    let skills = Relation::table(
        &["EID", "Skill"],
        &[
            &["e1", "Web"],
            &["e2", "Web"],
            &["e3", "Java"],
            &["e3", "Web"],
            &["e4", "SQL"],
            &["e5", "Java"],
        ],
    );
    Script::new(
        "acquisition",
        vec![("Company_Emp", company), ("Emp_Skills", skills)],
        &[
            "create view U as select * from Company_Emp choice of CID;",
            "create view V as select R1.CID, R1.EID \
             from Company_Emp R1, (select * from U choice of EID) R2 \
             where R1.CID = R2.CID and R1.EID != R2.EID;",
            "create view W as select certain CID, Skill from V, Emp_Skills \
             where V.EID = Emp_Skills.EID group worlds by (select CID from V);",
            "select possible CID from W where Skill = 'Web';",
            "select certain Skill from V, Emp_Skills where V.EID = Emp_Skills.EID;",
        ],
    )
}

fn census_cleaning() -> Script {
    Script::new(
        "census cleaning",
        vec![("Census", datagen::census(7, 12, 3))],
        &[
            "create view Clean as select * from Census repair by key SSN;",
            "select certain SSN, Name from Clean;",
            "select possible SSN, Name from Clean;",
            "select certain POB from Clean where SSN = 1001;",
            "update Census set POW = 'HUB' where SSN = 1000;",
            "select possible SSN, POW from Census repair by key SSN;",
        ],
    )
}

/// The what-if revenue query of Section 2, plus Q6-style selections over a
/// relation wide enough (five columns, 240 rows) for the columnar kernels.
fn tpch_whatif() -> Script {
    Script::new(
        "tpch what-if",
        vec![
            ("Lineitem", datagen::lineitem(42, 120, 3, 4)),
            ("LineitemQ6", datagen::lineitem_q6(42, 240, 3)),
        ],
        &[
            "create view YearQuantity as \
             select A.Year, sum(A.Price) as Revenue \
             from (select * from Lineitem choice of Year) as A \
             where Quantity not in (select * from Lineitem choice of Quantity) \
             group by A.Year;",
            "select possible Year from YearQuantity as Y \
             where (select sum(Price) from Lineitem where Lineitem.Year = Y.Year) \
                   - Y.Revenue > 5000;",
            "select sum(Price) as Rev from LineitemQ6 \
             where Year = 2001 and Discount >= 3 and Discount <= 5 and Quantity < 500;",
            "select Product, Price from LineitemQ6 where Discount = 10 and Price > 1000;",
            "select possible Product, Discount from LineitemQ6 \
             where Quantity = 250 and Price < 400 choice of Year;",
            "select certain Quantity from LineitemQ6 choice of Year;",
            "select L.Product, Q.Year from Lineitem L, LineitemQ6 Q \
             where L.Product = Q.Product and L.Price = Q.Price;",
        ],
    )
}

/// Proposition 4.2's guess-and-check program in I-SQL: `repair by key`
/// guesses one color per node (3⁴ worlds); a world is good when no edge is
/// monochromatic. `Edge` is 3-colorable, `K4` is not.
fn three_coloring() -> Script {
    let node_color = Relation::from_rows(
        Schema::of(&["N", "Color"]),
        (0..4i64).flat_map(|n| {
            ["red", "green", "blue"]
                .into_iter()
                .map(move |c| vec![Value::Int(n), Value::str(c)])
        }),
    )
    .unwrap();
    let edges = |pairs: &[(i64, i64)]| {
        Relation::from_rows(
            Schema::of(&["Src", "Dst"]),
            pairs
                .iter()
                .map(|&(u, v)| vec![Value::Int(u), Value::Int(v)]),
        )
        .unwrap()
    };
    let bad = |edge: &str| {
        format!(
            "(select * from Coloring C1, Coloring C2, {edge} E \
             where C1.N = E.Src and C2.N = E.Dst and C1.Color = C2.Color)"
        )
    };
    let colorable = |edge: &str| {
        format!(
            "select possible N from NodeColor where N = 0 and not exists {};",
            bad(edge)
        )
    };
    Script {
        name: "three coloring",
        tables: vec![
            ("NodeColor", node_color),
            ("Edge", edges(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])),
            (
                "K4",
                edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            ),
        ],
        keys: Vec::new(),
        statements: vec![
            "create view Coloring as select * from NodeColor repair by key N;".to_string(),
            colorable("Edge"),
            colorable("K4"),
            "select certain Color from Coloring where N = 0;".to_string(),
            "select possible E.Src, E.Dst from Coloring C1, Coloring C2, Edge E \
             where C1.N = E.Src and C2.N = E.Dst and C1.Color = C2.Color;"
                .to_string(),
            "select certain N from Coloring where Color = 'red' group worlds by \
             (select Color from Coloring where N = 0);"
                .to_string(),
        ],
    }
}

/// The interpreter-vs-algebra statements over a seeded three-world
/// world-set. The worlds come from `datagen::random_world_set`, stored as
/// world-tagged tables `P0(W, A, B)` and `P1(W, C, D)`; `choice of W` over
/// the tag table splits them back into one world each, so the same state
/// also builds through a durable engine's log.
fn random_worlds(seed: u64, k: i64) -> Script {
    const WORLDS: usize = 3;
    let ws = datagen::random_world_set(
        seed,
        &datagen::RandomSpec {
            schemas: vec![vec!["A", "B"], vec!["C", "D"]],
            worlds: WORLDS,
            max_tuples: 6,
            domain: 4,
        },
    );
    let tagged = |idx: usize, cols: [&str; 2]| {
        let rows = ws.iter().enumerate().flat_map(|(w, world)| {
            world
                .rel(idx)
                .iter()
                .map(move |t| vec![Value::Int(w as i64), t[0], t[1]])
                .collect::<Vec<_>>()
        });
        Relation::from_rows(Schema::of(&["W", cols[0], cols[1]]), rows).unwrap()
    };
    let tags = Relation::from_rows(
        Schema::of(&["W"]),
        (0..ws.len() as i64).map(|w| vec![Value::Int(w)]),
    )
    .unwrap();
    let mut statements = vec![
        "create view Pick as select * from Tags choice of W;".to_string(),
        "create view R0 as select P0.A, P0.B from P0, Pick where P0.W = Pick.W;".to_string(),
        "create view R1 as select P1.C, P1.D from P1, Pick where P1.W = Pick.W;".to_string(),
    ];
    statements.extend([
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
        "select certain A, B from R0;".to_string(),
        "select certain B from R0;".to_string(),
        "select certain C from R1 choice of D;".to_string(),
        format!("insert into P0 values (0, {k}, {k});"),
        "select possible A, B from R0;".to_string(),
    ]);
    Script {
        name: "interp vs algebra",
        tables: vec![
            ("Tags", tags),
            ("P0", tagged(0, ["A", "B"])),
            ("P1", tagged(1, ["C", "D"])),
        ],
        keys: Vec::new(),
        statements,
    }
}

/// The statement-path benchmark's classes at a small scale: its six selects
/// before, between and after the `commit` cycle of inserts, updates and
/// deletes (one rejected by the `Census` key), so every class reads both
/// catalog states.
fn statement_classes() -> Script {
    let flights = datagen::flights(11, 16, 10, 4);
    let dep = flights.iter().next().unwrap()[0]
        .as_str()
        .unwrap()
        .to_string();
    let selects = [
        "select * from Hotels where Name = 'H0042';".to_string(),
        format!(
            "select possible F.Dep, H.Name from Flights F, Hotels H \
             where F.Arr = H.City and F.Dep = '{dep}';"
        ),
        "select Year, sum(Price) as Rev from Lineitem group by Year;".to_string(),
        "select certain Arr from Flights choice of Dep;".to_string(),
        "select certain SSN, Name from Census repair by key SSN;".to_string(),
        "select possible A.Year, sum(A.Price) as Revenue \
         from (select * from Lineitem choice of Year) as A \
         where Quantity not in (select * from Lineitem choice of Quantity) \
         group by A.Year;"
            .to_string(),
    ];
    let forward = [
        "insert into Hotels values ('H0042', 'SENT');".to_string(),
        "update Hotels set City = 'SENT2' where Name = 'H0042' and City = 'SENT';".to_string(),
        format!("insert into Flights values ('{dep}', 'SENT2');"),
        "insert into Lineitem values ('P99', 100, 7, 2000);".to_string(),
        "update Lineitem set Price = 8 where Product = 'P99';".to_string(),
        "insert into Census values (999999, 'Sentinel', 'FRA', 'PAR');".to_string(),
        "insert into Census values (1005, 'Dup', 'FRA', 'PAR');".to_string(),
    ];
    let back = [
        "delete from Census where SSN = 999999;".to_string(),
        "delete from Lineitem where Product = 'P99';".to_string(),
        format!("delete from Flights where Dep = '{dep}' and Arr = 'SENT2';"),
        "delete from Hotels where Name = 'H0042' and City = 'SENT2';".to_string(),
    ];
    let statements = [&selects[..], &forward, &selects, &back, &selects].concat();
    Script {
        name: "statement classes",
        tables: vec![
            ("Flights", flights),
            ("Hotels", datagen::hotels(11, 60, 10)),
            ("Lineitem", datagen::lineitem(11, 80, 3, 4)),
            ("Census", datagen::census(11, 40, 3)),
        ],
        keys: vec![("Census", &["SSN"])],
        statements,
    }
}

#[test]
fn trip_planning_agrees_under_every_toggle_combination() {
    check_matrix(&trip_planning());
}

#[test]
fn acquisition_agrees_under_every_toggle_combination() {
    check_matrix(&acquisition());
}

#[test]
fn census_cleaning_agrees_under_every_toggle_combination() {
    check_matrix(&census_cleaning());
}

#[test]
fn tpch_whatif_agrees_under_every_toggle_combination() {
    check_matrix(&tpch_whatif());
}

#[test]
fn three_coloring_agrees_under_every_toggle_combination() {
    check_matrix(&three_coloring());
}

#[test]
fn random_worlds_agree_under_every_toggle_combination() {
    for (seed, k) in [(3, 1), (17, 2), (40, 0)] {
        check_matrix(&random_worlds(seed, k));
    }
}

#[test]
fn statement_classes_agree_under_every_toggle_combination() {
    check_matrix(&statement_classes());
}

/// Every corpus statement prints as I-SQL text that parses back to it:
/// the text its durable runs log. The corpus carries the I-SQL statements
/// of the examples too (acquisition, census cleaning, quickstart's trip
/// query, and the what-if query with another threshold).
#[test]
fn corpus_statements_print_and_parse_back() {
    let scripts = [
        trip_planning(),
        acquisition(),
        census_cleaning(),
        tpch_whatif(),
        three_coloring(),
        random_worlds(3, 1),
        statement_classes(),
    ];
    for script in &scripts {
        for text in &script.statements {
            for stmt in isql::parse_script(text).unwrap() {
                let printed = stmt.to_string();
                assert_eq!(isql::parse_statement(&printed), Ok(stmt), "{text}");
            }
        }
    }
}
