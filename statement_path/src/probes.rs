//! Layer probes: per-layer numbers taken from outside, by timing calls
//! into each crate's public functions on the workload's own catalog. They
//! run in the traced child after the workload, a fixed number of calls
//! each, and report the median call.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use isql::server::{execute_rendered, serve, Client};
use isql::{compile_select, DurabilityOptions, Engine, ExecOutcome, Session, Stmt};
use relalg::codec::{Dec, Enc};
use relalg::{
    attrs, Attr, Catalog as RelCatalog, Pred, Relation, RelationBuilder, Schema, Tuple, Value,
};
use worldset::WorldSet;
use wsa_inlined::InlinedRep;

use crate::catalog::{Catalog, DURABLE_PERIOD, SELECTS, TOGGLE_PERIOD};
use crate::child::{median_of_period_means, memory_engine};
use crate::counting_env::CountingEnv;
use crate::util::{median, Metric};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A probe stops early once it has run this long, so that a call of tens
/// of milliseconds does not hold a traced run up.
const PROBE_CAP: Duration = Duration::from_millis(400);

/// Median time in microseconds of up to `calls` calls of `f`, and how many
/// were made; each call gets the value `prepare` made for it outside the
/// timed part.
fn time_on<T, R>(
    calls: usize,
    mut prepare: impl FnMut() -> T,
    mut f: impl FnMut(T) -> R,
) -> (f64, u64) {
    let mut us = Vec::with_capacity(calls);
    let start = Instant::now();
    while us.len() < calls && (us.len() < 10 || start.elapsed() < PROBE_CAP) {
        let input = prepare();
        let t = Instant::now();
        let out = f(std::hint::black_box(input));
        us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(out);
    }
    (median(&us), us.len() as u64)
}

/// [`time_on`] for a call that needs nothing prepared.
fn time<R>(calls: usize, mut f: impl FnMut() -> R) -> (f64, u64) {
    time_on(calls, || (), |()| f())
}

fn probe(name: impl Into<String>, (value, samples): (f64, u64), unit: &'static str) -> Metric {
    Metric::new(name, value, unit, samples)
}

fn base_schema(ws: &WorldSet) -> impl Fn(&str) -> Option<Schema> + '_ {
    |name| {
        let idx = ws.index_of(name)?;
        Some(ws.iter().next()?.rel(idx).schema().clone())
    }
}

fn parse_select(text: &str) -> isql::SelectStmt {
    match isql::parse_statement(text) {
        Ok(Stmt::Select(sel)) => sel,
        other => panic!("not a select: {text}: {other:?}"),
    }
}

/// Columns in name order, so that answers compare modulo column order.
fn canonical(rel: &Relation) -> Relation {
    let mut names: Vec<Attr> = rel.schema().attrs().to_vec();
    names.sort();
    rel.project(&names)
        .expect("a relation projects onto its own attributes")
}

/// Whether the session's answer to `text` equals the Figure-3 semantics of
/// the compiled algebra on the same world-set.
pub fn agrees_with_figure3(reader: &Session, text: &str) -> bool {
    let sel = parse_select(text);
    let ws = reader.world_set().clone();
    let Ok(query) = compile_select(&sel, &base_schema(&ws)) else {
        return false;
    };
    let Ok(out) = wsa::eval_named(&query, &ws, "Ans") else {
        return false;
    };
    let mut want: Vec<Relation> = out.iter().map(|w| canonical(w.last())).collect();
    want.sort();
    want.dedup();
    let mut session = reader.engine().session();
    let Ok(ExecOutcome::Rows { answers, .. }) = session.run(Stmt::Select(sel)) else {
        return false;
    };
    let mut got: Vec<Relation> = answers.iter().map(canonical).collect();
    got.sort();
    got.dedup();
    want == got
}

/// The probes that need nothing but the catalog.
pub fn layers(catalog: &Catalog, calls: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    let engine = memory_engine(catalog);
    let ws = engine.snapshot().world_set().clone();

    // isql::session
    out.push(probe(
        "session.open_us",
        time(calls, || engine.session()),
        "us",
    ));
    out.push(probe(
        "session.depth_slope_ns",
        depth_slope_ns(&engine, catalog, calls),
        "ns",
    ));
    for (c, class) in SELECTS.iter().enumerate() {
        let mut session = engine.session();
        let payload = execute_rendered(&mut session, &catalog.selects[c]).expect("probe select");
        let bytes = (payload.len() as f64, 1);
        out.push(probe(
            format!("server.answer_bytes.{class}"),
            bytes,
            "bytes",
        ));
        let worlds = (session.world_set().len() as f64, 1);
        out.push(probe(format!("worldset.worlds.{class}"), worlds, "count"));
    }

    // isql::server: what a round trip and a connection cost by themselves.
    {
        let server = serve(engine.clone(), "127.0.0.1:0").expect("loopback is available");
        let mut client = Client::connect(server.addr()).expect("the server is listening");
        let rtt = time(calls, || client.request("set local compact = default;"));
        out.push(probe("server.rtt_floor_us", rtt, "us"));
        let connect = time(calls, || Client::connect(server.addr()));
        out.push(probe("server.connect_us", connect, "us"));
    }

    // isql::compile, wsa_rewrite, wsa (crates/core)
    let stats = |name: &str| -> Option<wsa_rewrite::TableStats> {
        let rel = ws.iter().next()?.rel(ws.index_of(name)?);
        let s = rel.stats();
        Some(wsa_rewrite::TableStats {
            rows: s.rows,
            distinct: rel
                .schema()
                .attrs()
                .iter()
                .enumerate()
                .map(|(i, a)| (a.clone(), s.cols[i].distinct))
                .collect(),
        })
    };
    let base = base_schema(&ws);
    let ctx = wsa_rewrite::RewriteCtx::new(&base).with_stats(&stats);
    for class in ["point", "join", "trip"] {
        let sel = parse_select(catalog.select(class));
        let compile = time(calls, || compile_select(&sel, &base));
        out.push(probe(format!("compile.compile_us.{class}"), compile, "us"));
        let query = compile_select(&sel, &base).expect("inside the WSA fragment");
        let optimize = time(calls, || wsa_rewrite::optimize(&query, &ctx));
        out.push(probe(
            format!("rewrite.optimize_us.{class}"),
            optimize,
            "us",
        ));
        // Both evaluators get the optimized plan, as the session's rewrite
        // route would hand it over; the raw algebra of `join` is a product
        // of the two tables, 40 times slower, which no route evaluates.
        let optimized = wsa_rewrite::optimize(&query, &ctx);
        let routed = time(calls, || wsa::eval_named_routed(&optimized, &ws, "Ans"));
        out.push(probe(format!("core.routed_us.{class}"), routed, "us"));
        let fig3 = time(calls, || wsa::eval_named(&optimized, &ws, "Ans"));
        out.push(probe(format!("core.fig3_us.{class}"), fig3, "us"));
    }
    let trip = compile_select(&parse_select(catalog.select("trip")), &base)
        .expect("inside the WSA fragment");
    let plan = time(calls, || wsa::plan_query(&trip, &ws));
    out.push(probe("core.plan_us.trip", plan, "us"));
    let factorized = time(calls, || wsa::eval_factorized(&trip, &ws, "Ans"));
    out.push(probe("core.factorized_us.trip", factorized, "us"));

    // wsa_inlined and relalg::eval: the Figure-6 route of `trip`, taken
    // apart into translate, evaluate and decode.
    let rep = InlinedRep::single_world(catalog.tables.clone());
    let translate = time(calls, || wsa_inlined::translate_general(&trip, &rep));
    out.push(probe("inlined.translate_us.trip", translate, "us"));
    let hit = time(calls, || wsa_inlined::run_general(&trip, &rep, "Ans"));
    out.push(probe("inlined.run_general_us.trip", hit, "us"));
    // Cache hits are verified by content, so a cold call needs content no
    // earlier call had: one more flight, to a destination numbered anew.
    let mut call = 0i64;
    let rebuilt = || {
        call += 1;
        let tables = catalog
            .tables
            .iter()
            .map(|(name, rel)| {
                let extra = (*name == "Flights")
                    .then(|| Tuple::from(vec![Value::str("D000"), Value::Int(call)]));
                let rows = rel.iter().cloned().chain(extra);
                let copy = Relation::from_rows(rel.schema().clone(), rows);
                (*name, copy.expect("same arity"))
            })
            .collect();
        InlinedRep::single_world(tables)
    };
    let cold = time_on(calls, rebuilt, |rep| {
        wsa_inlined::run_general(&trip, &rep, "Ans")
    });
    out.push(probe("inlined.run_general_cold_us.trip", cold, "us"));
    let translated = wsa_inlined::translate_general(&trip, &rep).expect("trip translates");
    let evaluate = || -> Vec<Arc<Relation>> {
        let mut cat = RelCatalog::new();
        for (name, table) in rep.names.iter().zip(&rep.tables) {
            cat.put(name, table.clone());
        }
        // The name under which translated plans read the world table.
        cat.put("#W", rep.world_table.clone());
        translated
            .tables
            .iter()
            .chain([&translated.answer, &translated.world_table])
            .map(|e| cat.eval(e).expect("the translated plan evaluates"))
            .collect()
    };
    out.push(probe("relalg.eval_us.trip", time(calls, evaluate), "us"));
    let mut evaluated = evaluate();
    let world_table = evaluated.pop().expect("the world table was evaluated last");
    let mut names = translated.names.clone();
    names.push("Ans".to_string());
    let answer_rep = InlinedRep {
        names,
        tables: evaluated.iter().map(|r| (**r).clone()).collect(),
        id_attrs: translated.id_attrs.clone(),
        world_table: (*world_table).clone(),
    };
    let decode = time(calls, || answer_rep.rep());
    out.push(probe("inlined.decode_us.trip", decode, "us"));

    // relalg kernels on the catalog's own tables.
    let (flights, hotels, lineitem) = (
        catalog.table("Flights"),
        catalog.table("Hotels"),
        catalog.table("Lineitem"),
    );
    let qualify = |rel: &Relation, alias: &str| {
        let map: Vec<(Attr, Attr)> = rel
            .schema()
            .attrs()
            .iter()
            .map(|a| (a.clone(), a.qualified(alias)))
            .collect();
        rel.rename(&map)
            .expect("qualifying renames every attribute once")
    };
    let (f, h) = (qualify(flights, "F"), qualify(hotels, "H"));
    let on = Pred::eq_attr("F.Arr", "H.City");
    out.push(probe(
        "relalg.join_us",
        time(calls, || f.theta_join(&h, &on)),
        "us",
    ));
    let name_is = Pred::eq_const("Name", "H0042");
    out.push(probe(
        "relalg.select_us",
        time(calls, || hotels.select(&name_is)),
        "us",
    ));
    let arr = attrs(&["Arr"]);
    out.push(probe(
        "relalg.project_us",
        time(calls, || flights.project(&arr)),
        "us",
    ));
    let dep = attrs(&["Dep"]);
    let partition = time(calls, || flights.partition_by(&dep));
    out.push(probe("relalg.partition_us", partition, "us"));
    let unsorted = || {
        let mut b = RelationBuilder::with_capacity(lineitem.schema().clone(), lineitem.len());
        for t in lineitem.iter().rev() {
            b.push(t.clone());
        }
        b
    };
    out.push(probe(
        "relalg.build_us",
        time_on(calls, unsorted, |b| b.finish()),
        "us",
    ));
    // Statistics are memoized on the relation, so each call gets a new one.
    let fresh = || unsorted().finish();
    let stats_us = time_on(calls, fresh, |rel| rel.stats().rows);
    out.push(probe("relalg.stats_us", stats_us, "us"));

    // relalg::pool: what one fan-out costs when the items do nothing.
    let threads = (relalg::pool::num_threads() as f64, 1);
    out.push(probe("pool.threads", threads, "threads"));
    let items = [0u64; 16];
    let fanout = time(calls, || relalg::pool::par_map(&items, |x| *x));
    out.push(probe("pool.fanout_us", fanout, "us"));

    // isql::engine: the commits of `durable_write` on an engine without a
    // data directory, and reading a snapshot.
    let mut writer = engine.session();
    let mut us = Vec::new();
    for i in 0..DURABLE_PERIOD * (calls as u64 / 4).max(1) {
        let stmt = isql::parse_statement(catalog.durable_commit(i)).expect("DML parses");
        let t = Instant::now();
        let out = writer.run(stmt);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        out.expect("DML commits");
    }
    let commit = (
        median_of_period_means(&us, DURABLE_PERIOD as usize),
        us.len() as u64,
    );
    out.push(probe("engine.commit_mem_us", commit, "us"));
    out.push(probe(
        "engine.snapshot_us",
        time(calls, || engine.snapshot()),
        "us",
    ));

    // relalg::codec on Lineitem.
    let encode = || {
        let mut e = Enc::new();
        e.put_relation(lineitem);
        e.finish()
    };
    let bytes = encode();
    out.push(probe("codec.encode_us", time(calls, encode), "us"));
    let decode = time(calls, || {
        Dec::new(&bytes).and_then(|mut d| d.get_relation())
    });
    out.push(probe("codec.decode_us", decode, "us"));
    out.push(probe("codec.bytes", (bytes.len() as f64, 1), "bytes"));
    out
}

/// Growth of `point` latency per statement the session ran before:
/// (median at depth ≈ 1000 − median at depth ≈ 0) ÷ the depth between.
fn depth_slope_ns(engine: &Engine, catalog: &Catalog, calls: usize) -> (f64, u64) {
    let depth = (5 * calls).max(20);
    let window = depth / 10;
    let mut session = engine.session();
    let mut us = Vec::with_capacity(depth);
    for _ in 0..depth {
        let t = Instant::now();
        let out = execute_rendered(&mut session, &catalog.selects[0]);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        out.expect("probe select");
    }
    let shallow = median(&us[..window]);
    let deep = median(&us[depth - window..]);
    (
        (deep - shallow) * 1e3 / (depth - window) as f64,
        depth as u64,
    )
}

/// Probes of the durable engine: a checkpoint of the workload's data
/// directory, reopened, and group commit on a data directory of its own
/// with two writers.
pub fn durable(
    data: &Arc<CountingEnv>,
    catalog: &Catalog,
    dir: &Path,
    calls: usize,
) -> Vec<Metric> {
    let engine = Engine::open_on(data.clone(), DurabilityOptions::default()).expect("reopens");
    let (checkpoint_us, checkpoints) = time(calls.clamp(1, 10), || engine.checkpoint());
    drop(engine);

    let env = Arc::new(CountingEnv::new(dir.join("group")).expect("data directory"));
    let group = Engine::open_on(env.clone(), DurabilityOptions::default()).expect("opens");
    catalog.register(&mut group.session());
    env.take_counts();
    let per_writer = TOGGLE_PERIOD * (calls as u64 / 2).max(1);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut writer = group.session();
                for i in 0..per_writer {
                    // Both writers run the same cycle; an insert of a row
                    // that is there, or a delete of one that is not, is
                    // still a commit.
                    let out = execute_rendered(&mut writer, catalog.toggle_commit(i));
                    assert!(out.is_ok(), "group commit probe: {out:?}");
                }
            });
        }
    });
    let counts = env.take_counts();
    let commits = 2 * per_writer;
    vec![
        Metric::new(
            "durable.checkpoint_ms",
            checkpoint_us / 1e3,
            "ms",
            checkpoints,
        ),
        Metric::new(
            "durable.group_commit_syncs_per_commit",
            counts.sync_us.len() as f64 / commits as f64,
            "count",
            commits,
        ),
    ]
}
