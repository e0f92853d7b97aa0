//! One fresh process of one workload: set-up, warm-up, the timed rounds,
//! the answer checks and, in a traced child, the spans and layer probes.
//!
//! The load is a closed loop with one client: a REPL user and a `Client`
//! caller each wait for their reply before sending the next statement.
//! Over TCP the server adds one handler thread per connection, so at most
//! two threads are busy besides the product's own pool.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isql::server::{execute_rendered, render_outcome, serve, Client, ServerHandle};
use isql::{DurabilityOptions, Engine, Session, Stmt};

use crate::calib::{self, Calibration};
use crate::catalog::{Catalog, Op, Workload, CLASSES, COMMIT, SELECTS, TOGGLE_PERIOD};
use crate::counting_env::CountingEnv;
use crate::probes;
use crate::trace::{self, Span};
use crate::util::{answer_digest, cpu_jiffies, median, p50_p99, peak_rss_mib, Metric};

/// How long the timed phase lasts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Rounds run until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many rounds, with set-up and probes cut down: the
    /// smoke test's mode, small enough for a debug build.
    Rounds(u64),
}

#[derive(Clone, Debug)]
pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// Scratch directory of this child (data directory, trace file).
    pub dir: PathBuf,
}

/// Sizes of the fixed, count-based parts of a child.
struct Scale {
    warmup_rounds: u64,
    /// Rounds of the commit cycle `durable_write` runs before it drops the
    /// engine and recovers it (8 commits each; 188 rounds pass the default
    /// `snapshot_every = 1024`, so recovery reads a snapshot and a WAL tail).
    populate_rounds: u64,
    probe_calls: usize,
}

impl Scale {
    fn of(budget: Budget) -> Scale {
        match budget {
            Budget::Seconds(_) => Scale {
                warmup_rounds: 30,
                populate_rounds: 188,
                probe_calls: 200,
            },
            // No warm-up: the timed rounds then start where a TCP
            // connection does, and the oracle has run every statement.
            Budget::Rounds(_) => Scale {
                warmup_rounds: 0,
                populate_rounds: 4,
                probe_calls: 3,
            },
        }
    }
}

/// Share of a warm workload's time budget spent on the select rounds; the
/// rest times commits once the rounds are over.
const ROUNDS_SHARE: f64 = 0.85;

/// What a child hands to its parent.
#[derive(Clone, Debug, Default)]
pub struct ChildReport {
    pub metrics: Vec<Metric>,
    /// Answer digest per class and catalog state, compared across children.
    pub digests: Vec<(String, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub info: Vec<(String, String)>,
}

impl ChildReport {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Run `text` on `session` through the public constituents of
/// `execute_rendered`, each inside a span.
pub fn execute_in_spans(session: &mut Session, text: &str) -> Result<String, String> {
    let stmts: Vec<Stmt> =
        trace::span("parse", || isql::parse_script(text)).map_err(|e| format!("{e}\n"))?;
    let outcomes = trace::span("run", || {
        stmts
            .into_iter()
            .map(|s| session.run(s))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("{e}\n"))?;
    Ok(trace::span("render", || {
        outcomes
            .iter()
            .map(|o| render_outcome(o, session.world_set().len()))
            .collect()
    }))
}

/// An in-memory engine holding the catalog.
pub fn memory_engine(catalog: &Catalog) -> Engine {
    let engine = Engine::new();
    catalog.register(&mut engine.session());
    engine
}

/// The two front doors. A door has a reader, which the rounds replace
/// with a fresh one, and a writer that only ever runs DML: a session that
/// holds `Q‹n›` answers would publish them with its next commit.
pub enum Door {
    InProc {
        engine: Engine,
        reader: Session,
        writer: Session,
    },
    Tcp {
        reader: Client,
        writer: Client,
        /// In a traced child, an in-process copy of the server's side.
        mirror: Option<Mirror>,
        // Dropped last: the clients hang up first, then the accept loop
        // is stopped and joined.
        server: ServerHandle,
    },
}

/// Replays what a TCP door did inside spans, in process and at the same
/// session depth, to split a request into wire and server work. The replay
/// runs once a period is over: run between two requests it would let the
/// server's handler thread fall asleep, and the next request would pay for
/// waking it, which an untraced client never does.
pub struct Mirror {
    door: Box<Door>,
    pending: Vec<Pending>,
}

enum Pending {
    FreshReader,
    Request {
        root: u32,
        stmt: u32,
        class: &'static str,
        on_writer: bool,
        text: String,
        reply: Result<String, String>,
    },
}

impl Door {
    pub fn in_proc(engine: Engine) -> Door {
        Door::InProc {
            reader: engine.session(),
            writer: engine.session(),
            engine,
        }
    }

    pub fn tcp(engine: Engine, mirror: Option<Engine>) -> Door {
        let server = serve(engine, "127.0.0.1:0").expect("loopback is available");
        let connect = || Client::connect(server.addr()).expect("the server is listening");
        Door::Tcp {
            reader: connect(),
            writer: connect(),
            mirror: mirror.map(|e| Mirror {
                door: Box::new(Door::in_proc(e)),
                pending: Vec::new(),
            }),
            server,
        }
    }

    fn fresh_reader(&mut self) {
        match self {
            Door::InProc { engine, reader, .. } => *reader = engine.session(),
            Door::Tcp {
                reader,
                mirror,
                server,
                ..
            } => {
                *reader = Client::connect(server.addr()).expect("the server is listening");
                if let (Some(m), true) = (mirror, trace::enabled()) {
                    m.pending.push(Pending::FreshReader);
                }
            }
        }
    }

    /// Execute one statement, text in, rendered answer out; returns the
    /// answer and the latency in microseconds. With the recorder on, the
    /// statement is a root span with its parts below it.
    pub fn exec(
        &mut self,
        on_writer: bool,
        text: &str,
        stmt: u32,
        class: &'static str,
    ) -> (Result<String, String>, f64) {
        match self {
            Door::InProc { reader, writer, .. } => {
                let session = if on_writer { writer } else { reader };
                let t = Instant::now();
                let out = if trace::enabled() {
                    trace::root(stmt, class, || execute_in_spans(session, text)).0
                } else {
                    execute_rendered(session, text)
                };
                (out, t.elapsed().as_secs_f64() * 1e6)
            }
            Door::Tcp {
                reader,
                writer,
                mirror,
                ..
            } => {
                let client = if on_writer { writer } else { reader };
                let t = Instant::now();
                let (reply, root) = trace::root(stmt, class, || client.request(text));
                let us = t.elapsed().as_secs_f64() * 1e6;
                let reply = reply.unwrap_or_else(|e| Err(format!("transport: {e}\n")));
                if let (Some(m), true) = (mirror, trace::enabled()) {
                    m.pending.push(Pending::Request {
                        root,
                        stmt,
                        class,
                        on_writer,
                        text: text.to_string(),
                        reply: reply.clone(),
                    });
                }
                (reply, us)
            }
        }
    }

    /// Replay the recorded requests of the period that just ended on the
    /// mirror, their spans attached to the requests' own. Returns how many
    /// TCP payloads differ from the in-process ones; they must be equal
    /// byte for byte.
    pub fn replay_pending(&mut self) -> u64 {
        let Door::Tcp {
            mirror: Some(m), ..
        } = self
        else {
            return 0;
        };
        let was_on = trace::enabled();
        trace::set_enabled(true);
        let mut differ = 0;
        for p in std::mem::take(&mut m.pending) {
            match p {
                Pending::FreshReader => m.door.fresh_reader(),
                Pending::Request {
                    root,
                    stmt,
                    class,
                    on_writer,
                    text,
                    reply,
                } => {
                    let Door::InProc { reader, writer, .. } = m.door.as_mut() else {
                        unreachable!("the mirror runs in process")
                    };
                    let session = if on_writer { writer } else { reader };
                    let replay = trace::span_under(root, stmt, class, "replay", || {
                        execute_in_spans(session, &text)
                    });
                    differ += u64::from(replay != reply);
                }
            }
        }
        trace::set_enabled(was_on);
        differ
    }
}

/// Expected answers, computed at set-up on an engine of their own.
struct Oracle {
    /// Digest per select class and catalog state (round parity).
    digest: [[u64; 2]; 6],
    /// `point`, `join` and `trip` answers that differ from the Figure-3
    /// semantics of their compiled algebra.
    figure3_mismatches: u64,
}

impl Oracle {
    fn compute(catalog: &Catalog, w: Workload) -> Oracle {
        let mut door = Door::in_proc(memory_engine(catalog));
        let mut oracle = Oracle {
            digest: [[0; 2]; 6],
            figure3_mismatches: 0,
        };
        for r in 0..2u64 {
            for op in catalog.ops_with(w, r, true) {
                match op {
                    Op::FreshReader => door.fresh_reader(),
                    Op::Commit(text) => {
                        let (out, _) = door.exec(true, text, 0, CLASSES[COMMIT]);
                        assert_eq!(out.as_deref(), Ok("ok\n"), "oracle: {text}");
                    }
                    Op::Select(c) => {
                        if matches!(SELECTS[c], "point" | "join" | "trip") {
                            let Door::InProc { reader, .. } = &door else {
                                unreachable!("the oracle runs in process")
                            };
                            if !probes::agrees_with_figure3(reader, &catalog.selects[c]) {
                                eprintln!("oracle: {} differs from Figure 3", SELECTS[c]);
                                oracle.figure3_mismatches += 1;
                            }
                        }
                        let (out, _) = door.exec(false, &catalog.selects[c], 0, SELECTS[c]);
                        let payload = out.unwrap_or_else(|e| panic!("oracle: {}: {e}", SELECTS[c]));
                        oracle.digest[c][r as usize] = answer_digest(&payload);
                    }
                }
            }
        }
        oracle
    }
}

/// Wait until the engine and its background snapshot thread have let go
/// of `env`.
fn wait_released(env: &Arc<CountingEnv>) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Arc::strong_count(env) > 1 {
        assert!(
            Instant::now() < deadline,
            "the engine never released its Env"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Latencies and counts of the timed phase.
#[derive(Default)]
struct Timed {
    /// Per class, statements run with the recorder off.
    plain_us: [Vec<f64>; 7],
    /// Per class, statements run inside spans (traced child only).
    traced_us: [Vec<f64>; 7],
    /// Statements and wall time of the rounds (not of a commit phase that
    /// follows them).
    round_stmts: u64,
    round_secs: f64,
    /// The host's speed, sampled at the start of every round (see `calib`).
    calib_us: Vec<f64>,
    calib_cold_us: Vec<f64>,
    /// Time the calibration took, which is not the rounds' time.
    calib_secs: f64,
    /// `plan_cache::stats()` deltas over rounds run with the recorder off.
    cache_hits: u64,
    cache_misses: u64,
    cache_rounds: u64,
}

struct Runner<'a> {
    catalog: &'a Catalog,
    workload: Workload,
    oracle: Oracle,
    door: Door,
    stmt_no: u32,
    attempted: u64,
    failed: u64,
    /// Text of every acknowledged commit, in order (`durable_write`).
    acked: Vec<&'a str>,
    /// Text bytes of the acknowledged commits of the timed phase.
    acked_bytes: u64,
    calibration: Calibration,
}

impl<'a> Runner<'a> {
    fn fail(&mut self, what: &str, detail: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("statement_path: FAILED {what}: {}", detail.trim_end());
        }
    }

    fn replay(&mut self) {
        let differ = self.door.replay_pending();
        if differ > 0 {
            self.failed += differ;
            eprintln!(
                "statement_path: FAILED {differ} TCP payload(s) differ from the in-process ones"
            );
        }
    }

    /// One round; latencies go to `sink` when given (warm-up passes none).
    fn round(&mut self, r: u64, mut sink: Option<&mut [Vec<f64>; 7]>) -> u64 {
        let parity = (r % 2) as usize;
        let mut stmts = 0;
        for op in self.catalog.round_ops(self.workload, r) {
            match op {
                Op::FreshReader => self.door.fresh_reader(),
                Op::Select(c) => {
                    self.stmt_no += 1;
                    self.attempted += 1;
                    stmts += 1;
                    let (out, us) =
                        self.door
                            .exec(false, &self.catalog.selects[c], self.stmt_no, SELECTS[c]);
                    match out {
                        Ok(payload) if answer_digest(&payload) == self.oracle.digest[c][parity] => {
                        }
                        Ok(payload) => self.fail(SELECTS[c], &format!("wrong answer\n{payload}")),
                        Err(e) => self.fail(SELECTS[c], &e),
                    }
                    if let Some(sink) = sink.as_deref_mut() {
                        sink[c].push(us);
                    }
                }
                Op::Commit(text) => {
                    stmts += 1;
                    let us = self.commit(text);
                    if let Some(sink) = sink.as_deref_mut() {
                        sink[COMMIT].push(us);
                    }
                }
            }
        }
        stmts
    }

    fn commit(&mut self, text: &'a str) -> f64 {
        self.stmt_no += 1;
        self.attempted += 1;
        let (out, us) = self.door.exec(true, text, self.stmt_no, CLASSES[COMMIT]);
        match out.as_deref() {
            Ok("ok\n") => {
                self.acked.push(text);
                self.acked_bytes += text.len() as u64;
            }
            Ok(other) => self.fail("commit", other),
            Err(e) => self.fail("commit", e),
        }
        us
    }

    /// Sample the host's speed: the calibration work three times in a row,
    /// the first on whatever the last statement left in the caches, the
    /// third on caches the work itself has filled. The third is the same
    /// in every workload; the first is kept for comparison.
    fn calibrate(&mut self, t: &mut Timed) {
        let cold = self.calibration.measure_us();
        let lukewarm = self.calibration.measure_us();
        let warm = self.calibration.measure_us();
        t.calib_cold_us.push(cold);
        t.calib_us.push(warm);
        t.calib_secs += (cold + lukewarm + warm) / 1e6;
    }

    /// The timed phase. In a traced child every other period runs inside
    /// spans, so the two ways are compared within one process.
    fn timed(&mut self, first_round: u64, budget: Budget, traced_child: bool) -> Timed {
        let mut t = Timed::default();
        let (deadline, max_rounds) = match budget {
            Budget::Seconds(s) => {
                let share = if self.workload.commits_after_rounds() {
                    ROUNDS_SHARE
                } else {
                    1.0
                };
                (Some(Duration::from_secs_f64(s * share)), u64::MAX)
            }
            Budget::Rounds(n) => (None, n),
        };
        let start = Instant::now();
        let mut r = first_round;
        // Whole periods, so the catalog ends in state A. A traced child
        // alternates by period, so that rounds inside spans and rounds
        // without see the same catalog states and session depths.
        let period = self.workload.round_period();
        while r - first_round < max_rounds
            && (deadline.is_none_or(|d| start.elapsed() < d)
                || !(r - first_round).is_multiple_of(period))
        {
            self.calibrate(&mut t);
            let traced = traced_child && ((r - first_round) / period).is_multiple_of(2);
            trace::set_enabled(traced);
            let before = relalg::plan_cache::stats();
            let sink = if traced {
                &mut t.traced_us
            } else {
                &mut t.plain_us
            };
            let stmts = self.round(r, Some(sink));
            if traced && (r + 1 - first_round).is_multiple_of(period) {
                self.replay();
            }
            trace::set_enabled(false);
            t.round_stmts += stmts;
            if !traced {
                let after = relalg::plan_cache::stats();
                t.cache_hits += after.0 - before.0;
                t.cache_misses += after.1 - before.1;
                t.cache_rounds += 1;
            }
            r += 1;
        }
        t.round_secs = start.elapsed().as_secs_f64() - t.calib_secs;
        self.replay();

        if self.workload.commits_after_rounds() {
            // The phase has a budget of its own, counted from here: rounds
            // that ran over theirs (a slow host, a long last period) must
            // not leave it without a single commit.
            let (deadline, max_commits) = match budget {
                Budget::Seconds(s) => (
                    Some(Duration::from_secs_f64(s * (1.0 - ROUNDS_SHARE))),
                    u64::MAX,
                ),
                Budget::Rounds(n) => (None, TOGGLE_PERIOD * n),
            };
            let start = Instant::now();
            let mut i = 0u64;
            while i < max_commits
                && (deadline.is_none_or(|d| start.elapsed() < d)
                    || !i.is_multiple_of(TOGGLE_PERIOD))
            {
                if i.is_multiple_of(TOGGLE_PERIOD) {
                    self.calibrate(&mut t);
                }
                let traced = traced_child && (i / TOGGLE_PERIOD).is_multiple_of(2);
                trace::set_enabled(traced);
                let us = self.commit(self.catalog.toggle_commit(i));
                trace::set_enabled(false);
                let sink = if traced {
                    &mut t.traced_us
                } else {
                    &mut t.plain_us
                };
                sink[COMMIT].push(us);
                i += 1;
                if traced && i.is_multiple_of(TOGGLE_PERIOD) {
                    self.replay();
                }
            }
            self.replay();
        }
        t
    }
}

/// Recover a copy of the data directory that holds only what was synced,
/// and count the acknowledged commits it lacks: 0 when the recovered
/// world-set equals that of an in-memory engine which applied exactly the
/// acknowledged statements.
fn acked_lost(catalog: &Catalog, env: &CountingEnv, acked: &[&str], copy: &Path) -> u64 {
    env.copy_synced(copy).expect("the data directory copies");
    let recovered = Engine::open(copy).expect("the synced prefix recovers");
    let shadow = memory_engine(catalog);
    let mut writer = shadow.session();
    for text in acked {
        assert_eq!(execute_rendered(&mut writer, text).as_deref(), Ok("ok\n"));
    }
    let (want, got) = (shadow.snapshot(), recovered.snapshot());
    if want.world_set() == got.world_set() {
        0
    } else {
        want.seq().saturating_sub(got.seq()).max(1)
    }
}

pub fn run(args: &ChildArgs, started: Instant) -> ChildReport {
    let scale = Scale::of(args.budget);
    let w = args.workload;
    let mut report = ChildReport::default();
    let mut layer: Vec<Metric> = Vec::new();
    std::fs::create_dir_all(&args.dir).expect("the scratch directory can be made");

    // ---- set-up -------------------------------------------------------
    let catalog = Catalog::generate(args.seed);
    let mut env: Option<Arc<CountingEnv>> = None;
    let mut acked: Vec<&str> = Vec::new();
    let door = match w {
        Workload::InprocReadWarm | Workload::InprocReadAfterDml => {
            Door::in_proc(memory_engine(&catalog))
        }
        Workload::TcpReadWarm => Door::tcp(
            memory_engine(&catalog),
            args.trace.then(|| memory_engine(&catalog)),
        ),
        Workload::DurableWrite => {
            let e = Arc::new(CountingEnv::new(args.dir.join("data")).expect("data directory"));
            let engine = Engine::open_on(e.clone(), DurabilityOptions::default())
                .expect("a fresh data directory opens");
            catalog.register(&mut engine.session());
            let mut writer = engine.session();
            for i in 0..scale.populate_rounds * 8 {
                let text = catalog.durable_commit(i);
                assert_eq!(execute_rendered(&mut writer, text).as_deref(), Ok("ok\n"));
                acked.push(text);
            }
            let seq = engine.snapshot().seq();
            // No checkpoint: recovery has a snapshot and a WAL tail to read.
            drop(writer);
            drop(engine);
            wait_released(&e);
            let snap_seq = isql::env::Env::list(e.as_ref())
                .expect("the data directory lists")
                .iter()
                .filter_map(|n| isql::env::parse_snap_name(n))
                .max()
                .unwrap_or(0);
            let t = Instant::now();
            let engine = Engine::open_on(e.clone(), DurabilityOptions::default())
                .expect("the data directory recovers");
            let recover_ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(engine.snapshot().seq(), seq, "recovery lost commits");
            let records = (seq - snap_seq).max(1);
            layer.push(Metric::new("durable.recover_ms", recover_ms, "ms", 1));
            layer.push(Metric::new(
                "durable.recover_us_per_record",
                recover_ms * 1e3 / records as f64,
                "us",
                records,
            ));
            env = Some(e);
            Door::in_proc(engine)
        }
    };
    let oracle = Oracle::compute(&catalog, w);
    let mut runner = Runner {
        catalog: &catalog,
        workload: w,
        failed: oracle.figure3_mismatches,
        oracle,
        door,
        stmt_no: 0,
        attempted: 0,
        acked,
        acked_bytes: 0,
        calibration: Calibration::new(),
    };
    for r in 0..scale.warmup_rounds {
        runner.round(r, None);
    }
    if let Some(e) = &env {
        e.take_counts();
    }
    runner.acked_bytes = 0;
    let setup_s = started.elapsed().as_secs_f64();

    // ---- timed phase --------------------------------------------------
    let jiffies_before = cpu_jiffies();
    let timed = runner.timed(scale.warmup_rounds, args.budget, args.trace);
    // Share of all CPU time of the timed phase that the hypervisor withheld.
    let steal_pct = match (jiffies_before, cpu_jiffies()) {
        (Some((s0, all0)), Some((s1, all1))) if all1 > all0 => {
            100.0 * (s1 - s0) as f64 / (all1 - all0) as f64
        }
        _ => 0.0,
    };

    // ---- results ------------------------------------------------------
    // End-to-end times are scaled to the reference host speed; the tails
    // and every per-layer number stay as measured.
    let calib_us = median(&timed.calib_us);
    let slowdown = calib_us / calib::REFERENCE_US;
    let commits = (timed.plain_us[COMMIT].len() + timed.traced_us[COMMIT].len()) as u64;
    report
        .metrics
        .push(Metric::new("setup_s", setup_s / slowdown, "s", 1));
    report.metrics.push(Metric::new(
        "stmt_per_s",
        timed.round_stmts as f64 / timed.round_secs * slowdown,
        "1/s",
        timed.round_stmts,
    ));
    for (c, class) in CLASSES.iter().enumerate() {
        let (mut p50, p99) = p50_p99(&timed.plain_us[c]);
        let n = timed.plain_us[c].len() as u64;
        if c == COMMIT {
            p50 = median_of_period_means(&timed.plain_us[c], w.commit_period());
        }
        report.metrics.push(Metric::new(
            format!("{class}_p50_us"),
            p50 / slowdown,
            "us",
            n,
        ));
        layer.push(Metric::new(format!("tail.{class}_p99_us"), p99, "us", n));
    }
    let samples = timed.calib_us.len() as u64;
    layer.push(Metric::new("host.calib_us", calib_us, "us", samples));
    layer.push(Metric::new(
        "host.calib_cold_us",
        median(&timed.calib_cold_us),
        "us",
        samples,
    ));
    layer.push(Metric::new("host.slowdown", slowdown, "ratio", samples));
    layer.push(Metric::new("host.steal_pct", steal_pct, "%", 1));
    let lookups = timed.cache_hits + timed.cache_misses;
    layer.push(Metric::new(
        "relalg.plan_cache_hit_ratio",
        timed.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups,
    ));
    layer.push(Metric::new(
        "relalg.plan_cache_lookups_per_round",
        lookups as f64 / timed.cache_rounds.max(1) as f64,
        "count",
        timed.cache_rounds,
    ));
    for (c, class) in SELECTS.iter().enumerate() {
        for (parity, d) in runner.oracle.digest[c].iter().enumerate() {
            report.digests.push((format!("{class}.{parity}"), *d));
        }
    }

    // The counting Env's view of the timed phase, and the durability check.
    let counts = env.as_ref().map(|e| e.take_counts()).unwrap_or_default();
    let per_commit = |x: f64| x / commits.max(1) as f64;
    let written = counts.append_bytes + counts.atomic_bytes;
    let (appends, syncs) = (counts.append_us.len() as u64, counts.sync_us.len() as u64);
    let snapshots = counts.atomic_writes;
    layer.extend(
        [
            ("env.append_us", median(&counts.append_us), "us", appends),
            ("env.sync_us", median(&counts.sync_us), "us", syncs),
            (
                "env.appends_per_commit",
                per_commit(appends as f64),
                "count",
                commits,
            ),
            (
                "env.syncs_per_commit",
                per_commit(syncs as f64),
                "count",
                commits,
            ),
            (
                "env.wal_bytes_per_commit",
                per_commit(counts.append_bytes as f64),
                "bytes",
                commits,
            ),
            ("env.snapshots", snapshots as f64, "count", 1),
            (
                "env.snapshot_bytes",
                counts.atomic_bytes as f64 / snapshots.max(1) as f64,
                "bytes",
                snapshots,
            ),
            (
                "env.write_amp",
                written as f64 / runner.acked_bytes.max(1) as f64,
                "ratio",
                commits,
            ),
        ]
        .map(|(name, value, unit, samples)| Metric::new(name, value, unit, samples)),
    );
    let spans = trace::take();
    let Runner {
        door,
        acked,
        attempted,
        mut failed,
        ..
    } = runner;
    drop(door);
    let mut lost = 0;
    let mut dir_bytes = 0;
    if let Some(e) = &env {
        wait_released(e);
        dir_bytes = e.dir_bytes();
        lost = acked_lost(&catalog, e, &acked, &args.dir.join("synced-copy"));
        if lost > 0 {
            eprintln!("statement_path: FAILED durability: {lost} acknowledged commit(s) lost");
            failed += lost;
        }
        if args.trace {
            layer.extend(probes::durable(e, &catalog, &args.dir, scale.probe_calls));
        }
    }
    layer.push(Metric::new(
        "env.dir_bytes_end",
        dir_bytes as f64,
        "bytes",
        1,
    ));
    layer.push(Metric::new(
        "durable.acked_lost",
        lost as f64,
        "count",
        acked.len() as u64,
    ));

    if args.trace {
        layer.extend(span_metrics(&spans, &timed, w));
        layer.extend(probes::layers(&catalog, scale.probe_calls));
        layer.push(Metric::new("datagen.build_ms", catalog.datagen_ms, "ms", 1));
        let path = args.dir.join(format!("trace-{}.jsonl", w.name()));
        trace::write_jsonl(&path, &spans).expect("the trace file can be written");
        report
            .info
            .push(("trace_file".into(), path.display().to_string()));
        report.info.push(("spans".into(), spans.len().to_string()));
    }
    // Peak memory last, so that it covers everything the child did.
    report
        .metrics
        .push(Metric::new("peak_rss_mb", peak_rss_mib(), "MiB", 1));
    report.metrics.extend(layer);
    report.attempted = attempted;
    report.failed = failed;
    report.info.extend([
        ("nproc".to_string(), probes::nproc().to_string()),
        (
            "pool_threads".to_string(),
            relalg::pool::num_threads().to_string(),
        ),
        (
            "flush_policy".to_string(),
            format!(
                "fsync before every acknowledgement; snapshot_every={}",
                DurabilityOptions::default().snapshot_every
            ),
        ),
    ]);
    report
}

/// Median over whole periods of the mean latency within a period (see
/// [`Workload::commit_period`]); the plain median of a sample shorter than
/// one period.
pub fn median_of_period_means(us: &[f64], period: usize) -> f64 {
    let means: Vec<f64> = us
        .chunks_exact(period)
        .map(|p| p.iter().sum::<f64>() / period as f64)
        .collect();
    if means.is_empty() {
        median(us)
    } else {
        median(&means)
    }
}

/// Per-layer numbers read off the spans of the traced rounds.
fn span_metrics(spans: &[Span], timed: &Timed, w: Workload) -> Vec<Metric> {
    let cover = trace::child_cover_us(spans);
    let by_id: std::collections::HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let class_of = |s: &Span| CLASSES.iter().position(|c| *c == s.class);
    let mut parse: [Vec<f64>; 7] = Default::default();
    let mut run: [Vec<f64>; 7] = Default::default();
    let mut render: [Vec<f64>; 7] = Default::default();
    let mut wire: [Vec<f64>; 7] = Default::default();
    let mut sum_ratio: [Vec<f64>; 7] = Default::default();
    let mut commit_self = Vec::new();
    for s in spans {
        let Some(c) = class_of(s) else { continue };
        let covered = cover.get(&s.id).copied().unwrap_or(0.0);
        match s.name {
            "parse" => {
                parse[c].push(s.dur_us());
                // The span that holds parse, run and render: the statement
                // itself in process, its replay over TCP.
                if let Some(whole) = by_id.get(&s.parent) {
                    let parts = cover.get(&whole.id).copied().unwrap_or(0.0);
                    sum_ratio[c].push(parts / whole.dur_us());
                }
            }
            "run" => {
                run[c].push(s.dur_us());
                if c == COMMIT {
                    commit_self.push(s.dur_us() - covered);
                }
            }
            "render" => render[c].push(s.dur_us()),
            // Over TCP the statement's only child is the replay, which
            // runs after it: what the replay does not cover is the wire.
            "stmt" if w == Workload::TcpReadWarm => wire[c].push(s.dur_us() - covered),
            _ => {}
        }
    }
    let mut out = Vec::new();
    for (c, class) in CLASSES.iter().enumerate() {
        let n = parse[c].len() as u64;
        out.push(Metric::new(
            format!("parser.parse_us.{class}"),
            median(&parse[c]),
            "us",
            n,
        ));
        out.push(Metric::new(
            format!("session.run_us.{class}"),
            median(&run[c]),
            "us",
            n,
        ));
        if c != COMMIT {
            out.push(Metric::new(
                format!("server.render_us.{class}"),
                median(&render[c]),
                "us",
                n,
            ));
            if w == Workload::TcpReadWarm {
                out.push(Metric::new(
                    format!("server.wire_us.{class}"),
                    median(&wire[c]),
                    "us",
                    n,
                ));
            }
        }
    }
    out.push(Metric::new(
        "durable.commit_self_us",
        median(&commit_self),
        "us",
        commit_self.len() as u64,
    ));
    // Over the select classes: an in-memory commit runs for a microsecond,
    // which the bookkeeping between its three spans rivals.
    let ratios: Vec<f64> = sum_ratio[..COMMIT]
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    let farthest = ratios
        .iter()
        .copied()
        .max_by(|a, b| (a - 1.0).abs().total_cmp(&(b - 1.0).abs()))
        .unwrap_or(0.0);
    out.push(Metric::new(
        "trace.sum_ratio_max",
        farthest,
        "ratio",
        ratios.len() as u64,
    ));
    // Same process, alternating periods: one statement of each class inside
    // spans against one without, by the class medians, over the classes
    // that ran both ways.
    let both = |c: &usize| !timed.plain_us[*c].is_empty() && !timed.traced_us[*c].is_empty();
    let round = |v: &[Vec<f64>; 7]| (0..7).filter(both).map(|c| median(&v[c])).sum::<f64>();
    let plain = round(&timed.plain_us);
    let overhead = if plain > 0.0 {
        (round(&timed.traced_us) / plain - 1.0) * 100.0
    } else {
        0.0
    };
    let n = timed.traced_us.iter().map(Vec::len).sum::<usize>() as u64;
    out.push(Metric::new("trace.overhead_pct", overhead, "%", n));
    out
}
