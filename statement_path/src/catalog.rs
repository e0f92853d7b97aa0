//! The catalog, the statement classes and the four workloads, all made
//! from `--seed`: the same seed gives the same tables, the same statement
//! text and the same sequence of operations in every child.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use isql::Session;
use relalg::Relation;

/// The six select classes, in the order one round runs them.
pub const SELECTS: [&str; 6] = ["point", "join", "agg", "trip", "repair", "whatif"];
/// Slot of the `commit` class in seven-slot per-class arrays.
pub const COMMIT: usize = 6;
/// All seven class names; a class is identified by its index here.
pub const CLASSES: [&str; 7] = ["point", "join", "agg", "trip", "repair", "whatif", "commit"];

const REPAIR: usize = 4;
const WHATIF: usize = 5;

/// Rounds one TCP connection serves before the client reconnects. A session
/// keeps every `Q‹n›` answer, so statements slow down as it ages (`whatif`
/// threefold over these 60 statements); a connection's lifetime bounds
/// that, and a child measures several whole lifetimes.
pub const CONN_ROUNDS: u64 = 10;
/// Commits after which [`Catalog::toggle_commit`] has restored the catalog.
pub const TOGGLE_PERIOD: u64 = 12;
/// Commits after which [`Catalog::durable_commit`] has restored the catalog.
pub const DURABLE_PERIOD: u64 = 16;
/// `durable_write` runs `repair` and `whatif` in every ninth round only, so
/// commits stay most of its work. Nine is odd: both catalog states are read.
pub const HEAVY_EVERY: u64 = 9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    InprocReadWarm,
    InprocReadAfterDml,
    TcpReadWarm,
    DurableWrite,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::InprocReadWarm,
        Workload::InprocReadAfterDml,
        Workload::TcpReadWarm,
        Workload::DurableWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InprocReadWarm => "inproc_read_warm",
            Workload::InprocReadAfterDml => "inproc_read_after_dml",
            Workload::TcpReadWarm => "tcp_read_warm",
            Workload::DurableWrite => "durable_write",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed rounds leave `commit` out, so that every cache
    /// keeps its entry; those workloads time commits in a phase of their
    /// own after the rounds.
    pub fn commits_after_rounds(self) -> bool {
        matches!(self, Workload::InprocReadWarm | Workload::TcpReadWarm)
    }

    /// Rounds after which the workload repeats itself: the timed phase runs
    /// whole periods, so every child measures the same mix of catalog
    /// states and session depths however fast it is.
    pub fn round_period(self) -> u64 {
        match self {
            Workload::TcpReadWarm => CONN_ROUNDS,
            _ => 2,
        }
    }

    /// Commits after which the workload's commit statements repeat. Each
    /// period holds the same statements, cheap inserts and dearer deletes,
    /// so commit latency is summarized as the median over periods of the
    /// mean within a period: the plain median would sit on the edge
    /// between the two kinds.
    pub fn commit_period(self) -> usize {
        match self {
            Workload::DurableWrite => DURABLE_PERIOD as usize,
            _ => TOGGLE_PERIOD as usize,
        }
    }
}

/// One step of a round.
#[derive(Clone, Copy, Debug)]
pub enum Op<'a> {
    /// Give the reader a fresh session (over TCP: a fresh connection).
    FreshReader,
    /// Run the select of this class on the reader.
    Select(usize),
    /// Run this DML statement on the writer.
    Commit(&'a str),
}

pub struct Catalog {
    /// `Flights`, `Hotels`, `Lineitem` and `Census`.
    pub tables: Vec<(&'static str, Relation)>,
    /// Statement text of each select class.
    pub selects: [String; 6],
    /// Per select class, `[insert, delete]` of one sentinel row in a table
    /// the class reads. All literals are fixed, so after the first period
    /// neither the catalog nor the string interner grows.
    toggles: [[String; 2]; 6],
    /// Eight statements that take the catalog from state A to state B and
    /// eight that take it back.
    durable_cycle: [[String; 8]; 2],
    pub datagen_ms: f64,
}

impl Catalog {
    pub fn generate(seed: u64) -> Catalog {
        let t = Instant::now();
        let flights = datagen::flights(seed, 64, 40, 12);
        let hotels = datagen::hotels(seed, 400, 40);
        let lineitem = datagen::lineitem(seed, 400, 3, 4);
        let census = datagen::census(seed, 200, 4);
        let datagen_ms = t.elapsed().as_secs_f64() * 1e3;

        // `join` asks for the hotels one departure city can reach. Its cost
        // follows the size of that answer, which differs between cities by
        // a factor of two, so the city is the one with the median answer:
        // the statement then does about the same work for every seed.
        let mut hotels_in: BTreeMap<&str, usize> = BTreeMap::new();
        for t in hotels.iter() {
            *hotels_in
                .entry(t[1].as_str().expect("City is a string"))
                .or_default() += 1;
        }
        let mut arrivals: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for t in flights.iter() {
            arrivals
                .entry(t[0].as_str().expect("Dep is a string"))
                .or_default()
                .insert(t[1].as_str().expect("Arr is a string"));
        }
        let mut by_answer: Vec<(usize, &str)> = arrivals
            .iter()
            .map(|(dep, arrs)| {
                let rows = arrs
                    .iter()
                    .map(|a| hotels_in.get(a).copied().unwrap_or(0))
                    .sum();
                (rows, *dep)
            })
            .collect();
        by_answer.sort();
        let join_dep = by_answer[by_answer.len() / 2].1;
        // A city with hotels that `join_dep` does not fly to yet, and an
        // arrival the first departure city lacks: the two Flights sentinels.
        let missing = |dep: &str| -> &str {
            hotels_in
                .keys()
                .find(|c| !arrivals[dep].contains(*c))
                .copied()
                .unwrap_or("SENT")
        };
        let join_arr = missing(join_dep);
        let first_dep = *arrivals.keys().next().expect("Flights is not empty");
        let trip_arr = missing(first_dep);

        let selects = [
            "select * from Hotels where Name = 'H0042';".to_string(),
            format!(
                "select possible F.Dep, H.Name from Flights F, Hotels H \
                 where F.Arr = H.City and F.Dep = '{join_dep}';"
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
        let pair = |ins: String, del: String| [ins, del];
        let toggles = [
            pair(
                "insert into Hotels values ('H0042', 'SENT');".into(),
                "delete from Hotels where Name = 'H0042' and City = 'SENT';".into(),
            ),
            pair(
                format!("insert into Flights values ('{join_dep}', '{join_arr}');"),
                format!("delete from Flights where Dep = '{join_dep}' and Arr = '{join_arr}';"),
            ),
            pair(
                "insert into Lineitem values ('P99', 100, 7, 2000);".into(),
                "delete from Lineitem where Product = 'P99';".into(),
            ),
            pair(
                format!("insert into Flights values ('{first_dep}', '{trip_arr}');"),
                format!("delete from Flights where Dep = '{first_dep}' and Arr = '{trip_arr}';"),
            ),
            pair(
                "insert into Census values (999999, 'Sentinel', 'FRA', 'PAR');".into(),
                "delete from Census where SSN = 999999;".into(),
            ),
            pair(
                "insert into Lineitem values ('P98', 250, 9, 2001);".into(),
                "delete from Lineitem where Product = 'P98';".into(),
            ),
        ];
        let ins = |c: usize| toggles[c][0].clone();
        let del = |c: usize| toggles[c][1].clone();
        let durable_cycle = [
            [
                ins(0),
                "update Hotels set City = 'SENT2' where Name = 'H0042' and City = 'SENT';".into(),
                ins(1),
                ins(3),
                ins(2),
                "update Lineitem set Price = 8 where Product = 'P99';".into(),
                ins(REPAIR),
                ins(WHATIF),
            ],
            [
                del(WHATIF),
                del(REPAIR),
                "update Lineitem set Price = 7 where Product = 'P99';".into(),
                del(2),
                del(3),
                del(1),
                "update Hotels set City = 'SENT' where Name = 'H0042' and City = 'SENT2';".into(),
                del(0),
            ],
        ];
        Catalog {
            tables: vec![
                ("Flights", flights),
                ("Hotels", hotels),
                ("Lineitem", lineitem),
                ("Census", census),
            ],
            selects,
            toggles,
            durable_cycle,
            datagen_ms,
        }
    }

    /// Statement text of the select class `class`.
    pub fn select(&self, class: &str) -> &str {
        let c = SELECTS
            .iter()
            .position(|s| *s == class)
            .expect("a select class");
        &self.selects[c]
    }

    pub fn table(&self, name: &str) -> &Relation {
        &self
            .tables
            .iter()
            .find(|(n, _)| *n == name)
            .expect("a table of the catalog")
            .1
    }

    /// Register every table through `session`: one commit per table.
    pub fn register(&self, session: &mut Session) {
        for (name, rel) in &self.tables {
            session
                .register(name, rel.clone())
                .expect("the catalog registers on a fresh engine");
        }
    }

    /// The steps of round `r` of workload `w`. Every workload has period
    /// two: an even round leaves the catalog in state B, an odd round
    /// takes it back to state A (the warm workloads never leave A).
    pub fn round_ops(&self, w: Workload, r: u64) -> Vec<Op<'_>> {
        self.ops_with(w, r, r % HEAVY_EVERY == HEAVY_EVERY - 1)
    }

    /// [`Catalog::round_ops`] with the choice of running `repair` and
    /// `whatif` made by the caller (the oracle needs them in both states).
    pub fn ops_with(&self, w: Workload, r: u64, heavy: bool) -> Vec<Op<'_>> {
        let parity = (r % 2) as usize;
        let mut ops = Vec::with_capacity(20);
        match w {
            Workload::InprocReadWarm => {
                ops.push(Op::FreshReader);
                ops.extend((0..6).map(Op::Select));
            }
            Workload::TcpReadWarm => {
                if r.is_multiple_of(CONN_ROUNDS) {
                    ops.push(Op::FreshReader);
                }
                ops.extend((0..6).map(Op::Select));
            }
            Workload::InprocReadAfterDml => {
                // A session that holds an answer keeps reading its old
                // snapshot, so every select gets a session of its own.
                for c in 0..6 {
                    ops.push(Op::Commit(&self.toggles[c][parity]));
                    ops.push(Op::FreshReader);
                    ops.push(Op::Select(c));
                }
            }
            Workload::DurableWrite => {
                ops.extend(self.durable_cycle[parity].iter().map(|s| Op::Commit(s)));
                ops.push(Op::FreshReader);
                ops.extend((0..4).map(Op::Select));
                if heavy {
                    ops.push(Op::Select(REPAIR));
                    ops.push(Op::Select(WHATIF));
                }
            }
        }
        ops
    }

    /// The `i`-th commit of the phase that follows the rounds of a warm
    /// workload: each sentinel inserted and deleted again, a period of
    /// [`TOGGLE_PERIOD`]. By then nothing reads the tables any more.
    pub fn toggle_commit(&self, i: u64) -> &str {
        &self.toggles[(i % TOGGLE_PERIOD / 2) as usize][(i % 2) as usize]
    }

    /// The `i`-th statement of the commit cycle of `durable_write`.
    pub fn durable_commit(&self, i: u64) -> &str {
        &self.durable_cycle[(i / 8 % 2) as usize][(i % 8) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (Catalog::generate(11), Catalog::generate(11));
        assert_eq!(a.selects, b.selects);
        assert_eq!(a.toggles, b.toggles);
        assert!(a.tables.iter().zip(&b.tables).all(|(x, y)| x == y));
        assert_ne!(a.table("Flights"), Catalog::generate(12).table("Flights"));
    }

    #[test]
    fn every_workload_runs_every_select_class() {
        let c = Catalog::generate(7);
        for w in Workload::ALL {
            let mut seen = [false; 6];
            for r in 0..HEAVY_EVERY {
                for op in c.round_ops(w, r) {
                    if let Op::Select(class) = op {
                        seen[class] = true;
                    }
                }
            }
            assert_eq!(seen, [true; 6], "{}", w.name());
        }
    }
}
