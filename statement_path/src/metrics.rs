//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, and the per-layer metric names. `BENCHMARK.json` at
//! the root of the repository is this module printed (`statement_path
//! manifest`); a test keeps the two equal.

use std::fmt::Write as _;

use crate::catalog::{Workload, CLASSES, SELECTS};

/// Fresh child processes per run; every end-to-end value is the median
/// over them. Within one process the medians of a class repeat within
/// 2–3 %, across processes they move by 10–25 %, so only a median over
/// several processes repeats.
pub const PROCS: usize = 7;
/// Seconds one run measures, split evenly between its children.
pub const RUN_SECONDS: u64 = 14;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

// Bounds. In a quiet phase of the host ten runs on ten seeds spread (first
// to third quartile, as a share of the median) by 1–6 % and every bound is
// at least three times that. The bounds are sized for the other case: a
// set of ten runs that a slow phase of the host cuts through, where the
// scaled times (see `calib`) still spread by up to 16 % and the medians of
// two consecutive sets differ by up to 13 %. The README has both tables.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("stmt_per_s", "1/s", "higher", 0.2),
    e2e("point_p50_us", "us", "lower", 0.25),
    e2e("join_p50_us", "us", "lower", 0.25),
    e2e("agg_p50_us", "us", "lower", 0.2),
    e2e("trip_p50_us", "us", "lower", 0.2),
    e2e("repair_p50_us", "us", "lower", 0.25),
    e2e("whatif_p50_us", "us", "lower", 0.25),
    e2e("commit_p50_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.1),
];

pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::InprocReadWarm => {
            "warm caches, in process: parser, evaluator, rewrite, relalg and render do all the \
             work; wire, WAL and invalidation do none"
        }
        Workload::InprocReadAfterDml => {
            "a commit on its table before every select: every epoch-keyed cache entry is dead \
             on arrival, so optimizer, translation and statistics run each time"
        }
        Workload::TcpReadWarm => {
            "the warm rounds over Client::request, 10 rounds per connection: adds framing, \
             socket, handler thread and session depth, which the in-process workloads bypass"
        }
        Workload::DurableWrite => {
            "8 durable commits then reads per round: WAL append, fsync, snapshots and recovery \
             do most of the work, the evaluator little"
        }
    }
}

/// Every per-layer metric: name, unit and which way is better. A metric a
/// workload does not exercise reads 0 there (an in-memory engine appends
/// nothing to a WAL).
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add =
        |name: String, unit: &'static str, better: &'static str| out.push((name, unit, better));
    for class in CLASSES {
        add(format!("parser.parse_us.{class}"), "us", "lower");
    }
    for class in CLASSES {
        add(format!("session.run_us.{class}"), "us", "lower");
    }
    add("session.open_us".into(), "us", "lower");
    add("session.depth_slope_ns".into(), "ns", "lower");
    for class in SELECTS {
        add(format!("server.render_us.{class}"), "us", "lower");
    }
    for class in SELECTS {
        add(format!("server.answer_bytes.{class}"), "bytes", "lower");
    }
    for class in SELECTS {
        add(format!("server.wire_us.{class}"), "us", "lower");
    }
    add("server.rtt_floor_us".into(), "us", "lower");
    add("server.connect_us".into(), "us", "lower");
    for family in [
        "compile.compile_us",
        "rewrite.optimize_us",
        "core.routed_us",
        "core.fig3_us",
    ] {
        for class in ["point", "join", "trip"] {
            add(format!("{family}.{class}"), "us", "lower");
        }
    }
    for name in [
        "core.plan_us.trip",
        "core.factorized_us.trip",
        "inlined.translate_us.trip",
        "inlined.run_general_us.trip",
        "inlined.run_general_cold_us.trip",
        "inlined.decode_us.trip",
        "relalg.eval_us.trip",
        "relalg.join_us",
        "relalg.select_us",
        "relalg.project_us",
        "relalg.partition_us",
        "relalg.build_us",
        "relalg.stats_us",
    ] {
        add(name.into(), "us", "lower");
    }
    add("relalg.plan_cache_hit_ratio".into(), "ratio", "higher");
    add(
        "relalg.plan_cache_lookups_per_round".into(),
        "count",
        "lower",
    );
    add("pool.threads".into(), "threads", "higher");
    add("pool.fanout_us".into(), "us", "lower");
    for class in SELECTS {
        add(format!("worldset.worlds.{class}"), "count", "lower");
    }
    add("engine.commit_mem_us".into(), "us", "lower");
    add("engine.snapshot_us".into(), "us", "lower");
    add("env.append_us".into(), "us", "lower");
    add("env.sync_us".into(), "us", "lower");
    add("env.appends_per_commit".into(), "count", "lower");
    add("env.syncs_per_commit".into(), "count", "lower");
    add("env.wal_bytes_per_commit".into(), "bytes", "lower");
    add("env.snapshots".into(), "count", "lower");
    add("env.snapshot_bytes".into(), "bytes", "lower");
    add("env.write_amp".into(), "ratio", "lower");
    add("env.dir_bytes_end".into(), "bytes", "lower");
    add("durable.commit_self_us".into(), "us", "lower");
    add("durable.checkpoint_ms".into(), "ms", "lower");
    add("durable.recover_ms".into(), "ms", "lower");
    add("durable.recover_us_per_record".into(), "us", "lower");
    add(
        "durable.group_commit_syncs_per_commit".into(),
        "count",
        "lower",
    );
    add("durable.acked_lost".into(), "count", "lower");
    add("codec.encode_us".into(), "us", "lower");
    add("codec.decode_us".into(), "us", "lower");
    add("codec.bytes".into(), "bytes", "lower");
    add("datagen.build_ms".into(), "ms", "lower");
    for class in CLASSES {
        add(format!("tail.{class}_p99_us"), "us", "lower");
    }
    add("host.calib_us".into(), "us", "lower");
    add("host.calib_cold_us".into(), "us", "lower");
    add("host.slowdown".into(), "ratio", "lower");
    add("host.steal_pct".into(), "%", "lower");
    add("trace.overhead_pct".into(), "%", "lower");
    add("trace.sum_ratio_max".into(), "ratio", "lower");
    out
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"statement_path/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"statement_path\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            why(w)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_the_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `statement_path manifest`"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = layers.iter().map(|l| l.0.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(Workload::ALL
            .iter()
            .all(|w| why(*w).len() <= 200 && !why(*w).contains('\n')));
        assert!(manifest_json().len() <= 64 * 1024);
    }
}
