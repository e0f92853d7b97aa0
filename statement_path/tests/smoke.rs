//! Each workload with two rounds and one child, traced and untraced: every
//! metric `BENCHMARK.json` names is reported with its unit, no statement
//! fails, a durable commit costs one fsync, and the parts of a statement
//! add up to the whole. Small enough for a debug build.

use std::process::Command;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `(name, unit)` of every entry of the array `section` of the manifest.
fn named(manifest: &str, section: &str) -> Vec<(String, String)> {
    let start = manifest
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("section closed")];
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

/// The value reported for `name`, if its unit is `unit`.
fn value(result: &str, name: &str, unit: &str) -> Option<f64> {
    let rest = &result[result.find(&format!("\"{name}\": {{\"value\": "))?..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    let (number, rest) = rest.split_once(", \"unit\": \"")?;
    rest.starts_with(&format!("{unit}\"}}"))
        .then(|| number.parse().ok())?
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_statement_path"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--rounds",
            "2",
            "--procs",
            "1",
        ])
        .args(["--trace", trace])
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_reports_every_metric() {
    let manifest = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json");
    let end_to_end = named(&manifest, "end_to_end");
    let per_layer = named(&manifest, "per_layer");
    assert_eq!(end_to_end.len(), 10);
    assert!(per_layer.len() > 90);

    for workload in [
        "inproc_read_warm",
        "inproc_read_after_dml",
        "tcp_read_warm",
        "durable_write",
    ] {
        assert!(manifest.contains(&format!("\"name\": \"{workload}\"")));
        let untraced = run(workload, "0");
        assert!(
            untraced.starts_with("{\"correct\": true, \"attempted\": ")
                && untraced.contains("\"failed\": 0,"),
            "{workload}: {untraced}"
        );
        for (name, unit) in &end_to_end {
            assert!(
                value(&untraced, name, unit).is_some(),
                "{workload}: no {name} in {unit}"
            );
        }
        assert!(value(&untraced, "setup_s", "s").unwrap() > 0.0);
        assert!(value(&untraced, "stmt_per_s", "1/s").unwrap() > 0.0);

        let traced = run(workload, "1");
        assert!(
            traced.starts_with("{\"correct\": true, ") && traced.contains("\"failed\": 0,"),
            "{workload}: {traced}"
        );
        for (name, unit) in &per_layer {
            assert!(
                value(&traced, name, unit).is_some(),
                "{workload}: no {name} in {unit}"
            );
        }
        let ratio = value(&traced, "trace.sum_ratio_max", "ratio").unwrap();
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{workload}: parse + run + render = {ratio} of the statement"
        );
        assert_eq!(value(&traced, "durable.acked_lost", "count"), Some(0.0));
        let syncs = value(&traced, "env.syncs_per_commit", "count").unwrap();
        let expected = if workload == "durable_write" {
            1.0
        } else {
            0.0
        };
        assert_eq!(syncs, expected, "{workload}: fsyncs per commit");
    }
}
