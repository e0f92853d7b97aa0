//! The parent side: launch fresh child processes one after another, read
//! their reports, take medians, check that they agree, print.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::catalog::Workload;
use crate::child::{Budget, ChildReport};
use crate::metrics::{per_layer, END_TO_END};
use crate::util::{json_metrics, median, spread, static_unit, Metric};

/// Where children keep their data directories and trace files: beside the
/// executable, so inside the build directory of whichever checkout runs.
pub fn work_root() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."));
    target.join("statement_path")
}

/// Print a child's report on stdout, one record per line.
pub fn print_report(r: &ChildReport) {
    for m in &r.metrics {
        println!("M\t{}\t{}\t{}\t{}", m.name, m.value, m.unit, m.samples);
    }
    for (key, digest) in &r.digests {
        println!("X\t{key}\t{digest:016x}");
    }
    for (key, value) in &r.info {
        println!("I\t{key}\t{value}");
    }
    println!("F\t{}\t{}", r.attempted, r.failed);
}

fn parse_report(text: &str) -> Result<ChildReport, String> {
    let mut report = ChildReport::default();
    let mut finished = false;
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("unreadable child line: {line}");
        match f.as_slice() {
            ["M", name, value, unit, samples] => report.metrics.push(Metric::new(
                *name,
                value.parse().map_err(|_| bad())?,
                static_unit(unit).ok_or_else(bad)?,
                samples.parse().map_err(|_| bad())?,
            )),
            ["X", key, digest] => report.digests.push((
                key.to_string(),
                u64::from_str_radix(digest, 16).map_err(|_| bad())?,
            )),
            ["I", key, value] => report.info.push((key.to_string(), value.to_string())),
            ["F", attempted, failed] => {
                report.attempted = attempted.parse().map_err(|_| bad())?;
                report.failed = failed.parse().map_err(|_| bad())?;
                finished = true;
            }
            _ => return Err(bad()),
        }
    }
    if finished {
        Ok(report)
    } else {
        Err("the child ended without a result".into())
    }
}

/// Run one child to its end and read its report. Children run with every
/// `WSDB_*` variable removed: the benchmark measures the defaults users get.
fn run_child(
    w: Workload,
    seed: u64,
    budget: Budget,
    trace: bool,
    tag: &str,
) -> Result<ChildReport, String> {
    let root = work_root();
    let dir = root.join(format!("child-{}-{tag}", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(&dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    match budget {
        Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
        Budget::Rounds(n) => cmd.args(["--rounds", &n.to_string()]),
    };
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("WSDB_") {
            cmd.env_remove(key);
        }
    }
    // `output` waits until the child has ended.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let report = if out.status.success() {
        parse_report(&String::from_utf8_lossy(&out.stdout))
    } else {
        Err(format!(
            "child {} of {} ended with {}",
            tag,
            w.name(),
            out.status
        ))
    };
    if trace {
        let name = format!("trace-{}.jsonl", w.name());
        let _ = std::fs::rename(dir.join(&name), root.join(&name));
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// What one workload measured in one invocation.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    /// Median over the children, one entry per end-to-end metric.
    pub end_to_end: Vec<Metric>,
    /// (max − min) ÷ median over the children, by end-to-end metric.
    pub spreads: Vec<(String, f64)>,
    /// From the traced child, one entry per per-layer metric.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Median over the children of `host.slowdown`, by which their times
    /// were divided: reported × slowdown = as measured.
    pub slowdown: f64,
    /// Median over the children of `host.steal_pct`: above a few percent
    /// the host was oversubscribed and no time of this invocation is
    /// worth comparing.
    pub steal_pct: f64,
    /// Some child computed other answers than the first one did.
    pub disagree: bool,
    digests: Option<Vec<(String, u64)>>,
    pub info: BTreeMap<String, String>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.disagree
    }

    pub fn value(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    fn absorb(&mut self, reports: &[ChildReport]) {
        for r in reports {
            self.attempted += r.attempted;
            self.failed += r.failed;
            self.info.extend(r.info.iter().cloned());
            match &self.digests {
                None => self.digests = Some(r.digests.clone()),
                Some(first) => self.disagree |= *first != r.digests,
            }
        }
    }

    /// Fold the reports of the untraced children into medians.
    fn end_to_end_from(&mut self, reports: &[ChildReport]) {
        self.absorb(reports);
        for m in &END_TO_END {
            let values: Vec<f64> = reports
                .iter()
                .filter_map(|r| r.metric(m.name))
                .map(|x| x.value)
                .collect();
            let samples = reports
                .iter()
                .filter_map(|r| r.metric(m.name))
                .map(|x| x.samples)
                .sum();
            self.end_to_end
                .push(Metric::new(m.name, median(&values), m.unit, samples));
            self.spreads.push((m.name.to_string(), spread(&values)));
        }
        let host = |name: &str| -> f64 {
            let values: Vec<f64> = reports
                .iter()
                .filter_map(|r| r.metric(name))
                .map(|m| m.value)
                .collect();
            median(&values)
        };
        self.slowdown = host("host.slowdown");
        self.steal_pct = host("host.steal_pct");
    }

    /// Take the per-layer metrics of the traced child, in manifest order.
    fn per_layer_from(&mut self, report: &ChildReport) {
        self.absorb(std::slice::from_ref(report));
        for (name, unit, _) in per_layer() {
            let found = report.metric(&name);
            self.per_layer.push(Metric::new(
                name,
                found.map_or(0.0, |m| m.value),
                unit,
                found.map_or(0, |m| m.samples),
            ));
        }
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            json_metrics(metrics)
        )
    }
}

pub struct Plan {
    pub seed: u64,
    /// Budget of a whole run; untraced children get an equal share each.
    pub budget: Budget,
    pub procs: usize,
    pub untraced: bool,
    pub traced: bool,
}

/// Run the children of `workloads`, round-robin across workloads so that
/// a slow phase of the host lands on all of them alike.
pub fn run(workloads: &[Workload], plan: &Plan) -> Result<Vec<WorkloadResult>, String> {
    let share = match plan.budget {
        Budget::Seconds(s) => Budget::Seconds(s / plan.procs as f64),
        rounds => rounds,
    };
    let mut results = vec![WorkloadResult::default(); workloads.len()];
    if plan.untraced {
        let mut reports: Vec<Vec<ChildReport>> = vec![Vec::new(); workloads.len()];
        for p in 0..plan.procs {
            for (i, w) in workloads.iter().enumerate() {
                reports[i].push(run_child(*w, plan.seed, share, false, &format!("{i}-{p}"))?);
            }
        }
        for (result, reports) in results.iter_mut().zip(&reports) {
            result.end_to_end_from(reports);
        }
    }
    if plan.traced {
        for (i, w) in workloads.iter().enumerate() {
            let report = run_child(*w, plan.seed, plan.budget, true, &format!("{i}-t"))?;
            results[i].per_layer_from(&report);
        }
    }
    Ok(results)
}

/// Print one workload's numbers for a reader.
pub fn print_human(w: Workload, r: &WorkloadResult, out: &mut dyn std::io::Write) {
    let _ = writeln!(out, "== {} ==", w.name());
    for (m, (_, s)) in r.end_to_end.iter().zip(&r.spreads) {
        let measured = match m.unit {
            "s" | "us" => m.value * r.slowdown,
            "1/s" => m.value / r.slowdown,
            _ => m.value,
        };
        let _ = writeln!(
            out,
            "  {:<44} {:>14.3} {:<7} n={:<8} spread={:.3} as_measured={:.3}",
            m.name, m.value, m.unit, m.samples, s, measured
        );
    }
    for m in &r.per_layer {
        let _ = writeln!(
            out,
            "  {:<44} {:>14.3} {:<7} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let _ = writeln!(
        out,
        "  attempted={} failed={} children_disagree={} slowdown={:.3} steal_pct={:.1}",
        r.attempted, r.failed, r.disagree, r.slowdown, r.steal_pct
    );
}
