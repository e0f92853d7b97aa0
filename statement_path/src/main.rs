//! B16 `statement_path`: I-SQL statements timed end to end through the
//! two public front doors, with per-layer numbers taken from outside.
//!
//! ```text
//! statement_path --workload <w> --seed <n> --seconds <s> --trace <0|1>
//!     one run as BENCHMARK.json describes it; the last line of standard
//!     output is the result object
//! statement_path all [--seed <n>] [--seconds <s>]
//!     every workload, untraced children then a traced one, every metric
//!     by name with unit and sample count; exits non-zero on a wrong answer
//! statement_path selfcheck [--seed <n>] [--seconds <s>]
//!     six untraced invocations in two sets of three: how far the same
//!     code disagrees with itself
//! statement_path manifest
//!     print BENCHMARK.json
//! ```
//!
//! `--rounds <n>` and `--procs <n>` replace the time budget by a round
//! count and the number of children; the smoke test uses them.

mod calib;
mod catalog;
mod child;
mod counting_env;
mod driver;
mod metrics;
mod probes;
mod trace;
mod util;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use catalog::Workload;
use child::{Budget, ChildArgs};
use driver::{Plan, WorkloadResult};
use metrics::{END_TO_END, PROCS, RUN_SECONDS};
use util::median;

/// `--key value` pairs after an optional leading subcommand.
struct Cli {
    command: Option<String>,
    flags: HashMap<String, String>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut args = args.peekable();
        let command = args.next_if(|a| !a.starts_with("--"));
        let mut flags = HashMap::new();
        while let Some(key) = args.next() {
            let name = key
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {key}"))?;
            let value = args.next().ok_or(format!("{key} needs a value"))?;
            flags.insert(name.to_string(), value);
        }
        Ok(Cli { command, flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} cannot be {v}")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name: String = self.get("workload")?.ok_or("--workload is required")?;
        Workload::parse(&name).ok_or(format!("unknown workload {name}"))
    }

    fn trace(&self) -> Result<bool, String> {
        Ok(self.get::<u8>("trace")?.unwrap_or(0) != 0)
    }

    fn budget(&self) -> Result<Budget, String> {
        Ok(match self.get("rounds")? {
            Some(n) => Budget::Rounds(n),
            None => Budget::Seconds(self.get("seconds")?.unwrap_or(RUN_SECONDS as f64)),
        })
    }

    fn plan(&self, untraced: bool, traced: bool) -> Result<Plan, String> {
        Ok(Plan {
            seed: self.get("seed")?.unwrap_or(7),
            budget: self.budget()?,
            procs: self.get("procs")?.unwrap_or(PROCS).max(1),
            untraced,
            traced,
        })
    }
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_facts(results: &[WorkloadResult]) -> String {
    let info = |key: &str| {
        results
            .iter()
            .find_map(|r| r.info.get(key).cloned())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "\"nproc\": {}, \"pool_threads\": {}, \"flush_policy\": \"{}\", \"rustc\": \"{}\", \"git_head\": \"{}\"",
        info("nproc"),
        info("pool_threads"),
        info("flush_policy"),
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "HEAD"]),
    )
}

/// One run in the shape the benchmark contract asks for.
fn contract(cli: &Cli) -> Result<ExitCode, String> {
    let w = cli.workload()?;
    let trace = cli.trace()?;
    let plan = cli.plan(!trace, trace)?;
    let result = driver::run(&[w], &plan)?.remove(0);
    driver::print_human(w, &result, &mut std::io::stderr());
    println!("{}", result.contract_line(trace));
    Ok(ExitCode::SUCCESS)
}

/// Every workload and every metric; ends with a JSON summary.
fn all(cli: &Cli) -> Result<ExitCode, String> {
    let plan = cli.plan(true, true)?;
    let results = driver::run(&Workload::ALL, &plan)?;
    let mut out = std::io::stdout();
    for (w, r) in Workload::ALL.iter().zip(&results) {
        driver::print_human(*w, r, &mut out);
    }
    let correct = results.iter().all(WorkloadResult::correct);
    println!("{{");
    println!(
        "  \"benchmark\": \"B16 statement_path\", \"seed\": {}, \"procs\": {},",
        plan.seed, plan.procs
    );
    println!("  {},", host_facts(&results));
    for (w, r) in Workload::ALL.iter().zip(&results) {
        println!("  \"{}\": {{", w.name());
        println!("    \"end_to_end\": {},", util::json_metrics(&r.end_to_end));
        println!("    \"per_layer\": {},", util::json_metrics(&r.per_layer));
        println!(
            "    \"attempted\": {}, \"failed\": {}",
            r.attempted, r.failed
        );
        println!("  }},");
    }
    println!("  \"correct\": {correct},");
    println!("  \"claim\": null");
    println!("}}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Six untraced invocations of every workload, split into two sets of
/// three: both set medians, their relative difference, and the range of
/// the six, for every end-to-end metric × workload.
fn selfcheck(cli: &Cli) -> Result<ExitCode, String> {
    let plan = cli.plan(true, false)?;
    let mut runs: Vec<Vec<WorkloadResult>> = Vec::new();
    for i in 0..6 {
        eprintln!("selfcheck: invocation {} of 6", i + 1);
        runs.push(driver::run(&Workload::ALL, &plan)?);
    }
    println!("| workload | metric | set 1 | set 2 | difference | range of six | bound |");
    println!("|---|---|---|---|---|---|---|");
    let mut within = true;
    for (i, w) in Workload::ALL.iter().enumerate() {
        for m in &END_TO_END {
            let six: Vec<f64> = runs.iter().map(|r| r[i].value(m.name)).collect();
            let (a, b) = (median(&six[..3]), median(&six[3..]));
            let diff = (b - a).abs() / a;
            within &= diff <= m.bound;
            println!(
                "| {} | {} | {:.4} | {:.4} | {:.1} % | {:.1} % | {:.0} % |",
                w.name(),
                m.name,
                a,
                b,
                diff * 100.0,
                util::spread(&six) * 100.0,
                m.bound * 100.0
            );
        }
    }
    let correct = runs.iter().flatten().all(WorkloadResult::correct);
    println!(
        "{{\"sets_within_bounds\": {within}, \"correct\": {correct}, \"run_seconds\": {RUN_SECONDS}}}"
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn child_main(cli: &Cli, started: Instant) -> Result<ExitCode, String> {
    let args = ChildArgs {
        workload: cli.workload()?,
        seed: cli.get("seed")?.unwrap_or(7),
        budget: cli.budget()?,
        trace: cli.trace()?,
        dir: cli.get::<PathBuf>("dir")?.ok_or("--dir is required")?,
    };
    driver::print_report(&child::run(&args, started));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // Set-up time of a child counts from here.
    let started = Instant::now();
    let outcome =
        Cli::parse(std::env::args().skip(1)).and_then(|cli| match cli.command.as_deref() {
            None => contract(&cli),
            Some("all") => all(&cli),
            Some("selfcheck") => selfcheck(&cli),
            Some("child") => child_main(&cli, started),
            Some("manifest") => {
                print!("{}", metrics::manifest_json());
                Ok(ExitCode::SUCCESS)
            }
            Some(other) => Err(format!("unknown command {other}")),
        });
    outcome.unwrap_or_else(|e| {
        eprintln!("statement_path: {e}");
        ExitCode::from(2)
    })
}
