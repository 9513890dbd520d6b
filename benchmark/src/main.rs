//! The repository's benchmark: one workload through the whole
//! lifecycle (build → kNN/range → snapshot → serve) per run. See
//! `README.md` beside this package and `BENCHMARK.json` at the root.
//!
//! ```text
//! sapla-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//!                     [--report <file>] [--spans <file>] [--commit <id>] [--rustc <version>]
//! sapla-benchmark compare <base.jsonl> <new.jsonl>
//! ```
//!
//! `--seconds` is the value the driver passes (`run_seconds`). It sets
//! the length of the serve phases only (`CLOSED_SHARE` in `run/mod.rs`, `OPEN_SHARE` in `run/probes.rs`); build,
//! kNN, batch, range and snapshot do a fixed amount of work, so a run is
//! not made longer or shorter by it in proportion.

mod compare;
mod json;
mod loadgen;
mod metrics;
mod run;
mod rundir;
mod tally;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

use metrics::{Measured, MetricDecl, END_TO_END, PER_LAYER};

/// `--seconds` when not given: the `run_seconds` of `BENCHMARK.json`,
/// the only value the serve phases have been sized for.
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage:
  sapla-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
                      [--report <file>] [--spans <file>] [--commit <id>] [--rustc <version>]
  sapla-benchmark compare <base.jsonl> <new.jsonl>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sapla-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs; every flag takes exactly one value.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag}\n{USAGE}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(
        args,
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--report",
            "--spans",
            "--commit",
            "--rustc",
        ],
    )?;
    let get = |name: &str| flags.iter().rev().find(|(f, _)| *f == name).map(|(_, v)| *v);
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload = workload::find(workload).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {workload}; one of {}", names.join(", "))
    })?;
    let seed = get("--seed").ok_or("--seed is required")?;
    let seed: u64 = seed.parse().map_err(|_| format!("--seed {seed}: not a u64"))?;
    let seconds = match get("--seconds") {
        None => DEFAULT_SECONDS,
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s >= 1.0 && *s <= 600.0)
            .ok_or_else(|| format!("--seconds {s}: not a number from 1 to 600"))?,
    };
    let trace = match get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: 0 or 1")),
    };
    let tmp_base = rundir::default_base().map_err(|e| format!("temporary directory: {e}"))?;
    let opts = run::Options { workload, seed, seconds, trace, tmp_base };

    let started = std::time::Instant::now();
    let outcome = run::run(&opts)?;
    let table = if trace { PER_LAYER } else { END_TO_END };
    let values = outcome.report.in_order(table)?;

    eprint!("{}", run_log(&opts, &outcome, &values, started.elapsed().as_secs_f64()));
    let tally = &outcome.tally;

    if let Some(path) = get("--spans") {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        outcome
            .tracer
            .write_jsonl(&mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let correct = tally.wrong == 0;
    if let Some(path) = get("--report") {
        let stamp = stamp(get("--commit"), get("--rustc"));
        let line = report_line(&opts, &stamp, correct, tally, &values);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))?;
    }

    // The result: the last line of standard output.
    let metrics: Vec<String> = values
        .iter()
        .map(|(d, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(d.name),
                m.value,
                json::quote(d.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

/// The readable account of a run, for standard error.
fn run_log(
    opts: &run::Options,
    outcome: &run::Outcome,
    values: &[(&'static MetricDecl, Measured)],
    total_s: f64,
) -> String {
    let (workload, seed, seconds, trace) = (opts.workload, opts.seed, opts.seconds, opts.trace);
    let mut log = String::new();
    let _ = writeln!(
        log,
        "workload {} seed {seed} seconds {seconds} trace {}\n  {}",
        workload.name,
        u8::from(trace),
        workload.why
    );
    for (phase, s) in &outcome.phases {
        let _ = writeln!(log, "  phase {phase:<12} {s:>8.3} s");
    }
    let _ = writeln!(log, "  total              {:>8.3} s", total_s);
    for (d, m) in values {
        let bound = d.bound.map_or(String::new(), |b| format!(" bound {:.0}%", b * 100.0));
        let _ = writeln!(
            log,
            "  {:<34} {:>16.4} {:<6} {:<6} n={}{bound}",
            d.name,
            m.value,
            d.unit,
            d.better.name(),
            m.samples
        );
    }
    if trace {
        let _ = writeln!(log, "  {} spans", outcome.tracer.spans().len());
        for (name, agg) in outcome.tracer.aggregate() {
            let _ = writeln!(
                log,
                "  span {:<30} n={:<6} total {:>10.3} ms  self {:>10.3} ms",
                name,
                agg.count,
                agg.total_ns as f64 / 1e6,
                agg.self_ns as f64 / 1e6
            );
        }
    }
    let tally = &outcome.tally;
    let _ = writeln!(
        log,
        "  attempted {} failed {} wrong {}",
        tally.attempted, tally.failed, tally.wrong
    );
    for note in tally.notes() {
        let _ = writeln!(log, "  FAILED: {note}");
    }
    log
}

/// Where and with what a result was measured.
fn stamp(commit: Option<&str>, rustc: Option<&str>) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    format!(
        "{{\"commit\": {}, \"rustc\": {}, \"nproc\": {cores}, \"cpu\": {}, \"simd\": {}, \"features\": \"obs=off strict-invariants=off\", \"profile\": \"release codegen-units=1\"}}",
        json::quote(commit.unwrap_or("unknown")),
        json::quote(rustc.unwrap_or("unknown")),
        json::quote(&cpu),
        json::quote(sapla_core::simd::active().name()),
    )
}

/// One line of a result set: everything about one run.
fn report_line(
    opts: &run::Options,
    stamp: &str,
    correct: bool,
    tally: &tally::Tally,
    values: &[(&'static MetricDecl, Measured)],
) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(d, m)| {
            let bound = d.bound.map_or("null".to_string(), |b| b.to_string());
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"samples\": {}, \"bound\": {bound}}}",
                json::quote(d.name),
                m.value,
                json::quote(d.unit),
                json::quote(d.better.name()),
                m.samples
            )
        })
        .collect();
    format!(
        "{{\"schema\": 1, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"stamp\": {stamp}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        json::quote(opts.workload.name),
        opts.seed,
        opts.seconds,
        opts.trace,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err(USAGE.to_string());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::read_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, any_worse) = compare::compare(&read(base)?, &read(new)?);
    print!("{table}");
    Ok(if any_worse { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests;
