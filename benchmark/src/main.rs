//! The benchmark's command line.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! benchmark run   [--seed n] [--seconds s] [--smoke]                   every workload, end-to-end metrics
//! benchmark trace [--seed n] [--seconds s] [--smoke]                   every workload, per-layer metrics
//! ```

use splitbft_benchmark::alloc::CountingAlloc;
use splitbft_benchmark::calib::{Calibrator, CAL_REF_NS};
use splitbft_benchmark::json::{self, Value};
use splitbft_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use splitbft_benchmark::report::{self, Outcome};
use splitbft_benchmark::workloads::{self, WORKLOADS};
use splitbft_benchmark::{sock, stats};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `BENCHMARK.json`'s `run_seconds`, for `run` and `trace` without
/// `--seconds`.
const DEFAULT_SECONDS: f64 = 10.0;
/// `--smoke`: a twentieth of the work, same checks.
const SMOKE_SECONDS: f64 = DEFAULT_SECONDS / 20.0;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: cannot parse {text:?}")),
    }
}

fn header() -> String {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "rustc unknown".into(), |s| s.trim().to_string());
    let mut calibrator = Calibrator::new();
    let cal: Vec<f64> = (0..9).map(|_| calibrator.run() as f64).collect();
    format!(
        "# nproc {} | {rustc} | calibration kernel {:.0} ns now (CAL_REF_NS {CAL_REF_NS:.0}) | WAL and scratch under {}",
        std::thread::available_parallelism().map_or(0, usize::from),
        stats::median(&cal),
        workloads::out_dir().display(),
    )
}

/// One workload, one result line: what the acceptance driver runs.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("--workload <name> is required")?;
    let spec = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", DEFAULT_SECONDS)?;
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    if !seconds.is_finite() || seconds <= 0.0 || seconds > 3600.0 {
        return Err("--seconds must be positive and at most 3600".into());
    }
    // Every workload builds the socket workload's binary, so that the
    // build lands in the first run of a fresh checkout.
    let node = sock::ensure_node()?;

    println!("{}", header());
    let (outcome, table): (Outcome, &[MetricDef]) = if traced {
        (report::per_layer(spec, seed, seconds, &node)?, PER_LAYER)
    } else {
        (report::end_to_end(spec, seed, seconds, &node)?, END_TO_END)
    };
    print!("{}", outcome.notes);
    let rows = outcome.values.ordered(table, spec);
    for (&(name, value, unit), (.., scope)) in rows.iter().zip(table) {
        match value {
            Some(value) => println!("{:<20} {name:<38} {value:>18.6} {unit}", spec.name),
            None => println!(
                "{:<20} {name:<38} {:>18} ({})",
                spec.name,
                "n/a",
                scope.reason()
            ),
        }
    }
    // The result line carries every metric of the table, so one that
    // is not measured on this workload reads 0 there.
    let metrics: Vec<(&str, f64, &str)> = rows
        .iter()
        .map(|&(name, value, unit)| (name, value.unwrap_or(0.0), unit))
        .collect();
    println!(
        "{}: attempted {} completed {} failed {}",
        spec.name,
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    if !outcome.correct() {
        for violation in &outcome.violations {
            eprintln!("check failed: {violation}");
        }
        println!(
            "{}",
            json::result_line(false, outcome.attempted.max(1), outcome.failed, &[])
        );
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "{}",
        json::result_line(true, outcome.attempted.max(1), 0, &metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each in a process of its own (so peak RSS and
/// set-up time are per workload), then the summary.
fn run_all(args: &[String], traced: bool) -> Result<ExitCode, String> {
    let seed: u64 = parsed(args, "--seed", 1)?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let seconds: f64 = parsed(
        args,
        "--seconds",
        if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        },
    )?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let table = if traced { PER_LAYER } else { END_TO_END };
    let mut results: Vec<(&str, Value)> = Vec::new();
    for spec in &WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!(
                "workload {} failed its checks ({})",
                spec.name, output.status
            ));
        }
        let line = stdout.lines().last().ok_or("workload printed nothing")?;
        results.push((spec.name, json::parse(line)?));
    }

    println!("\n== summary (seed {seed}, {seconds} s) ==");
    print!("{:<38}", "metric");
    for (name, _) in &results {
        print!(" {name:>18}");
    }
    println!();
    // Metric names contain dots, so members are looked up one by one.
    let value =
        |result: &Value, metric: &str| result.get("metrics")?.get(metric)?.get("value")?.num();
    for &(metric, unit, _, scope) in table {
        print!("{:<38}", format!("{metric} [{unit}]"));
        for ((_, result), spec) in results.iter().zip(&WORKLOADS) {
            if !scope.covers(spec) {
                print!(" {:>18}", "n/a");
                continue;
            }
            let v = value(result, metric).unwrap_or(0.0);
            let digits = if v.abs() >= 100.0 {
                1
            } else if v.abs() >= 1.0 {
                3
            } else {
                6
            };
            print!(" {v:>18.digits$}");
        }
        println!();
    }
    if !traced {
        let throughput = |name: &str| {
            results
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, r)| value(r, "throughput_rps"))
        };
        if let (Some(pbft), Some(split)) = (throughput("pbft-batched"), throughput("split-batched"))
        {
            println!(
                "\npbft-batched / split-batched throughput = {:.3} (the paper's Fig 3b gap, for information)",
                pbft / split
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..], false),
        Some("trace") => run_all(&args[1..], true),
        Some(first) if first.starts_with("--") => run_one(&args),
        _ => Err(
            "usage: benchmark run|trace [--seed n] [--seconds s] [--smoke]\n       \
                  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                .into(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
