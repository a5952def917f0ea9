//! Appends one record per workload to `BENCH_trajectory.json` from the
//! logs of alternating parent/change runs of the repository benchmark.
//!
//! ```text
//! trajectory --parent-runs P.txt --change-runs C.txt --parent REV --seeds 1-10
//!            [--commit REV] [--file PATH]
//! ```
//!
//! `P.txt` and `C.txt` are the concatenated stdout of each side's
//! `benchmark --workload W --seed i --seconds 10 --trace 0` runs, in seed
//! order, any number of workloads; run k of the parent pairs with run k of
//! the change. `--commit` defaults to `introducing`: a change measured
//! before it is committed names the commit that adds its record.
//! `--file` defaults to the workspace root's trajectory file.

use splitbft_bench::loc::workspace_root;
use splitbft_bench::trajectory::{append, parse_runs, records, Machine, FILE};
use std::process::ExitCode;

const USAGE: &str = "usage: trajectory --parent-runs FILE --change-runs FILE --parent REV \
                     --seeds A-B|A,B,.. [--commit REV] [--file PATH]";

fn seeds(spec: &str) -> Option<Vec<u64>> {
    if let Some((from, to)) = spec.split_once('-') {
        let (from, to) = (from.parse().ok()?, to.parse().ok()?);
        return (from <= to).then(|| (from..=to).collect());
    }
    spec.split(',').map(|s| s.parse().ok()).collect()
}

fn run(args: &[String]) -> Result<String, String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| args.get(i + 1).cloned().ok_or_else(|| format!("{name} needs a value")))
    };
    let required = |name: &str| flag(name).unwrap_or_else(|| Err(format!("missing {name}")));
    if let Some(unknown) = args.iter().step_by(2).find(|a| {
        !["--parent-runs", "--change-runs", "--parent", "--seeds", "--commit", "--file"]
            .contains(&a.as_str())
    }) {
        return Err(format!("unknown flag {unknown}"));
    }
    let read = |path: String| std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"));
    let parent_runs = parse_runs(&read(required("--parent-runs")?)?);
    let change_runs = parse_runs(&read(required("--change-runs")?)?);
    let parent = required("--parent")?;
    let seed_spec = required("--seeds")?;
    let seeds = seeds(&seed_spec).ok_or_else(|| format!("bad --seeds {seed_spec}"))?;
    let commit = flag("--commit").unwrap_or_else(|| Ok("introducing".into()))?;
    let file = match flag("--file") {
        Some(path) => path?.into(),
        None => workspace_root().join(FILE),
    };

    let new = records(&parent_runs, &change_runs, &commit, &parent, &Machine::current(), &seeds)?;
    if new.is_empty() {
        return Err("no workload has runs on both sides".into());
    }
    let existing = match std::fs::read_to_string(&file) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("{}: {e}", file.display())),
    };
    std::fs::write(&file, append(&existing, &new)?)
        .map_err(|e| format!("{}: {e}", file.display()))?;
    let names: Vec<&str> = new.iter().map(|r| r.workload.as_str()).collect();
    Ok(format!("appended {} record(s) to {}: {}", new.len(), file.display(), names.join(", ")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(done) => {
            println!("{done}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trajectory: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
