//! The committed performance trajectory, `BENCH_trajectory.json` at the
//! workspace root: one record per workload for every change that claims
//! (or checks) a performance figure, built from alternating parent/change
//! runs of the repository benchmark
//! (`benchmark --workload W --seed i --seconds 10 --trace 0`).
//!
//! A record holds the measured commit and its parent, the box it ran on,
//! the seeds, and for each of the benchmark's five end-to-end metrics every
//! run on both sides, their medians and quartiles, and the pairs the
//! change won. The `trajectory` binary appends records; [`check`] is the
//! shape every record must keep, and `cargo test` runs it on the file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The trajectory file's name, at the workspace root.
pub const FILE: &str = "BENCH_trajectory.json";

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// `true` if `change` is strictly better than `parent`.
    fn wins(self, parent: f64, change: f64) -> bool {
        match self {
            Better::Higher => change > parent,
            Better::Lower => change < parent,
        }
    }
}

/// The benchmark's end-to-end metrics (`BENCHMARK.json`'s
/// `end_to_end`): name, unit, direction.
const END_TO_END: [(&str, &str, Better); 5] = [
    ("throughput_rps", "1/s", Better::Higher),
    ("latency_p50_us", "us", Better::Lower),
    ("net_bytes_per_req", "B", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
    ("setup_s", "s", Better::Lower),
];

/// Pseudo-metric under which [`parse_runs`] files each run's failed
/// operation count.
const FAILED: &str = "failed";

/// One side's runs: by workload, then metric, the values in run order.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads a benchmark log of any number of concatenated runs: the metric
/// lines `<workload> <metric> <value> <unit>` of the end-to-end metrics,
/// and each run's `<workload>: attempted A completed C failed F` line.
/// Every other line is skipped.
pub fn parse_runs(text: &str) -> Runs {
    let mut runs = Runs::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let found = match fields[..] {
            [workload, metric, value, _unit] if END_TO_END.iter().any(|m| m.0 == metric) => {
                let value = value.parse().ok().filter(|v: &f64| v.is_finite());
                value.map(|v| (workload.to_string(), metric, v))
            }
            [workload, "attempted", _, "completed", _, "failed", failed] => {
                let workload = workload.strip_suffix(':');
                workload.zip(failed.parse().ok()).map(|(w, f)| (w.to_string(), FAILED, f))
            }
            _ => None,
        };
        if let Some((workload, metric, value)) = found {
            runs.entry(workload).or_default().entry(metric.to_string()).or_default().push(value);
        }
    }
    runs
}

/// `(q1, median, q3)` of `values`, by linear interpolation between order
/// statistics.
///
/// # Panics
///
/// If `values` is empty.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let rank = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Where the runs were made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// The kernel release (`/proc/sys/kernel/osrelease`), or `unknown`.
    pub kernel: String,
}

impl Machine {
    /// The machine this process runs on.
    pub fn current() -> Machine {
        Machine {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string()),
        }
    }
}

/// One workload's parent/change comparison.
#[derive(Debug, Clone)]
pub struct Record {
    /// The workload's name.
    pub workload: String,
    /// The measured commit.
    pub commit: String,
    /// Its parent, the baseline.
    pub parent: String,
    /// Where both sides ran.
    pub machine: Machine,
    /// The seed of each pair, in run order.
    pub seeds: Vec<u64>,
    /// Per end-to-end metric (in `BENCHMARK.json`'s order), its name
    /// and the parent's and the change's runs, pair by pair.
    pub metrics: Vec<(&'static str, Vec<f64>, Vec<f64>)>,
    /// Failed operations summed over the parent's and the change's runs.
    pub failed: (f64, f64),
}

/// Builds one record per workload present on both sides.
///
/// # Errors
///
/// When a workload lacks an end-to-end metric, or a side's run count
/// differs from the number of seeds.
pub fn records(
    parent_runs: &Runs,
    change_runs: &Runs,
    commit: &str,
    parent: &str,
    machine: &Machine,
    seeds: &[u64],
) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (workload, parent_metrics) in parent_runs {
        let Some(change_metrics) = change_runs.get(workload) else { continue };
        let side = |metrics: &BTreeMap<String, Vec<f64>>, side: &str, name: &str| {
            let values = metrics.get(name).cloned().unwrap_or_default();
            if values.len() == seeds.len() {
                Ok(values)
            } else {
                Err(format!(
                    "{workload}: {side} has {} {name} values for {} seeds",
                    values.len(),
                    seeds.len()
                ))
            }
        };
        let mut metrics = Vec::new();
        for (name, _, _) in END_TO_END {
            metrics.push((
                name,
                side(parent_metrics, "parent", name)?,
                side(change_metrics, "change", name)?,
            ));
        }
        let failed = |m: &BTreeMap<String, Vec<f64>>| m.get(FAILED).map_or(0.0, |f| f.iter().sum());
        out.push(Record {
            workload: workload.clone(),
            commit: commit.to_string(),
            parent: parent.to_string(),
            machine: machine.clone(),
            seeds: seeds.to_vec(),
            metrics,
            failed: (failed(parent_metrics), failed(change_metrics)),
        });
    }
    Ok(out)
}

impl Record {
    /// The record as one JSON object, indented for the trajectory file.
    fn to_json(&self) -> String {
        let list =
            |values: &[f64]| values.iter().map(|v| number(*v)).collect::<Vec<_>>().join(", ");
        let seeds = self.seeds.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
        let mut s = String::new();
        let _ = writeln!(s, "  {{");
        let _ = writeln!(s, "    \"workload\": {},", quoted(&self.workload));
        let _ = writeln!(s, "    \"commit\": {},", quoted(&self.commit));
        let _ = writeln!(s, "    \"parent\": {},", quoted(&self.parent));
        let _ = writeln!(
            s,
            "    \"box\": {{\"available_parallelism\": {}, \"kernel\": {}}},",
            self.machine.available_parallelism,
            quoted(&self.machine.kernel)
        );
        let _ = writeln!(s, "    \"seeds\": [{seeds}],");
        let _ = writeln!(
            s,
            "    \"failed\": {{\"parent\": {}, \"change\": {}}},",
            number(self.failed.0),
            number(self.failed.1)
        );
        let _ = writeln!(s, "    \"metrics\": {{");
        for (i, (name, parent, change)) in self.metrics.iter().enumerate() {
            let (_, unit, better) = END_TO_END.iter().find(|m| m.0 == *name).expect("known metric");
            let won = parent.iter().zip(change).filter(|(p, c)| better.wins(**p, **c)).count();
            let summary = |values: &[f64]| {
                let (q1, median, q3) = quartiles(values);
                format!(
                    "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"runs\": [{}]}}",
                    number(median),
                    number(q1),
                    number(q3),
                    list(values)
                )
            };
            let _ = writeln!(s, "      {}: {{", quoted(name));
            let _ = writeln!(
                s,
                "        \"unit\": {}, \"better\": {}, \"pairs\": {}, \"pairs_won\": {won},",
                quoted(unit),
                quoted(better.as_str()),
                parent.len()
            );
            let _ = writeln!(s, "        \"parent\": {},", summary(parent));
            let _ = writeln!(s, "        \"change\": {}", summary(change));
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = writeln!(s, "      }}{comma}");
        }
        let _ = writeln!(s, "    }}");
        let _ = write!(s, "  }}");
        s
    }
}

/// `existing` (a trajectory file's text, possibly empty) with `records`
/// appended; earlier records keep their bytes.
///
/// # Errors
///
/// When `existing` is not a trajectory file that passes [`check`].
pub fn append(existing: &str, records: &[Record]) -> Result<String, String> {
    let objects: Vec<String> = records.iter().map(Record::to_json).collect();
    let head = if existing.trim().is_empty() {
        "[".to_string()
    } else {
        check(existing)?;
        let body = existing.trim_end().strip_suffix(']').expect("checked to be an array");
        let body = body.trim_end();
        if body.ends_with('[') {
            body.to_string()
        } else {
            format!("{body},")
        }
    };
    Ok(format!("{head}\n{}\n]\n", objects.join(",\n")))
}

/// Checks a trajectory file: a JSON array of records, each with a
/// workload, commit, parent, box and seeds, and all five end-to-end
/// metrics, where pairs won ≤ pairs = seeds and each side's median lies
/// inside its quartiles. Returns the number of records.
///
/// # Errors
///
/// The first violation, naming the record and field.
pub fn check(text: &str) -> Result<usize, String> {
    let root = json::parse(text)?;
    let records = root.as_array().ok_or("the trajectory is not a JSON array")?;
    for (i, record) in records.iter().enumerate() {
        let at = |field: &str| format!("record {i}: {field}");
        let field = |name: &str| record.get(name).ok_or_else(|| at(&format!("no `{name}`")));
        let workload = field("workload")?.as_str().ok_or_else(|| at("`workload` not a string"))?;
        let at = |what: &str| format!("record {i} ({workload}): {what}");
        for name in ["commit", "parent"] {
            field(name)?.as_str().ok_or_else(|| at(&format!("`{name}` not a string")))?;
        }
        let machine = field("box")?;
        machine
            .get("available_parallelism")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| at("no box parallelism"))?;
        machine.get("kernel").and_then(|v| v.as_str()).ok_or_else(|| at("no box kernel"))?;
        let seeds = field("seeds")?.as_array().ok_or_else(|| at("`seeds` not an array"))?.len();
        let metrics = field("metrics")?;
        for (name, _, _) in END_TO_END {
            let metric = metrics.get(name).ok_or_else(|| at(&format!("no `{name}`")))?;
            let count = |key: &str| {
                metric
                    .get(key)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| at(&format!("{name}: no `{key}`")))
            };
            let (pairs, won) = (count("pairs")?, count("pairs_won")?);
            if pairs != seeds as f64 || won > pairs {
                return Err(at(&format!("{name}: {won} pairs won of {pairs}, {seeds} seeds")));
            }
            for side in ["parent", "change"] {
                let summary =
                    metric.get(side).ok_or_else(|| at(&format!("{name}: no `{side}`")))?;
                let value = |key: &str| {
                    summary
                        .get(key)
                        .and_then(|v| v.as_f64())
                        .ok_or_else(|| at(&format!("{name}.{side}: no `{key}`")))
                };
                let (q1, median, q3) = (value("q1")?, value("median")?, value("q3")?);
                if !(q1 <= median && median <= q3) {
                    return Err(at(&format!(
                        "{name}.{side}: median {median} outside [{q1}, {q3}]"
                    )));
                }
            }
        }
    }
    Ok(records.len())
}

fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in the shortest form that reads back exactly.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "a measured value is finite");
    format!("{v}")
}

/// The small JSON reader [`check`] needs: objects, arrays, strings,
/// numbers, `true`/`false`/`null`.
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { s: text.as_bytes(), at: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.s.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        s: &'a [u8],
        at: usize,
    }

    impl Parser<'_> {
        fn error(&self, what: &str) -> String {
            format!("JSON: {what} at byte {}", self.at)
        }

        fn skip_ws(&mut self) {
            while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
                self.at += 1;
            }
        }

        fn eat(&mut self, byte: u8) -> Result<(), String> {
            self.skip_ws();
            if self.s.get(self.at) == Some(&byte) {
                self.at += 1;
                Ok(())
            } else {
                Err(self.error(&format!("expected `{}`", byte as char)))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.s.get(self.at) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string().map(Value::String),
                Some(b't') => self.word("true", Value::Bool(true)),
                Some(b'f') => self.word("false", Value::Bool(false)),
                Some(b'n') => self.word("null", Value::Null),
                Some(_) => self.number(),
                None => Err(self.error("unexpected end")),
            }
        }

        fn word(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.s[self.at..].starts_with(word.as_bytes()) {
                self.at += word.len();
                Ok(value)
            } else {
                Err(self.error("unknown literal"))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.at;
            while self.s.get(self.at).is_some_and(|b| b"+-.eE0123456789".contains(b)) {
                self.at += 1;
            }
            let text = std::str::from_utf8(&self.s[start..self.at]).expect("ASCII");
            text.parse().map(Value::Number).map_err(|_| self.error("bad number"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = Vec::new();
            loop {
                let byte = *self.s.get(self.at).ok_or_else(|| self.error("unterminated string"))?;
                self.at += 1;
                match byte {
                    b'"' => break,
                    b'\\' => {
                        let escape =
                            *self.s.get(self.at).ok_or_else(|| self.error("bad escape"))?;
                        self.at += 1;
                        match escape {
                            b'u' => {
                                let hex = self
                                    .s
                                    .get(self.at..self.at + 4)
                                    .ok_or_else(|| self.error("bad escape"))?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| self.error("bad escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.error("bad escape"))?;
                                let c =
                                    char::from_u32(code).ok_or_else(|| self.error("bad escape"))?;
                                out.extend_from_slice(c.to_string().as_bytes());
                                self.at += 4;
                            }
                            b'n' => out.push(b'\n'),
                            b't' => out.push(b'\t'),
                            b'r' => out.push(b'\r'),
                            b'b' => out.push(8),
                            b'f' => out.push(12),
                            other => out.push(other),
                        }
                    }
                    other => out.push(other),
                }
            }
            String::from_utf8(out).map_err(|_| self.error("string not UTF-8"))
        }

        fn array(&mut self) -> Result<Value, String> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.s.get(self.at) == Some(&b']') {
                self.at += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.s.get(self.at) {
                    Some(b',') => self.at += 1,
                    Some(b']') => {
                        self.at += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(self.error("expected `,` or `]`")),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.eat(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.s.get(self.at) == Some(&b'}') {
                self.at += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.eat(b':')?;
                fields.push((key, self.value()?));
                self.skip_ws();
                match self.s.get(self.at) {
                    Some(b',') => self.at += 1,
                    Some(b'}') => {
                        self.at += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(self.error("expected `,` or `}`")),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = "\
# nproc 2 | header
w: 3 windows of 2048 requests
w    throughput_rps     100.5 1/s
w    latency_p50_us     10 us
w    net_bytes_per_req  64 B
w    peak_rss_mb        40 MB
w    setup_s            0.5 s
w: attempted 10 completed 10 failed 0
{\"correct\": true}
";

    fn machine() -> Machine {
        Machine { available_parallelism: 2, kernel: "test".into() }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0]), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn a_log_becomes_one_record_that_checks_and_appends() {
        let parent = parse_runs(&LOG.repeat(2));
        let change = parse_runs(&LOG.replace("40 MB", "35 MB").repeat(2));
        assert_eq!(parent["w"]["peak_rss_mb"], vec![40.0, 40.0]);
        let records = records(&parent, &change, "c", "p", &machine(), &[1, 2]).unwrap();
        assert_eq!(records.len(), 1);

        let file = append("", &records).unwrap();
        assert_eq!(check(&file), Ok(1));
        let record = json::parse(&file).unwrap();
        let rss = record.as_array().unwrap()[0].get("metrics").unwrap().get("peak_rss_mb").unwrap();
        assert_eq!(rss.get("pairs_won").and_then(|v| v.as_f64()), Some(2.0));
        let throughput =
            record.as_array().unwrap()[0].get("metrics").unwrap().get("throughput_rps");
        assert_eq!(throughput.unwrap().get("pairs_won").and_then(|v| v.as_f64()), Some(0.0));

        let twice = append(&file, &records).unwrap();
        assert_eq!(check(&twice), Ok(2));
        assert!(twice.starts_with(file.trim_end().strip_suffix(']').unwrap().trim_end()));
    }

    #[test]
    fn a_side_with_a_missing_run_is_refused() {
        let parent = parse_runs(&LOG.repeat(2));
        let change = parse_runs(LOG);
        assert!(records(&parent, &change, "c", "p", &machine(), &[1, 2]).is_err());
    }

    #[test]
    fn check_names_a_median_outside_its_quartiles() {
        let records =
            records(&parse_runs(LOG), &parse_runs(LOG), "c", "p", &machine(), &[1]).unwrap();
        let file = append("", &records).unwrap();
        let broken = file.replacen("\"median\": 100.5", "\"median\": 1000", 1);
        assert!(check(&broken).unwrap_err().contains("throughput_rps.parent"));
        let missing = file.replacen("\"setup_s\"", "\"setup\"", 1);
        assert!(check(&missing).unwrap_err().contains("no `setup_s`"));
    }
}
