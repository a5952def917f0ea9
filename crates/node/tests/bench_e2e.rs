//! End-to-end acceptance test for the loadgen subsystem: for each of
//! the three protocols, `splitbft-node bench` (driven through its
//! library entry point) must stand up a real TCP cluster, measure it,
//! and write a `BENCH_*.json` whose schema and numbers are sane — in
//! particular, cluster-side committed requests must equal the clients'
//! observed completions.

use splitbft_node::bench;
use std::path::PathBuf;

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("splitbft-bench-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create out dir");
    dir
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn run_bench_for(protocol: &str) {
    let dir = out_dir(protocol);
    let reports = bench::run(&args(&[
        "--protocol", protocol,
        "--clients", "4",
        "--pipeline", "2",
        "--duration", "1500ms",
        "--window-ms", "500",
        "--out", dir.to_str().unwrap(),
    ]))
    .expect("bench run failed");
    assert_eq!(reports.len(), 1);
    let report = &reports[0];

    // Sanity: the run did real work and every number is consistent.
    assert!(report.completed > 0, "{protocol}: zero completions");
    assert_eq!(report.issued, report.completed + report.timed_out);
    assert_eq!(report.timed_out, 0, "{protocol}: requests timed out in a healthy cluster");
    assert_eq!(
        report.committed, report.completed,
        "{protocol}: cluster-side commits must equal client-observed completions"
    );
    assert!(report.throughput_rps > 0.0);
    assert!(report.latency.p50_us > 0, "{protocol}: zero p50");
    assert!(report.latency.p50_us <= report.latency.p95_us);
    assert!(report.latency.p95_us <= report.latency.p99_us);
    assert!(report.latency.p99_us <= report.latency.max_us);
    assert_eq!(
        report.window_counts.iter().sum::<u64>(),
        report.completed,
        "{protocol}: window series must account for every completion"
    );
    assert_eq!(report.protocol, protocol);
    assert_eq!(report.n, 4);

    // Schema: the written file carries every v1 key.
    let path = dir.join(report.file_name());
    let json = std::fs::read_to_string(&path).expect("report file written");
    for key in [
        "\"schema\": \"splitbft-bench/v1\"",
        "\"name\"", "\"protocol\"", "\"n\"", "\"f\"", "\"app\"", "\"workload\"", "\"mode\"",
        "\"offered_rps\"", "\"clients\"", "\"pipeline\"", "\"duration_secs\"", "\"batch\"",
        "\"max_frames\"", "\"requests\"", "\"issued\"", "\"completed\"", "\"timed_out\"",
        "\"committed\"", "\"throughput_rps\"", "\"latency_us\"", "\"p50\"", "\"p95\"",
        "\"p99\"", "\"max\"", "\"mean\"", "\"window_secs\"", "\"windows\"",
    ] {
        assert!(json.contains(key), "{protocol}: report missing {key}:\n{json}");
    }
    assert!(json.contains(&format!("\"protocol\": \"{protocol}\"")));
    assert!(json.contains(&format!("\"committed\": {}", report.committed)));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_reports_pbft() {
    run_bench_for("pbft");
}

#[test]
fn bench_reports_splitbft() {
    run_bench_for("splitbft");
}

#[test]
fn bench_reports_minbft() {
    run_bench_for("minbft");
}

/// The kvs workload benches end to end too (no commit probe — the
/// report falls back to committed == completed by construction, but the
/// run itself must complete requests through the full consensus path).
#[test]
fn bench_reports_kvs_workload() {
    let dir = out_dir("kvs");
    let reports = bench::run(&args(&[
        "--protocol", "pbft",
        "--app", "kvs",
        "--keys", "64",
        "--value-size", "32",
        "--read-ratio", "0.5",
        "--clients", "2",
        "--pipeline", "2",
        "--duration", "800ms",
        "--out", dir.to_str().unwrap(),
    ]))
    .expect("kvs bench failed");
    assert!(reports[0].completed > 0);
    let json = std::fs::read_to_string(dir.join(reports[0].file_name())).unwrap();
    assert!(json.contains(r#""kind":"kvs""#));
    assert!(json.contains(r#""value_size":32"#));
    std::fs::remove_dir_all(&dir).ok();
}

/// Every point of a durable rate sweep launches its cluster from
/// genesis: a second point started over the first one's WAL would
/// recover its checkpoint and reply cache and stall the fresh clients.
#[test]
fn durable_rate_sweep_completes_every_point() {
    let dir = out_dir("durable-sweep");
    let reports = bench::run(&args(&[
        "--protocol", "splitbft",
        "--sweep-rate", "200,400",
        "--clients", "2",
        "--duration", "1s",
        "--drain-secs", "5",
        "--data-dir", dir.join("data").to_str().unwrap(),
        "--out", dir.to_str().unwrap(),
    ]))
    .expect("durable sweep failed");
    assert_eq!(reports.len(), 2);
    for report in &reports {
        assert!(report.completed > 0, "{}: zero completions", report.name);
    }
    std::fs::remove_dir_all(&dir).ok();
}
