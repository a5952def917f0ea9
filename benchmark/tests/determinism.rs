//! Counts repeat exactly: two runs with one seed agree on every count
//! the benchmark reports, and the seed reaches the KVS operation
//! stream and nothing else.
//!
//! One test function on purpose: the allocation counter is global, so
//! nothing else may allocate while a run is being counted.

use splitbft_benchmark::alloc::CountingAlloc;
use splitbft_benchmark::workloads::{self, Kind, PumpOptions, PumpReport, Sizing};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Every exact count behind `net_bytes_per_req`, `types.msgs_per_req`,
/// `tee.ecalls_per_req`, `store.fsyncs_per_req`, `mem.allocs_per_req`.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    requests: u64,
    bytes_out: u64,
    msgs: u64,
    ecalls: Option<u64>,
    fsyncs: u64,
    /// Allocation count only: the bytes include path strings, whose
    /// length follows the scratch directory's name.
    allocs: u64,
}

fn run(name: &str, seed: u64) -> (Counts, PumpReport) {
    let spec = workloads::find(name).expect("workload exists");
    let Kind::Pump(stack) = spec.kind else {
        panic!("{name} is not a pump workload")
    };
    // Past a checkpoint in every workload.
    let sizing = Sizing {
        window_requests: 64,
        windows: 20,
        warmup_requests: 128,
    };
    let options = PumpOptions {
        count_allocs: true,
        ..PumpOptions::default()
    };
    let report = workloads::run_pump(stack, spec, seed, sizing, options).expect("runs");
    assert_eq!(report.failures.total(), 0, "{name}: {:?}", report.failures);
    assert!(
        report.violations.is_empty(),
        "{name}: {:?}",
        report.violations
    );
    let counts = Counts {
        requests: report.run.requests,
        bytes_out: report.run.net.replica_bytes_out(),
        msgs: report.run.net.replica_msgs(),
        ecalls: report.tee.map(|tee| tee.iter().map(|t| t.ecalls).sum()),
        fsyncs: report.fsyncs,
        allocs: report.allocs.0,
    };
    (counts, report)
}

#[test]
fn counts_repeat_exactly_and_only_the_kvs_stream_follows_the_seed() {
    for name in [
        "split-lockstep",
        "split-batched",
        "pbft-batched",
        "split-kvs-durable",
    ] {
        let (first, first_report) = run(name, 7);
        let (again, _) = run(name, 7);
        assert_eq!(first, again, "{name}: same seed, different counts");
        assert_eq!(first.requests, 20 * 64);
        assert!(first.allocs > 0 && first.bytes_out > 0 && first.msgs > 0);

        let (other, other_report) = run(name, 8);
        if name == "split-kvs-durable" {
            assert!(first.fsyncs > 0, "the durable workload syncs its WAL");
            assert_ne!(
                first_report.ops_fingerprint, other_report.ops_fingerprint,
                "another seed must change the KVS operation stream"
            );
        } else {
            // Counter workloads have no seeded input: keys differ, counts do not.
            assert_eq!(first_report.ops_fingerprint, 0);
            assert_eq!(
                (first.bytes_out, first.msgs, first.ecalls, first.fsyncs),
                (other.bytes_out, other.msgs, other.ecalls, other.fsyncs),
                "{name}: the seed changed a count"
            );
        }
    }
}
