//! Every span of a traced pump run sits under a client batch's root
//! span, so per-name self times add up to the roots and the shares the
//! traced run prints add up to 100 %.

use splitbft_benchmark::pump::ROOT_SPAN;
use splitbft_benchmark::trace::self_over_roots;
use splitbft_benchmark::workloads::{self, Kind, PumpOptions, Sizing, WORKLOADS};

#[test]
fn self_times_partition_the_root_spans_on_every_pump_workload() {
    for spec in &WORKLOADS {
        let Kind::Pump(stack) = spec.kind else {
            continue;
        };
        // One checkpoint period per window, as in the real runs: the
        // checkpoint trails the window's last reply.
        let sizing = Sizing {
            window_requests: spec.pipeline as u64 * 128,
            windows: 3,
            warmup_requests: spec.pipeline as u64 * 64,
        };
        let options = PumpOptions {
            traced: true,
            ..PumpOptions::default()
        };
        let report = workloads::run_pump(stack, spec, 11, sizing, options).expect("runs");
        assert!(
            report.violations.is_empty(),
            "{}: {:?}",
            spec.name,
            report.violations
        );
        let spans = report.tracer.spans();
        assert!(
            spans.iter().any(|s| s.name == "proto.on_checkpoint"),
            "{}: the run must cross a checkpoint",
            spec.name
        );
        let ratio = self_over_roots(spans, ROOT_SPAN);
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{}: self times / root spans = {ratio}",
            spec.name
        );
    }
}
