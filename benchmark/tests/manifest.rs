//! `BENCHMARK.json` and the code agree, and the file stays inside the
//! limits of the benchmark contract.

use splitbft_benchmark::json::{self, Value};
use splitbft_benchmark::metrics::{Scope, END_TO_END, ONCE_ON, PER_LAYER};
use splitbft_benchmark::workloads::WORKLOADS;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

fn names(list: &Value) -> Vec<&str> {
    list.arr()
        .expect("array")
        .iter()
        .map(|m| m.get("name").and_then(Value::str).expect("name"))
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn manifest_matches_the_code() {
    let manifest = json::parse(MANIFEST).expect("BENCHMARK.json parses");
    let Value::Obj(members) = &manifest else {
        panic!("object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = manifest.get("workloads").expect("workloads");
    assert_eq!(
        names(workloads),
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for workload in workloads.arr().expect("array") {
        let why = workload.get("why").and_then(Value::str).expect("why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }

    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = manifest.get(key).expect(key).arr().expect("array");
        assert_eq!(listed.len(), table.len(), "{key}: count differs");
        for (entry, (name, unit, better, _)) in listed.iter().zip(table) {
            assert_eq!(entry.get("name").and_then(Value::str), Some(*name));
            assert_eq!(
                entry.get("unit").and_then(Value::str),
                Some(*unit),
                "{name}"
            );
            assert_eq!(
                entry.get("better").and_then(Value::str),
                Some(*better),
                "{name}"
            );
            assert!(valid_name(name), "{name}");
            assert!(unit.len() <= 16, "{name}: unit {unit}");
            match entry.get("bound").and_then(Value::num) {
                Some(bound) => assert!(
                    key == "end_to_end" && bound > 0.0 && bound <= 0.25,
                    "{name}"
                ),
                None => assert_eq!(key, "per_layer", "{name} needs a bound"),
            }
        }
    }
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!(END_TO_END.contains(&("setup_s", "s", "lower", Scope::All)));
    let seconds = manifest
        .get("run_seconds")
        .and_then(Value::num)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    assert!(MANIFEST.len() <= 64 * 1024);
}

#[test]
fn every_metric_is_measured_somewhere() {
    for (name, _, _, scope) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(WORKLOADS.iter().any(|w| scope.covers(w)), "{name}");
    }
    assert!(END_TO_END.iter().all(|m| m.3 == Scope::All));
    assert!(Scope::Once.reason().contains(ONCE_ON));
}

#[test]
fn metric_names_are_unique() {
    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    all.extend(WORKLOADS.iter().map(|w| w.name));
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "a name is used twice");
}
