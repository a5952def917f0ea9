#!/usr/bin/env bash
# The benchmark's own checks: its tests, then a smoke run of every
# workload (a twentieth of the work, same oracles, no bounds).
# Run from anywhere; builds into CARGO_TARGET_DIR or benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke --seed 1
