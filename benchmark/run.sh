#!/usr/bin/env bash
# Builds the system under test and the benchmark from source, then runs the
# benchmark with the given arguments, e.g. from the repository root:
#
#   bash benchmark/run.sh --workload climate-wide --seed 1 --seconds 20 --trace 0
#
# The daemons are built from the workspace into the same target directory
# (CARGO_TARGET_DIR, default `target/`) as the benchmark, which finds them
# next to its own binary. See benchmark/BENCHMARK.md.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p serve -p dist --bin dangoron-serve --bin dangoron-shard
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/dangoron-benchmark" "$@"
