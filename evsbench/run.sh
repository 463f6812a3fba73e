#!/usr/bin/env bash
# Builds the benchmark and the `udp_cluster` example it drives, then runs
# it with the given arguments. Run from the repository root:
#
#   bash evsbench/run.sh --workload ring --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). Build
# chatter goes to standard error; standard output carries only the
# benchmark's report, whose last line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --quiet --release --offline --manifest-path evsbench/Cargo.toml >&2
cargo build --quiet --release --offline --example udp_cluster >&2
exec "$CARGO_TARGET_DIR/release/evsbench" "$@"
