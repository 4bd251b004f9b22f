#!/usr/bin/env bash
# Builds the `varbench` binary and the end-to-end bench, then runs one
# benchmark run from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). The
# last line of stdout is the result object; see perfbench/plan.json for
# the workloads and BENCHMARK.json for the metrics.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR"
target_dir="$(cd "$CARGO_TARGET_DIR" && pwd)"

# The program under test, built from this checkout's own workspace.
cargo build --release --offline --quiet -p varbench-bench --bin varbench >&2
exec cargo bench --offline --quiet --manifest-path perfbench/Cargo.toml --bench e2e -- \
    --varbench "$target_dir/release/varbench" "$@"
