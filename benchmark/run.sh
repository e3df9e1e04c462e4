#!/usr/bin/env bash
# Builds the benchmark from source (release, offline: every dependency is a
# path inside this repository) and runs it from the repository root, which
# is where BENCHMARK.json says the command is run. Arguments pass through:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#   benchmark/run.sh --all [--seed <n>]
#   benchmark/run.sh --check
#
# The build lands in $CARGO_TARGET_DIR when set, else in benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export DDS_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export DDS_BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo 'not a git checkout')"
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/dds-benchmark" "$@"
