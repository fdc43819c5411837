#!/usr/bin/env bash
# Builds the `dbscout` CLI and the benchmark from source, then runs the
# benchmark with the given arguments:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Honors CARGO_TARGET_DIR; without it the
# two packages build into their own default target directories.
set -euo pipefail
cargo build --release --quiet --manifest-path Cargo.toml -p dbscout-cli
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
export DBSCOUT_BIN="${CARGO_TARGET_DIR:-target}/release/dbscout"
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/dbscout-perfbench" "$@"
