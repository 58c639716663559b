#!/usr/bin/env bash
# Build the cgra-serve daemon and the benchmark from this checkout, then
# run one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload hit-storm --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p cgra --bin cgra-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/cgra-perfbench" \
    --daemon "$CARGO_TARGET_DIR/release/cgra-serve" "$@"
