#!/usr/bin/env bash
# Build the harness in release mode and run it.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--smoke]
#   benchmark/run.sh --compare DIR_A DIR_B
#
# Run from anywhere; builds offline into $CARGO_TARGET_DIR (or
# benchmark/target) without touching the root workspace's build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr so that stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/td-benchmark"
if [ "${1:-}" = "--compare" ]; then
    shift
    exec "$bin" compare "$@"
fi
exec "$bin" --out "$here/out" "$@"
