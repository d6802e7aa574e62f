#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs one workload:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Cargo output goes to stderr, so the last
# line of stdout is the result JSON. Records and chrome traces go to
# benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/born-bench" "$@" --out "$here/out"
