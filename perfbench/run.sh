#!/usr/bin/env bash
# Builds the release `sisyn` binary and the benchmark, then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from any directory; build output goes to stderr, and the last line
# of stdout is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path Cargo.toml --bin sisyn >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
# Not `exec`: the benchmark reads its children's peak memory, which must
# not include the compilers the builds above ran.
"$CARGO_TARGET_DIR/release/perfbench" --sisyn "$CARGO_TARGET_DIR/release/sisyn" "$@"
