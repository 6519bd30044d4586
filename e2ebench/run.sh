#!/usr/bin/env bash
# Build the release ioagentd daemon and the benchmark, then run one
# benchmark invocation. Run from the repository root:
#
#   bash e2ebench/run.sh --workload fresh --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's report goes to stdout and
# ends with one JSON line. CARGO_TARGET_DIR defaults to .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p ioagentd --bin ioagentd 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
E2EBENCH_GIT_SHA="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export E2EBENCH_GIT_SHA
exec "$target/release/e2ebench" --ioagentd "$target/release/ioagentd" \
    --work-dir "$target/e2ebench" "$@"
