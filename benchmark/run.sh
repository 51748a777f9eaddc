#!/usr/bin/env bash
# Build the benchmark once (release, LTO, as the shipped bins) and run
# it; every argument goes to the benchmark. With no arguments it runs
# all five workloads, end to end and traced. See README.md.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/macedon-benchmark" "$@"
