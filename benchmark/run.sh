#!/usr/bin/env bash
# Build the ledger, test it, run every workload untraced and traced, and hold
# the result against the committed baseline. `--quick` measures 2 s per run
# instead of 28 (each run still takes its minimum of five epochs): a smoke
# test for CI, which `compare` marks with a warning.
set -euo pipefail
cd "$(dirname "$0")/.."

seconds=28
case "${1:-}" in
  "") ;;
  --quick) seconds=2 ;;
  *) echo "usage: benchmark/run.sh [--quick]" >&2; exit 2 ;;
esac

manifest=benchmark/Cargo.toml
# the ledger is a package of its own, so the workspace's `cargo test` does
# not reach its tests
cargo test --quiet --offline --manifest-path "$manifest"
cargo build --release --quiet --offline --manifest-path "$manifest"
ledger="${CARGO_TARGET_DIR:-benchmark/target}/release/ledger"

mkdir -p .ledger_tmp
"$ledger" run --all --seed 42 --seconds "$seconds" --out .ledger_tmp/latest.json
"$ledger" compare benchmark/baseline/run-a.json .ledger_tmp/latest.json
