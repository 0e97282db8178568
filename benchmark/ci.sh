#!/usr/bin/env bash
# Checks the benchmark itself: unit tests, then every workload, the traced
# pass and the layer probes at smoke size, twice, and that the two runs
# agree on every exact count and model digest. Smoke runs check behaviour,
# not speed, so host-time verdicts are not gated here.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" -- "$@"
}
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
mkdir -p benchmark/out
bench run --all --smoke --trace --out benchmark/out/ci-a.json > /dev/null
bench run --all --smoke --out benchmark/out/ci-b.json > /dev/null
bench compare --model-only benchmark/out/ci-a.json benchmark/out/ci-b.json
