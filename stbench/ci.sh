#!/usr/bin/env bash
# Build, test, smoke-run and cross-check the benchmark. Run from anywhere
# inside a full checkout; wiring this into .github/workflows/ci.yml is left
# to the next change (that file is outside this benchmark's paths).
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# One test at a time: the tests host live pools, and two at once would put
# more runnable threads on the host than it has cores.
cargo test --release -- --test-threads=1
# Every BENCHMARK.json name is generated from the tables the binary prints
# from; the test above compares them, this compares the committed bytes.
diff <(cargo run --release --quiet -- --emit-benchmark-json) ../BENCHMARK.json
cargo run --release --quiet -- --check
cargo run --release --quiet -- --smoke
