#!/usr/bin/env bash
# Builds the benchmark in release mode and runs one set of runs: every
# workload in its own process, the artifact and traces under benchmark/out/.
#
#   benchmark/run.sh                      # 3 runs per workload, 8 s each
#   benchmark/run.sh --traced             # plus one traced run per workload
#   benchmark/run.sh --quick              # 1 run of 1 s per workload, same checks
#   benchmark/run.sh --seed 12 --out benchmark/out/holdout.json
#
# Compare two sets with:
#   cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run "$@"
