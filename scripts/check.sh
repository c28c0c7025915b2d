#!/usr/bin/env bash
# CI gate: formatting, lints, release build, docs, and the test suites.
# Run from anywhere inside the repository.
#
# This script is the single entrypoint for both local runs and CI: every
# job in .github/workflows/ci.yml invokes it with one step name, so the
# two can never drift.
#
# Usage:
#   scripts/check.sh                  run every step (the full gate)
#   scripts/check.sh --quick          full gate minus the release build
#   scripts/check.sh <step> [...]     run only the named steps, in order
#
# Steps: fmt clippy build test spill doc stress bench benchmark loc
# (stress, bench and benchmark are not part of the default full gate
# because of their runtime; stress and benchmark have CI jobs of their
# own, bench is for whoever refreshes the committed figure artifacts.
# loc gates nothing: it prints the code-line count, the knob counts and
# the sleep and clock-read counts a [simplicity] PR reports before → after.)
#
# A perf change's A/B against its parent revision is not a step here:
# scripts/ab.sh <parent-rev> <workloads> [pairs] [seed] [seconds] builds
# both sides' benchmark/ outside the repository and alternates their runs.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
    # Print the leading comment block (however long it grows), shebang
    # excluded — a hard-coded line range here silently truncates the
    # help text every time a step is added above.
    awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0"
    exit 2
}

run_fmt() {
    echo "== cargo fmt --check"
    cargo fmt --all -- --check
}

run_clippy() {
    echo "== cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
}

run_build() {
    echo "== cargo build --release"
    cargo build --release --workspace
}

# Wall-clock watchdog for the test steps: a scheduler regression that
# wedges a job (a lost wake-up, a body that is never cancelled) otherwise
# hangs CI until the runner's global timeout. Override with WATCHDOG_SECS;
# 0 disables.
WATCHDOG_SECS="${WATCHDOG_SECS:-600}"

watchdog() {
    if [ "$WATCHDOG_SECS" -gt 0 ] && command -v timeout >/dev/null; then
        timeout --signal=KILL "$WATCHDOG_SECS" "$@"
    else
        "$@"
    fi
}

run_test() {
    echo "== cargo test (watchdog ${WATCHDOG_SECS}s)"
    watchdog cargo test -q --workspace
}

# The tiered block store defaults to a disabled watermark (usize::MAX);
# this step proves the spill/rehydrate machinery is load-bearing by
# running the whole suite with an artificially low watermark, so cold
# shuffle blocks and cached partitions constantly demote to disk and
# rehydrate mid-job. Tests that pin their own watermark (or disable
# spilling) through the builder win over the env default.
run_spill() {
    echo "== cargo test with SPANGLE_MEMORY_WATERMARK_BYTES=262144 (watchdog ${WATCHDOG_SECS}s)"
    SPANGLE_MEMORY_WATERMARK_BYTES=262144 watchdog cargo test -q --workspace
}

run_doc() {
    echo "== cargo doc -D warnings"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

run_stress() {
    echo "== stress: concurrent jobs under failure injection (watchdog ${WATCHDOG_SECS}s)"
    # Serial: both scenarios assert on process-wide thread counts.
    watchdog cargo test -q -p spangle-dataflow --test stress_concurrent_jobs -- \
        --ignored --test-threads=1
    echo "== stress: executor-kill chaos recovery"
    watchdog cargo test -q -p spangle-dataflow --test chaos_recovery -- --ignored
}

# Regenerates BENCH_fig10.json / BENCH_fig11.json, the runs behind
# EXPERIMENTS.md's fig10/fig11 tables, in release mode. Not a gate: a
# regression verdict is `benchmark compare`'s job (per key, against
# measured spreads), not one run of two figures against whichever box
# last committed them.
run_bench() {
    echo "== bench: regenerate BENCH_fig10.json / BENCH_fig11.json (watchdog ${WATCHDOG_SECS}s)"
    cargo build --release -p spangle-bench
    watchdog cargo run --release -q -p spangle-bench --bin fig10
    watchdog cargo run --release -q -p spangle-bench --bin fig11
}

# benchmark/ is a workspace of its own, so nothing above compiles it: this
# step builds it against the crates as they are now, runs its unit tests,
# and drives every workload once for a second each (same checks as a full
# run, ~40 s).
run_benchmark() {
    echo "== benchmark: unit tests + one quick run of every workload (watchdog ${WATCHDOG_SECS}s)"
    watchdog cargo test -q --manifest-path benchmark/Cargo.toml
    watchdog benchmark/run.sh --quick
}

# The acceptance counts a [simplicity] PR reports: non-blank lines that are
# not `//` comments (docs included) in crates/dataflow/src, per file and in
# total, up to each file's column-0 `#[cfg(test)]`; then the knobs — the
# `pub fn`s of `impl SpangleContextBuilder` (its setters and `build`), the
# rows of the `counters!` table and the distinct `SPANGLE_*` variables
# that `env_parse` is called with; then the `sleep(` calls in the dataflow
# tests and the `Instant::now()` calls in crates/dataflow/src before each
# file's tests, `//` comment lines left out of both. awk only — no `bc`.
run_loc() {
    for dir in crates/dataflow/src crates/core/src crates/linalg/src; do
        echo "== code lines of $dir before each file's tests"
        find "$dir" -name '*.rs' | sort | xargs awk '
            FNR == 1 { if (file != "") printf "%6d %s\n", n, file; file = FILENAME; n = 0; tests = 0 }
            /^#\[cfg\(test\)\]/ { tests = 1 }
            !tests && !/^[[:space:]]*(\/\/|$)/ { n++; total++ }
            END { printf "%6d %s\n%6d total\n", n, file, total }'
    done
    echo "== knobs"
    awk '/^impl SpangleContextBuilder \{/ { inside = 1; next }
        inside && /^\}/ { inside = 0 }
        inside && /^    pub fn / { n++ }
        END { printf "%6d pub fns of impl SpangleContextBuilder (setters and build)\n", n }' \
        crates/dataflow/src/context.rs
    awk '/^counters! \{/ { inside = 1; next }
        inside && /^\}/ { inside = 0 }
        inside && /^    [a-z0-9_]+: [A-Z][A-Za-z0-9]*,$/ { n++ }
        END { printf "%6d rows of counters! in metrics.rs\n", n }' \
        crates/dataflow/src/metrics.rs
    find crates/dataflow/src -name '*.rs' | sort | xargs awk '
        !/^[[:space:]]*\/\// && match($0, /env_parse(::<[^>]*>)?\("SPANGLE_[A-Z0-9_]+"/) {
            var = substr($0, RSTART, RLENGTH); sub(/^[^"]*"/, "", var); seen[var] = 1
        }
        END { for (var in seen) n++; printf "%6d SPANGLE_* knobs read through env_parse\n", n }'
    echo "== sleeps and clock reads"
    find crates/dataflow/tests -name '*.rs' | sort | xargs awk '
        !/^[[:space:]]*\/\// { n += gsub(/sleep\(/, "&") }
        END { printf "%6d sleep( calls under crates/dataflow/tests\n", n }'
    find crates/dataflow/src -name '*.rs' | sort | xargs awk '
        FNR == 1 { tests = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        !tests && !/^[[:space:]]*\/\// { n += gsub(/Instant::now\(\)/, "&") }
        END { printf "%6d Instant::now() calls in crates/dataflow/src before its tests\n", n }'
}

steps=()
for arg in "$@"; do
    case "$arg" in
    --quick) steps+=(fmt clippy test spill doc) ;;
    fmt | clippy | build | test | spill | doc | stress | bench | benchmark | loc) steps+=("$arg") ;;
    -h | --help | *) usage ;;
    esac
done
if [ ${#steps[@]} -eq 0 ]; then
    steps=(fmt clippy build test spill doc)
fi

for step in "${steps[@]}"; do
    "run_$step"
done

echo "== all checks passed"
