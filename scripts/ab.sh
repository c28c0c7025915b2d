#!/usr/bin/env bash
# A/B of the benchmark's contract command: a parent revision against the
# working tree, in alternating pairs.
#
# Usage:
#   scripts/ab.sh <parent-rev> <workloads> [pairs] [seed] [seconds]
#
#   <workloads>  comma-separated, e.g. gram_hypersparse,gram_shuffle
#   [pairs]      alternating pairs per workload (default 5)
#   [seed]       --seed of every run (default 11)
#   [seconds]    --seconds of every run (default 8)
#
# The parent is exported with `git archive`, and the working tree (tracked
# and untracked, ignored files excluded) copied, into a work directory
# outside the repository: AB_WORK if set, else a fresh `mktemp -d`. Each
# side's benchmark/ is built there with its own CARGO_TARGET_DIR, and every
# run's working directory is the work directory, so the benchmark's temp
# files land there too: nothing is written inside the repository. Pairs
# alternate which side runs first. Prints one line per run (side,
# workload, failed ops, the five end-to-end metrics, and the run's minor
# page faults `minflt` and system CPU seconds `sys_s`), then per workload
# each metric's median per side with its quartiles [q1, q3] (the exclusive
# method, as `benchmark compare` computes them), marked `unresolved` when
# either side's spread (q3 − q1 over the median) is wider than the
# metric's bound in BENCHMARK.json and some change run is no lower than
# some parent run, and for `op_p10_ms` how many change runs are below
# every parent run. Each run's `checksum:` line is kept too: per workload
# the script prints `checksums: identical across N runs`, or lists each
# distinct checksum with the runs (side and run number) that printed it,
# so a claim of bit-identical results can be read off the output. Before
# the first run it stamps what drifts between boxes: both commits, the
# core count, the CPU model and the filesystem type of the temp directory
# (where the spill tier writes).
#
# `minflt` and `sys_s` are what the whole run cost — set-up, oracle and
# ops alike, not the ops alone: the growth across the run of this shell's
# `cminflt` and `cstime` (fields 11 and 17 of /proc/$$/stat, which count
# the children it has waited for; `cstime` over `getconf CLK_TCK`). They
# are printed as medians [q1, q3] per side, without a bound.
set -euo pipefail

[ $# -ge 2 ] || { awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0"; exit 2; }
parent_rev=$1
IFS=, read -r -a workloads <<<"$2"
pairs=${3:-5}
seed=${4:-11}
seconds=${5:-8}
metrics=(setup_s op_p10_ms peak_rss_bytes resident_peak_bytes moved_bytes_per_op)
counts=(minflt sys_s)
clk_tck=$(getconf CLK_TCK)

repo=$(cd "$(dirname "$0")/.." && pwd)
work=${AB_WORK:-$(mktemp -d)}
mkdir -p "$work/parent" "$work/change"
echo "== work directory $work"

parent_commit=$(git -C "$repo" rev-parse --verify "$parent_rev^{commit}")
change_commit=$(git -C "$repo" rev-parse HEAD)
[ -z "$(git -C "$repo" status --porcelain)" ] || change_commit+=" + working tree changes"
temp_dir=${TMPDIR:-/tmp}
echo "== parent $parent_commit"
echo "== change $change_commit"
echo "== box: $(nproc) cores, $(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo)," \
    "temp directory $temp_dir on $(stat -f -c %T "$temp_dir")"

git -C "$repo" archive "$parent_commit" |
    tar -x -C "$work/parent"
git -C "$repo" ls-files -z --cached --others --exclude-standard |
    (cd "$repo" && tar --null -T - -cf -) | tar -x -C "$work/change"

for side in parent change; do
    echo "== building $side"
    CARGO_TARGET_DIR="$work/$side-build" cargo build --release --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml"
done

results="$work/runs.txt"
checksums="$work/checksums.txt"
: >"$results"
: >"$checksums"

# Sets child_minflt and child_ticks to this shell's cminflt and cstime:
# fields 11 and 17 of /proc/$$/stat, counted after the `)` that closes the
# command name (which may hold spaces). Builtins only, so reading them
# starts no child of its own.
read_child_usage() {
    local stat fields
    read -r stat <"/proc/$$/stat"
    read -r -a fields <<<"${stat##*) }"
    child_minflt=${fields[8]} child_ticks=${fields[14]}
}

# Runs one side once, appends its metrics to the results and its checksum
# to the checksums.
run_one() {
    local side=$1 workload=$2 output line values checksum minflt ticks
    read_child_usage
    minflt=$child_minflt ticks=$child_ticks
    output=$(cd "$work" && "$work/$side-build/release/spangle_benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
    read_child_usage
    line=$(tail -n 1 <<<"$output")
    checksum=$(sed -n '/^checksum: /{s///p;q;}' <<<"$output")
    values="failed=$(sed -E 's/.*"failed":([^,}]+).*/\1/' <<<"$line")"
    for m in "${metrics[@]}"; do
        values+=" $m=$(sed -E "s/.*\"$m\":\\{\"value\":([^,}]+).*/\\1/" <<<"$line")"
    done
    values+=" minflt=$((child_minflt - minflt))"
    values+=" sys_s=$(awk -v t=$((child_ticks - ticks)) -v hz="$clk_tck" 'BEGIN { printf "%.2f", t / hz }')"
    echo "$side $workload $values" | tee -a "$results"
    echo "$side $workload checksum: $checksum" | tee -a "$checksums"
}

for workload in "${workloads[@]}"; do
    for ((pair = 0; pair < pairs; pair++)); do
        if ((pair % 2 == 0)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do run_one "$side" "$workload"; done
    done
done

# "metric=bound" pairs of the end-to-end metrics, read from BENCHMARK.json.
bounds=$(awk -F'"' '/"name":/ { name = $4 } /"bound":/ { b = $3; gsub(/[^0-9.]/, "", b); printf "%s=%s ", name, b }' \
    "$repo/BENCHMARK.json")

echo "== medians [q1, q3] (parent → change)"
awk -v names="${metrics[*]}" -v counts="${counts[*]}" -v bounds="$bounds" '
    function sorted(list, a,    n, i, j, t) {
        n = split(list, a, " ")
        for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] + 0 > a[j] + 0; j--) {
            t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
        }
        return n
    }
    function median(list,    n, a) {
        n = sorted(list, a)
        return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    # Quartile k (1 or 3) by the exclusive method: Python statistics.quantiles(n=4).
    function quartile(list, k,    n, a, pos, j) {
        n = sorted(list, a)
        if (n < 2) return a[1]
        pos = k * (n + 1) / 4
        j = int(pos)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        return a[j] + (a[j + 1] - a[j]) * (pos - j)
    }
    # "median [q1, q3]" of a list; sets spread to (q3 − q1) / |median|, and
    # low and high to its extremes.
    function summary(list,    m, q1, q3, n, a) {
        n = sorted(list, a); low = a[1]; high = a[n]
        m = median(list); q1 = quartile(list, 1); q3 = quartile(list, 3)
        spread = m != 0 ? (q3 - q1) / (m < 0 ? -m : m) : 0
        return sprintf("%.10g [%.10g, %.10g]", m, q1, q3)
    }
    function sum(list,    n, a, i, s) {
        n = split(list, a, " ")
        for (i = 1; i <= n; i++) s += a[i]
        return s
    }
    {
        if (!($2 in seen)) { seen[$2] = 1; order[++workloads] = $2 }
        for (f = 3; f <= NF; f++) {
            split($f, kv, "=")
            runs[$1, $2, kv[1]] = runs[$1, $2, kv[1]] " " kv[2]
        }
    }
    END {
        n = split(names, metric, " ")
        nb = split(bounds, pairs, " ")
        for (i = 1; i <= nb; i++) { split(pairs[i], kv, "="); bound[kv[1]] = kv[2] }
        for (w = 1; w <= workloads; w++) {
            wl = order[w]
            printf "%s  failed ops, all runs: %d → %d\n", wl, sum(runs["parent", wl, "failed"]),
                sum(runs["change", wl, "failed"])
            for (i = 1; i <= n; i++) {
                p = median(runs["parent", wl, metric[i]])
                c = median(runs["change", wl, metric[i]])
                ps = summary(runs["parent", wl, metric[i]]); pspread = spread; plow = low
                cs = summary(runs["change", wl, metric[i]]); cspread = spread; chigh = high
                # Every metric here is lower-is-better: a change whose every
                # run beats every parent run is resolved however wide.
                wide = (metric[i] in bound) && (pspread > bound[metric[i]] || cspread > bound[metric[i]]) &&
                    chigh + 0 >= plow + 0
                printf "  %-20s %s → %s (%+.1f %%)%s\n", metric[i], ps, cs,
                    p != 0 ? 100 * (c - p) / p : 0, wide ? "  unresolved" : ""
            }
            nk = split(counts, count, " ")
            for (i = 1; i <= nk; i++) {
                p = median(runs["parent", wl, count[i]])
                c = median(runs["change", wl, count[i]])
                printf "  %-20s %s → %s (%+.1f %%), whole runs\n", count[i],
                    summary(runs["parent", wl, count[i]]), summary(runs["change", wl, count[i]]),
                    p != 0 ? 100 * (c - p) / p : 0
            }
            np = split(runs["parent", wl, "op_p10_ms"], pv, " ")
            nc = split(runs["change", wl, "op_p10_ms"], cv, " ")
            lowest = pv[1]
            for (i = 2; i <= np; i++) if (pv[i] + 0 < lowest + 0) lowest = pv[i]
            below = 0
            for (i = 1; i <= nc; i++) if (cv[i] + 0 < lowest + 0) below++
            printf "  op_p10_ms: %d of %d change runs below every parent run\n", below, nc
        }
    }' "$results"
echo "== checksums"
awk '
    {
        side = $1; wl = $2; sub(/^[^ ]+ [^ ]+ checksum: ?/, "")
        if (!(wl in runs)) order[++workloads] = wl
        runs[wl]++
        label = side " " ++numbered[wl, side]
        if (!((wl, $0) in who)) value[wl, ++distinct[wl]] = $0
        who[wl, $0] = who[wl, $0] (who[wl, $0] == "" ? "" : ", ") label
    }
    END {
        for (w = 1; w <= workloads; w++) {
            wl = order[w]
            if (distinct[wl] == 1) {
                printf "%s  checksums: identical across %d runs (%s)\n", wl, runs[wl], value[wl, 1]
                continue
            }
            printf "%s  checksums: %d distinct over %d runs\n", wl, distinct[wl], runs[wl]
            for (i = 1; i <= distinct[wl]; i++)
                printf "    %s: %s\n", value[wl, i], who[wl, value[wl, i]]
        }
    }' "$checksums"
echo "== runs kept in $results, checksums in $checksums"
