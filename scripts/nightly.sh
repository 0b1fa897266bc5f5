#!/usr/bin/env bash
# Nightly perf gate: the end-to-end benchmark at a base ref against HEAD.
#
#   ./scripts/nightly.sh [BASE_REF]      # BASE_REF defaults to HEAD~1
#
# Checks BASE_REF out in a temporary git worktree and runs BENCHMARK.json's
# `command` there and in this checkout (HEAD, with any uncommitted changes)
# for five alternating pairs: base first on odd pairs, HEAD first on even
# ones. A run is every workload BENCHMARK.json lists, each in its own
# process (peak RSS is per process) for its `run_seconds`. A smoke run of
# all workloads in each tree first builds `bench_e2e` there. The gate fails
# if any run exits nonzero (a golden digest or check failure), or if any
# end-to-end metric's HEAD median is worse than the base median by more
# than that metric's `bound`. Values come from each run's final JSON line.
#
# Each row also shows both sides' quartiles and in how many pairs HEAD read
# better. A row within its bound reads `unresolved` instead of `ok` when the
# base side's quartile spread is wider than the bound and HEAD did not win
# every pair: the runs are too noisy to say the metric held. `unresolved`
# is a report only; it never fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

base_ref="${1:-HEAD~1}"
pairs=5

# spec ARRAY KEY...: for each one-line object of BENCHMARK.json's top-level
# ARRAY, the values of KEY... on one line.
spec() {
    awk -v array="$1" -v keys="${*:2}" '
        function field(line, key) {
            if (!match(line, "\"" key "\": *\"?[^\",}]*")) return ""
            line = substr(line, RSTART, RLENGTH)
            sub(/^"[^"]*": *"?/, "", line)
            return line
        }
        $0 ~ "^ *\"" array "\": *\\[ *$" { on = 1; next }
        on && /^ *\]/ { exit }
        on {
            n = split(keys, k, " ")
            out = field($0, k[1])
            for (i = 2; i <= n; i++) out = out " " field($0, k[i])
            print out
        }
    ' BENCHMARK.json
}
read -ra cmd <<< "$(awk -F'[][]' '/"command"/ { gsub(/[",]/, "", $2); print $2 }' BENCHMARK.json)"
seconds="$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' BENCHMARK.json)"
read -ra workloads <<< "$(spec workloads name | tr '\n' ' ')"
bounds="$(spec end_to_end name better bound)"
[ "${#cmd[@]}" -gt 0 ] && [ -n "$seconds" ] && [ "${#workloads[@]}" -gt 0 ] && [ -n "$bounds" ] \
    || { echo "nightly: could not read BENCHMARK.json" >&2; exit 2; }

work="$(mktemp -d -t synran-nightly.XXXXXX)"
cleanup() {
    git worktree remove --force "$work/base" >/dev/null 2>&1 || true
    rm -rf "$work"
    git worktree prune
}
trap cleanup EXIT
git worktree add --quiet --detach "$work/base" "$base_ref"

# run SIDE OUT ARGS...: the benchmark command in SIDE's tree, stdout to OUT.
run() {
    local side="$1" out="$2" tree="$PWD"
    shift 2
    [ "$side" = base ] && tree="$work/base"
    if ! (cd "$tree" && "${cmd[@]}" "$@") > "$out"; then
        echo "nightly: $side run failed ($*); last lines:" >&2
        tail -n 20 "$out" >&2
        exit 1
    fi
}

echo "== nightly: build and smoke at $base_ref ($(git rev-parse --short "$base_ref")) and HEAD =="
run base "$work/smoke-base.out" --smoke --workload all
run head "$work/smoke-head.out" --smoke --workload all

# Every end-to-end value as "side workload metric value", one per line.
: > "$work/values.txt"
for pair in $(seq 1 "$pairs"); do
    order="base head"
    [ $((pair % 2)) -eq 0 ] && order="head base"
    for side in $order; do
        echo "== nightly: pair $pair/$pairs, $side: ${workloads[*]} (${seconds} s each) =="
        for workload in "${workloads[@]}"; do
            out="$work/$side-$pair-$workload.out"
            run "$side" "$out" --workload "$workload" --seconds "$seconds"
            tail -n 1 "$out" | awk -v prefix="$side $workload" -v names="$(cut -d' ' -f1 <<< "$bounds" | tr '\n' ' ')" '{
                n = split(names, list, " ")
                for (i = 1; i <= n; i++) {
                    if (!match($0, "\"" list[i] "\": *\\{\"value\": *[-0-9.eE+]+")) continue
                    v = substr($0, RSTART, RLENGTH)
                    sub(/.*: */, "", v)
                    print prefix, list[i], v
                }
            }' >> "$work/values.txt"
        done
    done
done

echo "== nightly: medians and quartiles over $pairs runs per side =="
awk -v pairs="$pairs" '
    NR == FNR { better[$1] = $2; bound[$1] = $3; next }
    {
        key = $2 " " $3
        if (!(key in seen)) { seen[key] = 1; order[++keys] = key }
        vals[$1, key, ++count[$1, key]] = $4
    }
    # quantile(side, key, p): the p-quantile of one side, interpolated
    # between order statistics.
    function quantile(side, key, p,    n, i, j, t, a, r, lo) {
        n = count[side, key]
        for (i = 1; i <= n; i++) a[i] = vals[side, key, i] + 0
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        r = 1 + (n - 1) * p
        lo = int(r)
        return lo < n ? a[lo] + (r - lo) * (a[lo + 1] - a[lo]) : a[n]
    }
    END {
        printf "%-14s %-12s %12s %-25s %12s %-25s %8s %6s %5s  %s\n", "workload", "metric", "base", "(quartiles)",
            "head", "(quartiles)", "change", "bound", "wins", "verdict"
        for (k = 1; k <= keys; k++) {
            split(order[k], parts, " ")
            metric = parts[2]
            if (count["base", order[k]] != pairs || count["head", order[k]] != pairs) {
                printf "%-14s %-12s missing values\n", parts[1], metric
                failed = 1
                continue
            }
            b = quantile("base", order[k], 0.5); h = quantile("head", order[k], 0.5)
            bq1 = quantile("base", order[k], 0.25); bq3 = quantile("base", order[k], 0.75)
            hq1 = quantile("head", order[k], 0.25); hq3 = quantile("head", order[k], 0.75)
            # Pairs in which HEAD read better than the base run beside it.
            wins = 0
            for (i = 1; i <= pairs; i++) {
                bv = vals["base", order[k], i] + 0; hv = vals["head", order[k], i] + 0
                if (better[metric] == "higher" ? hv > bv : hv < bv) wins++
            }
            worse = better[metric] == "higher" ? h < b * (1 - bound[metric]) : h > b * (1 + bound[metric])
            if (worse) {
                failed = 1
                verdict = "WORSE"
            } else if (bq3 - bq1 > bound[metric] * b && wins < pairs) {
                verdict = "unresolved"
            } else {
                verdict = "ok"
            }
            printf "%-14s %-12s %12.6g %-25s %12.6g %-25s %+7.1f%% %5.0f%% %2d/%-2d  %s\n", parts[1], metric,
                b, sprintf("(%.6g-%.6g)", bq1, bq3), h, sprintf("(%.6g-%.6g)", hq1, hq3),
                (b > 0 ? 100 * (h - b) / b : 0), 100 * bound[metric], wins, pairs, verdict
        }
        exit failed
    }
' <(printf '%s\n' "$bounds") "$work/values.txt" \
    || { echo "== nightly: FAILED: a HEAD median is past its BENCHMARK.json bound =="; exit 1; }
echo "== nightly: OK =="
