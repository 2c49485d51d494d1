#!/usr/bin/env bash
# Flake gate for the concurrency-sensitive tests: runs each test binary N
# times as two copies at once, each copy with --test-threads=4 under a
# timeout, and fails on any failed or hung run.
#
#   scripts/flake_gate.sh [N]     # N paired runs per binary, default 20
#
# The binaries are built once, in the test profile `cargo test` uses. A
# single run takes 0.1-1.2 s on a 2-CPU host, so N = 20 costs about a
# minute there. Two copies at once put real parallelism on the tests even
# on a small host; a run past the timeout counts as a hang.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
n=${1:-20}
limit=120

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Each gate: a label, the test-name filter ('' runs every test of the
# binary) and the cargo arguments that select the binary.
gates=(
    "pmem --lib||-p pmem --lib"
    "pmem --test durability_laws||-p pmem --test durability_laws"
    "concurrent_consistency||-p integration-tests --test concurrent_consistency"
    "multithread_crash||-p integration-tests --test multithread_crash"
    "queue_stack_crash||-p integration-tests --test queue_stack_crash"
    "bench --lib parallel::|parallel::|-p bench --lib"
    "tracking --lib combining::|combining::|-p tracking --lib"
)

# Build every binary first, so build time and errors stay out of the runs.
bins=()
for g in "${gates[@]}"; do
    IFS='|' read -r _ _ args <<<"$g"
    # `--color never` keeps the status lines parseable under a forced
    # CARGO_TERM_COLOR.
    # shellcheck disable=SC2086 # $args is a word list on purpose
    if ! cargo test --locked --no-run --color never $args >"$tmp/build.log" 2>&1; then
        cat "$tmp/build.log" >&2
        echo "FAIL: cargo test --no-run $args" >&2
        exit 2
    fi
    bin=$(sed -n 's/^ *Executable .*(\(.*\))$/\1/p' "$tmp/build.log")
    if [ -z "$bin" ] || [ "$(wc -l <<<"$bin")" -ne 1 ]; then
        echo "FAIL: cargo test $args names no single test binary" >&2
        exit 2
    fi
    bins+=("$bin")
done

misses=0
for k in "${!gates[@]}"; do
    IFS='|' read -r label filter _ <<<"${gates[$k]}"
    bin=${bins[$k]}
    bad=0
    for i in $(seq "$n"); do
        pids=()
        for copy in 1 2; do
            timeout "$limit" "$bin" ${filter:+"$filter"} --test-threads=4 -q \
                >"$tmp/$copy.log" 2>&1 &
            pids+=($!)
        done
        for copy in 1 2; do
            rc=0
            wait "${pids[$((copy - 1))]}" || rc=$?
            if [ "$rc" -ne 0 ]; then
                bad=$((bad + 1))
                if [ "$rc" -eq 124 ]; then
                    echo "HANG: $label (run $i, copy $copy) passed the ${limit} s limit"
                else
                    echo "MISS: $label (run $i, copy $copy) exited $rc:"
                    grep -E 'panicked|FAILED|failed' "$tmp/$copy.log" | head -n 20 || true
                fi
            fi
        done
    done
    echo "$label: $bad of $((2 * n)) runs failed"
    misses=$((misses + bad))
done
if [ "$misses" -ne 0 ]; then
    echo "flake gate FAILED: $misses failed or hung runs" >&2
    exit 1
fi
echo "flake gate passed: every binary clean in $((2 * n)) runs"
