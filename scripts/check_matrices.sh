#!/usr/bin/env bash
# Regenerates every committed CSV under results/{crashsweep,explore} and diffs
# each one against the committed file.
#
#   scripts/check_matrices.sh [BIN_DIR]
#
# BIN_DIR holds prebuilt `crashsweep` and `explore` binaries; without it the
# script builds them in release mode. Each command below writes into its own
# temporary directory. A later command replaces the files an earlier one
# wrote (the default-flag runs also write hashmap and churn_palloc files that
# the dedicated commands own); `--only FILE` keeps just that one file of a
# command's output. Exits non-zero if any committed file is missing from the
# regenerated set or differs from it.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
bin=${1:-}
if [ -z "$bin" ]; then
    cargo build --release --locked --quiet --manifest-path "$root/Cargo.toml" \
        -p bench --bin crashsweep --bin explore
    bin=$root/target/release
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
n=0

# gen RESULTS_DIR TOOL [--only FILE] ARGS...
gen() {
    local dir=$1 tool=$2 only=''
    shift 2
    if [ "${1:-}" = --only ]; then
        only=$2
        shift 2
    fi
    n=$((n + 1))
    local out=$tmp/run$n
    if ! "$bin/$tool" "$@" --out "$out" >"$out.log" 2>&1; then
        cat "$out.log"
        echo "FAIL: $tool $* exited non-zero" >&2
        exit 1
    fi
    mkdir -p "$tmp/got/$dir"
    if [ -n "$only" ]; then
        cp "$out/$only" "$tmp/got/$dir/"
    else
        cp "$out"/*.csv "$tmp/got/$dir/"
    fi
}

# crashsweep
gen crashsweep crashsweep
gen crashsweep crashsweep --churn
gen crashsweep crashsweep --structure hashmap --ops 24
gen crashsweep crashsweep --only churn_hashmap_tracking.csv --structure hashmap --ops 24 --churn
gen crashsweep crashsweep --structure hashmap --ops 24 --multi-crash 1 --adversary seeded
for s in list queue; do
    gen crashsweep crashsweep --structure $s --algo tracking --multi-crash 2 --adversary seeded
done
gen crashsweep crashsweep --structure list --algo tracking --churn --multi-crash 2 \
    --adversary seeded --sample 0.5 --ops 10

# explore
gen explore explore
gen explore explore --threads 3 --ops 3 --schedules 3
for pair in list:tracking list:romulus bst:all exchanger:all; do
    gen explore explore --threads 4 --structure "${pair%:*}" --algo "${pair#*:}"
done
gen explore explore --structure hashmap --ops 12
gen explore explore --structure hashmap --threads 3 --ops 8 --schedules 3

failed=0
checked=0
for dir in crashsweep explore; do
    for want in "$root/results/$dir"/*.csv; do
        name=$(basename "$want")
        got=$tmp/got/$dir/$name
        checked=$((checked + 1))
        if [ ! -f "$got" ]; then
            echo "MISSING: results/$dir/$name was not regenerated"
            failed=1
        elif ! cmp -s "$want" "$got"; then
            echo "DIFFERS: results/$dir/$name"
            diff "$want" "$got" | head -n 10 || true
            failed=1
        fi
    done
done

if [ $failed -ne 0 ]; then
    echo "matrix check FAILED ($checked committed CSVs checked)" >&2
    exit 1
fi
echo "matrix check passed: $checked committed CSVs regenerate byte-identical"
