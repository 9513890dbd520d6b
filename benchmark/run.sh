#!/usr/bin/env bash
# Run all four workloads untraced, then traced, for each given seed, and
# append one report per run to a result set (JSON lines) that
# `sapla-benchmark compare` reads.
#
#   benchmark/run.sh <result-set.jsonl> <seed> [<seed> ...]
#
# TRACES="0" or TRACES="1" runs only the untraced or only the traced
# half: the committed sets under baseline/ hold ten seeds untraced and
# two traced.
set -euo pipefail

if [ "$#" -lt 2 ]; then
    echo "usage: $0 <result-set.jsonl> <seed> [<seed> ...]" >&2
    exit 2
fi
out=$1
shift
here=$(cd "$(dirname "$0")" && pwd)
commit=$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && [ -n "$(git -C "$here" status --porcelain 2>/dev/null)" ]; then
    commit="$commit+uncommitted"
fi
rustc_version=$(rustc -V)

cargo build --release --offline --manifest-path "$here/Cargo.toml"
for seed in "$@"; do
    for trace in ${TRACES:-0 1}; do
        for workload in short-wide long-narrow sharded-batch reload-under-load; do
            cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- run \
                --workload "$workload" --seed "$seed" --trace "$trace" \
                --report "$out" --commit "$commit" --rustc "$rustc_version" >/dev/null
        done
    done
done
