#!/usr/bin/env bash
# Produce a set of N untraced runs of every workload, one file per run,
# for `run.sh --compare`.
#
#   benchmark/repeat.sh N [OUT_DIR] [SECONDS] [FIRST_SEED]
#
# Run i of a workload uses seed FIRST_SEED + i. Workloads are interleaved
# (all workloads once, then all again) so that a slow minute of the
# machine is spread over every workload instead of landing on one.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:?usage: repeat.sh N [OUT_DIR] [SECONDS] [FIRST_SEED]}"
out="${2:-$here/out/runs-$(date +%Y%m%d-%H%M%S)}"
seconds="${3:-20}"
first="${4:-1}"
mkdir -p "$out"
for i in $(seq 0 $((n - 1))); do
    for w in tree_10k td_2500 bundle_churn_600 service_256; do
        "$here/run.sh" --workload "$w" --seed $((first + i)) --seconds "$seconds" --trace 0 \
            > "$out/$w.$i.out"
        tail -n 1 "$out/$w.$i.out" | cut -c1-160 >&2
    done
done
echo "$out"
