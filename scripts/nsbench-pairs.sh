#!/usr/bin/env bash
# nsbench-pairs.sh — alternating parent/change runs of the repository
# benchmark, summarized into a JSON file that a change commits.
#
# Usage:
#
#   bash scripts/nsbench-pairs.sh --parent REV --workload soft-16x4 \
#       [--seed 1] [--pairs 10] [--seconds 20] [--out NSBENCH.json] [--save DIR]
#
# The checkout's working tree is the change. REV's committed files are
# exported with `git archive` into a temporary directory, removed on
# exit: the parent is measured from exactly its committed files, and an
# interrupted run leaves nothing registered in the repository. Each
# pair runs `bash nsbench/run.sh --workload W --seed S --seconds T
# --trace 0` in both trees, one after the other — the parent first in
# odd pairs, the change first in even ones, so drift over the session
# does not favour one side. Every run's output is kept as parent-NN.txt
# and change-NN.txt in --save (default .bench_build/pairs/W-seedS,
# which git ignores; runs left there by an earlier call are removed
# first). A failing run stops the script. The summary — per end-to-end
# metric of BENCHMARK.json, both medians and quartiles and the change's
# wins, plus failed counts, correctness and environment stamps — is
# written by cmd/nsbench-pairs into --out (default NSBENCH.json),
# replacing an earlier summary of the same workload and seed. Like
# `nsbench compare`, the summary refuses runs from mixed environments.
# The runs are timing measurements: keep the host otherwise idle.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

parent="" workload="" seed=1 pairs=10 seconds=20 out=NSBENCH.json save=""
while [ "$#" -gt 0 ]; do
    if [ "$#" -lt 2 ]; then
        echo "nsbench-pairs.sh: flag $1 requires a value" >&2
        exit 2
    fi
    case "$1" in
    --parent) parent=$2 ;;
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    --out) out=$2 ;;
    --save) save=$2 ;;
    *)
        echo "nsbench-pairs.sh: unknown flag $1" >&2
        exit 2
        ;;
    esac
    shift 2
done
if [ -z "$parent" ] || [ -z "$workload" ] || ! [ "$pairs" -ge 1 ] 2>/dev/null; then
    echo "usage: nsbench-pairs.sh --parent REV --workload W [--seed S] [--pairs N] [--seconds T] [--out FILE] [--save DIR]" >&2
    exit 2
fi

parent_label=$(git rev-parse --short "$parent^{commit}")
change_label=$(git describe --always --dirty)
save=${save:-.bench_build/pairs/$workload-seed$seed}
mkdir -p "$save"
rm -f "$save"/parent-*.txt "$save"/change-*.txt

tmp=$(mktemp -d "${TMPDIR:-/tmp}/nsbench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
git archive "$parent" | tar -x -C "$tmp"

for i in $(seq 1 "$pairs"); do
    nn=$(printf %02d "$i")
    order="parent change"
    if [ $((i % 2)) -eq 0 ]; then
        order="change parent"
    fi
    for side in $order; do
        tree=$root
        if [ "$side" = parent ]; then
            tree=$tmp
        fi
        echo "nsbench-pairs.sh: pair $nn/$pairs, $side ($workload seed $seed, ${seconds}s)" >&2
        (cd "$tree" && bash nsbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) >"$save/$side-$nn.txt"
    done
done

go run ./cmd/nsbench-pairs -benchmark BENCHMARK.json -parent "$parent_label" -change "$change_label" -o "$out" "$save"
