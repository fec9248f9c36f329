#!/usr/bin/env bash
# benchguard.sh — the benchmark-trajectory gate: diffs the newest
# committed BENCH_<tag>.json against the newest earlier report from the
# same host and fails on any >10% ns/op regression (or a zero-alloc
# benchmark starting to allocate, or a dropped benchmark) in the
# reports' shared set. A report with no earlier same-host report is
# the new baseline for its host; a same-host pair measured under
# different GOMAXPROCS or bench times is refused rather than compared.
#
# Usage: scripts/benchguard.sh [-threshold X] [-allow-new spec] [report.json ...]
# Leading flags are forwarded to cmd/benchguard (e.g. -allow-new for
# intentionally renamed or retired benchmarks). With no file arguments
# the git-tracked BENCH_*.json reports are considered (ordered by
# embedded run timestamp), so stray local bench runs in the working
# tree never hijack the gate; outside a git checkout it falls back to
# globbing the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

flags=()
files=()
while [ "$#" -gt 0 ]; do
    case "$1" in
    -threshold|-allow-new|-dir|--threshold|--allow-new|--dir)
        if [ "$#" -lt 2 ]; then
            echo "benchguard.sh: flag $1 requires a value" >&2
            exit 2
        fi
        flags+=("$1" "$2")
        shift 2
        ;;
    -*)
        flags+=("$1")
        shift
        ;;
    *)
        files+=("$1")
        shift
        ;;
    esac
done

if [ "${#files[@]}" -gt 0 ]; then
    exec go run ./cmd/benchguard "${flags[@]}" "${files[@]}"
fi

tracked=()
if command -v git >/dev/null 2>&1 && git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    while IFS= read -r f; do
        tracked+=("$f")
    done < <(git ls-files 'BENCH_*.json')
    # Reports staged in this checkout but not yet committed still count:
    # ls-files covers the index, which is exactly "what the PR ships".
fi
if [ "${#tracked[@]}" -gt 0 ]; then
    exec go run ./cmd/benchguard "${flags[@]}" "${tracked[@]}"
fi
exec go run ./cmd/benchguard "${flags[@]}"
