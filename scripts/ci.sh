#!/usr/bin/env bash
# ci.sh — the repository's tier-1 gate: formatting, vet (plus
# staticcheck when available), the unreferenced-declaration check
# (TestProductionCodeReferenced), build, tests (which include the
# golden-vector, zero-allocation, batch-vs-oracle bit-exactness and
# fuzz-seed gates), an explicit fuzz-seed pass, one iteration of every
# root benchmark, a race-detector pass over the concurrent paths, the
# benchmark-trajectory guard over the committed BENCH_<tag>.json
# reports, and the docs gate (route-coverage
# test, markdown link check, short-mode service soak), plus vet,
# self-tests and short output-checked runs of the nsbench benchmark
# module.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...
# Explicit assembly-declaration gate: the dsp package's AVX2 kernels
# must keep their Go prototypes, frame sizes and argument offsets in
# sync with the .s bodies (a mismatch is silent corruption, not a build
# error). Plain `go vet` includes asmdecl, but the dedicated pass keeps
# the gate visible and scoped even if the default analyzer set changes.
go vet -asmdecl ./internal/dsp

echo "== unreferenced declarations =="
# Production packages hold production code: every package-level func,
# method, type, var and const in non-test code, nsbench's included, must
# be referenced by non-test code (refcheck_test.go type-checks the host
# build with go/types; a short allowlist there names the test each
# exempt declaration serves). Its own step, right after vet, so a
# failing run lists the declarations first.
go test -count=1 -run '^TestProductionCodeReferenced$' .

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping (tier-1 still gates on vet+tests)" >&2
fi

echo "== go build =="
go build ./...

echo "== go test =="
# -count=1 defeats the test cache so every CI run re-executes; -shuffle
# randomizes test order to surface inter-test state leaks.
go test -count=1 -shuffle=on ./...

echo "== zero-alloc rounds, repeated =="
# The round's zero-allocation gates at GOMAXPROCS 1 and 2 (k = 1, 2 and
# soft k = 2 and 4), twenty times over: a fan-out that brings back a
# per-call allocation — a goroutine started per call allocates a
# descriptor only now and then — fails here every time instead of one
# run in a few. About 11 s on a 2-vCPU host.
go test -count=20 -run 'SteadyStateZeroAlloc' ./internal/sim

echo "== fuzz seed corpus =="
# Runs every Fuzz* target over its committed seeds (no exploration):
# synthesizer phase continuity, interleaved-chain stride continuity
# (chain path vs serial recurrence), cyclic-shift identity, decoder
# round-trip, the cross-AP aggregator's never-drop/never-double
# invariants, the pruned transform's plan bins (FuzzPrunedTransform:
# window-planned cascade vs full transform), the grouped ghost
# rejection (FuzzRejectGhosts: vs the all-pairs loop), the fused
# receive accumulate (FuzzFusedAccumulate: scheduled frame runs vs
# per-frame range accumulation), the lane noise fill
# (FuzzNormBatchLanes: one to four streams of any lengths vs sequential
# NormFloat64), the campaign spec parser (FuzzLoadSpec: never panics,
# accepted specs round-trip to the same digest and grid) and the
# checkpoint reopen path (FuzzCheckpointReopen: never panics, resumes
# only under the spec's header, truncates to a line prefix, appends
# round-trip) and the service's request bodies (FuzzDecodeBody: create,
# step and config bodies never panic, are refused with 400 or 413 or
# round-trip to the same value).
go test -count=1 -run 'Fuzz' ./internal/synth ./internal/core ./internal/sim ./internal/dsp ./internal/campaign ./internal/serve

echo "== benchmarks: one iteration each =="
# Every root benchmark once: the internal/benchsuite wrappers, the
# experiment benchmarks and the ablations. A wrapper naming a missing
# case, or a benchmark that no longer runs, fails here rather than in
# the next perf run.
go test -count=1 -run '^$' -bench . -benchtime 1x .

echo "== race: concurrent paths =="
# The sim round path (one-AP and k-AP networks, including networks
# built concurrently over one shared deployment), the decoder's pooled
# symbol batches (the batch-vs-oracle bit-exactness sweeps, at
# GOMAXPROCS 1 to 7 in the TestDecodeFrameParallel* tests), the
# materialized-waveform channel (parallel chunked synthesis with its
# tile-grid noise, GOMAXPROCS ∈ {1,2,4} bit-exactness sweep), the
# multi-AP fan-out (template fan-out, shared-template per-AP scaling,
# one item per AP filling its tiles and noise groups and decoding it —
# with its own GOMAXPROCS and serial-reference sweeps at k ∈ {1,2,3,4},
# k = 3 also with soft combining and with APs dropped), the adversarial
# trajectory runner (oracle bit-identity, churn/dropout recovery
# accounting, the
# full-adversity GOMAXPROCS sweep), the soft cross-AP combining path
# (emit arenas filled by pool workers, serial bin-wise sum, its own
# GOMAXPROCS sweep) and the stream/noise kernels, all under the race
# detector. The MatchesScalar|ZeroAlloc|SIMDMatches names pull in the
# per-kernel scalar-vs-vector bit-exactness gates (axpy/scale, fused
# noise add, dechirp, window-power scan, interleaved synthesis chains,
# ziggurat batch fill, the FFT front pass in TestFrontPassMatchesScalar)
# so the vector dispatch seams also run raced; the
# BinPlan|Pruned|StageKernels|WindowedSum names pull in the window-plan
# gates (plan construction and its per-stride group runs, the pruned
# cascade vs full transform, the stage kernels' partial runs and
# sub-block walks, the windowed soft-combining sum).
# The Scratch names pull in the scratch-loan gates (the dsp free list's
# own tests, decodes over NaN-poisoned scratch, bounded retention across
# 32 decoders), and Concurrent in ./internal/chirp drives one
# demodulator's batch calls from four goroutines at once. The
# AxpyMulti|Fused|Schedule names pull in the fused receive: the
# multi-source accumulate kernel against sequential AxpyInto on both
# bodies, the fused accumulate against per-frame accumulation in
# ./internal/synth, and the round's fused receive against the closure
# path in ./internal/sim. Tiled pulls in the interference-burst tile
# gate (TestBurstTiledBitIdentical) and the channel's tile-grid noise
# tests. Lanes|BlockEnd pull in the lane noise fill against
# NormFloat64 and AddAWGN (both bodies, rejections and tails on a
# block's last word), Panic the pool's re-raising of a helper's panic
# on the caller, and Nested the pool's nested calls sharing one token
# budget. The Fig. 17 sweep builds its one-AP networks
# concurrently over one deployment, so TestFig17Shape fails here if
# that deployment is left unplaced before the fan-out. The public
# facade steps the same pooled engine, so its TestNetwork* tests (the
# GOMAXPROCS 1/2/4 sweep of TestNetworkRunAcrossGOMAXPROCS among them)
# run raced too.
go test -race -count=1 -run 'Concurrent|Parallel|Race|Mixed|Tiled|Stream|MultiAP|MultiChannel|Trajectory|Churn|Dropout|Soft|Emit|Fair|Accumulator|MatchesScalar|ZeroAlloc|SIMDMatches|BinPlan|Pruned|StageKernels|WindowedSum|Scratch|AxpyMulti|Fused|Schedule|Lanes|BlockEnd|Panic|Nested' ./internal/sim ./internal/core ./internal/air ./internal/pool ./internal/dsp ./internal/radio ./internal/chirp ./internal/synth
go test -race -count=1 -run 'TestFig17Shape' ./internal/exper
go test -race -count=1 -run '^TestNetwork' .

echo "== campaign: unit + resume + race =="
# The declarative campaign runner: spec expansion, shard-order
# independence (artifacts byte-identical at any worker count), the
# kill/resume gate (truncated checkpoint resumes to a byte-identical
# artifact), and the remote (netscatter-serve) executor equivalence —
# all again under the race detector, which exercises the sharded
# worker pool and the checkpoint journal serialization.
go test -race -count=1 ./internal/campaign

echo "== serve: race + short soak =="
# The multi-tenant service under the race detector (endpoints, stream
# fan-out, fair scheduling), plus the reduced-fleet soak: steady round
# throughput and a flat heap across waves.
go test -race -count=1 -short ./internal/serve

echo "== nsbench: vet + self-tests =="
# The benchmark is a module of its own (go.mod there replaces the
# repository module with ../), so the steps above do not build it. It
# has no external dependencies and builds offline; vetting it here makes
# a signature change that breaks the benchmark fail CI, not the
# benchmark run.
(cd nsbench && go vet ./... && go test -count=1 ./...)

echo "== nsbench: output checks =="
# A one-second run of each round workload holds its decode totals to
# nsbench/reference.json, so a change that keeps speed but moves decode
# bits fails here and not only in a later benchmark run. The last line
# must report "correct":true, and the reference check must be exact.
for w in dense-256 soft-16x4; do
    out=$(bash nsbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0)
    last=$(printf '%s\n' "$out" | tail -n 1)
    if [[ "$last" != *'"correct":true'* ]]; then
        echo "nsbench $w: output checks failed: $last" >&2
        exit 1
    fi
    if ! printf '%s\n' "$out" | grep -q '"name":"reference","ok":true,"exact":true'; then
        echo "nsbench $w: reference check is not exact:" >&2
        printf '%s\n' "$out" | grep '"nsbench_report"' >&2
        exit 1
    fi
    echo "nsbench $w: correct, reference exact"
done

echo "== benchguard: perf trajectory =="
# Diffs the newest committed report with the newest earlier report from
# the same host (GOOS, GOARCH, CPU model and count); a report from a new
# host passes as that host's baseline.
scripts/benchguard.sh

echo "== docs =="
# Route coverage: every registered endpoint documented in docs/API.md
# and vice versa.
go test -count=1 -run 'TestRoutesDocumented' ./internal/serve
# Link check: every relative markdown link in the top-level and docs/
# references must resolve to a real file.
scripts/linkcheck.sh
# Campaign smoke: the worked spec example documented in docs/API.md
# must load and expand, and a short-mode campaign pass (grid run,
# checkpoint resume) must stay green.
go run ./cmd/netscatter-campaign -spec examples/campaign/office.json -expand >/dev/null
go test -count=1 -short -run 'TestShardOrderIndependence|TestResume' ./internal/campaign

echo "ci.sh: all green"
