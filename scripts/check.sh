#!/bin/sh
# Tier-1 verification for the repo (see ROADMAP.md): build, vet, the
# fssga-vet model-contract and hot-path analyzers, full tests under the
# coverage ratchet (among them the determinism checks: a run is a
# function of its seed, and outputs built from maps are sorted), the
# race detector over the execution engine and the algorithm layer — the
# packages with goroutine-parallel rounds and the serial/parallel
# determinism invariant — and over the graph and checkpoint packages (a
# lazily computed, shared topology hash; an unmutated carved graph is
# read concurrently through its snapshot; and the filesystems' mutexes),
# each race step under a 5-minute timeout so a deadlock fails fast, a short
# fuzz of the checkpoint decoder, the chaos and model-checker smoke
# gates, and the end-to-end benchmark's own tests.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== fssga-vet (all 5 analyzers: view purity, global writes, symmetry, finite state, hot-path allocation)"
go run ./cmd/fssga-vet repro/...

echo "== fssga-vet -audit (no stale directives, suppression ratchet)"
go run ./cmd/fssga-vet -audit -ratchet scripts/suppression_ratchet.txt repro/... > /dev/null

echo "== go test -cover ./... (coverage ratchet)"
./scripts/coverage.sh

echo "== perf regression gate (gated headline series vs committed BENCH_engine.json)"
go run ./cmd/fssga-bench -perfgate

echo "== go test -race -cpu 1,2 ./internal/fssga/... (one- and two-core interleavings; the pool workers' ownership of their chunks)"
go test -race -cpu 1,2 -timeout 5m ./internal/fssga/...

echo "== go test -race -cpu 2 -count=10 (the round owner writes the palette and the ids that every pool worker reads; each worker writes its own frontier mark set, which the owner merges after the barrier; the owner meets its helpers at an atomic barrier, panicking or not)"
go test -race -cpu 2 -count=10 -timeout 5m -run '^(TestAggDifferential|TestDenseIDsTrackStates|TestFrontierWorkSetIsClosedNeighbourhood|TestParallelFrontierMatchesSerialFrontier|TestParallelFrontierAfterOutOfBandChange|TestParallelFrontierQuiescenceSemantics|TestPoolLifecycle|TestSupervised.*|TestConcurrentRoundsGetDefinedError|TestDeterminismAcrossWorkerCountsWithFaults)$' ./internal/fssga/

echo "== go test -race -cpu 1,2 ./internal/algo/..."
go test -race -cpu 1,2 -timeout 5m ./internal/algo/...

echo "== go test -race -cpu 1,2 ./internal/chaos/... ./internal/faults/..."
go test -race -cpu 1,2 -timeout 5m ./internal/chaos/... ./internal/faults/...

echo "== go test -race -cpu 1,2 ./internal/graph/... ./internal/checkpoint/... (the memoized topology hash; an unmutated carved graph is read concurrently through its snapshot; the filesystems' mutexes)"
go test -race -cpu 1,2 -timeout 5m ./internal/graph/... ./internal/checkpoint/...

echo "== checkpoint decoder fuzz (10 s)"
go test -run '^$' -fuzz FuzzCheckpointDecode -fuzztime 10s ./internal/checkpoint/

echo "== end-to-end benchmark tests (cmd/fssga-e2e is its own module; offline, with run.sh's environment)"
(
	out="$(pwd)/.bench_build"
	mkdir -p "$out/gocache" "$out/tmp" "$out/config"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
	cd cmd/fssga-e2e && go test .
)

echo "== chaos smoke campaign"
go run ./cmd/fssga-chaos -smoke -out "$(mktemp -d)"

echo "== crash-recovery soak (checkpoint durability)"
go run ./cmd/fssga-chaos -crash

echo "== model checker smoke"
go run ./cmd/fssga-mc -smoke -out "$(mktemp -d)"

echo "OK"
