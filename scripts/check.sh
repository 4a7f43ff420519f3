#!/bin/sh
# Tier-1 verification for the repo (see ROADMAP.md): build, vet, the
# fssga-vet determinism/symmetry analyzers, full tests under the
# coverage ratchet, the race detector over the execution engine and the
# algorithm layer — the packages with goroutine-parallel rounds and the
# serial/parallel determinism invariant — and over the graph and
# checkpoint packages (a lazily computed, shared topology hash), the
# chaos and model-checker smoke gates, and the end-to-end benchmark's
# own tests.
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

echo "== fssga-vet (determinism, symmetry, model-contract & hot-path analyzers)"
go run ./cmd/fssga-vet repro/...

echo "== fssga-vet self-check (the analyzers pass their own code)"
go run ./cmd/fssga-vet repro/internal/analysis/... repro/cmd/fssga-vet

echo "== fssga-vet hot-path gate (-json envelope, hotalloc + shardsafe)"
go run ./cmd/fssga-vet -json -analyzers hotalloc,shardsafe repro/... > /dev/null

echo "== fssga-vet concurrency gate (goroleak, chanprotocol, lockorder, atomicmix)"
go run ./cmd/fssga-vet -json -analyzers goroleak,chanprotocol,lockorder,atomicmix repro/... > /dev/null

echo "== fssga-vet -audit (no stale directives, suppression ratchet)"
go run ./cmd/fssga-vet -audit -ratchet scripts/suppression_ratchet.txt repro/... > /dev/null

echo "== go test -cover ./... (coverage ratchet)"
./scripts/coverage.sh

echo "== perf regression gate (gated headline series vs committed BENCH_engine.json)"
go run ./cmd/fssga-bench -perfgate

echo "== aggregation differential suite under race (tree views vs linear scans)"
go test -race -run 'TestAggDifferential' ./internal/fssga/

echo "== go test -race -cpu 1,2 ./internal/fssga/... (one- and two-core interleavings)"
go test -race -cpu 1,2 ./internal/fssga/...

echo "== go test -race -cpu 1,2 ./internal/algo/..."
go test -race -cpu 1,2 ./internal/algo/...

echo "== go test -race -cpu 1,2 ./internal/chaos/... ./internal/faults/..."
go test -race -cpu 1,2 ./internal/chaos/... ./internal/faults/...

echo "== go test -race -cpu 1,2 ./internal/graph/... ./internal/checkpoint/... (the memoized topology hash)"
go test -race -cpu 1,2 ./internal/graph/... ./internal/checkpoint/...

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
