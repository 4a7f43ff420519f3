GO ?= go

.PHONY: check build test cover lint audit contracts race chaos-race chaos-smoke crash-soak mc-smoke bench perf bench-perf bench-hub perf-gate

# Tier-1 verify path (ROADMAP.md): gofmt + build + vet + tests + race.
check:
	./scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full test suite with statement coverage, checked against the
# per-package floors in scripts/coverage_ratchet.txt.
cover:
	./scripts/coverage.sh

# Determinism, symmetry, model-contract, hot-path and concurrency
# static analyzers (internal/analysis) via the fssga-vet multichecker:
# detrand, maporder, viewpure, seedplumb, globalwrite, symcontract,
# finstate, capinfer, hotalloc, shardsafe, goroleak, chanprotocol,
# lockorder, atomicmix. Exit 1 on any finding not carrying an audited
# //fssga:nondet, //fssga:alloc or //fssga:conc directive.
lint:
	$(GO) run ./cmd/fssga-vet repro/...
	$(GO) run ./cmd/fssga-vet -audit -ratchet scripts/suppression_ratchet.txt repro/... > /dev/null

# Inventory the //fssga:nondet, //fssga:alloc and //fssga:conc
# suppression directives with the analyzers each one absorbs; exit 1 if
# any directive is stale
# or a per-analyzer count exceeds its scripts/suppression_ratchet.txt
# ceiling.
audit:
	$(GO) run ./cmd/fssga-vet -audit -ratchet scripts/suppression_ratchet.txt repro/...

# Statically inferred mod-thresh observation footprints (Theorem 3.7
# normal form), cross-checked dynamically in internal/mc witness tests.
contracts:
	$(GO) run ./cmd/fssga-vet -contracts -json repro/internal/...

# Race detector over the engine and algorithm layers — the packages with
# goroutine-parallel rounds and per-worker scratch — and over the graph
# and checkpoint packages, which share a lazily computed topology hash,
# on one and two cores.
race:
	$(GO) test -race -cpu 1,2 ./internal/fssga/... ./internal/algo/...
	$(GO) test -race -cpu 1,2 ./internal/graph/... ./internal/checkpoint/...

# Race detector over the adversarial harness and fault layer (the chaos
# runner drives goroutine-parallel rounds through the pre-round hook), on
# one and two cores.
chaos-race:
	$(GO) test -race -cpu 1,2 ./internal/chaos/... ./internal/faults/...

# The CI chaos gate: seeded adversarial campaign with sensitivity-derived
# expectations; non-zero exit + artifact on any unexpected outcome. Runs
# in seconds, inside the tier-1 time budget.
chaos-smoke:
	$(GO) run ./cmd/fssga-chaos -smoke -out $(shell mktemp -d)

# The CI durability gate: crash the checkpointing soak at every
# filesystem write unit, reboot, and require bit-identical resumption or
# a loud checksum refusal — plus a bit-flip corruption pass. Seconds.
crash-soak:
	$(GO) run ./cmd/fssga-chaos -crash

# The CI model-checking gate: exhaustive Theorem 3.7 sweep at the smoke
# bound plus interleaving exploration of the deterministic algorithm /
# topology pairs. Seconds, inside the tier-1 time budget.
mc-smoke:
	$(GO) run ./cmd/fssga-mc -smoke -out $(shell mktemp -d)

bench:
	$(GO) test -bench . -benchmem -run xxx .

# Engine perf series (ns/op + allocs/op) recorded to BENCH_engine.json,
# with the headline subset appended to BENCH_trajectory.json. Serial
# series are pinned to GOMAXPROCS=1; parallel series run at NumCPU.
bench-perf:
	$(GO) run ./cmd/fssga-bench -perf -out BENCH_engine.json -trajectory BENCH_trajectory.json

perf: bench-perf

# Hub-round series only: steady-state frontier rounds on heavy-hub
# topologies, linear view scans vs divide-and-conquer tree aggregation,
# with the linear/agg speedups printed. The fast iteration loop for the
# aggregation subsystem; writes no JSON artifacts.
bench-hub:
	$(GO) run ./cmd/fssga-bench -hub

# The check.sh bench regression gate, standalone: re-measure the gated
# headline series and fail if any is >1.6x slower than the committed report.
perf-gate:
	$(GO) run ./cmd/fssga-bench -perfgate
