package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/shortestpath"
	"repro/internal/checkpoint"
	"repro/internal/fssga"
	"repro/internal/graph"
)

// The -perf suite measures the execution engine itself — synchronous-round
// throughput and allocation behaviour across view lookups (dense slot
// vectors vs maps), worker counts on the sharded
// pool, and the frontier round modes — and writes the series to a
// BENCH_*.json report plus a headline subset appended to the trajectory
// file, so the perf history is recorded per PR alongside the experiment
// tables. scripts/check.sh guards the headline series against the
// committed report via -perfgate.

// perfResult is one measured series point. GOMAXPROCS is recorded per
// result, not per file: serial series are pinned to one proc while
// parallel series run at the machine's real CPU count, and a report that
// claimed a single file-level value would misdescribe one or the other.
type perfResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	Gomaxprocs  int     `json:"gomaxprocs"`
}

// perfReport is the BENCH_*.json schema, version 2: GOMAXPROCS moved
// from the file level into each result; NumCPU records the machine.
type perfReport struct {
	Schema    string       `json:"schema"`
	Generated string       `json:"generated"`
	GoVersion string       `json:"go_version"`
	NumCPU    int          `json:"num_cpu"`
	Seed      int64        `json:"seed"`
	Results   []perfResult `json:"results"`
}

const perfSchema = "fssga-bench/perf/v2"

// headlineSeries is the general-engine series the -perfgate regression
// gate re-measures and compares against the committed report.
const headlineSeries = "SyncRound/lattice/dense/n=2048"

// hubGateSeries is the aggregation-path series the gate guards alongside
// headlineSeries: steady-state frontier rounds on the 65536-node star
// with the divide-and-conquer hub trees engaged. A regression here means
// the incremental O(log deg) path degraded back toward the linear scan.
const hubGateSeries = "HubRound/star/agg/n=65536"

// trajectoryHeadline is the subset of series names recorded per -perf
// run in the trajectory file: the gate's guarded serial series, the
// parallel scaling endpoints, the million-node runs, and the hub-round
// linear-vs-aggregated pair.
var trajectoryHeadline = []string{
	headlineSeries,
	"SyncRoundParallel/lattice/dense/n=65536/w=1",
	"SyncRoundParallel/lattice/dense/n=65536/w=8",
	"SyncRound/lattice/dense/n=1048576",
	"SyncRoundParallel/lattice/dense/n=1048576/w=8",
	"Checkpoint/write/full/n=1048576",
	"Checkpoint/restore/delta/n=1048576",
	"HubRound/star/linear/n=65536",
	hubGateSeries,
	"HubRound/plaw/agg/n=1048576",
}

// measureFunc runs one benchmark body; testing.Benchmark in production,
// a fake in tests so the suite's plumbing is testable in milliseconds.
type measureFunc func(fn func(b *testing.B)) testing.BenchmarkResult

// lattice is the perf suite's reference dense automaton: max-diffusion
// over states 0..K-1, implemented with closure-free observations so the
// hot path is purely view construction plus O(K) capped lookups.
type lattice struct{ k int }

func (l lattice) NumStates() int       { return l.k }
func (l lattice) StateIndex(s int) int { return s }
func (l lattice) Step(self int, view *fssga.View[int], rnd *rand.Rand) int {
	for q := l.k - 1; q > self; q-- {
		if view.AnyState(q) {
			//fssga:nondet q walks the fixed range (self, k) downward; it is bounded by the automaton's state count, not by state arithmetic
			return q
		}
	}
	return self
}

// SaturationFootprint implements fssga.SaturatingAutomaton: Step reads
// only AnyState presence, the (1, 1) footprint. Declaring it keeps the
// headline lattice series exercising the aggregation seam on topologies
// with no hubs, so the -perfgate continuously prices the seam at zero.
func (l lattice) SaturationFootprint() (int, int) { return 1, 1 }

const latticeK = 16

// latticeNet builds the lattice-diffusion network for the G(n, p) series.
// The graph seed is derived from (seed, n) alone — not from a shared
// stream consumed by earlier series — so the -perfgate re-measurement
// reconstructs the exact headline workload without running the rest of
// the suite.
func latticeNet(seed int64, n int) *fssga.Network[int] {
	rng := rand.New(rand.NewSource(seed + int64(n)))
	g := graph.RandomConnectedGNP(n, 8.0/float64(n), rng)
	return fssga.New[int](g, lattice{latticeK}, func(v int) int { return v % latticeK }, seed)
}

func benchRound[S comparable](net *fssga.Network[S]) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		net.SyncRound() // warm up scratch outside the measured region
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.SyncRound()
		}
	}
}

func benchRoundParallel[S comparable](net *fssga.Network[S], workers int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		net.SyncRoundParallel(workers) // warm up scratch and the pool
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.SyncRoundParallel(workers)
		}
	}
}

func benchFrontierRound[S comparable](net *fssga.Network[S]) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		net.SyncRoundFrontier() // warm up scratch outside the measured region
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.SyncRoundFrontier()
		}
	}
}

// The HubRound series measure the steady-state cost the view-aggregation
// subsystem exists to remove: a handful of churning neighbours forcing a
// high-degree node to rebuild its view every round. The blinker automaton
// models exactly that regime — togglers flip 0<->1 forever, watchers
// (the hubs) hold state 2 while any toggler is present and absorb to 3
// otherwise, everyone else is inert — so after a short warm-up the
// frontier is just the togglers plus the hubs they touch, and each
// measured round is one view rebuild per live hub: a full degree-scan on
// the linear path, an O(log deg) tree patch on the aggregated one.
const (
	blinkOff   = 0 // toggler, currently off
	blinkOn    = 1 // toggler, currently on
	blinkWatch = 2 // high-degree watcher, holding while togglers blink
	blinkDone  = 3 // absorbing inert state
)

type blinker struct{}

func (blinker) NumStates() int       { return 4 }
func (blinker) StateIndex(s int) int { return s }

// SaturationFootprint implements fssga.SaturatingAutomaton: Step reads
// only AnyState presence, the (1, 1) footprint.
func (blinker) SaturationFootprint() (int, int) { return 1, 1 }

func (blinker) Step(self int, view *fssga.View[int], rnd *rand.Rand) int {
	switch self {
	case blinkOff:
		return blinkOn
	case blinkOn:
		return blinkOff
	case blinkWatch:
		if view.AnyState(blinkOff) || view.AnyState(blinkOn) {
			return blinkWatch
		}
		return blinkDone
	default:
		return blinkDone
	}
}

// hubTogglers is the steady-state churn width: how many of the hub's
// neighbours keep flipping per round.
const hubTogglers = 16

// hubPlawBlock and hubPlawEPN pin the power-law block shape for the hub
// series: 16384-node preferential-attachment blocks with four edges per
// node, replicated to reach each target size.
const (
	hubPlawBlock = 16384
	hubPlawEPN   = 4
)

// hubCase is one heavy-hub snapshot the HubRound series sweep; csr is a
// constructor so list literals stay cheap until a case actually runs.
type hubCase struct {
	topo string
	n    int
	csr  func() *graph.CSR
}

func hubCases(seed int64) []hubCase {
	return []hubCase{
		{"star", 65536, func() *graph.CSR { return graph.StarCSR(65536) }},
		{"star", 1048576, func() *graph.CSR { return graph.StarCSR(1048576) }},
		{"plaw", 65536, func() *graph.CSR { return graph.PLawCSR(hubPlawBlock, 4, hubPlawEPN, seed) }},
		{"plaw", 1048576, func() *graph.CSR { return graph.PLawCSR(hubPlawBlock, 64, hubPlawEPN, seed) }},
	}
}

// hubBenchNet builds the blinker network on a heavy-hub snapshot and
// advances it to the steady state the HubRound series measure. Watchers
// are the nodes at or above the default aggregation cutoff; the togglers
// are the first hubTogglers ordinary neighbours of node 0, so node 0 —
// the heaviest hub in both topologies — rebuilds its view every round.
// linear pins the cutoff above any degree so the tree path never
// engages and every rebuild is a full neighbourhood scan.
func hubBenchNet(c *graph.CSR, seed int64, linear bool) *fssga.Network[int] {
	watcher := func(v int) bool { return c.Degree(v) >= fssga.AggDefaultCutoff }
	togglers := make(map[int]bool, hubTogglers)
	for _, u := range c.Neighbors(0) {
		if !watcher(int(u)) {
			togglers[int(u)] = true
			if len(togglers) == hubTogglers {
				break
			}
		}
	}
	init := func(v int) int {
		switch {
		case watcher(v):
			return blinkWatch
		case togglers[v]:
			return blinkOff
		default:
			return blinkDone
		}
	}
	net := fssga.NewFromCSR[int](c, blinker{}, init, seed)
	if linear {
		net.SetAggDegreeCutoff(1 << 30)
	}
	for i := 0; i < 4; i++ {
		net.SyncRoundFrontier() // settle the inert bulk; only the hub ball stays live
	}
	return net
}

// collectHubRounds appends the eight HubRound series through the given
// serial recorder; shared by collectPerf (section 7) and the standalone
// -hub mode.
func collectHubRounds(seed int64, serial func(name string, fn func(b *testing.B))) {
	for _, tc := range hubCases(seed) {
		c := tc.csr()
		for _, mode := range []struct {
			name   string
			linear bool
		}{{"linear", true}, {"agg", false}} {
			net := hubBenchNet(c, seed, mode.linear)
			serial(fmt.Sprintf("HubRound/%s/%s/n=%d", tc.topo, mode.name, tc.n),
				benchFrontierRound(net))
		}
	}
}

// withProcs runs fn at the given GOMAXPROCS and restores the old value.
func withProcs(procs int, fn func()) {
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// collectPerf runs the engine perf suite and returns the series.
// Serial series are pinned to GOMAXPROCS=1; parallel series run at the
// machine's real CPU count (the former file-level GOMAXPROCS made the
// parallel numbers meaningless whenever the caller's setting — one proc
// under the old default — serialised the pool).
func collectPerf(seed int64, measure measureFunc) []perfResult {
	var results []perfResult
	record := func(name string, fn func(b *testing.B)) {
		r := measure(fn)
		results = append(results, perfResult{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
			Gomaxprocs:  runtime.GOMAXPROCS(0),
		})
		fmt.Fprintf(os.Stderr, "%-48s %12.0f ns/op %8d allocs/op %10d B/op  procs=%d\n",
			name, float64(r.NsPerOp()), r.AllocsPerOp(), r.AllocedBytesPerOp(), runtime.GOMAXPROCS(0))
	}
	serial := func(name string, fn func(b *testing.B)) {
		withProcs(1, func() { record(name, fn) })
	}
	parallel := func(name string, fn func(b *testing.B)) {
		withProcs(runtime.NumCPU(), func() { record(name, fn) })
	}

	// 1. Dense vs map view construction on the same workload: one
	// synchronous round of max-diffusion on a sparse G(n, p). The map
	// variant hides the DenseAutomaton methods behind StepFunc.
	for _, n := range []int{512, 2048} {
		serial(fmt.Sprintf("SyncRound/lattice/dense/n=%d", n),
			benchRound(latticeNet(seed, n)))
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g := graph.RandomConnectedGNP(n, 8.0/float64(n), rng)
		init := func(v int) int { return v % latticeK }
		serial(fmt.Sprintf("SyncRound/lattice/map/n=%d", n),
			benchRound(fssga.New[int](g, fssga.StepFunc[int](lattice{latticeK}.Step), init, seed)))
	}

	// 2. Real algorithm rounds. Census engages the dense path only for
	// small sketch configurations; election and BFS are always dense.
	gC := graph.RandomConnectedGNP(512, 0.02, rand.New(rand.NewSource(seed+101)))
	if net, err := census.NewNetwork(gC.Clone(), census.Config{Bits: 4, Sketches: 3, Seed: seed}); err == nil {
		serial("SyncRound/census/dense/bits=4x3/n=512", benchRound(net))
	}
	if net, err := census.NewNetwork(gC.Clone(), census.Config{Bits: 14, Sketches: 8, Seed: seed}); err == nil {
		serial("SyncRound/census/map/bits=14x8/n=512", benchRound(net))
	}
	serial("SyncRound/election/dense/cycle/n=64",
		benchRound(election.New(graph.Cycle(64), seed).Net))
	if net, err := bfs.NewNetwork(graph.Grid(32, 32), 0, []int{1023}, seed); err == nil {
		serial("SyncRound/bfs/dense/grid/n=1024", benchRound(net))
	}

	// 3. Sharded-pool scaling on a 256x256 torus lattice, built straight
	// to CSR. The snapshot is shared across worker counts (it is
	// immutable); each worker count gets its own network so the pool is
	// created at exactly that size.
	init := func(v int) int { return v % latticeK }
	c64k := graph.TorusCSR(256, 256)
	for _, workers := range []int{1, 2, 4, 8} {
		net := fssga.NewFromCSR[int](c64k, lattice{latticeK}, init, seed)
		parallel(fmt.Sprintf("SyncRoundParallel/lattice/dense/n=65536/w=%d", workers),
			benchRoundParallel(net, workers))
	}

	// 4. The million-node lattice: a 1024x1024 torus, streaming-generated
	// CSR (the map-backed graph.Graph is never materialised), serial and
	// at the full worker complement.
	c1m := graph.TorusCSR(1024, 1024)
	netSerial := fssga.NewFromCSR[int](c1m, lattice{latticeK}, init, seed)
	serial("SyncRound/lattice/dense/n=1048576", benchRound(netSerial))
	netPar := fssga.NewFromCSR[int](c1m, lattice{latticeK}, init, seed)
	parallel("SyncRoundParallel/lattice/dense/n=1048576/w=8",
		benchRoundParallel(netPar, 8))

	// 5. Frontier mode on a quiesced diffusion: re-probing a converged
	// shortest-path grid is O(shards) flag scans for the parallel
	// frontier round and O(n) for the serial one, versus a full view
	// rebuild for SyncRound.
	mkQuiesced := func() *fssga.Network[shortestpath.State] {
		net, err := shortestpath.NewNetwork(graph.Grid(48, 48), []int{0}, 2304, seed)
		if err != nil {
			panic(err)
		}
		net.RunSyncUntilQuiescent(1 << 14)
		return net
	}
	qf := mkQuiesced()
	serial("QuiescedRound/shortestpath/frontier/n=2304", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qf.SyncRoundFrontier()
		}
	})
	qp := mkQuiesced()
	parallel("QuiescedRound/shortestpath/parallel-frontier/n=2304/w=4", func(b *testing.B) {
		b.ReportAllocs()
		qp.SyncRoundParallelFrontier(4) // warm up pool + shard metadata
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qp.SyncRoundParallelFrontier(4)
		}
	})
	qs := mkQuiesced()
	serial("QuiescedRound/shortestpath/full/n=2304", benchRound(qs))

	// 6. Checkpoint durability: snapshot-write latency (state capture,
	// envelope encode, write-ahead intent protocol into an in-memory
	// store) and restore latency (verify, decode, delta-chain
	// resolution, state reinstatement), full vs delta, on the same torus
	// lattices as the scaling series. The single-seed wavefront init
	// keeps the post-base dirty set small, so the delta series measure
	// the mode's intended sparse-change regime. All setup happens inside
	// the bodies, behind ResetTimer, so a fake measurer skips it.
	ckptInit := func(v int) int {
		if v == 0 {
			return latticeK - 1
		}
		return 0
	}
	ckptNet := func(c *graph.CSR) *fssga.Network[int] {
		net := fssga.NewFromCSR[int](c, lattice{latticeK}, ckptInit, seed)
		net.SyncRound()
		net.SyncRound()
		return net
	}
	for _, sz := range []struct {
		n int
		c *graph.CSR
	}{{65536, c64k}, {1048576, c1m}} {
		sz := sz
		serial(fmt.Sprintf("Checkpoint/write/full/n=%d", sz.n), func(b *testing.B) {
			b.ReportAllocs()
			net := ckptNet(sz.c)
			mgr := checkpoint.NewManager(net, checkpoint.NewStore(checkpoint.NewMemFS(), 2), checkpoint.Meta{Target: "lattice"})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mgr.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
		serial(fmt.Sprintf("Checkpoint/write/delta/n=%d", sz.n), func(b *testing.B) {
			b.ReportAllocs()
			net := ckptNet(sz.c)
			store := checkpoint.NewStore(checkpoint.NewMemFS(), 0)
			mgr := checkpoint.NewManager(net, store, checkpoint.Meta{Target: "lattice"})
			if err := mgr.Checkpoint(); err != nil { // base at round 2
				b.Fatal(err)
			}
			base := append([]int(nil), net.States()...)
			net.SyncRound() // round 3: a small dirty ball around node 0
			cur := net.States()
			meta := checkpoint.Meta{
				Kind: checkpoint.KindDelta, Round: net.Rounds, Nodes: len(cur),
				Seed: net.Seed(), BaseRound: net.Rounds - 1, Target: "lattice",
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The same per-call work Manager does for a delta:
				// topology hash, dirty-chunk diff, encode, commit.
				meta.TopoHash = net.Topology().ContentHash()
				pay := checkpoint.Payload[int]{Runs: deltaRuns(base, cur), RNGPos: net.RNGPositions()}
				data, err := checkpoint.Encode(meta, pay)
				if err != nil {
					b.Fatal(err)
				}
				if err := store.Write(meta.Round, data); err != nil {
					b.Fatal(err)
				}
			}
		})
		serial(fmt.Sprintf("Checkpoint/restore/full/n=%d", sz.n), func(b *testing.B) {
			b.ReportAllocs()
			net := ckptNet(sz.c)
			store := checkpoint.NewStore(checkpoint.NewMemFS(), 0)
			mgr := checkpoint.NewManager(net, store, checkpoint.Meta{Target: "lattice"})
			if err := mgr.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mgr.Restore(); err != nil {
					b.Fatal(err)
				}
			}
		})
		serial(fmt.Sprintf("Checkpoint/restore/delta/n=%d", sz.n), func(b *testing.B) {
			b.ReportAllocs()
			net := ckptNet(sz.c)
			store := checkpoint.NewStore(checkpoint.NewMemFS(), 0)
			mgr := checkpoint.NewManager(net, store, checkpoint.Meta{Target: "lattice"})
			if err := mgr.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			net.SyncRound()
			if err := mgr.CheckpointDelta(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ { // resolves the delta chain every call
				if _, err := mgr.Restore(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// 7. Hub rounds: steady-state frontier rounds on heavy-hub
	// topologies, linear neighbourhood scan vs divide-and-conquer tree
	// aggregation on the same workload. The star is the worst case (one
	// degree n-1 hub); the replicated power-law graph has a hub per
	// block, only one of which stays live.
	collectHubRounds(seed, serial)

	return results
}

// deltaRuns coalesces the dirty 64-node chunks of cur against base into
// checkpoint runs — the same chunking the checkpoint manager uses.
func deltaRuns(base, cur []int) []checkpoint.Run[int] {
	const chunk = 64
	var runs []checkpoint.Run[int]
	for lo := 0; lo < len(cur); lo += chunk {
		hi := lo + chunk
		if hi > len(cur) {
			hi = len(cur)
		}
		dirty := false
		for i := lo; i < hi; i++ {
			if base[i] != cur[i] {
				dirty = true
				break
			}
		}
		if dirty {
			runs = append(runs, checkpoint.Run[int]{Lo: lo, States: cur[lo:hi]})
		}
	}
	return runs
}

// runPerf executes the engine perf suite, writes the JSON report to
// outPath, and appends the headline subset to the trajectory file (if
// trajPath is non-empty).
func runPerf(seed int64, outPath, trajPath string, measure measureFunc) error {
	report := perfReport{
		Schema:    perfSchema,
		Generated: benchTimestamp(),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Seed:      seed,
		Results:   collectPerf(seed, measure),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fssga-bench: wrote %d series to %s\n", len(report.Results), outPath)
	if trajPath != "" {
		if err := appendTrajectory(trajPath, report); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fssga-bench: appended headline to %s\n", trajPath)
	}
	return nil
}

// trajectoryEntry is one -perf run's headline subset.
type trajectoryEntry struct {
	Generated string             `json:"generated"`
	GoVersion string             `json:"go_version"`
	NumCPU    int                `json:"num_cpu"`
	Seed      int64              `json:"seed"`
	Headline  map[string]float64 `json:"headline_ns_per_op"`
}

// trajectoryFile is the BENCH_trajectory.json schema: one entry appended
// per `make bench-perf`, oldest first, so the headline series' history
// across PRs is a single committed artifact.
type trajectoryFile struct {
	Schema  string            `json:"schema"`
	Entries []trajectoryEntry `json:"entries"`
}

const trajectorySchema = "fssga-bench/perf-trajectory/v1"

// appendTrajectory appends the report's headline subset to the
// trajectory file, creating it if missing.
func appendTrajectory(path string, report perfReport) error {
	traj := trajectoryFile{Schema: trajectorySchema}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &traj); err != nil {
			return fmt.Errorf("trajectory file %s: %w", path, err)
		}
		if traj.Schema != trajectorySchema {
			return fmt.Errorf("trajectory file %s: unknown schema %q", path, traj.Schema)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	head := make(map[string]float64, len(trajectoryHeadline))
	for _, name := range trajectoryHeadline {
		for _, r := range report.Results {
			if r.Name == name {
				head[name] = r.NsPerOp
				break
			}
		}
	}
	traj.Entries = append(traj.Entries, trajectoryEntry{
		Generated: report.Generated,
		GoVersion: report.GoVersion,
		NumCPU:    report.NumCPU,
		Seed:      report.Seed,
		Headline:  head,
	})
	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gatedSeries describes one series the -perfgate re-measures against the
// committed report: its name and a constructor for its benchmark body.
type gatedSeries struct {
	name  string
	bench func(seed int64) func(b *testing.B)
}

// gatedSeriesList returns the series the gate guards: the general-engine
// headline (serial lattice rounds on G(n, p)) and the aggregation-path
// headline (steady-state hub rounds on the star with tree views).
func gatedSeriesList() []gatedSeries {
	return []gatedSeries{
		{headlineSeries, func(seed int64) func(b *testing.B) {
			return benchRound(latticeNet(seed, 2048))
		}},
		{hubGateSeries, func(seed int64) func(b *testing.B) {
			return benchFrontierRound(hubBenchNet(graph.StarCSR(65536), seed, false))
		}},
	}
}

// runPerfGate is the scripts/check.sh bench regression gate: re-measure
// each gated headline series (best of three, pinned to one proc like the
// recorded baseline) and fail if it is slower than the committed
// BENCH_engine.json value by more than the tolerance factor, or if the
// hot path started allocating. One-sided on purpose — a faster machine
// or a perf win must never fail the build, only a regression.
func runPerfGate(baselinePath string, seed int64, tolerance float64, measure measureFunc, w io.Writer) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("perf gate: %w", err)
	}
	var base perfReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("perf gate: %s: %w", baselinePath, err)
	}
	if base.Schema != perfSchema {
		return fmt.Errorf("perf gate: %s has schema %q, want %q (regenerate with `make bench-perf`)",
			baselinePath, base.Schema, perfSchema)
	}
	for _, gs := range gatedSeriesList() {
		var baseline *perfResult
		for i := range base.Results {
			if base.Results[i].Name == gs.name {
				baseline = &base.Results[i]
				break
			}
		}
		if baseline == nil {
			return fmt.Errorf("perf gate: %s lacks the gated headline series %q (regenerate with `make bench-perf`)",
				baselinePath, gs.name)
		}

		best := math.Inf(1)
		bestAllocs := int64(math.MaxInt64)
		withProcs(1, func() {
			fn := gs.bench(seed)
			for rep := 0; rep < 3; rep++ {
				r := measure(fn)
				if ns := float64(r.NsPerOp()); ns < best {
					best = ns
				}
				if a := r.AllocsPerOp(); a < bestAllocs {
					bestAllocs = a
				}
			}
		})
		limit := baseline.NsPerOp * tolerance
		fmt.Fprintf(w, "perf gate: %s = %.0f ns/op (baseline %.0f, limit %.2fx = %.0f), %d allocs/op (baseline %d)\n",
			gs.name, best, baseline.NsPerOp, tolerance, limit, bestAllocs, baseline.AllocsPerOp)
		if best > limit {
			return fmt.Errorf("perf gate: %s regressed: %.0f ns/op exceeds %.2fx the committed %.0f ns/op",
				gs.name, best, tolerance, baseline.NsPerOp)
		}
		if bestAllocs > baseline.AllocsPerOp {
			return fmt.Errorf("perf gate: %s allocates %d objects/op, committed baseline allocates %d",
				gs.name, bestAllocs, baseline.AllocsPerOp)
		}
	}
	return nil
}

// runHub measures only the HubRound series and prints the linear/agg
// speedup per topology — the quick iteration loop for the aggregation
// subsystem (`make bench-hub`). No JSON artifacts are written.
func runHub(seed int64, measure measureFunc, w io.Writer) error {
	byName := map[string]float64{}
	serial := func(name string, fn func(b *testing.B)) {
		withProcs(1, func() {
			r := measure(fn)
			byName[name] = float64(r.NsPerOp())
			fmt.Fprintf(w, "%-32s %12.0f ns/op %8d allocs/op %10d B/op\n",
				name, float64(r.NsPerOp()), r.AllocsPerOp(), r.AllocedBytesPerOp())
		})
	}
	collectHubRounds(seed, serial)
	for _, tc := range hubCases(seed) {
		lin := byName[fmt.Sprintf("HubRound/%s/linear/n=%d", tc.topo, tc.n)]
		agg := byName[fmt.Sprintf("HubRound/%s/agg/n=%d", tc.topo, tc.n)]
		if lin > 0 && agg > 0 {
			fmt.Fprintf(w, "HubRound/%s/n=%d: linear/agg speedup %.2fx\n", tc.topo, tc.n, lin/agg)
		}
	}
	return nil
}

// benchTimestamp returns the report's generation timestamp. Honouring
// SOURCE_DATE_EPOCH (the reproducible-build convention) makes the whole
// BENCH_*.json artifact byte-reproducible when the caller pins it; the
// wall clock is only the interactive fallback.
func benchTimestamp() string {
	if s := os.Getenv("SOURCE_DATE_EPOCH"); s != "" {
		if sec, err := strconv.ParseInt(s, 10, 64); err == nil {
			return time.Unix(sec, 0).UTC().Format(time.RFC3339)
		}
	}
	//fssga:nondet artifact metadata only; replay and digests never read the report timestamp
	return time.Now().UTC().Format(time.RFC3339)
}
