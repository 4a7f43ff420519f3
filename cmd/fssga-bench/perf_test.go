package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The perf report timestamp must honour SOURCE_DATE_EPOCH so BENCH_*.json
// artifacts are byte-reproducible when the caller pins the build time.
func TestBenchTimestampReproducible(t *testing.T) {
	t.Setenv("SOURCE_DATE_EPOCH", "1700000000")
	want := time.Unix(1700000000, 0).UTC().Format(time.RFC3339)
	if got := benchTimestamp(); got != want {
		t.Fatalf("benchTimestamp() = %q, want %q", got, want)
	}
	if got := benchTimestamp(); got != want {
		t.Fatalf("pinned timestamp not stable: %q", got)
	}
	t.Setenv("SOURCE_DATE_EPOCH", "not-a-number")
	if benchTimestamp() == "" {
		t.Fatal("malformed SOURCE_DATE_EPOCH must fall back, not return empty")
	}
}

// The perf gate rebuilds the headline workload with latticeNet alone, so
// the network it measures must be a function of (seed, n).
func TestLatticeNetRepeats(t *testing.T) {
	a, b := latticeNet(5, 512), latticeNet(5, 512)
	if !reflect.DeepEqual(a.G.Edges(), b.G.Edges()) || !reflect.DeepEqual(a.States(), b.States()) {
		t.Fatal("two latticeNet(5, 512) calls built different networks")
	}
}

// fakeMeasure returns a fixed result without running the benchmark body,
// so the suite's collection/report/gate plumbing is testable without
// paying for real measurements.
func fakeMeasure(ns int64) measureFunc {
	return func(fn func(b *testing.B)) testing.BenchmarkResult {
		return testing.BenchmarkResult{N: 1, T: time.Duration(ns)}
	}
}

// TestRunPerfReportAndTrajectory drives the whole -perf path with a fake
// measurer: schema v2, per-result gomaxprocs, the acceptance series
// (65536-node scaling sweep and the million-node lattice), and the
// trajectory file gaining one headline entry per run.
func TestRunPerfReportAndTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("constructs million-node networks; skipped in -short mode")
	}
	t.Setenv("SOURCE_DATE_EPOCH", "1700000000")
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_engine.json")
	traj := filepath.Join(dir, "BENCH_trajectory.json")

	for run := 1; run <= 2; run++ {
		if err := runPerf(1, out, traj, fakeMeasure(1000)); err != nil {
			t.Fatalf("runPerf (run %d): %v", run, err)
		}
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report perfReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != perfSchema {
		t.Fatalf("schema = %q, want %q", report.Schema, perfSchema)
	}
	if report.NumCPU < 1 {
		t.Fatalf("num_cpu = %d", report.NumCPU)
	}
	names := map[string]perfResult{}
	for _, r := range report.Results {
		if r.Gomaxprocs < 1 {
			t.Fatalf("%s: gomaxprocs = %d, want per-result value >= 1", r.Name, r.Gomaxprocs)
		}
		names[r.Name] = r
	}
	for _, want := range []string{
		headlineSeries,
		"SyncRoundParallel/lattice/dense/n=65536/w=1",
		"SyncRoundParallel/lattice/dense/n=65536/w=2",
		"SyncRoundParallel/lattice/dense/n=65536/w=4",
		"SyncRoundParallel/lattice/dense/n=65536/w=8",
		"SyncRound/lattice/dense/n=1048576",
		"SyncRoundParallel/lattice/dense/n=1048576/w=8",
		"QuiescedRound/shortestpath/parallel-frontier/n=2304/w=4",
		"Checkpoint/write/full/n=65536",
		"Checkpoint/write/delta/n=65536",
		"Checkpoint/restore/full/n=65536",
		"Checkpoint/restore/delta/n=65536",
		"Checkpoint/write/full/n=1048576",
		"Checkpoint/write/delta/n=1048576",
		"Checkpoint/restore/full/n=1048576",
		"Checkpoint/restore/delta/n=1048576",
	} {
		if _, ok := names[want]; !ok {
			t.Errorf("report lacks series %q", want)
		}
	}
	if r := names[headlineSeries]; r.Gomaxprocs != 1 {
		t.Errorf("serial headline recorded at gomaxprocs=%d, want 1", r.Gomaxprocs)
	}

	var tf trajectoryFile
	data, err = os.ReadFile(traj)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Schema != trajectorySchema {
		t.Fatalf("trajectory schema = %q", tf.Schema)
	}
	if len(tf.Entries) != 2 {
		t.Fatalf("trajectory has %d entries after two runs, want 2", len(tf.Entries))
	}
	for _, name := range trajectoryHeadline {
		if _, ok := tf.Entries[1].Headline[name]; !ok {
			t.Errorf("trajectory entry lacks headline series %q", name)
		}
	}
}

// TestAppendTrajectoryRejectsCorruptFile: a corrupt or foreign-schema
// trajectory file is an error, never silently overwritten.
func TestAppendTrajectoryRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.json")
	report := perfReport{Schema: perfSchema, Generated: "x", Results: nil}

	os.WriteFile(path, []byte("not json"), 0o644)
	if err := appendTrajectory(path, report); err == nil {
		t.Fatal("corrupt trajectory file must be an error")
	}
	os.WriteFile(path, []byte(`{"schema":"other/v9","entries":[]}`), 0o644)
	if err := appendTrajectory(path, report); err == nil {
		t.Fatal("foreign schema must be an error")
	}
}

// gateBaseline writes a v2 report containing the gated headline series
// with the given ns/op and allocs and returns its path.
func gateBaseline(t *testing.T, ns float64, allocs int64) string {
	t.Helper()
	report := perfReport{
		Schema: perfSchema,
		Results: []perfResult{
			{Name: "SyncRound/lattice/map/n=512", NsPerOp: 1, Gomaxprocs: 1},
			{Name: headlineSeries, NsPerOp: ns, AllocsPerOp: allocs, Gomaxprocs: 1},
		},
	}
	data, _ := json.Marshal(report)
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPerfGateVerdicts: the gate passes inside tolerance, fails outside
// it, fails on fresh allocations, and is one-sided (faster never fails).
func TestPerfGateVerdicts(t *testing.T) {
	var buf strings.Builder
	// Measured 1000ns vs baseline 800ns at 1.6x tolerance (limit 1280): pass.
	if err := runPerfGate(gateBaseline(t, 800, 0), 1, 1.6, fakeMeasure(1000), &buf); err != nil {
		t.Fatalf("within tolerance: %v", err)
	}
	if !strings.Contains(buf.String(), headlineSeries) {
		t.Fatal("gate output must name the headline series")
	}
	// Measured 2000ns vs limit 1280: regression.
	if err := runPerfGate(gateBaseline(t, 800, 0), 1, 1.6, fakeMeasure(2000), &buf); err == nil {
		t.Fatal("regression beyond tolerance must fail")
	}
	// Much faster than baseline: one-sided gate passes.
	if err := runPerfGate(gateBaseline(t, 800, 0), 1, 1.6, fakeMeasure(1), &buf); err != nil {
		t.Fatalf("speedup must pass: %v", err)
	}
	// Hot path started allocating against a zero-alloc baseline.
	alloc := func(fn func(b *testing.B)) testing.BenchmarkResult {
		return testing.BenchmarkResult{N: 1, T: time.Nanosecond, MemAllocs: 5, MemBytes: 100}
	}
	if err := runPerfGate(gateBaseline(t, 800, 0), 1, 1.6, alloc, &buf); err == nil {
		t.Fatal("new allocations must fail the gate")
	}
}

// TestPerfGateBaselineErrors: missing file, wrong schema, and a report
// without the headline series are all explicit errors.
func TestPerfGateBaselineErrors(t *testing.T) {
	var buf strings.Builder
	if err := runPerfGate(filepath.Join(t.TempDir(), "absent.json"), 1, 1.6, fakeMeasure(1), &buf); err == nil {
		t.Fatal("missing baseline must be an error")
	}

	v1 := filepath.Join(t.TempDir(), "v1.json")
	os.WriteFile(v1, []byte(`{"schema":"fssga-bench/perf/v1","results":[]}`), 0o644)
	if err := runPerfGate(v1, 1, 1.6, fakeMeasure(1), &buf); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("v1 schema must be a schema error, got %v", err)
	}

	empty := gateBaseline(t, 800, 0)
	data, _ := os.ReadFile(empty)
	var r perfReport
	json.Unmarshal(data, &r)
	r.Results = r.Results[:1] // drop the headline series
	data, _ = json.Marshal(r)
	os.WriteFile(empty, data, 0o644)
	if err := runPerfGate(empty, 1, 1.6, fakeMeasure(1), &buf); err == nil || !strings.Contains(err.Error(), "headline") {
		t.Fatalf("missing headline series must be an error, got %v", err)
	}
}
