package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/shortestpath"
	"repro/internal/fssga"
	"repro/internal/graph"
)

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// quickReports runs the four workloads at toy sizes and returns the
// header line and each workload's JSON report, in order.
func quickReports(t *testing.T, args ...string) (string, []report) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append([]string{"-quick", "-seconds", "0"}, args...), &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var reps []report
	for _, l := range lines {
		if strings.HasPrefix(l, "{") {
			var rep report
			if err := json.Unmarshal([]byte(l), &rep); err != nil {
				t.Fatalf("report %q: %v", l, err)
			}
			reps = append(reps, rep)
		}
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "{") {
		t.Errorf("last line %q is not the JSON report", last)
	}
	return lines[0], reps
}

// TestQuickMatchesBenchmarkJSON keeps BENCHMARK.json and the program in
// step: the workloads, and the metrics with their units and bounds, that
// a quick run emits are exactly the ones BENCHMARK.json declares.
func TestQuickMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !slices.Equal(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v\nprogram = %+v", bj.EndToEnd, endToEnd)
	}
	if !slices.Equal(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %+v\nprogram = %+v", bj.PerLayer, perLayer)
	}
	var names, bjNames []string
	for i, wl := range workloads(quickSizes) {
		sp := wl.describe()
		names = append(names, sp.name)
		if i < len(bj.Workloads) && bj.Workloads[i].Why != sp.why {
			t.Errorf("workload %s: BENCHMARK.json why %q, program %q", sp.name, bj.Workloads[i].Why, sp.why)
		}
	}
	for _, w := range bj.Workloads {
		bjNames = append(bjNames, w.Name)
	}
	if !slices.Equal(names, bjNames) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", bjNames, names)
	}

	for _, mode := range []struct {
		trace string
		want  []metric
	}{{"0", endToEnd}, {"1", perLayer}} {
		header, reps := quickReports(t, "-trace", mode.trace)
		if !strings.HasPrefix(header, "# fssga-e2e nproc=") || !strings.Contains(header, "go="+runtime.Version()) {
			t.Errorf("trace %s: first line %q is not the header", mode.trace, header)
		}
		if len(reps) != len(names) {
			t.Fatalf("trace %s: %d reports, want one per workload (%d)", mode.trace, len(reps), len(names))
		}
		for i, rep := range reps {
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("trace %s, %s: correct=%v attempted=%d failed=%d", mode.trace, names[i], rep.Correct, rep.Attempted, rep.Failed)
			}
			var got []string
			for name, v := range rep.Metrics {
				got = append(got, name+" "+v.Unit)
			}
			var want []string
			for _, m := range mode.want {
				want = append(want, m.Name+" "+m.Unit)
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("trace %s, %s: metrics %v, want %v", mode.trace, names[i], got, want)
			}
		}
	}
}

// TestOraclesCountCorruptionAsFailure corrupts one final state per
// oracle and checks that every solve of the run counts as failed.
func TestOraclesCountCorruptionAsFailure(t *testing.T) {
	el := electionGrid(quickSizes)
	el.tamper = func(net *fssga.Network[election.State], _ int) {
		for v, s := range net.States() {
			if !s.Leader {
				s.Leader = true
				net.SetState(v, s)
				return
			}
		}
	}
	bt := bfsTorus(quickSizes)
	bt.tamper = func(net *fssga.Network[bfs.State], _ int) {
		s := net.State(0)
		s.Label = (s.Label + 1) % 3
		net.SetState(0, s)
	}
	cp := censusPLaw(quickSizes)
	cp.tamper = func(net *fssga.Network[census.State], _ int) {
		s := net.State(0)
		s[0] ^= 1
		net.SetState(0, s)
	}
	sp := shortestPathPLaw(quickSizes)
	sp.tamper = func(net *fssga.Network[shortestpath.State], _ int) {
		s := net.State(0)
		s.Label = (s.Label + 1) % (spCap + 1)
		net.SetState(0, s)
	}
	cfg := config{seed: 1, workers: 1, trace: "0"}
	for _, wl := range []workload{el, bt, cp, sp} {
		rep := e2eRun(cfg, wl, newRecorder(false), io.Discard, io.Discard)
		if rep.Correct || rep.Failed != rep.Attempted {
			t.Errorf("%s: correct=%v failed=%d of %d, want every solve failed", wl.describe().name, rep.Correct, rep.Failed, rep.Attempted)
		}
	}
}

// TestDigestOracleCatchesWorkerDivergence corrupts a field the election
// oracle does not read, only at the parallel worker count, so only the
// comparison with a one-worker solve can catch it: once in the gated
// run, and on every traced seed in the traced run.
func TestDigestOracleCatchesWorkerDivergence(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs 2 CPUs for a two-worker run")
	}
	el := electionGrid(quickSizes)
	el.tamper = func(net *fssga.Network[election.State], w int) {
		if w > 1 {
			s := net.State(0)
			s.Phase = (s.Phase + 1) % 3
			net.SetState(0, s)
		}
	}
	var errb bytes.Buffer
	cfg := config{seed: 1, workers: 2, trace: "1"}
	if tracedRun(cfg, el, newRecorder(false), io.Discard, &errb) {
		t.Error("traced run passed with diverging final states")
	}
	if !strings.Contains(errb.String(), "workers differ") {
		t.Errorf("traced run: stderr %q does not name the digest mismatch", errb.String())
	}
	errb.Reset()
	cfg.trace = "0"
	if rep := e2eRun(cfg, el, newRecorder(false), io.Discard, &errb); rep.Correct || rep.Failed != 1 || rep.Attempted != 4 {
		t.Errorf("gated run: correct=%v failed=%d of %d, want the first timed solve failed against the one-worker warm-up", rep.Correct, rep.Failed, rep.Attempted)
	}
	if !strings.Contains(errb.String(), "workers differ") {
		t.Errorf("gated run: stderr %q does not name the digest mismatch", errb.String())
	}
}

// TestLeakedFreesTheNetwork checks the leak probe: whether or not Close
// leaves a network collectable, the network is gone after the probe and
// one more GC, so leaks cannot pile up across solves.
func TestLeakedFreesTheNetwork(t *testing.T) {
	for _, w := range []int{1, 2} {
		net := fssga.NewFromCSR(graph.PLawCSR(1024, 1, plawEdges, 1), shortestpath.Auto(spCap),
			func(v int) shortestpath.State {
				if v == 0 {
					return shortestpath.State{InT: true}
				}
				return shortestpath.State{Label: spCap}
			}, 1)
		for net.SyncRoundParallelFrontier(w) {
		}
		net.Close()
		wp := weak.Make(net)
		net = nil
		leaked(wp)
		runtime.GC()
		if wp.Value() != nil {
			t.Errorf("w=%d: network still live after the leak probe and a GC", w)
		}
	}
}

func TestRejectsOversubscription(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-quick", "-workers", fmt.Sprint(runtime.NumCPU() + 1)}, &out, &errb)
	if code != 2 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q: want 2 and no output", code, out.String())
	}
}

func TestSolveCount(t *testing.T) {
	for _, c := range []struct {
		nominal float64
		seconds int
		want    int
	}{{4.3, 20, 5}, {2.5, 20, 9}, {2.5, 0, 3}, {1, 10, 11}, {1, 12, 13}} {
		if got := solveCount(c.nominal, c.seconds); got != c.want {
			t.Errorf("solveCount(%v, %d) = %d, want %d", c.nominal, c.seconds, got, c.want)
		}
	}
}
