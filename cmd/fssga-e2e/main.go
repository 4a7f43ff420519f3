// Command fssga-e2e is the repository's end-to-end benchmark. Each of
// four workloads runs one of the paper's algorithms from a freshly built
// topology to its stopping condition (one leader, BFS quiescent, census
// converged, distances settled), checkpoints and restores the final
// network, and checks every result against an oracle. Solves run one
// after another, each on a fresh network: a closed loop with one client.
//
// It times the repository's modules only from outside, by wrapping the
// calls it makes into their public functions: graph generators and the
// CSR snapshot, fssga construction and round calls, algo stopping
// predicates, and the checkpoint Manager, Encode, Verify, Decode and
// Store. See README.md for the metrics, the workloads and how to read a
// traced run.
//
// Usage, from this directory:
//
//	go run . [-workload name] [-seed n] [-seconds s] [-trace 0|1|file] [-runs k] [-quick] [-workers w]
//
// The last line of a workload's output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}, holding the end-to-end metrics, or
// with -trace the per-layer ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// tracedSeeds is how many seeds a traced run solves, traced and untraced.
const tracedSeeds = 2

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    string // "0", "1", or the path of a span file to write
	quick    bool
	runs     int
	workers  int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the benchmark and returns the exit code: 0 when every
// solve passed its oracle, 1 when one failed, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parse(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "fssga-e2e:", err)
		}
		return 2
	}
	sz := fullSizes
	if cfg.quick {
		sz = quickSizes
	}
	var selected []workload
	for _, wl := range workloads(sz) {
		if cfg.workload == "" || cfg.workload == wl.describe().name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "fssga-e2e: unknown workload %q\n", cfg.workload)
		return 2
	}

	fmt.Fprintf(stdout, "# fssga-e2e nproc=%d gomaxprocs=%d seed=%d go=%s workers=%d seconds=%d quick=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, runtime.Version(), cfg.workers, cfg.seconds, cfg.quick)
	spanFile := cfg.trace != "0" && cfg.trace != "1"
	rec := newRecorder(spanFile)
	ok := true
	switch {
	case cfg.runs > 1:
		ok = runSets(cfg, selected, rec, stdout, stderr)
	case cfg.trace != "0":
		for _, wl := range selected {
			ok = tracedRun(cfg, wl, rec, stdout, stderr) && ok
		}
	default:
		for _, wl := range selected {
			ok = e2eRun(cfg, wl, rec, stdout, stderr).Correct && ok
		}
	}
	if spanFile {
		if err := writeSpans(cfg.trace, rec); err != nil {
			fmt.Fprintln(stderr, "fssga-e2e:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func parse(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("fssga-e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run only this workload (default: all four)")
	fs.Int64Var(&cfg.seed, "seed", 1, "first seed; solve i uses seed+i")
	fs.IntVar(&cfg.seconds, "seconds", 25, "target length of one workload's run, which sets its solve count")
	fs.StringVar(&cfg.trace, "trace", "0", "0: end-to-end metrics; 1: per-layer metrics from a traced run; any other value: as 1, and write the spans to this file")
	fs.BoolVar(&cfg.quick, "quick", false, "toy sizes: 8x8 grid, 32x32 torus, one 1024-node power-law block")
	fs.IntVar(&cfg.runs, "runs", 1, "run every selected workload this many times and compare the medians against the bounds")
	fs.IntVar(&cfg.workers, "workers", 2, "worker count of the parallel workloads; at most the CPU count")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case cfg.workers < 1 || cfg.workers > runtime.NumCPU():
		return cfg, fmt.Errorf("-workers %d: want 1 to %d, the CPU count, so no worker waits for a CPU", cfg.workers, runtime.NumCPU())
	case cfg.seconds < 0:
		return cfg, fmt.Errorf("-seconds %d: want at least 0", cfg.seconds)
	case cfg.runs < 1:
		return cfg, fmt.Errorf("-runs %d: want at least 1", cfg.runs)
	case cfg.runs > 1 && cfg.trace != "0":
		return cfg, errors.New("-runs compares end-to-end metrics; drop -trace")
	}
	return cfg, nil
}

// solveCount sizes an untraced run to about seconds: the nearest odd
// count of solves (so the median is one of them), at least three. The
// count depends only on the flags, so every run of a workload does the
// same work in the same order.
func solveCount(nominal float64, seconds int) int {
	n := 2*int(math.Floor((float64(seconds)/nominal-1)/2+0.5)) + 1
	return max(n, 3)
}

func workersFor(sp spec, workers int) int {
	if sp.parallel {
		return workers
	}
	return 1
}

// report is the JSON object that ends each workload's output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts a run's solves and reports each failure.
type tally struct {
	name              string
	stderr            io.Writer
	attempted, failed int
}

// add counts one solve of seed and reports whether it succeeded.
func (t *tally) add(seed int64, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.stderr, "fssga-e2e: %s seed %d: %v\n", t.name, seed, err)
	}
	return err == nil
}

// sameStates fails when one, a solve at one worker, and many, a solve of
// the same seed at w workers, both passed but ended in different final
// states.
func sameStates(one, many result, w int) error {
	if one.err != nil || many.err != nil || one.digest == many.digest {
		return nil
	}
	return fmt.Errorf("final states at 1 and %d workers differ (digests %016x, %016x)", w, one.digest, many.digest)
}

// e2eRun solves one workload solveCount times, untraced, and prints the
// median of each end-to-end metric. The run opens with an untimed solve
// of the first seed at one worker, which warms the heap: the first solve
// in a process pays page faults that later ones do not. On a parallel
// workload the timed solve of the same seed must then end in the same
// final states, or it counts as failed.
func e2eRun(cfg config, wl workload, rec *recorder, stdout, stderr io.Writer) report {
	sp := wl.describe()
	w := workersFor(sp, cfg.workers)
	t := tally{name: sp.name, stderr: stderr}
	warm := wl.solve(rec, cfg.seed, 1, false)
	t.add(cfg.seed, warm.err)
	var per, measured []map[string]float64
	var speeds []float64
	for i := 0; i < solveCount(sp.nominal, cfg.seconds); i++ {
		seed := cfg.seed + int64(i)
		res := wl.solve(rec, seed, w, false)
		if i == 0 && res.err == nil {
			res.err = sameStates(warm, res, w)
		}
		if !t.add(seed, res.err) {
			continue
		}
		per = append(per, e2eValues(res, res.speed))
		measured = append(measured, e2eValues(res, 1))
		speeds = append(speeds, res.speed)
	}
	fmt.Fprintf(stdout, "%-18s host speed %.3f of reference (median over solves); times below are reference seconds, measured seconds in brackets\n",
		sp.name, median(speeds))
	return emit(stdout, sp.name, endToEnd, medians(endToEnd, per), medians(endToEnd, measured), len(per), t.attempted, t.failed)
}

// tracedRun solves the first tracedSeeds seeds untraced, then again with
// per-round spans (and, on a parallel workload, again at one worker),
// and prints the median of each per-layer metric.
func tracedRun(cfg config, wl workload, rec *recorder, stdout, stderr io.Writer) bool {
	sp := wl.describe()
	w := workersFor(sp, cfg.workers)
	t := tally{name: sp.name, stderr: stderr}
	var untraced, traced []float64
	for i := int64(0); i < tracedSeeds; i++ {
		if res := wl.solve(rec, cfg.seed+i, w, false); t.add(cfg.seed+i, res.err) {
			untraced = append(untraced, e2eValues(res, res.speed)["wall_s"])
		}
	}
	ts := make([]result, tracedSeeds)
	for i := range ts {
		ts[i] = wl.solve(rec, cfg.seed+int64(i), w, true)
	}
	var per []map[string]float64
	for i, res := range ts {
		seed := cfg.seed + int64(i)
		if !t.add(seed, res.err) {
			continue
		}
		b := res
		if sp.parallel {
			b = wl.solve(rec, seed, 1, true)
			if b.err == nil {
				b.err = sameStates(b, res, w)
			}
			if !t.add(seed, b.err) {
				continue
			}
		}
		per = append(per, layerValues(res, b))
		traced = append(traced, e2eValues(res, res.speed)["wall_s"])
	}
	vals := medians(perLayer, per)
	if len(traced) > 0 && len(untraced) > 0 {
		vals["trace.overhead_frac"] = median(traced)/median(untraced) - 1
	}
	return emit(stdout, sp.name, perLayer, vals, nil, len(per), t.attempted, t.failed).Correct
}

// emit prints one line per metric with its sample count, then the JSON
// report. measured, if not nil, holds the same metrics in measured
// seconds, printed in brackets after each time.
func emit(stdout io.Writer, name string, defs []metric, vals, measured map[string]float64, samples, attempted, failed int) report {
	rep := report{Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	rep.Correct = rep.Failed == 0
	for _, m := range defs {
		fmt.Fprintf(stdout, "%-18s %-28s %14.6g %-5s median of %d", name, m.Name, vals[m.Name], m.Unit, samples)
		if measured != nil && m.Unit == "s" {
			fmt.Fprintf(stdout, "  (%.6g)", measured[m.Name])
		}
		fmt.Fprintln(stdout)
		rep.Metrics[m.Name] = value{vals[m.Name], m.Unit}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		panic(err) // every value is finite and every key a string
	}
	fmt.Fprintln(stdout, string(b))
	return rep
}

// runSets runs every selected workload cfg.runs times in turn and prints,
// for each end-to-end metric, each set's median, their spread (largest
// over smallest, minus one) and the metric's bound. The last line is a
// JSON record of all the medians, the form of baseline.json.
func runSets(cfg config, selected []workload, rec *recorder, stdout, stderr io.Writer) bool {
	type set map[string]float64
	sets := map[string][]set{}
	ok := true
	for k := 0; k < cfg.runs; k++ {
		for _, wl := range selected {
			rep := e2eRun(cfg, wl, rec, stdout, stderr)
			ok = ok && rep.Correct
			s := set{}
			for name, v := range rep.Metrics {
				s[name] = v.Value
			}
			sets[wl.describe().name] = append(sets[wl.describe().name], s)
		}
	}
	for _, wl := range selected {
		name := wl.describe().name
		for _, m := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			fmt.Fprintf(stdout, "%-18s %-20s", name, m.Name)
			for _, s := range sets[name] {
				fmt.Fprintf(stdout, " %12.6g", s[m.Name])
				lo, hi = math.Min(lo, s[m.Name]), math.Max(hi, s[m.Name])
			}
			spread := ratio(hi, lo) - 1
			verdict := "within"
			if spread > m.Bound {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Fprintf(stdout, "  spread %6.2f%%  bound %4.0f%%  %s\n", 100*spread, 100*m.Bound, verdict)
		}
	}
	b, err := json.Marshal(struct {
		NumCPU     int              `json:"nproc"`
		GOMAXPROCS int              `json:"gomaxprocs"`
		Go         string           `json:"go"`
		Seed       int64            `json:"seed"`
		Seconds    int              `json:"seconds"`
		Workers    int              `json:"workers"`
		Sets       map[string][]set `json:"sets"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seed, cfg.seconds, cfg.workers, sets})
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(stdout, string(b))
	return ok
}

// writeSpans writes every recorded span, with the solve each trace id
// belongs to, as one JSON document.
func writeSpans(path string, rec *recorder) error {
	b, err := json.Marshal(struct {
		Traces []traceInfo `json:"traces"`
		Spans  []span      `json:"spans"`
	}{rec.traces, rec.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
