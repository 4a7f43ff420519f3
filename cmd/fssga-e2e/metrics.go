package main

// metric is one reported number. BENCHMARK.json at the repository root
// lists the same names, units and bounds as the tables below, which
// main_test.go checks.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: relative worsening allowed
}

// endToEnd is what a user running a workload sees, measured with
// per-round tracing off. Each is the median over a run's solves. Every
// time carries the widest bound the benchmark format allows: on a shared
// 2-CPU virtual machine the medians of ten runs of 25 s spread by up to
// 18 percent even in reference seconds, and a bound below the spread
// would flag noise as a regression (see README.md).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"solve_s", "s", "lower", 0.25},
	{"checkpoint_write_s", "s", "lower", 0.25},
	{"restore_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// perLayer splits traced solves by module. Costs of a step that only
// some workloads take are shares of the phase they sit in, reading 0
// where the step does not occur.
var perLayer = []metric{
	{"graph.generate_s", "s", "lower", 0},
	{"graph.snapshot_frac", "frac", "lower", 0},
	{"fssga.new_s", "s", "lower", 0},
	{"fssga.rounds", "count", "lower", 0},
	{"fssga.round_busy_s", "s", "lower", 0},
	{"fssga.round_us_p50", "us", "lower", 0},
	{"fssga.round_us_p99", "us", "lower", 0},
	{"fssga.changed_nodes", "count", "lower", 0},
	{"fssga.round_ns_per_change", "ns", "lower", 0},
	{"fssga.final_probe_frac", "frac", "lower", 0},
	{"fssga.agg.hubs", "count", "higher", 0},
	{"fssga.agg.hub_views", "count", "higher", 0},
	{"fssga.agg.tree_rebuilds", "count", "lower", 0},
	{"fssga.agg.leaf_rescans", "count", "lower", 0},
	{"fssga.close_leaks", "count", "lower", 0},
	{"fssga.pool.solve_w1_s", "s", "lower", 0},
	{"fssga.pool.round_w1_us_p50", "us", "lower", 0},
	{"fssga.pool.speedup_w2", "x", "higher", 0},
	{"algo.stop_check_frac", "frac", "lower", 0},
	{"checkpoint.write_full_s", "s", "lower", 0},
	{"checkpoint.write_delta_frac", "frac", "lower", 0},
	{"checkpoint.restore_s", "s", "lower", 0},
	{"checkpoint.bytes_full", "B", "lower", 0},
	{"checkpoint.bytes_delta", "B", "lower", 0},
	{"checkpoint.chain_len", "count", "lower", 0},
	{"checkpoint.encode_s", "s", "lower", 0},
	{"checkpoint.verify_s", "s", "lower", 0},
	{"checkpoint.decode_s", "s", "lower", 0},
	{"checkpoint.store_write_s", "s", "lower", 0},
	{"trace.unaccounted_frac", "frac", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}

// e2eValues derives one solve's end-to-end metrics from its spans, with
// every time multiplied by speed: the solve's res.speed for reference
// seconds, 1 for seconds as measured. The solve time excludes the
// checkpoint writes made between rounds and the traced run's state
// diffs. A repeated set-up, final write or restore counts once, at its
// mean (see repeat).
func e2eValues(res result, speed float64) map[string]float64 {
	p := index(res.spans)
	setup := speed * mean(p.dur["bench.setup"])
	solve := speed * (total(p.dur["bench.solve"]) - p.sum("bench.solve", "checkpoint.*") - p.sum("bench.solve", "bench.diff"))
	write := speed * (p.sum("bench.solve", "checkpoint.write_*") + mean(p.durations("bench.checkpoint", "checkpoint.write_*")))
	restore := speed * mean(p.durations("bench.restore", "checkpoint.restore"))
	return map[string]float64{
		"setup_s":            setup,
		"solve_s":            solve,
		"checkpoint_write_s": write,
		"restore_s":          restore,
		"wall_s":             setup + solve + write + restore,
		"heap_live_mb":       res.heapMB,
	}
}

// layerValues derives the per-layer metrics of one traced solve t and
// its one-worker baseline b (t itself on a serial workload). The tracing overhead needs untraced solves and is filled
// in by the caller.
func layerValues(t, b result) map[string]float64 {
	p, q := index(t.spans), index(b.spans)
	e := e2eValues(t, 1)
	solve := e["solve_s"]
	gen := mean(p.durations("bench.setup", "graph.generate"))
	snap := mean(p.durations("bench.setup", "graph.snapshot"))
	rounds := p.durations("bench.solve", "fssga.round")
	busy := p.sum("bench.solve", "fssga.round")
	probe := p.sum("bench.solve", "fssga.probe")
	allWrites := p.sum("bench.solve", "checkpoint.write_*") + p.sum("bench.checkpoint", "checkpoint.write_*")
	deltas := p.sum("bench.solve", "checkpoint.write_delta") + p.sum("bench.checkpoint", "checkpoint.write_delta")
	var fulls []float64
	fulls = append(fulls, p.durations("bench.solve", "checkpoint.write_full")...)
	fulls = append(fulls, p.durations("bench.checkpoint", "checkpoint.write_full")...)
	solveW1 := e2eValues(b, 1)["solve_s"]
	selfTotal := 0.0
	for _, s := range p.self {
		selfTotal += s
	}
	return map[string]float64{
		"graph.generate_s":            gen,
		"graph.snapshot_frac":         ratio(snap, gen+snap),
		"fssga.new_s":                 mean(p.durations("bench.setup", "fssga.new")),
		"fssga.rounds":                float64(t.rounds),
		"fssga.round_busy_s":          busy + probe,
		"fssga.round_us_p50":          1e6 * quantile(rounds, 0.5),
		"fssga.round_us_p99":          1e6 * quantile(rounds, 0.99),
		"fssga.changed_nodes":         float64(t.changed),
		"fssga.round_ns_per_change":   1e9 * ratio(busy, float64(t.changed)),
		"fssga.final_probe_frac":      ratio(probe, solve),
		"fssga.agg.hubs":              float64(t.agg.Hubs),
		"fssga.agg.hub_views":         float64(t.agg.HubViews),
		"fssga.agg.tree_rebuilds":     float64(t.agg.TreeRebuilds),
		"fssga.agg.leaf_rescans":      float64(t.agg.LeafRescans),
		"fssga.close_leaks":           float64(bit(t.leaked)),
		"fssga.pool.solve_w1_s":       solveW1,
		"fssga.pool.round_w1_us_p50":  1e6 * quantile(q.durations("bench.solve", "fssga.round"), 0.5),
		"fssga.pool.speedup_w2":       ratio(solveW1, solve),
		"algo.stop_check_frac":        ratio(p.sum("bench.solve", "algo.stop_check"), solve),
		"checkpoint.write_full_s":     mean(fulls),
		"checkpoint.write_delta_frac": ratio(deltas, allWrites),
		"checkpoint.restore_s":        e["restore_s"],
		"checkpoint.bytes_full":       float64(t.bytesFull),
		"checkpoint.bytes_delta":      float64(t.bytesDelta),
		"checkpoint.chain_len":        float64(t.chainLen),
		"checkpoint.encode_s":         mean(p.durations("bench.breakdown", "checkpoint.encode")),
		"checkpoint.verify_s":         mean(p.durations("bench.breakdown", "checkpoint.verify")),
		"checkpoint.decode_s":         mean(p.durations("bench.breakdown", "checkpoint.decode")),
		"checkpoint.store_write_s":    mean(p.durations("bench.breakdown", "checkpoint.store_write")),
		"trace.unaccounted_frac":      ratio(p.self["bench"], selfTotal),
	}
}

// medians reduces per-solve values to the median of each metric.
func medians(defs []metric, per []map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(defs))
	for _, m := range defs {
		xs := make([]float64, 0, len(per))
		for _, v := range per {
			xs = append(xs, v[m.Name])
		}
		out[m.Name] = median(xs)
	}
	return out
}

// ratio is a/b, or 0 when b is 0, so every reported value is finite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
