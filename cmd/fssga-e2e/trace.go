package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed interval of a solve: a benchmark phase (name
// "bench.*", no parent) or one call the benchmark made into a module's
// public API from inside a phase. The name's prefix up to the first dot
// is the layer: graph, fssga, algo or checkpoint.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps spans in memory; nothing is written until the run
// ends. Spans of calls made once per round are recorded only in a traced
// solve (detail). Unless keep is set, for a span file, the recorder drops
// each solve's spans when the next solve starts, so they do not pile up
// in the live heap the benchmark measures.
type recorder struct {
	epoch  time.Time
	keep   bool
	trace  int
	detail bool
	spans  []span
	open   []int
	traces []traceInfo
}

// traceInfo says which solve a trace id belongs to.
type traceInfo struct {
	ID       int    `json:"id"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	Detail   bool   `json:"detail"`
}

func newRecorder(keep bool) *recorder { return &recorder{epoch: time.Now(), keep: keep, trace: -1} }

// newTrace starts the next solve's trace and returns the index of its
// first span.
func (r *recorder) newTrace(workload string, seed int64, workers int, detail bool) int {
	r.trace++
	r.detail = detail
	r.open = r.open[:0]
	r.traces = append(r.traces, traceInfo{r.trace, workload, seed, workers, detail})
	if !r.keep {
		r.spans = nil // earlier results keep their own spans
	}
	return len(r.spans)
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) parent() int {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// begin opens a phase span; end closes it.
func (r *recorder) begin(name string) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Trace: r.trace, ID: id, Parent: r.parent(), Start: r.now()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id].End = r.now()
	r.open = r.open[:len(r.open)-1]
}

// call records a span for a call that started at start and has just
// returned.
func (r *recorder) call(name string, start int64) {
	r.spans = append(r.spans, span{Name: name, Trace: r.trace, ID: len(r.spans), Parent: r.parent(), Start: start, End: r.now()})
}

// roundCall is call for the calls made once per round.
func (r *recorder) roundCall(name string, start int64) {
	if r.detail {
		r.call(name, start)
	}
}

// phases indexes one solve's spans: the durations of each phase (a
// repeated set-up has several), of each phase's direct children by
// name, and the solve's layer self times.
type phases struct {
	dur   map[string][]float64            // phase name → durations
	calls map[string]map[string][]float64 // phase name → call name → durations
	self  map[string]float64              // layer → self time inside the timed phases
}

// timedPhases are the phases whose sum is the solve's wall time;
// bench.breakdown re-calls checkpoint functions on the same payload and
// is reported separately.
var timedPhases = []string{"bench.setup", "bench.solve", "bench.checkpoint", "bench.restore"}

func index(spans []span) phases {
	p := phases{dur: map[string][]float64{}, calls: map[string]map[string][]float64{}, self: map[string]float64{}}
	base := 0
	if len(spans) > 0 {
		base = spans[0].ID
	}
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			p.dur[s.Name] = append(p.dur[s.Name], s.dur())
			continue
		}
		child[s.Parent-base] += s.dur()
		ph := spans[s.Parent-base].Name
		if p.calls[ph] == nil {
			p.calls[ph] = map[string][]float64{}
		}
		p.calls[ph][s.Name] = append(p.calls[ph][s.Name], s.dur())
	}
	for i, s := range spans {
		root := s
		for root.Parent >= 0 {
			root = spans[root.Parent-base]
		}
		if !isTimed(root.Name) || s.Name == "bench.diff" {
			continue
		}
		p.self[layer(s.Name)] += s.dur() - child[i]
	}
	return p
}

func isTimed(phase string) bool {
	for _, t := range timedPhases {
		if t == phase {
			return true
		}
	}
	return false
}

func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// sum returns the total duration of the named calls in a phase; a
// trailing "*" matches a name prefix.
func (p phases) sum(phase, name string) float64 { return total(p.durations(phase, name)) }

func total(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func (p phases) durations(phase, name string) []float64 {
	if prefix, ok := strings.CutSuffix(name, "*"); ok {
		var ds []float64
		for n, d := range p.calls[phase] {
			if strings.HasPrefix(n, prefix) {
				ds = append(ds, d...)
			}
		}
		return ds
	}
	return p.calls[phase][name]
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the mean of xs (0 for an empty slice).
func mean(xs []float64) float64 { return ratio(total(xs), float64(len(xs))) }
