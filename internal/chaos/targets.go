package chaos

import (
	"fmt"
	"sort"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/shortestpath"
	"repro/internal/baseline"
	"repro/internal/fssga"
	"repro/internal/graph"
)

// fssgaSystem carries the plumbing every fssga.Network-based target
// shares: worker-count dispatch and OnBeforeRound wiring.
type fssgaSystem[S comparable] struct {
	g       *graph.Graph
	net     *fssga.Network[S]
	workers int
	monErr  error // first live-monitor violation, latched by OnRound
}

func (s *fssgaSystem[S]) PreRound(fn func(round int)) { s.net.OnBeforeRound = fn }

func (s *fssgaSystem[S]) Round() {
	if s.workers > 1 {
		s.net.SyncRoundParallel(s.workers)
	} else {
		s.net.SyncRound()
	}
}

func (s *fssgaSystem[S]) Check(round int) error { return s.monErr }

func (s *fssgaSystem[S]) Digest() uint64 { return digestStates(s.g, s.net.States()) }

// monitor installs a per-round transition monitor via fssga.Network.OnRound:
// after every committed round it compares each live node's previous and new
// state with check and latches the first violation. It owns the previous-
// state copy.
func (s *fssgaSystem[S]) monitor(check func(v int, old, next S) error) {
	prev := append([]S(nil), s.net.States()...)
	s.net.OnRound = func(round int) {
		cur := s.net.States()
		for v := 0; v < s.g.Cap(); v++ {
			if !s.g.Alive(v) {
				continue
			}
			if err := check(v, prev[v], cur[v]); err != nil && s.monErr == nil {
				s.monErr = fmt.Errorf("round %d, node %d: %w", round, v, err)
			}
		}
		copy(prev, cur)
	}
}

// censusSystem is the Flajolet–Martin census target (0-sensitive).
// Live monitor: semilattice monotonicity — every transition moves up the
// sketch OR-order. Final verdict: E13's component-agreement + range check.
type censusSystem struct {
	fssgaSystem[census.State]
	cfg   census.Config
	n0    int
	slack float64
}

func newCensusSystem(g *graph.Graph, seed int64, workers int) (System, error) {
	cfg := census.Config{Bits: 14, Sketches: 8, Seed: seed}
	net, err := census.NewNetwork(g, cfg)
	if err != nil {
		return nil, err
	}
	s := &censusSystem{
		fssgaSystem: fssgaSystem[census.State]{g: g, net: net, workers: workers},
		cfg:         cfg,
		n0:          g.NumNodes(),
		slack:       2,
	}
	s.monitor(func(v int, old, next census.State) error {
		if !census.SubState(old, next) {
			return fmt.Errorf("census monotonicity violated: %v -> %v", old, next)
		}
		return nil
	})
	return s, nil
}

func (s *censusSystem) Done() bool { return s.net.Quiescent() }

func (s *censusSystem) Observe() Observation { return Observation{} } // χ = ∅

func (s *censusSystem) Final() error {
	for _, comp := range s.g.Components() {
		est := census.Estimate(s.net.State(comp[0]), s.cfg)
		for _, v := range comp[1:] {
			if got := census.Estimate(s.net.State(v), s.cfg); got != est {
				return fmt.Errorf("census: nodes %d and %d disagree (%.1f vs %.1f)", comp[0], v, est, got)
			}
		}
		lo := float64(len(comp)) / 2 / s.slack
		hi := 2 * float64(s.n0) * s.slack
		if est < lo || est > hi {
			return fmt.Errorf("census: component of %d estimates %.1f outside [%.1f, %.1f]", comp[0], est, lo, hi)
		}
	}
	return nil
}

// spSystem is the Section 2.2 distance-to-target clustering (0-sensitive).
// Node 0 is the target and is protected (killing it changes the problem).
// Live monitor: StepInvariant. Final verdict: labels equal capped true
// distances in the surviving graph.
type spSystem struct {
	fssgaSystem[shortestpath.State]
	cap int
}

func newSPSystem(g *graph.Graph, seed int64, workers int) (System, error) {
	capLabel := g.NumNodes()
	net, err := shortestpath.NewNetwork(g, []int{0}, capLabel, seed)
	if err != nil {
		return nil, err
	}
	s := &spSystem{
		fssgaSystem: fssgaSystem[shortestpath.State]{g: g, net: net, workers: workers},
		cap:         capLabel,
	}
	s.monitor(func(v int, old, next shortestpath.State) error {
		if msg := shortestpath.StepInvariant(old, next, capLabel); msg != "" {
			return fmt.Errorf("shortestpath: %s", msg)
		}
		return nil
	})
	return s, nil
}

func (s *spSystem) Done() bool { return s.net.Quiescent() }

func (s *spSystem) Observe() Observation { return Observation{Protected: []int{0}} }

func (s *spSystem) Final() error {
	want := s.g.BFSDistances(0)
	for v := 0; v < s.g.Cap(); v++ {
		if !s.g.Alive(v) || s.g.Degree(v) == 0 {
			// Isolated nodes are frozen by the engine (SM functions are
			// defined on Q^+ only): they keep the label they held when cut
			// off — correct for some intermediate graph, which is all
			// Section 2's "reasonably correct" demands — so the
			// final-graph oracle does not apply to them.
			continue
		}
		w := want[v]
		if w == graph.Unreachable || w > s.cap {
			w = s.cap
		}
		if got := s.net.State(v).Label; got != w {
			return fmt.Errorf("shortestpath: node %d label %d, true capped distance %d", v, got, w)
		}
	}
	return nil
}

// bfsSystem is the Section 4.3 BFS wave (originator 0, protected). Live
// monitor: Regressed (immutable flags, frozen labels, no status
// regression). Final verdict: every node still connected to the originator
// is labelled — sound because faults only shrink the graph, so the final
// component was inside every intermediate one and the wave must have
// reached it.
type bfsSystem struct {
	fssgaSystem[bfs.State]
}

func newBFSSystem(g *graph.Graph, seed int64, workers int) (System, error) {
	net, err := bfs.NewNetwork(g, 0, nil, seed)
	if err != nil {
		return nil, err
	}
	s := &bfsSystem{fssgaSystem[bfs.State]{g: g, net: net, workers: workers}}
	s.monitor(func(v int, old, next bfs.State) error {
		if msg := bfs.Regressed(old, next); msg != "" {
			return fmt.Errorf("bfs: %s", msg)
		}
		return nil
	})
	return s, nil
}

func (s *bfsSystem) Done() bool { return s.net.Quiescent() }

func (s *bfsSystem) Observe() Observation { return Observation{Protected: []int{0}} }

func (s *bfsSystem) Final() error {
	if !s.g.Alive(0) {
		return fmt.Errorf("bfs: originator died (protection failed)")
	}
	for _, v := range s.g.ComponentOf(0) {
		if s.net.State(v).Label == bfs.NoLabel {
			return fmt.Errorf("bfs: node %d still connected to originator but unlabelled", v)
		}
	}
	return nil
}

// electionSystem is the randomized leader election. Live monitor: at most
// one leader, with a persistence grace of n0 rounds (the protocol tolerates
// transient premature leaders that later resign; a duplicate that persists
// a full n0 rounds is a real violation). Randomized, so Done uses the
// tracker's own convergence signal rather than Quiescent.
type electionSystem struct {
	fssgaSystem[election.State]
	tr    *election.Tracker
	n0    int
	multi int // consecutive rounds with ≥2 leaders
}

func newElectionSystem(g *graph.Graph, seed int64, workers int) (System, error) {
	tr := election.New(g, seed)
	s := &electionSystem{
		fssgaSystem: fssgaSystem[election.State]{g: g, net: tr.Net, workers: workers},
		tr:          tr,
		n0:          g.NumNodes(),
	}
	s.net.OnRound = func(round int) {
		if len(tr.Leaders()) > 1 {
			s.multi++
		} else {
			s.multi = 0
		}
		if s.multi > s.n0 && s.monErr == nil {
			s.monErr = fmt.Errorf("round %d: %d leaders persisted for %d rounds", round, len(tr.Leaders()), s.multi)
		}
	}
	return s, nil
}

func (s *electionSystem) Done() bool {
	return len(s.tr.Leaders()) == 1 && s.tr.Remaining() <= 1
}

func (s *electionSystem) Observe() Observation { return Observation{} }

func (s *electionSystem) Final() error { return nil } // the ≤1-leader monitor is the verdict

// betaSystem is the tree-based β synchronizer baseline (Θ(n)-sensitive):
// χ = internal spanning-tree nodes, and one χ kill (or tree-edge cut)
// breaks every subsequent pulse — the run the χ-targeting adversary is
// expected to fail.
type betaSystem struct {
	g      *graph.Graph
	b      *baseline.BetaSynchronizer
	pre    func(round int)
	rounds int
	err    error
}

func newBetaSystem(g *graph.Graph, seed int64, workers int) (System, error) {
	b, err := baseline.NewBeta(g, 0)
	if err != nil {
		return nil, err
	}
	return &betaSystem{g: g, b: b}, nil
}

func (s *betaSystem) PreRound(fn func(round int)) { s.pre = fn }

func (s *betaSystem) Round() {
	s.rounds++
	if s.pre != nil {
		s.pre(s.rounds)
	}
	if err := s.b.Pulse(); err != nil && s.err == nil {
		s.err = err
	}
}

func (s *betaSystem) Done() bool { return true } // every completed pulse is a final answer

func (s *betaSystem) Observe() Observation { return Observation{Chi: s.b.CriticalNodes()} }

func (s *betaSystem) Check(round int) error { return s.err }

func (s *betaSystem) Final() error { return nil }

func (s *betaSystem) Digest() uint64 {
	d := NewDigest()
	d.Int(s.g.NumNodes())
	d.Int(s.g.NumEdges())
	d.Int(s.b.Pulses)
	return d.Sum()
}

var builders = map[string]Builder{
	"census":       {Name: "census", Sensitivity: "0", New: newCensusSystem},
	"shortestpath": {Name: "shortestpath", Sensitivity: "0", New: newSPSystem},
	"bfs":          {Name: "bfs", Sensitivity: "0", New: newBFSSystem},
	"election":     {Name: "election", Sensitivity: "1", New: newElectionSystem},
	"beta":         {Name: "beta", Sensitivity: "Θ(n)", New: newBetaSystem},
}

// TargetNames lists the registered chaos targets, sorted.
func TargetNames() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LookupTarget returns the builder for a registered target.
func LookupTarget(name string) (Builder, error) {
	b, ok := builders[name]
	if !ok {
		return Builder{}, fmt.Errorf("chaos: unknown target %q (have %v)", name, TargetNames())
	}
	return b, nil
}
