// Package bfs implements the breadth-first-search FSSGA of Pritchard &
// Vempala (SPAA 2006), Section 4.3 (Algorithm 4.1): a wave of mod-3
// distance labels expands from a unique originator; a node whose label is
// one more (mod 3) than a neighbour's is that neighbour's successor. A
// target node that gets labelled reports "found", and the report
// propagates back to the originator along predecessor links; if the wave
// exhausts the component without finding a target, "failed" propagates
// back instead.
//
// One timing refinement over the paper's prose: the "all successors have
// failed" rule additionally requires that no neighbour is still
// unlabelled — an unlabelled neighbour is a future successor, and without
// the conjunct a frontier node would vacuously fail one round before its
// successors label themselves.
package bfs

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// Status is a node's search status.
type Status int8

// Statuses of Algorithm 4.1.
const (
	Waiting Status = iota
	Found
	Failed
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Waiting:
		return "waiting"
	case Found:
		return "found"
	case Failed:
		return "failed"
	default:
		return "invalid"
	}
}

// NoLabel is the ⋆ label of an unlabelled node.
const NoLabel int8 = -1

// State is a node's BFS state: the fixed originator/target booleans, the
// mod-3 distance label (or ⋆), and the search status.
type State struct {
	Originator bool
	Target     bool
	Label      int8 // 0, 1, 2, or NoLabel
	Status     Status
}

// succ reports whether a neighbour state t is a successor of a node in
// state s (its label is one more, mod 3).
func succ(s, t State) bool {
	return s.Label != NoLabel && t.Label != NoLabel && t.Label == (s.Label+1)%3
}

// pred reports whether t is a predecessor of s.
func pred(s, t State) bool {
	return s.Label != NoLabel && t.Label != NoLabel && t.Label == (s.Label+2)%3
}

// automaton is Algorithm 4.1 as a View-based transition function. Its
// 48 states (Originator × Target × Label × Status) need no enumeration:
// the network numbers the states that occur, and BFS rounds run on the
// engine's one zero-allocation view path.
type automaton struct{}

// Step implements fssga.Automaton.
func (automaton) Step(self State, view *fssga.View[State], rnd *rand.Rand) State {
	switch {
	case self.Originator && self.Label == NoLabel:
		self.Label = 0
		if self.Target {
			self.Status = Found
		}
		return self

	case self.Label == NoLabel:
		// Adopt (x+1) mod 3 from any labelled neighbour; in a synchronous
		// execution all labelled neighbours of an unlabelled node carry
		// the same label, so the choice is canonical.
		// In a synchronous execution all labelled neighbours of an
		// unlabelled node carry the same label; taking the minimum keeps
		// the step deterministic under arbitrary schedules too.
		x := int8(-1)
		view.ForEach(func(t State, _ int) {
			if t.Label != NoLabel && (x < 0 || t.Label < x) {
				x = t.Label
			}
		})
		if x < 0 {
			return self // wave has not arrived yet
		}
		self.Label = (x + 1) % 3
		if self.Target {
			self.Status = Found
		}
		return self

	case self.Status == Waiting && view.Any(func(t State) bool { return pred(self, t) && t.Status == Found }):
		// A predecessor already reported found: the wave passed us by.
		// Do nothing, avoiding non-shortest-path reports.
		return self

	case self.Status == Waiting && view.Any(func(t State) bool { return succ(self, t) && t.Status == Found }):
		self.Status = Found
		return self

	case self.Status == Waiting &&
		view.None(func(t State) bool { return t.Label == NoLabel }) &&
		view.All(func(t State) bool { return !succ(self, t) || t.Status == Failed }):
		// Every successor failed and no neighbour remains unlabelled
		// (zero successors count as all-failed: the frontier base case).
		self.Status = Failed
		return self

	default:
		return self
	}
}

// Regressed reports an invariant-violating transition from old to next:
// the Originator/Target flags are immutable, a label never changes once
// assigned, and the status only moves Waiting→{Found, Failed} and then
// freezes. These hold under arbitrary decreasing faults, so the chaos
// harness checks them every round. It returns "" for a legal transition.
func Regressed(old, next State) string {
	if old.Originator != next.Originator || old.Target != next.Target {
		return fmt.Sprintf("immutable flags changed: %+v -> %+v", old, next)
	}
	if old.Label != NoLabel && next.Label != old.Label {
		return fmt.Sprintf("assigned label changed: %d -> %d", old.Label, next.Label)
	}
	if old.Status != Waiting && next.Status != old.Status {
		return fmt.Sprintf("status regressed: %v -> %v", old.Status, next.Status)
	}
	if next.Label == NoLabel && old.Label != NoLabel {
		return fmt.Sprintf("label erased: %d -> none", old.Label)
	}
	return ""
}

// Auto returns the BFS transition function, for engines (like the bounded
// model checker, internal/mc) that evaluate activations outside a Network.
// The automaton is deterministic: it never consults the RNG.
func Auto() fssga.Automaton[State] { return automaton{} }

// NewNetwork builds a BFS network with the given originator and target
// set. Targets may be empty (pure BFS labelling; the originator then ends
// Failed once the wave exhausts its component).
func NewNetwork(g *graph.Graph, originator int, targets []int, seed int64) (*fssga.Network[State], error) {
	if !g.Alive(originator) {
		return nil, fmt.Errorf("bfs: originator %d is not a live node", originator)
	}
	for _, t := range targets {
		if !g.Alive(t) {
			return nil, fmt.Errorf("bfs: target %d is not a live node", t)
		}
	}
	// Target sets are a handful of nodes, so a scan per node costs less
	// than a map lookup.
	return fssga.New[State](g, automaton{}, func(v int) State {
		return State{
			Originator: v == originator,
			Target:     slices.Contains(targets, v),
			Label:      NoLabel,
			Status:     Waiting,
		}
	}, seed), nil
}

// Result summarizes a BFS run.
type Result struct {
	Rounds    int
	Converged bool
	// Found is the originator's final verdict: true if some target was
	// reached by the wave.
	Found bool
	// Labels[v] is the final mod-3 label (NoLabel for unlabelled/dead).
	Labels []int8
	// Statuses[v] is the final status of each node.
	Statuses []Status
}

// Run executes the search synchronously to quiescence (or maxRounds).
func Run(g *graph.Graph, originator int, targets []int, maxRounds int, seed int64) (Result, error) {
	net, err := NewNetwork(g, originator, targets, seed)
	if err != nil {
		return Result{}, err
	}
	rounds, finished := net.RunSyncUntilQuiescent(maxRounds)
	res := Result{
		Rounds:    rounds,
		Converged: finished,
		Labels:    make([]int8, g.Cap()),
		Statuses:  make([]Status, g.Cap()),
	}
	for v := 0; v < g.Cap(); v++ {
		s := net.State(v)
		res.Labels[v] = s.Label
		res.Statuses[v] = s.Status
		if !g.Alive(v) {
			res.Labels[v] = NoLabel
		}
	}
	res.Found = res.Statuses[originator] == Found
	return res, nil
}
