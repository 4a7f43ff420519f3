// Package randomwalk implements the synchronous FSSGA random walk of
// Pritchard & Vempala (SPAA 2006), Section 4.4 (Algorithm 4.2). A single
// walker inhabits one node; to move, the walker's neighbours flip coins in
// an elimination tournament — heads are eliminated, tails survive and
// re-flip — until exactly one neighbour remains, which receives the
// walker. When every surviving neighbour flips heads in the same round
// (the "notails" state) the round is re-run so the winner stays uniform.
// A walker at a degree-d node moves after an expected Θ(log d) tournament
// rounds (experiment E7), and the induced walk law is the uniform random
// walk of internal/agent.
package randomwalk

import (
	"fmt"
	"math/rand"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// State is a node's walk state. The four walker states (Flip, Waiting,
// NoTails, OneTails) form Q_w of Equation (6); the rest are neighbour
// states.
type State int8

// States of Algorithm 4.2.
const (
	Blank State = iota
	Heads
	Tails
	Eliminated
	Flip     // walker: "flip!" — neighbours must flip coins
	Waiting  // walker: "waiting-for-flips"
	NoTails  // walker: everyone flipped heads, re-run
	OneTails // walker: exactly one tails — hand the walker over
)

// String returns the state name.
func (s State) String() string {
	names := []string{"blank", "heads", "tails", "eliminated", "flip!", "waiting-for-flips", "notails", "onetails"}
	if int(s) < len(names) {
		return names[s]
	}
	return "invalid"
}

// IsWalker reports whether s is a walker state (s ∈ Q_w).
func IsWalker(s State) bool { return s >= Flip }

// automaton is Algorithm 4.2 as a View-based transition function.
type automaton struct{}

// Step implements fssga.Automaton.
func (automaton) Step(self State, view *fssga.View[State], rnd *rand.Rand) State {
	// "if any neighbour is in a walker state q_w": at most one walker
	// exists, so at most one walker state is visible.
	var wq State
	hasWalker := false
	view.ForEach(func(t State, _ int) {
		if IsWalker(t) {
			//fssga:nondet at most one walker exists in the network (Section 4 invariant), so at most one walker state is ever visible and the overwrite is conflict-free
			wq = t
			hasWalker = true
		}
	})
	if hasWalker {
		switch {
		case wq == Flip && self == Heads:
			return Eliminated
		case wq == Flip && self != Eliminated:
			return coin(rnd)
		case wq == NoTails && self == Heads:
			return coin(rnd)
		case wq == OneTails && self == Tails:
			return Flip // receive the walker
		case wq == OneTails:
			return Blank
		default:
			return self
		}
	}
	switch self {
	case Waiting:
		switch view.Count(2, func(t State) bool { return t == Tails }) {
		case 0:
			return NoTails
		case 1:
			return OneTails // send the walker
		default:
			return Flip
		}
	case NoTails, Flip:
		return Waiting // neighbours flip
	case OneTails:
		return Blank // clear the walker's remains
	default:
		return self
	}
}

func coin(rnd *rand.Rand) State {
	if rnd.Intn(2) == 0 {
		return Heads
	}
	return Tails
}

// Auto returns the walk's transition function, for engines that
// evaluate activations outside a Network. It is randomized: the
// tournament's coins are drawn from the supplied RNG.
func Auto() fssga.Automaton[State] { return automaton{} }

// Tracker runs the walk and maintains the walker's position and move
// statistics — global bookkeeping the finite-state nodes cannot hold.
type Tracker struct {
	Net *fssga.Network[State]
	// Pos is the walker's current node.
	Pos int
	// Moves is the number of completed walker hand-offs.
	Moves int
	// Visited[v] is the number of times the walker has arrived at v
	// (the start counts once).
	Visited []int
	// MoveRounds[i] is the number of synchronous rounds the i-th move
	// took (tournament duration).
	MoveRounds []int
	sinceMove  int
	// Trajectory records the node sequence of walker positions.
	Trajectory []int
}

// New builds a walk network with the walker starting at `start`.
func New(g *graph.Graph, start int, seed int64) (*Tracker, error) {
	if !g.Alive(start) {
		return nil, fmt.Errorf("randomwalk: start node %d is not live", start)
	}
	net := fssga.New[State](g, automaton{}, func(v int) State {
		if v == start {
			return Flip
		}
		return Blank
	}, seed)
	t := &Tracker{
		Net:        net,
		Pos:        start,
		Visited:    make([]int, g.Cap()),
		Trajectory: []int{start},
	}
	t.Visited[start]++
	return t, nil
}

// WalkerAt returns the node currently holding the walker (-1 and false if
// the walker has been destroyed, e.g. by a node fault).
func (t *Tracker) WalkerAt() (int, bool) {
	for v := 0; v < t.Net.G.Cap(); v++ {
		if t.Net.G.Alive(v) && IsWalker(t.Net.State(v)) {
			return v, true
		}
	}
	return -1, false
}

// Round advances the network one synchronous round and updates the
// tracker. It reports whether the walker still exists.
func (t *Tracker) Round() bool {
	t.Net.SyncRound()
	t.sinceMove++
	pos, ok := t.WalkerAt()
	if !ok {
		return false
	}
	if pos != t.Pos {
		t.Pos = pos
		t.Moves++
		t.Visited[pos]++
		t.Trajectory = append(t.Trajectory, pos)
		t.MoveRounds = append(t.MoveRounds, t.sinceMove)
		t.sinceMove = 0
	}
	return true
}

// RunMoves advances until the walker has made `moves` moves, or maxRounds
// synchronous rounds elapse, or the walker dies. It reports the moves
// completed and whether the target count was reached.
func (t *Tracker) RunMoves(moves, maxRounds int) (completed int, ok bool) {
	start := t.Moves
	for r := 0; r < maxRounds; r++ {
		if t.Moves-start >= moves {
			return t.Moves - start, true
		}
		if !t.Round() {
			return t.Moves - start, false
		}
	}
	return t.Moves - start, t.Moves-start >= moves
}

// WalkerCount returns the number of live nodes in walker states — always
// exactly 1 in a fault-free execution (the Section 4.4 invariant).
func (t *Tracker) WalkerCount() int {
	n := 0
	for v := 0; v < t.Net.G.Cap(); v++ {
		if t.Net.G.Alive(v) && IsWalker(t.Net.State(v)) {
			n++
		}
	}
	return n
}
