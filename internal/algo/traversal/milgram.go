// Package traversal implements the two graph-traversal algorithms of
// Pritchard & Vempala (SPAA 2006):
//
//   - Milgram's arm/hand traversal (Section 4.5, Algorithm 4.3): an "arm"
//     — an induced path of nodes rooted at the originator — extends onto
//     blank nodes chosen by the random-walk election tournament and
//     retracts when stuck, marking its endpoint visited. The hand moves
//     exactly 2n-2 times and the traversal takes O(n log n) rounds, but
//     the algorithm has sensitivity Θ(n): killing any arm node breaks it.
//
//   - The greedy tourist (Section 4.6): an agent that always follows a
//     shortest path (maintained by the distance-label automaton of
//     Section 2.2 toward the shrinking unvisited set) to the nearest
//     unvisited node. Slightly slower — O(n log² n) — but sensitivity 1.
package traversal

import (
	"fmt"
	"math/rand"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// Status is a node's role in Milgram's traversal.
type Status int8

// Statuses of Algorithm 4.3.
const (
	Blank Status = iota
	ByArm
	Arm
	Hand
	Visited
)

// String returns the status name.
func (s Status) String() string {
	names := []string{"blank", "by-arm", "arm", "hand", "visited"}
	if int(s) < len(names) {
		return names[s]
	}
	return "invalid"
}

// Elect is the embedded election sub-state, the Section 4.4 coin-flip
// tournament "called as a subroutine" to pick a unique blank neighbour.
type Elect int8

// Election sub-states. The hand cycles EFlip → EWaiting → {ENoTails,
// EOneTails, EFlip}; blank contestants hold EHeads/ETails/EEliminated.
const (
	ENone Elect = iota
	EHeads
	ETails
	EEliminated
	EFlip
	EWaiting
	ENoTails
	EOneTails
)

// String returns the election sub-state name.
func (e Elect) String() string {
	names := []string{"-", "heads", "tails", "eliminated", "flip!", "waiting", "notails", "onetails"}
	if int(e) < len(names) {
		return names[e]
	}
	return "invalid"
}

// MilgramState is a node's full state: the fixed originator flag, the
// traversal status, the election sub-state, and a mod-2 clock. All nodes
// tick the clock every synchronous round, so it stays globally aligned and
// implements the paper's "current time is even/odd" alternation (the
// synchronizer counter trick) with finite state.
type MilgramState struct {
	Originator bool
	Status     Status
	Elect      Elect
	Clock      uint8 // mod 2: 0 = even step (by-arm update), 1 = odd (agent)
}

// milgramAutomaton is Algorithm 4.3 plus the embedded election.
type milgramAutomaton struct{}

func isArmOrHand(t MilgramState) bool { return t.Status == Arm || t.Status == Hand }

// Step implements fssga.Automaton.
func (milgramAutomaton) Step(self MilgramState, view *fssga.View[MilgramState], rnd *rand.Rand) MilgramState {
	next := self
	next.Clock = (self.Clock + 1) % 2

	if self.Clock == 0 {
		// Even time: refresh the by-arm flag of unvisited non-arm nodes,
		// preserving the "arm never touches itself" invariant.
		if self.Status == Blank || self.Status == ByArm {
			if view.Any(func(t MilgramState) bool { return t.Status == Arm }) {
				next.Status = ByArm
			} else {
				next.Status = Blank
			}
		}
		return next
	}

	// Odd time: the agent acts.
	switch self.Status {
	case Arm:
		armHand := view.Count(2, isArmOrHand)
		if (!self.Originator && armHand <= 1) || (self.Originator && armHand == 0) {
			next.Status = Hand // retract: the arm's far end becomes the hand
			next.Elect = ENone
		}

	case Hand:
		switch self.Elect {
		case ENone:
			if view.None(func(t MilgramState) bool { return t.Status == Blank }) {
				next.Status = Visited // retract: nothing to extend onto
				next.Elect = ENone
			} else {
				next.Elect = EFlip // start electing a blank neighbour
			}
		case EFlip, ENoTails:
			next.Elect = EWaiting
		case EWaiting:
			tails := view.Count(2, func(t MilgramState) bool {
				return t.Status == Blank && t.Elect == ETails
			})
			switch tails {
			case 0:
				next.Elect = ENoTails
			case 1:
				next.Elect = EOneTails
			default:
				next.Elect = EFlip
			}
		case EOneTails:
			next.Status = Arm // the elected neighbour takes over as hand
			next.Elect = ENone
		}

	case Blank:
		// Contestant logic: react to an adjacent hand's election state.
		var handElect Elect
		sawHand := false
		view.ForEach(func(t MilgramState, _ int) {
			if t.Status == Hand {
				//fssga:nondet the traversal keeps a single hand alive (arm/hand collision aborts first); at most one hand state is visible, so the capture is conflict-free
				handElect = t.Elect
				sawHand = true
			}
		})
		if !sawHand {
			next.Elect = ENone
			break
		}
		switch handElect {
		case EFlip:
			if self.Elect == EHeads {
				next.Elect = EEliminated
			} else if self.Elect != EEliminated {
				next.Elect = coinElect(rnd)
			}
		case ENoTails:
			if self.Elect == EHeads {
				next.Elect = coinElect(rnd)
			}
		case EOneTails:
			if self.Elect == ETails {
				next.Status = Hand // elected: extend the arm onto me
				next.Elect = ENone
			} else {
				next.Elect = ENone
			}
		}
		// EWaiting / ENone: hold.
	}
	// ByArm and Visited nodes do nothing on odd steps.
	return next
}

func coinElect(rnd *rand.Rand) Elect {
	if rnd.Intn(2) == 0 {
		return EHeads
	}
	return ETails
}

// MilgramAuto returns the traversal's transition function, for engines
// that evaluate activations outside a Network. It is randomized: the
// next-hop election's coins are drawn from the supplied RNG.
func MilgramAuto() fssga.Automaton[MilgramState] { return milgramAutomaton{} }

// MilgramTracker runs the traversal and maintains global bookkeeping: the
// hand's position, its move count, and the visit set.
type MilgramTracker struct {
	Net        *fssga.Network[MilgramState]
	Originator int
	// HandPos is the node currently holding the hand (-1 if none).
	HandPos int
	// HandMoves counts changes of the hand's location (extensions plus
	// retractions; the paper proves exactly 2n-2 in total).
	HandMoves int
	// Rounds is the number of synchronous rounds executed.
	Rounds int
}

// NewMilgram builds a traversal network with the given originator.
func NewMilgram(g *graph.Graph, originator int, seed int64) (*MilgramTracker, error) {
	if !g.Alive(originator) {
		return nil, fmt.Errorf("traversal: originator %d is not live", originator)
	}
	net := fssga.New[MilgramState](g, milgramAutomaton{}, func(v int) MilgramState {
		s := MilgramState{Originator: v == originator, Status: Blank}
		if v == originator {
			s.Status = Hand
		}
		return s
	}, seed)
	return &MilgramTracker{Net: net, Originator: originator, HandPos: originator}, nil
}

// handAt locates the hand (-1 if absent).
func (t *MilgramTracker) handAt() int {
	for v := 0; v < t.Net.G.Cap(); v++ {
		if t.Net.G.Alive(v) && t.Net.State(v).Status == Hand {
			return v
		}
	}
	return -1
}

// Round advances one synchronous round and updates the bookkeeping.
func (t *MilgramTracker) Round() {
	t.Net.SyncRound()
	t.Rounds++
	if pos := t.handAt(); pos != -1 && pos != t.HandPos {
		t.HandPos = pos
		t.HandMoves++
	} else if pos == -1 {
		t.HandPos = -1
	}
}

// Done reports whether the traversal has terminated: the originator has
// status visited.
func (t *MilgramTracker) Done() bool {
	return t.Net.State(t.Originator).Status == Visited
}

// Run executes rounds until termination or maxRounds, reporting the
// rounds used and whether the traversal completed.
func (t *MilgramTracker) Run(maxRounds int) (rounds int, completed bool) {
	for r := 0; r < maxRounds; r++ {
		if t.Done() {
			return t.Rounds, true
		}
		t.Round()
	}
	return t.Rounds, t.Done()
}

// VisitedCount returns the number of live nodes with status visited.
func (t *MilgramTracker) VisitedCount() int {
	n := 0
	for v := 0; v < t.Net.G.Cap(); v++ {
		if t.Net.G.Alive(v) && t.Net.State(v).Status == Visited {
			n++
		}
	}
	return n
}

// ArmIsInducedPath verifies Milgram's structural invariant: the arm/hand
// nodes form a path v_0..v_k with v_0 the originator, consecutive nodes
// adjacent, and no other adjacencies among them ("the arm never touches or
// crosses itself").
func (t *MilgramTracker) ArmIsInducedPath() error {
	g := t.Net.G
	var members []int
	for v := 0; v < g.Cap(); v++ {
		if g.Alive(v) && isArmOrHand(t.Net.State(v)) {
			members = append(members, v)
		}
	}
	if len(members) == 0 {
		return nil // between retraction and termination the arm may be empty
	}
	inArm := make(map[int]bool, len(members))
	for _, v := range members {
		inArm[v] = true
	}
	if !inArm[t.Originator] && t.Net.State(t.Originator).Status != Visited {
		return fmt.Errorf("traversal: nonempty arm not rooted at originator")
	}
	// Each member must have <= 2 arm neighbours; ends exactly 1 (or 0 for
	// a singleton), and the member count with 1 arm-neighbour must be 2
	// (or the arm is a single node).
	if len(members) == 1 {
		return nil
	}
	ends := 0
	for _, v := range members {
		deg := 0
		for _, u := range g.SortedNeighbors(v, nil) {
			if inArm[u] {
				deg++
			}
		}
		switch deg {
		case 1:
			ends++
		case 2:
			// interior: fine
		default:
			return fmt.Errorf("traversal: arm node %d has %d arm-neighbours (arm touches itself)", v, deg)
		}
	}
	if ends != 2 {
		return fmt.Errorf("traversal: arm has %d endpoints, want 2", ends)
	}
	return nil
}
