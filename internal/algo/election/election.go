// Package election implements the randomized leader-election FSSGA of
// Pritchard & Vempala (SPAA 2006), Section 4.7 (Algorithm 4.4).
//
// The algorithm runs in phases. Every node starts "remaining"; in each
// phase each remaining node draws a random label in {0, 1} and grows a BFS
// cluster that propagates its label. Evidence of a second cluster —
// adjacent clusters carrying different root labels, two adjacent roots,
// inconsistent wavefronts, clashing verification colours, or colliding
// verification agents — triggers an NP_i broadcast (i = largest root label
// seen), after which every node advances its mod-3 phase counter; a
// remaining node whose label was 0 is eliminated by an NP_1. There is
// always at least one remaining node, and by Claim 4.1 each non-unique
// remainer is eliminated with probability >= 1/4 per phase, giving
// Θ(log n) phases.
//
// When a root's cluster construction finishes (detected by a completion
// echo wave), the root verifies its uniqueness à la Dolev: it draws a
// fresh random colour every round, the colours flow down the BFS
// successor relation, and any node seeing clashing colours raises NP
// (Claim 4.2: with >= 2 clusters an inconsistency appears within O(n)
// rounds with probability 1 − 2^{-n/2}). To wait the required ~n rounds
// with finite state, the root releases a Milgram traversal agent
// (Section 4.5) and declares itself leader when the agent returns.
//
// One design deviation, recorded in DESIGN.md: the embedded arm/hand agent
// does not use the paper's even/odd clock alternation (which cannot be
// phase-aligned across clusters); instead a newly created hand pauses one
// round (EFresh) so by-arm flags — refreshed every round — are current
// before it elects. The two constructions are behaviourally equivalent and
// the standalone, paper-faithful clocked version lives in
// internal/algo/traversal.
package election

import (
	"math"
	"math/rand"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// MStatus is the embedded Milgram-agent status.
type MStatus int16

// Agent statuses (compare internal/algo/traversal).
const (
	MBlank MStatus = iota
	MByArm
	MArm
	MHand
	MVisited
)

// MElect is the embedded election-tournament sub-state.
type MElect int16

// Tournament sub-states; EFresh is the one-round pause of a new hand.
const (
	ENone MElect = iota
	EFresh
	EHeads
	ETails
	EEliminated
	EFlip
	EWaiting
	ENoTails
	EOneTails
)

// NoDist is the ⋆ value of the BFS distance label.
const NoDist int8 = -1

// NoColour marks a node that has not yet adopted a verification colour.
const NoColour int16 = -1

// NoNP means the node is not currently broadcasting a new-phase signal.
const NoNP int8 = -1

// State is a node's complete election state. All fields have constant
// range, so the state space is finite as the model requires.
//
// The last three fields are int16 so that State is 16 bytes with no
// padding: on amd64 the compiler copies a 13-byte struct as two
// overlapping 8-byte moves, and a read of such a copy stalls on the
// stores before it (fssga.Automaton states the rule; the repository's
// TestStateSizesCopyInWholeWords guards it).
type State struct {
	Started bool  // first activation performed (label drawn)
	Remain  bool  // still a candidate
	Phase   uint8 // phase counter mod 3
	Label   uint8 // this phase's random label (remaining nodes)
	NP      int8  // NoNP, 0 or 1: new-phase broadcast with largest label
	Leader  bool

	// BFS cluster construction.
	Dist      int8  // NoDist or 0..2 (distance to my cluster's root, mod 3)
	RootLabel uint8 // label propagated from the root of my cluster
	Complete  bool  // completion echo has passed me

	// Dolev-style verification colour pulses. Epochs advance under the
	// α-synchronizer discipline (never while a cluster neighbour is an
	// epoch behind), and each epoch carries one root-chosen random
	// colour that floods the cluster by adjacency — sound for a single
	// cluster even when mod-3 distance labels are skew-twisted.
	CEpoch  int8  // pulse counter mod 3
	CColour int16 // NoColour, 0 or 1

	// Embedded Milgram verification agent.
	MSt MStatus
	MEl MElect
}

func (s State) labeled() bool { return s.Dist != NoDist }

// automaton implements Algorithm 4.4. The noVerification flag disables
// the uniqueness-verification channels — the Dolev-style colour clash rule
// and agent-collision detection — leaving only root-label comparison; it
// is the ablation DESIGN.md calls out: without verification, two
// same-label clusters cannot detect each other and duplicate leaders
// persist.
type automaton struct {
	noVerification bool
}

// Step implements fssga.Automaton.
func (a automaton) Step(self State, view *fssga.View[State], rnd *rand.Rand) State {
	// First activation: draw a label and become a root.
	if !self.Started {
		return freshRoot(self, rnd)
	}
	o := observe(self, view)

	// 1. Wait for laggards from the previous phase.
	if o.laggard {
		return self
	}

	// 2. Enter the next phase.
	if self.NP != NoNP || o.ahead {
		if self.NP == 1 && self.Remain && self.Label == 0 {
			self.Remain = false
		}
		self.Phase = (self.Phase + 1) % 3
		self.NP = NoNP
		self.Leader = false
		self.Complete = false
		self.CEpoch = 0
		self.CColour = NoColour
		self.MSt = MBlank
		self.MEl = ENone
		if self.Remain {
			return freshRootKeepPhase(self, rnd)
		}
		self.Dist = NoDist
		self.RootLabel = 0
		return self
	}

	// 3. Raise NP on any evidence of multiple clusters.
	if inconsistent(self, &o, a.noVerification) || o.np {
		if o.one || (self.labeled() && self.RootLabel == 1) {
			self.NP = 1
		} else {
			self.NP = 0
		}
		return self
	}

	// 4. Participate in BFS cluster construction.
	if !self.labeled() {
		// Adopt from a labelled neighbour; minimum (Dist, RootLabel) keeps
		// the step deterministic (genuine conflicts raise NP in arm 3).
		if o.found {
			self.Dist = (o.bestDist + 1) % 3
			self.RootLabel = o.bestLabel
		}
		return self
	}
	if !self.Complete {
		// A node is complete once its whole neighbourhood is labelled.
		// (The paper suggests a completion echo over the BFS successor
		// relation, but staggered phase entry can twist the mod-3
		// distance labels into a successor *cycle*, deadlocking the echo
		// with no inconsistency to detect — observed in the wild on
		// G(64, p). The neighbourhood rule is local and cycle-free; the
		// earlier verification start it permits at worst yields the
		// premature leaders the paper already tolerates, which later
		// colour-pulse clashes demote.)
		if !o.unlabeled {
			self.Complete = true
		}
		return self
	}

	// 5./6. Verification: colours and the Milgram agent.
	if self.Remain && self.Dist == 0 {
		// Root: drive the colour pulses; release the agent once; leader
		// when the agent returns.
		self = colourStep(self, &o, rnd, true)
		switch self.MSt {
		case MBlank:
			self.MSt = MHand
			self.MEl = EFresh
		case MVisited:
			self.Leader = true
		default:
			self = agentStep(self, &o, rnd)
		}
		return self
	}
	// Non-root: follow the colour pulses, then run agent logic.
	self = colourStep(self, &o, rnd, false)
	return agentStep(self, &o, rnd)
}

// freshRoot initializes a node as a remaining root at phase 0.
func freshRoot(s State, rnd *rand.Rand) State {
	s.Started = true
	s.Remain = true
	return freshRootKeepPhase(s, rnd)
}

// freshRootKeepPhase re-roots a remaining node at the start of a phase.
func freshRootKeepPhase(s State, rnd *rand.Rand) State {
	s.Label = uint8(rnd.Intn(2))
	s.Dist = 0
	s.RootLabel = s.Label
	s.Complete = false
	s.CEpoch = 0
	s.CColour = NoColour
	s.NP = NoNP
	s.Leader = false
	s.MSt = MBlank
	s.MEl = ENone
	return s
}

// observation is everything one step reads of its neighbourhood. By
// Theorem 3.7 each rule of Algorithm 4.4 reads a mod-thresh function of
// the neighbour multiset, so all of them together are one fold, and
// observe computes it in one pass over the view. A participant is a
// labelled, complete neighbour: one taking part in verification.
type observation struct {
	laggard bool // arm 1: a started neighbour one phase behind
	ahead   bool // arm 2: a started neighbour one phase ahead

	// Arm 3's evidence (inconsistent) and its NP label.
	otherLabel bool // rule (a): a labelled neighbour with another root label
	root       bool // rule (b): a remaining neighbour at distance 0
	clash      bool // rule (d): an epoch with two colours among self and the participants
	hands      int8 // rule (e): neighbours holding a hand, capped at 2
	np         bool // a neighbour broadcasts NP
	one        bool // a neighbour broadcasts NP_1 or carries root label 1

	// Arm 4: BFS adoption and completion.
	found     bool // some neighbour is labelled
	bestDist  int8 // with bestLabel, the least (Dist, RootLabel) of a labelled neighbour
	bestLabel uint8
	unlabeled bool // some neighbour is unlabelled

	// colourStep.
	gated bool  // a neighbour is no participant, or a participant an epoch behind
	adopt int16 // the least colour of a participant an epoch ahead, NoColour if none

	// agentStep.
	byArm         bool   // a neighbour holds an arm
	sawHand       bool   // a neighbour holds a hand
	handElect     MElect // the tournament sub-state of the last hand in the view's present order
	armOrHand     int8   // neighbours holding an arm or a hand, capped at 2
	blankComplete bool   // a complete neighbour has no agent role
	tails         int8   // blank neighbours that flipped tails, capped at 2
}

// observe folds self's view into the observation Step reads.
func observe(self State, view *fssga.View[State]) observation {
	o := observation{adopt: NoColour}
	behind, ahead := (self.Phase+2)%3, (self.Phase+1)%3
	back, next := (self.CEpoch+2)%3, (self.CEpoch+1)%3
	// Per-epoch colour bounds over self and the participants: an epoch
	// clashes iff its least colour is below its greatest.
	lo := [3]int16{math.MaxInt16, math.MaxInt16, math.MaxInt16}
	hi := [3]int16{NoColour, NoColour, NoColour}
	if self.CColour != NoColour {
		lo[self.CEpoch], hi[self.CEpoch] = self.CColour, self.CColour
	}
	var hands, armOrHand, tails int
	view.ForEach(func(t State, n int) {
		if t.Started {
			if t.Phase == behind {
				o.laggard = true
			}
			if t.Phase == ahead {
				o.ahead = true
			}
		}
		if t.NP != NoNP {
			o.np = true
			if t.NP == 1 {
				o.one = true
			}
		}
		if t.Remain && t.Dist == 0 {
			o.root = true
		}
		if !t.labeled() {
			o.unlabeled = true
			o.gated = true
		} else {
			if t.RootLabel != self.RootLabel {
				o.otherLabel = true
			}
			if t.RootLabel == 1 {
				o.one = true
			}
			if !o.found || t.Dist < o.bestDist || (t.Dist == o.bestDist && t.RootLabel < o.bestLabel) {
				o.found, o.bestDist, o.bestLabel = true, t.Dist, t.RootLabel
			}
			if !t.Complete {
				o.gated = true
			} else {
				if t.CEpoch == back {
					o.gated = true
				}
				if t.CColour != NoColour {
					if t.CColour < lo[t.CEpoch] {
						lo[t.CEpoch] = t.CColour
					}
					if t.CColour > hi[t.CEpoch] {
						hi[t.CEpoch] = t.CColour
					}
					if t.CEpoch == next && (o.adopt == NoColour || t.CColour < o.adopt) {
						o.adopt = t.CColour
					}
				}
			}
		}
		switch t.MSt {
		case MBlank:
			if t.Complete {
				o.blankComplete = true
			}
			if t.MEl == ETails {
				tails += n
			}
		case MArm:
			o.byArm = true
			armOrHand += n
		case MHand:
			hands += n
			armOrHand += n
			o.sawHand = true
			//fssga:nondet two adjacent hands raise NP via the hand-collision rule before this read matters; with at most one hand visible the capture is conflict-free
			o.handElect = t.MEl
		}
	})
	o.hands, o.armOrHand, o.tails = int8(min(hands, 2)), int8(min(armOrHand, 2)), int8(min(tails, 2))
	o.clash = lo[0] < hi[0] || lo[1] < hi[1] || lo[2] < hi[2]
	return o
}

// inconsistent detects local evidence that more than one cluster (root)
// exists: the triggers of Algorithm 4.4.
func inconsistent(self State, o *observation, noVerification bool) bool {
	// (a) Adjacent clusters with different root labels.
	if self.labeled() && o.otherLabel {
		return true
	}
	// (b) Two adjacent roots. Only remaining nodes are roots: an
	// eliminated node at true distance 3 also carries Dist ≡ 0 (mod 3),
	// so the Remain flag is what distinguishes a real root.
	if self.Remain && self.Dist == 0 && o.root {
		return true
	}
	// NOTE: one might expect an "unlabelled node sees two different
	// wavefront distances" rule here, but phases begin via an NP wave, so
	// nodes enter a phase at staggered times and a late joiner routinely
	// sees mixed distances from a single legitimate root. Such a rule
	// would raise a false NP every phase; multi-root evidence is instead
	// caught by (a), (b), (d) and (e).
	if noVerification {
		return false
	}
	// (d) Colour-pulse clashes: within a single cluster every node in
	// epoch e carries the root's e-colour, so two same-epoch
	// participants with different colours witness a second root. The
	// comparison covers self-vs-neighbour and neighbour-vs-neighbour.
	if self.labeled() && self.Complete && o.clash {
		return true
	}
	// (e) Colliding verification agents: two hands visible, or I hold a
	// hand and see another.
	return o.hands >= 2 || (self.MSt == MHand && o.hands >= 1)
}

// colourStep advances the Dolev-style colour-pulse machinery for one
// verification participant. Epochs follow the α-synchronizer discipline:
// a node never advances while a cluster neighbour is an epoch behind (or
// not yet complete), so adjacent in-cluster epochs differ by at most one
// and the mod-3 representation is unambiguous. The root mints a fresh
// random colour per epoch; everyone else copies the colour from an
// epoch-ahead neighbour, so within one cluster "same epoch" implies
// "same colour" — the soundness the clash rule (d) relies on.
func colourStep(self State, o *observation, rnd *rand.Rand, isRoot bool) State {
	if isRoot {
		if self.CColour == NoColour {
			self.CColour = int16(rnd.Intn(2)) // epoch 0 colour
			return self
		}
		if !o.gated {
			self.CEpoch = (self.CEpoch + 1) % 3
			self.CColour = int16(rnd.Intn(2))
		}
		return self
	}
	if !o.gated && o.adopt != NoColour {
		self.CEpoch = (self.CEpoch + 1) % 3
		self.CColour = o.adopt
	}
	return self
}

// agentStep runs one step of the embedded (parity-free) Milgram machinery
// for a verification participant.
func agentStep(self State, o *observation, rnd *rand.Rand) State {
	switch self.MSt {
	case MBlank, MByArm:
		// Refresh the by-arm flag every round.
		if o.byArm {
			self.MSt = MByArm
			self.MEl = ENone
			return self
		}
		self.MSt = MBlank
		// Contestant logic: react to an adjacent hand.
		if !o.sawHand {
			self.MEl = ENone
			return self
		}
		switch o.handElect {
		case EFlip:
			if self.MEl == EHeads {
				self.MEl = EEliminated
			} else if self.MEl != EEliminated {
				self.MEl = coinElect(rnd)
			}
		case ENoTails:
			if self.MEl == EHeads {
				self.MEl = coinElect(rnd)
			}
		case EOneTails:
			if self.MEl == ETails {
				self.MSt = MHand
				self.MEl = EFresh
			} else {
				self.MEl = ENone
			}
		}
		return self

	case MArm:
		isRoot := self.Dist == 0 && self.Remain
		if (!isRoot && o.armOrHand <= 1) || (isRoot && o.armOrHand == 0) {
			self.MSt = MHand
			self.MEl = EFresh
		}
		return self

	case MHand:
		switch self.MEl {
		case EFresh:
			self.MEl = ENone
		case ENone:
			if !o.blankComplete {
				self.MSt = MVisited
				self.MEl = ENone
			} else {
				self.MEl = EFlip
			}
		case EFlip, ENoTails:
			self.MEl = EWaiting
		case EWaiting:
			switch o.tails {
			case 0:
				self.MEl = ENoTails
			case 1:
				self.MEl = EOneTails
			default:
				self.MEl = EFlip
			}
		case EOneTails:
			self.MSt = MArm
			self.MEl = ENone
		}
		return self

	default: // MVisited
		return self
	}
}

func coinElect(rnd *rand.Rand) MElect {
	if rnd.Intn(2) == 0 {
		return EHeads
	}
	return ETails
}

// Tracker runs an election and keeps global statistics the finite-state
// nodes cannot hold.
type Tracker struct {
	Net *fssga.Network[State]
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Phases is the number of phase transitions observed anywhere.
	Phases int
	// RemainingPerPhase[i] is the number of remaining nodes when phase i
	// was first observed (index 0 = initial).
	RemainingPerPhase []int
}

// Auto returns the election transition function, for engines (like the
// bounded model checker, internal/mc) that evaluate activations outside a
// Network. Unlike the other algorithms' automata this one is randomized —
// it consults the RNG for labels, colours, and coin flips — so callers
// must supply a deterministic per-activation RNG to get replayable runs.
func Auto() fssga.Automaton[State] { return automaton{} }

// New builds an election network over g.
func New(g *graph.Graph, seed int64) *Tracker {
	return newTracker(g, seed, false)
}

// NewWithoutVerification builds the ablated election of DESIGN.md:
// identical except that the uniqueness-verification channels (the Dolev
// colour-clash rule and agent-collision detection) are disabled, leaving
// only root-label comparison. Used by tests and benches to show the
// verification is load-bearing — without it, same-label clusters go
// undetected and multiple stable leaders can persist.
func NewWithoutVerification(g *graph.Graph, seed int64) *Tracker {
	return newTracker(g, seed, true)
}

func newTracker(g *graph.Graph, seed int64, noVerification bool) *Tracker {
	net := fssga.New[State](g, automaton{noVerification: noVerification}, func(v int) State { return State{} }, seed)
	t := &Tracker{Net: net}
	t.RemainingPerPhase = append(t.RemainingPerPhase, g.NumNodes())
	return t
}

// Remaining returns the current number of remaining live nodes.
func (t *Tracker) Remaining() int {
	c := t.Net.Topology()
	n := 0
	for v := 0; v < c.Cap(); v++ {
		if c.Alive(v) {
			s := t.Net.State(v)
			if !s.Started || s.Remain {
				n++
			}
		}
	}
	return n
}

// Leaders returns the live nodes currently in the leader state.
func (t *Tracker) Leaders() []int {
	c := t.Net.Topology()
	var ls []int
	for v := 0; v < c.Cap(); v++ {
		if c.Alive(v) && t.Net.State(v).Leader {
			ls = append(ls, v)
		}
	}
	return ls
}

// probeNode returns the live node with the smallest ID, or -1 if none is
// live. Round counts a phase change whenever this node's phase counter
// moves.
func (t *Tracker) probeNode() int {
	c := t.Net.Topology()
	for v := 0; v < c.Cap(); v++ {
		if c.Alive(v) {
			return v
		}
	}
	return -1
}

// Round advances one synchronous round, updating phase statistics.
func (t *Tracker) Round() {
	probe := t.probeNode()
	var before uint8
	if probe >= 0 {
		before = t.Net.State(probe).Phase
	}
	t.Net.SyncRound()
	t.Rounds++
	if probe >= 0 {
		after := t.Net.State(probe).Phase
		if after != before {
			t.Phases++
			t.RemainingPerPhase = append(t.RemainingPerPhase, t.Remaining())
		}
	}
}

// Run executes rounds until a single stable leader has persisted for
// `stableFor` consecutive rounds, or maxRounds elapse. It reports the
// rounds used and whether a stable unique leader was reached.
func (t *Tracker) Run(maxRounds, stableFor int) (rounds int, elected bool) {
	stable := 0
	for r := 0; r < maxRounds; r++ {
		t.Round()
		if ls := t.Leaders(); len(ls) == 1 && t.Remaining() == 1 {
			stable++
			if stable >= stableFor {
				return t.Rounds, true
			}
		} else {
			stable = 0
		}
	}
	return t.Rounds, false
}
