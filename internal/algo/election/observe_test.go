package election

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fssga"
)

// randomState draws a state with every field in its range. Each field
// keeps base's value with probability keep/10: neighbours drawn near
// self often share its phase and cluster, so a step reaches its later
// arms.
func randomState(r *rand.Rand, base State, keep int) State {
	s := base
	kept := func() bool { return r.Intn(10) < keep }
	if !kept() {
		s.Started = r.Intn(8) != 0
	}
	if !kept() {
		s.Remain = r.Intn(2) == 0
	}
	if !kept() {
		s.Phase = uint8(r.Intn(3))
	}
	if !kept() {
		s.Label = uint8(r.Intn(2))
	}
	if !kept() {
		s.NP = int8(r.Intn(3)) - 1
	}
	if !kept() {
		s.Leader = r.Intn(2) == 0
	}
	if !kept() {
		s.Dist = int8(r.Intn(4)) - 1
	}
	if !kept() {
		s.RootLabel = uint8(r.Intn(2))
	}
	if !kept() {
		s.Complete = r.Intn(2) == 0
	}
	if !kept() {
		s.CEpoch = int8(r.Intn(3))
	}
	if !kept() {
		s.CColour = int16(r.Intn(3)) - 1
	}
	if !kept() {
		s.MSt = MStatus(r.Intn(5))
	}
	if !kept() {
		s.MEl = MElect(r.Intn(9))
	}
	return s
}

// observationByDefinition computes every field of observe's record from
// its definition, by plain loops over the neighbour list.
func observationByDefinition(self State, nbrs []State) observation {
	exists := func(pred func(State) bool) bool {
		for _, t := range nbrs {
			if pred(t) {
				return true
			}
		}
		return false
	}
	upTo2 := func(pred func(State) bool) int8 {
		n := int8(0)
		for _, t := range nbrs {
			if pred(t) && n < 2 {
				n++
			}
		}
		return n
	}
	participant := func(t State) bool { return t.labeled() && t.Complete }
	o := observation{
		laggard:    exists(func(t State) bool { return t.Started && t.Phase == (self.Phase+2)%3 }),
		ahead:      exists(func(t State) bool { return t.Started && t.Phase == (self.Phase+1)%3 }),
		otherLabel: exists(func(t State) bool { return t.labeled() && t.RootLabel != self.RootLabel }),
		root:       exists(func(t State) bool { return t.Remain && t.Dist == 0 }),
		hands:      upTo2(func(t State) bool { return t.MSt == MHand }),
		np:         exists(func(t State) bool { return t.NP != NoNP }),
		one:        exists(func(t State) bool { return t.NP == 1 || (t.labeled() && t.RootLabel == 1) }),
		unlabeled:  exists(func(t State) bool { return !t.labeled() }),
		gated:      exists(func(t State) bool { return !participant(t) || t.CEpoch == (self.CEpoch+2)%3 }),
		adopt:      NoColour,
		byArm:      exists(func(t State) bool { return t.MSt == MArm }),
		sawHand:    exists(func(t State) bool { return t.MSt == MHand }),
		armOrHand:  upTo2(func(t State) bool { return t.MSt == MArm || t.MSt == MHand }),
		blankComplete: exists(func(t State) bool {
			return t.MSt == MBlank && t.Complete
		}),
		tails: upTo2(func(t State) bool { return t.MSt == MBlank && t.MEl == ETails }),
	}
	// A clash is two coloured participants, or self and one, in the same
	// epoch with different colours.
	var coloured []State
	if self.CColour != NoColour {
		coloured = append(coloured, self)
	}
	for _, t := range nbrs {
		if participant(t) && t.CColour != NoColour {
			coloured = append(coloured, t)
		}
	}
	for i, a := range coloured {
		for _, b := range coloured[i+1:] {
			if a.CEpoch == b.CEpoch && a.CColour != b.CColour {
				o.clash = true
			}
		}
	}
	for _, t := range nbrs {
		if t.labeled() && (!o.found || t.Dist < o.bestDist || (t.Dist == o.bestDist && t.RootLabel < o.bestLabel)) {
			o.found, o.bestDist, o.bestLabel = true, t.Dist, t.RootLabel
		}
		if participant(t) && t.CEpoch == (self.CEpoch+1)%3 && t.CColour != NoColour &&
			(o.adopt == NoColour || t.CColour < o.adopt) {
			o.adopt = t.CColour
		}
	}
	// The hand capture is the last hand in the view's present order,
	// which for NewView is the order of first occurrence in the list.
	var distinct []State
	for _, t := range nbrs {
		if !slices.Contains(distinct, t) {
			distinct = append(distinct, t)
		}
	}
	for _, t := range distinct {
		if t.MSt == MHand {
			o.handElect = t.MEl
		}
	}
	return o
}

// TestObserveMatchesDefinitions holds observe's one-pass fold to the
// definition of every field it records, on random selves and random
// neighbour lists of up to six distinct states with multiplicities up
// to 5, shuffled. It covers the caps at 2 and the last-wins hand
// capture in present order.
func TestObserveMatchesDefinitions(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		self := randomState(r, State{}, 0)
		if i%4 != 0 {
			self.Started, self.NP = true, NoNP
		}
		var nbrs []State
		for k := 1 + r.Intn(6); k > 0; k-- {
			s := randomState(r, self, 7)
			for m := 1 + r.Intn(5); m > 0; m-- {
				nbrs = append(nbrs, s)
			}
		}
		r.Shuffle(len(nbrs), func(a, b int) { nbrs[a], nbrs[b] = nbrs[b], nbrs[a] })
		got := observe(self, fssga.NewView(nbrs))
		if want := observationByDefinition(self, nbrs); got != want {
			t.Fatalf("self %+v, neighbours %+v:\nobserve    %+v\ndefinition %+v", self, nbrs, got, want)
		}
	}
}
