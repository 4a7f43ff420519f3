package repro

import (
	"testing"
	"unsafe"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/randomwalk"
	"repro/internal/algo/shortestpath"
	"repro/internal/algo/synchronizer"
	"repro/internal/algo/traversal"
	"repro/internal/algo/twocolor"
	"repro/internal/iwa"
)

// overlappingCopy reports whether the amd64 backend copies a value of
// the given size with two moves that overlap. It encodes these rules of
// cmd/compile/internal/ssa/_gen/AMD64.rules (Go 1.24):
//
//	(Move [7] dst src mem) => (MOVLstore [3] … (MOVLstore …))
//	(Move [11] dst src mem) => (MOVLstore [7] … (MOVQstore …))
//	(Move [s] dst src mem) && s >= 13 && s <= 15 => (MOVQstore [int32(s-8)] … (MOVQstore …))
//	(Move [s] dst src mem) && s > 16 && s%16 != 0 && s%16 <= 8 => (Move [s-s%16] (OffPtr … [s%16]) … (MOVQstore …))
//	(Move [s] dst src mem) && s > 16 && s%16 != 0 && s%16 > 8 && config.useSSE => (Move [s-s%16] (OffPtr … [s%16]) … (MOVOstore …))
//
// The last two copy the first 8 or 16 bytes and then the rest from
// offset s%16, which overlaps unless s%16 == 8. Every other size is
// copied in disjoint pieces. A read that follows such a copy spans two
// stores, so store-to-load forwarding fails and the read stalls.
func overlappingCopy(size uintptr) bool {
	switch {
	case size == 7, size == 11, size >= 13 && size <= 15:
		return true
	case size > 16:
		return size%8 != 0
	}
	return false
}

// thirteenBytes has election.State's old layout: 13 one-byte fields.
type thirteenBytes struct {
	a, b, c, d, e, f, g, h, i, j, k, l, m uint8
}

// TestStateSizesCopyInWholeWords guards the state layout rule of
// fssga.Automaton: no state type a repository automaton runs on may have
// a size the compiler copies with overlapping moves. election.State at
// 13 bytes cost a third of every election-grid round (EXPERIMENTS.md,
// "Election state in whole words").
func TestStateSizesCopyInWholeWords(t *testing.T) {
	cases := []struct {
		name        string
		size        uintptr
		overlapping bool
	}{
		{"bfs.State", unsafe.Sizeof(bfs.State{}), false},
		{"census.State", unsafe.Sizeof(census.State{}), false},
		{"election.State", unsafe.Sizeof(election.State{}), false},
		{"randomwalk.State", unsafe.Sizeof(randomwalk.State(0)), false},
		{"shortestpath.State", unsafe.Sizeof(shortestpath.State{}), false},
		{"synchronizer.State[int]", unsafe.Sizeof(synchronizer.State[int]{}), false},
		{"traversal.MilgramState", unsafe.Sizeof(traversal.MilgramState{}), false},
		{"traversal.TouristState", unsafe.Sizeof(traversal.TouristState{}), false},
		{"twocolor.State", unsafe.Sizeof(twocolor.State(0)), false},
		{"iwa.SimState", unsafe.Sizeof(iwa.SimState{}), false},
		{"int (chaos, exp and fssga-bench automata)", unsafe.Sizeof(int(0)), false},
		{"thirteenBytes", unsafe.Sizeof(thirteenBytes{}), true},
	}
	for _, c := range cases {
		if got := overlappingCopy(c.size); got != c.overlapping {
			t.Errorf("%s: %d bytes, overlapping copy %v, want %v", c.name, c.size, got, c.overlapping)
		}
	}
}
