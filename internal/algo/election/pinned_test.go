package election

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// trajectoryDigest is an FNV-1a hash of every state of every round of a
// run, in round and node order.
type trajectoryDigest struct {
	rounds int
	sum    uint64
}

// pinnedRun runs tr with round until one leader and one remainer have
// held for 8 consecutive rounds, or for exactly fixed rounds when fixed
// is positive, hashing the states after every round.
func pinnedRun(t *testing.T, tr *Tracker, round func(), fixed int) trajectoryDigest {
	t.Helper()
	h := fnv.New64a()
	buf := make([]byte, 0, 13)
	b := func(x bool) byte {
		if x {
			return 1
		}
		return 0
	}
	const maxRounds, stableFor = 100000, 8
	stable := 0
	for r := 1; r <= maxRounds; r++ {
		round()
		for _, s := range tr.Net.States() {
			buf = append(buf[:0], b(s.Started), b(s.Remain), s.Phase, s.Label, byte(s.NP), b(s.Leader),
				byte(s.Dist), s.RootLabel, b(s.Complete), byte(s.CEpoch), byte(s.CColour), byte(s.MSt), byte(s.MEl))
			h.Write(buf)
		}
		if fixed > 0 {
			if r == fixed {
				return trajectoryDigest{r, h.Sum64()}
			}
			continue
		}
		if len(tr.Leaders()) == 1 && tr.Remaining() == 1 {
			stable++
			if stable == stableFor {
				return trajectoryDigest{r, h.Sum64()}
			}
		} else {
			stable = 0
		}
	}
	t.Fatalf("no stable leader in %d rounds", maxRounds)
	return trajectoryDigest{}
}

// TestStepTrajectoriesPinned pins the whole trajectory of election runs
// — the round count and a digest of every round's states — so a change
// to Step that moves any state or any draw shows. Each run goes to a
// stable leader under SyncRound and under SyncRoundParallel(2), which
// must agree; the 150-node G(n,p) spans three chunks, so its parallel
// rounds run on the shard pool. The ablated election runs a fixed round
// count. The values were recorded before Step read its view through one
// observation record, and that rewrite left them unchanged.
func TestStepTrajectoriesPinned(t *testing.T) {
	graphs := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"grid8x8", func() *graph.Graph { return graph.Grid(8, 8) }},
		{"torus6x6", func() *graph.Graph { return graph.Torus(6, 6) }},
		{"cycle33", func() *graph.Graph { return graph.Cycle(33) }},
		{"hypercube6", func() *graph.Graph { return graph.Hypercube(6) }},
		{"gnp150", func() *graph.Graph { return graph.RandomConnectedGNP(150, 0.03, rand.New(rand.NewSource(11))) }},
	}
	want := map[string]trajectoryDigest{
		"grid8x8/seed1":         {696, 0xb840bd50d4d4ec4e},
		"grid8x8/seed2":         {730, 0x4ac4a535c337b4f4},
		"grid8x8/seed3":         {705, 0x46aceeada768f862},
		"torus6x6/seed1":        {401, 0x67f5d8264d4842a0},
		"torus6x6/seed2":        {389, 0x3fe674d5d5d28063},
		"torus6x6/seed3":        {414, 0x847af391921a18c8},
		"cycle33/seed1":         {343, 0xdf476d12192c1041},
		"cycle33/seed2":         {381, 0x16b9269542026d3c},
		"cycle33/seed3":         {420, 0xfdb01d1d3e6c519},
		"hypercube6/seed1":      {694, 0x9e335fe83184d45d},
		"hypercube6/seed2":      {784, 0x2bc006c9d9c7925f},
		"hypercube6/seed3":      {727, 0xa1839a3efeabdc9a},
		"gnp150/seed1":          {1626, 0x739e16bf709083d4},
		"gnp150/seed2":          {1598, 0x95b5de66a3d9057b},
		"gnp150/seed3":          {1591, 0x4843bb98f3df74da},
		"ablated/grid8x8/seed1": {1500, 0xebc070cf98e98c20},
		"ablated/grid8x8/seed2": {1500, 0x2875b23d2292cc95},
		"ablated/grid8x8/seed3": {1500, 0x480df4c1704cbb09},
		"ablated/cycle33/seed1": {1500, 0x6101c0b73d5a2439},
		"ablated/cycle33/seed2": {1500, 0xef460078bfcf10ee},
		"ablated/cycle33/seed3": {1500, 0x1db2838b0a769b58},
	}
	for _, gr := range graphs {
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/seed%d", gr.name, seed)
			for _, workers := range []int{1, 2} {
				tr := New(gr.build(), seed)
				round := tr.Net.SyncRound
				if workers > 1 {
					round = func() { tr.Net.SyncRoundParallel(workers) }
				}
				got := pinnedRun(t, tr, round, 0)
				if got != want[key] {
					t.Errorf("%s w=%d: %d rounds, digest %#x; pinned %d rounds, digest %#x",
						key, workers, got.rounds, got.sum, want[key].rounds, want[key].sum)
				}
			}
		}
	}
	ablated := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"grid8x8", func() *graph.Graph { return graph.Grid(8, 8) }},
		{"cycle33", func() *graph.Graph { return graph.Cycle(33) }},
	}
	for _, gr := range ablated {
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("ablated/%s/seed%d", gr.name, seed)
			tr := NewWithoutVerification(gr.build(), seed)
			got := pinnedRun(t, tr, tr.Net.SyncRound, 1500)
			if got != want[key] {
				t.Errorf("%s: %d rounds, digest %#x; pinned %d rounds, digest %#x",
					key, got.rounds, got.sum, want[key].rounds, want[key].sum)
			}
		}
	}
}
