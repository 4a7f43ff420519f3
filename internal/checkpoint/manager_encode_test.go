package checkpoint

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// hop moves a node by 5 with probability 1/4, so rounds intern states
// no node has held and leave most nodes unchanged.
type hop struct{}

func (hop) Step(self int, _ *fssga.View[int], rnd *rand.Rand) int {
	if rnd.Intn(4) == 0 {
		return self + 5
	}
	return self
}

// TestManagerEnvelopesMatchEncode: the Manager numbers a payload's
// states by the network's palette ids, Encode by a map over the payload
// itself. For the same meta and payload their envelopes must be
// byte-identical, whatever the ids went through: stale after New or a
// restore, grown by rounds or past what one-byte indices number,
// renumbered, or naming dead nodes.
func TestManagerEnvelopesMatchEncode(t *testing.T) {
	g := graph.Torus(8, 8)
	g.RemoveNode(9) // dead from the start: its state is the zero value
	net := fssga.New[int](g, hop{}, func(v int) int { return v % 5 }, 7)
	store := NewStore(NewMemFS(), 0)
	mgr := NewManager(net, store, Meta{Target: "hop"})
	var base []int // the states at the last checkpoint
	check := func(name string, full bool) {
		t.Helper()
		states := append([]int(nil), net.States()...)
		var err error
		if full {
			err = mgr.Checkpoint()
		} else {
			err = mgr.CheckpointDelta()
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := store.Read(net.Rounds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		meta, err := PeekMeta(got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kind, pay := KindFull, Payload[int]{States: states}
		if !full {
			kind, pay = KindDelta, Payload[int]{Runs: diffRuns(base, states)}
		}
		if meta.Kind != kind {
			t.Fatalf("%s: the Manager wrote a %s checkpoint, want %s", name, meta.Kind, kind)
		}
		want, err := Encode(meta, pay)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the Manager's %s envelope (%d bytes) differs from Encode's (%d bytes)", name, meta.Kind, len(got), len(want))
		}
		base = states
	}
	rounds := func(k int) {
		for i := 0; i < k; i++ {
			net.SyncRound()
		}
	}

	check("straight after New", true)
	rounds(3)
	check("after rounds that intern new states", false)
	net.G.RemoveNode(20)
	rounds(2)
	check("after a node dies", true)

	// 300 states passed through node 0 leave the palette with more ids
	// than one byte indexes, though the payload holds fewer states.
	rounds(1)
	keep := net.State(0)
	for i := 0; i < 300; i++ {
		net.SetState(0, -1-i)
	}
	net.SetState(0, keep)
	check("with more ids than one-byte indices", false)
	if _, n := net.StateIDs(); n <= 256 {
		t.Fatalf("the palette holds %d ids, want more than 256", n)
	}

	// 2,000 states bloat the palette, and the Manager's capture
	// renumbers it.
	rounds(1)
	keep = net.State(0)
	for i := 0; i < 2000; i++ {
		net.SetState(0, -1000-i)
	}
	net.SetState(0, keep)
	check("after a forced renumbering", false)
	if _, n := net.StateIDs(); n > 2*64+1024 {
		t.Fatalf("the palette holds %d ids after the capture, so it was not renumbered", n)
	}

	// The nodes' states reversed, then restored: every node's id is
	// stale until the capture renumbers.
	rev := append([]int(nil), base...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if err := net.RestoreStates(rev, net.Rounds+4); err != nil {
		t.Fatal(err)
	}
	check("after RestoreStates", false)
	rounds(2)
	check("the delta after that", false)
	if _, err := mgr.Restore(); err != nil {
		t.Fatal(err)
	}
	rounds(1)
	check("after the Manager's Restore", true)
}
