package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

func maxStep(self int, view *fssga.View[int], rnd *rand.Rand) int {
	best := self
	view.ForEach(func(s, _ int) {
		if s > best {
			best = s
		}
	})
	return best
}

func TestRecordCapturesEveryRound(t *testing.T) {
	g := graph.Path(4)
	net := fssga.New[int](g, fssga.StepFunc[int](maxStep), func(v int) int { return v }, 1)
	h := Record(net, 3)
	if len(h.Nodes) != 4 || len(h.Rounds) != 3 {
		t.Fatalf("nodes=%d rounds=%d", len(h.Nodes), len(h.Rounds))
	}
	// After round 3 the max has spread across the whole P4.
	for i := range h.Nodes {
		if h.Rounds[2][i] != 3 {
			t.Fatalf("final row = %v", h.Rounds[2])
		}
	}
	// Round 1: node 0 sees only node 1 -> state 1.
	if h.Rounds[0][0] != 1 {
		t.Fatalf("round 1 node 0 = %d", h.Rounds[0][0])
	}
}

func TestRecordUntilStopsEarly(t *testing.T) {
	g := graph.Path(10)
	net := fssga.New[int](g, fssga.StepFunc[int](maxStep), func(v int) int { return v }, 1)
	h := RecordUntil(net, 100, func(n *fssga.Network[int]) bool {
		return n.State(0) == 9
	})
	if len(h.Rounds) != 9 {
		t.Fatalf("rounds = %d, want 9", len(h.Rounds))
	}
}

func TestRenderOutput(t *testing.T) {
	g := graph.Path(3)
	net := fssga.New[int](g, fssga.StepFunc[int](maxStep), func(v int) int { return v }, 1)
	h := Record(net, 2)
	var buf bytes.Buffer
	if err := h.Render(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "round") {
		t.Fatalf("no header:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 3 { // header + 2 rounds
		t.Fatalf("lines = %d:\n%s", lines, out)
	}
	// Custom labels.
	buf.Reset()
	if err := h.Render(&buf, func(s int) string { return strings.Repeat("*", s+1) }); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "***") {
		t.Fatalf("custom label missing:\n%s", buf.String())
	}
}

func TestChanged(t *testing.T) {
	g := graph.Path(4)
	net := fssga.New[int](g, fssga.StepFunc[int](maxStep), func(v int) int { return v }, 1)
	h := Record(net, 5)
	// Node 0 rises 0->1->2->3 across rounds 1..3, i.e. changes at
	// recorded rounds 2 and 3 (relative to previous snapshots).
	ch := h.Changed(0)
	if len(ch) != 2 || ch[0] != 2 || ch[1] != 3 {
		t.Fatalf("changed = %v", ch)
	}
	if h.Changed(99) != nil {
		t.Fatal("unknown node should report nil")
	}
}

func TestRecordSkipsDeadNodes(t *testing.T) {
	g := graph.Path(4)
	g.RemoveNode(2)
	net := fssga.New[int](g, fssga.StepFunc[int](maxStep), func(v int) int { return v }, 1)
	h := Record(net, 1)
	if len(h.Nodes) != 3 {
		t.Fatalf("nodes = %v", h.Nodes)
	}
}

// TestRecordFromCSR: a network built by NewFromCSR has no mutable graph
// (G is nil), so the recorder must read its nodes from the topology
// snapshot. It records the same rows as the same run over the graph.
func TestRecordFromCSR(t *testing.T) {
	init := func(v int) int { return v }
	want := Record(fssga.New[int](graph.Cycle(8), fssga.StepFunc[int](maxStep), init, 1), 3)
	got := Record(fssga.NewFromCSR[int](graph.CycleCSR(8), fssga.StepFunc[int](maxStep), init, 1), 3)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NewFromCSR history %+v, New history %+v", got, want)
	}
}
