package election

import (
	"fmt"
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// debugWhy reports which inconsistency rule fires for node v, read from
// the observation Step folds its view into. Test-only diagnostics.
func debugWhy(net *fssga.Network[State], g *graph.Graph, v int) string {
	self := net.State(v)
	var nbrs []State
	for _, u := range g.SortedNeighbors(v, nil) {
		nbrs = append(nbrs, net.State(u))
	}
	o := observe(self, fssga.NewView(nbrs))
	// Step's branch gating: arms 1 and 2 preempt arm 3.
	if !self.Started || self.NP != NoNP || o.laggard || o.ahead || !inconsistent(self, &o, false) {
		return ""
	}
	switch {
	case self.labeled() && o.otherLabel:
		return "a:rootlabel"
	case self.Remain && self.Dist == 0 && o.root:
		return "b:adjacent-roots"
	case self.labeled() && self.Complete && o.clash:
		return "d:colour"
	default:
		return "e:hands"
	}
}

func TestDebugGridTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("debug trace")
	}
	g := graph.Grid(3, 3)
	tr := New(g, 77)
	logged := 0
	for r := 0; r < 3000 && logged < 12; r++ {
		tr.Round()
		if tr.Remaining() == 1 {
			for v := 0; v < g.Cap(); v++ {
				why := debugWhy(tr.Net, g, v)
				if why != "" && logged < 12 {
					logged++
					s := tr.Net.State(v)
					line := fmt.Sprintf("round %d node %d: %s state=%+v nbrs=", r, v, why, s)
					for _, u := range g.SortedNeighbors(v, nil) {
						line += fmt.Sprintf(" [%d]%+v", u, tr.Net.State(u))
					}
					t.Log(line)
				}
			}
		}
	}
	t.Logf("rounds=%d phases=%d remaining=%d leaders=%v", tr.Rounds, tr.Phases, tr.Remaining(), tr.Leaders())
}
