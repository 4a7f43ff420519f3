package election

import (
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// TestStateIndexInjective enumerates the full mixed-radix state space and
// checks StateIndex is a bijection onto [0, NumStates) — the property the
// engine's dense view lookup relies on (two states colliding would
// silently merge their view counts).
func TestStateIndexInjective(t *testing.T) {
	a := automaton{}
	n := a.NumStates()
	if n != numStates {
		t.Fatalf("NumStates() = %d, want %d", n, numStates)
	}
	seen := make([]bool, n)
	count := 0
	for _, started := range []bool{false, true} {
		for _, remain := range []bool{false, true} {
			for phase := uint8(0); phase < 3; phase++ {
				for label := uint8(0); label < 2; label++ {
					for np := int8(-1); np <= 1; np++ {
						for _, leader := range []bool{false, true} {
							for dist := int8(-1); dist <= 2; dist++ {
								for rootLabel := uint8(0); rootLabel < 2; rootLabel++ {
									for _, complete := range []bool{false, true} {
										for cEpoch := int8(0); cEpoch < 3; cEpoch++ {
											for cColour := int8(-1); cColour <= 1; cColour++ {
												for mSt := MBlank; mSt <= MVisited; mSt++ {
													for mEl := ENone; mEl <= EOneTails; mEl++ {
														s := State{
															Started: started, Remain: remain,
															Phase: phase, Label: label, NP: np,
															Leader: leader, Dist: dist,
															RootLabel: rootLabel, Complete: complete,
															CEpoch: cEpoch, CColour: cColour,
															MSt: mSt, MEl: mEl,
														}
														i := a.StateIndex(s)
														if i < 0 || i >= n {
															t.Fatalf("StateIndex(%+v) = %d out of [0, %d)", s, i, n)
														}
														if seen[i] {
															t.Fatalf("StateIndex collision at %d for %+v", i, s)
														}
														seen[i] = true
														count++
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if count != n {
		t.Fatalf("enumerated %d states, want %d", count, n)
	}
}

// TestElectionRunsDense confirms the election network actually engages the
// engine's dense view path, and that a dense election agrees with the same
// election forced onto the map fallback.
func TestElectionRunsDense(t *testing.T) {
	g := graph.Cycle(8)
	tr := New(g, 5)
	if !tr.Net.DenseViews() {
		t.Fatal("election should run on the dense view path")
	}

	mapped := fssga.New[State](graph.Cycle(8),
		fssga.StepFunc[State](automaton{}.Step),
		func(v int) State { return State{} }, 5)
	if mapped.DenseViews() {
		t.Fatal("StepFunc wrapper should force the map fallback")
	}
	for r := 0; r < 200; r++ {
		tr.Net.SyncRound()
		mapped.SyncRound()
	}
	for v := 0; v < 8; v++ {
		if tr.Net.State(v) != mapped.State(v) {
			t.Fatalf("round 200: state[%d] differs between dense and map paths", v)
		}
	}
}
