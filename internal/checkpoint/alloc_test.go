package checkpoint

import "testing"

// TestDiffRunsNoChurnZeroAllocs is the dynamic half of the hotalloc
// cross-check for diffRuns (the static half — verdict "audited" — is
// asserted by internal/fssga's hotpath harness): the //fssga:alloc
// audit on its append claims the only allocation is the runs slice,
// proportional to churn, so with zero churn the scan must allocate
// nothing at all.
func TestDiffRunsNoChurnZeroAllocs(t *testing.T) {
	base := make([]int, 4*deltaChunk)
	cur := make([]int, 4*deltaChunk)
	if allocs := testing.AllocsPerRun(20, func() { diffRuns(base, cur) }); allocs != 0 {
		t.Fatalf("diffRuns allocates %.1f objects/op on identical inputs, want 0 (the runs slice should be the only allocation)", allocs)
	}
}

// TestDiffRunsChurnProportional pins the audited claim from the other
// side: with churn, diffRuns allocates only the growth of the runs
// slice. Each run aliases cur, so no state is copied.
func TestDiffRunsChurnProportional(t *testing.T) {
	base := make([]int, 64*deltaChunk)
	cur := make([]int, 64*deltaChunk)
	cur[5*deltaChunk] = 1  // one dirty chunk
	cur[40*deltaChunk] = 1 // a second, non-adjacent dirty region
	cur[41*deltaChunk] = 1 // extends the second region
	allocs := testing.AllocsPerRun(20, func() { diffRuns(base, cur) })
	// 2 runs: the runs slice grows from capacity 0 to 1 to 2.
	if allocs > 2 {
		t.Fatalf("diffRuns allocates %.1f objects/op for 2 dirty regions, want only the 2 growths of the runs slice", allocs)
	}
	runs := diffRuns(base, cur)
	if len(runs) != 2 || runs[1].Lo != 40*deltaChunk || len(runs[1].States) != 2*deltaChunk {
		t.Fatalf("runs %+v, want chunk 5 and chunks 40-41", runs)
	}
	if &runs[1].States[0] != &cur[40*deltaChunk] {
		t.Fatal("the extended run does not alias the live vector")
	}
}
