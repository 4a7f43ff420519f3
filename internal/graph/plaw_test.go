package graph

import "testing"

func TestPLawCSRMatchesPLaw(t *testing.T) {
	cases := []struct {
		name               string
		block, copies, epn int
		seed               int64
	}{
		{"one-copy", 64, 1, 2, 1},
		{"two-copies", 64, 2, 2, 1},
		{"ring", 50, 4, 3, 7},
		{"many-small", 16, 9, 1, 3},
		{"dense-block", 40, 3, 6, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := plawByEdges(tc.block, tc.copies, tc.epn, tc.seed)
			c := PLawCSR(tc.block, tc.copies, tc.epn, tc.seed)
			assertGeneratorPair(t, c, PLaw(tc.block, tc.copies, tc.epn, tc.seed), ref)
			if got, want := c.ContentHash(), ref.CSR().ContentHash(); got != want {
				t.Fatalf("PLawCSR hash %x, edge-by-edge hash %x", got, want)
			}
		})
	}
}

func TestPLawDeterministicInSeed(t *testing.T) {
	a := PLawCSR(64, 2, 2, 5).ContentHash()
	b := PLawCSR(64, 2, 2, 5).ContentHash()
	c := PLawCSR(64, 2, 2, 6).ContentHash()
	if a != b {
		t.Fatal("same parameters produced different topologies")
	}
	if a == c {
		t.Fatal("different seeds produced identical topologies (degenerate sampling?)")
	}
}

// TestPLawHubDegree pins the heavy-hub shape: every copy's node 0 (a
// seed node of the preferential attachment) is a genuine hub, far above
// the block's median degree.
func TestPLawHubDegree(t *testing.T) {
	const block, copies, epn = 2048, 3, 4
	c := PLawCSR(block, copies, epn, 1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for cp := 0; cp < copies; cp++ {
		hub := cp * block
		if d := c.Degree(hub); d < 8*epn {
			t.Fatalf("copy %d hub degree %d, want >= %d", cp, d, 8*epn)
		}
	}
	// The replicated copies are isomorphic: identical internal degree
	// sequences (ring edges touch only node 0).
	for v := 1; v < block; v++ {
		d0 := c.Degree(v)
		for cp := 1; cp < copies; cp++ {
			if d := c.Degree(cp*block + v); d != d0 {
				t.Fatalf("node %d degree %d in copy 0 but %d in copy %d", v, d0, d, cp)
			}
		}
	}
}

func TestPLawGeneratorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"block-small":  func() { PLawCSR(2, 1, 1, 1) },
		"epn-zero":     func() { PLawCSR(64, 1, 0, 1) },
		"copies-zero":  func() { PLawCSR(64, 0, 2, 1) },
		"plaw-mutable": func() { PLaw(64, 0, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
