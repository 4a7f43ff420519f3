package checkpoint_test

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fssga"
	"repro/internal/graph"
	"repro/internal/trace"

	"repro/internal/testutil"
)

// coin is a probabilistic test automaton: its draws make RNG-position
// capture load-bearing in every fidelity assertion below.
type coin struct{}

func (coin) Step(self int, view *fssga.View[int], rnd *rand.Rand) int {
	return (rnd.Intn(2) + view.CountMod(2, func(s int) bool { return s == 1 })) % 2
}

// spread is deterministic max-propagation: most nodes quiesce quickly,
// which is what makes delta checkpoints small.
type spread struct{}

func (spread) Step(self int, view *fssga.View[int], rnd *rand.Rand) int {
	for q := 63; q > self; q-- {
		if view.AnyState(q) {
			return q
		}
	}
	return self
}

func newCoinNet(g *graph.Graph, seed int64) *fssga.Network[int] {
	return fssga.New[int](g, coin{}, func(v int) int { return v % 2 }, seed)
}

func TestManagerFullRestoreResumesBitIdentically(t *testing.T) {
	testutil.NoLeak(t)
	const k, m, seed = 7, 10, 99
	g := func() *graph.Graph { return graph.Torus(6, 6) }

	live := newCoinNet(g(), seed)
	store := checkpoint.NewStore(checkpoint.NewMemFS(), 0)
	mgr := checkpoint.NewManager(live, store, checkpoint.Meta{Target: "coin", Workers: 1})
	for i := 0; i < k; i++ {
		live.SyncRound()
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var future [][]int
	for i := 0; i < m; i++ {
		live.SyncRound()
		future = append(future, append([]int(nil), live.States()...))
	}

	// "Reboot": a fresh network over the same topology recipe and seed.
	revived := newCoinNet(g(), seed)
	meta, err := checkpoint.NewManager(revived, store, checkpoint.Meta{}).Restore()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Round != k || meta.Target != "coin" {
		t.Fatalf("restored meta %+v", meta)
	}
	if revived.Rounds != k {
		t.Fatalf("restored Rounds = %d", revived.Rounds)
	}
	for i := 0; i < m; i++ {
		revived.SyncRound()
		if !reflect.DeepEqual(revived.States(), future[i]) {
			t.Fatalf("round %d diverged after restore", k+i+1)
		}
	}
}

func TestManagerDeltaChainRestore(t *testing.T) {
	testutil.NoLeak(t)
	const seed = 5
	g := func() *graph.Graph { return graph.Path(4000) }
	init := func(v int) int {
		if v == 0 {
			return 63
		}
		return 0
	}
	live := fssga.New[int](g(), spread{}, init, seed)
	store := checkpoint.NewStore(checkpoint.NewMemFS(), 0)
	mgr := checkpoint.NewManager(live, store, checkpoint.Meta{Target: "spread"})

	// Full at round 2, deltas at 4, 6, 8.
	sizes := map[int]int{}
	for r := 1; r <= 8; r++ {
		live.SyncRound()
		if r%2 == 0 {
			var err error
			if r == 2 {
				err = mgr.Checkpoint()
			} else {
				err = mgr.CheckpointDelta()
			}
			if err != nil {
				t.Fatal(err)
			}
			data, err := store.Read(r)
			if err != nil {
				t.Fatal(err)
			}
			sizes[r] = len(data)
			meta, err := checkpoint.PeekMeta(data)
			if err != nil {
				t.Fatal(err)
			}
			wantKind := checkpoint.KindDelta
			if r == 2 {
				wantKind = checkpoint.KindFull
			}
			if meta.Kind != wantKind {
				t.Fatalf("round %d kind %q", r, meta.Kind)
			}
		}
	}
	want := append([]int(nil), live.States()...)

	// Deltas of a propagation wavefront must be much smaller than the
	// full snapshot.
	if sizes[8] >= sizes[2]/2 {
		t.Fatalf("delta size %d not small vs full %d", sizes[8], sizes[2])
	}

	revived := fssga.New[int](g(), spread{}, init, seed)
	meta, err := checkpoint.NewManager(revived, store, checkpoint.Meta{}).Restore()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Round != 8 || meta.Kind != checkpoint.KindDelta {
		t.Fatalf("restored meta %+v", meta)
	}
	if !reflect.DeepEqual(revived.States(), want) {
		t.Fatal("delta chain restore produced wrong states")
	}
}

func TestManagerDeltaBrokenChainFailsLoudly(t *testing.T) {
	testutil.NoLeak(t)
	live := fssga.New[int](graph.Path(300), spread{}, func(v int) int { return v % 64 }, 1)
	fs := checkpoint.NewMemFS()
	store := checkpoint.NewStore(fs, 0)
	mgr := checkpoint.NewManager(live, store, checkpoint.Meta{})
	live.SyncRound()
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	live.SyncRound()
	if err := mgr.CheckpointDelta(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the full base: the delta is unusable and must say so.
	names, _ := fs.List()
	for _, n := range names {
		if strings.Contains(n, "000000000001") {
			if err := fs.Corrupt(n, 30, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	revived := fssga.New[int](graph.Path(300), spread{}, func(v int) int { return v % 64 }, 1)
	if _, err := checkpoint.NewManager(revived, store, checkpoint.Meta{}).Restore(); !errors.Is(err, checkpoint.ErrChecksum) {
		t.Fatalf("want ErrChecksum through the chain, got %v", err)
	}
}

func TestManagerRestoreGuards(t *testing.T) {
	testutil.NoLeak(t)
	live := newCoinNet(graph.Torus(4, 4), 3)
	store := checkpoint.NewStore(checkpoint.NewMemFS(), 0)
	mgr := checkpoint.NewManager(live, store, checkpoint.Meta{Graph: trace.GraphSpec{Gen: "torus", N: 16, Seed: 0}})
	live.SyncRound()
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	cases := map[string]*fssga.Network[int]{
		"wrong seed":     newCoinNet(graph.Torus(4, 4), 4),
		"wrong topology": newCoinNet(graph.Grid(4, 4), 3),
		"wrong size":     newCoinNet(graph.Torus(4, 5), 3),
	}
	for name, net := range cases {
		if _, err := checkpoint.NewManager(net, store, checkpoint.Meta{}).Restore(); err == nil {
			t.Fatalf("%s: restore accepted", name)
		}
	}

	// The original network restores fine — including after faults, as
	// long as the same faults are re-applied first.
	if _, err := mgr.Restore(); err != nil {
		t.Fatal(err)
	}
}

func TestManagerTopoHashCoversFaults(t *testing.T) {
	testutil.NoLeak(t)
	build := func() *graph.Graph { return graph.Torus(4, 4) }
	live := newCoinNet(build(), 8)
	store := checkpoint.NewStore(checkpoint.NewMemFS(), 0)
	mgr := checkpoint.NewManager(live, store, checkpoint.Meta{})
	live.SyncRound()
	live.G.RemoveNode(5) // a fault between rounds
	live.SyncRound()
	mgr.Meta.FaultsApplied = 1
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Restoring onto the pre-fault topology must be refused...
	fresh := newCoinNet(build(), 8)
	if _, err := checkpoint.NewManager(fresh, store, checkpoint.Meta{}).Restore(); err == nil {
		t.Fatal("restore accepted without replaying faults")
	}
	// ...and accepted once the recorded fault is replayed, with the
	// meta telling the caller how many events to fast-forward.
	replayed := newCoinNet(build(), 8)
	replayed.G.RemoveNode(5)
	meta, err := checkpoint.NewManager(replayed, store, checkpoint.Meta{}).Restore()
	if err != nil {
		t.Fatal(err)
	}
	if meta.FaultsApplied != 1 {
		t.Fatalf("FaultsApplied = %d", meta.FaultsApplied)
	}
}

// TestManagerRestoreAcrossEngines: one checkpoint, resumed under every
// engine and worker count — all must continue on the reference
// trajectory (the paper's execution-model equivalence, now surviving a
// process boundary).
func TestManagerRestoreAcrossEngines(t *testing.T) {
	testutil.NoLeak(t)
	const k, m, seed = 5, 8, 321
	n := 10 * 64 // comfortably multi-shard
	build := func() *fssga.Network[int] {
		return fssga.New[int](graph.Cycle(n), coin{}, func(v int) int { return v % 2 }, seed)
	}
	live := build()
	store := checkpoint.NewStore(checkpoint.NewMemFS(), 0)
	mgr := checkpoint.NewManager(live, store, checkpoint.Meta{})
	for i := 0; i < k; i++ {
		live.SyncRound()
	}
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var future [][]int
	for i := 0; i < m; i++ {
		live.SyncRound()
		future = append(future, append([]int(nil), live.States()...))
	}

	for _, workers := range []int{1, 2, 3, 4, 8} {
		revived := build()
		if _, err := checkpoint.NewManager(revived, store, checkpoint.Meta{}).Restore(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m; i++ {
			revived.SyncRoundParallel(workers)
			if !reflect.DeepEqual(revived.States(), future[i]) {
				t.Fatalf("w=%d: round %d diverged after restore", workers, k+i+1)
			}
		}
	}
}
