package fssga

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Divide-and-conquer view aggregation for heavy-hub graphs.
//
// A node's symmetric view is a multiset fold, and Pritchard's follow-up
// ("Efficient Divide-and-Conquer Implementations of Symmetric FSAs",
// arXiv:0708.0580) observes that mod-thresh observations factor through a
// finite commutative monoid: the saturating-periodic counter
//
//	sat(c) = c                        if c < t
//	       = t + (c-t) mod m          otherwise
//
// identifies all neighbour multisets the automaton cannot distinguish
// (Theorem 3.7's (threshold, period) footprint, which capinfer infers
// statically and internal/mc verifies dynamically by exhaustive multiset
// enumeration). Because sat is a monoid homomorphism from (N, +) onto a
// set of t+m values, per-state saturated counts compose associatively and
// commutatively — so a hub's view can be maintained as a balanced segment
// tree of partial aggregates over its CSR neighbour row: a full rebuild
// costs one linear scan, but when only a few neighbours change between
// rounds, resynchronizing costs O(changed · log deg) instead of O(deg).
//
// The engine turns this on automatically for automata that declare a
// SaturationFootprint, for nodes whose degree reaches the cutoff, and
// only on the dense view path (the tree nodes are flat byte vectors
// indexed by StateIndex). Everything else — low-degree nodes, map-mode
// automata, automata without a footprint — keeps the naive linear
// buildView. Exactness: the verified footprint guarantees Step cannot
// distinguish a view built from saturated counts from one built from
// true counts, so trajectories are bit-identical either way; the
// differential suite in agg_diff_test.go asserts this across every
// engine, topology, and registered automaton.

// SaturatingAutomaton is an optional extension of DenseAutomaton for
// automata that declare a saturating-periodic view footprint: Step's
// output must be invariant under replacing every per-state neighbour
// count c (and, transitively, the view total) with sat(c) as defined by
// the declared (thresh, period). Automata built from mod-thresh
// observations (AnyState, Count mod m, capped counts) satisfy this with
// thresh = the largest cap + 1 probed and period = lcm of the moduli;
// internal/mc derives and verifies minimal footprints dynamically.
//
// Declaring a footprint enables O(log deg) aggregated views on
// high-degree nodes. An unsound declaration silently corrupts
// trajectories, which is why mc cross-checks every registered automaton's
// declaration against the exhaustive multiset semantics.
type SaturatingAutomaton[S comparable] interface {
	DenseAutomaton[S]

	// SaturationFootprint returns (thresh, period) with thresh >= 0,
	// period >= 1 and thresh+period <= 255 (the counter monoid must fit a
	// byte; footprints anywhere near that large defeat the point).
	SaturationFootprint() (thresh, period int)
}

const (
	// AggDefaultCutoff is the default degree at which a node's view
	// switches from the linear scan to the aggregate tree. Chosen by
	// bench (see EXPERIMENTS.md): below ~128 neighbours the linear scan's
	// streaming pass beats the tree's pointer math plus its share of the
	// commit-time leaf marking.
	AggDefaultCutoff = 128

	// aggLeafSpan is the number of neighbours summarized per tree leaf.
	// One leaf rescan is a 64-element linear pass — the same cache-line
	// friendliness argument as shardAlign — and the tree above it has
	// deg/64 leaves, so a million-degree hub is a 15-deep tree.
	aggLeafSpan = 64

	// aggMaxStates caps the dense state-space size for aggregation: every
	// tree node is a NumStates-byte vector, so large state spaces make
	// trees cache-hostile and rebuilds slow. Above the cap the engine
	// silently keeps the linear path (same policy as MaxDenseStates).
	aggMaxStates = 256

	// satMaxValues bounds thresh+period: counter values must fit uint8.
	satMaxValues = 255
)

// SatTable is the composition table of the saturating-periodic counter
// monoid N_{t,m}: values 0..t+m-1, addition a ⊕ b = sat(a+b). It is the
// per-automaton "multiset composition table" of arXiv:0708.0580, keyed by
// the automaton's verified (threshold, period) footprint and shared
// process-wide through an internal registry. Immutable after construction.
type SatTable struct {
	thresh, period int
	vals           int     // thresh + period
	add            []uint8 // vals×vals flattened: add[a*vals+b] = sat(a+b)
	inc            []uint8 // inc[a] = sat(a+1), the leaf-scan fast path
}

var (
	satTabMu sync.Mutex
	satTabs  = map[[2]int]*SatTable{}
)

// SaturationTable returns the (cached) composition table for the
// saturating-periodic counter monoid with the given threshold and period.
func SaturationTable(thresh, period int) (*SatTable, error) {
	if thresh < 0 || period < 1 || thresh+period > satMaxValues {
		return nil, fmt.Errorf("fssga: saturation footprint (%d, %d) out of range: need thresh >= 0, period >= 1, thresh+period <= %d",
			thresh, period, satMaxValues)
	}
	key := [2]int{thresh, period}
	satTabMu.Lock()
	defer satTabMu.Unlock()
	if tab, ok := satTabs[key]; ok {
		return tab, nil
	}
	vals := thresh + period
	tab := &SatTable{
		thresh: thresh,
		period: period,
		vals:   vals,
		add:    make([]uint8, vals*vals),
		inc:    make([]uint8, vals),
	}
	for a := 0; a < vals; a++ {
		tab.inc[a] = tab.Project(a + 1)
		for b := 0; b < vals; b++ {
			tab.add[a*vals+b] = tab.Project(a + b)
		}
	}
	satTabs[key] = tab
	return tab, nil
}

// Thresh returns the saturation threshold t.
func (tab *SatTable) Thresh() int { return tab.thresh }

// Period returns the period m.
func (tab *SatTable) Period() int { return tab.period }

// Values returns the monoid size t+m (the number of distinct counter values).
func (tab *SatTable) Values() int { return tab.vals }

// Project maps a true count c >= 0 to its canonical monoid value sat(c).
func (tab *SatTable) Project(c int) uint8 {
	if c < tab.thresh {
		return uint8(c)
	}
	return uint8(tab.thresh + (c-tab.thresh)%tab.period)
}

// Add composes two canonical values: Add(sat(x), sat(y)) == sat(x+y).
func (tab *SatTable) Add(a, b uint8) uint8 { return tab.add[int(a)*tab.vals+int(b)] }

// Inc is Add(a, Project(1)): one more neighbour in state s.
func (tab *SatTable) Inc(a uint8) uint8 { return tab.inc[a] }

// hubTree is the balanced aggregate tree of one high-degree node: leaves
// summarize aggLeafSpan-neighbour blocks of the hub's CSR row as
// saturated per-state count vectors, internal nodes compose children via
// the SatTable. Layout is the classic iterative array tree — node p's
// children are 2p and 2p+1, leaf i sits at position leaves+i, node 1 is
// the root — which for a commutative monoid aggregates every leaf exactly
// once at the root for any leaf count, power of two or not.
type hubTree[S comparable] struct {
	node   int32   // hub node ID
	nbrs   []int32 // the hub's CSR neighbour row (aliases the snapshot)
	leaves int
	vec    []uint8 // 2*leaves tree nodes × k bytes; node p at vec[p*k:(p+1)*k]
	// stateOf[i] is a state with StateIndex i observed by some leaf scan;
	// valid whenever any current leaf count at i is nonzero (that leaf's
	// last scan wrote it, and StateIndex's injectivity contract makes any
	// witness of index i canonical).
	stateOf []S

	// Dirty leaves awaiting rescan. Flags are cleared only after the
	// ancestor recomputation completes, so a supervised-retry replay of a
	// partially synced tree repairs it instead of trusting it.
	dirty     []bool
	dirtyList []int32
	stale     bool // full rebuild required (restore, cutoff change, fresh tree)
}

// aggState is a network's aggregation bookkeeping for one CSR snapshot:
// the hub set, their trees, and a reverse index from node ID to the
// (hub, leaf) pairs whose aggregate that node's state feeds — the
// structure the round commit walks, change by change, to mark leaves
// dirty. Rebuilt from scratch whenever the snapshot pointer changes
// (fault injection), the same staleness rule as the frontier.
type aggState[S comparable] struct {
	table  *SatTable
	cutoff int
	csr    *graph.CSR
	k      int // dense state-space size

	hubOf []int32 // node -> index into hubs, -1 for non-hubs; nil when no hubs
	hubs  []*hubTree[S]

	// Reverse index, CSR-shaped: entries refHub/refLeaf[refOff[v]:refOff[v+1]]
	// list every (hub, leaf) containing node v.
	refOff  []int32
	refHub  []int32
	refLeaf []int32

	// Instrumentation for tests and benches (atomic: parallel workers sync
	// disjoint trees but share the counters).
	hubViews  atomic.Uint64
	rebuilds  atomic.Uint64
	leafScans atomic.Uint64
}

// AggStats is a snapshot of the aggregation subsystem's activity, for
// tests and benchmarks. Zero when aggregation is off.
type AggStats struct {
	Hubs         int    // nodes currently running on aggregate trees
	HubViews     uint64 // views served from a tree root
	TreeRebuilds uint64 // full tree rebuilds (linear rescans)
	LeafRescans  uint64 // individual leaf block rescans
}

// AggStats returns the current aggregation counters.
func (net *Network[S]) AggStats() AggStats {
	a := net.agg
	if a == nil {
		return AggStats{}
	}
	return AggStats{
		Hubs:         len(a.hubs),
		HubViews:     a.hubViews.Load(),
		TreeRebuilds: a.rebuilds.Load(),
		LeafRescans:  a.leafScans.Load(),
	}
}

// SetAggDegreeCutoff overrides the degree at which nodes switch to
// aggregate-tree views: 0 restores AggDefaultCutoff, and a cutoff larger
// than any degree disables aggregation outright (every node keeps the
// linear scan — the reference path of the differential suite). The hub
// set is recomputed at the next round boundary; trajectories are
// identical for every cutoff, only the cost model changes.
func (net *Network[S]) SetAggDegreeCutoff(cutoff int) {
	if cutoff < 0 {
		panic(fmt.Sprintf("fssga: SetAggDegreeCutoff needs cutoff >= 0, got %d", cutoff))
	}
	net.aggCutoff = cutoff
	net.agg = nil // metadata is rebuilt with the new cutoff at the next round
}

// aggActive reports whether any node currently runs on an aggregate tree.
//
//fssga:hotpath
func (net *Network[S]) aggActive() bool {
	return net.agg != nil && net.agg.hubOf != nil
}

// ensureAgg (re)builds the aggregation metadata for snapshot c. Called
// serially at every round/probe entry after the snapshot is read, so a
// topology change (fresh CSR pointer) swaps in a fresh hub set before any
// worker touches a tree — the same pointer-identity staleness rule as the
// frontier bookkeeping.
func (net *Network[S]) ensureAgg(c *graph.CSR) {
	if net.agg != nil && net.agg.csr == c {
		return
	}
	prev := net.agg
	net.agg = nil
	if net.denseAuto == nil || net.numStates > aggMaxStates {
		return
	}
	sa, ok := net.denseAuto.(SaturatingAutomaton[S])
	if !ok {
		return
	}
	t, m := sa.SaturationFootprint()
	tab, err := SaturationTable(t, m)
	if err != nil {
		panic(fmt.Sprintf("fssga: %T declares an unusable saturation footprint: %v", net.denseAuto, err))
	}
	cutoff := net.aggCutoff
	if cutoff <= 0 {
		cutoff = AggDefaultCutoff
	}
	a := &aggState[S]{table: tab, cutoff: cutoff, csr: c, k: net.numStates}
	if prev != nil {
		// Counters are cumulative per network: a topology change swaps the
		// metadata but must not erase the activity history (AggStats).
		a.hubViews.Store(prev.hubViews.Load())
		a.rebuilds.Store(prev.rebuilds.Load())
		a.leafScans.Store(prev.leafScans.Load())
	}
	net.agg = a

	n := c.Cap()
	for v := 0; v < n; v++ {
		nbrs := c.Neighbors(v)
		if len(nbrs) < cutoff {
			continue
		}
		if a.hubOf == nil {
			a.hubOf = make([]int32, n)
			for i := range a.hubOf {
				a.hubOf[i] = -1
			}
		}
		a.hubOf[v] = int32(len(a.hubs))
		leaves := (len(nbrs) + aggLeafSpan - 1) / aggLeafSpan
		a.hubs = append(a.hubs, &hubTree[S]{
			node:    int32(v),
			nbrs:    nbrs,
			leaves:  leaves,
			vec:     make([]uint8, 2*leaves*a.k),
			stateOf: make([]S, a.k),
			dirty:   make([]bool, leaves),
			stale:   true,
		})
	}
	if a.hubOf == nil {
		return // no hubs at this cutoff: viewFor stays on the fast exit
	}

	// Reverse index: one (hub, leaf) entry per hub-adjacency.
	off := make([]int32, n+1)
	for _, tr := range a.hubs {
		for _, u := range tr.nbrs {
			off[u+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	a.refOff = off
	a.refHub = make([]int32, off[n])
	a.refLeaf = make([]int32, off[n])
	slot := make([]int32, n)
	copy(slot, off[:n])
	for h, tr := range a.hubs {
		for j, u := range tr.nbrs {
			s := slot[u]
			slot[u]++
			a.refHub[s] = int32(h)
			a.refLeaf[s] = int32(j / aggLeafSpan)
		}
	}
}

// invalidateAgg marks every hub tree stale, forcing full rebuilds at next
// use. Called on out-of-band state changes (SetState, RestoreStates) —
// the aggregate caches are derived state and never checkpointed.
func (net *Network[S]) invalidateAgg() {
	if net.agg == nil {
		return
	}
	for _, tr := range net.agg.hubs {
		tr.stale = true
		tr.dirtyList = tr.dirtyList[:0]
		for i := range tr.dirty {
			tr.dirty[i] = false
		}
	}
}

// noteChanged marks dirty every tree leaf whose aggregate covers node v.
// Must not run between a round's view builds and its commit decision:
// a rescan triggered by this round's marks must read the *post-commit*
// states, so marks are applied only at commit time.
//
//fssga:hotpath
func (a *aggState[S]) noteChanged(v int32) {
	for j := a.refOff[v]; j < a.refOff[v+1]; j++ {
		tr := a.hubs[a.refHub[j]]
		leaf := a.refLeaf[j]
		if !tr.dirty[leaf] {
			tr.dirty[leaf] = true
			//fssga:alloc(dirtyList grows to the tree's leaf count once, then is reused at capacity)
			tr.dirtyList = append(tr.dirtyList, leaf)
		}
	}
}

// viewFor builds node v's view: through its aggregate tree when v is a
// hub, through the linear buildView scan otherwise. This is the single
// seam every path (the round kernel inline or on the pool, activation,
// quiescence probe) goes through, which is what keeps them bit-identical.
//
//fssga:hotpath
func (net *Network[S]) viewFor(sc *viewScratch[S], v int, nbrs []int32, snapshot []S) *View[S] {
	if a := net.agg; a != nil && a.hubOf != nil {
		if h := a.hubOf[v]; h >= 0 {
			return net.hubView(sc, h, snapshot)
		}
	}
	return net.buildView(sc, nbrs, snapshot)
}

// hubView serves a hub's view from its tree root, synchronizing the tree
// first if leaves are dirty. Safe under the shard pool: a hub occurs once
// in a work set, so exactly one chunk and one worker touch its tree, and a
// supervised retry resynchronizes idempotently (the snapshot is unchanged
// until commit, and dirty flags are cleared only after ancestors are
// recomputed). The returned view aliases the scratch, like buildView.
//
//fssga:hotpath
func (net *Network[S]) hubView(sc *viewScratch[S], h int32, snapshot []S) *View[S] {
	a := net.agg
	tr := a.hubs[h]
	// A majority-dirty tree resyncs slower than a linear rebuild (each
	// leaf rescan plus a log path vs one streaming pass), so fall back.
	if tr.stale || 2*len(tr.dirtyList) > tr.leaves {
		a.rebuildTree(net, tr, snapshot)
	} else if len(tr.dirtyList) > 0 {
		a.syncTree(net, tr, snapshot)
	}
	a.hubViews.Add(1)

	k := a.k
	root := tr.vec[k : 2*k] // node 1 (== leaf 0 when the tree is a single leaf)
	sc.reset()
	total := 0
	for i, cnt := range root {
		if cnt != 0 {
			sc.push(tr.stateOf[i], i, int32(cnt))
			total += int(cnt)
		}
	}
	// total is the *saturated* degree Σ sat(c_s): exactly the view the
	// witness invariant proves Step-indistinguishable from the true one
	// (mc builds its projected views the same way, total = Σ counts).
	sc.view.total = total
	return &sc.view
}

// rebuildTree rescans every leaf and recomputes all internal nodes.
//
//fssga:hotpath
func (a *aggState[S]) rebuildTree(net *Network[S], tr *hubTree[S], snapshot []S) {
	for leaf := 0; leaf < tr.leaves; leaf++ {
		a.scanLeaf(net, tr, leaf, snapshot)
	}
	for p := tr.leaves - 1; p >= 1; p-- {
		a.combine(tr, p)
	}
	for i := range tr.dirty {
		tr.dirty[i] = false
	}
	tr.dirtyList = tr.dirtyList[:0]
	tr.stale = false
	a.rebuilds.Add(1)
}

// syncTree rescans only the dirty leaves and recomputes their root paths:
// O(dirty · (leafSpan + log leaves)) — the incremental path. Flags are
// cleared last so an interrupted sync replays in full.
//
//fssga:hotpath
func (a *aggState[S]) syncTree(net *Network[S], tr *hubTree[S], snapshot []S) {
	for _, leaf := range tr.dirtyList {
		a.scanLeaf(net, tr, int(leaf), snapshot)
	}
	for _, leaf := range tr.dirtyList {
		for p := (tr.leaves + int(leaf)) >> 1; p >= 1; p >>= 1 {
			a.combine(tr, p)
		}
	}
	for _, leaf := range tr.dirtyList {
		tr.dirty[leaf] = false
	}
	tr.dirtyList = tr.dirtyList[:0]
}

// scanLeaf recomputes one leaf's saturated count vector from the snapshot.
//
//fssga:hotpath
func (a *aggState[S]) scanLeaf(net *Network[S], tr *hubTree[S], leaf int, snapshot []S) {
	k, tab := a.k, a.table
	lo := leaf * aggLeafSpan
	hi := lo + aggLeafSpan
	if hi > len(tr.nbrs) {
		hi = len(tr.nbrs)
	}
	vec := tr.vec[(tr.leaves+leaf)*k : (tr.leaves+leaf+1)*k]
	clear(vec)
	for _, u := range tr.nbrs[lo:hi] {
		s := snapshot[u]
		//fssga:alloc(StateIndex is a table lookup by the DenseAutomaton contract; dispatch through the stored func value)
		i := net.idx(s)
		if i < 0 || i >= k {
			panic(fmt.Sprintf("fssga: StateIndex returned %d for an observed state, want 0..%d", i, k-1))
		}
		tr.stateOf[i] = s
		vec[i] = tab.inc[vec[i]]
	}
	a.leafScans.Add(1)
}

// combine recomputes internal node p from its children.
//
//fssga:hotpath
func (a *aggState[S]) combine(tr *hubTree[S], p int) {
	k, tab := a.k, a.table
	dst := tr.vec[p*k : (p+1)*k]
	l := tr.vec[2*p*k : (2*p+1)*k]
	r := tr.vec[(2*p+1)*k : (2*p+2)*k]
	for i := range dst {
		dst[i] = tab.add[int(l[i])*tab.vals+int(r[i])]
	}
}
