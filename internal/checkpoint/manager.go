package checkpoint

import (
	"fmt"

	"repro/internal/fssga"
)

// deltaChunk is the diff granularity of delta checkpoints, matching the
// engine's shard alignment (fssga's shardAlign): a changed node dirties
// its 64-node chunk, and contiguous dirty chunks coalesce into one run.
const deltaChunk = 64

// Manager ties a live fssga.Network to a Store: it captures full and
// delta checkpoints of the network and restores the latest committed
// one into a compatible network.
//
// The Meta template carries the application context (Target, Graph,
// Workers, FaultsApplied) stamped into every checkpoint; callers
// mutate it between checkpoints as their injector advances.
type Manager[S comparable] struct {
	net   *fssga.Network[S]
	store *Store

	// Meta is the template for checkpoint metadata; Kind, Round, Nodes,
	// Seed, TopoHash and BaseRound are overwritten at capture time.
	Meta Meta

	base      []S // states at the last successful checkpoint
	baseRound int // -1: no base, next delta falls back to full
}

// NewManager wraps net and store. meta seeds the metadata template.
func NewManager[S comparable](net *fssga.Network[S], store *Store, meta Meta) *Manager[S] {
	return &Manager[S]{net: net, store: store, Meta: meta, baseRound: -1}
}

// Checkpoint captures and commits a full checkpoint.
func (m *Manager[S]) Checkpoint() error { return m.capture(true) }

// CheckpointDelta captures and commits a delta checkpoint holding only
// the 64-node chunks that changed since the previous checkpoint. With
// no previous checkpoint this session (or after a Restore), it falls
// back to a full one.
func (m *Manager[S]) CheckpointDelta() error { return m.capture(false) }

func (m *Manager[S]) capture(full bool) error {
	nodeIDs, n := m.net.StateIDs()
	states := m.net.States()
	meta := m.Meta
	meta.Round = m.net.Rounds
	meta.Nodes = len(states)
	meta.Seed = m.net.Seed()
	meta.TopoHash = m.net.Topology().ContentHash()
	meta.BaseRound = -1

	var pay Payload[S]
	// A delta at its base's own round would overwrite the base file
	// with a patch against itself; force full instead.
	if full || m.baseRound < 0 || m.baseRound >= meta.Round || len(m.base) != len(states) {
		meta.Kind = KindFull
		pay.States = states // encode only reads: safe to alias
	} else {
		meta.Kind = KindDelta
		meta.BaseRound = m.baseRound
		pay.Runs = diffRuns(m.base, states)
	}

	runs := pay.runs()
	ids := make([][]int32, len(runs))
	for i, r := range runs {
		ids[i] = nodeIDs[r.Lo : r.Lo+len(r.States)]
	}
	data, err := encode(meta, pay, ids, n)
	if err != nil {
		return err
	}
	if err := m.store.Write(meta.Round, data); err != nil {
		return err
	}
	m.base = append(m.base[:0], states...)
	m.baseRound = meta.Round
	return nil
}

// diffRuns returns the changed 64-node chunks of cur relative to base,
// coalescing adjacent dirty chunks into single runs. Each run's States
// is a sub-slice of cur, which encode only reads, so the only allocation
// is the runs slice itself.
//
//fssga:hotpath
func diffRuns[S comparable](base, cur []S) []Run[S] {
	var runs []Run[S]
	n := len(cur)
	for lo := 0; lo < n; {
		hi := lo + deltaChunk
		if hi > n {
			hi = n
		}
		dirty := false
		for v := lo; v < hi; v++ {
			if base[v] != cur[v] {
				dirty = true
				break
			}
		}
		if dirty {
			if len(runs) > 0 && runs[len(runs)-1].Lo+len(runs[len(runs)-1].States) == lo {
				last := &runs[len(runs)-1]
				last.States = cur[last.Lo:hi]
			} else {
				//fssga:alloc(the runs slice grows once per dirty region, in proportion to the checkpoint's churn)
				runs = append(runs, Run[S]{Lo: lo, States: cur[lo:hi]})
			}
		}
		lo = hi
	}
	return runs
}

// Restore loads the newest committed checkpoint (resolving its delta
// chain back to a full base), verifies it matches the network — node
// count, master seed, and the content hash of the network's *current*
// topology, so the caller must have already rebuilt the topology the
// checkpoint was taken on, faults included — and installs states and the
// round counter, which also names the random streams the run draws next.
// It returns the restored meta; its FaultsApplied tells the caller how
// far to fast-forward its injector.
//
// After a successful restore the manager's delta base is reset: the
// next CheckpointDelta writes a full checkpoint.
func (m *Manager[S]) Restore() (Meta, error) {
	// The store verified the envelope's checksum when it read it.
	round, data, err := m.store.Latest()
	if err != nil {
		return Meta{}, err
	}
	meta, pay, err := decodeVerified[S](data)
	if err != nil {
		return Meta{}, err
	}
	states, err := m.resolveChain(meta, pay)
	if err != nil {
		return Meta{}, err
	}

	if meta.Nodes != len(m.net.States()) {
		return Meta{}, fmt.Errorf("checkpoint: round %d holds %d nodes, network has %d",
			round, meta.Nodes, len(m.net.States()))
	}
	if meta.Seed != m.net.Seed() {
		return Meta{}, fmt.Errorf("checkpoint: round %d was seeded %d, network seeded %d",
			round, meta.Seed, m.net.Seed())
	}
	if got := m.net.Topology().ContentHash(); got != meta.TopoHash {
		return Meta{}, fmt.Errorf("checkpoint: round %d topology hash %016x, network topology %016x — rebuild the topology (faults included) before restoring",
			round, meta.TopoHash, got)
	}
	if err := m.net.RestoreStates(states, meta.Round); err != nil {
		return Meta{}, err
	}
	m.base = nil
	m.baseRound = -1
	return meta, nil
}

// resolveChain materializes the full state vector behind a checkpoint:
// a full checkpoint is its own answer; a delta walks back through its
// base rounds to a full checkpoint, then patches forward. A missing or
// invalid link is a loud error — a delta without its base is as
// unusable as a corrupt file.
func (m *Manager[S]) resolveChain(meta Meta, pay Payload[S]) ([]S, error) {
	if meta.Kind == KindFull {
		return pay.States, nil
	}
	deltas := []Payload[S]{pay}
	cur := meta
	for cur.Kind == KindDelta {
		if len(deltas) > 1<<20 {
			return nil, fmt.Errorf("%w: delta chain does not terminate", ErrFormat)
		}
		data, err := m.store.Read(cur.BaseRound)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: delta of round %d: base %w", cur.Round, err)
		}
		baseMeta, basePay, err := decodeVerified[S](data)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: delta base round %d: %w", cur.BaseRound, err)
		}
		if baseMeta.Round != cur.BaseRound || baseMeta.Nodes != meta.Nodes {
			return nil, fmt.Errorf("%w: base round %d resolves to round %d (%d nodes)",
				ErrFormat, cur.BaseRound, baseMeta.Round, baseMeta.Nodes)
		}
		if baseMeta.Kind == KindFull {
			for i := len(deltas) - 1; i >= 0; i-- {
				for _, run := range deltas[i].Runs {
					copy(basePay.States[run.Lo:], run.States)
				}
			}
			return basePay.States, nil
		}
		deltas = append(deltas, basePay)
		cur = baseMeta
	}
	return nil, fmt.Errorf("%w: delta chain reached non-delta non-full kind", ErrFormat)
}
