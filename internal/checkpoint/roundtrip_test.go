package checkpoint_test

import (
	"testing"
	"testing/quick"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/randomwalk"
	"repro/internal/algo/shortestpath"
	"repro/internal/algo/synchronizer"
	"repro/internal/algo/twocolor"
	"repro/internal/checkpoint"
	"repro/internal/testutil"
)

// TestRoundTripAllAutomata: checkpoint encode/decode is the identity on
// arbitrary state vectors of every registered automaton's state type —
// the property the whole durability story rests on. Generators are
// testing/quick over the exported state fields; seeds are pinned via
// testutil.Quick so failures replay.
func TestRoundTripAllAutomata(t *testing.T) {
	propRoundTrip[census.State](t, "census", 101)
	propRoundTrip[shortestpath.State](t, "shortestpath", 102)
	propRoundTrip[bfs.State](t, "bfs", 103)
	propRoundTrip[election.State](t, "election", 104)
	propRoundTrip[twocolor.State](t, "twocolor", 105)
	propRoundTrip[randomwalk.State](t, "randomwalk", 106)
	propRoundTrip[synchronizer.State[int]](t, "synchronizer", 107)
}

func propRoundTrip[S comparable](t *testing.T, name string, seed int64) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		prop := func(states []S, round uint16, faults uint8, workers uint8) bool {
			meta := checkpoint.Meta{
				Kind: checkpoint.KindFull, Round: int(round), Nodes: len(states),
				Seed: seed, TopoHash: uint64(round) * 0x9E3779B97F4A7C15, BaseRound: -1,
				Target: name, Workers: int(workers), FaultsApplied: int(faults),
			}
			pay := checkpoint.Payload[S]{States: states}
			data, err := checkpoint.Encode(meta, pay)
			if err != nil {
				t.Logf("encode: %v", err)
				return false
			}
			gotMeta, gotPay, err := checkpoint.Decode[S](data)
			if err != nil {
				t.Logf("decode: %v", err)
				return false
			}
			if gotMeta != meta {
				t.Logf("meta mismatch: %+v != %+v", gotMeta, meta)
				return false
			}
			if len(gotPay.States) != len(states) {
				return false
			}
			for i := range states {
				if gotPay.States[i] != states[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, testutil.QuickN(t, seed, 60)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRoundTripDeltaRuns: the same identity for delta payloads, with
// run boundaries derived from the generated vector.
func TestRoundTripDeltaRuns(t *testing.T) {
	prop := func(a, b []census.State, round uint16) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		base, cur := a[:n], b[:n]
		meta := checkpoint.Meta{
			Kind: checkpoint.KindDelta, Round: int(round) + 1, Nodes: n,
			BaseRound: int(round),
		}
		var pay checkpoint.Payload[census.State]
		for lo := 0; lo < n; lo += 64 {
			hi := lo + 64
			if hi > n {
				hi = n
			}
			dirty := false
			for i := lo; i < hi; i++ {
				if base[i] != cur[i] {
					dirty = true
					break
				}
			}
			if dirty {
				pay.Runs = append(pay.Runs, checkpoint.Run[census.State]{Lo: lo, States: cur[lo:hi]})
			}
		}
		data, err := checkpoint.Encode(meta, pay)
		if err != nil {
			return false
		}
		_, gotPay, err := checkpoint.Decode[census.State](data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		patched := append([]census.State(nil), base...)
		for _, run := range gotPay.Runs {
			copy(patched[run.Lo:], run.States)
		}
		for i := range cur {
			if patched[i] != cur[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testutil.QuickN(t, 33, 40)); err != nil {
		t.Fatal(err)
	}
}
