package fssga

import "math/rand"

// Per-node randomness is a pure function of (seed, node, epoch). The
// paper's probabilistic automaton (Def. 3.10–3.11) gives every activation
// fresh random bits, so no node keeps a stream: draw i of node v's step
// at epoch e is output i of the SplitMix64 sequence started at
// StreamKey(seed, v, e), and a step's epoch is the network's
// Rounds + Activations when it runs. A retried round and a restored run
// derive exactly the streams they need from that epoch, so nothing is
// stored per node, rolled back or checkpointed.
//
// Each view scratch owns one rand.Rand over a keyedSource and re-points
// it for every step with plain stores; the key is derived at the step's
// first draw, so steps that draw nothing — every step of a
// deterministic automaton — never hash.

// golden is SplitMix64's increment γ, the odd 64-bit golden ratio.
const golden = 0x9E3779B97F4A7C15

// fmix is SplitMix64's output finalizer.
func fmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mix derives a seed from seed and v with SplitMix64's finalizer, so
// nearby inputs give unrelated outputs.
func mix(seed, v int64) int64 {
	return int64(fmix(uint64(seed) + uint64(v)*golden + golden))
}

// StreamKey returns the key of node v's stream at the given epoch in a
// network seeded seed. The stream a step of v at that epoch draws from
// is KeyedRand(StreamKey(seed, v, epoch)).
func StreamKey(seed int64, v int, epoch uint64) uint64 {
	return uint64(mix(mix(seed, int64(v)), int64(epoch)))
}

// KeyedRand returns a *rand.Rand whose draw i is output i of the
// SplitMix64 sequence started at key. Seed(k) re-points it at key k in
// O(1), so one Rand can serve any number of streams in turn.
func KeyedRand(key uint64) *rand.Rand {
	return rand.New(&keyedSource{state: key, keyed: true})
}

// keyedSource is the counter-based rand.Source64 behind KeyedRand and
// the view scratches. While keyed is false it names the stream of node
// at epoch under seed without having derived its key; the first draw
// derives it.
type keyedSource struct {
	seed  int64
	epoch uint64
	node  int
	keyed bool   // state holds the stream: its key plus γ per draw
	state uint64 // SplitMix64 counter
}

// Uint64 implements rand.Source64.
func (s *keyedSource) Uint64() uint64 {
	if !s.keyed {
		s.state, s.keyed = StreamKey(s.seed, s.node, s.epoch), true
	}
	s.state += golden
	return fmix(s.state)
}

// Int63 implements rand.Source.
func (s *keyedSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source: it pins the source to the stream with
// key seed.
func (s *keyedSource) Seed(seed int64) { s.state, s.keyed = uint64(seed), true }
