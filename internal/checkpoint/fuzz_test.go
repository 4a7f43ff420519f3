package checkpoint

import (
	"testing"

	"repro/internal/trace"
)

// FuzzCheckpointDecode: Decode/PeekMeta/Verify never panic, whatever
// the bytes — every failure mode is a structured error. The seed corpus
// covers the interesting corruption families (valid envelopes of both
// kinds, truncations at structural boundaries, bit flips in each
// region, length-field lies); the fuzzer mutates from there.
func FuzzCheckpointDecode(f *testing.F) {
	full, err := Encode(Meta{
		Kind: KindFull, Round: 9, Nodes: 4, Seed: 3, TopoHash: 0xabc, BaseRound: -1,
		Target: "census", Graph: trace.GraphSpec{Gen: "cycle", N: 4, Seed: 1},
	}, Payload[int]{States: []int{1, 0, 1, 1}})
	if err != nil {
		f.Fatal(err)
	}
	delta, err := Encode(Meta{
		Kind: KindDelta, Round: 10, Nodes: 4, BaseRound: 9,
	}, Payload[int]{Runs: []Run[int]{{Lo: 0, States: []int{0, 1}}}})
	if err != nil {
		f.Fatal(err)
	}

	f.Add(full)
	f.Add(delta)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(full[:headerSize])                // header only
	f.Add(full[:len(full)/2])               // torn tail
	f.Add(full[:len(full)-tailSize])        // checksum sheared off
	f.Add(append([]byte(nil), full[8:]...)) // magic sheared off

	corrupt := func(src []byte, off int, bit byte) []byte {
		c := append([]byte(nil), src...)
		c[off%len(c)] ^= 1 << (bit % 8)
		return c
	}
	f.Add(corrupt(full, 9, 0))            // version
	f.Add(corrupt(full, 12, 7))           // meta length high bit
	f.Add(corrupt(full, 20, 3))           // inside gob meta
	f.Add(corrupt(full, len(full)-20, 1)) // inside the payload
	f.Add(corrupt(full, len(full)-1, 5))  // checksum
	f.Add(corrupt(delta, 30, 2))

	// A resealed envelope whose meta length points past the end.
	lie := append([]byte(nil), full...)
	lie[10], lie[11], lie[12], lie[13] = 0x7f, 0xff, 0xff, 0xff
	f.Add(lie)

	// Resealed lies in each region of the palette payload, so that the
	// fuzzer starts past the checksum.
	resealed := func(src []byte, off int, b byte) []byte {
		c := append([]byte(nil), src...)
		c[off] = b
		reseal(c)
		return c
	}
	end := len(delta) - tailSize                      // delta body: palette, 1 run (0, 2), 2 indices
	f.Add(resealed(full, bodyOffset(full), 0x7f))     // palette length past the body
	f.Add(resealed(full, bodyOffset(full)+4, 0xff))   // inside the gob palette
	f.Add(resealed(delta, end-4, 3))                  // a run ending past Nodes
	f.Add(resealed(full, len(full)-tailSize-1, 0xff)) // an index past the palette

	// Full envelopes of 2⁹ to 2¹² states. The trailer hashes 32 bytes per
	// loop iteration, so only inputs of 0.5 to 4 KB reach the loop's
	// higher coverage counts; seeded here, the fuzzer need not find such
	// long inputs and spend its time minimizing them.
	for n := 1 << 9; n <= 1<<12; n *= 2 {
		big, err := Encode(Meta{Kind: KindFull, Nodes: n, BaseRound: -1}, Payload[int]{States: make([]int, n)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(big)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Any of these may error; none may panic.
		_ = Verify(data)
		if _, err := PeekMeta(data); err == nil {
			// A clean peek implies a verified envelope.
			if Verify(data) != nil {
				t.Fatal("PeekMeta accepted what Verify rejects")
			}
		}
		meta, pay, err := Decode[int](data)
		if err == nil {
			// Decoded checkpoints are internally consistent.
			if meta.Kind == KindFull && len(pay.States) != meta.Nodes {
				t.Fatalf("inconsistent decode: %d states for %d nodes", len(pay.States), meta.Nodes)
			}
		}
	})
}
