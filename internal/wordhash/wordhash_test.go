package wordhash

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// byStripes is the reference the write loops must match: b padded with
// zero bytes to whole stripes, one more than len(b)/32, each absorbed by
// stripe, and the length mixed in apart.
func byStripes(d Digest, b []byte) uint64 {
	d.size = round(d.size, uint64(len(b)))
	padded := append(append([]byte(nil), b...), make([]byte, 32-len(b)%32)...)
	for ; len(padded) > 0; padded = padded[32:] {
		w := func(i int) uint64 { return binary.LittleEndian.Uint64(padded[8*i:]) }
		d.stripe(w(0), w(1), w(2), w(3))
	}
	return d.Sum64()
}

// TestWritesMatchStripes: after earlier writes and at every length up to
// a few stripes, byte, int32 and word writes hash the stream the
// package documentation describes, and an int32 slice hashes as its
// little-endian bytes.
func TestWritesMatchStripes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for pre := 0; pre < 3; pre++ {
		d := New()
		for i := 0; i < pre; i++ {
			d.writeBytes(make([]byte, 5*i))
		}
		for n := 0; n <= 24; n++ {
			xs := make([]int32, n)
			b := make([]byte, 4*n)
			for i := range xs {
				xs[i] = int32(rng.Uint32())
				binary.LittleEndian.PutUint32(b[4*i:], uint32(xs[i]))
			}
			ints := d
			ints.WriteInt32s(xs)
			if got, want := ints.Sum64(), byStripes(d, b); got != want {
				t.Fatalf("%d writes before %d int32s: %016x, by stripes %016x", pre, n, got, want)
			}
			for _, m := range []int{4 * n, 4*n + 1, 4*n + 3} {
				b := append(b[:4*n:4*n], make([]byte, m-4*n)...)
				rng.Read(b[4*n:])
				bytes := d
				bytes.writeBytes(b)
				if got, want := bytes.Sum64(), byStripes(d, b); got != want {
					t.Fatalf("%d writes before %d bytes: %016x, by stripes %016x", pre, m, got, want)
				}
			}
		}
		w := rng.Uint64()
		word := d
		word.WriteWord(w)
		if got, want := word.Sum64(), byStripes(d, binary.LittleEndian.AppendUint64(nil, w)); got != want {
			t.Fatalf("%d writes before a word: %016x, by stripes %016x", pre, got, want)
		}
	}
}

// TestSumDetectsEveryBitFlip: each single-bit flip changes one word, so
// it changes the hash, at every position of the stripe.
func TestSumDetectsEveryBitFlip(t *testing.T) {
	b := make([]byte, 77)
	rand.New(rand.NewSource(2)).Read(b)
	h := Sum(b)
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			b[i] ^= 1 << bit
			if Sum(b) == h {
				t.Fatalf("flipping bit %d of byte %d left the hash at %016x", bit, i, h)
			}
			b[i] ^= 1 << bit
		}
	}
}

// TestSumMixesLength: zero bytes appended or cut change the hash, though
// they change no word of the data.
func TestSumMixesLength(t *testing.T) {
	seen := map[uint64]int{}
	b := []byte{0xab}
	for n := 0; n <= 40; n++ {
		if m, ok := seen[Sum(b[:n:n])]; ok {
			t.Fatalf("%d and %d bytes hash equal", m, n)
		}
		seen[Sum(b[:n:n])] = n
		b = append(b, 0)
	}
	d, e := New(), New()
	d.WriteInt32s([]int32{1, 2})
	d.WriteInt32s(nil)
	e.WriteInt32s([]int32{1})
	e.WriteInt32s([]int32{2})
	if d.Sum64() == e.Sum64() {
		t.Fatal("two writes split at a different place hash equal")
	}
}

// TestSumPinned pins values: checkpoints store them, so the function may
// not change without a checkpoint format version bump.
func TestSumPinned(t *testing.T) {
	long := make([]byte, 100)
	for i := range long {
		long[i] = byte(i)
	}
	for _, tc := range []struct {
		name string
		b    []byte
		want uint64
	}{
		{"empty", nil, 0x20ba20800e87fe20},
		{"abc", []byte("abc"), 0xe57ade7807001694},
		{"0..99", long, 0x10eaf552f54f5aca},
	} {
		if got := Sum(tc.b); got != tc.want {
			t.Errorf("Sum(%s) = %016x, want %016x", tc.name, got, tc.want)
		}
	}
}
