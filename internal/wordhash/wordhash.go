// Package wordhash is a table-free 64-bit hash over a stream of 64-bit
// words, four XXH64-style multiply–rotate lanes wide. The checkpoint
// trailer and the topology hash (graph.CSR.ContentHash) both use it.
//
// A word is eight little-endian bytes or two int32 values, low one
// first, so a slice of int32 values hashes as its little-endian bytes
// do. Each write is absorbed as whole stripes of four words, lane j
// taking word j, and its last stripe is padded with zero bytes; the
// byte length of every write is mixed in apart from the stripes, so a
// stream of writes is hashed unambiguously. A lane absorbs its word by a
// bijection of the word's value, so a change confined to one word always
// changes the sum: every single-bit flip is detected. The value depends
// on nothing but the bytes written, on any platform.
//
// A write has one loop and no other branch on its length, so a
// coverage-guided fuzzer tells input lengths apart only by that loop's
// hit count.
package wordhash

import (
	"encoding/binary"
	"math/bits"
)

// The XXH64 primes.
const (
	prime1 uint64 = 0x9e3779b185ebca87
	prime2 uint64 = 0xc2b2ae3d27d4eb4f
	prime3 uint64 = 0x165667b19e3779f9
)

// Digest is a running hash: four lanes, and the lengths of the writes.
type Digest struct {
	lane [4]uint64
	size uint64
}

// New returns an empty digest. Its lanes start where XXH64's do for
// seed 0: prime1+prime2, prime2, 0 and -prime1, modulo 2⁶⁴.
func New() Digest {
	return Digest{lane: [4]uint64{0x60ea27eeadc0b5d6, prime2, 0, 0x61c8864e7a143579}}
}

// round absorbs word w into lane value acc. For a fixed acc it is a
// bijection of w, and for a fixed w a bijection of acc.
func round(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*prime2, 31) * prime1
}

// stripe absorbs four words, one into each lane.
func (d *Digest) stripe(w0, w1, w2, w3 uint64) {
	d.lane[0] = round(d.lane[0], w0)
	d.lane[1] = round(d.lane[1], w1)
	d.lane[2] = round(d.lane[2], w2)
	d.lane[3] = round(d.lane[3], w3)
}

// writeBytes writes b, eight bytes to a little-endian word.
func (d *Digest) writeBytes(b []byte) {
	d.size = round(d.size, uint64(len(b)))
	v0, v1, v2, v3 := d.lane[0], d.lane[1], d.lane[2], d.lane[3]
	m := len(b) &^ 31
	for i := 0; i < m; i += 32 {
		x := b[i : i+32 : i+32]
		v0 = round(v0, binary.LittleEndian.Uint64(x[0:]))
		v1 = round(v1, binary.LittleEndian.Uint64(x[8:]))
		v2 = round(v2, binary.LittleEndian.Uint64(x[16:]))
		v3 = round(v3, binary.LittleEndian.Uint64(x[24:]))
	}
	d.lane = [4]uint64{v0, v1, v2, v3}
	var last [32]byte
	copy(last[:], b[m:])
	d.stripe(binary.LittleEndian.Uint64(last[0:]), binary.LittleEndian.Uint64(last[8:]),
		binary.LittleEndian.Uint64(last[16:]), binary.LittleEndian.Uint64(last[24:]))
}

// WriteInt32s writes the little-endian bytes of xs, four to a value.
func (d *Digest) WriteInt32s(xs []int32) {
	d.size = round(d.size, 4*uint64(len(xs)))
	v0, v1, v2, v3 := d.lane[0], d.lane[1], d.lane[2], d.lane[3]
	m := len(xs) &^ 7
	for i := 0; i < m; i += 8 {
		x := xs[i : i+8 : i+8]
		v0 = round(v0, pair(x[0], x[1]))
		v1 = round(v1, pair(x[2], x[3]))
		v2 = round(v2, pair(x[4], x[5]))
		v3 = round(v3, pair(x[6], x[7]))
	}
	d.lane = [4]uint64{v0, v1, v2, v3}
	var last [8]int32
	copy(last[:], xs[m:])
	d.stripe(pair(last[0], last[1]), pair(last[2], last[3]), pair(last[4], last[5]), pair(last[6], last[7]))
}

// pair is the word of two int32 values, lo in the low half.
func pair(lo, hi int32) uint64 { return uint64(uint32(lo)) | uint64(uint32(hi))<<32 }

// WriteWord writes the eight little-endian bytes of w.
func (d *Digest) WriteWord(w uint64) {
	d.size = round(d.size, 8)
	d.stripe(w, 0, 0, 0)
}

// Sum64 returns the hash of the writes so far: the lanes, each rotated
// by its own count, summed with the mixed lengths, then the XXH64
// avalanche. Each step is a bijection of a lane's value with the rest
// fixed, so a change to one lane changes the result.
func (d *Digest) Sum64() uint64 {
	h := bits.RotateLeft64(d.lane[0], 1) + bits.RotateLeft64(d.lane[1], 7) +
		bits.RotateLeft64(d.lane[2], 12) + bits.RotateLeft64(d.lane[3], 18) + d.size
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// Sum returns the hash of b, as a new digest's Sum64 after one write of
// b.
func Sum(b []byte) uint64 {
	d := New()
	d.writeBytes(b)
	return d.Sum64()
}
