package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/trace"
	"repro/internal/wordhash"
)

func fullMeta(nodes int) Meta {
	return Meta{
		Kind: KindFull, Round: 12, Nodes: nodes, Seed: 42, TopoHash: 0xfeedbeef,
		BaseRound: -1, Target: "census", Workers: 4,
		Graph: trace.GraphSpec{Gen: "torus", N: nodes, Seed: 7}, FaultsApplied: 3,
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	meta := fullMeta(5)
	pay := Payload[int]{States: []int{3, 1, 4, 1, 5}}
	data, err := Encode(meta, pay)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(data); err != nil {
		t.Fatal(err)
	}
	peeked, err := PeekMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(peeked, meta) {
		t.Fatalf("PeekMeta = %+v, want %+v", peeked, meta)
	}
	gotMeta, gotPay, err := Decode[int](data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotMeta, meta) || !reflect.DeepEqual(gotPay, pay) {
		t.Fatalf("decode mismatch: %+v / %+v", gotMeta, gotPay)
	}

	// A palette of more than 256 states widens the indices to 2 bytes,
	// and one of more than 65,536 to 4; the last index ends the payload.
	for _, tc := range []struct{ distinct, width int }{{257, 2}, {65537, 4}} {
		states := make([]int, 2*tc.distinct)
		for i := range states {
			states[i] = -(i % tc.distinct)
		}
		data, err := Encode(fullMeta(len(states)), Payload[int]{States: states})
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := Decode[int](data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.States, states) {
			t.Fatalf("%d distinct states: decode mismatch", tc.distinct)
		}
		last := data[len(data)-tailSize-tc.width : len(data)-tailSize]
		if x := readIndex(last, 0, tc.width); int(x) != tc.distinct-1 {
			t.Fatalf("%d distinct states: last %d-byte index reads %d, want %d", tc.distinct, tc.width, x, tc.distinct-1)
		}
	}
}

func TestEnvelopeDetectsEveryBitFlip(t *testing.T) {
	data, err := Encode(fullMeta(3), Payload[int]{States: []int{7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off++ {
		for bit := uint(0); bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			if _, _, err := Decode[int](mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded silently", off, bit)
			}
		}
	}
}

func TestEnvelopeDetectsEveryTruncation(t *testing.T) {
	data, err := Encode(fullMeta(2), Payload[int]{States: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, _, err := Decode[int](data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded silently", n)
		}
	}
	// Appended garbage must fail too (checksum covers length).
	if _, _, err := Decode[int](append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("appended byte decoded silently")
	}
}

func TestEnvelopeErrorClasses(t *testing.T) {
	data, err := Encode(fullMeta(1), Payload[int]{States: []int{6}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(data[:4]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short data: %v", err)
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if err := Verify(bad); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff
	if err := Verify(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped trailer: %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[9] = 99 // version field (checksum recomputed to isolate the class)
	reseal(bad)
	if err := Verify(bad); !errors.Is(err, ErrFormat) {
		t.Fatalf("future version: %v", err)
	}
}

// bodyOffset is where the palette payload of an envelope starts.
func bodyOffset(data []byte) int {
	return headerSize + int(binary.BigEndian.Uint32(data[10:14]))
}

// reseal recomputes the checksum trailer after a deliberate mutation,
// so tests can reach the structural checks behind it.
func reseal(data []byte) {
	binary.BigEndian.PutUint64(data[len(data)-tailSize:], wordhash.Sum(data[:len(data)-tailSize]))
}

func TestMetaValidation(t *testing.T) {
	cases := map[string]Meta{
		"unknown kind":      {Kind: "zip", BaseRound: -1},
		"negative round":    {Kind: KindFull, Round: -1, BaseRound: -1},
		"full with base":    {Kind: KindFull, BaseRound: 3},
		"delta no base":     {Kind: KindDelta, Round: 5, BaseRound: -1},
		"delta self base":   {Kind: KindDelta, Round: 5, BaseRound: 5},
		"delta future base": {Kind: KindDelta, Round: 5, BaseRound: 6},
	}
	for name, meta := range cases {
		data, err := Encode(meta, Payload[int]{})
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := PeekMeta(data); !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: want ErrFormat, got %v", name, err)
		}
	}
}

func TestPayloadValidation(t *testing.T) {
	meta := fullMeta(4)
	if _, err := encodeDecode(meta, Payload[int]{States: []int{1}}); err == nil {
		t.Fatal("short state vector accepted")
	}
	delta := meta
	delta.Kind, delta.BaseRound = KindDelta, 3
	if _, err := encodeDecode(delta, Payload[int]{Runs: []Run[int]{{Lo: 3, States: []int{1, 2}}}}); err == nil {
		t.Fatal("out-of-bounds delta run accepted")
	}
	if _, err := encodeDecode(delta, Payload[int]{Runs: []Run[int]{{Lo: 2, States: []int{1}}, {Lo: 0, States: []int{1}}}}); err == nil {
		t.Fatal("out-of-order delta runs accepted")
	}
	if _, err := encodeDecode(delta, Payload[int]{States: []int{1, 2, 3, 4}}); err == nil {
		t.Fatal("delta with full states accepted")
	}
}

func encodeDecode(meta Meta, pay Payload[int]) (Payload[int], error) {
	data, err := Encode(meta, pay)
	if err != nil {
		return Payload[int]{}, err
	}
	_, got, err := Decode[int](data)
	return got, err
}

// rawBody assembles a palette payload by hand: the gob palette, the run
// table as (Lo, length) pairs, and the raw index bytes.
func rawBody(t *testing.T, pal []int, runs [][2]uint64, idx []byte) []byte {
	t.Helper()
	var pb bytes.Buffer
	if err := gob.NewEncoder(&pb).Encode(pal); err != nil {
		t.Fatal(err)
	}
	b := binary.AppendUvarint(nil, uint64(pb.Len()))
	b = append(b, pb.Bytes()...)
	b = binary.AppendUvarint(b, uint64(len(runs)))
	for _, r := range runs {
		b = binary.AppendUvarint(b, r[0])
		b = binary.AppendUvarint(b, r[1])
	}
	return append(b, idx...)
}

// TestDecodeRejectsMalformedPayloads feeds the decoder sealed
// envelopes, checksum intact, whose palette payload lies. Each must
// fail with its error class, without panicking, and without allocating
// in proportion to what the payload claims rather than to its size.
func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	delta := func(nodes int) Meta {
		m := fullMeta(nodes)
		m.Kind, m.BaseRound = KindDelta, 3
		return m
	}
	huge := fullMeta(5)
	huge.Nodes = 1 << 40
	older := func(version uint16) []byte {
		data, err := Encode(fullMeta(5), Payload[int]{States: []int{3, 1, 4, 1, 5}})
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint16(data[8:10], version)
		reseal(data)
		return data
	}
	version2, version3 := older(2), older(3)

	pal := []int{3, 1, 4}
	palBlock := rawBody(t, pal, nil, nil)
	palBlock = palBlock[: len(palBlock)-1 : len(palBlock)-1] // drop the run count
	cases := []struct {
		name string
		meta Meta
		body []byte
		want error
	}{
		{"index past the palette", fullMeta(5), rawBody(t, pal, nil, []byte{0, 1, 2, 1, 3}), ErrFormat},
		{"run ending past Nodes", delta(5), rawBody(t, pal, [][2]uint64{{3, 4}}, []byte{0, 0, 0, 0}), ErrFormat},
		{"run ending past MaxInt", delta(5), rawBody(t, pal, [][2]uint64{{math.MaxInt - 1, 2}}, []byte{0, 0}), ErrFormat},
		{"runs out of order", delta(8), rawBody(t, pal, [][2]uint64{{4, 2}, {0, 2}}, []byte{0, 0, 0, 0}), ErrFormat},
		{"empty run", delta(8), rawBody(t, pal, [][2]uint64{{4, 0}}, nil), ErrFormat},
		{"full checkpoint with runs", fullMeta(2), rawBody(t, pal, [][2]uint64{{0, 2}}, []byte{0, 0}), ErrFormat},
		{"palette longer than the body", fullMeta(1), []byte{0x7f, 1, 2, 3}, ErrTruncated},
		{"palette not gob", fullMeta(1), []byte{3, 0xff, 0xff, 0xff, 0, 0}, ErrFormat},
		{"index block longer than the body", fullMeta(5), rawBody(t, pal, nil, []byte{0, 1, 2}), ErrTruncated},
		{"runs longer than the body", delta(8), rawBody(t, pal, [][2]uint64{{0, 5}}, []byte{0, 1, 2}), ErrTruncated},
		{"run count longer than the body", delta(8), binary.AppendUvarint(palBlock, 1<<40), ErrTruncated},
		{"2^40 states in a full checkpoint", huge, rawBody(t, pal, nil, []byte{0, 1, 2, 1, 0}), ErrTruncated},
		{"2^40 states in a run", delta(1 << 41), rawBody(t, pal, [][2]uint64{{0, 1 << 40}}, []byte{0, 1, 2, 1, 0}), ErrTruncated},
		{"trailing bytes", fullMeta(5), rawBody(t, pal, nil, []byte{0, 1, 2, 1, 0, 0}), ErrFormat},
		{"integer overflow", fullMeta(1), bytes.Repeat([]byte{0xff}, 11), ErrFormat},
		{"body ends inside an integer", fullMeta(1), []byte{0x80}, ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := seal(tc.meta, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			assertRejected(t, data, tc.want)
		})
	}
	t.Run("version 2", func(t *testing.T) { assertRejected(t, version2, ErrFormat) })
	t.Run("version 3", func(t *testing.T) { assertRejected(t, version3, ErrFormat) })
}

func assertRejected(t *testing.T, data []byte, want error) {
	t.Helper()
	var err error
	decode := func() { _, _, err = Decode[int](data) }
	decode() // the first call compiles gob's decoder for the types
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}
	// gob's decoder state is a few kilobytes whatever the input.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32<<10+64*len(data)); got > limit {
		t.Fatalf("allocated %d bytes decoding %d, want at most %d", got, len(data), limit)
	}
}

// TestEnvelopeLayoutPinned pins the bytes of one small envelope, so the
// layout cannot change without a version bump. gob numbers types in the
// order a process first encodes them, so the bytes are made in a fresh
// copy of the test binary.
func TestEnvelopeLayoutPinned(t *testing.T) {
	const pinned = "" +
		"4653534741434b50" + // magic
		"0004" + // version
		"000000e9" + // meta length
		"ff87ff81030101044d65746101ff8200010a01044b696e64010c000105526f75" +
		"6e6401040001054e6f6465730104000104536565640104000108546f706f4861" +
		"7368010600010942617365526f756e640104000106546172676574010c000107" +
		"576f726b6572730104000105477261706801ff8400010d4661756c7473417070" +
		"6c69656401040000002eff830301010947726170685370656301ff8400010301" +
		"0347656e010c0001014e010400010453656564010400000030ff82010466756c" +
		"6c0118010a015401fcfeedbeef0101010663656e7375730108010105746f7275" +
		"73010a010e00010600" + // gob(Meta)
		"15" + // palette length
		"0b7f020102ff80000104000008ff8000040602080a" + // gob([]int{3, 1, 4, 5})
		"00" + // run count
		"0001020103" + // one index per state
		"1776606535bb0ffc" // checksum
	if os.Getenv("CHECKPOINT_LAYOUT_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestEnvelopeLayoutPinned$", "-test.count=1")
		cmd.Env = append(os.Environ(), "CHECKPOINT_LAYOUT_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("layout check in a fresh process: %v\n%s", err, out)
		}
		return
	}
	data, err := Encode(fullMeta(5), Payload[int]{States: []int{3, 1, 4, 1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != pinned {
		t.Fatalf("envelope bytes changed without a version bump:\n got %s\nwant %s", got, pinned)
	}
}

// BenchmarkVerify checks the frame and trailer of a 1 MB envelope: a
// full checkpoint of 2²⁰ one-byte palette indices, as bfs-torus writes.
func BenchmarkVerify(b *testing.B) {
	states := make([]int, 1<<20)
	for v := range states {
		states[v] = v % 48
	}
	data, err := Encode(fullMeta(len(states)), Payload[int]{States: states})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode encodes a full checkpoint of 2²⁰ states of 48 kinds in
// runs of 1 to 3 equal neighbours: from the payload alone (Encode, which
// numbers the states with a map), and from ids the caller already holds,
// as the Manager does with the network's palette ids.
func BenchmarkEncode(b *testing.B) {
	states := make([]int, 1<<20)
	for v := range states {
		states[v] = (v / (1 + v%3)) % 48
	}
	meta, pay := fullMeta(len(states)), Payload[int]{States: states}
	ids, n := make([]int32, len(states)), 0
	index := map[int]int32{}
	for v, s := range states {
		id, ok := index[s]
		if !ok {
			id = int32(len(index))
			index[s] = id
		}
		ids[v], n = id, len(index)
	}
	for _, tc := range []struct {
		name string
		f    func() ([]byte, error)
	}{
		{"Encode", func() ([]byte, error) { return Encode(meta, pay) }},
		{"ids", func() ([]byte, error) { return encode(meta, pay, [][]int32{ids}, n) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(states)))
			for i := 0; i < b.N; i++ {
				if _, err := tc.f(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
