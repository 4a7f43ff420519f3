package checkpoint

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/trace"
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

// reseal recomputes the checksum trailer after a deliberate mutation,
// so tests can reach the structural checks behind it.
func reseal(data []byte) {
	sum := newBodySum(data[:len(data)-tailSize])
	for i := 0; i < tailSize; i++ {
		data[len(data)-tailSize+i] = byte(sum >> (8 * (7 - i)))
	}
}

func newBodySum(body []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range body {
		h = (h ^ uint64(b)) * prime
	}
	return h
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
