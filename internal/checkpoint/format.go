// Package checkpoint provides crash-safe snapshots of running FSSGA
// networks. The paper's finite-state guarantee (Section 2; mechanically
// enforced by fssga-vet's finstate analyzer) makes this cheap: a
// network's entire configuration is its per-node finite states and its
// round counter — each step's random stream is a function of the seed,
// the node and the round (fssga's rng.go) — so a checkpoint is a small
// deterministic artifact: states, the round counter, and a content hash
// of the CSR topology to pin what the states are states *of*. Restoring
// one resumes the run bit-identically to an uninterrupted execution
// (asserted against chaos replay digests across the serial, parallel and
// frontier engines).
//
// The package has three layers:
//
//   - format.go: the versioned, checksummed binary envelope
//     (Encode/Decode/PeekMeta/Verify);
//   - store.go + fs.go: atomic write-ahead commit of envelopes onto an
//     FS abstraction, with recovery rules proven under fault injection
//     (faultfs.go) — an interrupted write is rolled back silently, a
//     corrupted *committed* checkpoint fails loudly, never silently;
//   - manager.go: ties a live fssga.Network to a Store, adding delta
//     (changed-shard-only) checkpoints and chain restore.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"repro/internal/trace"
	"repro/internal/wordhash"
)

// Envelope layout (fixed-width integers big-endian):
//
//	offset 0:  magic "FSSGACKP" (8 bytes)
//	offset 8:  format version (uint16)
//	offset 10: meta length M (uint32)
//	offset 14: gob(Meta), M bytes
//	offset 14+M: the palette payload, until len-8
//	last 8:    wordhash.Sum of every preceding byte
//
// The palette payload stores each state as an index into a table of
// the payload's distinct states, which the paper's finite-state model
// (Def. 3.10) keeps small. Its integers are uvarints:
//
//	palette length P, then gob([]S) of the distinct states in
//	  first-seen order, P bytes
//	run count R (0 in a full checkpoint), then R pairs (Lo, length)
//	one palette index per state, big-endian: the Nodes states of a full
//	  checkpoint, or the runs' states in order. An index takes 1 byte
//	  while the palette holds at most 256 states, 2 bytes up to 65,536,
//	  else 4.
const (
	Magic      = "FSSGACKP"
	Version    = 4
	headerSize = len(Magic) + 2 + 4
	tailSize   = 8
)

// Checkpoint kinds.
const (
	KindFull  = "full"  // complete state vector
	KindDelta = "delta" // changed shards relative to BaseRound
)

// Structured decode failures. Every malformed input maps onto one of
// these (wrapped with detail); decode never panics, which
// FuzzCheckpointDecode enforces over a corrupt-bytes corpus.
var (
	// ErrTruncated: the data ends before the envelope structure does.
	ErrTruncated = errors.New("checkpoint: truncated envelope")
	// ErrFormat: bad magic, unsupported version, or undecodable content.
	ErrFormat = errors.New("checkpoint: malformed envelope")
	// ErrChecksum: the envelope is structurally complete but its
	// checksum does not match — the bytes were corrupted after writing.
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
)

// Meta is the payload-independent description of one checkpoint. It is
// decodable without knowing the state type (PeekMeta), so tooling can
// inspect checkpoints generically.
type Meta struct {
	Kind      string // KindFull or KindDelta
	Round     int    // network round counter at capture
	Nodes     int    // node capacity of the state vector
	Seed      int64  // master seed of the network's RNG streams
	TopoHash  uint64 // graph.CSR.ContentHash of the topology at capture
	BaseRound int    // delta: round of the checkpoint this one patches; -1 for full

	// Application context, interoperable with trace.RunLog artifacts:
	// enough to rebuild the topology and fast-forward a fault injector
	// before restoring states.
	Target        string          // automaton/target name, informational
	Workers       int             // worker count of the producing run
	Graph         trace.GraphSpec // topology recipe (graph.Build args)
	FaultsApplied int             // fault events applied before capture
}

// Run is one contiguous span of node states in a delta payload.
type Run[S any] struct {
	Lo     int
	States []S
}

// Payload carries the state data of one checkpoint: States for full
// checkpoints, Runs for deltas.
type Payload[S any] struct {
	States []S
	Runs   []Run[S]

	// Deprecated: ignored. Random streams are a function of the round
	// counter, so there are no stream positions to save; the field is
	// kept only for callers that still set it.
	RNGPos []uint64
}

// Encode serializes one checkpoint into a self-verifying envelope. It
// refuses a payload whose shape does not match meta, so that every
// envelope it writes can be read back.
func Encode[S comparable](meta Meta, pay Payload[S]) ([]byte, error) {
	runs := pay.runs()
	n := 0
	for _, r := range runs {
		n += len(r.States)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("checkpoint: encode payload: %d states overflow an int32 id", n)
	}
	// Number the states in first-seen order. Neighbouring nodes often
	// share a state; an equal neighbour skips the map.
	index := make(map[S]int32)
	flat := make([]int32, n)
	ids := make([][]int32, len(runs))
	for i, r := range runs {
		p, out := r.States, flat[:len(r.States):len(r.States)]
		var id int32
		for j, s := range p {
			if j == 0 || s != p[j-1] {
				var ok bool
				if id, ok = index[s]; !ok {
					id = int32(len(index))
					index[s] = id
				}
			}
			out[j] = id
		}
		ids[i], flat = out, flat[len(out):]
	}
	return encode(meta, pay, ids, len(index))
}

// encode is the one encoder behind Encode and Manager. ids numbers the
// states of the payload's runs (see runs): ids[i][j] < n for the j-th
// state of run i, and two states share an id iff they are equal. The
// palette takes the states in first-seen order, numbered through an
// n-entry table, and each state's index is written once, at the width
// the whole palette needs.
func encode[S comparable](meta Meta, pay Payload[S], ids [][]int32, n int) ([]byte, error) {
	if err := pay.validate(meta); err != nil {
		return nil, fmt.Errorf("checkpoint: encode payload: %w", err)
	}
	runs := pay.runs()
	nb := numbering[S]{index: make([]uint32, n)}
	count := 0
	for _, part := range ids {
		count += len(part)
	}
	// With at most 256 ids an index takes one byte whatever the payload
	// holds, so the states are numbered as their indices are written.
	// With more, the payload may still hold few enough states for
	// narrower indices, so a first pass numbers them.
	w := indexWidth(n)
	if w > 1 {
		for i, part := range ids {
			for j, id := range part {
				nb.of(id, runs[i].States[j])
			}
		}
		w = indexWidth(len(nb.pal))
	}
	idx := make([]byte, count*w)
	at := 0
	for i, part := range ids {
		states, dst := runs[i].States, idx[at:at+len(part)*w]
		switch w {
		case 1:
			for j, id := range part {
				dst[j] = byte(nb.of(id, states[j]))
			}
		case 2:
			for j, id := range part {
				binary.BigEndian.PutUint16(dst[2*j:], uint16(nb.of(id, states[j])))
			}
		default:
			for j, id := range part {
				binary.BigEndian.PutUint32(dst[4*j:], nb.of(id, states[j]))
			}
		}
		at += len(dst)
	}

	var states bytes.Buffer
	if err := gob.NewEncoder(&states).Encode(nb.pal); err != nil {
		return nil, fmt.Errorf("checkpoint: encode palette: %w", err)
	}
	head := binary.AppendUvarint(nil, uint64(states.Len()))
	table := binary.AppendUvarint(nil, uint64(len(pay.Runs)))
	for _, r := range pay.Runs {
		table = binary.AppendUvarint(table, uint64(r.Lo))
		table = binary.AppendUvarint(table, uint64(len(r.States)))
	}
	return seal(meta, head, states.Bytes(), table, idx)
}

// runs returns the payload's states as runs in envelope order: a full
// payload is one run from node 0.
func (p Payload[S]) runs() []Run[S] {
	if p.Runs == nil {
		return []Run[S]{{States: p.States}}
	}
	return p.Runs
}

// seal frames body parts into an envelope: the header, gob(meta), the
// parts in order, and the checksum trailer.
func seal(meta Meta, parts ...[]byte) ([]byte, error) {
	var mb bytes.Buffer
	if err := gob.NewEncoder(&mb).Encode(&meta); err != nil {
		return nil, fmt.Errorf("checkpoint: encode meta: %w", err)
	}
	size := headerSize + mb.Len() + tailSize
	for _, p := range parts {
		size += len(p)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, Magic...)
	buf = binary.BigEndian.AppendUint16(buf, Version)
	buf = binary.BigEndian.AppendUint32(buf, uint32(mb.Len()))
	buf = append(buf, mb.Bytes()...)
	for _, p := range parts {
		buf = append(buf, p...)
	}
	return binary.BigEndian.AppendUint64(buf, wordhash.Sum(buf)), nil
}

// indexWidth is the width in bytes of an index into a palette of n
// states.
func indexWidth(n int) int {
	switch {
	case n <= 1<<8:
		return 1
	case n <= 1<<16:
		return 2
	}
	return 4
}

// numbering gives ids palette indices in order of first sight.
type numbering[S comparable] struct {
	index []uint32 // index[id] is 1 + id's palette index, 0 until seen
	pal   []S
}

// of returns the palette index of id, whose state is s, numbering it
// next if it is unseen.
func (nb *numbering[S]) of(id int32, s S) uint32 {
	x := nb.index[id]
	if x == 0 {
		nb.pal = append(nb.pal, s)
		x = uint32(len(nb.pal))
		nb.index[id] = x
	}
	return x - 1
}

// readIndex returns the i-th index of b, w bytes each.
func readIndex(b []byte, i, w int) uint32 {
	switch w {
	case 1:
		return uint32(b[i])
	case 2:
		return uint32(binary.BigEndian.Uint16(b[2*i:]))
	}
	return binary.BigEndian.Uint32(b[4*i:])
}

// Verify checks the envelope frame — magic, version, structural
// lengths, checksum — without decoding the payload (and therefore
// without knowing the state type). A nil return guarantees the bytes
// are exactly the bytes some Encode produced.
func Verify(data []byte) error {
	if len(data) < headerSize+tailSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := binary.BigEndian.Uint16(data[8:10]); v != Version {
		return fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	metaLen := int64(binary.BigEndian.Uint32(data[10:14]))
	if int64(headerSize)+metaLen > int64(len(data)-tailSize) {
		return fmt.Errorf("%w: meta length %d exceeds envelope", ErrTruncated, metaLen)
	}
	want := binary.BigEndian.Uint64(data[len(data)-tailSize:])
	if got := wordhash.Sum(data[:len(data)-tailSize]); got != want {
		return fmt.Errorf("%w: want %016x, got %016x", ErrChecksum, want, got)
	}
	return nil
}

// PeekMeta verifies the envelope and decodes only its Meta block.
func PeekMeta(data []byte) (Meta, error) {
	if err := Verify(data); err != nil {
		return Meta{}, err
	}
	return decodeMeta(data)
}

// Decode verifies the envelope and decodes both blocks.
func Decode[S comparable](data []byte) (Meta, Payload[S], error) {
	if err := Verify(data); err != nil {
		return Meta{}, Payload[S]{}, err
	}
	return decodeVerified[S](data)
}

// decodeMeta decodes the Meta block of an envelope Verify accepted.
func decodeMeta(data []byte) (Meta, error) {
	var meta Meta
	metaLen := int(binary.BigEndian.Uint32(data[10:14]))
	if err := gobDecode(data[headerSize:headerSize+metaLen], &meta); err != nil {
		return Meta{}, fmt.Errorf("%w: meta: %v", ErrFormat, err)
	}
	if err := meta.validate(); err != nil {
		return Meta{}, err
	}
	return meta, nil
}

// decodeVerified decodes both blocks of an envelope Verify accepted.
// The bytes are still untrusted in shape: every length is checked
// against the bytes that hold it before anything is allocated, so
// allocation stays within a constant factor of len(data).
func decodeVerified[S comparable](data []byte) (Meta, Payload[S], error) {
	meta, err := decodeMeta(data)
	if err != nil {
		return Meta{}, Payload[S]{}, err
	}
	metaLen := int(binary.BigEndian.Uint32(data[10:14]))
	pay, err := decodePayload[S](meta, data[headerSize+metaLen:len(data)-tailSize])
	if err != nil {
		return Meta{}, Payload[S]{}, err
	}
	return meta, pay, nil
}

func decodePayload[S comparable](meta Meta, body []byte) (Payload[S], error) {
	c := cursor{b: body}
	var pal []S
	if block := c.take(c.uvarint()); c.err == nil {
		if err := gobDecode(block, &pal); err != nil {
			return Payload[S]{}, fmt.Errorf("%w: palette: %v", ErrFormat, err)
		}
	}
	nruns := c.uvarint()
	if c.err == nil && nruns > len(c.b)/2 { // a run takes at least 2 bytes
		c.err = fmt.Errorf("%w: %d runs in %d bytes", ErrTruncated, nruns, len(c.b))
	}
	count := meta.Nodes
	var runs []Run[S]
	var lens []int
	if c.err == nil && meta.Kind == KindDelta {
		count = 0
		runs, lens = make([]Run[S], nruns), make([]int, nruns)
		for i := range runs {
			runs[i].Lo, lens[i] = c.uvarint(), c.uvarint()
			// Every state takes an index byte, so a count past len(body)
			// is a lie; checking here also keeps the sum from overflowing.
			if c.err == nil && lens[i] > len(body)-count {
				c.err = fmt.Errorf("%w: runs claim more states than the payload holds", ErrTruncated)
			}
			count += lens[i]
		}
	} else if c.err == nil && nruns != 0 {
		c.err = fmt.Errorf("%w: full checkpoint carries delta runs", ErrFormat)
	}
	if c.err != nil {
		return Payload[S]{}, c.err
	}

	w := indexWidth(len(pal))
	if count > len(c.b)/w {
		return Payload[S]{}, fmt.Errorf("%w: %d states need %d-byte indices, %d bytes left", ErrTruncated, count, w, len(c.b))
	}
	if extra := len(c.b) - count*w; extra != 0 {
		return Payload[S]{}, fmt.Errorf("%w: %d trailing bytes", ErrFormat, extra)
	}
	states := make([]S, count)
	for i := range states {
		x := readIndex(c.b, i, w)
		if int(x) >= len(pal) {
			return Payload[S]{}, fmt.Errorf("%w: palette index %d of %d states", ErrFormat, x, len(pal))
		}
		states[i] = pal[x]
	}

	pay := Payload[S]{States: states}
	if meta.Kind == KindDelta {
		pay.States = nil
		for i, n := range lens {
			runs[i].States = states[:n:n]
			states = states[n:]
		}
		pay.Runs = runs
	}
	if err := pay.validate(meta); err != nil {
		return Payload[S]{}, err
	}
	return pay, nil
}

// cursor reads the palette payload front to back. Its first error
// sticks: later reads return zero values.
type cursor struct {
	b   []byte
	err error
}

// uvarint reads one uvarint that must fit in an int.
func (c *cursor) uvarint() int {
	if c.err != nil {
		return 0
	}
	v, k := binary.Uvarint(c.b)
	switch {
	case k == 0:
		c.err = fmt.Errorf("%w: payload ends inside an integer", ErrTruncated)
	case k < 0 || v > math.MaxInt:
		c.err = fmt.Errorf("%w: payload integer overflows", ErrFormat)
	default:
		c.b = c.b[k:]
		return int(v)
	}
	return 0
}

// take reads the next n bytes.
func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.b) {
		c.err = fmt.Errorf("%w: a %d-byte block with %d bytes left", ErrTruncated, n, len(c.b))
		return nil
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b
}

// gobDecode decodes strictly — trailing garbage after the value is an
// error — and converts the (never expected, but fuzz-adjacent) case of
// a decoder panic into an error.
func gobDecode(data []byte, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("decoder panic: %v", r)
		}
	}()
	r := bytes.NewReader(data)
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("%d trailing bytes", r.Len())
	}
	return nil
}

// validate rejects metas whose fields are structurally impossible, so
// downstream code can trust them without re-checking.
func (m Meta) validate() error {
	switch {
	case m.Kind != KindFull && m.Kind != KindDelta:
		return fmt.Errorf("%w: unknown kind %q", ErrFormat, m.Kind)
	case m.Round < 0 || m.Nodes < 0 || m.FaultsApplied < 0:
		return fmt.Errorf("%w: negative counter in meta", ErrFormat)
	case m.Kind == KindFull && m.BaseRound != -1:
		return fmt.Errorf("%w: full checkpoint with base round %d", ErrFormat, m.BaseRound)
	case m.Kind == KindDelta && (m.BaseRound < 0 || m.BaseRound >= m.Round):
		return fmt.Errorf("%w: delta of round %d based on round %d", ErrFormat, m.Round, m.BaseRound)
	}
	return nil
}

// validate checks the payload's shape against its meta.
func (p Payload[S]) validate(m Meta) error {
	switch m.Kind {
	case KindFull:
		if len(p.Runs) != 0 {
			return fmt.Errorf("%w: full checkpoint carries delta runs", ErrFormat)
		}
		if len(p.States) != m.Nodes {
			return fmt.Errorf("%w: %d states for %d nodes", ErrFormat, len(p.States), m.Nodes)
		}
	case KindDelta:
		if p.States != nil {
			return fmt.Errorf("%w: delta checkpoint carries a full state vector", ErrFormat)
		}
		prev := 0
		for i, r := range p.Runs {
			if r.Lo < prev || len(r.States) == 0 || r.Lo > m.Nodes-len(r.States) {
				return fmt.Errorf("%w: delta run %d out of bounds or order", ErrFormat, i)
			}
			prev = r.Lo + len(r.States)
		}
	}
	return nil
}
