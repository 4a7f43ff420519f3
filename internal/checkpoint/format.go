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
	"hash/fnv"

	"repro/internal/trace"
)

// Envelope layout (all integers big-endian):
//
//	offset 0:  magic "FSSGACKP" (8 bytes)
//	offset 8:  format version (uint16)
//	offset 10: meta length M (uint32)
//	offset 14: gob(Meta), M bytes
//	offset 14+M: gob(Payload[S]) until len-8
//	last 8:    FNV-1a 64 checksum of every preceding byte
const (
	Magic      = "FSSGACKP"
	Version    = 2
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

// Encode serializes one checkpoint into a self-verifying envelope.
func Encode[S any](meta Meta, pay Payload[S]) ([]byte, error) {
	var mb bytes.Buffer
	if err := gob.NewEncoder(&mb).Encode(&meta); err != nil {
		return nil, fmt.Errorf("checkpoint: encode meta: %w", err)
	}
	buf := bytes.NewBuffer(make([]byte, 0, headerSize+mb.Len()))
	buf.WriteString(Magic)
	var hdr [6]byte
	binary.BigEndian.PutUint16(hdr[0:2], Version)
	binary.BigEndian.PutUint32(hdr[2:6], uint32(mb.Len()))
	buf.Write(hdr[:])
	buf.Write(mb.Bytes())
	if err := gob.NewEncoder(buf).Encode(&pay); err != nil {
		return nil, fmt.Errorf("checkpoint: encode payload: %w", err)
	}
	sum := fnv.New64a()
	sum.Write(buf.Bytes())
	var tail [tailSize]byte
	binary.BigEndian.PutUint64(tail[:], sum.Sum64())
	buf.Write(tail[:])
	return buf.Bytes(), nil
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
	sum := fnv.New64a()
	sum.Write(data[:len(data)-tailSize])
	if sum.Sum64() != want {
		return fmt.Errorf("%w: want %016x, got %016x", ErrChecksum, want, sum.Sum64())
	}
	return nil
}

// PeekMeta verifies the envelope and decodes only its Meta block.
func PeekMeta(data []byte) (Meta, error) {
	var meta Meta
	if err := Verify(data); err != nil {
		return meta, err
	}
	metaLen := int(binary.BigEndian.Uint32(data[10:14]))
	if err := gobDecode(data[headerSize:headerSize+metaLen], &meta); err != nil {
		return Meta{}, fmt.Errorf("%w: meta: %v", ErrFormat, err)
	}
	if err := meta.validate(); err != nil {
		return Meta{}, err
	}
	return meta, nil
}

// Decode verifies the envelope and decodes both blocks.
func Decode[S any](data []byte) (Meta, Payload[S], error) {
	var pay Payload[S]
	meta, err := PeekMeta(data)
	if err != nil {
		return Meta{}, pay, err
	}
	metaLen := int(binary.BigEndian.Uint32(data[10:14]))
	body := data[headerSize+metaLen : len(data)-tailSize]
	if err := gobDecode(body, &pay); err != nil {
		return Meta{}, Payload[S]{}, fmt.Errorf("%w: payload: %v", ErrFormat, err)
	}
	if err := pay.validate(meta); err != nil {
		return Meta{}, Payload[S]{}, err
	}
	return meta, pay, nil
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
			if r.Lo < prev || len(r.States) == 0 || r.Lo+len(r.States) > m.Nodes {
				return fmt.Errorf("%w: delta run %d out of bounds or order", ErrFormat, i)
			}
			prev = r.Lo + len(r.States)
		}
	}
	return nil
}
