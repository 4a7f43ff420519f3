package checkpoint

import (
	"errors"
	"fmt"
	"sync"
)

// FaultFS wraps an FS with deterministic fault injection. Every
// mutating operation is divided into crash units — points at which a
// process death leaves a distinct on-disk state:
//
//	WriteFile: 3 units — crash before (nothing written), crash mid
//	           (a torn prefix of half the data), crash after (full
//	           content on disk but the caller never saw success);
//	Rename:    1 unit — crash before the atomic swap;
//	Remove:    1 unit — crash before the removal.
//
// A sweep runs the same workload once per unit index k, arming the
// FaultFS to crash at unit k; after the crash every operation fails
// with ErrCrashed, modeling a dead process. The surviving inner FS is
// then handed to recovery, which must either restore the last committed
// checkpoint exactly or fail loudly — the crash sweep in internal/chaos
// asserts this for every k.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	units   int64 // mutation units consumed so far
	crashAt int64 // crash when units reaches this; <0 = never
	crashed bool

	// shortReads, while positive, truncates each ReadFile result to
	// half its length, consuming one shortRead per read.
	shortReads int
}

// ErrCrashed marks operations refused because the simulated process
// already died.
var ErrCrashed = errors.New("checkpoint: simulated crash")

// NewFaultFS wraps inner with the crash point disarmed.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner, crashAt: -1}
}

// CrashAtUnit arms the fault: the n-th mutation unit (0-based) from now
// dies mid-operation. Negative disarms.
func (f *FaultFS) CrashAtUnit(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < 0 {
		f.crashAt = -1
	} else {
		f.crashAt = f.units + n
	}
}

// Units reports the mutation units consumed so far — running a workload
// once uncrashed measures the sweep space.
func (f *FaultFS) Units() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.units
}

// Crashed reports whether the armed crash has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// ShortReads arms the next n ReadFile calls to return half the file.
func (f *FaultFS) ShortReads(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortReads = n
}

// tick consumes one mutation unit and reports whether the crash fires
// on it. Once crashed, every subsequent call fires immediately.
func (f *FaultFS) tick() bool {
	if f.crashed {
		return true
	}
	hit := f.crashAt >= 0 && f.units == f.crashAt
	f.units++
	if hit {
		f.crashed = true
	}
	return hit
}

func (f *FaultFS) WriteFile(name string, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tick() { // unit 1: before any byte lands
		return fmt.Errorf("checkpoint: write %s: %w", name, ErrCrashed)
	}
	if f.tick() { // unit 2: torn mid-write
		if err := f.inner.WriteFile(name, data[:len(data)/2]); err != nil {
			return err
		}
		return fmt.Errorf("checkpoint: torn write %s: %w", name, ErrCrashed)
	}
	if f.tick() { // unit 3: data durable, success never observed
		if err := f.inner.WriteFile(name, data); err != nil {
			return err
		}
		return fmt.Errorf("checkpoint: write %s committed but crashed: %w", name, ErrCrashed)
	}
	return f.inner.WriteFile(name, data)
}

func (f *FaultFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tick() {
		return fmt.Errorf("checkpoint: rename %s: %w", oldname, ErrCrashed)
	}
	return f.inner.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tick() {
		return fmt.Errorf("checkpoint: remove %s: %w", name, ErrCrashed)
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	crashed, short := f.admit(true)
	if crashed {
		return nil, fmt.Errorf("checkpoint: read %s: %w", name, ErrCrashed)
	}
	data, err := f.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if short {
		return data[:len(data)/2], nil
	}
	return data, nil
}

func (f *FaultFS) List() ([]string, error) {
	if crashed, _ := f.admit(false); crashed {
		return nil, fmt.Errorf("checkpoint: list: %w", ErrCrashed)
	}
	return f.inner.List()
}

// admit takes the lock for a read-only operation: it reports whether
// the crash has fired and, for a file read (read set), consumes one
// armed short read.
func (f *FaultFS) admit(read bool) (crashed, short bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	short = read && !f.crashed && f.shortReads > 0
	if short {
		f.shortReads--
	}
	return f.crashed, short
}
