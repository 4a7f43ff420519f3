package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/testutil"
)

// TestDirFSStoreEndToEnd drives the production filesystem backend
// through the full store protocol: commits, retention, recovery sweep,
// and a loud refusal on a corrupted committed file.
func TestDirFSStoreEndToEnd(t *testing.T) {
	testutil.NoLeak(t)
	fs, err := NewDirFS(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(fs, 2)
	for r := 1; r <= 3; r++ {
		if err := st.Write(r, envelope(t, r, r)); err != nil {
			t.Fatal(err)
		}
	}
	round, data, err := st.Latest()
	if err != nil || round != 3 {
		t.Fatalf("latest = %d, %v", round, err)
	}
	if !reflect.DeepEqual(data, envelope(t, 3, 3)) {
		t.Fatal("latest data mismatch")
	}
	rounds, err := st.Rounds()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rounds, []int{2, 3}) {
		t.Fatalf("retention kept %v", rounds)
	}

	// A crash landing: stray intent + tmp from an interrupted commit.
	if err := fs.WriteFile(intentName(9), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(tmpName(9), []byte("partial")); err != nil {
		t.Fatal(err)
	}
	if round, _, err := st.Latest(); err != nil || round != 3 {
		t.Fatalf("recovery: round=%d err=%v", round, err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("protocol files not swept: %v", names)
	}

	// Remove of a missing file is not an error (recovery is idempotent).
	if err := fs.Remove("ckpt-000000000099.intent"); err != nil {
		t.Fatal(err)
	}

	// Corrupt a committed byte on disk: load must refuse loudly.
	data, err = fs.ReadFile(finalName(3))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := fs.WriteFile(finalName(3), data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Latest(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt committed file on disk: %v", err)
	}
}

// TestFaultFSPassThrough covers the inspection surface of the fault shim
// when disarmed: reads and listings reach the inner FS, and the crash
// flag stays down.
func TestFaultFSPassThrough(t *testing.T) {
	testutil.NoLeak(t)
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	if err := ffs.WriteFile("a", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if ffs.Crashed() {
		t.Fatal("disarmed shim reports crashed")
	}
	names, err := ffs.List()
	if err != nil || len(names) != 1 || names[0] != "a" {
		t.Fatalf("list = %v, %v", names, err)
	}
	if _, err := ffs.ReadFile("a"); err != nil {
		t.Fatal(err)
	}

	ffs.CrashAtUnit(0)
	if err := ffs.WriteFile("b", []byte{2}); err == nil {
		t.Fatal("write survived the crash unit")
	}
	if !ffs.Crashed() {
		t.Fatal("crash flag not raised")
	}
	if _, err := ffs.List(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash list: %v", err)
	}
	if _, err := ffs.ReadFile("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: %v", err)
	}
}

// TestMemFSListSorted holds List to the order its callers rely on: the
// crash soak's bit-flip sweep walks the listing with one seeded stream,
// so a listing in map order would change which bits the sweep flips.
func TestMemFSListSorted(t *testing.T) {
	testutil.NoLeak(t)
	mem := NewMemFS()
	want := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	for _, i := range []int{4, 7, 0, 8, 2, 5, 1, 6, 3} {
		if err := mem.WriteFile(want[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := mem.List(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("List() = %v, %v; want %v", got, err, want)
	}
}

// TestFSConcurrentUse holds MemFS, and FaultFS over a MemFS, to the
// promise in their doc comments: every method is safe for concurrent
// use. Four goroutines each write, rename, read, list and remove their
// own files on one FS; under the race detector, dropping either mutex
// fails the test.
func TestFSConcurrentUse(t *testing.T) {
	testutil.NoLeak(t)
	const goroutines, iters = 4, 50
	fault := NewFaultFS(NewMemFS())
	for _, fs := range []FS{NewMemFS(), fault} {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				name, tmp := fmt.Sprintf("f%d", g), fmt.Sprintf("f%d.tmp", g)
				for i := 0; i < iters; i++ {
					data := []byte{byte(g), byte(i)}
					if err := fs.WriteFile(tmp, data); err != nil {
						t.Error(err)
						return
					}
					if err := fs.Rename(tmp, name); err != nil {
						t.Error(err)
						return
					}
					if got, err := fs.ReadFile(name); err != nil || !bytes.Equal(got, data) {
						t.Errorf("%T: read %s = %v, %v; want %v", fs, name, got, err, data)
						return
					}
					if _, err := fs.List(); err != nil {
						t.Error(err)
						return
					}
					if err := fs.Remove(name); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if names, err := fs.List(); err != nil || len(names) != 0 {
			t.Errorf("%T: files left = %v, %v; want none", fs, names, err)
		}
	}
	// A write is 3 crash units, a rename and a remove 1 each.
	if got, want := fault.Units(), int64(goroutines*iters*5); got != want {
		t.Errorf("FaultFS counted %d mutation units, want %d", got, want)
	}
}
