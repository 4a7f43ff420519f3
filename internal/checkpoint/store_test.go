package checkpoint

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func envelope(t *testing.T, round int, states ...int) []byte {
	t.Helper()
	meta := fullMeta(len(states))
	meta.Round = round
	data, err := Encode(meta, Payload[int]{States: states})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestStoreWriteLatest(t *testing.T) {
	fs := NewMemFS()
	st := NewStore(fs, 0)
	for r := 1; r <= 3; r++ {
		if err := st.Write(r*10, envelope(t, r*10, r, r, r)); err != nil {
			t.Fatal(err)
		}
	}
	round, data, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if round != 30 {
		t.Fatalf("latest round = %d", round)
	}
	if !reflect.DeepEqual(data, envelope(t, 30, 3, 3, 3)) {
		t.Fatal("latest data mismatch")
	}
	rounds, err := st.Rounds()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rounds, []int{10, 20, 30}) {
		t.Fatalf("rounds = %v", rounds)
	}
	// No stray protocol files after a clean commit.
	names, _ := fs.List()
	if len(names) != 3 {
		t.Fatalf("leftover files: %v", names)
	}
}

func TestStoreEmpty(t *testing.T) {
	st := NewStore(NewMemFS(), 0)
	if _, _, err := st.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store: %v", err)
	}
}

func TestStoreRetention(t *testing.T) {
	st := NewStore(NewMemFS(), 2)
	for r := 1; r <= 5; r++ {
		if err := st.Write(r, envelope(t, r, r)); err != nil {
			t.Fatal(err)
		}
	}
	rounds, err := st.Rounds()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rounds, []int{4, 5}) {
		t.Fatalf("retained %v, want [4 5]", rounds)
	}
}

// TestStoreRecoveryRules drives each distinct crash landing by hand and
// checks the documented recovery outcome.
func TestStoreRecoveryRules(t *testing.T) {
	good := envelope(t, 1, 7)
	newer := envelope(t, 2, 8)

	t.Run("intent alone rolls back", func(t *testing.T) {
		fs := NewMemFS()
		st := NewStore(fs, 0)
		if err := st.Write(1, good); err != nil {
			t.Fatal(err)
		}
		fs.WriteFile(intentName(2), []byte("x"))
		round, data, err := st.Latest()
		if err != nil || round != 1 {
			t.Fatalf("round=%d err=%v", round, err)
		}
		if !reflect.DeepEqual(data, good) {
			t.Fatal("data mismatch")
		}
		if names, _ := fs.List(); len(names) != 1 {
			t.Fatalf("intent not swept: %v", names)
		}
	})

	t.Run("intent with torn final rolls back silently", func(t *testing.T) {
		fs := NewMemFS()
		st := NewStore(fs, 0)
		if err := st.Write(1, good); err != nil {
			t.Fatal(err)
		}
		fs.WriteFile(intentName(2), []byte("x"))
		fs.WriteFile(finalName(2), newer[:len(newer)/2]) // torn
		round, _, err := st.Latest()
		if err != nil || round != 1 {
			t.Fatalf("round=%d err=%v", round, err)
		}
	})

	t.Run("intent with valid final completes the commit", func(t *testing.T) {
		fs := NewMemFS()
		st := NewStore(fs, 0)
		if err := st.Write(1, good); err != nil {
			t.Fatal(err)
		}
		fs.WriteFile(intentName(2), []byte("x"))
		fs.WriteFile(finalName(2), newer) // crash fell between rename and intent removal
		round, data, err := st.Latest()
		if err != nil || round != 2 {
			t.Fatalf("round=%d err=%v", round, err)
		}
		if !reflect.DeepEqual(data, newer) {
			t.Fatal("data mismatch")
		}
	})

	t.Run("corrupt committed file fails loudly", func(t *testing.T) {
		fs := NewMemFS()
		st := NewStore(fs, 0)
		if err := st.Write(1, good); err != nil {
			t.Fatal(err)
		}
		if err := fs.Corrupt(finalName(1), len(good)/2, 3); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Latest(); !errors.Is(err, ErrChecksum) {
			t.Fatalf("want loud ErrChecksum, got %v", err)
		}
	})

	t.Run("truncated committed file fails loudly", func(t *testing.T) {
		fs := NewMemFS()
		st := NewStore(fs, 0)
		if err := st.Write(1, good); err != nil {
			t.Fatal(err)
		}
		if err := fs.Truncate(finalName(1), 5); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Latest(); err == nil {
			t.Fatal("truncated committed file loaded silently")
		}
	})

	t.Run("stray tmp is swept", func(t *testing.T) {
		fs := NewMemFS()
		st := NewStore(fs, 0)
		if err := st.Write(1, good); err != nil {
			t.Fatal(err)
		}
		fs.WriteFile(tmpName(2), newer)
		if _, _, err := st.Latest(); err != nil {
			t.Fatal(err)
		}
		if names, _ := fs.List(); len(names) != 1 {
			t.Fatalf("tmp not swept: %v", names)
		}
	})

	t.Run("foreign files ignored", func(t *testing.T) {
		fs := NewMemFS()
		st := NewStore(fs, 0)
		fs.WriteFile("README.txt", []byte("hi"))
		fs.WriteFile("ckpt-abc.fssga", []byte("junk"))
		if err := st.Write(1, good); err != nil {
			t.Fatal(err)
		}
		round, _, err := st.Latest()
		if err != nil || round != 1 {
			t.Fatalf("round=%d err=%v", round, err)
		}
	})
}

// TestStoreCrashSweep is the store-level crash-at-every-unit sweep:
// for every mutation unit of a three-checkpoint workload, crash there,
// recover, and require the survivor to be exactly the last checkpoint
// whose Write returned nil (or, during an interrupted commit, either
// side of its commit point) — never a corrupt load.
func TestStoreCrashSweep(t *testing.T) {
	workload := func(st *Store) (acked []int) {
		for r := 1; r <= 3; r++ {
			if err := st.Write(r, envelope(t, r, r, r)); err == nil {
				acked = append(acked, r)
			}
		}
		return acked
	}

	// Measure the sweep space on an uncrashed run.
	probe := NewFaultFS(NewMemFS())
	workload(NewStore(probe, 0))
	units := probe.Units()
	if units == 0 {
		t.Fatal("workload consumed no units")
	}

	for k := int64(0); k < units; k++ {
		mem := NewMemFS()
		ffs := NewFaultFS(mem)
		ffs.CrashAtUnit(k)
		acked := workload(NewStore(ffs, 0))

		// "Reboot": recovery runs against the surviving bytes.
		st := NewStore(mem, 0)
		round, data, err := st.Latest()
		switch {
		case err == nil:
			meta, pay, derr := Decode[int](data)
			if derr != nil {
				t.Fatalf("unit %d: corrupt load: %v", k, derr)
			}
			if meta.Round != round || !reflect.DeepEqual(pay.States, []int{round, round}) {
				t.Fatalf("unit %d: silent corruption: %+v", k, meta)
			}
			// The survivor is at least everything acknowledged.
			if len(acked) > 0 && round < acked[len(acked)-1] {
				t.Fatalf("unit %d: acked round %d lost, recovered %d", k, acked[len(acked)-1], round)
			}
		case errors.Is(err, ErrNoCheckpoint):
			if len(acked) > 0 {
				t.Fatalf("unit %d: acked rounds %v lost entirely", k, acked)
			}
		default:
			t.Fatalf("unit %d: recovery failed loudly on an interrupted write: %v", k, err)
		}
	}
}

// TestStoreShortRead: a short read of a committed checkpoint surfaces
// as a truncation error, not a silent partial load — through Latest
// too, whose List calls leave the armed short read to the file read.
func TestStoreShortRead(t *testing.T) {
	mem := NewMemFS()
	st := NewStore(mem, 0)
	if err := st.Write(1, envelope(t, 1, 9)); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(mem)
	ffs.ShortReads(1)
	if _, err := NewStore(ffs, 0).Read(1); err == nil {
		t.Fatal("short read loaded silently")
	}
	ffs.ShortReads(1)
	if _, _, err := NewStore(ffs, 0).Latest(); err == nil {
		t.Fatal("Latest loaded a short read silently")
	}
}

func TestParseName(t *testing.T) {
	for _, name := range []string{"ckpt-000000000007.fssga", "ckpt-000000000007.fssga.tmp", "ckpt-000000000007.intent"} {
		round, _, ok := parseName(name)
		if !ok || round != 7 {
			t.Fatalf("parseName(%q) = %d, %v", name, round, ok)
		}
	}
	for _, name := range []string{"other.txt", "ckpt-7.fssga", "ckpt-00000000000x.fssga", fmt.Sprintf("ckpt-%012d.bak", 3)} {
		if _, _, ok := parseName(name); ok {
			t.Fatalf("parseName(%q) accepted", name)
		}
	}
}
