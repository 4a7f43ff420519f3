package testutil

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// NoLeak registers a cleanup that fails the test if it leaves goroutines
// behind. It snapshots the live goroutines when called (so call it first,
// before the test spawns anything) and diffs the snapshot at cleanup
// time: any goroutine that appeared during the test and is still running
// after the grace window is a leak.
//
// This is the repository's one check that every goroutine it starts
// stops: a test that leaves a shard-pool helper running fails here, so
// a helper with no way to stop fails every pool test run under it. The
// grace window retries with a GC between attempts, because that is how
// the engine releases a test's shard pools: a pool lives as long as its
// network, and a runtime cleanup closes it once a GC finds the network
// unreachable. Tests drop their networks and rely on this path; the
// helpers then need a few scheduler quanta to observe the closed stop
// channel.
func NoLeak(t testing.TB) {
	t.Helper()
	before := make(map[string]bool)
	for id := range goroutineStacks() {
		before[id] = true
	}
	t.Cleanup(func() {
		t.Helper()
		// A fixed retry count with a fixed sleep keeps the harness free of
		// wall-clock reads: the deadline is "leakGraceTries quanta", not a
		// time.Now comparison.
		var leaked []string
		for try := 0; try < leakGraceTries; try++ {
			leaked = leakedSince(before)
			if len(leaked) == 0 {
				return
			}
			runtime.GC() // collect dropped networks, so their cleanups stop their pools
			time.Sleep(leakGraceQuantum)
		}
		t.Errorf("NoLeak: %d goroutine(s) leaked by this test:\n\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	})
}

const (
	// leakGraceTries bounds how many scheduler quanta a goroutine gets to
	// observe its release signal before it counts as leaked.
	leakGraceTries = 50
	// leakGraceQuantum is one retry's sleep.
	leakGraceQuantum = 10 * time.Millisecond
)

// leakedSince returns the stacks of goroutines not in the before
// snapshot and not recognizably owned by the testing or runtime
// machinery, sorted for stable failure output.
func leakedSince(before map[string]bool) []string {
	var leaked []string
	for id, stack := range goroutineStacks() {
		if before[id] || benignStack(stack) {
			continue
		}
		leaked = append(leaked, stack)
	}
	sort.Strings(leaked)
	return leaked
}

// goroutineStacks captures every live goroutine's stack, keyed by the
// goroutine ID from its header line ("goroutine 42 [running]:").
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := make(map[string]string)
	for _, s := range strings.Split(string(buf), "\n\n") {
		fields := strings.Fields(s)
		if len(fields) >= 2 && fields[0] == "goroutine" {
			stacks[fields[1]] = s
		}
	}
	return stacks
}

// benignStack recognizes goroutines the harness must not blame on the
// test: sibling tests (anything parked in the testing package) and
// runtime-owned service goroutines.
func benignStack(stack string) bool {
	for _, marker := range []string{
		"testing.",          // parallel siblings, tRunner plumbing
		"runtime.ReadTrace", // execution tracer
		"runtime.ensureSigM",
		"os/signal.signal_recv",
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
