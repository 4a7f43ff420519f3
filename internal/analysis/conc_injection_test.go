package analysis_test

import "testing"

// Acceptance pins for the concurrency analyzers: each of the five
// injections below re-introduces a concurrency-contract violation into
// a synthetic internal/fssga package and must turn the lint gate red
// with a diagnostic from the right analyzer. Where a clean counterpart
// exists (the shapes the real tree uses), it is checked to stay clean —
// the false-positive guard.

// Injection 1: a send on a channel the package also closes.
func TestInjectedSendAfterCloseIsFlagged(t *testing.T) {
	findings := analyzeSynthetic(t, "repro/internal/fssga", `package fssga

type emitter struct {
	out chan int
}

// Emit races Finish: the send panics if the close lands first.
func (e *emitter) Emit(v int) { e.out <- v }

// Finish closes out.
func (e *emitter) Finish() { close(e.out) }
`)
	if got := byAnalyzer(findings, "chanprotocol"); len(got) != 1 {
		t.Fatalf("findings = %v, want exactly one chanprotocol diagnostic", findings)
	}
}

// Injection 2: two close sites for one channel.
func TestInjectedDoubleCloseIsFlagged(t *testing.T) {
	findings := analyzeSynthetic(t, "repro/internal/fssga", `package fssga

type lifecycle struct {
	done chan struct{}
}

// Shutdown closes done on two paths; the second close panics.
func (l *lifecycle) Shutdown(force bool) {
	close(l.done)
	if force {
		close(l.done)
	}
}
`)
	if got := byAnalyzer(findings, "chanprotocol"); len(got) != 1 {
		t.Fatalf("findings = %v, want exactly one chanprotocol diagnostic", findings)
	}
}

// Injection 3: the same two locks acquired in opposite orders.
func TestInjectedInvertedLockOrderIsFlagged(t *testing.T) {
	findings := analyzeSynthetic(t, "repro/internal/fssga", `package fssga

import "sync"

type ledger struct {
	accounts sync.Mutex
	journal  sync.Mutex
}

// Post takes accounts before journal.
func (l *ledger) Post() {
	l.accounts.Lock()
	defer l.accounts.Unlock()
	l.journal.Lock()
	defer l.journal.Unlock()
}

// Audit takes journal before accounts: the deadlock pair.
func (l *ledger) Audit() {
	l.journal.Lock()
	defer l.journal.Unlock()
	l.accounts.Lock()
	defer l.accounts.Unlock()
}
`)
	if got := byAnalyzer(findings, "lockorder"); len(got) != 2 {
		t.Fatalf("findings = %v, want both sides of the deadlock pair flagged", findings)
	}
}

// Injection 4: the pre-fix shard-pool wake path — a plain blocking send
// on a channel a worker goroutine parks on. The fixed shape
// (select/default) must stay clean.
func TestInjectedBlockingWakeSendIsFlagged(t *testing.T) {
	const blocking = `package fssga

type wakePool struct {
	stop chan struct{}
	wake chan struct{}
}

// StartWakePool parks a worker on wake.
func StartWakePool() *wakePool {
	p := &wakePool{stop: make(chan struct{}), wake: make(chan struct{})}
	go func() {
		for {
			select {
			case <-p.stop:
				return
			case <-p.wake:
			}
		}
	}()
	return p
}

// Wake parks the caller whenever the worker is mid-round.
func (p *wakePool) Wake() { p.wake <- struct{}{} }

// Close releases the worker.
func (p *wakePool) Close() { close(p.stop) }
`
	findings := analyzeSynthetic(t, "repro/internal/fssga", blocking)
	if got := byAnalyzer(findings, "chanprotocol"); len(got) != 1 {
		t.Fatalf("findings = %v, want exactly one chanprotocol diagnostic", findings)
	}

	const nonBlocking = `package fssga

const testWakeCap = 1

type wakePool struct {
	stop chan struct{}
	wake chan struct{}
}

// StartWakePool parks a worker on wake.
func StartWakePool() *wakePool {
	p := &wakePool{stop: make(chan struct{}), wake: make(chan struct{}, testWakeCap)}
	go func() {
		for {
			select {
			case <-p.stop:
				return
			case <-p.wake:
			}
		}
	}()
	return p
}

// Wake never parks: the select falls through when the buffer is full.
func (p *wakePool) Wake() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Close releases the worker.
func (p *wakePool) Close() { close(p.stop) }
`
	if findings := analyzeSynthetic(t, "repro/internal/fssga", nonBlocking); len(findings) != 0 {
		t.Fatalf("fixed wake shape wrongly flagged: %v", findings)
	}
}

// Injection 5: a field read plainly in one method and atomically in
// another, flagged at the raw sync/atomic call.
func TestInjectedMixedAtomicPlainIsFlagged(t *testing.T) {
	findings := analyzeSynthetic(t, "repro/internal/fssga", `package fssga

import "sync/atomic"

type tally struct {
	hits int64
}

// Bump claims hits for sync/atomic.
func (t *tally) Bump() { atomic.AddInt64(&t.hits, 1) }

// Hits reads it plainly: a data race under the memory model.
func (t *tally) Hits() int64 { return t.hits }
`)
	if got := byAnalyzer(findings, "atomicmix"); len(got) != 1 {
		t.Fatalf("findings = %v, want exactly one atomicmix diagnostic", findings)
	}
}
