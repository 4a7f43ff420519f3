// Package lockdeep pins multi-hop summary propagation: the blocking send
// sits behind a leading if, in a helper two calls away from the
// lock-holding caller and declared after it.
package lockdeep

import "sync"

type queue struct {
	mu  sync.Mutex
	out chan int
}

// Push holds the lock across the call chain that ends in a send.
func (q *queue) Push(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.forward(v) // want `call to forward may block on a channel while holding "q.mu"`
}

func (q *queue) forward(v int) { q.emit(v) }

func (q *queue) emit(v int) {
	if v > 0 {
		q.out <- v
	}
}
