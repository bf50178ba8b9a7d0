package service

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// AdmitError wraps a queue-full rejection with a Retry-After hint derived
// from the queue's observed drain rate. Unwrap yields ErrQueueFull so
// errors.Is keeps working.
type AdmitError struct {
	Err        error
	RetryAfter time.Duration
}

func (e *AdmitError) Error() string { return e.Err.Error() }
func (e *AdmitError) Unwrap() error { return e.Err }

// RetryAfterSeconds renders an error's Retry-After hint as whole seconds
// (minimum 1), falling back to def when the error carries none.
func RetryAfterSeconds(err error, def int) int {
	var ae *AdmitError
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		if s := int(math.Ceil(ae.RetryAfter.Seconds())); s >= 1 {
			return s
		}
		return 1
	}
	return def
}

// defaultClient is the fairness identity of submits that carry none.
const defaultClient = "default"

// maxClientName bounds a client name in bytes: admission keys its
// per-client queues by the name.
const maxClientName = 128

// admission is the bounded job queue: one FIFO per client, drained
// round-robin by the worker pool, with a drain-rate estimator for
// Retry-After hints. A job is admitted if the queue has room, whoever
// sends it and whatever it costs.
//
// Lock ordering: admission.mu is a leaf lock — it is acquired with
// Server.mu held (submit) and alone (pop); admission never calls back
// into the server.
type admission struct {
	capacity int

	mu      sync.Mutex
	cond    *sync.Cond
	clients map[string][]*Job // client → its queued jobs; only non-empty queues have an entry
	order   []string          // clients with queued work, round-robin order
	rr      int               // index into order of the next client to serve
	total   int               // queued jobs across all clients
	tracked int               // tracking jobs off the queue; each may come back
	closed  bool

	pops    []time.Time // timestamps of recent dequeues (drain-rate window)
	popHead int
	popN    int
}

const drainWindow = 64 // dequeue timestamps kept for the drain-rate estimate

func newAdmission(capacity int) *admission {
	a := &admission{
		capacity: capacity,
		clients:  make(map[string][]*Job),
		pops:     make([]time.Time, drainWindow),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// enqueue admits j into its client's queue, or rejects it with ErrQueueFull
// (and a Retry-After hint) when the queue is full, or with ErrDraining once
// closed. With force set (journal recovery) both checks are bypassed —
// recovered jobs must all fit.
func (a *admission) enqueue(j *Job, force bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed && !force {
		return ErrDraining
	}
	if !force && a.total >= a.capacity {
		return &AdmitError{Err: ErrQueueFull, RetryAfter: a.retryAfterLocked()}
	}
	q := a.clients[j.client]
	if len(q) == 0 {
		a.order = append(a.order, j.client)
	}
	a.clients[j.client] = append(q, j)
	a.total++
	a.cond.Signal()
	return nil
}

// pop blocks until a job is available (returned round-robin across
// clients) or the queue is closed and empty with no job tracked. Expiry
// is the caller's business: pop hands out whatever was queued, the server
// decides whether it still deserves a worker.
func (a *admission) pop() (*Job, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if a.total > 0 {
			return a.popLocked(), true
		}
		if a.closed && a.tracked == 0 {
			return nil, false
		}
		a.cond.Wait()
	}
}

func (a *admission) popLocked() *Job {
	if a.rr >= len(a.order) {
		a.rr = 0
	}
	name := a.order[a.rr]
	q := a.clients[name]
	j := q[0]
	q[0] = nil
	a.total--
	if q = q[1:]; len(q) == 0 {
		// An idle client's entry would hold nothing, and keeping it would
		// keep every name ever seen.
		a.dropClientLocked(name)
	} else {
		a.clients[name] = q
		a.rr++
	}
	a.pops[a.popHead] = time.Now()
	a.popHead = (a.popHead + 1) % drainWindow
	if a.popN < drainWindow {
		a.popN++
	}
	return j
}

// remove takes a queued job out of its client's queue, freeing its slot.
// A job a worker has already popped is absent; the worker skips it once
// it sees the job is no longer queued.
func (a *admission) remove(j *Job) {
	a.mu.Lock()
	defer a.mu.Unlock()
	q := a.clients[j.client]
	for i, qj := range q {
		if qj != j {
			continue
		}
		a.total--
		if len(q) == 1 {
			a.dropClientLocked(j.client)
			return
		}
		copy(q[i:], q[i+1:])
		q[len(q)-1] = nil
		a.clients[j.client] = q[:len(q)-1]
		return
	}
}

// dropClientLocked removes an emptied client's entry and its place in
// the round-robin order, keeping rr on the client it would serve next.
func (a *admission) dropClientLocked(name string) {
	delete(a.clients, name)
	for i, c := range a.order {
		if c != name {
			continue
		}
		a.order = append(a.order[:i], a.order[i+1:]...)
		if i < a.rr {
			a.rr--
		}
		return
	}
}

// retryAfterLocked projects the time until the queue frees a slot at the
// observed dequeue rate, clamped to [1s, 5m]. Before any job has been
// dequeued there is no rate to project from; a flat 5s stands in.
func (a *admission) retryAfterLocked() time.Duration {
	const fallback = 5 * time.Second
	if a.popN < 2 {
		return fallback
	}
	newest := a.pops[(a.popHead+drainWindow-1)%drainWindow]
	oldest := a.pops[(a.popHead+drainWindow-a.popN)%drainWindow]
	window := newest.Sub(oldest)
	if window <= 0 {
		return time.Second
	}
	rate := float64(a.popN-1) / window.Seconds() // dequeues per second
	est := time.Duration(float64(time.Second) / rate)
	if est < time.Second {
		return time.Second
	}
	if est > 5*time.Minute {
		return 5 * time.Minute
	}
	return est
}

// depths snapshots the per-client queue depths for /metrics.
func (a *admission) depths() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.clients) == 0 {
		return nil
	}
	out := make(map[string]int, len(a.clients))
	for name, q := range a.clients {
		out[name] = len(q)
	}
	return out
}

// track counts a forwarded job's tracking in (+1) or out (-1). Workers
// outlive close while any job is tracked: its owner may still fail and
// hand it back to the queue for a worker.
func (a *admission) track(delta int) {
	a.mu.Lock()
	a.tracked += delta
	a.mu.Unlock()
	a.cond.Broadcast()
}

// close stops admission: enqueue rejects (ErrDraining) and pop returns
// ok=false once the queues are empty, letting workers exit after a clean
// drain.
func (a *admission) close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.cond.Broadcast()
}

// String renders the scheduler state for logs.
func (a *admission) String() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return fmt.Sprintf("admission{total=%d/%d clients=%d closed=%v}", a.total, a.capacity, len(a.clients), a.closed)
}
