package service

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Admission-control sentinel errors. Both map to HTTP 429 with a
// Retry-After hint; ErrQueueFull and ErrDraining keep their PR-1 meanings.
var (
	// ErrShedLoad rejects a job whose estimated cost is too high for the
	// current queue pressure (cheap work is still admitted until the queue
	// is hard-full).
	ErrShedLoad = errors.New("service: load shed: job too expensive under current queue pressure")
	// ErrRateLimited rejects a submit that exceeds the client's token
	// bucket.
	ErrRateLimited = errors.New("service: client rate limit exceeded")
)

// AdmitError wraps an admission rejection with a Retry-After hint derived
// from the queue's observed drain rate (or the token bucket's refill
// time). Unwrap yields the sentinel (ErrQueueFull, ErrShedLoad,
// ErrRateLimited) so errors.Is keeps working.
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

// estimateCost scores a request's expected compute: grid size × simulated
// years × population count. The absolute scale is arbitrary — shedding
// only compares costs against each other.
func estimateCost(req request) float64 {
	cells := float64(req.Config.Rows * req.Config.Cols)
	years := req.Config.Years
	if years < 0 {
		years = 0
	}
	chips := float64(req.Chips)
	if chips < 1 {
		chips = 1
	}
	return cells * years * chips
}

// clientQueue is one client's FIFO plus its token bucket.
type clientQueue struct {
	name   string
	jobs   []*Job
	tokens float64
	last   time.Time
}

// admission is the fair-admission scheduler that replaces the single FIFO
// channel: per-client queues drained round-robin by the worker pool,
// per-client token buckets, a cost-aware shedding policy and a
// drain-rate estimator for Retry-After hints.
//
// Lock ordering: admission.mu is a leaf lock — it is acquired with
// Server.mu held (submit) and alone (pop); admission never calls back
// into the server.
type admission struct {
	capacity  int
	shedStart float64 // occupancy fraction where cost shedding begins
	rps       float64 // per-client token refill rate (0: unlimited)
	burst     float64

	mu      sync.Mutex
	cond    *sync.Cond
	clients map[string]*clientQueue
	order   []string // clients with queued work, round-robin order
	rr      int      // index into order of the next client to serve
	total   int      // queued jobs across all clients
	tracked int      // tracking jobs off the queue; each may come back
	closed  bool

	pops    []time.Time // timestamps of recent dequeues (drain-rate window)
	popHead int
	popN    int
}

const drainWindow = 64 // dequeue timestamps kept for the drain-rate estimate

func newAdmission(capacity int, shedStart, rps float64) *admission {
	if shedStart <= 0 || shedStart > 1 {
		shedStart = 0.75
	}
	a := &admission{
		capacity:  capacity,
		shedStart: shedStart,
		rps:       rps,
		burst:     math.Max(1, 2*rps),
		clients:   make(map[string]*clientQueue),
		pops:      make([]time.Time, drainWindow),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

func (a *admission) client(name string) *clientQueue {
	cq, ok := a.clients[name]
	if !ok {
		cq = &clientQueue{name: name, tokens: a.burst, last: time.Now()}
		a.clients[name] = cq
	}
	return cq
}

// reserve charges one token from the client's bucket, returning an
// AdmitError (wrapping ErrRateLimited) with the time until the next token
// when the bucket is empty.
func (a *admission) reserve(client string) error {
	if a.rps <= 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cq := a.client(client)
	now := time.Now()
	cq.tokens = math.Min(a.burst, cq.tokens+now.Sub(cq.last).Seconds()*a.rps)
	cq.last = now
	if cq.tokens < 1 {
		wait := time.Duration((1 - cq.tokens) / a.rps * float64(time.Second))
		return &AdmitError{Err: ErrRateLimited, RetryAfter: wait}
	}
	cq.tokens--
	return nil
}

// pressure reports whether occupancy has reached the shedding band — the
// signal that also arms degraded-mode answers.
func (a *admission) pressure() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pressureLocked()
}

func (a *admission) pressureLocked() bool {
	return float64(a.total) >= a.shedStart*float64(a.capacity)
}

// medianCostLocked is the median estimated cost of all queued jobs
// (0 when the queue is empty).
func (a *admission) medianCostLocked() float64 {
	costs := make([]float64, 0, a.total)
	for _, cq := range a.clients {
		for _, j := range cq.jobs {
			costs = append(costs, j.cost)
		}
	}
	if len(costs) == 0 {
		return 0
	}
	sort.Float64s(costs)
	return costs[len(costs)/2]
}

// enqueue admits j into its client's queue. With force set (journal
// recovery) every check is bypassed — recovered jobs must all fit. The
// cost-aware shed triggers in the pressure band: a job costlier than the
// median of the queued work is rejected with ErrShedLoad while cheap work
// keeps being admitted until the queue is hard-full (ErrQueueFull).
func (a *admission) enqueue(j *Job, force bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed && !force {
		return ErrDraining
	}
	if !force {
		if a.total >= a.capacity {
			return &AdmitError{Err: ErrQueueFull, RetryAfter: a.retryAfterLocked(1)}
		}
		if a.pressureLocked() && j.cost > a.medianCostLocked() {
			return &AdmitError{Err: ErrShedLoad, RetryAfter: a.retryAfterLocked(a.total)}
		}
	}
	cq := a.client(j.client)
	if len(cq.jobs) == 0 {
		a.order = append(a.order, cq.name)
	}
	cq.jobs = append(cq.jobs, j)
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
	cq := a.clients[a.order[a.rr]]
	j := cq.jobs[0]
	cq.jobs[0] = nil
	cq.jobs = cq.jobs[1:]
	a.total--
	if len(cq.jobs) == 0 {
		a.order = append(a.order[:a.rr], a.order[a.rr+1:]...)
	} else {
		a.rr++
	}
	a.pops[a.popHead] = time.Now()
	a.popHead = (a.popHead + 1) % drainWindow
	if a.popN < drainWindow {
		a.popN++
	}
	return j
}

// retryAfterLocked projects the time to drain `pending` queue slots at the
// observed dequeue rate, clamped to [1s, 5m]. Before any job has been
// dequeued there is no rate to project from; a flat 5s stands in.
func (a *admission) retryAfterLocked(pending int) time.Duration {
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
	if pending < 1 {
		pending = 1
	}
	est := time.Duration(float64(pending) / rate * float64(time.Second))
	if est < time.Second {
		return time.Second
	}
	if est > 5*time.Minute {
		return 5 * time.Minute
	}
	return est
}

// depths snapshots the per-client queue depths (non-empty queues only).
func (a *admission) depths() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int)
	for name, cq := range a.clients {
		if len(cq.jobs) > 0 {
			out[name] = len(cq.jobs)
		}
	}
	if len(out) == 0 {
		return nil
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
