// Package circuit provides the consecutive-failure circuit breaker and
// the retry backoff schedule shared by hayatd's single-node dependency
// guards (disk cache, checkpoint persistence — internal/service) and the
// per-peer forwarding guards in internal/cluster. Both live here so the
// cluster layer can reuse the exact same state machine and schedule
// without importing the service package it is itself imported by.
package circuit

import (
	"errors"
	"sync"
	"time"
)

// ErrOpen is returned (wrapped) when a breaker rejects a call without
// attempting it.
var ErrOpen = errors.New("circuit: breaker open")

// Breaker states.
const (
	Closed   = "closed"
	Open     = "open"
	HalfOpen = "half-open"
)

// Breaker is a consecutive-failure circuit breaker guarding one fallible
// dependency (a disk, a peer). Closed passes calls through; `threshold`
// consecutive failures trip it open, rejecting calls instantly so a
// wedged dependency cannot stall the hot path. After `cooldown` the next
// call runs as a half-open probe: success closes the breaker, failure
// reopens it for another cooldown.
type Breaker struct {
	name      string
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    string
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight

	trips     int64 // closed→open transitions
	rejected  int64 // calls short-circuited while open
	successes int64
	failures  int64
}

// New returns a closed breaker. threshold <= 0 defaults to 5 consecutive
// failures; cooldown <= 0 defaults to 5s.
func New(name string, threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &Breaker{name: name, threshold: threshold, cooldown: cooldown, state: Closed}
}

// Name returns the dependency name the breaker was created with.
func (b *Breaker) Name() string { return b.name }

// Allow reports whether a call may proceed. While open it returns false
// until the cooldown elapses, then admits exactly one half-open probe at
// a time. Every Allow()==true call MUST be paired with a Report.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if time.Since(b.openedAt) < b.cooldown {
			b.rejected++
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	default: // half-open: one probe only
		if b.probing {
			b.rejected++
			return false
		}
		b.probing = true
		return true
	}
}

// Report records a call's outcome and drives the state machine.
func (b *Breaker) Report(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.successes++
		b.fails = 0
		b.probing = false
		b.state = Closed
		return
	}
	b.failures++
	if b.state == HalfOpen {
		// Failed probe: straight back to open for another cooldown.
		b.probing = false
		b.state = Open
		b.openedAt = time.Now()
		b.trips++
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.state = Open
		b.openedAt = time.Now()
		b.fails = 0
		b.trips++
	}
}

// Do runs fn through the breaker: short-circuits with ErrOpen when open,
// otherwise executes fn and feeds its outcome back.
func (b *Breaker) Do(fn func() error) error {
	if !b.Allow() {
		return ErrOpen
	}
	err := fn()
	b.Report(err == nil)
	return err
}

// Snapshot is one breaker's externally visible state, served on
// GET /metrics under "breakers" and per-peer under "cluster".
type Snapshot struct {
	State     string `json:"state"`
	Trips     int64  `json:"trips"`
	Rejected  int64  `json:"rejected"`
	Successes int64  `json:"successes"`
	Failures  int64  `json:"failures"`
}

// Stats returns the breaker's externally visible state.
func (b *Breaker) Stats() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	state := b.state
	// An open breaker whose cooldown has lapsed will admit the next call;
	// report it as half-open so operators see recovery is imminent.
	if state == Open && time.Since(b.openedAt) >= b.cooldown {
		state = HalfOpen
	}
	return Snapshot{
		State:     state,
		Trips:     b.trips,
		Rejected:  b.rejected,
		Successes: b.successes,
		Failures:  b.failures,
	}
}
