package cluster

import (
	"errors"
	"sync"
	"time"
)

// errOpen is returned (wrapped) when a peer's breaker rejects a request
// without attempting it.
var errOpen = errors.New("circuit breaker open")

// Breaker states.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// breaker is a consecutive-failure circuit breaker guarding one peer.
// Closed passes calls through; `threshold` consecutive failures trip it
// open, rejecting calls instantly so a wedged peer cannot stall the hot
// path. After `cooldown` the next call runs as a half-open probe:
// success closes the breaker, failure reopens it for another cooldown.
type breaker struct {
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

// The router's peer breakers trip after breakerThreshold consecutive
// failures and stay open for breakerCooldown.
const (
	breakerThreshold = 5
	breakerCooldown  = 5 * time.Second
)

// newBreaker returns a closed breaker.
func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, state: breakerClosed}
}

// Allow reports whether a call may proceed. While open it returns false
// until the cooldown elapses, then admits exactly one half-open probe at
// a time. Every Allow()==true call MUST be paired with a Report.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			b.rejected++
			return false
		}
		b.state = breakerHalfOpen
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
func (b *breaker) Report(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.successes++
		b.fails = 0
		b.probing = false
		b.state = breakerClosed
		return
	}
	b.failures++
	if b.state == breakerHalfOpen {
		// Failed probe: straight back to open for another cooldown.
		b.probing = false
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.trips++
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.fails = 0
		b.trips++
	}
}

// BreakerSnapshot is one peer breaker's externally visible state, served
// on GET /metrics under cluster.peers.
type BreakerSnapshot struct {
	State     string `json:"state"`
	Trips     int64  `json:"trips"`
	Rejected  int64  `json:"rejected"`
	Successes int64  `json:"successes"`
	Failures  int64  `json:"failures"`
}

// Stats returns the breaker's externally visible state.
func (b *breaker) Stats() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	state := b.state
	// An open breaker whose cooldown has lapsed will admit the next call;
	// report it as half-open so operators see recovery is imminent.
	if state == breakerOpen && time.Since(b.openedAt) >= b.cooldown {
		state = breakerHalfOpen
	}
	return BreakerSnapshot{
		State:     state,
		Trips:     b.trips,
		Rejected:  b.rejected,
		Successes: b.successes,
		Failures:  b.failures,
	}
}
