package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// backoff bounds how a failed peer request is retried: exponential
// backoff from baseDelay, doubled per attempt, capped at maxDelay, with
// up to half a step of deterministic jitter so coordinated retries
// spread out.
type backoff struct {
	maxAttempts int           // total tries including the first
	baseDelay   time.Duration // first backoff
	maxDelay    time.Duration // backoff ceiling
}

// peerRetry is the router's one retry schedule: 4 attempts, backing off
// from 50 ms and doubling up to 2 s.
var peerRetry = backoff{maxAttempts: 4, baseDelay: 50 * time.Millisecond, maxDelay: 2 * time.Second}

// delay computes the backoff before attempt n (n ≥ 1 is the first retry).
// A nil jitter gives the exact schedule.
func (p backoff) delay(n int, j *jitter) time.Duration {
	d := float64(p.baseDelay)
	for i := 1; i < n; i++ {
		d *= 2
		if d >= float64(p.maxDelay) {
			d = float64(p.maxDelay)
			break
		}
	}
	if j != nil {
		d += j.draw() * d / 2
	}
	if d > float64(p.maxDelay) {
		d = float64(p.maxDelay)
	}
	return time.Duration(d)
}

// retry calls fn until it succeeds, fails with an error retryable
// rejects, or p.maxAttempts calls have failed, sleeping p's schedule
// between calls; the last error is returned. A context that ends during
// a sleep ends the loop with the context's error.
func retry(ctx context.Context, p backoff, j *jitter, retryable func(error) bool, fn func() error) error {
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil || !retryable(err) || attempt >= p.maxAttempts {
			return err
		}
		select {
		case <-time.After(p.delay(attempt, j)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// jitter is a seeded jitter source for delay. It is mutex-guarded: one
// source is shared by every retrying goroutine, and rand.Rand itself is
// not safe for concurrent use.
type jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// newJitter returns a jitter source seeded with seed.
func newJitter(seed int64) *jitter {
	return &jitter{rng: rand.New(rand.NewSource(seed))}
}

func (j *jitter) draw() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rng.Float64()
}
