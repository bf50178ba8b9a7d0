package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Backoff bounds how the router retries a failed peer request:
// exponential backoff from BaseDelay, doubled per attempt, capped at
// MaxDelay, with up to half a step of deterministic jitter so coordinated
// retries spread out. Zero values select defaults.
type Backoff struct {
	MaxAttempts int           // total tries including the first (default 4)
	BaseDelay   time.Duration // first backoff (default 50ms)
	MaxDelay    time.Duration // backoff ceiling (default 2s)
}

// withDefaults returns p with every unset field at its default.
func (p Backoff) withDefaults() Backoff {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// delay computes the backoff before attempt n (n ≥ 1 is the first retry).
// A nil jitter gives the exact schedule.
func (p Backoff) delay(n int, j *jitter) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= 2
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if j != nil {
		d += j.draw() * d / 2
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	return time.Duration(d)
}

// retry calls fn until it succeeds, fails with an error retryable
// rejects, or p.MaxAttempts calls have failed, sleeping p's schedule
// between calls; the last error is returned. A context that ends during
// a sleep ends the loop with the context's error.
func retry(ctx context.Context, p Backoff, j *jitter, retryable func(error) bool, fn func() error) error {
	p = p.withDefaults()
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil || !retryable(err) || attempt >= p.MaxAttempts {
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
