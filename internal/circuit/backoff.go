package circuit

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff bounds how transient failures are retried: exponential backoff
// from BaseDelay, multiplied by Multiplier per attempt, capped at
// MaxDelay, with up to half a step of deterministic jitter so coordinated
// retries spread out. hayatd's disk, checkpoint and simulation retries
// and the cluster's peer forwards share this one schedule. Zero values
// select defaults.
type Backoff struct {
	MaxAttempts int           // total tries including the first (default 4)
	BaseDelay   time.Duration // first backoff (default 50ms)
	MaxDelay    time.Duration // backoff ceiling (default 2s)
	Multiplier  float64       // backoff growth factor (default 2)
}

// WithDefaults returns p with every unset field at its default.
func (p Backoff) WithDefaults() Backoff {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	return p
}

// Delay computes the backoff before attempt n (n ≥ 1 is the first retry).
// A nil jitter gives the exact schedule.
func (p Backoff) Delay(n int, jitter *Jitter) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if jitter != nil {
		d += jitter.draw() * d / 2
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	return time.Duration(d)
}

// Jitter is a seeded jitter source for Delay. It is mutex-guarded: one
// source is shared by every retrying goroutine, and rand.Rand itself is
// not safe for concurrent use.
type Jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewJitter returns a jitter source seeded with seed.
func NewJitter(seed int64) *Jitter {
	return &Jitter{rng: rand.New(rand.NewSource(seed))}
}

func (j *Jitter) draw() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rng.Float64()
}
