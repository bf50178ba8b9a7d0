package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestBackoffSchedule(t *testing.T) {
	pol := peerRetry
	if pol.maxAttempts != 4 || pol.baseDelay != 50*time.Millisecond || pol.maxDelay != 2*time.Second {
		t.Fatalf("router schedule: %+v", pol)
	}
	// Without jitter the schedule is exactly base·mult^(n-1), capped.
	if d := pol.delay(1, nil); d != 50*time.Millisecond {
		t.Fatalf("first delay %v", d)
	}
	if d := pol.delay(2, nil); d != 100*time.Millisecond {
		t.Fatalf("second delay %v", d)
	}
	if d := pol.delay(10, nil); d != pol.maxDelay {
		t.Fatalf("capped delay %v", d)
	}
	// Jitter adds at most half a step and respects the cap.
	jr := newJitter(7)
	for n := 1; n < 12; n++ {
		d := pol.delay(n, jr)
		base := pol.delay(n, nil)
		if d < base || d > pol.maxDelay+pol.maxDelay/2 {
			t.Fatalf("jittered delay %v out of range (base %v)", d, base)
		}
	}
}

// TestRetryOnlyRetriesTransientErrors checks the retry loop against a
// test classifier: transient failures are retried until they stop,
// permanent ones fail at once, the budget is bounded, and cancellation
// is never retried.
func TestRetryOnlyRetriesTransientErrors(t *testing.T) {
	pol := backoff{maxAttempts: 4, baseDelay: time.Millisecond, maxDelay: 2 * time.Millisecond}
	errFlaky := errors.New("flaky")
	transient := func(err error) bool { return errors.Is(err, errFlaky) }

	// Transient failures are retried until they stop.
	calls := 0
	err := retry(context.Background(), pol, nil, transient, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("attempt %d: %w", calls, errFlaky)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err %v after %d calls", err, calls)
	}

	// Permanent errors fail immediately.
	calls = 0
	boom := errors.New("boom")
	err = retry(context.Background(), pol, nil, transient, func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("permanent error retried: err %v calls %d", err, calls)
	}

	// The budget is bounded: maxAttempts total tries, then the last error.
	calls = 0
	err = retry(context.Background(), pol, newJitter(1), transient, func() error {
		calls++
		return fmt.Errorf("always down: %w", errFlaky)
	})
	if !errors.Is(err, errFlaky) || calls != 4 {
		t.Fatalf("exhaustion: err %v calls %d", err, calls)
	}

	// Cancellation is never retried.
	calls = 0
	err = retry(context.Background(), pol, nil, transient, func() error {
		calls++
		return context.Canceled
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("cancellation retried: calls %d", calls)
	}
}
