package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/kit-ces/hayat/internal/circuit"
	"github.com/kit-ces/hayat/internal/faultinject"
)

func TestRetryTransientOnlyRetriesInjectedErrors(t *testing.T) {
	pol := circuit.Backoff{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}

	// Transient failures are retried until they stop.
	calls := 0
	err := circuit.Retry(context.Background(), pol, nil, isTransient, nil, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("flaky: %w", faultinject.ErrInjected)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err %v after %d calls", err, calls)
	}

	// Permanent errors fail immediately.
	calls = 0
	boom := errors.New("boom")
	err = circuit.Retry(context.Background(), pol, nil, isTransient, nil, func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("permanent error retried: err %v calls %d", err, calls)
	}

	// The budget is bounded: MaxAttempts total tries, then the last error.
	calls = 0
	retries := 0
	err = circuit.Retry(context.Background(), pol, circuit.NewJitter(1), isTransient, func(int, error) { retries++ }, func() error {
		calls++
		return fmt.Errorf("always down: %w", faultinject.ErrInjected)
	})
	if !errors.Is(err, faultinject.ErrInjected) || calls != 4 || retries != 3 {
		t.Fatalf("exhaustion: err %v calls %d retries %d", err, calls, retries)
	}

	// Cancellation is never retried.
	calls = 0
	err = circuit.Retry(context.Background(), pol, nil, isTransient, nil, func() error {
		calls++
		return context.Canceled
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("cancellation retried: calls %d", calls)
	}
}
