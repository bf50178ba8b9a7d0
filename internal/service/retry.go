package service

import (
	"context"
	"errors"
	"time"

	"github.com/kit-ces/hayat/internal/circuit"
	"github.com/kit-ces/hayat/internal/faultinject"
)

// isTransient classifies an error as retryable. Injected faults model
// transient infrastructure failures (flaky disk, hiccuping solver);
// context cancellation and genuine simulation errors are permanent.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, faultinject.ErrInjected)
}

// retryTransient runs fn up to pol.MaxAttempts times, sleeping the backoff
// schedule between attempts, but only while the error stays transient.
// onRetry (optional) observes each retry before its backoff sleep. The
// last error is returned when attempts are exhausted.
func retryTransient(ctx context.Context, pol circuit.Backoff, jitter *circuit.Jitter, onRetry func(attempt int, err error), fn func() error) error {
	pol = pol.WithDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || !isTransient(err) || attempt >= pol.MaxAttempts {
			return err
		}
		if onRetry != nil {
			onRetry(attempt, err)
		}
		select {
		case <-time.After(pol.Delay(attempt, jitter)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
