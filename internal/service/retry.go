package service

import (
	"context"
	"errors"

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
