package sim

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// countingCtx reports cancellation after its Err method has been
// consulted `allow` times, giving a deterministic cancellation point at a
// known epoch boundary.
type countingCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
	allow int
}

func (c *countingCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.allow {
		return context.Canceled
	}
	return nil
}

func TestRunContextCompletesWithBackground(t *testing.T) {
	e := newEngine(t, shortConfig(), hayatPolicy(t), 1)
	res, err := e.Run(context.Background(), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != e.Epochs() {
		t.Fatalf("got %d records, want %d", len(res.Records), e.Epochs())
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	e := newEngine(t, shortConfig(), hayatPolicy(t), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Run(ctx, nil, 0, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !strings.Contains(err.Error(), "epoch 0") {
		t.Fatalf("error should name epoch 0, got %q", err)
	}
}

func TestRunContextStopsAtEpochBoundary(t *testing.T) {
	e := newEngine(t, shortConfig(), hayatPolicy(t), 1)
	// Allow exactly two epoch-boundary checks: epochs 0 and 1 run, the
	// check entering epoch 2 observes the cancellation.
	ctx := &countingCtx{Context: context.Background(), allow: 2}
	_, err := e.Run(ctx, nil, 0, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !strings.Contains(err.Error(), "epoch 2") {
		t.Fatalf("cancellation should be observed entering epoch 2, got %q", err)
	}
}

func TestResumeContextCancelled(t *testing.T) {
	cfg := shortConfig() // 4 epochs, RemixEpochs=4 → boundary at 0 only; use 8
	cfg.Years = 2        // 8 epochs with remix boundary at 4
	e := newEngine(t, cfg, hayatPolicy(t), 1)
	cp := checkpointAt(t, e, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, cp, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// And an unconstrained resume still completes.
	res, err := e.Run(context.Background(), cp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != e.Epochs() {
		t.Fatalf("resumed run has %d records, want %d", len(res.Records), e.Epochs())
	}
}
