// Package batch provides a generic request batcher: callers submit
// items one at a time, the batcher coalesces them into groups bounded
// by a maximum size and a maximum wait, and a flush function processes
// each group in one shot, answering every item on its own channel.
//
// The service uses it to turn N concurrent job submissions into one
// admission pass and one journal append+fsync, but it is deliberately
// unaware of jobs: any (item, result) pair works.
package batch

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("batch: batcher closed")

// Item pairs one submitted value with the channel its result is
// delivered on. The flush function must send exactly one result per
// item; Done is buffered so flushers never block on slow receivers.
type Item[T, R any] struct {
	Value T
	Done  chan R
}

// Options tunes a Batcher. The zero value is usable: defaults are
// MaxItems 256, MaxWait 2ms, MaxInFlight 4.
type Options struct {
	// MaxItems flushes a batch as soon as it holds this many items.
	MaxItems int
	// MaxWait flushes a non-empty batch this long after its first item
	// arrived, even if it is not full — bounding added latency for
	// sparse traffic.
	MaxWait time.Duration
	// MaxInFlight bounds concurrently running flushes; further batches
	// queue behind a semaphore so a slow flush function applies
	// backpressure to Submit instead of spawning unbounded goroutines.
	MaxInFlight int
}

func (o Options) withDefaults() Options {
	if o.MaxItems <= 0 {
		o.MaxItems = 256
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4
	}
	return o
}

// Batcher coalesces items of type T into batches and answers each item
// with a value of type R. Safe for concurrent Submit from any number of
// goroutines.
type Batcher[T, R any] struct {
	opts  Options
	flush func([]Item[T, R])

	mu      sync.Mutex
	pending []Item[T, R]
	timer   *time.Timer
	gen     int // increments every flush; stale timers check it and bail
	closed  bool

	sem      chan struct{}  // in-flight flush slots
	flushers sync.WaitGroup // running flush calls
}

// New builds a batcher around a flush function. The flush function owns
// the batch slice it receives and MUST send exactly one result on every
// item's Done channel (each is buffered with capacity 1).
func New[T, R any](opts Options, flush func([]Item[T, R])) *Batcher[T, R] {
	o := opts.withDefaults()
	return &Batcher[T, R]{
		opts:  o,
		flush: flush,
		sem:   make(chan struct{}, o.MaxInFlight),
	}
}

// Submit hands one value to the batcher and returns the channel its
// result will arrive on. It blocks only when MaxInFlight flushes are
// already running and this item fills another batch (backpressure).
// After Close it fails with ErrClosed.
func (b *Batcher[T, R]) Submit(ctx context.Context, v T) (<-chan R, error) {
	it := Item[T, R]{Value: v, Done: make(chan R, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.pending = append(b.pending, it)
	if len(b.pending) >= b.opts.MaxItems {
		batch := b.takeLocked()
		b.mu.Unlock()
		if err := b.dispatch(ctx, batch); err != nil {
			return nil, err
		}
		return it.Done, nil
	}
	if len(b.pending) == 1 {
		// First item of a fresh batch: arm the max-wait timer.
		gen := b.gen
		b.timer = time.AfterFunc(b.opts.MaxWait, func() { b.timedFlush(gen) })
	}
	b.mu.Unlock()
	return it.Done, nil
}

// takeLocked removes and returns the pending batch, cancelling its
// timer and bumping the generation so a racing timedFlush is a no-op.
func (b *Batcher[T, R]) takeLocked() []Item[T, R] {
	batch := b.pending
	b.pending = nil
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// timedFlush fires when a partial batch has waited MaxWait.
func (b *Batcher[T, R]) timedFlush(gen int) {
	b.mu.Lock()
	if b.closed || gen != b.gen || len(b.pending) == 0 {
		b.mu.Unlock()
		return
	}
	batch := b.takeLocked()
	b.mu.Unlock()
	// Timer goroutine: there is no caller whose context could be threaded
	// here, and the batch carries other callers' items regardless.
	//lint:ignore ctxfirst timer callback has no caller context
	_ = b.dispatch(context.Background(), batch)
}

// dispatch runs flush on its own goroutine once an in-flight slot is
// free; waiting for a slot is the backpressure that bounds concurrent
// flushes. If ctx expires during that wait, the batch is NOT dropped —
// other callers' items ride in it — but the wait moves to a background
// goroutine and the caller gets ctx's error.
func (b *Batcher[T, R]) dispatch(ctx context.Context, batch []Item[T, R]) error {
	if len(batch) == 0 {
		return nil
	}
	run := func() {
		defer func() {
			<-b.sem
			b.flushers.Done()
		}()
		b.flush(batch)
	}
	b.flushers.Add(1)
	select {
	case b.sem <- struct{}{}:
		go run()
		return nil
	case <-ctx.Done():
		go func() {
			b.sem <- struct{}{}
			run()
		}()
		return ctx.Err()
	}
}

// Close flushes any pending partial batch, waits for all in-flight
// flushes to finish, and fails subsequent Submits with ErrClosed.
// Idempotent.
func (b *Batcher[T, R]) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.flushers.Wait()
		return
	}
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	// Close must deliver the final partial batch even when the caller's
	// context is long gone (shutdown path).
	//lint:ignore ctxfirst shutdown flush outlives any caller context
	_ = b.dispatch(context.Background(), batch)
	b.flushers.Wait()
}
