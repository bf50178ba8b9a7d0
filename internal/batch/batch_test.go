package batch

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoFlush answers every item with its own value.
func echoFlush(items []Item[int, int]) {
	for _, it := range items {
		it.Done <- it.Value
	}
}

// A full batch must flush immediately, in one call, preserving order.
func TestSizeTrigger(t *testing.T) {
	var batches [][]int
	var mu sync.Mutex
	b := New(Options{MaxItems: 4, MaxWait: time.Hour}, func(items []Item[int, int]) {
		vals := make([]int, len(items))
		for i, it := range items {
			vals[i] = it.Value
			it.Done <- it.Value
		}
		mu.Lock()
		batches = append(batches, vals)
		mu.Unlock()
	})
	defer b.Close()
	var chans []<-chan int
	for i := 0; i < 4; i++ {
		ch, err := b.Submit(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		select {
		case got := <-ch:
			if got != i {
				t.Fatalf("item %d answered %d", i, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("item %d never answered", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 1 || len(batches[0]) != 4 {
		t.Fatalf("batches %v, want one batch of 4", batches)
	}
}

// A partial batch must flush once MaxWait elapses — without reaching
// MaxItems.
func TestMaxWaitTrigger(t *testing.T) {
	b := New(Options{MaxItems: 1000, MaxWait: 10 * time.Millisecond}, echoFlush)
	defer b.Close()
	start := time.Now()
	ch, err := b.Submit(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-ch:
		if got != 42 {
			t.Fatalf("answered %d", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("max-wait flush never fired")
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("flushed after %v, before the max-wait window", elapsed)
	}
}

// No more than MaxInFlight flush calls may run concurrently; excess
// batches wait for a slot.
func TestBoundedInFlight(t *testing.T) {
	var cur, peak atomic.Int64
	release := make(chan struct{})
	b := New(Options{MaxItems: 1, MaxWait: time.Hour, MaxInFlight: 2}, func(items []Item[int, int]) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-release
		cur.Add(-1)
		for _, it := range items {
			it.Done <- it.Value
		}
	})
	var chans []<-chan int
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch, err := b.Submit(context.Background(), i)
			if err != nil {
				t.Error(err)
				return
			}
			_ = ch
		}(i)
	}
	// Let the first two flushes start and the rest pile up on the
	// semaphore, then release everything.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	b.Close()
	_ = chans
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent flushes, bound is 2", p)
	}
	if c := cur.Load(); c != 0 {
		t.Fatalf("%d flushes still running after Close", c)
	}
}

// Close must flush the pending partial batch and then refuse new items.
func TestCloseFlushesPending(t *testing.T) {
	b := New(Options{MaxItems: 100, MaxWait: time.Hour}, echoFlush)
	ch, err := b.Submit(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	select {
	case got := <-ch:
		if got != 7 {
			t.Fatalf("answered %d", got)
		}
	default:
		t.Fatal("pending item not answered by Close")
	}
	if _, err := b.Submit(context.Background(), 8); err != ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

// A caller whose context dies while waiting for a flush slot gets the
// context error, but the batch still flushes.
func TestContextCancelledDuringBackpressure(t *testing.T) {
	release := make(chan struct{})
	b := New(Options{MaxItems: 1, MaxWait: time.Hour, MaxInFlight: 1}, func(items []Item[int, int]) {
		<-release
		echoFlush(items)
	})
	first, err := b.Submit(context.Background(), 1) // occupies the only slot
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	done := make(chan (<-chan int), 1)
	go func() {
		ch, err := b.Submit(ctx, 2) // fills a batch, blocks on the slot
		errc <- err
		done <- ch
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("Submit error %v, want context.Canceled", err)
	}
	close(release)
	if got := <-first; got != 1 {
		t.Fatalf("first item answered %d", got)
	}
	b.Close()
}

// Hammer the batcher from many goroutines (run with -race): every item
// must be answered exactly once with its own value.
func TestConcurrentSubmit(t *testing.T) {
	b := New(Options{MaxItems: 16, MaxWait: time.Millisecond, MaxInFlight: 3}, echoFlush)
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v := g*perG + i
				ch, err := b.Submit(context.Background(), v)
				if err != nil {
					t.Errorf("submit %d: %v", v, err)
					return
				}
				select {
				case got := <-ch:
					if got != v {
						t.Errorf("item %d answered %d", v, got)
					}
				case <-time.After(10 * time.Second):
					t.Errorf("item %d never answered", v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.Close()
	if n := b.Pending(); n != 0 {
		t.Fatalf("%d items pending after Close", n)
	}
}

// Pending reports the current un-flushed item count (for tests/metrics).
func (b *Batcher[T, R]) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}
