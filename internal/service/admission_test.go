package service

import (
	"errors"
	"testing"
	"time"
)

func testJob(client string, cost float64) *Job {
	return &Job{id: "t", client: client, cost: cost, state: JobQueued, done: make(chan struct{})}
}

func TestWRRAlternatesClients(t *testing.T) {
	a := newAdmission(16, 0.99, 0)
	for i := 0; i < 3; i++ {
		if err := a.enqueue(testJob("x", 1), false); err != nil {
			t.Fatal(err)
		}
		if err := a.enqueue(testJob("y", 1), false); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for i := 0; i < 6; i++ {
		j, ok := a.pop()
		if !ok {
			t.Fatal("pop returned closed")
		}
		order = append(order, j.client)
	}
	// No client may be served twice in a row while the other still has
	// queued work.
	for i := 1; i < len(order)-1; i++ {
		if order[i] == order[i-1] {
			t.Fatalf("client %q served twice in a row at %d: %v", order[i], i, order)
		}
	}
}

func TestShedRejectsExpensiveUnderPressure(t *testing.T) {
	a := newAdmission(4, 0.5, 0)
	a.enqueue(testJob("a", 1), false)
	a.enqueue(testJob("b", 1), false) // total 2 of 4 → pressure band
	if !a.pressure() {
		t.Fatal("expected pressure at 2/4 with shedStart 0.5")
	}
	err := a.enqueue(testJob("c", 100), false)
	if !errors.Is(err, ErrShedLoad) {
		t.Fatalf("expensive job under pressure: err = %v, want ErrShedLoad", err)
	}
	var ae *AdmitError
	if !errors.As(err, &ae) || ae.RetryAfter <= 0 {
		t.Fatalf("shed error carries no Retry-After: %v", err)
	}
	// Cheap work (≤ median) still gets in until the queue is hard-full.
	if err := a.enqueue(testJob("c", 1), false); err != nil {
		t.Fatalf("cheap job under pressure rejected: %v", err)
	}
	a.enqueue(testJob("d", 1), false)
	if err := a.enqueue(testJob("e", 1), false); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("job beyond capacity: err = %v, want ErrQueueFull", err)
	}
}

func TestForceEnqueueBypassesChecks(t *testing.T) {
	a := newAdmission(1, 0.5, 0)
	a.enqueue(testJob("a", 1), false)
	if err := a.enqueue(testJob("b", 100), true); err != nil {
		t.Fatalf("forced enqueue failed: %v", err)
	}
	a.close()
	if err := a.enqueue(testJob("c", 1), false); !errors.Is(err, ErrDraining) {
		t.Fatalf("enqueue after close: err = %v, want ErrDraining", err)
	}
	if err := a.enqueue(testJob("d", 1), true); err != nil {
		t.Fatalf("forced enqueue after close (recovery) failed: %v", err)
	}
}

func TestTokenBucket(t *testing.T) {
	a := newAdmission(16, 0.75, 1) // 1 rps, burst 2
	if err := a.reserve("c"); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	if err := a.reserve("c"); err != nil {
		t.Fatalf("second reserve (burst): %v", err)
	}
	err := a.reserve("c")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third instant reserve: err = %v, want ErrRateLimited", err)
	}
	if sec := RetryAfterSeconds(err, 0); sec < 1 {
		t.Fatalf("rate-limit Retry-After = %ds, want ≥ 1", sec)
	}
	if err := a.reserve("other"); err != nil {
		t.Fatalf("independent client limited: %v", err)
	}
}

func TestPopBlocksUntilCloseDrains(t *testing.T) {
	a := newAdmission(4, 0.75, 0)
	a.enqueue(testJob("a", 1), false)
	done := make(chan bool, 2)
	go func() {
		_, ok := a.pop()
		done <- ok
		_, ok = a.pop() // queue empty + closed → ok=false
		done <- ok
	}()
	if ok := <-done; !ok {
		t.Fatal("pop on non-empty queue returned closed")
	}
	a.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop after close+empty returned a job")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pop did not unblock on close")
	}
}

func TestRetryAfterFallback(t *testing.T) {
	a := newAdmission(4, 0.75, 0)
	if got := a.retryAfter(1); got != 5*time.Second {
		t.Fatalf("retryAfter with no drain history = %v, want 5s fallback", got)
	}
	for i := 0; i < 4; i++ {
		a.enqueue(testJob("a", 1), false)
	}
	for i := 0; i < 4; i++ {
		a.pop()
	}
	if got := a.retryAfter(2); got < time.Second || got > 5*time.Minute {
		t.Fatalf("estimated retryAfter %v outside [1s, 5m]", got)
	}
}

func TestEstimateCostOrdering(t *testing.T) {
	small := request{Kind: KindLifetime, Config: tinyCfg(), Chips: 1}
	big := request{Kind: KindPopulation, Config: tinyCfg(), Chips: 32}
	long := request{Kind: KindLifetime, Config: slowCfg(), Chips: 1}
	if !(estimateCost(big) > estimateCost(small)) {
		t.Fatal("population cost not above single-chip cost")
	}
	if !(estimateCost(long) > estimateCost(small)) {
		t.Fatal("10-year cost not above 1-year cost")
	}
}

func TestJobExpiry(t *testing.T) {
	now := time.Now()
	j := &Job{}
	if _, exp := j.expired(now); exp {
		t.Fatal("job without deadlines reported expired")
	}
	j.queueDeadline = now.Add(-time.Millisecond)
	if reason, exp := j.expired(now); !exp || reason == "" {
		t.Fatal("queue-TTL expiry not detected")
	}
	j = &Job{deadline: now.Add(-time.Millisecond)}
	if _, exp := j.expired(now); !exp {
		t.Fatal("deadline expiry not detected")
	}
	j = &Job{deadline: now.Add(time.Hour), queueDeadline: now.Add(time.Hour)}
	if _, exp := j.expired(now); exp {
		t.Fatal("future deadlines reported expired")
	}
}

// retryAfter estimates how long a rejected client should wait before
// retrying, from the observed drain rate.
func (a *admission) retryAfter(pending int) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retryAfterLocked(pending)
}
