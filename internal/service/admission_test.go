package service

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func testJob(client string) *Job {
	return &Job{id: "t", client: client, state: JobQueued, done: make(chan struct{})}
}

func TestWRRAlternatesClients(t *testing.T) {
	a := newAdmission(16)
	for i := 0; i < 3; i++ {
		if err := a.enqueue(testJob("x"), false); err != nil {
			t.Fatal(err)
		}
		if err := a.enqueue(testJob("y"), false); err != nil {
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

func TestForceEnqueueBypassesChecks(t *testing.T) {
	a := newAdmission(1)
	a.enqueue(testJob("a"), false)
	if err := a.enqueue(testJob("b"), true); err != nil {
		t.Fatalf("forced enqueue failed: %v", err)
	}
	a.close()
	if err := a.enqueue(testJob("c"), false); !errors.Is(err, ErrDraining) {
		t.Fatalf("enqueue after close: err = %v, want ErrDraining", err)
	}
	if err := a.enqueue(testJob("d"), true); err != nil {
		t.Fatalf("forced enqueue after close (recovery) failed: %v", err)
	}
}

// A client whose queue empties leaves no entry behind, so distinct client
// names do not accumulate.
func TestIdleClientEntries(t *testing.T) {
	a := newAdmission(16)
	for i := 0; i < 5; i++ {
		if err := a.enqueue(testJob(fmt.Sprintf("client-%d", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, ok := a.pop(); !ok {
			t.Fatal("pop returned closed")
		}
	}
	if got := len(a.clients); got != 0 {
		t.Errorf("%d client entries after every queue emptied, want 0", got)
	}
}

func TestPopBlocksUntilCloseDrains(t *testing.T) {
	a := newAdmission(4)
	a.enqueue(testJob("a"), false)
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
	a := newAdmission(4)
	if got := a.retryAfter(); got != 5*time.Second {
		t.Fatalf("retryAfter with no drain history = %v, want 5s fallback", got)
	}
	for i := 0; i < 4; i++ {
		a.enqueue(testJob("a"), false)
	}
	for i := 0; i < 4; i++ {
		a.pop()
	}
	if got := a.retryAfter(); got < time.Second || got > 5*time.Minute {
		t.Fatalf("estimated retryAfter %v outside [1s, 5m]", got)
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
func (a *admission) retryAfter() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retryAfterLocked()
}
