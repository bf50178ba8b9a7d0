package service

import (
	"errors"
	"fmt"
	"sync"
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

// Removing a queued job frees its slot at once, and a client whose queue
// the removal empties leaves the round-robin order without costing the
// next client its turn.
func TestRemoveFreesSlotAndKeepsTurns(t *testing.T) {
	a := newAdmission(4)
	x1, x2, y1, z1 := testJob("x"), testJob("x"), testJob("y"), testJob("z")
	for _, j := range []*Job{x1, x2, y1, z1} {
		if err := a.enqueue(j, false); err != nil {
			t.Fatal(err)
		}
	}
	if j, _ := a.pop(); j != x1 {
		t.Fatalf("first pop %q, want x's first job", j.client)
	}
	// y is next in turn; its only job goes, and the turn passes to z.
	a.remove(y1)
	a.remove(y1) // no longer queued: a no-op
	w1 := testJob("w")
	if err := a.enqueue(w1, false); err != nil {
		t.Fatalf("enqueue after a removal: %v", err)
	}
	for _, want := range []*Job{z1, w1, x2} {
		if j, _ := a.pop(); j != want {
			t.Fatalf("popped %q's job, want %q's", j.client, want.client)
		}
	}
	if d := a.depths(); d != nil {
		t.Fatalf("drained queue keeps client entries: %v", d)
	}
}

// Removals racing the workers' pops hand out no job twice and leave the
// queue's count exact: once every job is popped or removed, the queue is
// empty and the closed queue lets its workers go. Run with -race.
func TestRemoveRacingPops(t *testing.T) {
	const n = 200
	a := newAdmission(n)
	jobs := make([]*Job, n)
	for i := range jobs {
		jobs[i] = testJob(fmt.Sprintf("client-%d", i%4))
		if err := a.enqueue(jobs[i], false); err != nil {
			t.Fatal(err)
		}
	}
	popped := make(chan *Job, n)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := a.pop()
				if !ok {
					return
				}
				popped <- j
			}
		}()
	}
	for i := 0; i < n; i += 2 {
		a.remove(jobs[i])
	}
	a.close()
	wg.Wait()
	close(popped)
	seen := make(map[*Job]bool)
	for j := range popped {
		if seen[j] {
			t.Fatal("a job was popped twice")
		}
		seen[j] = true
	}
	for i := 1; i < n; i += 2 {
		if !seen[jobs[i]] {
			t.Fatalf("job %d, never removed, was never popped", i)
		}
	}
	if a.total != 0 || len(a.order) != 0 || a.depths() != nil {
		t.Fatalf("drained queue: total %d, order %v, depths %v", a.total, a.order, a.depths())
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
