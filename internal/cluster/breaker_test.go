package cluster

import (
	"errors"
	"testing"
	"time"
)

// do runs fn through b as the router's retry loop does: it short-circuits
// with errOpen when b is open, otherwise runs fn and reports its outcome.
func do(b *breaker, fn func() error) error {
	if !b.Allow() {
		return errOpen
	}
	err := fn()
	b.Report(err == nil)
	return err
}

func TestBreakerTripAndRecover(t *testing.T) {
	b := newBreaker(3, 50*time.Millisecond)
	boom := errors.New("boom")
	failing := func() error { return boom }

	// Two failures: still closed.
	for i := 0; i < 2; i++ {
		if err := do(b, failing); !errors.Is(err, boom) {
			t.Fatalf("closed breaker returned %v", err)
		}
	}
	if st := b.Stats(); st.State != breakerClosed {
		t.Fatalf("state %s after 2 failures", st.State)
	}
	// Third consecutive failure trips it.
	do(b, failing)
	if st := b.Stats(); st.State != breakerOpen || st.Trips != 1 {
		t.Fatalf("after trip: %+v", st)
	}
	// Open: calls short-circuit without running fn.
	ran := false
	if err := do(b, func() error { ran = true; return nil }); !errors.Is(err, errOpen) {
		t.Fatalf("open breaker returned %v", err)
	}
	if ran {
		t.Fatal("open breaker executed the call")
	}

	// After the cooldown a probe is admitted; success closes the breaker.
	time.Sleep(60 * time.Millisecond)
	if err := do(b, func() error { return nil }); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if st := b.Stats(); st.State != breakerClosed {
		t.Fatalf("state %s after successful probe", st.State)
	}

	// Trip again; a failed probe reopens for another cooldown.
	for i := 0; i < 3; i++ {
		do(b, failing)
	}
	time.Sleep(60 * time.Millisecond)
	do(b, failing) // failed probe
	if st := b.Stats(); st.Trips != 3 {
		t.Fatalf("trips %d, want 3 (initial + re-trip + failed probe)", st.Trips)
	}
	if err := do(b, func() error { return nil }); !errors.Is(err, errOpen) {
		t.Fatalf("reopened breaker admitted a call: %v", err)
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b := newBreaker(3, time.Second)
	boom := errors.New("boom")
	// failure, failure, success, repeated: never trips.
	for i := 0; i < 10; i++ {
		do(b, func() error { return boom })
		do(b, func() error { return boom })
		do(b, func() error { return nil })
	}
	if st := b.Stats(); st.State != breakerClosed || st.Trips != 0 {
		t.Fatalf("interleaved successes still tripped: %+v", st)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := newBreaker(1, 10*time.Millisecond)
	b.Report(false) // trip
	time.Sleep(15 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	// A second caller while the probe is in flight is rejected.
	if b.Allow() {
		t.Fatal("half-open breaker admitted two concurrent probes")
	}
	b.Report(true)
	if !b.Allow() {
		t.Fatal("closed breaker refused a call after successful probe")
	}
	b.Report(true)
}
