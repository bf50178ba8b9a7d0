package circuit

import (
	"testing"
	"time"
)

func TestBackoffSchedule(t *testing.T) {
	pol := Backoff{}.WithDefaults()
	if pol.MaxAttempts != 4 || pol.BaseDelay != 50*time.Millisecond {
		t.Fatalf("defaults: %+v", pol)
	}
	// Without jitter the schedule is exactly base·mult^(n-1), capped.
	if d := pol.Delay(1, nil); d != 50*time.Millisecond {
		t.Fatalf("first delay %v", d)
	}
	if d := pol.Delay(2, nil); d != 100*time.Millisecond {
		t.Fatalf("second delay %v", d)
	}
	if d := pol.Delay(10, nil); d != pol.MaxDelay {
		t.Fatalf("capped delay %v", d)
	}
	// Jitter adds at most half a step and respects the cap.
	jr := NewJitter(7)
	for n := 1; n < 12; n++ {
		d := pol.Delay(n, jr)
		base := pol.Delay(n, nil)
		if d < base || d > pol.MaxDelay+pol.MaxDelay/2 {
			t.Fatalf("jittered delay %v out of range (base %v)", d, base)
		}
	}
}
