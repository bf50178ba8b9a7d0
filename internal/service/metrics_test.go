package service

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramZeroObservations(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.SumSeconds != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty histogram snapshot: %+v", s)
	}
}

func TestHistogramOutOfRangeLatencies(t *testing.T) {
	var h Histogram
	h.Observe(0)                   // below the first bound: lands in bucket 0
	h.Observe(-time.Second)        // negative durations must not corrupt state
	h.Observe(time.Hour)           // beyond the last bound: +Inf bucket
	h.Observe(1000000 * time.Hour) // absurdly large
	h.Observe(time.Duration(1))    // 1 ns
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count %d, want 5", s.Count)
	}
	var low, inf int64
	for _, b := range s.Buckets {
		switch {
		case b.LE == histogramBounds[0]:
			low = b.Count
		case b.LE == -1:
			inf = b.Count
		}
	}
	if low != 3 {
		t.Fatalf("sub-1ms bucket holds %d, want 3 (0s, -1s, 1ns)", low)
	}
	if inf != 2 {
		t.Fatalf("+Inf bucket holds %d, want 2", inf)
	}
	if math.IsNaN(s.SumSeconds) || math.IsInf(s.SumSeconds, 0) {
		t.Fatalf("sum not finite: %v", s.SumSeconds)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	// An observation exactly on a bound belongs to that bucket (le ≤).
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].LE != 0.001 || s.Buckets[0].Count != 1 {
		t.Fatalf("boundary observation: %+v", s.Buckets)
	}
}

// Run with -race: concurrent Observe and Snapshot must be safe.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w*i) * time.Microsecond)
				if i%100 == 0 {
					_ = h.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count %d, want %d", s.Count, workers*perWorker)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
}

func TestCounterStore(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Store(42)
	if c.Value() != 42 {
		t.Fatalf("stored value %d", c.Value())
	}
	c.Add(-2)
	if c.Value() != 40 {
		t.Fatalf("value %d after Add(-2)", c.Value())
	}
}

func TestMetricsSnapshotStoreSection(t *testing.T) {
	var m Metrics
	m.StoreReadRepairs.Add(4)
	m.StoreQuarantines.Add(1)
	m.StoreReplicaPuts.Add(7)
	m.StoreReplicaPutErrors.Add(1)
	m.StoreReplicaServes.Add(5)
	m.StoreSweeps.Add(6)
	m.StoreSweepDur.Observe(10 * time.Millisecond)
	s := m.Snapshot()
	if s.Store.ReadRepairs != 4 || s.Store.Quarantines != 1 || s.Store.ReplicaPuts != 7 ||
		s.Store.ReplicaPutErrs != 1 || s.Store.ReplicaServes != 5 || s.Store.Sweeps != 6 {
		t.Fatalf("store snapshot: %+v", s.Store)
	}
	if s.Store.SweepSeconds.Count != 1 {
		t.Fatalf("sweep histogram count %d, want 1", s.Store.SweepSeconds.Count)
	}
	// ReplicationDebt is live server state, filled by the /metrics
	// handler, not the snapshot.
	if s.Store.ReplicationDebt != 0 {
		t.Fatalf("live fields must start zero: %+v", s.Store)
	}
}

func TestMetricsSnapshotReliabilitySection(t *testing.T) {
	var m Metrics
	m.JobsRecovered.Add(2)
	m.LastResumeEpoch.Store(16)
	m.Quarantined.Add(1)
	s := m.Snapshot()
	if s.Reliability.JobsRecovered != 2 ||
		s.Reliability.LastResumeEpoch != 16 || s.Reliability.Quarantined != 1 {
		t.Fatalf("reliability snapshot: %+v", s.Reliability)
	}
}
