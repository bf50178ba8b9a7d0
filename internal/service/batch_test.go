package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/kit-ces/hayat/internal/faultinject"
)

// tinyItem is one batch item over tinyCfg with the given seed.
func tinyItem(seed int64) BatchItem {
	return BatchItem{Config: json.RawMessage(`{"Rows":4,"Cols":4,"Years":1,"WindowSeconds":1,"MixApps":2}`), Seed: seed, Policy: "hayat"}
}

// shutdownFast cancels everything instead of draining: queued jobs are
// popped under a dead context and retired immediately.
func shutdownFast(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// submitBlocker occupies the (single) worker with a slow job and waits
// until it is actually running, so later jobs stay queued. A 50-ms stall
// on each of its 400 thermal windows keeps it running for 20 s, however
// fast the simulator runs, and a shutdown stops it at the next epoch
// boundary; the test's end disarms the stall.
func submitBlocker(tb testing.TB, s *Server) {
	tb.Helper()
	if err := faultinject.ArmSpecs("sim.thermal-solve=sleep(50ms)"); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(faultinject.DisarmAll)
	cfg := slowCfg()
	cfg.EpochYears /= 10
	st, err := s.SubmitLifetime(cfg, 999, "hayat")
	if err != nil {
		tb.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := s.Status(st.ID, false)
		if err != nil {
			tb.Fatal(err)
		}
		if cur.State == JobRunning {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatalf("blocker never started: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The acceptance criterion of the batched write path: a whole request
// costs exactly ONE journal write and fsync, however many items it
// carries (the service.journal-append seam fires once).
func TestBatchOneFsyncPerFlush(t *testing.T) {
	const n = 300
	s, err := New(Options{
		Workers:     1,
		QueueDepth:  n + 8,
		JournalPath: t.TempDir() + "/jobs.journal",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownFast(t, s)
	submitBlocker(t, s) // its own journal append happens before arming

	// prob(0) never fires but counts hits: a pure tap on the seam.
	if err := faultinject.Arm(fpJournalAppend, "prob(0)"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.DisarmAll()

	items := make([]BatchItem, n)
	for i := range items {
		items[i] = tinyItem(int64(i + 1))
	}
	results, err := s.SubmitBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	stats := faultinject.Stats() // snapshot before the blocker's terminal append

	for i, r := range results {
		if !r.Accepted || r.Status != http.StatusAccepted || r.Job == nil {
			t.Fatalf("item %d not accepted: %+v", i, r)
		}
		if r.Index != i {
			t.Fatalf("item %d carries index %d", i, r.Index)
		}
	}
	if hits := stats[fpJournalAppend].Hits; hits != 1 {
		t.Fatalf("journal-append hits %d, want exactly 1 for a %d-item batch", hits, n)
	}
	if v := s.met.BatchFlushes.Value(); v != 1 {
		t.Fatalf("batch_flushes %d, want 1", v)
	}
	if v := s.met.BatchItems.Value(); v != n {
		t.Fatalf("batch_items %d, want %d", v, n)
	}
	if v := s.met.FsyncsSaved.Value(); v != n-1 {
		t.Fatalf("fsyncs_saved %d, want %d", v, n-1)
	}
}

// The 200-with-mixed-results contract: invalid items answer 400, items
// past the queue capacity answer 429 with a Retry-After, duplicates
// coalesce — and none of them fail their neighbours.
func TestBatchMixedResults(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownFast(t, s)
	submitBlocker(t, s)

	items := []BatchItem{
		tinyItem(1),                  // fits the queue
		{Seed: 2, Policy: "no-such"}, // invalid policy → 400
		tinyItem(1),                  // duplicate of item 0 → coalesced
		tinyItem(3),                  // fits the queue
		tinyItem(4),                  // queue full → 429
		{Kind: "population", Policy: "hayat", Seed: 5}, // chips missing → 400
	}
	results, err := s.SubmitBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus := []int{http.StatusAccepted, http.StatusBadRequest, http.StatusAccepted,
		http.StatusAccepted, http.StatusTooManyRequests, http.StatusBadRequest}
	for i, want := range wantStatus {
		if results[i].Status != want {
			t.Fatalf("item %d status %d (%s), want %d", i, results[i].Status, results[i].Error, want)
		}
	}
	if results[0].Job == nil || results[2].Job == nil || results[0].Job.ID != results[2].Job.ID {
		t.Fatalf("duplicate items did not coalesce: %+v vs %+v", results[0].Job, results[2].Job)
	}
	if results[4].RetryAfterS < 1 {
		t.Fatalf("rejected item carries retry_after_s %d, want ≥ 1", results[4].RetryAfterS)
	}
	if s.met.Coalesced.Value() != 1 {
		t.Fatalf("coalesced %d, want 1", s.met.Coalesced.Value())
	}
}

// The HTTP surface: POST /v1/batch answers 200 with per-item results,
// and a result served from the cache is immediately terminal.
func TestBatchHTTP(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the cache so the second batch sees a 200 item.
	st, err := s.SubmitLifetime(tinyCfg(), 1, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)

	body := `{"items":[` +
		`{"config":{"Rows":4,"Cols":4,"Years":1,"WindowSeconds":1,"MixApps":2},"seed":1,"policy":"hayat"},` +
		`{"config":{"Rows":4,"Cols":4,"Years":1,"WindowSeconds":1,"MixApps":2},"seed":2,"policy":"hayat"},` +
		`{"seed":3,"policy":"bogus"}]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 || br.Accepted != 2 || br.Rejected != 1 {
		t.Fatalf("response %+v", br)
	}
	if br.Results[0].Status != http.StatusOK || !br.Results[0].Job.Cached {
		t.Fatalf("cached item %+v, want terminal cache hit", br.Results[0])
	}
	if br.Results[1].Status != http.StatusAccepted {
		t.Fatalf("fresh item %+v", br.Results[1])
	}
	if br.Results[2].Status != http.StatusBadRequest {
		t.Fatalf("invalid item %+v", br.Results[2])
	}
	waitDone(t, s, br.Results[1].Job.ID)

	// Oversized batches are rejected wholesale (the body never decodes
	// into work), with 413.
	big := BatchRequest{Items: make([]BatchItem, maxBatchItems+1)}
	for i := range big.Items {
		big.Items[i] = tinyItem(int64(i))
	}
	blob, _ := json.Marshal(big)
	resp2, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: HTTP %d, want 413", resp2.StatusCode)
	}
}

// After Shutdown begins, batch items answer per-item 503s with the
// draining Retry-After instead of erroring the whole call.
func TestBatchWhileDraining(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	results, err := s.SubmitBatch([]BatchItem{tinyItem(1), tinyItem(2)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Status != http.StatusServiceUnavailable || r.RetryAfterS != drainingRetryAfter {
			t.Fatalf("item %d while draining: %+v", i, r)
		}
	}
}

// Concurrent batched and single submits of overlapping work must agree:
// every accepted item resolves to a done job with the right result, and
// identical requests share one computation (run with -race).
func TestBatchConcurrentWithSingles(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	const seeds = 4
	errc := make(chan error, 3)
	go func() {
		items := make([]BatchItem, seeds)
		for i := range items {
			items[i] = tinyItem(int64(i%seeds) + 1)
		}
		res, err := s.SubmitBatch(items)
		if err == nil {
			for _, r := range res {
				if !r.Accepted {
					err = fmt.Errorf("batch item rejected: %+v", r)
					break
				}
			}
		}
		errc <- err
	}()
	for g := 0; g < 2; g++ {
		go func(g int) {
			for i := 0; i < seeds; i++ {
				if _, err := s.SubmitLifetime(tinyCfg(), int64(i%seeds)+1, "hayat"); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	for i := 0; i < 3; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	// All distinct seeds run exactly once each no matter how many ways
	// they were submitted.
	deadline := time.Now().Add(2 * time.Minute)
	for s.met.JobsDone.Value() < seeds {
		if time.Now().After(deadline) {
			t.Fatalf("only %d jobs done", s.met.JobsDone.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if runs := s.met.SimRuns.Value(); runs != seeds {
		t.Fatalf("sim_runs %d, want %d (identical requests must coalesce)", runs, seeds)
	}
}
