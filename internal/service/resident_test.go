package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/kit-ces/hayat/internal/circuit"
	"github.com/kit-ces/hayat/internal/store"
)

// getResult fetches GET /v1/jobs/{id}/result, returning the HTTP status
// and body.
func getResult(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// runDistinctJobs finishes n fresh lifetime jobs one after another and
// returns their final statuses, result bytes included.
func runDistinctJobs(t *testing.T, s *Server, n int) []JobStatus {
	t.Helper()
	out := make([]JobStatus, n)
	for i := range out {
		st, err := s.SubmitLifetime(tinyCfg(), int64(300+i), "vaa")
		if err != nil {
			t.Fatal(err)
		}
		if out[i] = waitDone(t, s, st.ID); out[i].State != JobDone || len(out[i].Result) == 0 {
			t.Fatalf("job %d: state %s (%s), %d result bytes", i, out[i].State, out[i].Error, len(out[i].Result))
		}
	}
	return out
}

// TestResidentResultsBounded checks that a server with a disk tier keeps
// a bounded number of results in memory while still serving every
// finished job's result: more distinct jobs than the memory tier holds
// leave it at its bound, yet every job's /result returns its original
// bytes with a verifying proof. A result no durable tier holds, because
// its disk write was skipped, stays on its job record and keeps serving
// after eviction, and a job whose stored copy was quarantined answers 404
// with no result in its status.
func TestResidentResultsBounded(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, DataDir: t.TempDir(), BreakerThreshold: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	jobs := runDistinctJobs(t, s, store.MemoryCapacity+4)
	if got := s.store.MemoryLen(); got > store.MemoryCapacity {
		t.Fatalf("memory tier holds %d results, bound %d", got, store.MemoryCapacity)
	}
	for i, st := range jobs {
		code, raw := getResult(t, ts, st.ID)
		if code != http.StatusOK || !bytes.Equal(raw, st.Result) {
			t.Fatalf("job %d: /result HTTP %d, %d bytes, want the original %d", i, code, len(raw), len(st.Result))
		}
		pr, err := s.Proof(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifyProof(t, pr, raw); err != nil {
			t.Fatalf("job %d: proof rejected: %v", i, err)
		}
	}

	// A quarantined stored copy: the job's result is gone, not garbage.
	gone := jobs[0]
	s.store.Quarantine(gone.Key)
	if code, _ := getResult(t, ts, gone.ID); code != http.StatusNotFound {
		t.Fatalf("quarantined result: /result HTTP %d, want 404", code)
	}
	st, err := s.Status(gone.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || st.Result != nil {
		t.Fatalf("quarantined result: state %s with %d result bytes, want done with none", st.State, len(st.Result))
	}
	if data, err := json.Marshal(st); err != nil || bytes.Contains(data, []byte(`"result"`)) {
		t.Fatalf("quarantined result: status %s (%v) carries a result", data, err)
	}

	// Open the disk-cache breaker: the next fresh result skips the disk.
	for s.cacheBrk.Stats().State != circuit.Open {
		s.cacheBrk.Report(false)
	}
	unstored, err := s.SubmitLifetime(tinyCfg(), 900, "vaa")
	if err != nil {
		t.Fatal(err)
	}
	unstored = waitDone(t, s, unstored.ID)
	// Later results push the unstored one out of the memory tier.
	for i := 0; i < store.MemoryCapacity; i++ {
		_ = s.store.PutLocal(fmt.Sprintf("%064x", i), []byte(`{}`))
	}
	if code, raw := getResult(t, ts, unstored.ID); code != http.StatusOK || !bytes.Equal(raw, unstored.Result) {
		t.Fatalf("unstored result: /result HTTP %d, %d bytes, want the original %d", code, len(raw), len(unstored.Result))
	}
}

// TestMemoryOnlyServerServesEveryResult checks that without a disk tier,
// where memory holds the only copy, no result is evicted.
func TestMemoryOnlyServerServesEveryResult(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	jobs := runDistinctJobs(t, s, store.MemoryCapacity+4)
	if got := s.store.MemoryLen(); got != len(jobs) {
		t.Fatalf("memory tier holds %d results, want all %d", got, len(jobs))
	}
	for i, st := range jobs {
		if code, raw := getResult(t, ts, st.ID); code != http.StatusOK || !bytes.Equal(raw, st.Result) {
			t.Fatalf("job %d: /result HTTP %d, %d bytes, want the original %d", i, code, len(raw), len(st.Result))
		}
	}
}
