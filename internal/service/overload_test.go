package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/kit-ces/hayat/internal/faultinject"
)

// postJSON submits a body and decodes either the job status or the error
// envelope, returning the raw response for header checks.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, JobStatus, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("POST %s: decoding status: %v", path, err)
		}
		return resp, st, ""
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("POST %s: decoding error body: %v", path, err)
	}
	return resp, JobStatus{}, eb.Error
}

// lifetimeBody renders a /v1/lifetime request for tinyCfg with the given
// admission fields.
func lifetimeBody(seed int64, client string, extra string) string {
	b := fmt.Sprintf(`{"config":{"Rows":4,"Cols":4,"Years":1,"WindowSeconds":1,"MixApps":2},"seed":%d,"policy":"hayat","client":%q`, seed, client)
	if extra != "" {
		b += "," + extra
	}
	return b + "}"
}

// TestOverloadDrill is the acceptance drill: three clients together
// submit ≥4× the queue capacity (distinct seeds, so nothing coalesces)
// plus a fourth client's expensive population work, against a small
// worker pool. It asserts that (a) excess submits are rejected with 429 +
// Retry-After while accepted work completes, (b) every client makes
// progress (no starvation under round-robin), (c) jobs whose
// queue TTL expires are evicted without ever executing, and (d) the
// server drains cleanly afterwards.
func TestOverloadDrill(t *testing.T) {
	// Slow every thermal solve for the whole submit phase, so the two
	// workers cannot drain the queue between submits — wall-clock speed
	// of the host must not matter.
	defer faultinject.DisarmAll()
	if err := faultinject.ArmSpecs("sim.thermal-solve=sleep(50ms)"); err != nil {
		t.Fatal(err)
	}
	const queueDepth = 8
	s := newTestServer(t, Options{Workers: 2, QueueDepth: queueDepth})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	clients := []string{"alice", "bob", "carol"}
	perClient := (4 * queueDepth) / len(clients) // ≥4× capacity in total
	accepted := make(map[string][]string)        // client → accepted job IDs
	var rejected429 int
	seed := int64(0)
	for round := 0; round < perClient; round++ {
		for _, c := range clients {
			seed++
			resp, st, _ := postJSON(t, ts, "/v1/lifetime", lifetimeBody(seed, c, ""))
			switch resp.StatusCode {
			case http.StatusAccepted, http.StatusOK:
				accepted[c] = append(accepted[c], st.ID)
			case http.StatusTooManyRequests:
				rejected429++
				ra := resp.Header.Get("Retry-After")
				if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
					t.Fatalf("429 Retry-After = %q, want integer ≥ 1", ra)
				}
			default:
				t.Fatalf("submit for %s: unexpected status %d", c, resp.StatusCode)
			}
		}
	}
	if rejected429 == 0 {
		t.Fatalf("submitted %d jobs against queue depth %d without a single 429", seed, queueDepth)
	}

	// A fourth client's population job is far costlier than the queued
	// lifetime work; under pressure it must be shed, not admitted ahead of
	// the cheap jobs.
	popBody := `{"config":{"Rows":4,"Cols":4,"Years":1,"WindowSeconds":1,"MixApps":2},"base_seed":900,"chips":32,"policy":"hayat","client":"dave"}`
	var popSheds int
	for i := 0; i < 3; i++ {
		resp, _, _ := postJSON(t, ts, "/v1/population", popBody)
		if resp.StatusCode == http.StatusTooManyRequests {
			popSheds++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("shed response missing Retry-After")
			}
		}
	}
	if popSheds == 0 && s.met.JobsShed.Value() == 0 {
		t.Error("expensive population submits were never shed under pressure")
	}

	// Jobs with a 1 ms queue TTL land behind two full workers and a deep
	// queue: they must be evicted at pop time, never executed.
	var ttlIDs []string
	for attempt := 0; attempt < 50 && len(ttlIDs) < 3; attempt++ {
		seed++
		resp, st, _ := postJSON(t, ts, "/v1/lifetime",
			lifetimeBody(seed, "ttl-client", `"queue_ttl_ms":1`))
		if resp.StatusCode == http.StatusAccepted {
			ttlIDs = append(ttlIDs, st.ID)
		} else {
			time.Sleep(10 * time.Millisecond) // let the queue drain a slot
		}
	}
	if len(ttlIDs) == 0 {
		t.Fatal("no TTL-bounded job was accepted; drill cannot exercise eviction")
	}
	// Submit phase over: the accepted work may finish at full speed.
	faultinject.DisarmAll()

	// Wait for every accepted job to reach a terminal state.
	waitTerminal := func(id string) JobStatus {
		deadline := time.Now().Add(3 * time.Minute)
		for {
			st, err := s.Status(id, false)
			if err != nil {
				t.Fatalf("status %s: %v", id, err)
			}
			if st.State.Terminal() {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never terminal (state %s)", id, st.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, c := range clients {
		if len(accepted[c]) == 0 {
			t.Fatalf("client %s had no accepted jobs — admission starved it entirely", c)
		}
		var done int
		for _, id := range accepted[c] {
			if st := waitTerminal(id); st.State == JobDone {
				done++
			}
		}
		if done == 0 {
			t.Errorf("client %s: %d accepted jobs but none completed (starved)", c, len(accepted[c]))
		}
	}
	for _, id := range ttlIDs {
		st := waitTerminal(id)
		if st.State != JobCancelled {
			t.Errorf("TTL job %s ended %s, want cancelled (evicted)", id, st.State)
		}
		if st.StartedAt != nil {
			t.Errorf("TTL job %s has a start time — an expired job reached a worker", id)
		}
		if !strings.Contains(st.Error, "expired") {
			t.Errorf("TTL job %s error %q does not mention expiry", id, st.Error)
		}
	}
	if got, want := s.met.JobsEvicted.Value(), int64(len(ttlIDs)); got != want {
		t.Errorf("JobsEvicted = %d, want %d", got, want)
	}

	// Clean drain: Shutdown completes without the escalation deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after overload: %v", err)
	}

	// Draining split: further submits get 503 + Retry-After, not 429.
	resp, _, _ := postJSON(t, ts, "/v1/lifetime", lifetimeBody(9999, "late", ""))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 draining response missing Retry-After")
	}
}

// TestQueueFullReturns429 pins the queue-full → 429 + Retry-After
// contract (previously queue-full and draining were the same bare 503).
func TestQueueFullReturns429(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Seed 1 occupies the worker, seed 2 the queue slot; seed 3 must be
	// rejected. Slow 10-year jobs keep the worker busy throughout.
	slow := func(seed int64) string {
		return fmt.Sprintf(`{"config":{"Rows":4,"Cols":4,"Years":10,"WindowSeconds":1,"MixApps":2},"seed":%d,"policy":"vaa"}`, seed)
	}
	if resp, _, _ := postJSON(t, ts, "/v1/lifetime", slow(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		resp, _, msg := postJSON(t, ts, "/v1/lifetime", slow(time.Now().UnixNano()%1e6+2))
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("429 missing Retry-After header")
			}
			if !strings.Contains(msg, "queue") && !strings.Contains(msg, "shed") {
				t.Fatalf("429 error %q names neither queue nor shed", msg)
			}
			return
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("filling queue: status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never saturated")
		}
	}
}

// TestRateLimit429 exercises the per-client token bucket: with a 1 rps
// budget (burst 2), a burst of distinct-seed submits from one client is
// rate-limited with 429 while another client is unaffected.
func TestRateLimit429(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 32, MaxClientRPS: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var limited bool
	for seed := int64(1); seed <= 5; seed++ {
		resp, _, msg := postJSON(t, ts, "/v1/lifetime", lifetimeBody(seed, "greedy", ""))
		if resp.StatusCode == http.StatusTooManyRequests {
			limited = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("rate-limit 429 missing Retry-After")
			}
			if !strings.Contains(msg, "rate limit") {
				t.Fatalf("429 error %q does not mention the rate limit", msg)
			}
			break
		}
	}
	if !limited {
		t.Fatal("5 instant submits under a 1 rps budget were never rate-limited")
	}
	if resp, _, _ := postJSON(t, ts, "/v1/lifetime", lifetimeBody(100, "patient", "")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other client caught in greedy client's limit: status %d", resp.StatusCode)
	}
	if s.met.RateLimited.Value() == 0 {
		t.Error("RateLimited metric not incremented")
	}
}

// Distinct clients whose jobs have all finished leave no admission state
// behind, whatever their names; a name longer than the bound is refused
// with 400 on the single and the batch path, before any admission state
// is made for it.
func TestClientStateBounded(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("%0*d", maxClientName, i) // the longest name allowed
		resp, st, msg := postJSON(t, ts, "/v1/lifetime", lifetimeBody(int64(i+1), name, `"wait":true`))
		if resp.StatusCode != http.StatusOK || st.State != JobDone {
			t.Fatalf("client %d: HTTP %d, state %s (%s)", i, resp.StatusCode, st.State, msg)
		}
	}
	entries := func() int {
		s.adm.mu.Lock()
		defer s.adm.mu.Unlock()
		return len(s.adm.clients)
	}
	if n := entries(); n != 0 {
		t.Fatalf("5 finished clients left %d admission entries, want 0", n)
	}

	long := strings.Repeat("c", maxClientName+1)
	if resp, _, msg := postJSON(t, ts, "/v1/lifetime", lifetimeBody(9, long, "")); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "client name") {
		t.Errorf("%d-byte client name: HTTP %d (%q), want 400 naming the client", len(long), resp.StatusCode, msg)
	}
	body := `{"items":[{"config":{"Rows":4,"Cols":4,"Years":1,"WindowSeconds":1,"MixApps":2},"seed":9,"policy":"hayat","client":"` + long + `"}]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 1 || br.Results[0].Status != http.StatusBadRequest {
		t.Errorf("batch item with a %d-byte client name: %+v, want 400", len(long), br)
	}
	if got := s.met.SimRuns.Value(); got != 5 {
		t.Errorf("sim runs %d, want 5: a refused name ran", got)
	}
	if n := entries(); n != 0 {
		t.Errorf("refused names left %d admission entries, want 0", n)
	}
}

// TestDegradedMode verifies the degraded path: under queue pressure a
// lifetime submit with degraded_ok gets an immediate terminal answer
// flagged "degraded": true, carrying the analytic estimate, and the real
// simulation pipeline is never charged for it.
func TestDegradedMode(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 2, ShedStart: 0.5})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Occupy the worker and reach the pressure band (depth ≥ 1 of 2).
	slow := `{"config":{"Rows":4,"Cols":4,"Years":10,"WindowSeconds":1,"MixApps":2},"seed":1,"policy":"vaa"}`
	if resp, _, _ := postJSON(t, ts, "/v1/lifetime", slow); resp.StatusCode != http.StatusAccepted {
		t.Fatal("could not occupy the worker")
	}
	deadline := time.Now().Add(time.Minute)
	for !s.Pressure() {
		seed := time.Now().UnixNano()%1e6 + 10
		postJSON(t, ts, "/v1/lifetime", fmt.Sprintf(
			`{"config":{"Rows":4,"Cols":4,"Years":10,"WindowSeconds":1,"MixApps":2},"seed":%d,"policy":"vaa"}`, seed))
		if time.Now().After(deadline) {
			t.Fatal("pressure band never reached")
		}
	}

	resp, st, _ := postJSON(t, ts, "/v1/lifetime", lifetimeBody(777, "fallback", `"degraded_ok":true`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded submit: status %d, want 200 (immediate answer)", resp.StatusCode)
	}
	if !st.Degraded || st.State != JobDone {
		t.Fatalf("degraded submit: degraded=%v state=%s", st.Degraded, st.State)
	}
	full := getStatus(t, ts, st.ID)
	var est struct {
		Policy   string  `json:"policy"`
		ChipSeed int64   `json:"chip_seed"`
		Method   string  `json:"method"`
		AvgFMax  float64 `json:"avg_final_fmax_hz"`
		Health   float64 `json:"avg_health"`
	}
	if err := json.Unmarshal(full.Result, &est); err != nil {
		t.Fatalf("degraded result not JSON: %v", err)
	}
	if est.Policy != "Hayat" || est.ChipSeed != 777 || est.Method == "" {
		t.Fatalf("estimate meta %+v", est)
	}
	if est.Health <= 0 || est.Health > 1 || est.AvgFMax <= 0 {
		t.Fatalf("estimate values out of range: %+v", est)
	}
	if s.met.JobsDegraded.Value() != 1 {
		t.Errorf("JobsDegraded = %d, want 1", s.met.JobsDegraded.Value())
	}
	// Degraded answers are never cached: once load clears, the same
	// request must run the real simulation (cache misses only).
	if _, ok := s.store.GetLocal(st.Key); ok {
		t.Error("degraded estimate leaked into the result cache")
	}
}

// TestDeadlineCancelsRunningJob verifies deadline propagation into the
// running simulation: a long job with a short deadline is cancelled at an
// epoch boundary once its context deadline fires.
func TestDeadlineCancelsRunningJob(t *testing.T) {
	// Slow every thermal solve so the simulation deterministically outlives
	// the deadline — wall-clock speed of the host must not matter.
	defer faultinject.DisarmAll()
	if err := faultinject.ArmSpecs("sim.thermal-solve=sleep(50ms)"); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	st, err := s.SubmitLifetimeWith(slowCfg(), 1, "hayat", SubmitOpts{Deadline: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobCancelled {
		t.Fatalf("deadline-bounded job ended %s (err %q), want cancelled", got.State, got.Error)
	}
	if got.StartedAt == nil {
		t.Fatal("job never started — the deadline should have let it run first")
	}
}

// TestDefaultDeadlineApplies verifies Options.DefaultDeadline bounds jobs
// whose submit carries no deadline.
func TestDefaultDeadlineApplies(t *testing.T) {
	defer faultinject.DisarmAll()
	if err := faultinject.ArmSpecs("sim.thermal-solve=sleep(50ms)"); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 4, DefaultDeadline: 300 * time.Millisecond})
	st, err := s.SubmitLifetime(slowCfg(), 1, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobCancelled {
		t.Fatalf("job under DefaultDeadline ended %s, want cancelled", got.State)
	}
}
