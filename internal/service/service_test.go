package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/faultinject"
)

// tinyCfg is a fast 4×4 one-year experiment (~200 ms per fresh chip).
func tinyCfg() hayat.Config {
	cfg := hayat.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Years = 1
	cfg.WindowSeconds = 1
	cfg.MixApps = 2
	return cfg
}

// slowCfg is tinyCfg stretched to a 10-year lifetime (40 epochs), long
// enough to cancel mid-run.
func slowCfg() hayat.Config {
	cfg := tinyCfg()
	cfg.Years = 10
	return cfg
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func waitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return st
}

func TestLifetimeJobRoundTrip(t *testing.T) {
	s := newTestServer(t, Options{})
	st, err := s.SubmitLifetime(tinyCfg(), 1, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindLifetime || st.State.Terminal() && st.State != JobDone {
		t.Fatalf("unexpected submit status %+v", st)
	}
	st = waitDone(t, s, st.ID)
	if st.State != JobDone {
		t.Fatalf("job state %s (err %q), want done", st.State, st.Error)
	}
	var rec struct {
		Policy   string `json:"policy"`
		ChipSeed int64  `json:"chip_seed"`
	}
	if err := json.Unmarshal(st.Result, &rec); err != nil {
		t.Fatalf("result is not JSON: %v", err)
	}
	if rec.Policy != "Hayat" || rec.ChipSeed != 1 {
		t.Fatalf("result meta %+v", rec)
	}
	if got := s.Metrics().JobsDone.Value(); got != 1 {
		t.Fatalf("JobsDone = %d, want 1", got)
	}
	if got := s.Metrics().SimRuns.Value(); got != 1 {
		t.Fatalf("SimRuns = %d, want 1", got)
	}
}

func TestCacheHitIsByteIdenticalAndFast(t *testing.T) {
	s := newTestServer(t, Options{})

	missStart := time.Now()
	st, err := s.SubmitLifetime(tinyCfg(), 2, "vaa")
	if err != nil {
		t.Fatal(err)
	}
	first := waitDone(t, s, st.ID)
	missDur := time.Since(missStart)
	if first.State != JobDone || first.Cached {
		t.Fatalf("first request should be an uncached run, got %+v", first)
	}

	hitStart := time.Now()
	second, err := s.SubmitLifetime(tinyCfg(), 2, "vaa")
	hitDur := time.Since(hitStart)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != JobDone || !second.Cached {
		t.Fatalf("second request should be served from cache, got state=%s cached=%v", second.State, second.Cached)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cache hit is not byte-identical to the original result")
	}
	if s.Metrics().SimRuns.Value() != 1 {
		t.Fatalf("SimRuns = %d, want 1", s.Metrics().SimRuns.Value())
	}
	if hitDur > missDur/10 {
		t.Fatalf("cache hit took %v, want ≥10× faster than the %v miss", hitDur, missDur)
	}

	// A config spelling its defaults explicitly must hit the same entry.
	explicit := tinyCfg()
	explicit.DutyMode = "known"
	explicit.AgingModel = "nbti"
	third, err := s.SubmitLifetime(explicit, 2, "VAA")
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Fatal("canonicalisation failed: explicit defaults missed the cache")
	}
}

func TestConcurrentIdenticalRequestsRunOnce(t *testing.T) {
	s := newTestServer(t, Options{})
	const clients = 8
	var wg sync.WaitGroup
	ids := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.SubmitLifetime(tinyCfg(), 3, "hayat")
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			ids[i] = st.ID
			waitDone(t, s, st.ID)
		}(i)
	}
	wg.Wait()
	if got := s.Metrics().SimRuns.Value(); got != 1 {
		t.Fatalf("%d identical concurrent requests ran the simulation %d times, want 1", clients, got)
	}
	if s.Metrics().Coalesced.Value()+s.Metrics().CacheHits.Value() != clients-1 {
		t.Fatalf("coalesced=%d hits=%d, want them to cover %d requests",
			s.Metrics().Coalesced.Value(), s.Metrics().CacheHits.Value(), clients-1)
	}
}

func TestPopulationJobProgressAndResult(t *testing.T) {
	s := newTestServer(t, Options{})
	st, err := s.SubmitPopulation(tinyCfg(), 1, 2, "vaa")
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != JobDone {
		t.Fatalf("population job state %s (err %q)", st.State, st.Error)
	}
	if st.Progress == nil || st.Progress.Done != 2 || st.Progress.Total != 2 {
		t.Fatalf("progress %+v, want 2/2", st.Progress)
	}
	var rec struct {
		Chips   int               `json:"chips"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(st.Result, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Chips != 2 || len(rec.Results) != 2 {
		t.Fatalf("population record has %d chips / %d results", rec.Chips, len(rec.Results))
	}
}

func TestCancelRunningPopulation(t *testing.T) {
	// A slowCfg chip runs in a few milliseconds, so it could finish
	// before the cancel lands; a 20-ms stall on each of its 40 epochs
	// keeps every chip running for 0.8 s.
	if err := faultinject.ArmSpecs("sim.thermal-solve=sleep(20ms)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.DisarmAll)
	s := newTestServer(t, Options{})
	st, err := s.SubmitPopulation(slowCfg(), 1, 4, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up, then cancel.
	deadline := time.Now().Add(time.Minute)
	for {
		cur, err := s.Status(st.ID, false)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == JobRunning {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished (%s) before it could be cancelled", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != JobCancelled {
		t.Fatalf("job state %s (err %q), want cancelled", st.State, st.Error)
	}
	if st.Progress.Done >= st.Progress.Total {
		t.Fatalf("cancellation did not stop outstanding chips: %+v", st.Progress)
	}
	if st.Error == "" || !strings.Contains(st.Error, "cancel") {
		t.Fatalf("cancelled job should carry a cancellation error, got %q", st.Error)
	}
	if s.Metrics().JobsCancelled.Value() != 1 {
		t.Fatalf("JobsCancelled = %d", s.Metrics().JobsCancelled.Value())
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	first, err := s.SubmitPopulation(slowCfg(), 1, 2, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.SubmitLifetime(slowCfg(), 99, "vaa")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	st, err := s.Status(queued.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobCancelled {
		t.Fatalf("queued job state %s, want cancelled", st.State)
	}
	// The first job is unaffected and the worker never runs the
	// cancelled one.
	if err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, first.ID)
	if got := s.Metrics().SimRuns.Value(); got > 1 {
		t.Fatalf("cancelled queued job was executed (SimRuns=%d)", got)
	}
}

func TestInvalidRequests(t *testing.T) {
	s := newTestServer(t, Options{})
	if _, err := s.SubmitLifetime(tinyCfg(), 1, "greedy"); err == nil {
		t.Fatal("unknown policy must be rejected")
	}
	bad := tinyCfg()
	bad.Years = -1
	if _, err := s.SubmitLifetime(bad, 1, "hayat"); err == nil {
		t.Fatal("invalid config must be rejected")
	}
	if _, err := s.SubmitPopulation(tinyCfg(), 1, 0, "hayat"); err == nil {
		t.Fatal("non-positive population must be rejected")
	}
	if s.Metrics().JobsQueued.Value() != 0 {
		t.Fatal("invalid requests must not enqueue jobs")
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	var full bool
	for i := 0; i < 4; i++ {
		_, err := s.SubmitLifetime(slowCfg(), int64(100+i), "hayat")
		if errors.Is(err, ErrQueueFull) {
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("bounded queue never reported ErrQueueFull")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.SubmitLifetime(tinyCfg(), 5, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	got, err := s.Status(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobDone {
		t.Fatalf("in-flight job should complete during drain, got %s (err %q)", got.State, got.Error)
	}
	if _, err := s.SubmitLifetime(tinyCfg(), 6, "hayat"); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown: %v, want ErrDraining", err)
	}
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	// Slow every thermal window so the population deterministically
	// outlives the drain deadline, however fast the simulator runs.
	defer faultinject.DisarmAll()
	if err := faultinject.ArmSpecs("sim.thermal-solve=sleep(50ms)"); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.SubmitPopulation(slowCfg(), 1, 8, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	got, err := s.Status(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobCancelled {
		t.Fatalf("in-flight job state %s, want cancelled after drain deadline", got.State)
	}
}

func TestDataDirPersistsAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{DataDir: dir})
	st, err := s1.SubmitLifetime(tinyCfg(), 7, "vaa")
	if err != nil {
		t.Fatal(err)
	}
	first := waitDone(t, s1, st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Options{DataDir: dir})
	second, err := s2.SubmitLifetime(tinyCfg(), 7, "vaa")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != JobDone {
		t.Fatalf("restarted server should serve from disk cache, got %+v", second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("persisted result differs from the original")
	}
	if s2.Metrics().SimRuns.Value() != 0 {
		t.Fatal("restarted server re-simulated a persisted result")
	}
}

func TestRequestKeyNormalisation(t *testing.T) {
	a := request{Kind: KindLifetime, Config: NormalizeConfig(tinyCfg()), Policy: "Hayat", Seed: 1, Chips: 1}
	b := a
	b.Config.DutyMode = "known" // explicit default
	if a.key() != b.key() {
		t.Fatal("explicit defaults should hash identically")
	}
	c := a
	c.Seed = 2
	if a.key() == c.key() {
		t.Fatal("different seeds must not collide")
	}
	d := a
	d.Kind = KindPopulation
	if a.key() == d.key() {
		t.Fatal("different kinds must not collide")
	}
}

// SubmitLifetime schedules (or coalesces, or answers from cache) a
// single-chip lifetime simulation and returns the job's status.
func (s *Server) SubmitLifetime(cfg hayat.Config, seed int64, policy string) (JobStatus, error) {
	return s.SubmitLifetimeWith(cfg, seed, policy, SubmitOpts{})
}

// SubmitPopulation schedules a population fan-out over seeds
// baseSeed…baseSeed+chips−1 with per-seed progress reporting.
func (s *Server) SubmitPopulation(cfg hayat.Config, baseSeed int64, chips int, policy string) (JobStatus, error) {
	return s.SubmitPopulationWith(cfg, baseSeed, chips, policy, SubmitOpts{})
}
