package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func fastRetry() Backoff {
	return Backoff{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
}

func newTestRouter(t *testing.T, peers []string, cfg Config) *Router {
	t.Helper()
	cfg.Self = "http://self.invalid"
	cfg.Peers = peers
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = fastRetry()
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Consecutive forward failures trip the peer's breaker; once open, calls
// short-circuit without touching the network.
func TestRouterBreakerGatesForwarding(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	r := newTestRouter(t, []string{srv.URL}, Config{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	ctx := context.Background()

	// First forward: 3 attempts (500 is transient), all fail → breaker
	// reaches its threshold mid-loop and the retry loop short-circuits.
	_, err := r.SubmitBatch(ctx, srv.URL, []byte(`{}`), 1)
	if err == nil {
		t.Fatal("forward to 500-peer succeeded")
	}
	after := hits.Load()
	if after == 0 {
		t.Fatal("peer never contacted")
	}

	// Breaker is now open: no further network traffic.
	_, err = r.SubmitBatch(ctx, srv.URL, []byte(`{}`), 1)
	if !errors.Is(err, errOpen) {
		t.Fatalf("open breaker returned %v", err)
	}
	if hits.Load() != after {
		t.Fatalf("open breaker still hit the peer (%d → %d)", after, hits.Load())
	}
	snap := r.Snapshot()[srv.URL]
	if snap.Breaker.State != breakerOpen || snap.Breaker.Trips == 0 {
		t.Fatalf("breaker snapshot: %+v", snap.Breaker)
	}
}

// 429/503 replies surface as BusyError with the origin's Retry-After, are
// not retried, and do NOT trip the breaker (a peer shedding load is
// alive).
func TestRouterBusyPassthrough(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	r := newTestRouter(t, []string{srv.URL}, Config{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	_, err := r.SubmitBatch(context.Background(), srv.URL, []byte(`{}`), 1)
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("want BusyError, got %v", err)
	}
	if be.Status != http.StatusTooManyRequests || be.RetryAfter != 7*time.Second {
		t.Fatalf("busy error: %+v", be)
	}
	if hits.Load() != 1 {
		t.Fatalf("busy reply retried: %d attempts", hits.Load())
	}
	if snap := r.Snapshot()[srv.URL]; snap.Breaker.State != breakerClosed {
		t.Fatalf("busy reply tripped the breaker: %+v", snap.Breaker)
	}
}

// The prober evicts a peer after failThreshold bad probes and restores it
// after recoverThreshold good ones; ring ownership follows.
func TestProberEvictsAndRecovers(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(ProbeEnvelope{Ready: ready.Load()})
	}))
	defer srv.Close()

	r := newTestRouter(t, []string{srv.URL}, Config{ProbeInterval: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.Start(ctx)
	defer r.Close()

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s; snapshot %+v", what, r.Snapshot())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	waitFor(r.FirstSweepDone, "first sweep")
	waitFor(func() bool { return r.PeerUp(srv.URL) }, "peer up")

	// A key owned by the peer re-routes to self after eviction.
	var key string
	for i := 0; ; i++ {
		key = testKeys(i + 1)[i]
		if p, local := r.Owner(key); !local && p == srv.URL {
			break
		}
	}

	ready.Store(false)
	waitFor(func() bool { return !r.PeerUp(srv.URL) }, "eviction")
	if _, local := r.Owner(key); !local {
		t.Fatal("evicted peer's key did not re-route")
	}
	snap := r.Snapshot()[srv.URL]
	if snap.State != "down" || snap.Evictions == 0 {
		t.Fatalf("snapshot after eviction: %+v", snap)
	}

	ready.Store(true)
	waitFor(func() bool { return r.PeerUp(srv.URL) }, "recovery")
	if p, local := r.Owner(key); local || p != srv.URL {
		t.Fatal("recovered peer did not get its key back")
	}
	if snap := r.Snapshot()[srv.URL]; snap.Recoveries == 0 {
		t.Fatalf("snapshot after recovery: %+v", snap)
	}
}

// A draining peer (readyz 503 with a well-formed body) is evicted even
// though its HTTP stack is perfectly healthy.
func TestProberEvictsDrainingPeer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(ProbeEnvelope{Ready: false, Draining: true, Reasons: []string{"draining"}})
	}))
	defer srv.Close()

	r := newTestRouter(t, []string{srv.URL}, Config{ProbeInterval: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.Start(ctx)
	defer r.Close()

	deadline := time.Now().Add(5 * time.Second)
	for r.PeerUp(srv.URL) {
		if time.Now().After(deadline) {
			t.Fatal("draining peer never evicted")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(Config{Peers: []string{"http://a"}}); err == nil {
		t.Fatal("missing Self accepted")
	}
	if _, err := New(Config{Self: "http://a"}); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := New(Config{Self: "http://a", Peers: []string{"b:123"}}); err == nil {
		t.Fatal("non-http peer accepted")
	}
	// Self listed among peers is deduplicated, leaving zero remotes.
	if _, err := New(Config{Self: "http://a", Peers: []string{"http://a"}}); err == nil {
		t.Fatal("self-only cluster accepted")
	}
}
