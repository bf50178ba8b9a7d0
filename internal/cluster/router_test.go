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

func newTestRouter(t *testing.T, peers []string, cfg Config) *Router {
	t.Helper()
	cfg.Self = "http://self.invalid"
	cfg.Peers = peers
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Every request to a failing peer runs peerRetry's whole schedule: a 500
// is transient, so each SubmitBatch makes exactly maxAttempts attempts,
// and however many failures came before, nothing cuts a later request
// short. Only the prober's eviction keeps work off a peer.
func TestRouterRetriesEveryRequest(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	r := newTestRouter(t, []string{srv.URL}, Config{})
	for i := int64(1); i <= 3; i++ {
		_, err := r.SubmitBatch(context.Background(), srv.URL, []byte(`{}`), 1)
		if !errors.Is(err, ErrPeerStatus) {
			t.Fatalf("request %d: want the peer's 500, got %v", i, err)
		}
		if n, want := hits.Load(), i*int64(peerRetry.maxAttempts); n != want {
			t.Fatalf("after %d requests the peer saw %d attempts, want %d", i, n, want)
		}
	}
}

// 429/503 replies surface as BusyError with the origin's Retry-After and
// are not retried, however many arrive in a row.
func TestRouterBusyPassthrough(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	r := newTestRouter(t, []string{srv.URL}, Config{})
	for i := int64(1); i <= 5; i++ {
		_, err := r.SubmitBatch(context.Background(), srv.URL, []byte(`{}`), 1)
		var be *BusyError
		if !errors.As(err, &be) {
			t.Fatalf("reply %d: want BusyError, got %v", i, err)
		}
		if be.Status != http.StatusTooManyRequests || be.RetryAfter != 7*time.Second {
			t.Fatalf("busy error: %+v", be)
		}
		if hits.Load() != i {
			t.Fatalf("busy reply retried: %d attempts after %d replies", hits.Load(), i)
		}
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
