package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/circuit"
)

// fastCluster returns ClusterOptions tuned for tests: tight probe and
// poll cadence, short attempt timeouts.
func fastCluster(self string, peers []string) ClusterOptions {
	return ClusterOptions{
		Self:           self,
		Peers:          peers,
		ProbeInterval:  50 * time.Millisecond,
		PollInterval:   10 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
	}
}

// startClusterNode serves a real Server on ln (allocated by the caller so
// peers can know each other's URLs before either server exists).
func startClusterNode(t *testing.T, ln net.Listener, peers []string, tweak func(*Options)) *Server {
	t.Helper()
	opts := Options{
		Workers: 2,
		Retry:   circuit.Backoff{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Cluster: fastCluster("http://"+ln.Addr().String(), peers),
	}
	if tweak != nil {
		tweak(&opts)
	}
	s := newTestServer(t, opts)
	//lint:ignore goroutine-hygiene test HTTP server: exits when the listener closes at cleanup
	go func() { _ = http.Serve(ln, s.Handler()) }()
	t.Cleanup(func() { ln.Close() })
	return s
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// seedOwnedBy scans seeds until one's request key is owned by owner from
// s's ring view (which every node shares — same peers, same hashes).
func seedOwnedBy(t *testing.T, s *Server, owner, kind string, cfg hayat.Config, chips int) int64 {
	t.Helper()
	for seed := int64(0); seed < 10_000; seed++ {
		req := request{Kind: kind, Config: NormalizeConfig(cfg), Policy: "Hayat", Seed: seed, Chips: chips}
		if p, local := s.router.Owner(req.key()); !local && p == owner {
			return seed
		}
	}
	t.Fatalf("no seed in 10k owned by %s", owner)
	return 0
}

// A lifetime submit whose key a peer owns must execute on that peer and
// come back byte-identical to a local run, with a verifying Merkle proof
// on the forwarding node.
func TestClusterForwardLifetimeByteIdentical(t *testing.T) {
	lnA, lnB := listen(t), listen(t)
	urlA, urlB := "http://"+lnA.Addr().String(), "http://"+lnB.Addr().String()
	b := startClusterNode(t, lnB, []string{urlA}, nil)
	a := startClusterNode(t, lnA, []string{urlB}, nil)

	seed := seedOwnedBy(t, a, urlB, KindLifetime, tinyCfg(), 1)
	st, err := a.SubmitLifetimeWith(tinyCfg(), seed, "hayat", SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, a, st.ID)
	if final.State != JobDone {
		t.Fatalf("forwarded job state %s (%s)", final.State, final.Error)
	}

	got, err := a.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, referenceResult(t, tinyCfg(), seed)) {
		t.Fatal("forwarded result differs from a local run")
	}
	if a.Metrics().Forwards.Value() == 0 {
		t.Fatalf("forwards = 0; forwarding never happened (attempts %d, failures %d)",
			a.Metrics().ForwardAttempts.Value(), a.Metrics().ForwardFailures.Value())
	}
	if a.Metrics().SimRuns.Value() != 0 {
		t.Fatalf("forwarding node ran %d simulations itself", a.Metrics().SimRuns.Value())
	}
	if b.Metrics().SimRuns.Value() == 0 {
		t.Fatal("owner never simulated")
	}
	// Provenance survives forwarding: the tracking node audits the fetched
	// bytes and serves a verifying proof for them.
	pr, err := a.Proof(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyProof(t, pr, got); err != nil {
		t.Fatalf("proof on forwarding node: %v", err)
	}
}

// busyStub is a peer that is alive (ready) but shedding: every submit is
// answered 429 + Retry-After.
func busyStub(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"ready":true}`)
			return
		}
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"shedding"}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// An owner's 429 passes through to the submitting client verbatim —
// same status, same Retry-After — instead of being absorbed locally.
func TestClusterBusyPassthrough(t *testing.T) {
	stub := busyStub(t)
	ln := listen(t)
	a := startClusterNode(t, ln, []string{stub.URL}, nil)

	seed := seedOwnedBy(t, a, stub.URL, KindLifetime, tinyCfg(), 1)
	body := fmt.Sprintf(`{"config":{"Rows":4,"Cols":4,"Years":1,"WindowSeconds":1,"MixApps":2},"seed":%d,"policy":"hayat"}`, seed)
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/lifetime", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After %q, want the origin's 7", ra)
	}
	if a.Metrics().ForwardBusy.Value() == 0 {
		t.Fatal("busy passthrough not counted")
	}
	// Backpressure must not have been converted into local work.
	if a.Metrics().SimRuns.Value() != 0 {
		t.Fatal("node absorbed the shed job locally")
	}
}

// A forward to a dead peer exhausts its retries and degrades to local
// execution: the client still gets a correct answer, never an error.
func TestClusterForwardFallbackLocal(t *testing.T) {
	dead := listen(t)
	deadURL := "http://" + dead.Addr().String()
	dead.Close() // nothing ever listens here again (ports aren't reused that fast)

	ln := listen(t)
	a := startClusterNode(t, ln, []string{deadURL}, nil)

	seed := seedOwnedBy(t, a, deadURL, KindLifetime, tinyCfg(), 1)
	st, err := a.SubmitLifetimeWith(tinyCfg(), seed, "hayat", SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, a, st.ID)
	if final.State != JobDone {
		t.Fatalf("fallback job state %s (%s)", final.State, final.Error)
	}
	got, err := a.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, referenceResult(t, tinyCfg(), seed)) {
		t.Fatal("fallback result differs from a local run")
	}
	if a.Metrics().ForwardFallbackLocal.Value() == 0 {
		t.Fatal("fallback not counted")
	}
	if a.Metrics().SimRuns.Value() == 0 {
		t.Fatal("job never executed locally")
	}
}

// popReference computes a population's canonical bytes on an isolated
// single-node server.
func popReference(t *testing.T, cfg hayat.Config, baseSeed int64, chips int) []byte {
	t.Helper()
	ref := newTestServer(t, Options{Workers: 2})
	st, err := ref.SubmitPopulation(cfg, baseSeed, chips, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, ref, st.ID); st.State != JobDone {
		t.Fatalf("reference population: %s (%s)", st.State, st.Error)
	}
	data, err := ref.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// baseSeedWithRemoteChips finds a population base seed for which the
// bounded-load assignment — the one the coordinator actually runs, which
// can spill chips off a hot arc — gives at least one chip to peer.
func baseSeedWithRemoteChips(t *testing.T, s *Server, peer string, cfg hayat.Config, chips int) int64 {
	t.Helper()
	for base := int64(0); base < 10_000; base++ {
		popReq := request{Kind: KindPopulation, Config: NormalizeConfig(cfg), Policy: "Hayat", Seed: base, Chips: chips}
		keys := make([]string, chips)
		for i := 0; i < chips; i++ {
			_, keys[i] = chipKey(popReq, base+int64(i))
		}
		if len(s.router.AssignKeys(keys)[peer]) > 0 {
			return base
		}
	}
	t.Fatalf("no base seed in 10k assigning a chip to %s", peer)
	return 0
}

// A population on a 2-node cluster fans chips out to the peer and the
// aggregated result is byte-identical to a single-node run.
func TestClusterPopulationFanout(t *testing.T) {
	lnA, lnB := listen(t), listen(t)
	urlA, urlB := "http://"+lnA.Addr().String(), "http://"+lnB.Addr().String()
	b := startClusterNode(t, lnB, []string{urlA}, nil)
	a := startClusterNode(t, lnA, []string{urlB}, nil)

	const chips = 4
	base := baseSeedWithRemoteChips(t, a, urlB, tinyCfg(), chips)
	st, err := a.SubmitPopulation(tinyCfg(), base, chips, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, a, st.ID)
	if final.State != JobDone {
		t.Fatalf("population: %s (%s)", final.State, final.Error)
	}
	got, err := a.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, popReference(t, tinyCfg(), base, chips)) {
		t.Fatal("fanned-out population differs from a single-node run")
	}
	if a.Metrics().ChipsForwarded.Value() == 0 {
		t.Fatal("no chips forwarded")
	}
	if a.Metrics().ChipsFetched.Value() == 0 {
		t.Fatalf("no chip results fetched (stolen %d)", a.Metrics().ChipsStolen.Value())
	}
	if b.Metrics().SimRuns.Value() == 0 {
		t.Fatal("peer never simulated a chip")
	}
}

// hangingStub accepts chip batches and then never finishes them: jobs
// stay "running" forever. The coordinator must steal the chips back.
func hangingStub(t *testing.T) *httptest.Server {
	t.Helper()
	var n int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.URL.Path == "/readyz":
			fmt.Fprint(w, `{"ready":true}`)
		case r.URL.Path == "/v1/batch":
			var req BatchRequest
			_ = json.NewDecoder(r.Body).Decode(&req)
			var resp BatchResponse
			for i := range req.Items {
				n++
				resp.Results = append(resp.Results, BatchItemResult{
					Index: i, Accepted: true, Status: http.StatusAccepted,
					Job: &JobStatus{ID: fmt.Sprintf("stub-%d", n), State: JobQueued},
				})
			}
			_ = json.NewEncoder(w).Encode(resp)
		case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			_ = json.NewEncoder(w).Encode(JobStatus{ID: strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), State: JobRunning})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// Chips accepted by a peer that never delivers are stolen back after
// StealAfter and simulated locally — the population still completes
// byte-identical, the slow peer only costs time.
func TestClusterStealFromHangingPeer(t *testing.T) {
	stub := hangingStub(t)
	ln := listen(t)
	a := startClusterNode(t, ln, []string{stub.URL}, func(o *Options) {
		o.Cluster.StealAfter = 50 * time.Millisecond
	})

	const chips = 3
	base := baseSeedWithRemoteChips(t, a, stub.URL, tinyCfg(), chips)
	st, err := a.SubmitPopulation(tinyCfg(), base, chips, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, a, st.ID)
	if final.State != JobDone {
		t.Fatalf("population: %s (%s)", final.State, final.Error)
	}
	got, err := a.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, popReference(t, tinyCfg(), base, chips)) {
		t.Fatal("stolen-chip population differs from a single-node run")
	}
	if a.Metrics().ChipsStolen.Value() == 0 {
		t.Fatal("no chips stolen from the hanging peer")
	}
}

// /readyz separates readiness from liveness: a started single node is
// ready, a draining one is alive (healthz 200) but not ready (503), and
// a cluster node is not ready until its first peer health sweep.
func TestReadyzLifecycle(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("fresh node readyz %d, want 200", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining node readyz %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("draining node healthz %d, want 200 (liveness is pure)", code)
	}
	rs := s.Readiness()
	if rs.Ready || !rs.Draining || len(rs.Reasons) == 0 {
		t.Fatalf("draining readiness %+v", rs)
	}
}

func TestReadyzWaitsForFirstSweep(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		fmt.Fprint(w, `{"ready":true}`)
	}))
	defer slow.Close()
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	ln := listen(t)
	a := startClusterNode(t, ln, []string{slow.URL}, nil)
	if rs := a.Readiness(); rs.Ready {
		t.Fatal("cluster node ready before its first peer sweep")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for !a.Readiness().Ready {
		if time.Now().After(deadline) {
			t.Fatalf("node never became ready: %+v", a.Readiness())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
