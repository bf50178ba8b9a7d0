package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/cluster"
	"github.com/kit-ces/hayat/internal/faultinject"
)

// startClusterNode serves a real Server on ln (allocated by the caller so
// peers can know each other's URLs before either server exists).
func startClusterNode(t *testing.T, ln net.Listener, peers []string, tweak func(*Options)) *Server {
	t.Helper()
	opts := Options{
		Workers: 2,
		Retry:   cluster.Backoff{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Cluster: ClusterOptions{Self: "http://" + ln.Addr().String(), Peers: peers, ProbeInterval: 50 * time.Millisecond},
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
// answered 429 with Retry-After 7 — on the whole request, or, with
// perItem, as a batch whose one item was rejected that way.
func busyStub(t *testing.T, perItem bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.URL.Path == "/readyz":
			fmt.Fprint(w, `{"ready":true}`)
		case perItem:
			fmt.Fprint(w, `{"results":[{"index":0,"accepted":false,"status":429,"error":"shedding","retry_after_s":7}],"rejected":1}`)
		default:
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"shedding"}`)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// An owner's 429 passes through to the submitting client verbatim —
// same status, same Retry-After — instead of being absorbed locally,
// whether the owner rejected the whole batch request or its one item.
func TestClusterBusyPassthrough(t *testing.T) {
	for _, tc := range []struct {
		name    string
		perItem bool
	}{{"request", false}, {"item", true}} {
		t.Run(tc.name, func(t *testing.T) {
			stub := busyStub(t, tc.perItem)
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
		})
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
// can spill chips off a hot arc — gives at least want chips to peer, and
// returns it with the number peer gets.
func baseSeedWithRemoteChips(t *testing.T, s *Server, peer string, cfg hayat.Config, chips, want int) (int64, int) {
	t.Helper()
	for base := int64(0); base < 10_000; base++ {
		popReq := request{Kind: KindPopulation, Config: NormalizeConfig(cfg), Policy: "Hayat", Seed: base, Chips: chips}
		keys := make([]string, chips)
		for i := 0; i < chips; i++ {
			_, keys[i] = chipKey(popReq, base+int64(i))
		}
		if n := len(s.router.AssignKeys(keys)[peer]); n >= want {
			return base, n
		}
	}
	t.Fatalf("no base seed in 10k assigning %d chips to %s", want, peer)
	return 0, 0
}

// A population on a 2-node cluster fans chips out to the peer and the
// aggregated result is byte-identical to a single-node run.
func TestClusterPopulationFanout(t *testing.T) {
	lnA, lnB := listen(t), listen(t)
	urlA, urlB := "http://"+lnA.Addr().String(), "http://"+lnB.Addr().String()
	b := startClusterNode(t, lnB, []string{urlA}, nil)
	a := startClusterNode(t, lnA, []string{urlB}, nil)

	const chips = 4
	base, _ := baseSeedWithRemoteChips(t, a, urlB, tinyCfg(), chips, 1)
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

// stubPeer is a scripted peer answering only the routes a node uses to
// run work elsewhere: GET /readyz, POST /v1/batch and /v1/jobs/…. It
// accepts every batch item as job stub-<n>, reports each job's state as
// state(items accepted so far) — an empty state fails the poll with 502,
// a peer dying mid-job — and serves a done job's result from results,
// keyed by the item's seed. Every other request answers 404 and is
// recorded in other. With hold set (under mu), a batch signals its
// arrival on held and waits, without the stub's lock, for hold to close
// before it is admitted.
type stubPeer struct {
	*httptest.Server
	state func(accepted int) JobState
	hold  chan struct{}
	held  chan struct{}

	mu      sync.Mutex
	items   []BatchItem
	results map[int64][]byte
	deletes int
	other   []string
}

func newStubPeer(t *testing.T, state func(accepted int) JobState) *stubPeer {
	t.Helper()
	sp := &stubPeer{state: state, results: make(map[int64][]byte)}
	sp.Server = httptest.NewServer(http.HandlerFunc(sp.serve))
	t.Cleanup(sp.Close)
	return sp
}

func (sp *stubPeer) serve(w http.ResponseWriter, r *http.Request) {
	sp.mu.Lock()
	hold, held := sp.hold, sp.held
	sp.mu.Unlock()
	if hold != nil && r.URL.Path == "/v1/batch" {
		select {
		case held <- struct{}{}:
		default:
		}
		<-hold
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	id, isJob := strings.CutPrefix(r.URL.Path, "/v1/jobs/")
	switch {
	case r.URL.Path == "/readyz":
		fmt.Fprint(w, `{"ready":true}`)
	case r.Method == http.MethodPost && r.URL.Path == "/v1/batch":
		var req BatchRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		var resp BatchResponse
		for i, it := range req.Items {
			sp.items = append(sp.items, it)
			resp.Results = append(resp.Results, BatchItemResult{
				Index: i, Accepted: true, Status: http.StatusAccepted,
				Job: &JobStatus{ID: fmt.Sprintf("stub-%d", len(sp.items)), State: JobQueued},
			})
		}
		_ = json.NewEncoder(w).Encode(resp)
	case !isJob:
		sp.other = append(sp.other, r.Method+" "+r.URL.Path)
		http.NotFound(w, r)
	case r.Method == http.MethodDelete:
		sp.deletes++
	case strings.HasSuffix(id, "/result"):
		var n int
		fmt.Sscanf(id, "stub-%d/result", &n)
		w.Write(sp.results[sp.items[n-1].Seed])
	default:
		state := sp.state(len(sp.items))
		if state == "" {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		_ = json.NewEncoder(w).Encode(JobStatus{ID: id, State: state})
	}
}

// snapshot reads the stub's counters under its lock.
func (sp *stubPeer) snapshot() (items []BatchItem, deletes int, other []string) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return append([]BatchItem(nil), sp.items...), sp.deletes, append([]string(nil), sp.other...)
}

// Chips accepted by a peer that never delivers are stolen back after
// StealAfter and simulated locally — the population still completes
// byte-identical, the slow peer only costs time.
func TestClusterStealFromHangingPeer(t *testing.T) {
	stub := newStubPeer(t, func(int) JobState { return JobRunning })
	ln := listen(t)
	a := startClusterNode(t, ln, []string{stub.URL}, func(o *Options) {
		o.Cluster.StealAfter = 50 * time.Millisecond
	})

	const chips = 3
	base, _ := baseSeedWithRemoteChips(t, a, stub.URL, tinyCfg(), chips, 1)
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

// A forwarded lifetime travels as a one-item batch: an owner answering
// only /readyz, /v1/batch and /v1/jobs/… completes it, and nothing
// posts /v1/lifetime to a peer.
func TestClusterForwardCompletesOnBatchOnlyStub(t *testing.T) {
	stub := newStubPeer(t, func(int) JobState { return JobDone })
	ln := listen(t)
	a := startClusterNode(t, ln, []string{stub.URL}, nil)

	seed := seedOwnedBy(t, a, stub.URL, KindLifetime, tinyCfg(), 1)
	want := referenceResult(t, tinyCfg(), seed)
	stub.mu.Lock()
	stub.results[seed] = want
	stub.mu.Unlock()
	st, err := a.SubmitLifetimeWith(tinyCfg(), seed, "hayat", SubmitOpts{Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, a, st.ID); final.State != JobDone {
		t.Fatalf("forwarded job state %s (%s)", final.State, final.Error)
	}
	if got, err := a.Result(st.ID); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("forwarded result differs from a local run (err %v)", err)
	}
	if a.Metrics().SimRuns.Value() != 0 {
		t.Fatal("forwarding node simulated the job itself")
	}
	items, _, other := stub.snapshot()
	if len(items) != 1 || items[0].Kind != KindLifetime || items[0].Seed != seed {
		t.Fatalf("owner received items %+v, want one lifetime for seed %d", items, seed)
	}
	if ms := items[0].DeadlineMS; ms <= 0 || ms > time.Minute.Milliseconds() {
		t.Fatalf("forwarded deadline_ms %d, want the remaining minute", ms)
	}
	if len(other) != 0 {
		t.Fatalf("owner was sent requests outside the batch protocol: %v", other)
	}
}

// An owner that fails mid-job costs one re-route: the forwarding node
// resubmits the lifetime to the key's next owner, which runs it, and the
// result is still byte-identical.
func TestClusterForwardRerouteOnOwnerFailure(t *testing.T) {
	stub := newStubPeer(t, func(int) JobState { return "" }) // accepts, then fails every poll
	lnA, lnB := listen(t), listen(t)
	urlA, urlB := "http://"+lnA.Addr().String(), "http://"+lnB.Addr().String()
	b := startClusterNode(t, lnB, []string{urlA, stub.URL}, nil)
	a := startClusterNode(t, lnA, []string{urlB, stub.URL}, nil)

	seed := int64(-1)
	for s := int64(0); s < 10_000 && seed < 0; s++ {
		key := request{Kind: KindLifetime, Config: NormalizeConfig(tinyCfg()), Policy: "Hayat", Seed: s, Chips: 1}.key()
		owner, _ := a.router.Owner(key)
		next, _ := a.router.OwnerExcluding(key, map[string]bool{stub.URL: true})
		if owner == stub.URL && next == urlB {
			seed = s
		}
	}
	if seed < 0 {
		t.Fatal("no seed in 10k owned by the stub with B next")
	}
	st, err := a.SubmitLifetimeWith(tinyCfg(), seed, "hayat", SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, a, st.ID); final.State != JobDone {
		t.Fatalf("re-routed job state %s (%s)", final.State, final.Error)
	}
	if got, err := a.Result(st.ID); err != nil || !bytes.Equal(got, referenceResult(t, tinyCfg(), seed)) {
		t.Fatalf("re-routed result differs from a local run (err %v)", err)
	}
	if n := a.Metrics().Reroutes.Value(); n != 1 {
		t.Fatalf("cluster.reroutes = %d, want 1", n)
	}
	if a.Metrics().SimRuns.Value() != 0 || b.Metrics().SimRuns.Value() == 0 {
		t.Fatalf("sim runs: forwarding node %d, next owner %d; want 0 and ≥1",
			a.Metrics().SimRuns.Value(), b.Metrics().SimRuns.Value())
	}
	if items, _, _ := stub.snapshot(); len(items) != 1 {
		t.Fatalf("failed owner received %d items, want 1", len(items))
	}
}

// A forwarded lifetime whose owner fails runs locally on a worker slot,
// not on its tracking goroutine: the owner accepts four lifetimes and
// then shuts down, cancelling them, and with one worker the four
// fallback simulations run one after another.
func TestClusterForwardFallbackRunsOnWorker(t *testing.T) {
	// Each lifetime takes at least 4 × 50 ms, so the owner is still
	// running the first when it shuts down.
	if err := faultinject.ArmSpecs("sim.thermal-solve=sleep(50ms)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.DisarmAll)
	oneWorker := func(o *Options) { o.Workers = 1 }
	lnA, lnB := listen(t), listen(t)
	urlA, urlB := "http://"+lnA.Addr().String(), "http://"+lnB.Addr().String()
	b := startClusterNode(t, lnB, []string{urlA}, oneWorker)
	a := startClusterNode(t, lnA, []string{urlB}, oneWorker)

	const jobs = 4
	var ids []string
	for seed := int64(0); seed < 10_000 && len(ids) < jobs; seed++ {
		req := request{Kind: KindLifetime, Config: NormalizeConfig(tinyCfg()), Policy: "Hayat", Seed: seed, Chips: 1}
		if p, _ := a.router.Owner(req.key()); p != urlB {
			continue
		}
		st, err := a.SubmitLifetimeWith(tinyCfg(), seed, "hayat", SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if n := a.Metrics().Forwards.Value(); n != jobs {
		t.Fatalf("%d of %d lifetimes forwarded", n, jobs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_ = b.Shutdown(ctx) // past its deadline at once: the owner cancels all four

	var runs []JobStatus
	for _, id := range ids {
		st := waitDone(t, a, id)
		if st.State != JobDone {
			t.Fatalf("%s: %s (%s)", id, st.State, st.Error)
		}
		runs = append(runs, st)
	}
	if n := a.Metrics().ForwardFallbackLocal.Value(); n != jobs {
		t.Fatalf("forward_fallback_local = %d, want %d", n, jobs)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].StartedAt.Before(*runs[j].StartedAt) })
	for i := 1; i < len(runs); i++ {
		if runs[i].StartedAt.Before(*runs[i-1].FinishedAt) {
			t.Fatalf("%s started at %v, before %s finished at %v: fallbacks ran outside the one worker",
				runs[i].ID, runs[i].StartedAt, runs[i-1].ID, runs[i-1].FinishedAt)
		}
	}
}

// Workers outlive a drain while a forwarded job is tracked: when its
// owner fails after the drain began, the job handed back to the queue
// still finds a worker, and Shutdown returns with it done.
func TestClusterDrainKeepsWorkersForTrackedJobs(t *testing.T) {
	var failed atomic.Bool
	stub := newStubPeer(t, func(int) JobState {
		if failed.Load() {
			return JobFailed
		}
		return JobRunning
	})
	ln := listen(t)
	a := startClusterNode(t, ln, []string{stub.URL}, nil)

	seed := seedOwnedBy(t, a, stub.URL, KindLifetime, tinyCfg(), 1)
	st, err := a.SubmitLifetimeWith(tinyCfg(), seed, "hayat", SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		drained <- a.Shutdown(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !a.Readiness().Draining {
		if time.Now().After(deadline) {
			t.Fatal("node never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	failed.Store(true)
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if final, _ := a.Status(st.ID, false); final.State != JobDone {
		t.Fatalf("tracked job %s after the drain, want done", final.State)
	}
}

// A population that stops waiting for its remote chips — here it is
// cancelled — cancels their jobs on the peer: one DELETE per chip job
// the peer accepted, instead of leaving them to run to completion.
func TestClusterCancelledPopulationCancelsRemoteChips(t *testing.T) {
	stub := newStubPeer(t, func(int) JobState { return JobRunning }) // never finishes
	ln := listen(t)
	a := startClusterNode(t, ln, []string{stub.URL}, nil)

	const chips = 8
	base, remote := baseSeedWithRemoteChips(t, a, stub.URL, tinyCfg(), chips, 4)
	st, err := a.SubmitPopulation(tinyCfg(), base, chips, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the coordinator has read the peer's acceptance of every
	// remote chip, so it knows each chip's job ID.
	deadline := time.Now().Add(10 * time.Second)
	for a.Metrics().ChipsForwarded.Value() < int64(remote) {
		if time.Now().After(deadline) {
			t.Fatalf("peer accepted %d of %d chips", a.Metrics().ChipsForwarded.Value(), remote)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := a.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, a, st.ID); final.State != JobCancelled {
		t.Fatalf("population state %s, want cancelled", final.State)
	}
	if _, deletes, _ := stub.snapshot(); deletes != remote {
		t.Fatalf("peer got %d DELETEs, want one per accepted chip job (%d)", deletes, remote)
	}
}

// A population cancelled while its POST /v1/batch is in flight still
// reads the peer's reply, and cancels every chip job the peer accepted:
// one DELETE each, instead of chips that run to completion for nobody.
func TestClusterCancelDuringBatchPostCancelsAcceptedChips(t *testing.T) {
	stub := newStubPeer(t, func(int) JobState { return JobRunning }) // never finishes
	hold := make(chan struct{})
	stub.mu.Lock()
	stub.hold, stub.held = hold, make(chan struct{}, 1)
	stub.mu.Unlock()
	ln := listen(t)
	a := startClusterNode(t, ln, []string{stub.URL}, nil)

	const chips = 8
	base, remote := baseSeedWithRemoteChips(t, a, stub.URL, tinyCfg(), chips, 4)
	st, err := a.SubmitPopulation(tinyCfg(), base, chips, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stub.held:
	case <-time.After(10 * time.Second):
		close(hold)
		t.Fatal("the population's batch never reached the peer")
	}
	if err := a.Cancel(st.ID); err != nil {
		close(hold)
		t.Fatal(err)
	}
	// The peer admits every item a moment after the cancel, well inside
	// the cluster.AbandonGrace the coordinator gives the reply.
	time.Sleep(100 * time.Millisecond)
	close(hold)
	if final := waitDone(t, a, st.ID); final.State != JobCancelled {
		t.Fatalf("population state %s, want cancelled", final.State)
	}
	items, deletes, _ := stub.snapshot()
	if len(items) != remote {
		t.Fatalf("peer accepted %d chip jobs, want %d", len(items), remote)
	}
	if deletes != remote {
		t.Fatalf("peer got %d DELETEs, want one per accepted chip job (%d)", deletes, remote)
	}
}

// Only the node that simulated a result pushes it to the replica set:
// a forwarding node stores and audits the bytes it fetched from the
// owner, but does not push them back to the owner that sent them.
func TestClusterForwardedResultNotReplicatedBack(t *testing.T) {
	lnA, lnB := listen(t), listen(t)
	urlA, urlB := "http://"+lnA.Addr().String(), "http://"+lnB.Addr().String()
	b := startClusterNode(t, lnB, []string{urlA}, nil)
	a := startClusterNode(t, lnA, []string{urlB}, nil)

	seed := seedOwnedBy(t, a, urlB, KindLifetime, tinyCfg(), 1)
	st, err := a.SubmitLifetimeWith(tinyCfg(), seed, "hayat", SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, a, st.ID); final.State != JobDone {
		t.Fatalf("forwarded job state %s (%s)", final.State, final.Error)
	}
	// Shutdown joins each node's job goroutines, and with them the
	// replica pushes that follow a result; the owner goes first, while
	// its push to the forwarding node can still land.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range []*Server{b, a} {
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.Metrics().StoreReplicaPuts.Value(); n != 1 {
		t.Fatalf("owner pushed %d replica copies, want 1", n)
	}
	if n := a.Metrics().StoreReplicaPuts.Value(); n != 0 {
		t.Fatalf("forwarding node pushed the owner's bytes back %d times", n)
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
