package service

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/cluster"
	"github.com/kit-ces/hayat/internal/faultinject"
)

// fpClusterSteal fires at the chip work-stealing decision: arming it
// forces the coordinator to steal remote chips back to local execution,
// which must still produce byte-identical population results.
const fpClusterSteal = "cluster.steal"

// ClusterOptions wires a node into a hayatd cluster; its fields are
// hayatd's cluster flags. Zero Peers means single-node mode: no ring, no
// prober, no forwarding.
type ClusterOptions struct {
	// Self is this node's own base URL as peers reach it
	// (e.g. "http://10.0.0.1:8080"); required when Peers is set.
	Self string
	// Peers are the other nodes' base URLs.
	Peers []string
	// ProbeInterval is the /readyz health-probe cadence (default 1s).
	ProbeInterval time.Duration
	// StealAfter is the slow-peer backstop for population fan-out: a chip
	// whose remote result has not arrived after this long is stolen back
	// and simulated locally (default 60s; negative disables).
	StealAfter time.Duration
}

// pollInterval is how often a remote job's status is polled on its peer.
const pollInterval = 100 * time.Millisecond

func (c ClusterOptions) enabled() bool { return len(c.Peers) > 0 }

func (c ClusterOptions) stealAfter() time.Duration {
	switch {
	case c.StealAfter < 0:
		return 0 // disabled
	case c.StealAfter == 0:
		return time.Minute
	default:
		return c.StealAfter
	}
}

// newRouter builds the cluster router from the server options (nil in
// single-node mode).
func newRouter(opts Options, logf func(string, ...any)) (*cluster.Router, error) {
	if !opts.Cluster.enabled() {
		return nil, nil
	}
	return cluster.New(cluster.Config{
		Self:          opts.Cluster.Self,
		Peers:         opts.Cluster.Peers,
		ProbeInterval: opts.Cluster.ProbeInterval,
		Logf:          logf,
	})
}

// remoteItem is one request run on a peer through its batch API: a
// forwarded lifetime, awaited by its tracking job, or a population chip,
// awaited by its peer's fetcher and by the population worker that needs
// it. resolve publishes the item's validated bytes, or nil for "run it
// here", exactly once.
type remoteItem struct {
	req      request
	key      string
	client   string
	deadline time.Time     // zero: none
	queueTTL time.Duration // zero: none
	id       string        // the job ID of the peer that accepted it

	once sync.Once
	done chan struct{}
	data []byte
}

func newRemoteItem(req request, key, client string, deadline time.Time) *remoteItem {
	return &remoteItem{req: req, key: key, client: client, deadline: deadline, done: make(chan struct{})}
}

func (it *remoteItem) resolve(data []byte) {
	it.once.Do(func() {
		it.data = data
		close(it.done)
	})
}

// forward sends a lifetime submit to owner, the healthy remote peer that
// owns its key, as a one-item batch. handled=true carries the decision: a
// local tracking job, or the owner's BusyError passed through — for a
// 429/503 on the request and on the item alike. handled=false means the
// forward failed otherwise and the caller executes locally (content-
// addressed results make that always correct, only less cache-efficient).
func (s *Server) forward(sub submission, owner string) (JobStatus, bool, error) {
	var deadline time.Time
	if sub.opts.Deadline > 0 {
		deadline = time.Now().Add(sub.opts.Deadline)
	}
	it := newRemoteItem(sub.req, sub.key, sub.opts.Client, deadline)
	it.queueTTL = sub.opts.QueueTTL
	s.met.ForwardAttempts.Add(1)
	start := time.Now()
	results, err := s.submitRemote(s.baseCtx, owner, []*remoteItem{it})
	s.met.ForwardLatency.Observe(time.Since(start))
	if err == nil {
		err = results[0].Err(owner)
	}
	if err != nil {
		var be *cluster.BusyError
		if errors.As(err, &be) {
			// The owner is alive but refusing work: pass its backpressure
			// through verbatim rather than absorbing the work locally —
			// overload must stay visible to the client that caused it.
			s.met.ForwardBusy.Add(1)
			return JobStatus{}, true, be
		}
		s.met.ForwardFailures.Add(1)
		s.logf("service: forwarding %s to %s failed (%v); executing locally", sub.key[:12], owner, err)
		return JobStatus{}, false, nil
	}
	it.id = results[0].Job.ID

	s.mu.Lock()
	if j, ok := s.inflight[sub.key]; ok {
		// Raced with an identical submit while forwarding; the remote
		// submit coalesced on the owner too, so nothing is lost.
		s.met.Coalesced.Add(1)
		st := s.statusLocked(j, false)
		s.mu.Unlock()
		return st, true, nil
	}
	j := s.submitJobLocked(sub)
	j.remotePeer, j.remote = owner, it
	s.inflight[sub.key] = j
	s.met.JobsQueued.Add(1)
	// Journalled like any accepted job: after a crash the tracking job is
	// recovered WITHOUT its peer binding and simply runs locally.
	s.journalAcceptedLocked([]*Job{j})
	// Tracking jobs bypass the worker pool: they only poll the owner and
	// fetch bytes, so they must not occupy a simulation slot. One whose
	// owner fails goes back to the queue for a worker (requeueLocal).
	s.adm.track(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.adm.track(-1)
		s.runJob(j)
	}()
	st := s.statusLocked(j, false)
	s.mu.Unlock()
	s.met.Forwards.Add(1)
	return st, true, nil
}

// awaitForwarded awaits a tracking job's result on its owner. It returns
// the validated bytes, or nil when neither the owner nor the one re-route
// a peer-level failure earns delivered them.
func (s *Server) awaitForwarded(ctx context.Context, j *Job) []byte {
	s.reroute(ctx, j.remotePeer, s.await(ctx, j.remotePeer, []*remoteItem{j.remote}))
	j.remote.resolve(nil)
	return j.remote.data
}

// requeueLocal hands a tracking job whose owner failed back to the
// admission queue with its peer binding cleared, so a worker slot runs
// it: tracking goroutines never simulate. The job was admitted and
// journalled already, so the enqueue is forced, as journal recovery
// forces it. It reports false when ctx has ended: the job was cancelled
// meanwhile and stays with its caller.
func (s *Server) requeueLocal(ctx context.Context, j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ctx.Err() != nil {
		return false
	}
	j.state, j.started, j.cancelRun = JobQueued, time.Time{}, nil
	j.remotePeer, j.remote = "", nil
	s.met.JobsRunning.Add(-1)
	s.met.ForwardFallbackLocal.Add(1)
	s.adm.enqueue(j, true)
	s.logf("service: %s executing locally after remote failure", j.id)
	return true
}

// chipBatchLimit bounds one batch request to a peer (well under the
// peer's maxBatchItems so population fan-out can never be rejected for
// size).
const chipBatchLimit = 256

// submitRemote posts items to peer as one POST /v1/batch and returns the
// peer's per-item results. The items are one job's — a forwarded
// lifetime or a population's chips — so they share its config.
func (s *Server) submitRemote(ctx context.Context, peer string, items []*remoteItem) ([]cluster.BatchItemEnvelope, error) {
	cfg, err := json.Marshal(items[0].req.Config)
	if err != nil {
		return nil, err
	}
	batch := BatchRequest{Items: make([]BatchItem, len(items))}
	for i, it := range items {
		b := &batch.Items[i]
		*b = BatchItem{Kind: it.req.Kind, Config: cfg, Seed: it.req.Seed, Policy: it.req.Policy,
			Client: it.client, QueueTTLMS: it.queueTTL.Milliseconds()}
		if !it.deadline.IsZero() {
			// The peer reads a deadline ≤ 0 as none: one that has passed
			// goes out as 1 ms, which expires there at once.
			b.DeadlineMS = max(time.Until(it.deadline).Milliseconds(), 1)
		}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		return nil, err
	}
	env, err := s.router.SubmitBatch(ctx, peer, body, len(items))
	return env.Results, err
}

// dispatch submits items to peer, at most chipBatchLimit per request,
// and awaits each request's accepted jobs before sending the next. A
// rejected item resolves nil: a per-item 429 is backpressure, honoured
// by doing that work here. It returns the items a peer-level failure
// left unresolved. When ctx ends, no further request goes out, and the
// jobs a request in flight gets accepted are cancelled on the peer.
func (s *Server) dispatch(ctx context.Context, peer string, items []*remoteItem) []*remoteItem {
	for start := 0; start < len(items) && ctx.Err() == nil; start += chipBatchLimit {
		chunk := items[start:min(start+chipBatchLimit, len(items))]
		results, err := s.submitRemote(ctx, peer, chunk)
		if err != nil {
			s.logf("service: batch of %d item(s) to %s failed (%v)", len(chunk), peer, err)
			// The peer is failing; don't hammer it with the next chunk.
			return items[start:]
		}
		var accepted []*remoteItem
		for _, res := range results {
			it := chunk[res.Index]
			if !res.Accepted {
				it.resolve(nil)
				continue
			}
			// A peer's cache hit arrives done; its first poll fetches it.
			it.id = res.Job.ID
			accepted = append(accepted, it)
			if it.req.Kind == KindChip {
				s.met.ChipsForwarded.Add(1)
			}
		}
		if ctx.Err() != nil {
			// The reply came after the waiter left: nobody will await
			// these jobs (SubmitBatch kept the request alive for this).
			s.cancelRemote(peer, accepted)
			return nil
		}
		if failed := s.await(ctx, peer, accepted); len(failed) > 0 {
			return append(failed, items[start+len(chunk):]...)
		}
	}
	return nil
}

// await waits for the jobs peer accepted for items. It polls each until
// terminal: a done job's bytes are fetched and resolve its item once
// remoteResultValid accepts them, and any other end resolves the item
// nil, to run here. A poll or fetch error is a peer-level failure, and
// await returns the items still unresolved. When ctx ends first, every
// job still pending gets one best-effort DELETE on the peer.
func (s *Server) await(ctx context.Context, peer string, pending []*remoteItem) []*remoteItem {
	for len(pending) > 0 {
		var running []*remoteItem
		for i, it := range pending {
			terminal, err := s.settle(ctx, peer, it)
			if err != nil {
				rest := append(running, pending[i:]...)
				if ctx.Err() != nil {
					s.cancelRemote(peer, rest)
					return nil
				}
				s.logf("service: polling %d job(s) on %s failed (%v)", len(rest), peer, err)
				return rest
			}
			if !terminal {
				running = append(running, it)
			}
		}
		pending = running
		if len(pending) == 0 {
			break
		}
		select {
		case <-time.After(pollInterval):
		case <-ctx.Done():
			s.cancelRemote(peer, pending)
			return nil
		}
	}
	return nil
}

// settle polls one item's job on peer and, once it is terminal, resolves
// the item: with the job's result when it is done and its bytes pass
// remoteResultValid, else nil. An error is a peer-level failure.
func (s *Server) settle(ctx context.Context, peer string, it *remoteItem) (terminal bool, err error) {
	env, err := s.router.Job(ctx, peer, it.id)
	if err != nil || !env.Terminal() {
		return false, err
	}
	if env.State != "done" {
		// A deterministic failure will reproduce here; an environmental
		// one (the peer's disk, the peer draining) will not. Running it
		// here tells them apart.
		s.logf("service: %s job %s on %s ended %s (%s); running it here", it.req.Kind, it.id, peer, env.State, env.Error)
		it.resolve(nil)
		return true, nil
	}
	start := time.Now()
	data, err := s.router.Result(ctx, peer, it.id)
	if err != nil {
		return false, err
	}
	if !remoteResultValid(it.req, data) {
		s.logf("service: %s job %s from %s failed validation; running it here", it.req.Kind, it.id, peer)
		it.resolve(nil)
		return true, nil
	}
	s.met.RemoteFetch.Observe(time.Since(start))
	if it.req.Kind == KindChip {
		s.met.ChipsFetched.Add(1)
	}
	it.resolve(data)
	return true, nil
}

// reroute sends the items a failed peer left to their keys' next owners
// on the ring, grouped by owner, once: an item that fails again, or
// whose next owner is this node, stays unresolved and runs here.
func (s *Server) reroute(ctx context.Context, failed string, items []*remoteItem) {
	if len(items) == 0 || ctx.Err() != nil {
		return
	}
	skip := map[string]bool{failed: true}
	byPeer := make(map[string][]*remoteItem)
	for _, it := range items {
		if next, local := s.router.OwnerExcluding(it.key, skip); !local {
			byPeer[next] = append(byPeer[next], it)
		}
	}
	var wg sync.WaitGroup
	for peer, share := range byPeer {
		s.met.Reroutes.Add(1)
		s.logf("service: re-routing %d item(s) %s → %s", len(share), failed, peer)
		wg.Add(1)
		go func(peer string, share []*remoteItem) {
			defer wg.Done()
			s.dispatch(ctx, peer, share)
		}(peer, share)
	}
	wg.Wait()
}

// cancelRemote best-effort cancels jobs on peer that nobody waits for any
// more — the caller went away, or the population finished without them —
// so the peer stops burning epochs on them. One cluster.AbandonGrace
// deadline covers all of them, so a hung peer cannot hold the caller up
// for longer.
func (s *Server) cancelRemote(peer string, items []*remoteItem) {
	cctx, cancel := context.WithTimeout(context.WithoutCancel(s.baseCtx), cluster.AbandonGrace)
	defer cancel()
	for _, it := range items {
		if err := s.router.Cancel(cctx, peer, it.id); err != nil {
			s.logf("service: cancelling %d job(s) on %s: %v", len(items), peer, err)
			return
		}
	}
}

// remoteResultValid vets bytes fetched from another node before trusting
// them as req's result: they must decode as the right kind of payload
// for its seed and policy.
func remoteResultValid(req request, data []byte) bool {
	switch req.Kind {
	case KindChip:
		return hayat.ValidateChipJSON(data, req.Seed, req.Policy) == nil
	case KindLifetime:
		var peek struct {
			Policy   string `json:"policy"`
			ChipSeed int64  `json:"chip_seed"`
		}
		if jerr := json.Unmarshal(data, &peek); jerr != nil {
			return false
		}
		return peek.Policy == req.Policy && peek.ChipSeed == req.Seed
	default:
		return false
	}
}

// chipKey is the content-addressed key of one population chip as a
// standalone chip job — the unit of cluster fan-out.
func chipKey(popReq request, seed int64) (request, string) {
	req := request{Kind: KindChip, Config: popReq.Config, Policy: popReq.Policy, Seed: seed, Chips: 1}
	return req, req.key()
}

// clusterPopStore adapts cluster chip fan-out to hayat.ChipResultStore:
// remotely-owned seeds block in Load until their fetcher resolves them
// (or the steal backstop fires), locally-owned seeds fall through to the
// inner disk store. A Load miss makes the population worker simulate the
// chip locally — that IS the work-steal, and byte-identical results make
// it always safe.
type clusterPopStore struct {
	s          *Server
	ctx        context.Context
	inner      hayat.ChipResultStore // may be nil (no checkpoint dir)
	remote     map[int64]*remoteItem // immutable after construction
	stealAfter time.Duration
}

// Load serves a remote chip's fetched bytes. A miss on a remote chip is
// a steal, counted once here: its fetcher resolved it nil, the steal
// backstop fired, or the cluster.steal failpoint did.
func (st *clusterPopStore) Load(seed int64) ([]byte, bool) {
	it := st.remote[seed]
	if it == nil {
		return st.innerLoad(seed)
	}
	// A previous run (or a sibling worker's Save) may already have the
	// chip on local disk — cheaper than waiting for the network.
	if data, ok := st.innerLoad(seed); ok {
		return data, true
	}
	if faultinject.Hit(fpClusterSteal) == nil {
		var steal <-chan time.Time
		if st.stealAfter > 0 {
			tm := time.NewTimer(st.stealAfter)
			defer tm.Stop()
			steal = tm.C
		}
		select {
		case <-it.done:
			if it.data != nil {
				return it.data, true
			}
		case <-steal:
		case <-st.ctx.Done():
			return nil, false
		}
	}
	st.s.met.ChipsStolen.Add(1)
	return nil, false
}

func (st *clusterPopStore) innerLoad(seed int64) ([]byte, bool) {
	if st.inner == nil {
		return nil, false
	}
	return st.inner.Load(seed)
}

func (st *clusterPopStore) Save(seed int64, data []byte) error {
	if st.inner == nil {
		return nil
	}
	return st.inner.Save(seed, data)
}

// newClusterPopStore shards a population job's chips across the ring and
// starts one fetcher per remote peer. It returns (nil, nil) when every
// chip is local (no peers up, or the ring routed everything here).
// cleanup cancels and joins the fetchers, which cancels on its peer every
// chip job still pending; call it after the population run returns.
func (s *Server) newClusterPopStore(ctx context.Context, j *Job, inner hayat.ChipResultStore) (*clusterPopStore, func()) {
	reqs := make([]request, j.req.Chips)
	keys := make([]string, j.req.Chips)
	for i := range keys {
		reqs[i], keys[i] = chipKey(j.req, j.req.Seed+int64(i))
	}
	st := &clusterPopStore{
		s:          s,
		inner:      inner,
		remote:     make(map[int64]*remoteItem),
		stealAfter: s.opts.Cluster.stealAfter(),
	}
	work := make(map[string][]*remoteItem)
	for peer, idxs := range s.router.AssignKeys(keys) {
		if peer == s.router.Self() {
			continue
		}
		for _, i := range idxs {
			it := newRemoteItem(reqs[i], keys[i], j.client, j.deadline)
			work[peer] = append(work[peer], it)
			st.remote[reqs[i].Seed] = it
		}
	}
	if len(work) == 0 {
		return nil, nil
	}

	fctx, cancel := context.WithCancel(ctx)
	st.ctx = fctx
	var wg sync.WaitGroup
	for peer, share := range work {
		wg.Add(1)
		go func(peer string, share []*remoteItem) {
			defer wg.Done()
			// What a peer-level failure leaves is re-routed once; any chip
			// still unresolved then runs here. Chips are never lost, only
			// recomputed.
			s.reroute(fctx, peer, s.dispatch(fctx, peer, share))
			for _, it := range share {
				it.resolve(nil)
			}
		}(peer, share)
	}
	s.logf("service: %s fanned %d/%d chips out to %d peer(s)", j.id, len(st.remote), j.req.Chips, len(work))
	return st, func() {
		cancel()
		wg.Wait()
	}
}

// ReadyStatus is the body of GET /readyz (also what the cluster health
// prober consumes, see cluster.ProbeEnvelope).
type ReadyStatus struct {
	Ready    bool     `json:"ready"`
	Draining bool     `json:"draining"`
	Reasons  []string `json:"reasons,omitempty"`
}

// Readiness reports whether this node should receive traffic: the journal
// has been replayed and the worker pool is up (both done before New
// returns), the node is not draining, and — in cluster mode — the first
// peer health sweep has completed so the ring reflects reality. Liveness
// (GET /healthz) stays true throughout: a draining node is alive but not
// ready.
func (s *Server) Readiness() ReadyStatus {
	var reasons []string
	if !s.ready.Load() {
		reasons = append(reasons, "starting: journal replay or worker pool not finished")
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		reasons = append(reasons, "draining: shutting down, submit elsewhere")
	}
	if s.router != nil && !s.router.FirstSweepDone() {
		reasons = append(reasons, "cluster: first peer health sweep incomplete")
	}
	return ReadyStatus{Ready: len(reasons) == 0, Draining: draining, Reasons: reasons}
}
