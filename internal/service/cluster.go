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

// ClusterOptions wires a node into a hayatd cluster. Zero Peers means
// single-node mode: no ring, no prober, no forwarding.
type ClusterOptions struct {
	// Self is this node's own base URL as peers reach it
	// (e.g. "http://10.0.0.1:8080"); required when Peers is set.
	Self string
	// Peers are the other nodes' base URLs.
	Peers []string
	// ProbeInterval is the /readyz health-probe cadence (default 1s).
	ProbeInterval time.Duration
	// AttemptTimeout bounds each single peer request (default 10s).
	AttemptTimeout time.Duration
	// PollInterval is how often a forwarded job's status is polled on its
	// owner (default 100ms).
	PollInterval time.Duration
	// StealAfter is the slow-peer backstop for population fan-out: a chip
	// whose remote result has not arrived after this long is stolen back
	// and simulated locally (default 60s; negative disables).
	StealAfter time.Duration
	// FailThreshold consecutive failed probes evict a peer from the ring
	// (default 3); RecoverThreshold consecutive good probes restore it
	// (default 2).
	FailThreshold    int
	RecoverThreshold int
	// Vnodes is the virtual-node count per peer (default cluster.DefaultVnodes).
	Vnodes int
}

func (c ClusterOptions) enabled() bool { return len(c.Peers) > 0 }

func (c ClusterOptions) pollInterval() time.Duration {
	if c.PollInterval <= 0 {
		return 100 * time.Millisecond
	}
	return c.PollInterval
}

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
		Self:             opts.Cluster.Self,
		Peers:            opts.Cluster.Peers,
		Vnodes:           opts.Cluster.Vnodes,
		ProbeInterval:    opts.Cluster.ProbeInterval,
		FailThreshold:    opts.Cluster.FailThreshold,
		RecoverThreshold: opts.Cluster.RecoverThreshold,
		AttemptTimeout:   opts.Cluster.AttemptTimeout,
		Retry:            opts.Retry,
		BreakerThreshold: opts.BreakerThreshold,
		BreakerCooldown:  opts.BreakerCooldown,
		Logf:             logf,
	})
}

// forwardBody builds the submit body a forwarded lifetime job carries to
// its owner: the canonical config plus the admission metadata that should
// travel with the work (client identity, remaining deadline).
func (s *Server) forwardBody(req request, o SubmitOpts) ([]byte, error) {
	cfg, err := json.Marshal(req.Config)
	if err != nil {
		return nil, err
	}
	fwd := LifetimeRequest{
		Config: cfg,
		Seed:   req.Seed,
		Policy: req.Policy,
		Client: o.Client,
	}
	if o.Deadline > 0 {
		fwd.DeadlineMS = o.Deadline.Milliseconds()
	}
	if o.QueueTTL > 0 {
		fwd.QueueTTLMS = o.QueueTTL.Milliseconds()
	}
	return json.Marshal(fwd)
}

// forward sends a lifetime submit to owner, the healthy remote peer that
// owns its key. handled=true carries the decision: a local tracking job,
// or the owner's BusyError passed through. handled=false means the
// forward failed after retries and the caller executes locally (content-
// addressed results make that always correct, only less cache-efficient).
func (s *Server) forward(sub submission, owner string) (JobStatus, bool, error) {
	body, err := s.forwardBody(sub.req, sub.opts)
	if err != nil {
		return JobStatus{}, false, nil
	}
	s.met.ForwardAttempts.Add(1)
	start := time.Now()
	env, err := s.router.ForwardSubmit(s.baseCtx, owner, body)
	s.met.ForwardLatency.Observe(time.Since(start))
	if err != nil {
		var be *cluster.BusyError
		if errors.As(err, &be) {
			// The owner is alive and shedding load: pass its backpressure
			// through verbatim rather than absorbing the work locally —
			// overload must stay visible to the client that caused it.
			s.met.ForwardBusy.Add(1)
			return JobStatus{}, true, be
		}
		s.met.ForwardFailures.Add(1)
		s.logf("service: forwarding %s to %s failed (%v); executing locally", sub.key[:12], owner, err)
		return JobStatus{}, false, nil
	}

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
	j.remotePeer, j.remoteID = owner, env.ID
	s.inflight[sub.key] = j
	s.met.JobsQueued.Add(1)
	// Journalled like any accepted job: after a crash the tracking job is
	// recovered WITHOUT its peer binding and simply runs locally.
	s.journalAcceptedLocked([]*Job{j})
	// Tracking jobs bypass the worker pool: they only poll the owner and
	// fetch bytes, so they must not occupy a simulation slot.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runJob(j)
	}()
	st := s.statusLocked(j, false)
	s.mu.Unlock()
	s.met.Forwards.Add(1)
	return st, true, nil
}

// executeForwarded drives a forwarded job to completion on its owner:
// poll until terminal, fetch and validate the canonical bytes. On owner
// failure it re-routes ONCE to the key's next owner, then degrades to
// local execution (ok=false). The returned bytes are exactly what local
// execution would have produced — same key, same canonical encoding.
func (s *Server) executeForwarded(ctx context.Context, j *Job) (data []byte, err error, ok bool) {
	peer, id := j.remotePeer, j.remoteID
	rerouted := false
	poll := s.opts.Cluster.pollInterval()
	for {
		env, perr := s.router.PollJob(ctx, peer, id)
		if perr == nil {
			switch env.State {
			case "done":
				fetchStart := time.Now()
				bytes, ferr := s.router.FetchResult(ctx, peer, id)
				if ferr == nil && s.remoteResultValid(j, bytes) {
					s.met.RemoteFetch.Observe(time.Since(fetchStart))
					return bytes, nil, true
				}
				s.logf("service: %s result fetch from %s unusable (%v); re-routing", j.id, peer, ferr)
				// fall through to the re-route/degrade path below
			case "failed":
				// A deterministic simulation failure will reproduce locally;
				// an environmental one (peer's disk, peer draining) will
				// not. Local execution disambiguates — correctness first.
				s.logf("service: %s failed on %s (%s); executing locally", j.id, peer, env.Error)
				return nil, nil, false
			case "cancelled":
				s.logf("service: %s cancelled on %s; executing locally", j.id, peer)
				return nil, nil, false
			default: // queued / running
				select {
				case <-time.After(poll):
				case <-ctx.Done():
					s.cancelRemote(peer, id)
					return nil, ctx.Err(), true
				}
				continue
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			s.cancelRemote(peer, id)
			return nil, cerr, true
		}
		// The owner is unreachable (or served garbage). Re-route once to
		// the next owner on the ring, then give up and run locally.
		if !rerouted {
			next, local := s.router.OwnerExcluding(j.key, map[string]bool{peer: true})
			if !local && next != peer {
				if body, berr := s.forwardBody(j.req, SubmitOpts{Client: j.client, Deadline: time.Until(j.deadline)}); berr == nil {
					if env2, ferr := s.router.ForwardSubmit(ctx, next, body); ferr == nil {
						s.logf("service: %s re-routed %s → %s", j.id, peer, next)
						peer, id = next, env2.ID
						rerouted = true
						s.met.Reroutes.Add(1)
						continue
					}
				}
			}
		}
		return nil, nil, false
	}
}

// remoteResultValid vets bytes fetched from a peer before trusting them
// as this job's result: they must decode as the right kind of payload for
// the job's seed and policy.
func (s *Server) remoteResultValid(j *Job, data []byte) bool {
	switch j.req.Kind {
	case KindChip:
		return hayat.ValidateChipJSON(data, j.req.Seed, j.req.Policy) == nil
	case KindLifetime:
		var peek struct {
			Policy   string `json:"policy"`
			ChipSeed int64  `json:"chip_seed"`
		}
		if jerr := json.Unmarshal(data, &peek); jerr != nil {
			return false
		}
		return peek.Policy == j.req.Policy && peek.ChipSeed == j.req.Seed
	default:
		return false
	}
}

// cancelRemote best-effort cancels an orphaned forwarded job (the local
// caller is gone; the peer may as well stop burning epochs — though if it
// finishes anyway, the result only warms its cache).
func (s *Server) cancelRemote(peer, id string) {
	cctx, cancel := context.WithTimeout(s.baseCtx, 2*time.Second)
	defer cancel()
	if err := s.router.CancelJob(cctx, peer, id); err != nil {
		s.logf("service: cancelling forwarded job %s on %s: %v", id, peer, err)
	}
}

// chipKey is the content-addressed key of one population chip as a
// standalone chip job — the unit of cluster fan-out.
func chipKey(popReq request, seed int64) (request, string) {
	req := request{Kind: KindChip, Config: popReq.Config, Policy: popReq.Policy, Seed: seed, Chips: 1}
	return req, req.key()
}

// remoteChip is one chip owned by a remote peer: resolve publishes its
// bytes (or nil for "steal me") exactly once.
type remoteChip struct {
	once sync.Once
	done chan struct{}
	data []byte
}

func (rc *remoteChip) resolve(data []byte) {
	rc.once.Do(func() {
		rc.data = data
		close(rc.done)
	})
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
	remote     map[int64]*remoteChip // immutable after construction
	stealAfter time.Duration
}

func (st *clusterPopStore) Load(seed int64) ([]byte, bool) {
	rc := st.remote[seed]
	if rc == nil {
		return st.innerLoad(seed)
	}
	// A previous run (or a sibling worker's Save) may already have the
	// chip on local disk — cheaper than waiting for the network.
	if data, ok := st.innerLoad(seed); ok {
		return data, true
	}
	if ferr := faultinject.Hit(fpClusterSteal); ferr != nil {
		st.s.met.ChipsStolen.Add(1)
		return nil, false
	}
	var steal <-chan time.Time
	if st.stealAfter > 0 {
		tm := time.NewTimer(st.stealAfter)
		defer tm.Stop()
		steal = tm.C
	}
	select {
	case <-rc.done:
		if rc.data != nil {
			return rc.data, true
		}
		st.s.met.ChipsStolen.Add(1)
		return nil, false
	case <-st.ctx.Done():
		return nil, false
	case <-steal:
		st.s.met.ChipsStolen.Add(1)
		return nil, false
	}
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
// cleanup cancels and joins the fetchers; call it after the population
// run returns.
func (s *Server) newClusterPopStore(ctx context.Context, j *Job, inner hayat.ChipResultStore) (*clusterPopStore, func()) {
	chips := j.req.Chips
	keys := make([]string, chips)
	seeds := make([]int64, chips)
	for i := 0; i < chips; i++ {
		seeds[i] = j.req.Seed + int64(i)
		_, keys[i] = chipKey(j.req, seeds[i])
	}
	assignment := s.router.AssignKeys(keys)

	st := &clusterPopStore{
		s:          s,
		inner:      inner,
		remote:     make(map[int64]*remoteChip),
		stealAfter: s.opts.Cluster.stealAfter(),
	}
	type peerWork struct {
		peer  string
		seeds []int64
	}
	var work []peerWork
	for peer, idxs := range assignment {
		if peer == s.router.Self() {
			continue
		}
		pw := peerWork{peer: peer}
		for _, i := range idxs {
			pw.seeds = append(pw.seeds, seeds[i])
			st.remote[seeds[i]] = &remoteChip{done: make(chan struct{})}
		}
		work = append(work, pw)
	}
	if len(work) == 0 {
		return nil, nil
	}

	fctx, cancel := context.WithCancel(ctx)
	st.ctx = fctx
	var wg sync.WaitGroup
	for _, pw := range work {
		wg.Add(1)
		go func(pw peerWork) {
			defer wg.Done()
			s.fetchChips(fctx, j, st, pw.peer, pw.seeds, true)
		}(pw)
	}
	s.logf("service: %s fanned %d/%d chips out to %d peer(s)", j.id, len(st.remote), chips, len(work))
	return st, func() {
		cancel()
		wg.Wait()
	}
}

// chipBatchLimit bounds one forwarded chip batch (well under the peer's
// maxBatchItems so population fan-out can never be rejected for size).
const chipBatchLimit = 256

// fetchChips submits one peer's chip share through its batch API, polls
// the jobs to terminal, fetches and validates each chip's bytes, and
// resolves them into the store. Any failure path resolves the affected
// seeds: a per-item rejection steals that chip locally, a peer-level
// failure re-routes the remainder to their next owners (once), and
// whatever is left resolves nil so a population worker picks it up —
// chips are never lost, only recomputed.
func (s *Server) fetchChips(ctx context.Context, j *Job, st *clusterPopStore, peer string, seeds []int64, mayReroute bool) {
	unresolved := make(map[int64]bool, len(seeds))
	for _, seed := range seeds {
		unresolved[seed] = true
	}
	failed := []int64(nil) // seeds needing re-route after a peer failure
	defer func() {
		if mayReroute && len(failed) > 0 {
			s.rerouteChips(ctx, j, st, peer, failed)
			for _, seed := range failed {
				delete(unresolved, seed)
			}
		}
		for seed := range unresolved {
			st.remote[seed].resolve(nil) // steal: simulate locally
		}
	}()

	for start := 0; start < len(seeds); start += chipBatchLimit {
		chunk := seeds[start:min(start+chipBatchLimit, len(seeds))]
		pending, err := s.submitChipBatch(ctx, j, st, peer, chunk)
		if err != nil {
			s.logf("service: %s chip batch to %s failed (%v)", j.id, peer, err)
			failed = append(failed, chunk...)
			// The peer is failing; don't hammer it with the next chunk.
			failed = append(failed, seeds[start+len(chunk):]...)
			return
		}
		if perr := s.pollChips(ctx, j, st, peer, pending, unresolved); perr != nil {
			s.logf("service: %s polling chips on %s failed (%v)", j.id, peer, perr)
			for _, seed := range pending {
				if unresolved[seed] {
					failed = append(failed, seed)
				}
			}
			failed = append(failed, seeds[start+len(chunk):]...)
			return
		}
	}
}

// submitChipBatch forwards one chunk of chip jobs to peer and returns the
// accepted jobID → seed map. Per-item rejections (the peer shedding load)
// resolve immediately to local steals — per-chip 429s are backpressure,
// and the steal honours it by taking the work back.
func (s *Server) submitChipBatch(ctx context.Context, j *Job, st *clusterPopStore, peer string, chunk []int64) (map[string]int64, error) {
	cfg, err := json.Marshal(j.req.Config)
	if err != nil {
		return nil, err
	}
	items := make([]BatchItem, len(chunk))
	for i, seed := range chunk {
		items[i] = BatchItem{Kind: KindChip, Config: cfg, Seed: seed, Policy: j.req.Policy, Client: j.client}
		if !j.deadline.IsZero() {
			items[i].DeadlineMS = time.Until(j.deadline).Milliseconds()
		}
	}
	body, err := json.Marshal(BatchRequest{Items: items})
	if err != nil {
		return nil, err
	}
	env, err := s.router.ForwardBatch(ctx, peer, body, len(items))
	if err != nil {
		return nil, err
	}
	pending := make(map[string]int64)
	for _, res := range env.Results {
		seed := chunk[res.Index]
		if res.Accepted && res.Job != nil {
			// A peer's cache hit arrives done; its first poll fetches it.
			s.met.ChipsForwarded.Add(1)
			pending[res.Job.ID] = seed
			continue
		}
		// Rejected (429/503/400): steal this chip locally, now.
		st.remote[seed].resolve(nil)
		s.met.ChipsStolen.Add(1)
	}
	return pending, nil
}

// pollChips drives forwarded chip jobs to terminal and resolves their
// bytes. A transport-level polling failure aborts (the caller re-routes
// what is left); a per-job failure just steals that chip.
func (s *Server) pollChips(ctx context.Context, j *Job, st *clusterPopStore, peer string, pending map[string]int64, unresolved map[int64]bool) error {
	poll := s.opts.Cluster.pollInterval()
	for len(pending) > 0 {
		for id, seed := range pending {
			env, err := s.router.PollJob(ctx, peer, id)
			if err != nil {
				return err
			}
			if !env.Terminal() {
				continue
			}
			delete(pending, id)
			if env.State != "done" {
				st.remote[seed].resolve(nil)
				s.met.ChipsStolen.Add(1)
				delete(unresolved, seed)
				continue
			}
			fetchStart := time.Now()
			data, ferr := s.router.FetchResult(ctx, peer, id)
			if ferr != nil {
				return ferr
			}
			if verr := hayat.ValidateChipJSON(data, seed, j.req.Policy); verr != nil {
				s.logf("service: %s chip %d from %s invalid (%v); stealing", j.id, seed, peer, verr)
				st.remote[seed].resolve(nil)
				s.met.ChipsStolen.Add(1)
				delete(unresolved, seed)
				continue
			}
			s.met.RemoteFetch.Observe(time.Since(fetchStart))
			s.met.ChipsFetched.Add(1)
			st.remote[seed].resolve(data)
			delete(unresolved, seed)
		}
		if len(pending) == 0 {
			return nil
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// rerouteChips re-routes a failed peer's unfinished chips to their next
// owners on the ring (one hop, no further re-routing) and steals locally
// whatever lands back on this node.
func (s *Server) rerouteChips(ctx context.Context, j *Job, st *clusterPopStore, failedPeer string, seeds []int64) {
	skip := map[string]bool{failedPeer: true}
	byPeer := make(map[string][]int64)
	stolen := 0
	for _, seed := range seeds {
		_, key := chipKey(j.req, seed)
		next, local := s.router.OwnerExcluding(key, skip)
		if local || next == failedPeer {
			st.remote[seed].resolve(nil)
			stolen++
			continue
		}
		byPeer[next] = append(byPeer[next], seed)
	}
	if stolen > 0 {
		s.met.ChipsStolen.Add(int64(stolen))
	}
	var wg sync.WaitGroup
	for peer, share := range byPeer {
		s.met.Reroutes.Add(1)
		s.logf("service: %s re-routing %d chip(s) %s → %s", j.id, len(share), failedPeer, peer)
		wg.Add(1)
		go func(peer string, share []int64) {
			defer wg.Done()
			s.fetchChips(ctx, j, st, peer, share, false)
		}(peer, share)
	}
	wg.Wait()
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
// returns), the node is not draining, the result store has warmed up
// (its local entries CRC-validated, corrupt ones quarantined), and — in
// cluster mode — the first peer health sweep has completed so the ring
// reflects reality. Liveness
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
	if !s.store.Ready() {
		reasons = append(reasons, "store: warm-up (local segment CRC validation) incomplete")
	}
	return ReadyStatus{Ready: len(reasons) == 0, Draining: draining, Reasons: reasons}
}
