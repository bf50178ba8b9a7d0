package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config wires a Router. Self and Peers are base URLs
// ("http://host:port"); Self identifies this node on the ring so Owner
// can answer "local".
type Config struct {
	Self  string
	Peers []string // remote peers (Self is added to the ring automatically)

	// ProbeInterval (default 1s) is how often each remote peer's /readyz
	// is checked.
	ProbeInterval time.Duration

	Logf func(format string, args ...any)
}

// Peer-client timing and probe thresholds. Every peer request attempt
// is bounded by attemptTimeout; retries across attempts follow
// peerRetry. failThreshold consecutive bad probes evict a peer from
// the ring; recoverThreshold consecutive good probes restore it.
const (
	attemptTimeout   = 10 * time.Second
	failThreshold    = 3
	recoverThreshold = 2
)

// AbandonGrace bounds what a caller still spends on a peer after it has
// stopped waiting: the reply to a batch already in flight (SubmitBatch),
// and the cancels of the jobs nobody awaits any more.
const AbandonGrace = 2 * time.Second

// PeerSnapshot is one remote peer's externally visible health, served on
// GET /metrics under cluster.peers.
type PeerSnapshot struct {
	State               string `json:"state"` // "up" | "down"
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Probes              int64  `json:"probes"`
	ProbeFailures       int64  `json:"probe_failures"`
	Evictions           int64  `json:"evictions"`
	Recoveries          int64  `json:"recoveries"`
}

type peerState struct {
	up         bool
	consecFail int
	consecOK   int
	probes     int64
	failures   int64
	evictions  int64
	recoveries int64
}

// Router owns the ring, the peer HTTP client and the health prober: the
// one object the service layer talks to for all cluster mechanics. It
// makes every peer request itself (client.go).
type Router struct {
	cfg    Config
	ring   *Ring
	hc     *http.Client
	jitter *jitter
	logf   func(string, ...any)

	mu    sync.Mutex
	peers map[string]*peerState // remote peers only

	sweepOnce  sync.Once
	firstSweep chan struct{}

	startOnce sync.Once
	cancel    context.CancelFunc
	wg        sync.WaitGroup
}

// New validates cfg and builds the Router. The prober does not run until
// Start.
func New(cfg Config) (*Router, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Self is required")
	}
	var remote []string
	seen := map[string]bool{cfg.Self: true}
	for _, p := range cfg.Peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" || seen[p] {
			continue
		}
		if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
			return nil, fmt.Errorf("cluster: peer %q: need an http(s) base URL", p)
		}
		seen[p] = true
		remote = append(remote, p)
	}
	if len(remote) == 0 {
		return nil, errors.New("cluster: at least one remote peer is required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &Router{
		cfg:  cfg,
		ring: NewRing(append([]string{cfg.Self}, remote...)),
		// A dedicated client (never http.DefaultClient): the overall
		// Timeout is a hard backstop above the per-attempt context in
		// case a peer streams a response forever.
		hc:         &http.Client{Timeout: 5 * time.Minute},
		jitter:     newJitter(1), // fixed seed: retry schedules repeat run to run
		logf:       logf,
		peers:      make(map[string]*peerState, len(remote)),
		firstSweep: make(chan struct{}),
	}
	for _, p := range remote {
		r.peers[p] = &peerState{
			up: true, // optimistic: forwards try immediately, probes correct within failThreshold sweeps
		}
	}
	return r, nil
}

// Self returns this node's own base URL.
func (r *Router) Self() string { return r.cfg.Self }

// Peers returns the remote peer URLs, sorted.
func (r *Router) Peers() []string {
	out := make([]string, 0, len(r.peers))
	for p := range r.peers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Start launches the health prober. ctx cancellation (or Close) stops it.
func (r *Router) Start(ctx context.Context) {
	r.startOnce.Do(func() {
		ctx, r.cancel = context.WithCancel(ctx)
		r.wg.Add(1)
		go r.probeLoop(ctx)
	})
}

// Close stops the prober and waits for it.
func (r *Router) Close() {
	if r.cancel != nil {
		r.cancel()
	}
	r.wg.Wait()
}

// FirstSweepDone reports whether the prober has completed at least one
// full probe sweep — the "peer quorum is known" signal /readyz waits for
// in cluster mode.
func (r *Router) FirstSweepDone() bool {
	select {
	case <-r.firstSweep:
		return true
	default:
		return false
	}
}

// Owner resolves key's owner. local is true when this node owns the key
// (or no peer is up — with the whole ring down every key is served
// locally: graceful degradation, not an error).
func (r *Router) Owner(key string) (peer string, local bool) {
	p, ok := r.ring.Owner(key)
	if !ok || p == r.cfg.Self {
		return r.cfg.Self, true
	}
	return p, false
}

// OwnerExcluding is Owner with mid-flight exclusions (peers that just
// failed a forward, ahead of prober eviction).
func (r *Router) OwnerExcluding(key string, skip map[string]bool) (peer string, local bool) {
	p, ok := r.ring.OwnerExcluding(key, skip)
	if !ok || p == r.cfg.Self {
		return r.cfg.Self, true
	}
	return p, false
}

// AssignKeys shards keys across every up node (self included) with
// bounded load; see Ring.Assign.
func (r *Router) AssignKeys(keys []string) map[string][]int {
	out, _ := r.ring.Assign(keys)
	return out
}

// PeerUp reports the prober's current view of a peer. Unknown peers
// (including self) report true.
func (r *Router) PeerUp(peer string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.peers[peer]; ok {
		return st.up
	}
	return true
}

// Snapshot returns per-peer health for /metrics.
func (r *Router) Snapshot() map[string]PeerSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]PeerSnapshot, len(r.peers))
	for p, st := range r.peers {
		state := "up"
		if !st.up {
			state = "down"
		}
		out[p] = PeerSnapshot{
			State:               state,
			ConsecutiveFailures: st.consecFail,
			Probes:              st.probes,
			ProbeFailures:       st.failures,
			Evictions:           st.evictions,
			Recoveries:          st.recoveries,
		}
	}
	return out
}

// withRetry runs one logical peer request — method on peer's path, with
// body — through the backoff schedule, handing each attempt's reply to
// handle, whose error decides whether to retry.
// Attempts run under actx and the backoff between them under ctx, so an
// actx detached from ctx keeps the attempt in flight after ctx ends, but
// no retry follows it.
// A BusyError is returned at once so the caller can pass the origin's
// Retry-After through. Nothing gates a request on the peer's health:
// the prober's eviction keeps new work off a down peer, and a draining
// peer, evicted too, still serves the jobs it accepted.
func (r *Router) withRetry(ctx, actx context.Context, peer, method, path string, body []byte, maxResp int64, handle func(reply) error) error {
	return retry(ctx, peerRetry, r.jitter, retryable, func() error {
		rp, err := r.do(actx, fpForward, method, peer, path, body, maxResp)
		if err != nil {
			return err
		}
		return handle(rp)
	})
}

// ReplicaSet returns key's replica set: the n distinct ring members
// clockwise from key's position, owner first, ignoring health (see
// Ring.Successors). Together with StoreGet/StorePut/StoreStat/PeerUp
// (client.go) this makes the Router the store package's Transport.
func (r *Router) ReplicaSet(key string, n int) []string {
	return r.ring.Successors(key, n)
}

// probeLoop sweeps every remote peer's /readyz until ctx is cancelled.
func (r *Router) probeLoop(ctx context.Context) {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		r.sweep(ctx)
		r.sweepOnce.Do(func() { close(r.firstSweep) })
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return
		}
	}
}

// sweep probes all peers concurrently (one slow peer must not delay
// detection of a dead one).
func (r *Router) sweep(ctx context.Context) {
	var wg sync.WaitGroup
	for _, peer := range r.Peers() {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			env, err := r.probe(ctx, peer)
			r.record(peer, err == nil && env.Ready)
		}(peer)
	}
	wg.Wait()
}

// record feeds one probe outcome into the peer's health state machine and
// drives ring eviction/recovery at the thresholds.
func (r *Router) record(peer string, ok bool) {
	r.mu.Lock()
	st := r.peers[peer]
	if st == nil {
		r.mu.Unlock()
		return
	}
	st.probes++
	var flip string
	if ok {
		st.consecOK++
		st.consecFail = 0
		if !st.up && st.consecOK >= recoverThreshold {
			st.up = true
			st.recoveries++
			flip = "up"
		}
	} else {
		st.failures++
		st.consecFail++
		st.consecOK = 0
		if st.up && st.consecFail >= failThreshold {
			st.up = false
			st.evictions++
			flip = "down"
		}
	}
	r.mu.Unlock()
	if flip != "" {
		r.ring.SetEnabled(peer, flip == "up")
		r.logf("cluster: peer %s is %s; ring now has %d/%d nodes", peer, flip,
			r.ring.EnabledCount(), len(r.peers)+1)
	}
}
