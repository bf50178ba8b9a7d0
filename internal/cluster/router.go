package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/kit-ces/hayat/internal/circuit"
)

// Config wires a Router. Self and Peers are base URLs
// ("http://host:port"); Self identifies this node on the ring so Owner
// can answer "local".
type Config struct {
	Self  string
	Peers []string // remote peers (Self is added to the ring automatically)

	Vnodes int // virtual nodes per peer (default DefaultVnodes)

	// Health probing: every ProbeInterval (default 1s) each remote peer's
	// /readyz is checked. FailThreshold consecutive bad probes (default 3)
	// evict the peer from the ring; RecoverThreshold consecutive good
	// probes (default 2) restore it.
	ProbeInterval    time.Duration
	FailThreshold    int
	RecoverThreshold int

	// AttemptTimeout bounds every single peer request (default 10s).
	// Retry is the cross-attempt backoff schedule, the one hayatd uses
	// for its own retries.
	AttemptTimeout time.Duration
	Retry          circuit.Backoff

	// Per-peer circuit breakers (same defaults as the service's disk
	// breakers: 5 consecutive failures, 5s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	JitterSeed int64
	Logf       func(format string, args ...any)
}

// PeerSnapshot is one remote peer's externally visible health, served on
// GET /metrics under cluster.peers.
type PeerSnapshot struct {
	State               string           `json:"state"` // "up" | "down"
	ConsecutiveFailures int              `json:"consecutive_failures"`
	Probes              int64            `json:"probes"`
	ProbeFailures       int64            `json:"probe_failures"`
	Evictions           int64            `json:"evictions"`
	Recoveries          int64            `json:"recoveries"`
	Breaker             circuit.Snapshot `json:"breaker"`
}

type peerState struct {
	up         bool
	consecFail int
	consecOK   int
	probes     int64
	failures   int64
	evictions  int64
	recoveries int64
	brk        *circuit.Breaker
}

// Router owns the ring, the peer client, per-peer breakers, and the
// health prober: the one object the service layer talks to for all
// cluster mechanics.
type Router struct {
	cfg    Config
	ring   *Ring
	client *Client
	jitter *circuit.Jitter
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
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.RecoverThreshold <= 0 {
		cfg.RecoverThreshold = 2
	}
	cfg.Retry = cfg.Retry.WithDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &Router{
		cfg:        cfg,
		ring:       NewRing(append([]string{cfg.Self}, remote...), cfg.Vnodes),
		client:     NewClient(cfg.AttemptTimeout),
		jitter:     circuit.NewJitter(cfg.JitterSeed),
		logf:       logf,
		peers:      make(map[string]*peerState, len(remote)),
		firstSweep: make(chan struct{}),
	}
	for _, p := range remote {
		r.peers[p] = &peerState{
			up:  true, // optimistic: forwards try immediately, probes correct within FailThreshold sweeps
			brk: circuit.New("peer:"+p, cfg.BreakerThreshold, cfg.BreakerCooldown),
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
	out, _ := r.ring.Assign(keys, 0)
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
			Breaker:             st.brk.Stats(),
		}
	}
	return out
}

// breaker returns peer's circuit breaker (never nil; unknown peers get a
// throwaway so calls still work in tests).
func (r *Router) breaker(peer string) *circuit.Breaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.peers[peer]; ok {
		return st.brk
	}
	return circuit.New("peer:"+peer, r.cfg.BreakerThreshold, r.cfg.BreakerCooldown)
}

// withRetry runs one logical peer operation through the peer's breaker
// and the backoff schedule. BusyError counts as a SUCCESS for the breaker
// (a peer saying 429 is alive and talking) and is returned immediately so
// the caller can pass the origin's Retry-After through.
func (r *Router) withRetry(ctx context.Context, peer string, fn func(context.Context) error) error {
	brk := r.breaker(peer)
	pol := r.cfg.Retry
	var err error
	for attempt := 1; ; attempt++ {
		if !brk.Allow() {
			return fmt.Errorf("cluster: peer %s: %w", peer, circuit.ErrOpen)
		}
		err = fn(ctx)
		var be *BusyError
		if errors.As(err, &be) {
			brk.Report(true)
			return err
		}
		brk.Report(err == nil)
		if err == nil || !retryable(err) || attempt >= pol.MaxAttempts {
			return err
		}
		select {
		case <-time.After(pol.Delay(attempt, r.jitter)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// ForwardSubmit forwards a single-job submit body to peer, with retries
// and breaker gating.
func (r *Router) ForwardSubmit(ctx context.Context, peer string, body []byte) (JobEnvelope, error) {
	var env JobEnvelope
	err := r.withRetry(ctx, peer, func(ctx context.Context) error {
		var e error
		env, e = r.client.Submit(ctx, peer, body)
		return e
	})
	return env, err
}

// ForwardBatch forwards a pre-encoded batch body to peer.
func (r *Router) ForwardBatch(ctx context.Context, peer string, body []byte, items int) (BatchEnvelope, error) {
	var env BatchEnvelope
	err := r.withRetry(ctx, peer, func(ctx context.Context) error {
		var e error
		env, e = r.client.SubmitBatch(ctx, peer, body, items)
		return e
	})
	return env, err
}

// PollJob fetches a forwarded job's status from peer.
func (r *Router) PollJob(ctx context.Context, peer, id string) (JobEnvelope, error) {
	var env JobEnvelope
	err := r.withRetry(ctx, peer, func(ctx context.Context) error {
		var e error
		env, e = r.client.Job(ctx, peer, id)
		return e
	})
	return env, err
}

// FetchResult fetches a done job's canonical bytes from peer.
func (r *Router) FetchResult(ctx context.Context, peer, id string) ([]byte, error) {
	var data []byte
	err := r.withRetry(ctx, peer, func(ctx context.Context) error {
		var e error
		data, e = r.client.Result(ctx, peer, id)
		return e
	})
	return data, err
}

// CancelJob best-effort cancels a forwarded job (single attempt — it is
// advisory; an orphaned remote job only warms the peer's cache).
func (r *Router) CancelJob(ctx context.Context, peer, id string) error {
	return r.client.Cancel(ctx, peer, id)
}

// ReplicaSet returns key's replica set: the n distinct ring members
// clockwise from key's position, owner first, ignoring health (see
// Ring.Successors). Together with StoreGet/StorePut/StoreStat/PeerUp
// this makes the Router the store package's Transport.
func (r *Router) ReplicaSet(key string, n int) []string {
	return r.ring.Successors(key, n)
}

// StoreGet fetches key's replica payload from peer with retries and
// breaker gating. ok=false with a nil error is a clean miss.
func (r *Router) StoreGet(ctx context.Context, peer, key string) ([]byte, bool, error) {
	var (
		data []byte
		ok   bool
	)
	err := r.withRetry(ctx, peer, func(ctx context.Context) error {
		var e error
		data, ok, e = r.client.StoreGet(ctx, peer, key)
		return e
	})
	return data, ok, err
}

// StorePut pushes key's canonical bytes to peer with retries and
// breaker gating.
func (r *Router) StorePut(ctx context.Context, peer, key string, data []byte) error {
	return r.withRetry(ctx, peer, func(ctx context.Context) error {
		return r.client.StorePut(ctx, peer, key, data)
	})
}

// StoreStat fetches peer's leaf hash for key with retries and breaker
// gating.
func (r *Router) StoreStat(ctx context.Context, peer, key string) (string, bool, error) {
	var (
		leaf string
		ok   bool
	)
	err := r.withRetry(ctx, peer, func(ctx context.Context) error {
		var e error
		leaf, ok, e = r.client.StoreStat(ctx, peer, key)
		return e
	})
	return leaf, ok, err
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
			env, err := r.client.Probe(ctx, peer)
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
		if !st.up && st.consecOK >= r.cfg.RecoverThreshold {
			st.up = true
			st.recoveries++
			flip = "up"
		}
	} else {
		st.failures++
		st.consecFail++
		st.consecOK = 0
		if st.up && st.consecFail >= r.cfg.FailThreshold {
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
