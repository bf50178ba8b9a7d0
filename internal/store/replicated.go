package store

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/kit-ces/hayat/internal/faultinject"
)

// Default remote-operation timing. FetchTimeout bounds one whole hedged
// read or replica push; HedgeDelay is how long the first replica gets
// to answer alone before the next one joins the race.
const (
	DefaultFetchTimeout = 5 * time.Second
	DefaultHedgeDelay   = 50 * time.Millisecond
)

// Obs receives store events; nil fields are ignored. The service wires
// these to /metrics counters.
type Obs struct {
	HedgedWin     func()              // a hedged replica fetch supplied the served bytes
	HedgedLoss    func()              // a launched hedged attempt that did not (failed, missed, or cancelled)
	ReadRepair    func()              // a tier or peer was repaired from a verifying copy
	ReplicaPut    func()              // a terminal-result copy pushed to a peer
	ReplicaPutErr func()              // a replica push that failed (debt recorded)
	Sweep         func(time.Duration) // one anti-entropy sweep completed
}

func fire(f func()) {
	if f != nil {
		f()
	}
}

func fireN(f func(), n int) {
	if f == nil {
		return
	}
	for i := 0; i < n; i++ {
		f()
	}
}

// Options wires a Replicated store into a cluster. The zero value is a
// valid single-node configuration: local tiers only, no replication,
// warm-up still CRC-validates the disk tier.
type Options struct {
	// Self is this node's ring identity (its peer URL).
	Self string
	// Copies is the total number of nodes that should hold every key,
	// owner included (R+1). Values below 1 behave as 1 (owner only).
	Copies int
	// ReplicaSet returns the n distinct ring members clockwise from
	// key's position, owner first, ignoring health — replica sets must
	// stay stable while peers flap, or debt could never be paid to the
	// peer that owes it.
	ReplicaSet func(key string, n int) []string
	// Transport moves envelopes between peers; nil disables every
	// remote path (replication, hedged reads, sweep repair).
	Transport Transport
	// Verify checks bytes against the Merkle audit before they are
	// served or pushed; nil trusts CRC/envelope checks alone.
	Verify VerifyFn
	// Obs receives store events.
	Obs Obs
	// FetchTimeout and HedgeDelay override the defaults above.
	FetchTimeout time.Duration
	HedgeDelay   time.Duration
	// Logf receives operational notices (nil: discarded).
	Logf func(format string, args ...any)
}

// Replicated composes the memory and disk tiers with remote replicas
// into the self-healing store the service mounts: local reads verify
// before serving, terminal writes fan out to the key's replica set,
// misses hedge-fetch from replicas, and a background sweep detects
// under-replication and divergence and repairs both. Unreachable peers
// accrue replication debt instead of blocking writes; the sweep pays it
// down when they return.
type Replicated struct {
	mem  *Memory
	disk *Disk // nil: no durable tier

	o      Options
	warmed atomic.Bool

	mu   sync.Mutex
	debt map[string]map[string]bool // key → peers owed a copy

	startOnce sync.Once
	cancel    context.CancelFunc
	done      chan struct{}
}

// Compile-time interface checks for every tier.
var (
	_ Store = (*Memory)(nil)
	_ Store = (*Disk)(nil)
	_ Store = (*Remote)(nil)
	_ Store = (*Replicated)(nil)
)

// NewReplicated composes the local tiers; Configure attaches the
// cluster before Start. A nil mem gets a fresh memory tier, bounded to
// MemoryCapacity entries when disk is non-nil: the disk tier then holds
// every result, so memory keeps only the most recently used ones. Without
// a disk tier, memory is the only local copy and stays unbounded.
func NewReplicated(mem *Memory, disk *Disk) *Replicated {
	if mem == nil {
		limit := 0
		if disk != nil {
			limit = MemoryCapacity
		}
		mem = newMemory(limit)
	}
	return &Replicated{mem: mem, disk: disk, debt: make(map[string]map[string]bool)}
}

// Configure sets the cluster wiring. Call before Start; not safe
// concurrently with store use. The Verify hook is pushed down into the
// disk tier so every durable read checks the audit before serving.
func (r *Replicated) Configure(o Options) {
	r.o = o
	if r.disk != nil {
		r.disk.Verify = o.Verify
	}
}

// Get implements Store: local tiers first, then a hedged replica fetch.
func (r *Replicated) Get(ctx context.Context, key string) ([]byte, bool) {
	if data, ok := r.GetLocal(key); ok {
		return data, true
	}
	return r.FetchReplica(ctx, key)
}

// Put implements Store: durable local write, then replica fan-out.
func (r *Replicated) Put(ctx context.Context, key string, data []byte) error {
	err := r.PutLocal(key, data)
	r.Replicate(ctx, key, data)
	return err
}

// GetLocal reads the local tiers only (safe under the service mutex —
// never blocks on a peer), promoting disk hits into memory.
func (r *Replicated) GetLocal(key string) ([]byte, bool) {
	if data, ok := r.mem.get(key); ok {
		return data, true
	}
	data, ok := r.disk.get(key)
	if ok {
		r.mem.put(key, data)
	}
	return data, ok
}

// MemoryLen reports how many results the memory tier holds.
func (r *Replicated) MemoryLen() int { return r.mem.len() }

// PutLocal writes the local tiers only: memory always succeeds; a disk
// failure is returned so the caller can log it (and keep the bytes
// itself), but they stay servable from memory until a bounded tier
// evicts them.
func (r *Replicated) PutLocal(key string, data []byte) error {
	r.mem.put(key, data)
	return r.disk.put(key, data)
}

// Keys implements Store: the union of the local tiers, sorted.
func (r *Replicated) Keys() []string {
	seen := make(map[string]bool)
	keys := r.mem.Keys()
	for _, k := range keys {
		seen[k] = true
	}
	for _, k := range r.disk.Keys() {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Quarantine drops key from memory and moves its disk entry aside —
// used when a local copy turns out to diverge from the audit.
func (r *Replicated) Quarantine(key string) {
	r.mem.drop(key)
	r.disk.Quarantine(key)
}

// FetchReplica is the hedged read: it races GETs against the key's
// healthy replicas, starting them HedgeDelay apart, serves the first
// verifying answer, and cancels the losers' in-flight requests on
// return. A fetched copy read-repairs the local tiers.
func (r *Replicated) FetchReplica(ctx context.Context, key string) ([]byte, bool) {
	if r.o.Transport == nil || r.o.ReplicaSet == nil || !ValidKey(key) {
		return nil, false
	}
	var peers []string
	for _, p := range r.otherReplicas(key) {
		if r.o.Transport.PeerUp(p) {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return nil, false
	}
	fctx, cancel := context.WithTimeout(ctx, r.fetchTimeout())
	defer cancel() // losers still in flight are cancelled here

	results := make(chan []byte, len(peers)) // buffered: losers never block after we return
	launched := 0
	launch := func() {
		peer := peers[launched]
		launched++
		go func() {
			rem := &Remote{Peer: peer, T: r.o.Transport}
			data, ok, err := rem.fetch(fctx, key)
			if err != nil || !ok {
				results <- nil
				return
			}
			if r.o.Verify != nil && r.o.Verify(key, data) != nil {
				results <- nil // divergent from our audit: never serve it
				return
			}
			results <- data
		}()
	}
	launch()
	hedge := time.NewTimer(r.hedgeDelay())
	defer hedge.Stop()
	answered := 0
	for {
		select {
		case data := <-results:
			answered++
			if data != nil {
				fire(r.o.Obs.HedgedWin)
				fireN(r.o.Obs.HedgedLoss, launched-1)
				r.readRepairLocal(key, data)
				return data, true
			}
			if answered == launched && launched == len(peers) {
				fireN(r.o.Obs.HedgedLoss, launched)
				return nil, false
			}
			if launched < len(peers) {
				launch() // a failure frees the hedge early
			}
		case <-hedge.C:
			if launched < len(peers) {
				launch()
				hedge.Reset(r.hedgeDelay())
			}
		case <-fctx.Done():
			fireN(r.o.Obs.HedgedLoss, launched)
			return nil, false
		}
	}
}

// Replicate pushes key's canonical bytes to every other member of its
// replica set. Down peers and failed pushes accrue debt — the write
// degrades to local-only and the sweep pays the debt later — so a sick
// cluster slows replication, never job completion.
func (r *Replicated) Replicate(ctx context.Context, key string, data []byte) {
	if r.o.Transport == nil || r.o.ReplicaSet == nil || !ValidKey(key) {
		return
	}
	for _, peer := range r.otherReplicas(key) {
		if !r.o.Transport.PeerUp(peer) {
			r.addDebt(key, peer)
			continue
		}
		if err := r.pushCopy(ctx, peer, key, data); err != nil {
			r.addDebt(key, peer)
			fire(r.o.Obs.ReplicaPutErr)
			r.logf("store: replicate %s to %s: %v", short(key), peer, err)
			continue
		}
		r.clearDebt(key, peer)
		fire(r.o.Obs.ReplicaPut)
	}
}

// Debt returns the number of (key, peer) copies currently owed — the
// replication-debt gauge on /metrics. Zero means fully replicated.
func (r *Replicated) Debt() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, peers := range r.debt {
		n += len(peers)
	}
	return n
}

func (r *Replicated) addDebt(key, peer string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.debt[key]
	if m == nil {
		m = make(map[string]bool)
		r.debt[key] = m
	}
	m[peer] = true
}

func (r *Replicated) clearDebt(key, peer string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.debt[key]; m != nil {
		delete(m, peer)
		if len(m) == 0 {
			delete(r.debt, key)
		}
	}
}

// pushCopy sends one bounded replica PUT.
func (r *Replicated) pushCopy(ctx context.Context, peer, key string, data []byte) error {
	cctx, cancel := context.WithTimeout(ctx, r.fetchTimeout())
	defer cancel()
	rem := &Remote{Peer: peer, T: r.o.Transport}
	return rem.Put(cctx, key, data)
}

// statPeer asks one peer for its leaf hash of key.
func (r *Replicated) statPeer(ctx context.Context, peer, key string) (string, bool, error) {
	if err := faultinject.Hit(FPReadReplica); err != nil {
		return "", false, err
	}
	cctx, cancel := context.WithTimeout(ctx, r.fetchTimeout())
	defer cancel()
	return r.o.Transport.StoreStat(cctx, peer, key)
}

func (r *Replicated) readRepairLocal(key string, data []byte) {
	r.mem.put(key, data)
	if err := r.disk.put(key, data); err != nil {
		r.logf("store: read-repair persist %s: %v", short(key), err)
	}
	fire(r.o.Obs.ReadRepair)
}

// otherReplicas is key's replica set minus self.
func (r *Replicated) otherReplicas(key string) []string {
	set := r.o.ReplicaSet(key, r.copies())
	out := set[:0:len(set)]
	for _, p := range set {
		if p != r.o.Self {
			out = append(out, p)
		}
	}
	return out
}

func (r *Replicated) copies() int {
	if r.o.Copies > 1 {
		return r.o.Copies
	}
	return 1
}

func (r *Replicated) fetchTimeout() time.Duration {
	if r.o.FetchTimeout > 0 {
		return r.o.FetchTimeout
	}
	return DefaultFetchTimeout
}

func (r *Replicated) hedgeDelay() time.Duration {
	if r.o.HedgeDelay > 0 {
		return r.o.HedgeDelay
	}
	return DefaultHedgeDelay
}

func (r *Replicated) logf(format string, args ...any) {
	if r.o.Logf != nil {
		r.o.Logf(format, args...)
	}
}

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
