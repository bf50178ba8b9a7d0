package store

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/kit-ces/hayat/internal/faultinject"
)

// fetchTimeout bounds one whole replica read, replica push or sweep stat.
const fetchTimeout = 5 * time.Second

// Transport moves envelopes between peers. internal/cluster's Router
// implements it (per-peer breakers, retries, health); tests substitute
// fakes. StoreGet returns the envelope-verified payload (ok=false, nil
// error on a clean miss); StorePut pushes canonical bytes; StoreStat
// returns the peer's hex leaf hash for key without the payload; PeerUp
// reports prober health so the store never hammers a known-dead peer.
type Transport interface {
	StoreGet(ctx context.Context, peer, key string) (data []byte, ok bool, err error)
	StorePut(ctx context.Context, peer, key string, data []byte) error
	StoreStat(ctx context.Context, peer, key string) (leaf string, ok bool, err error)
	PeerUp(peer string) bool
}

// Obs receives store events; nil fields are ignored. The service wires
// these to /metrics counters.
type Obs struct {
	Quarantine    func()              // a local copy was quarantined (corrupt on disk or divergent from the audit)
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

// Options wires a Replicated store into a cluster. The zero value is a
// valid single-node configuration: local tiers only, no replication.
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
	// remote path (replication, replica reads, the sweep).
	Transport Transport
	// Verify checks bytes against the Merkle audit before they are
	// served or pushed; nil trusts CRC/envelope checks alone.
	Verify VerifyFn
	// Obs receives store events.
	Obs Obs
	// Logf receives operational notices (nil: discarded).
	Logf func(format string, args ...any)
}

// Replicated composes the memory and disk tiers with remote replicas
// into the self-healing store the service mounts: local reads verify
// before serving, terminal writes fan out to the key's replica set,
// misses read the replicas in ring order, and a background sweep detects
// under-replication and divergence and repairs both. Unreachable peers
// accrue replication debt instead of blocking writes; the sweep pays it
// down when they return.
type Replicated struct {
	mem  *Memory
	disk *Disk // nil: no durable tier

	o Options

	mu   sync.Mutex
	debt map[string]map[string]bool // key → peers owed a copy

	startOnce sync.Once
	cancel    context.CancelFunc
	done      chan struct{}
}

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
// concurrently with store use. The Verify and Quarantine hooks are
// pushed down into the disk tier, so every durable read checks the audit
// before serving and a copy it quarantines is counted.
func (r *Replicated) Configure(o Options) {
	r.o = o
	if r.disk != nil {
		r.disk.Verify = o.Verify
		r.disk.OnQuarantine = o.Obs.Quarantine
	}
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
//
//lint:ignore reachability internal/service's resident-result tests bound the memory tier with it
func (r *Replicated) MemoryLen() int { return r.mem.len() }

// PutLocal writes the local tiers only: memory always succeeds; a disk
// failure is returned so the caller can log it (and keep the bytes
// itself), but they stay servable from memory until a bounded tier
// evicts them.
func (r *Replicated) PutLocal(key string, data []byte) error {
	r.mem.put(key, data)
	return r.disk.put(key, data)
}

// Keys lists the union of the local tiers' keys, sorted.
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
// used when a local copy turns out to diverge from the audit. It counts
// as one quarantine whichever tiers held the copy.
func (r *Replicated) Quarantine(key string) {
	r.mem.drop(key)
	r.disk.Quarantine(key)
	fire(r.o.Obs.Quarantine)
}

// FetchReplica reads key from its up replicas in ring order and serves
// the first copy that verifies, read-repairing the local tiers with it.
// The whole read is bounded by fetchTimeout.
func (r *Replicated) FetchReplica(ctx context.Context, key string) ([]byte, bool) {
	if r.o.Transport == nil || r.o.ReplicaSet == nil || !ValidKey(key) {
		return nil, false
	}
	fctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	for _, peer := range r.otherReplicas(key) {
		if !r.o.Transport.PeerUp(peer) {
			continue
		}
		if data := r.fetchCopy(fctx, peer, key); data != nil {
			r.readRepairLocal(key, data)
			return data, true
		}
	}
	return nil, false
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

// fetchCopy reads one replica's copy of key: nil when the peer fails,
// misses, or holds bytes our audit rejects.
func (r *Replicated) fetchCopy(ctx context.Context, peer, key string) []byte {
	if faultinject.Hit(FPReadReplica) != nil {
		return nil
	}
	data, ok, err := r.o.Transport.StoreGet(ctx, peer, key)
	if err != nil || !ok {
		return nil
	}
	if r.o.Verify != nil && r.o.Verify(key, data) != nil {
		return nil // divergent from our audit: never serve it
	}
	return data
}

// pushCopy sends one bounded replica PUT.
func (r *Replicated) pushCopy(ctx context.Context, peer, key string, data []byte) error {
	if err := faultinject.Hit(FPReplicate); err != nil {
		return err
	}
	cctx, cancel := context.WithTimeout(ctx, fetchTimeout)
	defer cancel()
	return r.o.Transport.StorePut(cctx, peer, key, data)
}

// statPeer asks one peer for its leaf hash of key.
func (r *Replicated) statPeer(ctx context.Context, peer, key string) (string, bool, error) {
	if err := faultinject.Hit(FPReadReplica); err != nil {
		return "", false, err
	}
	cctx, cancel := context.WithTimeout(ctx, fetchTimeout)
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
