// Package cluster turns N hayatd peers into one sharded service: a
// consistent-hash ring routes each job to the peer that owns its
// content-addressed cache key, a health prober evicts dead or draining
// peers from the ring, and a peer client forwards work with per-attempt
// timeouts, capped exponential backoff with jitter, and per-peer circuit
// breakers (internal/circuit). The package is deliberately mechanism-only:
// WHEN to forward, steal, or degrade to local execution is decided by
// internal/service, which layers it over the single-node engine.
//
// Because results are content-addressed (the same request hashes to the
// same key on every node), ownership is an efficiency contract, not a
// correctness one: any node can always execute any job locally and the
// bytes are identical — a mis-routed job only costs a cache miss.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVnodes is the number of virtual nodes per peer on the ring.
// 64 vnodes keeps the max/mean key imbalance under ~15% for small
// clusters while the ring stays tiny (N×64 entries).
const DefaultVnodes = 64

// ringHash maps an arbitrary label (a vnode name or a cache key) onto the
// ring's 64-bit circle. SHA-256 keeps vnode spread independent of peer
// name shape; the first 8 bytes are plenty.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Ring is a consistent-hash ring over a fixed peer set with per-peer
// enable/disable (health) state. Membership is fixed at construction —
// hayatd clusters are statically configured — but a peer can be disabled
// (evicted) and re-enabled without moving any other peer's vnodes, so a
// recovered peer gets exactly its old keys back.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	enabled map[string]bool
	hashes  []uint64 // sorted vnode positions
	owners  []string // owners[i] owns hashes[i]
}

// NewRing builds a ring over peers (self included) with n virtual nodes
// per peer (n <= 0 selects DefaultVnodes). All peers start enabled.
func NewRing(peers []string, n int) *Ring {
	if n <= 0 {
		n = DefaultVnodes
	}
	r := &Ring{vnodes: n, enabled: make(map[string]bool, len(peers))}
	for _, p := range peers {
		if p == "" || r.enabled[p] {
			continue
		}
		r.enabled[p] = true
		for i := 0; i < n; i++ {
			r.hashes = append(r.hashes, ringHash(fmt.Sprintf("%s#%d", p, i)))
			r.owners = append(r.owners, p)
		}
	}
	sort.Sort(byHash{r.hashes, r.owners})
	return r
}

type byHash struct {
	h []uint64
	o []string
}

func (b byHash) Len() int           { return len(b.h) }
func (b byHash) Less(i, j int) bool { return b.h[i] < b.h[j] }
func (b byHash) Swap(i, j int) {
	b.h[i], b.h[j] = b.h[j], b.h[i]
	b.o[i], b.o[j] = b.o[j], b.o[i]
}

// SetEnabled marks a peer up (true) or down/evicted (false). Unknown
// peers are ignored.
func (r *Ring) SetEnabled(peer string, up bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.enabled[peer]; ok {
		r.enabled[peer] = up
	}
}

// EnabledCount returns how many peers are currently up.
func (r *Ring) EnabledCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, up := range r.enabled {
		if up {
			n++
		}
	}
	return n
}

// Owner returns the enabled peer owning key: the first enabled peer at or
// clockwise after the key's ring position. ok is false when every peer is
// disabled (callers then run locally).
func (r *Ring) Owner(key string) (peer string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ownerLocked(key, nil)
}

// OwnerExcluding is Owner skipping the peers in `skip` (a failed peer
// whose keys are being re-routed mid-flight, before the prober has
// evicted it).
func (r *Ring) OwnerExcluding(key string, skip map[string]bool) (peer string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ownerLocked(key, skip)
}

func (r *Ring) ownerLocked(key string, skip map[string]bool) (string, bool) {
	if len(r.hashes) == 0 {
		return "", false
	}
	h := ringHash(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	for i := 0; i < len(r.hashes); i++ {
		p := r.owners[(start+i)%len(r.hashes)]
		if r.enabled[p] && !skip[p] {
			return p, true
		}
	}
	return "", false
}

// Successors returns the first n DISTINCT configured peers clockwise
// from key's ring position — the key's replica set, owner first. Unlike
// Owner it deliberately ignores enabled state: replica sets must stay
// stable while peers flap, so a down peer keeps its replica slot and
// accrues replication debt instead of silently handing the slot to the
// next arc (which would strand its copies when it recovers).
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n <= 0 || len(r.hashes) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	seen := make(map[string]bool, n)
	var out []string
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		p := r.owners[(start+i)%len(r.hashes)]
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Assign distributes keys across the enabled peers with bounded load: each
// key goes to the first enabled peer clockwise from its position whose
// assignment is still under ceil(len(keys)/enabled × factor). The bound
// stops one hot arc of the ring from swamping a single peer during
// population fan-out; factor <= 1 defaults to 1.25 (the classic
// bounded-load constant). The result maps peer → indices into keys, in
// input order; ok is false (and the map empty) when no peer is enabled.
func (r *Ring) Assign(keys []string, factor float64) (map[string][]int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if factor <= 1 {
		factor = 1.25
	}
	enabled := 0
	for _, up := range r.enabled {
		if up {
			enabled++
		}
	}
	if enabled == 0 || len(r.hashes) == 0 {
		return map[string][]int{}, false
	}
	cap_ := int(float64(len(keys))*factor/float64(enabled)) + 1
	out := make(map[string][]int, enabled)
	for i, key := range keys {
		h := ringHash(key)
		start := sort.Search(len(r.hashes), func(j int) bool { return r.hashes[j] >= h })
		assigned := false
		var first string
		haveFirst := false
		for j := 0; j < len(r.hashes); j++ {
			p := r.owners[(start+j)%len(r.hashes)]
			if !r.enabled[p] {
				continue
			}
			if !haveFirst {
				first, haveFirst = p, true
			}
			if len(out[p]) < cap_ {
				out[p] = append(out[p], i)
				assigned = true
				break
			}
		}
		if !assigned {
			// Every enabled peer is at capacity (can't happen with
			// factor > 1, kept as a safety net): ideal owner takes it.
			out[first] = append(out[first], i)
		}
	}
	return out, true
}
