package store

import (
	"context"
	"encoding/hex"
	"time"

	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/merkle"
)

// DefaultAntiEntropyInterval is the background sweep cadence.
const DefaultAntiEntropyInterval = 30 * time.Second

// Start launches the periodic anti-entropy sweep on a background
// goroutine scoped to ctx. A store without a transport has no replicas
// to sweep, so Start leaves it without a goroutine. Idempotent; Close
// (or ctx cancellation) stops it.
func (r *Replicated) Start(ctx context.Context, interval time.Duration) {
	if r.o.Transport == nil || r.o.ReplicaSet == nil {
		return
	}
	r.startOnce.Do(func() {
		if interval <= 0 {
			interval = DefaultAntiEntropyInterval
		}
		sctx, cancel := context.WithCancel(ctx)
		r.cancel = cancel
		r.done = make(chan struct{})
		go func() {
			defer close(r.done)
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-sctx.Done():
					return
				case <-ticker.C:
				}
				r.Sweep(sctx)
			}
		}()
	})
}

// Close stops the sweep goroutine and waits for it. Safe on a store
// that was never started.
func (r *Replicated) Close() {
	if r.cancel != nil {
		r.cancel()
		<-r.done
	}
}

// Sweep is one anti-entropy pass: walk every locally held key, confirm
// each other member of its replica set holds a byte-identical copy
// (compared by Merkle leaf hash), push our verifying copy where one is
// missing or divergent, and record debt against peers that are down.
// Locally divergent copies (audit disagrees) are quarantined and
// re-fetched from a replica rather than propagated.
func (r *Replicated) Sweep(ctx context.Context) {
	if err := faultinject.Hit(FPAntiEntropy); err != nil {
		r.logf("store: sweep skipped: %v", err)
		return
	}
	if r.o.Transport == nil || r.o.ReplicaSet == nil {
		return
	}
	start := time.Now()
	defer func() {
		if f := r.o.Obs.Sweep; f != nil {
			f(time.Since(start))
		}
	}()
	for _, key := range r.Keys() {
		if ctx.Err() != nil {
			return
		}
		data, ok := r.GetLocal(key)
		if !ok {
			continue
		}
		if r.o.Verify != nil && r.o.Verify(key, data) != nil {
			// Our copy is the divergent one: quarantine it and repair
			// ourselves from any verifying replica.
			r.Quarantine(key)
			r.FetchReplica(ctx, key)
			continue
		}
		leaf := merkle.LeafHash(data)
		localLeaf := hex.EncodeToString(leaf[:])
		for _, peer := range r.otherReplicas(key) {
			if ctx.Err() != nil {
				return
			}
			if !r.o.Transport.PeerUp(peer) {
				r.addDebt(key, peer) // under-replicated until the peer returns
				continue
			}
			peerLeaf, found, err := r.statPeer(ctx, peer, key)
			if err != nil {
				continue // transient; next sweep retries
			}
			if found && peerLeaf == localLeaf {
				r.clearDebt(key, peer)
				continue
			}
			// Missing or divergent on the peer: push our verifying copy.
			if err := r.pushCopy(ctx, peer, key, data); err != nil {
				r.addDebt(key, peer)
				fire(r.o.Obs.ReplicaPutErr)
				r.logf("store: sweep repair %s to %s: %v", short(key), peer, err)
				continue
			}
			r.clearDebt(key, peer)
			fire(r.o.Obs.ReadRepair)
		}
	}
}
