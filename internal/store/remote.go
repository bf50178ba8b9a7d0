package store

import (
	"context"
	"fmt"

	"github.com/kit-ces/hayat/internal/faultinject"
)

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

// Remote is one peer's replica surface: reads are
// hedged-fetch building blocks, writes are replica pushes. Both
// evaluate the store failpoints so drills can fault any individual
// peer interaction.
type Remote struct {
	Peer string
	T    Transport
}

// fetch reads key from the peer. A clean miss returns ok false and a
// nil error; a failed peer returns the error.
func (r *Remote) fetch(ctx context.Context, key string) ([]byte, bool, error) {
	if err := faultinject.Hit(FPReadReplica); err != nil {
		return nil, false, fmt.Errorf("store: replica read %s: %w", r.Peer, err)
	}
	data, ok, err := r.T.StoreGet(ctx, r.Peer, key)
	if err != nil {
		return nil, false, fmt.Errorf("store: replica read %s: %w", r.Peer, err)
	}
	return data, ok, nil
}

// Put pushes data to the peer as a replica of key.
func (r *Remote) Put(ctx context.Context, key string, data []byte) error {
	if err := faultinject.Hit(FPReplicate); err != nil {
		return fmt.Errorf("store: replicating to %s: %w", r.Peer, err)
	}
	if err := r.T.StorePut(ctx, r.Peer, key, data); err != nil {
		return fmt.Errorf("store: replicating to %s: %w", r.Peer, err)
	}
	return nil
}
