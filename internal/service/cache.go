package service

import (
	"errors"
	"fmt"

	"github.com/kit-ces/hayat/internal/circuit"
	"github.com/kit-ces/hayat/internal/store"
)

// The cache failpoints now live in internal/store (same names, so
// existing arming specs and drills keep working); these aliases keep
// the service's failpoint docs and tests referring to one place.
const (
	fpCacheRead  = store.FPCacheRead
	fpCacheWrite = store.FPCacheWrite
)

// resultStore is the service's view of the content-addressed result
// store: a store.Replicated (memory tier + CRC-framed disk tier +
// replica fan-out, see internal/store) with the service's breaker and
// quarantine observer attached. The breaker and callback are plain
// fields read at call time, so New and tests can assign them after
// construction exactly as they did when the cache was bespoke.
type resultStore struct {
	*store.Replicated
	disk *store.Disk // nil without a data dir

	brk          *circuit.Breaker // nil → disk unguarded (tests construct bare stores)
	onQuarantine func()           // observes each quarantined file (may be nil)
}

func newResultStore(dir string) (*resultStore, error) {
	rs := &resultStore{}
	disk, err := store.OpenDisk(dir)
	if err != nil {
		return nil, fmt.Errorf("service: creating data dir: %w", err)
	}
	if disk != nil {
		disk.Guard = func(fn func() error) error {
			if rs.brk == nil {
				return fn()
			}
			return rs.brk.Do(fn)
		}
		disk.OnQuarantine = func() {
			if rs.onQuarantine != nil {
				rs.onQuarantine()
			}
		}
	}
	rs.disk = disk
	rs.Replicated = store.NewReplicated(nil, disk)
	return rs, nil
}

// get reads the local tiers only — it runs under the server mutex on
// the submit path, so it must never block on a peer. Remote copies are
// reached later, via the hedged fetch at execution time.
func (s *resultStore) get(key string) ([]byte, bool) { return s.GetLocal(key) }

// put writes the local tiers. The memory tier always succeeds; disk
// failures are reported but do not invalidate the in-memory entry, and
// an open breaker skips the disk entirely. Replication to peers happens
// separately (Server.replicateResult), after the job flips terminal.
func (s *resultStore) put(key string, data []byte) error {
	err := s.PutLocal(key, data)
	if errors.Is(err, circuit.ErrOpen) {
		return fmt.Errorf("service: skipping disk persist for %s: %w", key, err)
	}
	if err != nil {
		return fmt.Errorf("service: persisting result: %w", err)
	}
	return nil
}

// validKey accepts only the lowercase-hex request hashes this service
// generates, so keys can never escape the data directory.
func validKey(key string) bool { return store.ValidKey(key) }
