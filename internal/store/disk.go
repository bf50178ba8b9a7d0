package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/persist"
)

// Disk is the durable tier: one CRC32C-framed file per key
// (<dir>/<key>.json, temp-and-rename, fsynced) — the exact layout the
// service's bespoke disk cache used before this package existed, so
// existing data directories keep working. An entry that is not a valid
// frame (bad CRC, torn write, no frame at all) is quarantined to
// <key>.json.corrupt and reported as a miss.
type Disk struct {
	dir string

	// Guard wraps every disk I/O closure; the service routes it through
	// the cache circuit breaker. Nil runs the closure unguarded.
	Guard func(fn func() error) error
	// OnQuarantine is called once per quarantined entry (nil: ignored).
	OnQuarantine func()
	// Verify, when set, rejects decoded bytes that fail the external
	// authority check (Merkle audit); rejected entries are quarantined.
	Verify VerifyFn
}

// OpenDisk creates the durable tier rooted at dir, creating dir as
// needed. An empty dir returns (nil, nil): no durable tier, and the nil
// *Disk is safe to call.
func OpenDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating cache dir: %w", err)
	}
	return &Disk{dir: dir}, nil
}

// Keys lists every valid key with an entry file, sorted.
func (s *Disk) Keys() []string {
	if s == nil {
		return nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var keys []string
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if ok && !e.IsDir() && ValidKey(key) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}

func (s *Disk) get(key string) ([]byte, bool) {
	if s == nil || !ValidKey(key) {
		return nil, false
	}
	var data []byte
	err := s.guard(func() error {
		payload, err := s.read(key, FPCacheRead)
		if err != nil && !errors.Is(err, persist.ErrCorruptFrame) && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: cache read: %w", err)
		}
		data = payload
		return nil
	})
	if err != nil || data == nil {
		return nil, false
	}
	return data, true
}

func (s *Disk) put(key string, data []byte) error {
	if s == nil || !ValidKey(key) {
		return nil
	}
	return s.guard(func() error {
		if err := persist.WriteFramed(s.path(key), data, FPCacheWrite); err != nil {
			return fmt.Errorf("store: cache write: %w", err)
		}
		return nil
	})
}

// read reads key's entry under failpoint (persist.ReadFramed).
// Corruption (a bad or missing frame, Verify rejection) quarantines the
// file and returns an error wrapping persist.ErrCorruptFrame, which
// callers read as a miss, never as an I/O failure — bit rot must not
// trip the breaker or be served.
func (s *Disk) read(key, failpoint string) ([]byte, error) {
	var verify func([]byte) error
	if s.Verify != nil {
		verify = func(payload []byte) error { return s.Verify(key, payload) }
	}
	payload, quarantined, err := persist.ReadFramed(s.path(key), failpoint, verify)
	if quarantined && s.OnQuarantine != nil {
		s.OnQuarantine()
	}
	return payload, err
}

// ValidateAll CRC-checks every local entry (the /readyz warm-up scan),
// quarantining corrupt files, and returns how many entries were checked
// and how many quarantined.
func (s *Disk) ValidateAll() (checked, quarantined int, err error) {
	if s == nil {
		return 0, 0, nil
	}
	if ferr := faultinject.Hit(FPAntiEntropy); ferr != nil {
		return 0, 0, fmt.Errorf("store: warm-up scan: %w", ferr)
	}
	for _, key := range s.Keys() {
		_, rerr := s.read(key, "")
		corrupt := errors.Is(rerr, persist.ErrCorruptFrame)
		if rerr != nil && !corrupt {
			continue // raced with quarantine/removal; nothing to validate
		}
		checked++
		if corrupt {
			quarantined++
		}
	}
	return checked, quarantined, nil
}

// Quarantine moves key's entry aside as corrupt (used by upper tiers on
// divergence, not only CRC failure).
func (s *Disk) Quarantine(key string) {
	if s == nil || !ValidKey(key) {
		return
	}
	// The callback fires only when the rename succeeded: a quarantine
	// that itself failed (read-only dir) left the file in place.
	if _, err := persist.Quarantine(s.path(key)); err == nil && s.OnQuarantine != nil {
		s.OnQuarantine()
	}
}

func (s *Disk) guard(fn func() error) error {
	if s.Guard == nil {
		return fn()
	}
	return s.Guard(fn)
}

func (s *Disk) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}
