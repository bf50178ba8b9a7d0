package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

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

	// OnQuarantine is called once per entry a read quarantines (nil:
	// ignored).
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

// get reads key's entry. Any failure — a missing, corrupt or unreadable
// file — is a miss.
func (s *Disk) get(key string) ([]byte, bool) {
	if s == nil || !ValidKey(key) {
		return nil, false
	}
	data, err := s.read(key, FPCacheRead)
	if err != nil {
		return nil, false
	}
	return data, true
}

func (s *Disk) put(key string, data []byte) error {
	if s == nil || !ValidKey(key) {
		return nil
	}
	if err := persist.WriteFramed(s.path(key), data, FPCacheWrite); err != nil {
		return fmt.Errorf("store: cache write: %w", err)
	}
	return nil
}

// read reads key's entry under failpoint (persist.ReadFramed).
// Corruption (a bad or missing frame, Verify rejection) quarantines the
// file and returns an error wrapping persist.ErrCorruptFrame, so bit rot
// is never served.
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

// Quarantine moves key's entry aside as corrupt (used by upper tiers on
// divergence, not only CRC failure). The upper tier counts it, so
// OnQuarantine does not fire.
func (s *Disk) Quarantine(key string) {
	if s == nil || !ValidKey(key) {
		return
	}
	// A rename that fails found no file (the copy was in memory only) or
	// left one that every read still checks, so no copy that fails its
	// checks is served either way.
	_, _ = persist.Quarantine(s.path(key))
}

func (s *Disk) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}
