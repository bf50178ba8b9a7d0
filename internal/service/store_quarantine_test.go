package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/kit-ces/hayat/internal/persist"
)

// A node restarting onto a data directory with a bit-flipped store file
// is ready at once: the corrupt entry is caught by its first read, which
// misses and quarantines it exactly once, and never panics or serves the
// corrupt bytes.
func TestStoreWarmupQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	goodKey := strings.Repeat("ab", 32)
	badKey := strings.Repeat("cd", 32)
	good := []byte(`{"mttf_years":4.5}`)
	if err := persist.WriteFramed(filepath.Join(dir, goodKey+".json"), good, ""); err != nil {
		t.Fatal(err)
	}
	frame := persist.EncodeFrame([]byte(`{"mttf_years":9.9}`))
	frame[len(frame)-2] ^= 0x01 // bit rot: CRC no longer matches
	if err := os.WriteFile(filepath.Join(dir, badKey+".json"), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{Workers: 1, DataDir: dir})
	if rs := s.Readiness(); !rs.Ready {
		t.Fatalf("not ready at once: %q", rs.Reasons)
	}
	if n := s.Metrics().StoreQuarantines.Value(); n != 0 {
		t.Fatalf("%d quarantines before any read", n)
	}

	if _, ok := s.store.GetLocal(badKey); ok {
		t.Fatal("corrupt entry served")
	}
	if n := s.Metrics().StoreQuarantines.Value(); n != 1 {
		t.Fatalf("first read of the corrupt entry counted %d quarantines, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, badKey+".json.corrupt")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, ok := s.store.GetLocal(badKey); ok {
		t.Fatal("quarantined entry still readable")
	}
	if n := s.Metrics().StoreQuarantines.Value(); n != 1 {
		t.Fatalf("a second read counted again: %d quarantines, want 1", n)
	}
	// The valid neighbour still serves.
	if data, ok := s.store.GetLocal(goodKey); !ok || !bytes.Equal(data, good) {
		t.Fatalf("valid entry lost (ok=%v)", ok)
	}
}

// A peer read of a copy that diverges from this node's audit leaf
// answers 404 and counts one quarantine, whether or not the node has a
// disk tier holding the copy too.
func TestStoreGetCountsOneQuarantine(t *testing.T) {
	for _, withData := range []bool{true, false} {
		name := "memory-only"
		if withData {
			name = "with-data"
		}
		t.Run(name, func(t *testing.T) {
			var opts Options
			if withData {
				opts.DataDir = t.TempDir()
			}
			s := newTestServer(t, opts)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			key := strings.Repeat("ef", 32)
			s.auditResult(key, []byte(`{"mttf_years":4.5}`))
			if err := s.store.PutLocal(key, []byte(`{"mttf_years":9.9}`)); err != nil {
				t.Fatal(err)
			}

			resp, err := http.Get(ts.URL + "/v1/store/" + key)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("divergent copy: HTTP %d, want 404", resp.StatusCode)
			}
			if _, ok := s.store.GetLocal(key); ok {
				t.Fatal("divergent copy still held")
			}

			resp, err = http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var met MetricsSnapshot
			if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
				t.Fatal(err)
			}
			if met.Store.Quarantines != 1 || met.Reliability.Quarantined != 1 {
				t.Fatalf("store.quarantines = %d, reliability.quarantined = %d; want 1 and 1",
					met.Store.Quarantines, met.Reliability.Quarantined)
			}
		})
	}
}
