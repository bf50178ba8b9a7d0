package service

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/persist"
)

// A node restarting onto a data directory with a bit-flipped store file
// must quarantine the entry and hold /readyz until the warm-up CRC scan
// finishes — never panic, never serve the corrupt bytes.
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

	// Slow the warm-up scan so the not-ready window is observable.
	if err := faultinject.ArmSpecs("store.anti-entropy=sleep(300ms)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.DisarmAll)

	s := newTestServer(t, Options{Workers: 1, DataDir: dir})
	rs := s.Readiness()
	if rs.Ready {
		t.Fatal("ready before the warm-up scan finished")
	}
	found := false
	for _, r := range rs.Reasons {
		if strings.HasPrefix(r, "store:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("not-ready reasons %q name no store warm-up", rs.Reasons)
	}

	deadline := time.Now().Add(10 * time.Second)
	for !s.Readiness().Ready {
		if time.Now().After(deadline) {
			t.Fatal("warm-up never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if n := s.Metrics().StoreQuarantines.Value(); n == 0 {
		t.Fatal("corrupt entry was not quarantined")
	}
	if _, err := os.Stat(filepath.Join(dir, badKey+".json.corrupt")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// The corrupt key reads as a miss; the valid neighbour still serves.
	if _, ok := s.store.GetLocal(badKey); ok {
		t.Fatal("quarantined entry still readable")
	}
	if data, ok := s.store.GetLocal(goodKey); !ok || !bytes.Equal(data, good) {
		t.Fatalf("valid entry lost during warm-up (ok=%v)", ok)
	}
}
