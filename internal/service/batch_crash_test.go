package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/merkle"
	"github.com/kit-ces/hayat/internal/persist"
)

// TestBatchCrashHelper is not a test: it is the child process of
// TestBatchCrashRecovery — a journalled, audited server whose failpoints
// are armed from HAYAT_FAILPOINTS, so the parent can stall a batch flush
// and SIGKILL it mid-write.
func TestBatchCrashHelper(t *testing.T) {
	base := os.Getenv("HAYAT_BATCH_CRASH_BASE")
	if os.Getenv("HAYAT_BATCH_CRASH_HELPER") != "1" || base == "" {
		t.Skip("crash-drill helper; spawned by TestBatchCrashRecovery")
	}
	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	s, err := New(Options{
		Workers:       2,
		DataDir:       filepath.Join(base, "data"),
		JournalPath:   filepath.Join(base, "jobs.journal"),
		AuditPath:     filepath.Join(base, "audit.log"),
		BatchMaxItems: 4,
		// Long enough that a request's items always meet in one flush,
		// even under the race detector: the drill relies on batch A
		// being journalled, and its jobs started, in a single flush.
		BatchMaxWait: 200 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	addrFile := filepath.Join(base, "addr")
	if err := os.WriteFile(addrFile+".tmp", []byte(ln.Addr().String()), 0o644); err != nil {
		os.Exit(1)
	}
	if err := os.Rename(addrFile+".tmp", addrFile); err != nil {
		os.Exit(1)
	}
	_ = http.Serve(ln, s.Handler()) // runs until SIGKILL
}

// startBatchCrashHelper spawns the helper and waits for its address.
// failpoints is the HAYAT_FAILPOINTS spec ("" = none).
func startBatchCrashHelper(t *testing.T, base, failpoints string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(base, "addr")
	os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-test.run=^TestBatchCrashHelper$")
	cmd.Env = append(os.Environ(),
		"HAYAT_BATCH_CRASH_HELPER=1",
		"HAYAT_BATCH_CRASH_BASE="+base,
		faultinject.EnvVar+"="+failpoints)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return cmd, string(data)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("helper never published its address")
	return nil, ""
}

// postBatch submits items to the helper and returns the decoded response.
// It is goroutine-safe (no *testing.T) because the drill fires one batch
// that is never answered.
func postBatch(addr string, items []BatchItem) (BatchResponse, error) {
	blob, err := json.Marshal(BatchRequest{Items: items})
	if err != nil {
		return BatchResponse{}, err
	}
	resp, err := http.Post("http://"+addr+"/v1/batch", "application/json", bytes.NewReader(blob))
	if err != nil {
		return BatchResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return BatchResponse{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var br BatchResponse
	return br, json.NewDecoder(resp.Body).Decode(&br)
}

// The batch crash drill: SIGKILL the daemon while a second batch is
// stalled mid-flush (before its single journal write lands). On restart,
// every item of the ACKNOWLEDGED batch must be recovered under its
// original job ID with a result byte-identical to an uninterrupted run
// and a verifying inclusion proof; the unacknowledged batch must be
// absent; and the torn shutdown must not leave corrupt journal lines.
func TestBatchCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash drill")
	}
	base := t.TempDir()
	// service.batch-flush sleeps 5s between taking the journal lock and
	// writing, giving the parent a wide window to SIGKILL mid-flush.
	// sim.thermal-solve slows every epoch so batch A's jobs are still
	// running at the kill, however fast or loaded the host: journal
	// replay drops jobs that finished, and those would be unknown by ID
	// after restart. A 1-year job has 4 epochs, so each job outlasts the
	// 1.5 s before the kill by itself; 50 ms per epoch was not enough
	// under the race detector on a loaded machine.
	cmd, addr := startBatchCrashHelper(t, base, "service.batch-flush=sleep(5s),sim.thermal-solve=sleep(1s)")
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	// Batch A: acknowledged before the kill. Its own flush also rides the
	// sleep — the POST returns only after Write+Sync succeeded.
	seedsA := []int64{1, 2, 3, 4}
	itemsA := make([]BatchItem, len(seedsA))
	for i, seed := range seedsA {
		itemsA[i] = tinyItem(seed)
	}
	brA, err := postBatch(addr, itemsA)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(seedsA))
	for i, r := range brA.Results {
		if !r.Accepted || r.Job == nil {
			t.Fatalf("batch A item %d not accepted: %+v", i, r)
		}
		ids[i] = r.Job.ID
	}

	// Batch B: fired into the stalled flush and never acknowledged.
	go postBatch(addr, []BatchItem{tinyItem(101), tinyItem(102)}) //nolint:errcheck
	time.Sleep(1500 * time.Millisecond)                           // inside batch B's 5s flush sleep
	if err := cmd.Process.Kill(); err != nil {                    // SIGKILL, no drain
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart on the same state directory, failpoints disarmed.
	cmd2, addr2 := startBatchCrashHelper(t, base, "")
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	killed = true

	// Every accepted item must reach done under its ORIGINAL ID with the
	// reference result, and its proof must verify.
	for i, id := range ids {
		var final JobStatus
		deadline := time.Now().Add(2 * time.Minute)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("batch A item %d (%s) never finished: %+v", i, id, final)
			}
			if err := getJSON(t, "http://"+addr2+"/v1/jobs/"+id, &final); err == nil && final.State.Terminal() {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		if final.State != JobDone {
			t.Fatalf("batch A item %d state %s (%s)", i, final.State, final.Error)
		}
		// Byte-identity is checked against the daemon's durable output (the
		// persisted cache frame): the HTTP layer re-indents result JSON.
		req := request{Kind: KindLifetime, Config: NormalizeConfig(tinyCfg()), Policy: "Hayat", Seed: seedsA[i], Chips: 1}
		raw, err := os.ReadFile(filepath.Join(base, "data", req.key()+".json"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := persist.DecodeFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, referenceResult(t, tinyCfg(), seedsA[i])) {
			t.Fatalf("batch A item %d result differs from an uninterrupted run", i)
		}
		var pr ProofResponse
		if err := getJSON(t, "http://"+addr2+"/v1/jobs/"+id+"/proof", &pr); err != nil {
			t.Fatalf("batch A item %d proof: %v", i, err)
		}
		root, err := merkle.ParseHash(pr.Root)
		if err != nil {
			t.Fatal(err)
		}
		if err := merkle.Verify(pr.Proof, got, root); err != nil {
			t.Fatalf("batch A item %d proof after crash recovery: %v", i, err)
		}
	}

	// The unacknowledged batch died before its journal write: its work is
	// gone, and the abandoned flush left no torn lines behind.
	var met MetricsSnapshot
	if err := getJSON(t, "http://"+addr2+"/metrics", &met); err != nil {
		t.Fatal(err)
	}
	if met.Reliability.JournalCorrupt != 0 {
		t.Fatalf("journal_corrupt %d after mid-flush kill, want 0", met.Reliability.JournalCorrupt)
	}
	if met.Merkle.Corrupt != 0 {
		t.Fatalf("merkle corrupt %d after mid-flush kill, want 0", met.Merkle.Corrupt)
	}
	// Resubmitting batch B's items proves they never ran: both come back
	// as fresh 202s, not cache hits.
	brB, err := postBatch(addr2, []BatchItem{tinyItem(101), tinyItem(102)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range brB.Results {
		if !r.Accepted || r.Status != http.StatusAccepted || r.Job == nil || r.Job.Cached {
			t.Fatalf("unacknowledged item %d came back %+v after replay, want a fresh 202", i, r)
		}
	}
}
