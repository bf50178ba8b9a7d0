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

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/persist"
)

// crashCfg is the workload the crash drill runs: 4×4 cores over 20 years
// (80 epochs of a few milliseconds each) with a checkpoint every 4th
// epoch. The simulator alone can finish it before the kill lands, so the
// first helper arms crashStall: every epoch then takes at least 50 ms,
// and the kill always lands mid-run however fast the host is.
// crashStall is the first helper's HAYAT_FAILPOINTS spec (see crashCfg).
const crashStall = "sim.thermal-solve=sleep(50ms)"

func crashCfg() hayat.Config {
	cfg := hayat.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Years = 20
	cfg.WindowSeconds = 1
	cfg.MixApps = 2
	return cfg
}

// TestCrashHelper is not a test: it is the child process of
// TestCrashRestartRecovery — a real hayatd-like server (journal,
// checkpoints, persisted cache) whose failpoints are armed from
// HAYAT_FAILPOINTS, and which runs until its parent kills it.
func TestCrashHelper(t *testing.T) {
	base := os.Getenv("HAYAT_CRASH_BASE")
	if os.Getenv("HAYAT_CRASH_HELPER") != "1" || base == "" {
		t.Skip("crash-drill helper; spawned by TestCrashRestartRecovery")
	}
	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	s, err := New(Options{
		Workers:       2,
		DataDir:       filepath.Join(base, "data"),
		JournalPath:   filepath.Join(base, "jobs.journal"),
		CheckpointDir: filepath.Join(base, "ckpt"),
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
	// Publish the address atomically so the parent never reads a torn file.
	addrFile := filepath.Join(base, "addr")
	if err := os.WriteFile(addrFile+".tmp", []byte(ln.Addr().String()), 0o644); err != nil {
		os.Exit(1)
	}
	if err := os.Rename(addrFile+".tmp", addrFile); err != nil {
		os.Exit(1)
	}
	_ = http.Serve(ln, s.Handler()) // runs until SIGKILL
}

// startCrashHelper spawns the helper server and waits for its address.
// failpoints is the HAYAT_FAILPOINTS spec ("" = none).
func startCrashHelper(t *testing.T, base, failpoints string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(base, "addr")
	os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashHelper$")
	cmd.Env = append(os.Environ(),
		"HAYAT_CRASH_HELPER=1",
		"HAYAT_CRASH_BASE="+base,
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

func getJSON(t *testing.T, url string, dst any) error {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(dst)
}

// The crash drill of the robustness milestone: SIGKILL the daemon mid-
// simulation, restart it on the same state directory, and require that
// the journalled job is recovered under its original ID, resumes from a
// checkpoint at or beyond the last one observed before the kill, and
// produces a result byte-identical to an uninterrupted run.
func TestCrashRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash drill")
	}
	base := t.TempDir()
	cmd, addr := startCrashHelper(t, base, crashStall)
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	// Submit the long-running job over the real HTTP API.
	body := `{"config":{"Rows":4,"Cols":4,"Years":20,"WindowSeconds":1,"MixApps":2},"seed":5,"policy":"hayat"}`
	resp, err := http.Post("http://"+addr+"/v1/lifetime", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: HTTP %d %+v", resp.StatusCode, st)
	}

	// Wait for a checkpoint at epoch ≥ 8 (two checkpoint strides into the
	// 80-epoch run), then SIGKILL mid-flight — no drain, no warning.
	req := request{Kind: KindLifetime, Config: NormalizeConfig(crashCfg()), Policy: "Hayat", Seed: 5, Chips: 1}
	ckptFile := filepath.Join(base, "ckpt", req.key()+".ckpt")
	preKillEpoch := 0
	deadline := time.Now().Add(60 * time.Second)
	for preKillEpoch < 8 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint at epoch ≥ 8 before deadline")
		}
		if data, err := os.ReadFile(ckptFile); err == nil {
			if payload, err := persist.DecodeFrame(data); err == nil {
				if ep, ok := checkpointEpoch(payload); ok && ep > preKillEpoch {
					preKillEpoch = ep
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	cmd.Wait()
	t.Logf("killed helper with checkpoint at epoch %d", preKillEpoch)

	// Restart on the same state directory.
	cmd2, addr2 := startCrashHelper(t, base, "")
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	killed = true

	// The job must be visible under its ORIGINAL ID and run to done.
	var final JobStatus
	deadline = time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("recovered job never finished: %+v", final)
		}
		if err := getJSON(t, "http://"+addr2+"/v1/jobs/"+st.ID, &final); err == nil && final.State.Terminal() {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if final.State != JobDone {
		t.Fatalf("recovered job state %s (%s)", final.State, final.Error)
	}

	// The restart must have resumed from a checkpoint at least as far
	// along as the one observed before the kill.
	var met MetricsSnapshot
	if err := getJSON(t, "http://"+addr2+"/metrics", &met); err != nil {
		t.Fatal(err)
	}
	if met.Reliability.JobsRecovered != 1 {
		t.Fatalf("jobs_recovered %d, want 1", met.Reliability.JobsRecovered)
	}
	if met.Reliability.CheckpointResumes != 1 {
		t.Fatalf("checkpoint_resumes %d, want 1", met.Reliability.CheckpointResumes)
	}
	if met.Reliability.LastResumeEpoch < int64(preKillEpoch) {
		t.Fatalf("resumed from epoch %d, want ≥ %d", met.Reliability.LastResumeEpoch, preKillEpoch)
	}

	// Byte-identity: the persisted cache entry (the daemon's durable
	// output) must match an uninterrupted in-process run exactly.
	raw, err := os.ReadFile(filepath.Join(base, "data", req.key()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := persist.DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, referenceResult(t, crashCfg(), 5)) {
		t.Fatal("post-crash result differs from an uninterrupted run")
	}
}
