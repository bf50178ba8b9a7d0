package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/persist"
	"github.com/kit-ces/hayat/internal/sim"
	"github.com/kit-ces/hayat/internal/store"
)

// openStore opens a bare result store on dir, built as New builds it, and
// returns its disk tier too.
func openStore(t *testing.T, dir string) (*store.Replicated, *store.Disk) {
	t.Helper()
	disk, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store.NewReplicated(nil, disk), disk
}

// ckptCfg is tinyCfg with a remix boundary every 2 epochs, giving the
// 4-epoch run a mid-run checkpoint point.
func ckptCfg() hayat.Config {
	cfg := tinyCfg()
	cfg.RemixEpochs = 2
	return cfg
}

// referenceResult runs a request's simulation directly (no service) and
// returns the exact bytes the service would cache.
func referenceResult(t *testing.T, cfg hayat.Config, seed int64) []byte {
	t.Helper()
	sys, err := hayat.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := sys.NewChip(seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chip.RunLifetime(hayat.PolicyHayat)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A job journalled by a previous process (which never finished it) must
// be re-enqueued under its original ID at startup and produce a result
// byte-identical to an uninterrupted run.
func TestServerRecoversJournalledJob(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.journal")
	req := request{Kind: KindLifetime, Config: NormalizeConfig(ckptCfg()), Policy: "Hayat", Seed: 5, Chips: 1}

	// Fabricate the dead process's journal: submit, no terminal record.
	j, _, _, err := openJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.submitted("job-000042", req.key(), req); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{JournalPath: journalPath, DataDir: filepath.Join(dir, "data")})
	if got := s.Metrics().JobsRecovered.Value(); got != 1 {
		t.Fatalf("jobs recovered %d, want 1", got)
	}
	// The original ID survived, so the submitting client can keep polling.
	st := waitDone(t, s, "job-000042")
	if st.State != JobDone {
		t.Fatalf("recovered job state %s (%s)", st.State, st.Error)
	}
	if !bytes.Equal(st.Result, referenceResult(t, ckptCfg(), 5)) {
		t.Fatal("recovered job result differs from an uninterrupted run")
	}
	// IDs allocated after recovery must not collide with recovered ones.
	st2, err := s.SubmitLifetime(slowCfg(), 99, "vaa")
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID <= "job-000042" {
		t.Fatalf("post-recovery ID %s not beyond recovered IDs", st2.ID)
	}
}

// A recovered job whose result already sits in the result cache must be
// answered from the cache, not re-simulated.
func TestRecoveredJobServedFromCache(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.journal")
	dataDir := filepath.Join(dir, "data")
	req := request{Kind: KindLifetime, Config: NormalizeConfig(tinyCfg()), Policy: "Hayat", Seed: 6, Chips: 1}

	// The previous process published the result but crashed before the
	// journal's terminal record landed.
	rs, _ := openStore(t, dataDir)
	want := referenceResult(t, tinyCfg(), 6)
	if err := rs.PutLocal(req.key(), want); err != nil {
		t.Fatal(err)
	}
	j, _, _, err := openJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.submitted("job-000001", req.key(), req); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{JournalPath: journalPath, DataDir: dataDir})
	st, err := s.Status("job-000001", true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || !st.Cached {
		t.Fatalf("recovered job not served from cache: %+v", st)
	}
	if !bytes.Equal(st.Result, want) {
		t.Fatal("cached recovery result differs")
	}
	if runs := s.Metrics().SimRuns.Value(); runs != 0 {
		t.Fatalf("recovery re-simulated a cached job (%d runs)", runs)
	}
}

// checkpointBlob runs the first n epochs of chip seed's Hayat lifetime on
// cfg and returns the bare JSON checkpoint there. A sink that stops the
// run at its first call does it, as hayatsim's -checkpoint does: that call
// comes at the first remix boundary at or after n, which must be n itself.
func checkpointBlob(t *testing.T, cfg hayat.Config, seed int64, n int) []byte {
	t.Helper()
	sys, err := hayat.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := sys.NewChip(seed)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("checkpoint taken")
	var cp []byte
	_, err = chip.RunLifetimeWithCheckpoints(context.Background(), hayat.PolicyHayat, nil, n, func(next int, data []byte) error {
		if next != n {
			return fmt.Errorf("first checkpoint at epoch %d, want %d", next, n)
		}
		cp = data
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatalf("checkpoint at epoch %d: %v", n, err)
	}
	return cp
}

// recoverFromCheckpoint plants ckpt as the checkpoint of a Hayat lifetime
// job for seed on cfg that a dead process journalled but never finished,
// starts a server on that state and waits for the recovered job to
// finish. It returns the server, the job's status and the checkpoint path.
func recoverFromCheckpoint(t *testing.T, cfg hayat.Config, seed int64, ckpt []byte) (*Server, JobStatus, string) {
	t.Helper()
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.journal")
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	req := request{Kind: KindLifetime, Config: NormalizeConfig(cfg), Policy: "Hayat", Seed: seed, Chips: 1}
	path := filepath.Join(ckptDir, req.key()+".ckpt")
	if err := os.WriteFile(path, ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	j, _, _, err := openJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.submitted("job-000001", req.key(), req); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{JournalPath: journalPath, CheckpointDir: ckptDir})
	st := waitDone(t, s, "job-000001")
	if st.State != JobDone {
		t.Fatalf("recovered job state %s (%s)", st.State, st.Error)
	}
	return s, st, path
}

// A recovered job with a persisted checkpoint must resume from it — not
// epoch zero — and still produce byte-identical output.
func TestRecoveredJobResumesFromCheckpoint(t *testing.T) {
	cfg := ckptCfg()
	// The dead process's checkpoint at epoch 2 of 4, framed as hayatd
	// writes it.
	s, st, path := recoverFromCheckpoint(t, cfg, 7, persist.EncodeFrame(checkpointBlob(t, cfg, 7, 2)))
	if got := s.Metrics().CheckpointResumes.Value(); got != 1 {
		t.Fatalf("checkpoint resumes %d, want 1", got)
	}
	if ep := s.Metrics().LastResumeEpoch.Value(); ep != 2 {
		t.Fatalf("resume epoch %d, want 2", ep)
	}
	if !bytes.Equal(st.Result, referenceResult(t, cfg, 7)) {
		t.Fatal("resumed result differs from an uninterrupted run")
	}
	// The finished job's checkpoint was cleaned up.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not cleaned up after completion: %v", err)
	}
}

// A checkpoint altered on disk must never be resumed: the run's bytes
// would be cached, served and Merkle-audited as canonical. An unframed
// checkpoint whose core health was lowered but stays inside (0, 1] passes
// every structural check, and a framed one with a flipped payload byte
// fails only its CRC. Both are quarantined, and the job restarts at epoch
// 0 and serves the uninterrupted run's bytes.
func TestRecoveredJobRejectsAlteredCheckpoint(t *testing.T) {
	cfg := ckptCfg()
	blob := checkpointBlob(t, cfg, 7, 2)
	cp, err := sim.ReadCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	cp.Health[0] *= 0.99
	var altered bytes.Buffer
	if err := sim.WriteCheckpoint(&altered, cp); err != nil {
		t.Fatal(err)
	}
	flipped := persist.EncodeFrame(blob)
	flipped[len(flipped)-len(blob)/2] ^= 0x01
	want := referenceResult(t, cfg, 7)

	for name, planted := range map[string][]byte{
		"bare JSON, altered health": altered.Bytes(),
		"framed, flipped byte":      flipped,
	} {
		t.Run(name, func(t *testing.T) {
			s, st, path := recoverFromCheckpoint(t, cfg, 7, planted)
			if got := s.Metrics().CheckpointResumes.Value(); got != 0 {
				t.Errorf("altered checkpoint resumed %d times", got)
			}
			if got := s.Metrics().Quarantined.Value(); got != 1 {
				t.Errorf("quarantined %d files, want 1", got)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("altered checkpoint not quarantined: %v", err)
			}
			if !bytes.Equal(st.Result, want) {
				t.Error("result differs from an uninterrupted run")
			}
		})
	}
}

// A pending job journalled by the unversioned engine, in the journal
// format of that engine (no engine field), must re-run under the running
// engine's key and keep its job ID. The old engine's result and
// checkpoint, stored under the old key, must neither answer nor resume it.
func TestRecoverReKeysLegacyJournalEntry(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.journal")
	dataDir := filepath.Join(dir, "data")
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := ckptCfg()
	req := request{Kind: KindLifetime, Config: NormalizeConfig(cfg), Policy: "Hayat", Seed: 5, Chips: 1}
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	legacyKey := hex.EncodeToString(sum[:])
	if legacyKey != req.keyAt(0) || legacyKey == req.key() {
		t.Fatalf("legacy key %s, keyAt(0) %s, key %s", legacyKey, req.keyAt(0), req.key())
	}

	// The old engine's result and a checkpoint under the old key.
	rs, _ := openStore(t, dataDir)
	if err := rs.PutLocal(legacyKey, referenceResult(t, cfg, 6)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckptDir, legacyKey+".ckpt"), checkpointBlob(t, cfg, 5, 2), 0o644); err != nil {
		t.Fatal(err)
	}

	// The dead process's journal line, exactly as the unversioned engine
	// wrote it.
	payload, err := json.Marshal(journalRecord{Op: opSubmit, ID: "job-000042", Key: legacyKey, Req: &req, At: time.Now().UTC()})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(payload, []byte(`"engine"`)) {
		t.Fatalf("legacy record carries an engine field: %s", payload)
	}
	line, err := persist.EncodeFrameLine(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{JournalPath: journalPath, DataDir: dataDir, CheckpointDir: ckptDir})
	st := waitDone(t, s, "job-000042")
	if st.State != JobDone || st.Cached {
		t.Fatalf("legacy job: state %s, cached %v (%s)", st.State, st.Cached, st.Error)
	}
	if !bytes.Equal(st.Result, referenceResult(t, cfg, 5)) {
		t.Fatal("legacy job's result differs from this engine's uninterrupted run")
	}
	met := s.Metrics()
	if got := met.JournalCorrupt.Value(); got != 0 {
		t.Fatalf("journal corrupt %d, want 0", got)
	}
	if got := met.JobsRecovered.Value(); got != 1 {
		t.Fatalf("jobs recovered %d, want 1", got)
	}
	if got := met.SimRuns.Value(); got != 1 {
		t.Fatalf("sim runs %d, want 1 (re-run under the new key)", got)
	}
	if got := met.CheckpointResumes.Value(); got != 0 {
		t.Fatalf("old engine's checkpoint resumed %d times", got)
	}
	if data, ok := s.store.GetLocal(req.key()); !ok || !bytes.Equal(data, st.Result) {
		t.Fatal("result not stored under the running engine's key")
	}
}

// capturingStore collects per-chip blobs from a hayat population run so
// the test can plant them as the dead process's chip files. Chips finish
// on concurrent workers, so Save locks.
type capturingStore struct {
	mu    sync.Mutex
	blobs map[int64][]byte
}

func (c *capturingStore) Load(int64) ([]byte, bool) { return nil, false }
func (c *capturingStore) Save(seed int64, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.blobs[seed] = append([]byte(nil), data...)
	return nil
}

// A recovered population job must reuse the chip results the previous
// process persisted instead of re-simulating every die.
func TestRecoveredPopulationJobReusesChipResults(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.journal")
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	const chips = 3
	req := request{Kind: KindPopulation, Config: NormalizeConfig(cfg), Policy: "Hayat", Seed: 50, Chips: chips}

	// Reference: the uninterrupted population, and its per-chip blobs.
	sys, err := hayat.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap := &capturingStore{blobs: make(map[int64][]byte)}
	ref, err := sys.RunPopulationContext(context.Background(), 50, chips, hayat.PolicyHayat, nil, cap)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ref.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	// The dead process got through 2 of 3 chips before the crash.
	for _, seed := range []int64{50, 51} {
		name := filepath.Join(ckptDir, fmt.Sprintf("%s.chip-%d.json", req.key(), seed))
		if err := os.WriteFile(name, persist.EncodeFrame(cap.blobs[seed]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, _, _, err := openJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.submitted("job-000001", req.key(), req); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{JournalPath: journalPath, CheckpointDir: ckptDir})
	st := waitDone(t, s, "job-000001")
	if st.State != JobDone {
		t.Fatalf("recovered population job: %s (%s)", st.State, st.Error)
	}
	if got := s.Metrics().ChipResultsReused.Value(); got != 2 {
		t.Fatalf("chip results reused %d, want 2", got)
	}
	if !bytes.Equal(st.Result, want.Bytes()) {
		t.Fatal("recovered population result differs from an uninterrupted run")
	}
	// Completion cleaned the per-chip files up.
	if matches, _ := filepath.Glob(filepath.Join(ckptDir, req.key()+".chip-*.json")); len(matches) != 0 {
		t.Fatalf("chip files left behind: %v", matches)
	}
}

// With the disk-cache failpoints firing on every access, every read is a
// miss and every result write fails, and the service keeps answering:
// repeats from its memory tier, fresh work by simulating it.
func TestCacheFailpointsServiceStaysUp(t *testing.T) {
	defer faultinject.DisarmAll()
	if err := faultinject.ArmSpecs("service.cache-read=always,service.cache-write=always"); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{DataDir: t.TempDir()})

	// First job: the cold-cache read and the result persist both fail.
	// The job itself must complete untouched.
	st, err := s.SubmitLifetime(tinyCfg(), 11, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != JobDone {
		t.Fatalf("job under cache faults: %s (%s)", st.State, st.Error)
	}
	want := st.Result

	// Identical requests are answered byte-identically from the memory
	// tier.
	st2, err := s.SubmitLifetime(tinyCfg(), 11, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitDone(t, s, st2.ID)
	if st2.State != JobDone || !bytes.Equal(st2.Result, want) {
		t.Fatalf("memory-tier repeat: %s", st2.State)
	}

	// A different request misses memory and the disk, and the job still
	// completes.
	st3, err := s.SubmitLifetime(tinyCfg(), 21, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	st3 = waitDone(t, s, st3.ID)
	if st3.State != JobDone {
		t.Fatalf("fresh job under disk faults: %s (%s)", st3.State, st3.Error)
	}
	// /metrics exposes the armed failpoints.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var met MetricsSnapshot
	if err := getJSON(t, ts.URL+"/metrics", &met); err != nil {
		t.Fatal(err)
	}
	if met.Failpoints["service.cache-read"].Fires == 0 {
		t.Fatalf("failpoint stats missing: %+v", met.Failpoints)
	}
}

// TestWriteFaultsDoNotHideStoredResults checks that failed result writes
// never keep a stored result from being read: after a batch of fresh
// lifetimes whose every write failed, a result already on disk is still
// answered from it, cached and byte-identical, without a simulation.
func TestWriteFaultsDoNotHideStoredResults(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.SubmitLifetime(tinyCfg(), 7, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, s1, st.ID).Result
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	defer faultinject.DisarmAll()
	if err := faultinject.ArmSpecs("service.cache-write=always"); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{DataDir: dir, Workers: 1})
	const fresh = 5
	items := make([]BatchItem, fresh)
	for i := range items {
		items[i] = tinyItem(int64(100 + i))
	}
	results, err := s.SubmitBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Accepted {
			t.Fatalf("item %d not accepted: %+v", i, r)
		}
		if st := waitDone(t, s, r.Job.ID); st.State != JobDone {
			t.Fatalf("item %d: %s (%s)", i, st.State, st.Error)
		}
	}
	if got := s.Metrics().SimRuns.Value(); got != fresh {
		t.Fatalf("sim_runs %d after the batch, want %d", got, fresh)
	}

	st, err = s.SubmitLifetime(tinyCfg(), 7, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != JobDone || !st.Cached || !bytes.Equal(st.Result, want) {
		t.Fatalf("stored result after failed writes: state %s, cached %v, %d bytes (want the stored %d)",
			st.State, st.Cached, len(st.Result), len(want))
	}
	if got := s.Metrics().SimRuns.Value(); got != fresh {
		t.Fatalf("sim_runs %d, want %d: the stored result was simulated again", got, fresh)
	}
}

// An injected thermal-solve fault fails the job with the injected error:
// a simulation is deterministic in its request, so it is not run again.
func TestInjectedSimFailureFailsJob(t *testing.T) {
	defer faultinject.DisarmAll()
	if err := faultinject.ArmSpecs("sim.thermal-solve=always"); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{})
	st, err := s.SubmitLifetime(tinyCfg(), 13, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != JobFailed || !strings.Contains(st.Error, "injected fault") {
		t.Fatalf("state %s error %q", st.State, st.Error)
	}
	if got := s.Metrics().JobsFailed.Value(); got != 1 {
		t.Fatalf("jobs failed %d, want 1", got)
	}
}

// Satellite: a bit-flipped disk cache entry must be detected by its CRC
// frame, quarantined as *.corrupt, and treated as a miss.
func TestCacheCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	quarantined := 0
	count := func() { quarantined++ }
	rs, disk := openStore(t, dir)
	disk.OnQuarantine = count

	key := strings.Repeat("ab", 32)
	payload := []byte(`{"policy":"Hayat","records":[1,2,3]}`)
	if err := rs.PutLocal(key, payload); err != nil {
		t.Fatal(err)
	}
	// Fresh store (cold memory tier) reads the framed file back intact.
	cold, _ := openStore(t, dir)
	got, ok := cold.GetLocal(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("disk round trip: ok=%v got=%q", ok, got)
	}

	// Flip one payload bit on disk: the entry must vanish, not be served.
	path := filepath.Join(dir, key+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	store2, disk2 := openStore(t, dir)
	disk2.OnQuarantine = count
	if _, ok := store2.GetLocal(key); ok {
		t.Fatal("bit-flipped cache entry was served")
	}
	if quarantined != 1 {
		t.Fatalf("quarantine callback fired %d times, want 1", quarantined)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file still matches lookups")
	}

	// A truncated entry (torn write survived somehow) is also quarantined.
	if err := store2.PutLocal(key, payload); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	store3, disk3 := openStore(t, dir)
	if _, ok := store3.GetLocal(key); ok {
		t.Fatal("truncated cache entry was served")
	}

	// An unframed entry (valid JSON, no CRC frame) is a miss and is
	// quarantined like any corrupt entry.
	unframedKey := strings.Repeat("cd", 32)
	unframedPath := filepath.Join(dir, unframedKey+".json")
	if err := os.WriteFile(unframedPath, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	disk3.OnQuarantine = count
	if _, ok := store3.GetLocal(unframedKey); ok {
		t.Fatal("unframed cache entry was served")
	}
	if quarantined != 2 {
		t.Fatalf("quarantine callback fired %d times, want 2", quarantined)
	}
	if _, err := os.Stat(unframedPath + ".corrupt"); err != nil {
		t.Fatalf("unframed file not quarantined: %v", err)
	}
	if _, err := persist.DecodeFrame(raw); err != nil {
		t.Fatalf("sanity: a written entry should decode as a frame: %v", err)
	}
}

// Journal append failures must degrade durability, not availability.
func TestSubmitSurvivesJournalFailure(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.journal")
	s := newTestServer(t, Options{JournalPath: journalPath})
	// Close the journal out from under the server: appends now fail.
	s.jnl.Close()
	st, err := s.SubmitLifetime(tinyCfg(), 14, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != JobDone {
		t.Fatalf("job with dead journal: %s (%s)", st.State, st.Error)
	}
	if got := s.Metrics().JournalAppendErrors.Value(); got == 0 {
		t.Fatal("journal append errors not counted")
	}
}

// Checkpoint-write failpoints must never fail the simulation: the run
// completes and the errors are counted.
func TestCheckpointWriteFailureDoesNotFailJob(t *testing.T) {
	defer faultinject.DisarmAll()
	if err := faultinject.ArmSpecs("service.checkpoint-write=always"); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{CheckpointDir: t.TempDir()})
	st, err := s.SubmitLifetime(ckptCfg(), 15, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != JobDone {
		t.Fatalf("job with failing checkpoints: %s (%s)", st.State, st.Error)
	}
	if got := s.Metrics().CheckpointWriteErrors.Value(); got == 0 {
		t.Fatal("checkpoint write errors not counted")
	}
}
