package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/kit-ces/hayat/internal/merkle"
)

// verifyProof runs the client-side check a ProofResponse is for.
func verifyProof(t *testing.T, pr ProofResponse, result []byte) error {
	t.Helper()
	root, err := merkle.ParseHash(pr.Root)
	if err != nil {
		t.Fatal(err)
	}
	return merkle.Verify(pr.Proof, result, root)
}

// Every terminal result must have a retrievable inclusion proof, and a
// single flipped byte in the result or the proof must be rejected.
func TestProofRoundTrip(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	st, err := s.SubmitLifetime(tinyCfg(), 1, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != JobDone {
		t.Fatalf("job %s (%s)", st.State, st.Error)
	}

	pr, err := s.Proof(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Key != st.Key || pr.JobID != st.ID {
		t.Fatalf("proof identity %+v for job %s/%s", pr, st.ID, st.Key)
	}
	if err := verifyProof(t, pr, st.Result); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}

	flipped := append([]byte(nil), st.Result...)
	flipped[len(flipped)/2] ^= 1
	if err := verifyProof(t, pr, flipped); !errors.Is(err, merkle.ErrBadProof) {
		t.Fatalf("flipped result byte: %v, want ErrBadProof", err)
	}
	if len(pr.Proof.Path) > 0 {
		bad := pr
		bad.Proof.Path = append([]string(nil), pr.Proof.Path...)
		raw, _ := hex.DecodeString(bad.Proof.Path[0])
		raw[0] ^= 1
		bad.Proof.Path[0] = hex.EncodeToString(raw)
		if err := verifyProof(t, bad, st.Result); !errors.Is(err, merkle.ErrBadProof) {
			t.Fatalf("flipped proof byte: %v, want ErrBadProof", err)
		}
	}
	badRoot := pr
	rraw, _ := hex.DecodeString(pr.Root)
	rraw[3] ^= 0x40
	badRoot.Root = hex.EncodeToString(rraw)
	if err := verifyProof(t, badRoot, st.Result); !errors.Is(err, merkle.ErrBadProof) {
		t.Fatalf("flipped root byte: %v, want ErrBadProof", err)
	}

	// A second job grows the tree; the first proof's segment root moves
	// with it (unsealed segment) — re-fetching proves both.
	st2, err := s.SubmitLifetime(tinyCfg(), 2, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitDone(t, s, st2.ID)
	for _, job := range []JobStatus{st, st2} {
		full, err := s.Status(job.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Proof(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifyProof(t, p, full.Result); err != nil {
			t.Fatalf("job %s after tree growth: %v", job.ID, err)
		}
	}

	if _, err := s.Proof("job-does-not-exist"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v", err)
	}
}

// The remote-client verification path: GET /v1/jobs/{id}/result serves
// the canonical bytes the audit leaf covers (the status envelope
// re-indents embedded JSON and must NOT be used for verification), and
// the proof from GET /v1/jobs/{id}/proof verifies against them.
func TestProofHTTPRoundTrip(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := s.SubmitLifetime(tinyCfg(), 21, "hayat")
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	result, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result endpoint: HTTP %d", resp.StatusCode)
	}
	if !bytes.Equal(result, st.Result) {
		t.Fatal("raw result endpoint does not serve the canonical bytes")
	}

	var pr ProofResponse
	presp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/proof")
	if err != nil {
		t.Fatal(err)
	}
	derr := json.NewDecoder(presp.Body).Decode(&pr)
	presp.Body.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("proof endpoint: HTTP %d", presp.StatusCode)
	}
	if err := verifyProof(t, pr, result); err != nil {
		t.Fatalf("HTTP-fetched proof rejected: %v", err)
	}

	// A queued/unknown job has no proof: 404.
	presp, err = http.Get(ts.URL + "/v1/jobs/no-such-job/proof")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusNotFound {
		t.Fatalf("proof of unknown job: HTTP %d, want 404", presp.StatusCode)
	}
}

// Proofs must survive a restart: the audit log replays, sealed roots are
// identical, and a cache-hit resubmit proves against the replayed tree —
// flipped bytes still rejected.
func TestProofSurvivesRestart(t *testing.T) {
	base := t.TempDir()
	opts := Options{
		Workers:            2,
		DataDir:            filepath.Join(base, "data"),
		JournalPath:        filepath.Join(base, "jobs.journal"),
		AuditPath:          filepath.Join(base, "audit.log"),
		AuditSegmentLeaves: 2, // seal a segment within the test
	}
	s1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	results := map[int64][]byte{}
	var rootSealed string
	for seed := int64(1); seed <= 3; seed++ {
		st, serr := s1.SubmitLifetime(tinyCfg(), seed, "hayat")
		if serr != nil {
			t.Fatal(serr)
		}
		st = waitDone(t, s1, st.ID)
		if st.State != JobDone {
			t.Fatalf("seed %d: %s (%s)", seed, st.State, st.Error)
		}
		results[seed] = st.Result
		if seed == 2 {
			pr, perr := s1.Proof(st.ID)
			if perr != nil {
				t.Fatal(perr)
			}
			rootSealed = pr.Root // segment 0 seals at 2 leaves
		}
	}
	if st := s1.AuditStats(); st.Leaves != 3 || st.SealedSegments != 1 {
		t.Fatalf("pre-restart audit stats %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	s2 := newTestServer(t, opts)
	if st := s2.AuditStats(); st.Leaves != 3 || st.Segments != 2 || st.SealedSegments != 1 {
		t.Fatalf("post-restart audit stats %+v", st)
	}
	for seed := int64(1); seed <= 3; seed++ {
		// Same request → cache hit under a fresh job ID; its proof must
		// verify against the replayed tree.
		st, serr := s2.SubmitLifetime(tinyCfg(), seed, "hayat")
		if serr != nil {
			t.Fatal(serr)
		}
		if !st.Cached || st.State != JobDone {
			t.Fatalf("seed %d not served from cache after restart: %+v", seed, st)
		}
		if !bytes.Equal(st.Result, results[seed]) {
			t.Fatalf("seed %d result changed across restart", seed)
		}
		pr, perr := s2.Proof(st.ID)
		if perr != nil {
			t.Fatal(perr)
		}
		if err := verifyProof(t, pr, st.Result); err != nil {
			t.Fatalf("seed %d after replay: %v", seed, err)
		}
		flipped := append([]byte(nil), st.Result...)
		flipped[0] ^= 1
		if err := verifyProof(t, pr, flipped); !errors.Is(err, merkle.ErrBadProof) {
			t.Fatalf("seed %d flipped byte after replay: %v, want ErrBadProof", seed, err)
		}
		if seed == 2 && pr.Root != rootSealed {
			t.Fatalf("sealed segment root changed across restart: %s → %s", rootSealed, pr.Root)
		}
	}
}

// A lost (truncated) audit log self-heals: serving the result from the
// cache re-records its leaf, so the proof comes back — whether the cache
// hit answers a single submit or a batch item.
func TestAuditSelfHealsAfterLoss(t *testing.T) {
	hitSingle := func(t *testing.T, s *Server) (JobStatus, []byte) {
		st, err := s.SubmitLifetime(tinyCfg(), 7, "hayat")
		if err != nil {
			t.Fatal(err)
		}
		return st, st.Result
	}
	hitBatch := func(t *testing.T, s *Server) (JobStatus, []byte) {
		res, err := s.SubmitBatch([]BatchItem{tinyItem(7)})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Job == nil {
			t.Fatalf("batch item not admitted: %+v", res[0])
		}
		data, err := s.Result(res[0].Job.ID)
		if err != nil {
			t.Fatal(err)
		}
		return *res[0].Job, data
	}
	for name, hit := range map[string]func(*testing.T, *Server) (JobStatus, []byte){
		"single": hitSingle,
		"batch":  hitBatch,
	} {
		t.Run(name, func(t *testing.T) {
			base := t.TempDir()
			opts := Options{
				Workers:   2,
				DataDir:   filepath.Join(base, "data"),
				AuditPath: filepath.Join(base, "audit.log"),
			}
			s1 := newTestServer(t, opts)
			st, err := s1.SubmitLifetime(tinyCfg(), 7, "hayat")
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, s1, st.ID)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s1.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}

			// Simulate the crash that loses the (unsealed, unsynced) audit tail.
			if err := os.Truncate(opts.AuditPath, 0); err != nil {
				t.Fatal(err)
			}

			s2 := newTestServer(t, opts)
			if stats := s2.AuditStats(); stats.Leaves != 0 {
				t.Fatalf("audit leaves %d after loss, want 0", stats.Leaves)
			}
			st, data := hit(t, s2)
			if !st.Cached {
				t.Fatalf("expected cache hit, got %+v", st)
			}
			pr, err := s2.Proof(st.ID)
			if err != nil {
				t.Fatalf("proof after self-heal: %v", err)
			}
			if err := verifyProof(t, pr, data); err != nil {
				t.Fatal(err)
			}
			if stats := s2.AuditStats(); stats.Leaves != 1 {
				t.Fatalf("audit leaves %d after self-heal, want 1", stats.Leaves)
			}
		})
	}
}
