package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/kit-ces/hayat/internal/faultinject"
)

func testRequest(seed int64) request {
	return request{Kind: KindLifetime, Config: NormalizeConfig(tinyCfg()), Policy: "Hayat", Seed: seed, Chips: 1}
}

func TestJournalReplayPendingJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, pending, corrupt, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 || corrupt != 0 {
		t.Fatalf("fresh journal: pending %d corrupt %d", len(pending), corrupt)
	}

	reqA, reqB, reqC := testRequest(1), testRequest(2), testRequest(3)
	for i, r := range []request{reqA, reqB, reqC} {
		id := fmt.Sprintf("job-%06d", i+1)
		if err := j.submitted(id, r.key(), r); err != nil {
			t.Fatal(err)
		}
	}
	// job-000002 finished before the "crash"; the others were pending.
	if err := j.terminal(opDone, "job-000002"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, pending, corrupt, err = openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("%d corrupt lines in a clean journal", corrupt)
	}
	if len(pending) != 2 {
		t.Fatalf("pending %d jobs, want 2", len(pending))
	}
	if pending[0].ID != "job-000001" || pending[1].ID != "job-000003" {
		t.Fatalf("pending order %q, %q", pending[0].ID, pending[1].ID)
	}
	if pending[0].Key != reqA.key() || pending[0].Req.Seed != 1 {
		t.Fatalf("replayed request mangled: %+v", pending[0])
	}
}

func TestJournalSkipsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(7)
	if err := j.submitted("job-000001", req.key(), req); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn append plus a bit flip in an earlier line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte{}, data...)
	flipped[len(flipped)/2] ^= 0x40
	flipped = append(flipped, []byte("hayatf1 deadbeef {\"op\":\"torn")...)
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	_, pending, corrupt, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 2 {
		t.Fatalf("corrupt %d, want 2 (bit flip + torn tail)", corrupt)
	}
	if len(pending) != 0 {
		t.Fatalf("corrupt lines produced %d pending jobs", len(pending))
	}
}

func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Churn enough terminal records to trigger an in-flight compaction.
	for i := 0; i < journalCompactEvery+8; i++ {
		id := fmt.Sprintf("job-%06d", i+1)
		req := testRequest(int64(i))
		if err := j.submitted(id, req.key(), req); err != nil {
			t.Fatal(err)
		}
		if err := j.terminal(opDone, id); err != nil {
			t.Fatal(err)
		}
	}
	live := testRequest(999)
	if err := j.submitted("job-999999", live.key(), live); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Compaction must have dropped the dead churn: the file holds a
	// handful of lines, not 2×(compactEvery+8).
	if lines := bytes.Count(data, []byte("\n")); lines > 20 {
		t.Fatalf("journal holds %d lines after compaction", lines)
	}
	_, pending, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != "job-999999" {
		t.Fatalf("post-compaction pending: %+v", pending)
	}
}

// The directory fsync after the compaction rename is a real durability
// seam: it must be reachable (the failpoint fires) and its failure must
// surface as a compaction error, not vanish.
func TestJournalCompactionDirSyncFailure(t *testing.T) {
	defer faultinject.DisarmAll()
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(1)
	if err := j.submitted("job-000001", req.key(), req); err != nil {
		t.Fatal(err)
	}

	if err := faultinject.ArmSpecs(fpJournalDirSync + "=always"); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	cerr := j.compactLocked()
	j.mu.Unlock()
	if cerr == nil {
		t.Fatal("compaction succeeded with the dir-sync failpoint armed")
	}
	if !strings.Contains(cerr.Error(), "journal compact") || !strings.Contains(cerr.Error(), "dir sync") {
		t.Fatalf("error %v does not identify the dir-sync seam", cerr)
	}
	faultinject.DisarmAll()

	// The journal data itself must have survived the failed fsync (the
	// rename already happened; only the durability guarantee was lost).
	_, pending, corrupt, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 || len(pending) != 1 || pending[0].ID != "job-000001" {
		t.Fatalf("post-failure replay: pending %+v, corrupt %d", pending, corrupt)
	}
}

// A compaction whose directory fsync fails has already renamed the new
// file into place, so the journal must keep appending to it: a submit
// accepted after the failure is journalled and replays as pending.
func TestJournalAppendsAfterFailedCompactionDirSync(t *testing.T) {
	defer faultinject.DisarmAll()
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(1)
	for i := 0; i < journalCompactEvery-1; i++ {
		id := fmt.Sprintf("job-%06d", i+1)
		if err := j.submitted(id, req.key(), req); err != nil {
			t.Fatal(err)
		}
		if err := j.terminal(opDone, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := faultinject.ArmSpecs(fpJournalDirSync + "=fail(1)"); err != nil {
		t.Fatal(err)
	}
	last := fmt.Sprintf("job-%06d", journalCompactEvery)
	if err := j.submitted(last, req.key(), req); err != nil {
		t.Fatal(err)
	}
	// This terminal record triggers the compaction the failpoint fails.
	if err := j.terminal(opDone, last); err == nil || !strings.Contains(err.Error(), "dir sync") {
		t.Fatalf("compaction error %v, want the injected dir-sync failure", err)
	}
	if err := j.submitted("job-999999", req.key(), req); err != nil {
		t.Fatalf("submit after a failed compaction dir sync: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, pending, corrupt, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 || len(pending) != 1 || pending[0].ID != "job-999999" {
		t.Fatalf("replay after the failed dir sync: pending %+v, corrupt %d", pending, corrupt)
	}
}

// submitted durably records an accepted job before the submit is
// acknowledged: the record is framed, appended and fsynced.
func (j *journal) submitted(id, key string, req request) error {
	return j.append([]journalRecord{submitRecord(&Job{id: id, key: key, req: req})}, true)
}
