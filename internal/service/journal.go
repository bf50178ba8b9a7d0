package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/faultinject"
	"github.com/kit-ces/hayat/internal/persist"
)

// Journal failpoints: every durable-I/O seam of the write-ahead log is
// individually faultable so the crash tests can exercise a torn replay,
// a failed append, a compaction that dies mid-rename, and a final sync
// that never lands.
const (
	fpJournalReplay  = "service.journal-replay"
	fpJournalAppend  = "service.journal-append"
	fpJournalCompact = "service.journal-compact"
	fpJournalDirSync = "service.journal-dirsync"
	fpJournalClose   = "service.journal-close"
	// fpBatchFlush sits on the batched submit path's single write+fsync;
	// its hit count is the proof that a whole batch cost one durable append.
	fpBatchFlush = "service.batch-flush"
)

// Journal operations. A job's life in the journal is one opSubmit record
// followed by at most one terminal record; jobs whose terminal record is
// missing at startup were queued or running when the process died and are
// re-enqueued.
const (
	opSubmit    = "submit"
	opDone      = "done"
	opFailed    = "failed"
	opCancelled = "cancelled"
)

// journalCompactEvery triggers a rewrite once this many terminal records
// have accumulated, bounding file growth under steady job churn.
const journalCompactEvery = 256

// journalRecord is one JSONL journal line (CRC-framed on disk). Client
// and the absolute deadlines (unix milliseconds; zero when unset) let a
// restart restore the job's fairness identity and expiry — a job whose
// deadline passed during the outage is evicted, not run. Engine is the
// engine version Key was computed under; records from before the field
// existed read as 0, the unversioned engine.
type journalRecord struct {
	Op         string    `json:"op"`
	ID         string    `json:"id"`
	Key        string    `json:"key,omitempty"`
	Engine     int       `json:"engine,omitempty"`
	Req        *request  `json:"req,omitempty"`
	Client     string    `json:"client,omitempty"`
	DeadlineMS int64     `json:"deadline_ms,omitempty"`
	QueueTTLMS int64     `json:"queue_ttl_ms,omitempty"`
	At         time.Time `json:"at"`
}

// journalEntry is a job reconstructed from the journal at startup.
type journalEntry struct {
	ID            string
	Key           string
	Engine        int // engine version of Key
	Req           request
	Client        string
	Deadline      time.Time // zero when the job had none
	QueueDeadline time.Time
}

// msToTime converts unix milliseconds to a time, mapping 0 to the zero time.
func msToTime(ms int64) time.Time {
	if ms == 0 {
		return time.Time{}
	}
	return time.UnixMilli(ms)
}

// timeToMS converts a time to unix milliseconds, mapping zero to 0.
func timeToMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// journal is hayatd's write-ahead job log: an append-only JSONL file whose
// lines are CRC32C-framed (persist.EncodeFrameLine), fsynced on submit so
// an acknowledged job survives a crash. Replay tolerates torn or corrupt
// trailing lines by skipping them; compaction rewrites the file via
// temp + rename so it too is crash-safe.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	live map[string]journalRecord // job ID → its submit record
	dead int                      // terminal records since last compaction
}

// openJournal replays the journal at path (creating it if absent) and
// returns the journal opened for appending, the jobs left pending by the
// previous process in submit order, and the number of corrupt lines
// skipped during replay.
func openJournal(path string) (*journal, []journalEntry, int, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, 0, fmt.Errorf("service: creating journal dir: %w", err)
		}
	}
	j := &journal{path: path, live: make(map[string]journalRecord)}

	if ferr := faultinject.Hit(fpJournalReplay); ferr != nil {
		return nil, nil, 0, fmt.Errorf("service: journal replay: %w", ferr)
	}
	corrupt := 0
	var order []string // submit order of live IDs
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			payload, err := persist.DecodeFrameLine(line)
			if err != nil {
				corrupt++
				continue
			}
			var rec journalRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				corrupt++
				continue
			}
			switch rec.Op {
			case opSubmit:
				if rec.Req == nil || rec.ID == "" {
					corrupt++
					continue
				}
				if _, ok := j.live[rec.ID]; !ok {
					order = append(order, rec.ID)
				}
				j.live[rec.ID] = rec
			case opDone, opFailed, opCancelled:
				delete(j.live, rec.ID)
			default:
				corrupt++
			}
		}
	} else if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("service: reading journal: %w", err)
	}

	var pending []journalEntry
	for _, id := range order {
		rec, ok := j.live[id]
		if !ok {
			continue
		}
		pending = append(pending, journalEntry{
			ID:            rec.ID,
			Key:           rec.Key,
			Engine:        rec.Engine,
			Req:           *rec.Req,
			Client:        rec.Client,
			Deadline:      msToTime(rec.DeadlineMS),
			QueueDeadline: msToTime(rec.QueueTTLMS),
		})
	}

	// Start from a compacted file: only live submits survive the rewrite,
	// so a crash loop cannot grow the journal without bound.
	if err := j.compactLocked(); err != nil {
		return nil, nil, 0, err
	}
	return j, pending, corrupt, nil
}

// submittedWith durably records an accepted job before the submit is
// acknowledged — the record is framed, appended and fsynced — carrying
// the job's admission metadata so a restart restores its client identity
// and deadlines.
func (j *journal) submittedWith(id, key string, req request, client string, deadline, queueDeadline time.Time) error {
	if j == nil {
		return nil
	}
	return j.append(submitRecord(id, key, req, client, deadline, queueDeadline), true)
}

// submitRecord builds the durable submit record for one accepted job.
func submitRecord(id, key string, req request, client string, deadline, queueDeadline time.Time) journalRecord {
	return journalRecord{
		Op:         opSubmit,
		ID:         id,
		Key:        key,
		Engine:     hayat.EngineVersion,
		Req:        &req,
		Client:     client,
		DeadlineMS: timeToMS(deadline),
		QueueTTLMS: timeToMS(queueDeadline),
		At:         time.Now().UTC(),
	}
}

// submitBatch durably records a whole batch of accepted jobs with ONE
// write and ONE fsync — the journal half of the batched-submit bargain.
// All records land or none are acknowledged; a mid-write crash leaves at
// worst a torn trailing line, which replay skips.
func (j *journal) submitBatch(recs []journalRecord) error {
	if j == nil || len(recs) == 0 {
		return nil
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("service: journal record: %w", err)
		}
		framed, err := persist.EncodeFrameLine(payload)
		if err != nil {
			return fmt.Errorf("service: journal record: %w", err)
		}
		buf.Write(framed)
		buf.WriteByte('\n')
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("service: journal is closed")
	}
	if ferr := faultinject.Hit(fpBatchFlush); ferr != nil {
		return fmt.Errorf("service: journal batch append: %w", ferr)
	}
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("service: journal batch append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("service: journal batch sync: %w", err)
	}
	for _, rec := range recs {
		j.live[rec.ID] = rec
	}
	return nil
}

// terminal records a job leaving the pending set. It is not fsynced — if
// the record is lost to a crash the job is merely re-run (and typically
// answered from the result cache).
func (j *journal) terminal(op, id string) error {
	if j == nil {
		return nil
	}
	return j.append(journalRecord{Op: op, ID: id, At: time.Now().UTC()}, false)
}

func (j *journal) append(rec journalRecord, sync bool) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: journal record: %w", err)
	}
	framed, err := persist.EncodeFrameLine(payload)
	if err != nil {
		// json.Marshal output never contains a raw newline.
		return fmt.Errorf("service: journal record: %w", err)
	}
	line := append(framed, '\n')

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("service: journal is closed")
	}
	if ferr := faultinject.Hit(fpJournalAppend); ferr != nil {
		return fmt.Errorf("service: journal append: %w", ferr)
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("service: journal sync: %w", err)
		}
	}
	switch rec.Op {
	case opSubmit:
		j.live[rec.ID] = rec
	case opDone, opFailed, opCancelled:
		if _, ok := j.live[rec.ID]; ok {
			delete(j.live, rec.ID)
			j.dead++
		}
		if j.dead >= journalCompactEvery {
			return j.compactLocked()
		}
	}
	return nil
}

// compactLocked rewrites the journal with only live submit records, via a
// temp file renamed into place. Callers hold j.mu (or own j exclusively,
// as openJournal does).
func (j *journal) compactLocked() error {
	if ferr := faultinject.Hit(fpJournalCompact); ferr != nil {
		return fmt.Errorf("service: journal compact: %w", ferr)
	}
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
	// Deterministic record order keeps compaction reproducible.
	ids := make([]string, 0, len(j.live))
	for id := range j.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		payload, merr := json.Marshal(j.live[id])
		if merr == nil {
			var framed []byte
			if framed, merr = persist.EncodeFrameLine(payload); merr == nil {
				_, merr = tmp.Write(append(framed, '\n'))
			}
		}
		if merr != nil {
			err = merr
			break
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), j.path)
	}
	if err == nil {
		// Rename alone only updates the directory in memory: until the
		// directory entry itself is fsynced, a power loss can resurrect
		// the pre-compaction file — or leave no journal at all.
		err = syncDir(filepath.Dir(j.path))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: journal compact: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("service: journal reopen: %w", err)
	}
	j.f = f
	j.dead = 0
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// filesystems reject fsync on directories; those errors are still
// surfaced — the caller decides whether durability is best-effort.
func syncDir(dir string) error {
	if ferr := faultinject.Hit(fpJournalDirSync); ferr != nil {
		return fmt.Errorf("service: journal dir sync: %w", ferr)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("service: journal dir sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("service: journal dir sync: %w", err)
	}
	return nil
}

// Close flushes and closes the journal file.
func (j *journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := faultinject.Hit(fpJournalClose)
	if err == nil {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
