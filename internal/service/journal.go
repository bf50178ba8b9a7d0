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

// terminalOp is the journal operation recording a job's terminal state.
var terminalOp = map[JobState]string{JobDone: opDone, JobFailed: opFailed, JobCancelled: opCancelled}

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

// journalEntry is what a job is built from (newJobLocked): a job
// reconstructed from the journal at startup, or a new submit's.
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

// submitRecord is the durable submit record of an accepted job: with
// its admission metadata, so a restart restores its client identity and
// deadlines.
func submitRecord(j *Job) journalRecord {
	req := j.req
	return journalRecord{
		Op:         opSubmit,
		ID:         j.id,
		Key:        j.key,
		Engine:     hayat.EngineVersion,
		Req:        &req,
		Client:     j.client,
		DeadlineMS: timeToMS(j.deadline),
		QueueTTLMS: timeToMS(j.queueDeadline),
		At:         time.Now().UTC(),
	}
}

// terminal records a job leaving the pending set.
func (j *journal) terminal(op, id string) error {
	return j.append([]journalRecord{{Op: op, ID: id, At: time.Now().UTC()}}, false)
}

// append frames recs and writes them with one write and, when sync is
// set, one fsync. Submit records are synced before their submit is
// acknowledged, so all of one request's records land or none are
// acknowledged; a mid-write crash leaves at worst a torn trailing line,
// which replay skips. Terminal records are not synced: if one is lost
// to a crash the job is merely re-run (and typically answered from the
// result cache).
func (j *journal) append(recs []journalRecord, sync bool) error {
	if j == nil {
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
			// json.Marshal output never contains a raw newline.
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
	if ferr := faultinject.Hit(fpJournalAppend); ferr != nil {
		return fmt.Errorf("service: journal append: %w", ferr)
	}
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("service: journal sync: %w", err)
		}
	}
	compact := false
	for _, rec := range recs {
		if rec.Op == opSubmit {
			j.live[rec.ID] = rec
			continue
		}
		if _, ok := j.live[rec.ID]; ok {
			delete(j.live, rec.ID)
			j.dead++
		}
		compact = j.dead >= journalCompactEvery
	}
	if compact {
		return j.compactLocked()
	}
	return nil
}

// compactLocked rewrites the journal with only live submit records, via
// persist.WriteFileAtomic, then reopens it for appending. A failed
// rewrite leaves the old file in place and open; a failed directory
// fsync is returned with the new file already open. Callers hold j.mu (or
// own j exclusively, as openJournal does).
func (j *journal) compactLocked() error {
	// Deterministic record order keeps compaction reproducible.
	ids := make([]string, 0, len(j.live))
	for id := range j.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var buf bytes.Buffer
	for _, id := range ids {
		payload, err := json.Marshal(j.live[id])
		if err != nil {
			return fmt.Errorf("service: journal compact: %w", err)
		}
		framed, err := persist.EncodeFrameLine(payload)
		if err != nil {
			return fmt.Errorf("service: journal compact: %w", err)
		}
		buf.Write(framed)
		buf.WriteByte('\n')
	}
	if err := persist.WriteFileAtomic(j.path, buf.Bytes(), fpJournalCompact); err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
	// Switch to the renamed file before the directory fsync, so a failed
	// fsync leaves the journal appendable. Only a failed reopen closes it.
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if j.f != nil {
		j.f.Close() // the replaced file
	}
	j.f = f // nil when the reopen failed: the journal is closed
	if err != nil {
		return fmt.Errorf("service: journal reopen: %w", err)
	}
	j.dead = 0
	// Rename alone only updates the directory in memory: until the
	// directory entry itself is fsynced, a power loss can resurrect the
	// pre-compaction file — or leave no journal at all.
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
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
