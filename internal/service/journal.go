package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/kit-ces/hayat"
	"github.com/kit-ces/hayat/internal/persist"
)

// Journal failpoints, one per durable-I/O seam (journalFailpoints).
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

// journalFailpoints are the journal's durable-I/O seams, each
// individually faultable so the crash tests can exercise a torn replay,
// a failed append, a compaction that dies mid-rename, and a final sync
// that never lands.
var journalFailpoints = persist.LogFailpoints{
	Replay:  fpJournalReplay,
	Append:  fpJournalAppend,
	Rewrite: fpJournalCompact,
	DirSync: fpJournalDirSync,
	Close:   fpJournalClose,
}

// journal is hayatd's write-ahead job log: a persist.Log of
// journalRecords, fsynced on submit so an acknowledged job survives a
// crash. Replay tolerates torn or corrupt lines by skipping them;
// compaction rewrites the file atomically so it too is crash-safe.
type journal struct {
	mu   sync.Mutex
	log  *persist.Log[journalRecord]
	live map[string]journalRecord // job ID → its submit record
	dead int                      // terminal records since last compaction
}

// openJournal replays the journal at path (creating it if absent) and
// returns the journal opened for appending, the jobs left pending by the
// previous process in submit order, and the number of corrupt lines
// skipped during replay.
func openJournal(path string) (*journal, []journalEntry, int, error) {
	j := &journal{live: make(map[string]journalRecord)}
	var order []string // submit order of live IDs
	log, corrupt, err := persist.OpenLog(path, journalFailpoints, func(rec journalRecord) bool {
		switch rec.Op {
		case opSubmit:
			if rec.Req == nil || rec.ID == "" {
				return false
			}
			if _, ok := j.live[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			j.live[rec.ID] = rec
		case opDone, opFailed, opCancelled:
			delete(j.live, rec.ID)
		default:
			return false
		}
		return true
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("service: opening journal: %w", err)
	}
	j.log = log

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
		j.log.Close()
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

// append writes recs with one write and, when sync is set, one fsync.
// Submit records are synced before their submit is acknowledged, so all
// of one request's records land or none are acknowledged; a mid-write
// crash leaves at worst a torn trailing line, which replay skips.
// Terminal records are not synced: if one is lost to a crash the job is
// merely re-run (and typically answered from the result cache).
func (j *journal) append(recs []journalRecord, sync bool) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(sync, recs...); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
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

// compactLocked rewrites the journal with only live submit records
// (persist.Log.Rewrite). A failed rewrite leaves the old file in place
// and open, and the next terminal record retries it; a failed directory
// fsync is returned with the new file already open. Callers hold j.mu
// (or own j exclusively, as openJournal does).
func (j *journal) compactLocked() error {
	// Deterministic record order keeps compaction reproducible.
	ids := make([]string, 0, len(j.live))
	for id := range j.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	recs := make([]journalRecord, len(ids))
	for i, id := range ids {
		recs[i] = j.live[id]
	}
	err := j.log.Rewrite(recs)
	if err == nil || errors.Is(err, persist.ErrUnsynced) {
		j.dead = 0
	}
	if err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
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
	return j.log.Close()
}
