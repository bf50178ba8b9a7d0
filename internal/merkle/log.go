package merkle

import (
	"encoding/hex"
	"fmt"
	"sync"

	"github.com/kit-ces/hayat/internal/persist"
)

// Failpoints on the audit log's durable-I/O seams.
const (
	fpPersist = "merkle.persist"
	fpReplay  = "merkle.replay"
)

// logFailpoints maps the audit log's seams onto its persist.Log: every
// append and the final fsync share merkle.persist.
var logFailpoints = persist.LogFailpoints{Replay: fpReplay, Append: fpPersist, Close: fpPersist}

// DefaultSegmentLeaves is how many leaves a segment holds before it is
// sealed and a fresh tree starts. Proofs stay shallow (≤ 8 siblings) and
// a sealed segment's root never changes again.
const DefaultSegmentLeaves = 256

// Ref locates one leaf in the segmented log.
type Ref struct {
	Segment   int `json:"segment"`
	LeafIndex int `json:"leaf_index"`
}

// logRecord is one CRC-framed JSONL line of the on-disk audit log.
// Segment and index are recorded redundantly (they are implied by file
// order) so replay can detect dropped or reordered lines instead of
// silently rebuilding a different tree.
type logRecord struct {
	Segment int    `json:"seg"`
	Index   int    `json:"idx"`
	Key     string `json:"key"`
	Leaf    string `json:"leaf"` // hex leaf hash
}

// Log is the durable audit log: an append-only sequence of (key, leaf
// hash) records partitioned into fixed-size segments, each carrying its
// own Merkle tree. Appends are idempotent by key — the content-addressed
// result cache guarantees one result per key, so replaying a recovered
// job lands on the existing leaf. With an empty path the log is
// memory-only (trees still work, nothing survives a restart).
//
// Durability model: records are appended to a persist.Log and fsynced
// when a segment seals (and on Close). A record lost to a crash is
// re-appended the next time its result is served from the cache, so the
// tree self-heals; replay skips corrupt or out-of-sequence lines and
// reports how many.
type Log struct {
	mu        sync.Mutex
	segLeaves int
	segs      []*Tree
	refs      map[string]Ref
	file      *persist.Log[logRecord] // nil: memory-only
	sealed    int                     // segments already fsynced shut
}

// OpenLog replays (or creates) the audit log at path, returning the log
// and the number of corrupt or out-of-sequence lines skipped. An empty
// path yields a memory-only log.
func OpenLog(path string, segLeaves int) (*Log, int, error) {
	if segLeaves <= 0 {
		segLeaves = DefaultSegmentLeaves
	}
	l := &Log{segLeaves: segLeaves, refs: make(map[string]Ref)}
	if path == "" {
		return l, 0, nil
	}
	file, corrupt, err := persist.OpenLog(path, logFailpoints, l.replayLocked)
	if err != nil {
		return nil, 0, fmt.Errorf("merkle: opening audit log: %w", err)
	}
	l.file = file
	l.sealed = len(l.segs)
	if open := l.openSegLocked(); open != nil && open.Len() < l.segLeaves {
		// The trailing segment is still open; everything before it is
		// sealed.
		l.sealed = len(l.segs) - 1
	}
	return l, corrupt, nil
}

// replayLocked rebuilds one record, rejecting anything that does not
// continue the sequence exactly (a gap would silently shift every later
// leaf, making recorded refs lie).
func (l *Log) replayLocked(rec logRecord) bool {
	leaf, err := ParseHash(rec.Leaf)
	if err != nil {
		return false
	}
	if _, dup := l.refs[rec.Key]; dup || rec.Key == "" {
		return false
	}
	want := l.nextRefLocked()
	if rec.Segment != want.Segment || rec.Index != want.LeafIndex {
		return false
	}
	l.appendLeafLocked(rec.Key, leaf)
	return true
}

// nextRefLocked is where the next appended leaf will land.
func (l *Log) nextRefLocked() Ref {
	if open := l.openSegLocked(); open != nil && open.Len() < l.segLeaves {
		return Ref{Segment: len(l.segs) - 1, LeafIndex: open.Len()}
	}
	return Ref{Segment: len(l.segs), LeafIndex: 0}
}

func (l *Log) openSegLocked() *Tree {
	if len(l.segs) == 0 {
		return nil
	}
	return l.segs[len(l.segs)-1]
}

// appendLeafLocked places a leaf at the next slot and records its ref.
func (l *Log) appendLeafLocked(key string, leaf Hash) Ref {
	open := l.openSegLocked()
	if open == nil || open.Len() >= l.segLeaves {
		open = New()
		l.segs = append(l.segs, open)
	}
	idx := open.Append(leaf)
	ref := Ref{Segment: len(l.segs) - 1, LeafIndex: idx}
	l.refs[key] = ref
	return ref
}

// Append records a result leaf under its cache key, returning the leaf's
// position and whether it was newly added (false: the key was already
// audited — byte-identical results make re-appending a no-op). The
// in-memory tree is always updated; a persistence failure is returned so
// the caller can count it, but does not lose the leaf.
func (l *Log) Append(key string, leaf Hash) (Ref, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ref, ok := l.refs[key]; ok {
		return ref, false, nil
	}
	ref := l.appendLeafLocked(key, leaf)
	sealing := l.segs[ref.Segment].Len() == l.segLeaves
	if err := l.persistLocked(logRecord{
		Segment: ref.Segment,
		Index:   ref.LeafIndex,
		Key:     key,
		Leaf:    hex.EncodeToString(leaf[:]),
	}, sealing); err != nil {
		return ref, true, err
	}
	if sealing && l.file != nil {
		l.sealed = ref.Segment + 1
	}
	return ref, true, nil
}

// persistLocked appends one record, fsyncing when the write seals a
// segment (a sealed root must survive a crash; open-segment records are
// re-derived from the result cache if lost).
func (l *Log) persistLocked(rec logRecord, seal bool) error {
	if l.file == nil {
		return nil
	}
	if err := l.file.Append(seal, rec); err != nil {
		return fmt.Errorf("merkle: audit append: %w", err)
	}
	return nil
}

// Leaf returns the audited leaf hash recorded for key. It is the result
// store's verify-on-read hook: bytes served under key must hash to
// exactly this leaf, so a replica (or a rotted local file) that decodes
// cleanly but differs from what this node audited is still rejected.
func (l *Log) Leaf(key string) (Hash, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ref, ok := l.refs[key]
	if !ok {
		return Hash{}, false
	}
	return l.segs[ref.Segment].leaves[ref.LeafIndex], true
}

// Prove returns the inclusion proof for a key's leaf together with its
// position and the root it verifies against (the segment's current
// root — stable forever once the segment seals).
func (l *Log) Prove(key string) (Proof, Ref, Hash, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ref, ok := l.refs[key]
	if !ok {
		return Proof{}, Ref{}, Hash{}, fmt.Errorf("merkle: no audited leaf for key %s", key)
	}
	tree := l.segs[ref.Segment]
	p, err := tree.Prove(ref.LeafIndex)
	if err != nil {
		return Proof{}, Ref{}, Hash{}, err
	}
	return p, ref, tree.Root(), nil
}

// Stats snapshots the log's shape for /metrics.
type Stats struct {
	Leaves         int `json:"leaves"`
	Segments       int `json:"segments"`
	SealedSegments int `json:"sealed_segments"`
}

// Stats reports leaf and segment counts.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, t := range l.segs {
		n += t.Len()
	}
	return Stats{Leaves: n, Segments: len(l.segs), SealedSegments: l.sealed}
}

// Close fsyncs and closes the audit file. Safe on a memory-only log.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	err := l.file.Close()
	l.file = nil
	if err != nil {
		return fmt.Errorf("merkle: closing audit log: %w", err)
	}
	return nil
}
