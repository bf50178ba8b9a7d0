package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/kit-ces/hayat/internal/faultinject"
)

// maxLogLine caps one replayed log line. Replay stops at the first line
// longer than this, as at the end of the file.
const maxLogLine = 16 << 20

// errLogClosed is returned by an Append to a closed Log.
var errLogClosed = errors.New("persist: log is closed")

// ErrUnsynced is wrapped by a Rewrite that replaced the file and
// reopened it but whose directory fsync failed: the log holds the new
// records and accepts appends, but the rename may not survive a power
// loss.
var ErrUnsynced = errors.New("persist: rewrite not durable")

// LogFailpoints names a Log owner's fault-injection seams, each evaluated
// before its step touches the disk ("": a seam the owner does not
// fault).
type LogFailpoints struct {
	Replay  string // OpenLog, before the file is read
	Append  string // each Append, before the write
	Rewrite string // each Rewrite, before the temp file is written
	DirSync string // each Rewrite, before the directory fsync
	Close   string // Close, before the final fsync
}

// Log is an append-only file of CRC-framed JSON lines, one record of
// type T per line (EncodeFrameLine): hayatd's job journal and the Merkle
// audit log. Replay skips torn or corrupt lines and counts them. A Log
// is not safe for concurrent use; its owner serialises calls.
type Log[T any] struct {
	path string
	fp   LogFailpoints
	f    *os.File // nil once closed
}

// OpenLog creates path's directory, replays the file at path (a missing
// file reads as empty) and opens it for appending, creating it if
// absent. replay receives each decoded record in file order. A line
// whose frame or JSON fails, or that replay rejects, is skipped and
// counted in the returned corrupt count; empty lines are ignored.
func OpenLog[T any](path string, fp LogFailpoints, replay func(T) bool) (*Log[T], int, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, fmt.Errorf("persist: creating log dir: %w", err)
		}
	}
	if err := faultinject.Hit(fp.Replay); err != nil {
		return nil, 0, fmt.Errorf("persist: replaying %s: %w", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("persist: reading %s: %w", path, err)
	}
	corrupt := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), maxLogLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec T
		payload, err := DecodeFrameLine(line)
		if err != nil || json.Unmarshal(payload, &rec) != nil || !replay(rec) {
			corrupt++
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: opening %s: %w", path, err)
	}
	return &Log[T]{path: path, fp: fp, f: f}, corrupt, nil
}

// Append writes recs as framed lines with one write and, when sync is
// set, one fsync. A crash mid-write leaves at worst a torn trailing
// line, which replay skips.
func (l *Log[T]) Append(sync bool, recs ...T) error {
	if l.f == nil {
		return errLogClosed
	}
	buf, err := frameLines(recs)
	if err != nil {
		return err
	}
	if err := faultinject.Hit(l.fp.Append); err != nil {
		return fmt.Errorf("persist: appending to %s: %w", l.path, err)
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("persist: appending to %s: %w", l.path, err)
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("persist: syncing %s: %w", l.path, err)
		}
	}
	return nil
}

// Rewrite replaces the file with recs (WriteFileAtomic), reopens it for
// appending, then fsyncs the directory: a rename only updates the
// directory in memory, so until the directory is fsynced a power loss
// can resurrect the old file, or leave none. A failed write leaves the
// old file in place and open. The reopen comes before the directory
// fsync, so a failed fsync (ErrUnsynced) leaves the new file open; only
// a failed reopen closes the log.
func (l *Log[T]) Rewrite(recs []T) error {
	buf, err := frameLines(recs)
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(l.path, buf, l.fp.Rewrite); err != nil {
		return fmt.Errorf("persist: rewriting %s: %w", l.path, err)
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if l.f != nil {
		l.f.Close() // the replaced file
	}
	l.f = f // nil when the reopen failed: the log is closed
	if err != nil {
		return fmt.Errorf("persist: reopening %s: %w", l.path, err)
	}
	if err := syncDir(filepath.Dir(l.path), l.fp.DirSync); err != nil {
		return fmt.Errorf("%w: %w", ErrUnsynced, err)
	}
	return nil
}

// Close fsyncs and closes the file. Closing a closed Log does nothing.
func (l *Log[T]) Close() error {
	if l.f == nil {
		return nil
	}
	err := faultinject.Hit(l.fp.Close)
	if err == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// frameLines marshals each record as one CRC-framed line.
func frameLines[T any](recs []T) ([]byte, error) {
	var buf bytes.Buffer
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("persist: log record: %w", err)
		}
		// json.Marshal output never contains a raw newline.
		line, err := EncodeFrameLine(payload)
		if err != nil {
			return nil, fmt.Errorf("persist: log record: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// filesystems reject fsync on directories; those errors are still
// surfaced — the caller decides whether durability is best-effort.
func syncDir(dir, failpoint string) error {
	if err := faultinject.Hit(failpoint); err != nil {
		return fmt.Errorf("persist: dir sync %s: %w", dir, err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: dir sync %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: dir sync %s: %w", dir, err)
	}
	return nil
}
