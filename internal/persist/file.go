package persist

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/kit-ces/hayat/internal/faultinject"
)

// WriteFileAtomic replaces path with data: temp file in path's own
// directory, write, fsync, rename, so a crash leaves either the old file
// or the new one, never a torn one. The temp file never leaves that
// directory, so a bare filename stays in the working directory and the
// rename never crosses filesystems. failpoint names the caller's
// fault-injection seam, evaluated before anything touches the disk ("":
// none, since an empty name can never be armed).
func WriteFileAtomic(path string, data []byte, failpoint string) error {
	if err := faultinject.Hit(failpoint); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// WriteFramed atomically replaces path with a CRC-framed copy of payload
// (WriteFileAtomic of EncodeFrame(payload)) under the caller's failpoint.
func WriteFramed(path string, payload []byte, failpoint string) error {
	return WriteFileAtomic(path, EncodeFrame(payload), failpoint)
}

// ReadFramed reads the CRC-framed file at path and returns its payload.
// failpoint names the caller's fault-injection seam, evaluated before
// the read. accept, when non-nil, is a further check of the decoded
// payload. A file that fails its frame or accept is quarantined
// (Quarantine): the error then wraps ErrCorruptFrame, and quarantined
// reports whether the rename succeeded. A missing file's error satisfies
// errors.Is(err, fs.ErrNotExist).
func ReadFramed(path, failpoint string, accept func(payload []byte) error) (payload []byte, quarantined bool, err error) {
	if err := faultinject.Hit(failpoint); err != nil {
		return nil, false, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	payload, err = DecodeFrame(raw)
	if err == nil && accept != nil {
		if aerr := accept(payload); aerr != nil {
			err = fmt.Errorf("%w: %w", ErrCorruptFrame, aerr)
		}
	}
	if err != nil {
		_, qerr := Quarantine(path)
		return nil, qerr == nil, err
	}
	return payload, false, nil
}
