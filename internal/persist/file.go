package persist

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/kit-ces/hayat/internal/faultinject"
)

// fpFrameWrite is the failpoint on the framed-file write seam (the
// store's durable tier).
const fpFrameWrite = "persist.frame-write"

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

// WriteFramedFile atomically replaces path with a CRC-framed copy of
// payload (WriteFileAtomic, the same discipline as the journal).
func WriteFramedFile(path string, payload []byte) error {
	if err := WriteFileAtomic(path, EncodeFrame(payload), fpFrameWrite); err != nil {
		return fmt.Errorf("persist: framed write %s: %w", filepath.Base(path), err)
	}
	return nil
}
