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

// WriteFramedFile atomically replaces path with a CRC-framed copy of
// payload: temp file in the same directory, write, fsync, rename — the
// same discipline as the journal, so a crash leaves either the old
// entry or the new one, never a torn frame.
func WriteFramedFile(path string, payload []byte) error {
	if err := faultinject.Hit(fpFrameWrite); err != nil {
		return fmt.Errorf("persist: framed write %s: %w", filepath.Base(path), err)
	}
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: framed write %s: %w", base, err)
	}
	_, err = tmp.Write(EncodeFrame(payload))
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
		return fmt.Errorf("persist: framed write %s: %w", base, err)
	}
	return nil
}
