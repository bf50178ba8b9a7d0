package persist

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"github.com/kit-ces/hayat/internal/faultinject"
)

// fpQuarantine faults the corrupt-artefact rename so tests can exercise
// a quarantine that itself fails (e.g. read-only cache directory).
const fpQuarantine = "persist.quarantine"

// CRC framing for crash-safe artefacts: the service's write-ahead journal
// records and persisted cache/checkpoint files are wrapped in a frame so
// torn writes and bit rot are detected instead of being parsed as data.
//
// Buffer frames (whole files) carry a header line:
//
//	hayatf1 <crc32c hex8> <payload length>\n<payload>
//
// Line frames (journal and audit-log records) keep the payload on the
// same line:
//
//	hayatf1 <crc32c hex8> <payload>
//
// Both use the Castagnoli polynomial over the payload bytes.

// FrameMagic opens every frame, so a decoder rejects unframed content as
// corrupt.
const FrameMagic = "hayatf1"

// ErrCorruptFrame is wrapped by every framing decode failure (bad magic,
// short header, CRC mismatch, truncated payload), and by ReadFramed when
// its accept check rejects a payload.
var ErrCorruptFrame = errors.New("persist: corrupt frame")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame wraps payload in a CRC-framed envelope with a header line.
func EncodeFrame(payload []byte) []byte {
	header := fmt.Sprintf("%s %08x %d\n", FrameMagic, crc32.Checksum(payload, crcTable), len(payload))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	return append(out, payload...)
}

// DecodeFrame validates a framed buffer and returns its payload.
func DecodeFrame(b []byte) ([]byte, error) {
	header, payload, ok := bytes.Cut(b, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("%w: missing header line", ErrCorruptFrame)
	}
	var crc uint32
	var n int
	if _, err := fmt.Sscanf(string(header), FrameMagic+" %08x %d", &crc, &n); err != nil {
		return nil, fmt.Errorf("%w: bad header %q", ErrCorruptFrame, truncate(header))
	}
	if len(payload) != n {
		return nil, fmt.Errorf("%w: payload %d bytes, header says %d", ErrCorruptFrame, len(payload), n)
	}
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return nil, fmt.Errorf("%w: crc %08x, want %08x", ErrCorruptFrame, got, crc)
	}
	return payload, nil
}

// EncodeFrameLine frames a single-line payload (no trailing newline is
// appended). The payload must not contain newlines.
func EncodeFrameLine(payload []byte) ([]byte, error) {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return nil, errors.New("persist: line-frame payload contains a newline")
	}
	return []byte(fmt.Sprintf("%s %08x %s", FrameMagic, crc32.Checksum(payload, crcTable), payload)), nil
}

// DecodeFrameLine validates one framed line and returns its payload.
func DecodeFrameLine(line []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(line, []byte(FrameMagic+" "))
	if !ok {
		return nil, fmt.Errorf("%w: bad line magic %q", ErrCorruptFrame, truncate(line))
	}
	crcHex, payload, ok := bytes.Cut(rest, []byte{' '})
	if !ok || len(crcHex) != 8 {
		return nil, fmt.Errorf("%w: bad line header %q", ErrCorruptFrame, truncate(line))
	}
	var crc uint32
	if _, err := fmt.Sscanf(string(crcHex), "%08x", &crc); err != nil {
		return nil, fmt.Errorf("%w: bad line crc %q", ErrCorruptFrame, crcHex)
	}
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return nil, fmt.Errorf("%w: line crc %08x, want %08x", ErrCorruptFrame, got, crc)
	}
	return payload, nil
}

// Quarantine renames a corrupt artefact to <path>.corrupt (replacing any
// previous quarantine of the same path) so it is preserved for inspection
// but never re-read as data. It returns the quarantine path.
func Quarantine(path string) (string, error) {
	q := path + ".corrupt"
	if err := faultinject.Hit(fpQuarantine); err != nil {
		return "", fmt.Errorf("persist: quarantining %s: %w", path, err)
	}
	if err := os.Rename(path, q); err != nil {
		return "", fmt.Errorf("persist: quarantining %s: %w", path, err)
	}
	return q, nil
}

func truncate(b []byte) string {
	const max = 32
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}
