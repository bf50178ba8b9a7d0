package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{
		[]byte(""),
		[]byte("x"),
		[]byte(`{"hello":"world","n":42}` + "\nwith\nnewlines"),
		bytes.Repeat([]byte{0xFF, 0x00}, 1024),
	} {
		framed := EncodeFrame(payload)
		if !bytes.HasPrefix(framed, []byte(FrameMagic+" ")) {
			t.Fatalf("frame %q does not start with the magic", framed[:16])
		}
		got, err := DecodeFrame(framed)
		if err != nil {
			t.Fatalf("DecodeFrame: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload mangled by round trip")
		}
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	payload := []byte(`{"result":"precious simulation output"}`)
	framed := EncodeFrame(payload)
	// Flip one bit at several positions: header, payload start, payload end.
	for _, pos := range []int{0, 9, len(framed) - len(payload), len(framed) - 1} {
		bad := append([]byte(nil), framed...)
		bad[pos] ^= 0x04
		if _, err := DecodeFrame(bad); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("bit flip at %d: err = %v, want ErrCorruptFrame", pos, err)
		}
	}
	// Truncation (torn write).
	for _, n := range []int{0, 5, len(framed) / 2, len(framed) - 1} {
		if _, err := DecodeFrame(framed[:n]); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("truncation to %d bytes: err = %v, want ErrCorruptFrame", n, err)
		}
	}
	// Trailing garbage appended after the payload.
	if _, err := DecodeFrame(append(append([]byte(nil), framed...), "junk"...)); !errors.Is(err, ErrCorruptFrame) {
		t.Error("trailing garbage accepted")
	}
	if _, err := DecodeFrame([]byte("not a frame at all")); !errors.Is(err, ErrCorruptFrame) {
		t.Error("unframed buffer accepted")
	}
}

func TestFrameLineRoundTripAndCorruption(t *testing.T) {
	payload := []byte(`{"op":"submit","id":"job-000001"}`)
	line, err := EncodeFrameLine(payload)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.IndexByte(line, '\n') >= 0 {
		t.Fatal("line frame contains a newline")
	}
	got, err := DecodeFrameLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("line payload mangled")
	}
	for _, pos := range []int{0, 10, len(line) - 1} {
		bad := append([]byte(nil), line...)
		bad[pos] ^= 0x01
		if _, err := DecodeFrameLine(bad); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("line bit flip at %d accepted (err=%v)", pos, err)
		}
	}
	if _, err := DecodeFrameLine(line[:len(line)/2]); !errors.Is(err, ErrCorruptFrame) {
		t.Error("torn line accepted")
	}
	if _, err := EncodeFrameLine([]byte("a\nb")); err == nil {
		t.Error("newline payload accepted by EncodeFrameLine")
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.json")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if q != path+".corrupt" {
		t.Fatalf("quarantine path %q", q)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("original file still present after quarantine")
	}
	if data, err := os.ReadFile(q); err != nil || string(data) != "garbage" {
		t.Fatalf("quarantined content lost: %q, %v", data, err)
	}
	if _, err := Quarantine(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("quarantining a missing file succeeded")
	}
}

// A framed write to a bare filename keeps its temp file in the working
// directory: it neither needs $TMPDIR nor renames across filesystems.
func TestWriteFramedFileBareName(t *testing.T) {
	t.Chdir(t.TempDir())
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	payload := []byte(`{"result":"bare"}`)
	if err := WriteFramedFile("k.json", payload); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("k.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("decoded %q, want %q", got, payload)
	}
}
