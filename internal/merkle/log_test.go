package merkle

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/kit-ces/hayat/internal/persist"
)

func key(i int) string { return fmt.Sprintf("key-%04d", i) }

// A restarted log must rebuild the exact same trees: every ref, root and
// proof identical to the pre-restart state, across a segment boundary.
func TestLogReplayRebuildsTrees(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, corrupt, err := OpenLog(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("fresh log reported %d corrupt lines", corrupt)
	}
	const n = 11 // 2 sealed segments of 4 + an open one of 3
	type want struct {
		ref  Ref
		root Hash
	}
	wants := make([]want, n)
	for i := 0; i < n; i++ {
		ref, added, err := l.Append(key(i), LeafHash(leafData(i)))
		if err != nil || !added {
			t.Fatalf("append %d: added=%v err=%v", i, added, err)
		}
		wants[i].ref = ref
	}
	for i := 0; i < n; i++ {
		_, _, root, err := l.Prove(key(i))
		if err != nil {
			t.Fatal(err)
		}
		wants[i].root = root
	}
	st := l.Stats()
	if st.Leaves != n || st.Segments != 3 || st.SealedSegments != 2 {
		t.Fatalf("stats %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, corrupt, err := OpenLog(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if corrupt != 0 {
		t.Fatalf("replay reported %d corrupt lines", corrupt)
	}
	if st2 := l2.Stats(); st2 != st {
		t.Fatalf("replayed stats %+v, want %+v", st2, st)
	}
	for i := 0; i < n; i++ {
		p, ref, root, err := l2.Prove(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if ref != wants[i].ref {
			t.Fatalf("leaf %d ref %+v, want %+v", i, ref, wants[i].ref)
		}
		if root != wants[i].root {
			t.Fatalf("leaf %d root changed across replay", i)
		}
		if err := Verify(p, leafData(i), root); err != nil {
			t.Fatalf("leaf %d after replay: %v", i, err)
		}
	}
}

// Appending an already-audited key is a no-op returning the original ref.
func TestLogAppendIdempotent(t *testing.T) {
	l, _, err := OpenLog("", 4)
	if err != nil {
		t.Fatal(err)
	}
	ref1, added, err := l.Append("k", LeafHash([]byte("r")))
	if err != nil || !added {
		t.Fatalf("first append: %v %v", added, err)
	}
	ref2, added, err := l.Append("k", LeafHash([]byte("r")))
	if err != nil || added {
		t.Fatalf("second append: added=%v err=%v", added, err)
	}
	if ref1 != ref2 {
		t.Fatalf("refs differ: %+v vs %+v", ref1, ref2)
	}
	if st := l.Stats(); st.Leaves != 1 {
		t.Fatalf("leaves %d, want 1", st.Leaves)
	}
}

// Corrupt and out-of-sequence trailing lines are skipped and counted;
// the intact prefix replays normally.
func TestLogReplaySkipsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, _, err := OpenLog(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := l.Append(key(i), LeafHash(leafData(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Append garbage, a bad-CRC frame, and an out-of-sequence (gapped)
	// but well-framed record.
	gap, err := persist.EncodeFrameLine([]byte(`{"seg":0,"idx":9,"key":"gapped","leaf":"` +
		fmt.Sprintf("%064x", 1) + `"}`))
	if err != nil {
		t.Fatal(err)
	}
	framed, err := persist.EncodeFrameLine([]byte(`{"seg":0,"idx":3,"key":"x","leaf":"00"}`))
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(framed, []byte("idx"), []byte("Idx"), 1) // breaks the CRC
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range [][]byte{[]byte("not a frame"), bad, gap} {
		if _, err := f.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	l2, corrupt, err := OpenLog(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if corrupt != 3 {
		t.Fatalf("corrupt count %d, want 3", corrupt)
	}
	if st := l2.Stats(); st.Leaves != 3 {
		t.Fatalf("leaves %d, want 3", st.Leaves)
	}
	if _, _, _, err := l2.Prove("gapped"); err == nil {
		t.Fatal("gapped record was replayed")
	}
	// The log still accepts new appends at the right position.
	ref, _, err := l2.Append(key(3), LeafHash(leafData(3)))
	if err != nil {
		t.Fatal(err)
	}
	if (ref != Ref{Segment: 0, LeafIndex: 3}) {
		t.Fatalf("next append landed at %+v", ref)
	}
}

// The audit log's on-disk bytes are pinned: a leaf appended under a key
// is written as exactly this line, and replays at the same ref.
func TestLogRecordLineGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.log")
	l, _, err := OpenLog(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := "0123456789abcdef"
	if _, _, err := l.Append(k, LeafHash([]byte("result"))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	const want = `hayatf1 2fa5123c {"seg":0,"idx":0,"key":"0123456789abcdef","leaf":"eb80672daa243a812b9b62d4daa75ccaf17d0cbf00216c6b32ab46068e6803da"}` + "\n"
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("audit log bytes\n%s\nwant\n%s", got, want)
	}
	l2, corrupt, err := OpenLog(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if leaf, ok := l2.Leaf(k); corrupt != 0 || !ok || leaf != LeafHash([]byte("result")) {
		t.Fatalf("golden line replayed as leaf %x (ok %v), corrupt %d", leaf, ok, corrupt)
	}
}

// A memory-only log (empty path) works but persists nothing.
func TestLogMemoryOnly(t *testing.T) {
	l, _, err := OpenLog("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append("k", LeafHash([]byte("r"))); err != nil {
		t.Fatal(err)
	}
	p, _, root, err := l.Prove("k")
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, []byte("r"), root); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
