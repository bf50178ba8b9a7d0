package merkle

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/kit-ces/hayat/internal/persist"
)

// FuzzVerifyProof feeds adversarial proofs to the client-side verifier:
// whatever the bytes, Verify must terminate without panicking, and a
// proof that verifies against an honest tree's root must actually be the
// honest proof's reconstruction (no second preimage by index games).
func FuzzVerifyProof(f *testing.F) {
	tree := New()
	for i := 0; i < 7; i++ {
		tree.Append(LeafHash(leafData(i)))
	}
	root := tree.Root()
	honest, err := tree.Prove(3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(3, 7, strings.Join(honest.Path, ","), []byte("result-3"))
	f.Add(0, 1, "", []byte("result-0"))
	f.Add(-1, 7, "", []byte{})
	f.Add(3, 7, "zz,not-hex", []byte("result-3"))
	f.Add(6, 7, strings.Repeat(strings.Repeat("ab", HashSize)+",", 64), []byte("x"))

	f.Fuzz(func(t *testing.T, idx, size int, pathCSV string, data []byte) {
		p := Proof{LeafIndex: idx, TreeSize: size}
		if pathCSV != "" {
			p.Path = strings.Split(pathCSV, ",")
		}
		err := Verify(p, data, root) // must not panic or loop
		if err != nil {
			return
		}
		// Anything accepted must bind the data to a real leaf of the tree
		// whose root we verified against. (The tree size is only partially
		// bound by an inclusion proof — sizes whose bit patterns chain
		// identically verify too; the root is the trust anchor.)
		if idx < 0 || idx >= tree.Len() {
			t.Fatalf("accepted proof for leaf index %d outside the tree", idx)
		}
		if LeafHash(data) != tree.leaves[idx] {
			t.Fatalf("accepted wrong leaf data for index %d", idx)
		}
		want, err := tree.Prove(idx)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Path) != len(want.Path) {
			t.Fatalf("accepted path of %d siblings, honest proof has %d", len(p.Path), len(want.Path))
		}
		for i := range p.Path {
			// Hex case is not canonical; compare the decoded hashes.
			if !strings.EqualFold(p.Path[i], want.Path[i]) {
				t.Fatalf("accepted non-honest path at element %d", i)
			}
		}
	})
}

// FuzzParseHash must reject everything that is not exactly a 32-byte hex
// string, without panicking.
func FuzzParseHash(f *testing.F) {
	h := LeafHash([]byte("seed"))
	f.Add(hex.EncodeToString(h[:]))
	f.Add("")
	f.Add("00")
	f.Add(strings.Repeat("g", 64))
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseHash(s)
		if err != nil {
			return
		}
		if hex.EncodeToString(got[:]) != strings.ToLower(s) {
			t.Fatalf("ParseHash(%q) = %x round-trip mismatch", s, got)
		}
	})
}

// FuzzAuditReplay replays arbitrary bytes as an audit log file. OpenLog
// must never panic; every record it accepts must continue the sequence
// (the accepted leaves fill segments 0, 1, … in order with no gap); every
// non-empty line is either accepted or counted corrupt; and a second
// OpenLog of the same file rebuilds the same segment roots and the same
// corrupt count.
func FuzzAuditReplay(f *testing.F) {
	line := func(seg, idx int, key string, leaf Hash) []byte {
		payload, _ := json.Marshal(logRecord{Segment: seg, Index: idx, Key: key, Leaf: hex.EncodeToString(leaf[:])})
		framed, _ := persist.EncodeFrameLine(payload)
		return append(framed, '\n')
	}
	var three []byte
	for i := 0; i < 3; i++ {
		three = append(three, line(i/2, i%2, key(i), LeafHash(leafData(i)))...)
	}
	f.Add([]byte(""))
	f.Add(three)
	f.Add(append(line(0, 0, key(0), LeafHash(leafData(0))), line(0, 0, key(0), LeafHash(leafData(0)))...))
	f.Add(append(line(0, 0, key(0), LeafHash(leafData(0))), line(1, 0, key(1), LeafHash(leafData(1)))...))
	f.Add([]byte("hayatf1 deadbeef {\"seg\":0}\n\r\nnot a frame\nhayatf1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "audit.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		const segLeaves = 2
		l, corrupt, err := OpenLog(path, segLeaves)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		leaves := l.Stats().Leaves
		for i, seg := range l.segs {
			if seg.Len() == 0 || seg.Len() > segLeaves || i < len(l.segs)-1 && seg.Len() != segLeaves {
				t.Fatalf("segment %d of %d holds %d leaves", i, len(l.segs), seg.Len())
			}
		}
		if len(l.refs) != leaves {
			t.Fatalf("%d keys for %d leaves", len(l.refs), leaves)
		}
		seen := make(map[Ref]bool)
		for k, ref := range l.refs {
			if n := ref.Segment*segLeaves + ref.LeafIndex; ref.LeafIndex < 0 || ref.LeafIndex >= segLeaves || n < 0 || n >= leaves || seen[ref] {
				t.Fatalf("key %q at %+v breaks the sequence of %d leaves", k, ref, leaves)
			}
			seen[ref] = true
		}
		lines := 0
		for _, ln := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSuffix(ln, []byte("\r"))) > 0 {
				lines++
			}
		}
		if leaves+corrupt != lines {
			t.Fatalf("%d leaves + %d corrupt lines, file has %d non-empty lines", leaves, corrupt, lines)
		}

		again, corrupt2, err := OpenLog(path, segLeaves)
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		if corrupt2 != corrupt || len(again.segs) != len(l.segs) {
			t.Fatalf("second replay: %d segments, %d corrupt; first: %d, %d", len(again.segs), corrupt2, len(l.segs), corrupt)
		}
		for i := range l.segs {
			if again.segs[i].Root() != l.segs[i].Root() {
				t.Fatalf("second replay rebuilt segment %d with another root", i)
			}
		}
	})
}
