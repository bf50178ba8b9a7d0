package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type logRec struct {
	N   int
	Pad string `json:",omitempty"`
}

// A line longer than any buffer a line scanner would keep must not end
// the replay: a 17 MiB line between records 1 and 2 is either replayed,
// when it is a valid record, or counted corrupt, and records 2 and 3
// after it are replayed either way.
func TestOpenLogReplaysPastALongLine(t *testing.T) {
	long, err := frameLines([]logRec{{N: 9, Pad: strings.Repeat("x", 17<<20)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		line    []byte
		want    []int
		corrupt int
	}{
		{"valid", long, []int{1, 9, 2, 3}, 0},
		{"torn", long[:len(long)-2], []int{1, 2, 3}, 1},
		{"garbage", append(bytes.Repeat([]byte{'x'}, 17<<20), '\n'), []int{1, 2, 3}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			head, err := frameLines([]logRec{{N: 1}})
			if err != nil {
				t.Fatal(err)
			}
			tail, err := frameLines([]logRec{{N: 2}, {N: 3}})
			if err != nil {
				t.Fatal(err)
			}
			line := tc.line
			if line[len(line)-1] != '\n' {
				line = append(append([]byte(nil), line...), '\n')
			}
			path := filepath.Join(t.TempDir(), "log")
			if err := os.WriteFile(path, bytes.Join([][]byte{head, line, tail}, nil), 0o644); err != nil {
				t.Fatal(err)
			}
			var got []int
			l, corrupt, err := OpenLog(path, LogFailpoints{}, func(r logRec) bool {
				got = append(got, r.N)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if !reflect.DeepEqual(got, tc.want) || corrupt != tc.corrupt {
				t.Fatalf("replayed %v with %d corrupt, want %v with %d", got, corrupt, tc.want, tc.corrupt)
			}
		})
	}
}

// A log whose lines end in CRLF replays like one whose lines end in LF.
func TestOpenLogReplaysCRLFLines(t *testing.T) {
	buf, err := frameLines([]logRec{{N: 1}, {N: 2}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, bytes.ReplaceAll(buf, []byte("\n"), []byte("\r\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []int
	l, corrupt, err := OpenLog(path, LogFailpoints{}, func(r logRec) bool {
		got = append(got, r.N)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !reflect.DeepEqual(got, []int{1, 2}) || corrupt != 0 {
		t.Fatalf("replayed %v with %d corrupt, want [1 2] with 0", got, corrupt)
	}
}
