package hayat

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// roundedFiles are the source files whose every product that feeds a sum
// is written float64(x*y) (DESIGN.md §19). The Go spec lets a compiler
// fuse x*y + z into one fused multiply-add, which rounds once instead of
// twice; amd64's default GOAMD64=v1 has no FMA, but arm64 fuses wherever
// it may, so the same inputs would give other bytes there. An explicit
// conversion forbids the fusion.
var roundedFiles = []string{
	"internal/aging/aging.go",
	"internal/aging/table.go",
	"internal/numeric/matrix.go",
	"internal/thermal/modal.go",
	"internal/thermal/thermal.go",
	"internal/thermpredict/thermpredict.go",
}

// fusedOp matches objdump's arm64 fused multiply-add mnemonics.
var fusedOp = regexp.MustCompile(`\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD) `)

// TestRoundedFilesHaveNoFusedMultiplyAdd cross-builds cmd/hayatd for
// arm64, disassembles it and fails on any fused multiply-add that the
// line table attributes to a line of roundedFiles, inlined code included.
func TestRoundedFilesHaveNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-builds cmd/hayatd; skipped under -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	bin := filepath.Join(t.TempDir(), "hayatd-arm64")
	build := exec.Command(goTool, "build", "-o", bin, "./cmd/hayatd")
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("cross-building cmd/hayatd for arm64: %v\n%s", err, out)
	}
	dump, err := exec.Command(goTool, "tool", "objdump", bin).Output()
	if err != nil {
		t.Fatalf("go tool objdump: %v", err)
	}

	// objdump names each instruction's source by base name, so only
	// instructions inside this module's functions count: a standard
	// library file of the same name cannot be inlined into them.
	watched := map[string]bool{}
	for _, f := range roundedFiles {
		watched[filepath.Base(f)] = true
	}
	inModule, fused := false, 0
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "TEXT ") {
			inModule = strings.HasPrefix(line, "TEXT github.com/kit-ces/hayat")
			continue
		}
		if !inModule || !fusedOp.MatchString(line) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if file, _, ok := strings.Cut(fields[0], ":"); ok && watched[file] {
			t.Errorf("fused multiply-add at %s: %s", fields[0], strings.Join(fields[3:], " "))
			fused++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if fused > 0 {
		t.Errorf("%d fused multiply-adds in files that must round every product; write each product that feeds a sum as float64(x*y)", fused)
	}
}
