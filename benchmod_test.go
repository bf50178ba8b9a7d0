package hayat

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets builds and vets cmd/hayatbench, a nested module
// that `go test ./...` does not enter, against this tree's root API: a
// change to an exported name the benchmark uses fails here too, not only
// under `make test`.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the nested cmd/hayatbench module; skipped under -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	if out, err := exec.Command(goTool, "-C", "cmd/hayatbench", "vet", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go -C cmd/hayatbench vet ./...: %v\n%s", err, out)
	}
}
