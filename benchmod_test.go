package hayat

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleTests runs the tests of cmd/hayatbench, a nested
// module that `go test ./...` does not enter, against this tree's root
// API; `go test` vets the module as it builds it. A change to an exported
// name the benchmark uses, or to the hayatd HTTP API its smoke test
// drives, fails here too.
func TestBenchmarkModuleTests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the nested cmd/hayatbench module's tests; skipped under -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	if out, err := exec.Command(goTool, "-C", "cmd/hayatbench", "test", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go -C cmd/hayatbench test ./...: %v\n%s", err, out)
	}
}
