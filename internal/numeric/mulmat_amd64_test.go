package numeric

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestAVX2DetectionMatchesCPUInfo compares MulMat's CPU detection with
// the flags Linux reports in /proc/cpuinfo, which list avx2 only when the
// CPU implements it and the kernel saves the YMM registers.
func TestAVX2DetectionMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux's")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(flags), "avx2"); useAVX2 != want {
			t.Fatalf("useAVX2 = %v, /proc/cpuinfo lists avx2: %v", useAVX2, want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
