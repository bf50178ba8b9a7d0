package numeric

// useAVX2 reports whether this host runs MulMat's AVX2 kernel: the CPU
// implements AVX2 and the operating system saves the YMM registers.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 asks the CPU: CPUID leaf 1 for AVX and OSXSAVE, XGETBV for
// whether the operating system saves the SSE and AVX register state
// (XCR0 bits 1 and 2), and CPUID leaf 7 for AVX2.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// mulMatAVX2 is MulMat's AVX2 kernel (mulmat_amd64.s), for arguments
// MulMat has checked: it reads and writes without bounds checks.
//
//go:noescape
func mulMatAVX2(c, a, b []float64, m, k, n int)

// cpuid executes CPUID for leaf eaxArg and sub-leaf ecxArg.
//
//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
//
//go:noescape
func xgetbv() (eax, edx uint32)
