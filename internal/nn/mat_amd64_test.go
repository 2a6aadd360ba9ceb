package nn

import (
	"os"
	"strings"
	"testing"
)

// TestDetectAVX2MatchesCPUInfo holds the package's own CPUID/XGETBV
// detection to Linux's view: /proc/cpuinfo lists avx2 when the CPU
// reports it and the kernel saves the YMM state. A detection that
// wrongly said no would leave the kernel tests running only the
// portable path.
func TestDetectAVX2MatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo:", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			want := strings.Contains(flags+" ", " avx2 ")
			if haveAVX2 != want {
				t.Fatalf("detectAVX2 = %v, /proc/cpuinfo lists avx2: %v", haveAVX2, want)
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
