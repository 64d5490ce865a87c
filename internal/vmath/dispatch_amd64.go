// Implementation selection on amd64. By default the AVX2 assembly
// kernel set engages when the CPU supports AVX2+FMA and the OS saves
// the YMM state. FADEWICH_VMATH=portable|avx2 forces a specific path.
// Forcing avx2 on hardware without AVX2 support fails loudly (panics at
// init) rather than silently falling back, so CI legs that pin a path
// can trust what they measured.

package vmath

import (
	"fmt"
	"os"
)

// cpuid and xgetbv are implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func init() {
	impl, err := pickImpl(os.Getenv("FADEWICH_VMATH"), haveAVX2())
	if err != nil {
		panic(err)
	}
	active = impl
}

// pickImpl resolves the implementation selection from the environment
// override and the hardware capability. It is pure so the forcing
// matrix is unit-testable without re-running init.
func pickImpl(force string, avx2 bool) (*funcs, error) {
	switch force {
	case "portable":
		return &portableFuncs, nil
	case "avx2":
		if !avx2 {
			return nil, fmt.Errorf("vmath: FADEWICH_VMATH=avx2 forced but this CPU/OS lacks AVX2+FMA+OSXSAVE (refusing to fall back)")
		}
		return &avx2Funcs, nil
	case "":
		if avx2 {
			return &avx2Funcs, nil
		}
		return &portableFuncs, nil
	}
	return nil, fmt.Errorf("vmath: unknown FADEWICH_VMATH value %q (want portable or avx2)", force)
}

// haveFMA reports FMA+AVX CPU support with OS-enabled YMM state — the
// condition under which the amd64 stdlib math.Exp takes its FMA code
// path, and so the condition under which ExpSlice matches it bit for
// bit.
func haveFMA() bool {
	_, _, c1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (XMM) and 2 (YMM) must both be OS-enabled.
	xcr0, _ := xgetbv()
	return xcr0&0x6 == 0x6
}

// haveAVX2 reports AVX2+FMA CPU support with OS-enabled YMM state.
func haveAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	if !haveFMA() {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return b7&avx2Bit != 0
}
