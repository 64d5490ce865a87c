//go:build !amd64

package vmath

import (
	"fmt"
	"os"
)

// Non-amd64 targets only have the portable kernel set. FADEWICH_VMATH
// may still name it explicitly; forcing the amd64-only path fails loudly
// (panics at init) rather than silently falling back, matching the
// amd64 dispatch contract.
func init() {
	impl, err := pickImplPortableOnly(os.Getenv("FADEWICH_VMATH"))
	if err != nil {
		panic(err)
	}
	active = impl
}

// pickImplPortableOnly resolves FADEWICH_VMATH on single-implementation
// platforms.
func pickImplPortableOnly(force string) (*funcs, error) {
	switch force {
	case "", "portable":
		return &portableFuncs, nil
	case "avx2":
		return nil, fmt.Errorf("vmath: FADEWICH_VMATH=%s forced but this platform has no amd64 kernels (refusing to fall back)", force)
	}
	return nil, fmt.Errorf("vmath: unknown FADEWICH_VMATH value %q (want portable or avx2)", force)
}
