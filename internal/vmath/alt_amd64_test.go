package vmath

import (
	"os"
	"testing"
)

// altImplSets returns the implementation sets cross-checked against the
// portable reference on this machine: the AVX2 assembly set when the
// hardware can run it, otherwise none.
func altImplSets() []*funcs {
	if haveAVX2() {
		return []*funcs{&avx2Funcs}
	}
	return nil
}

// expExactStdlib reports whether ExpSlice is expected to match math.Exp
// bit for bit on this machine: true exactly when the stdlib assembly
// takes its FMA variant, which is the algorithm expCore replicates.
var expExactStdlib = haveFMA()

func TestImplSelectionMatchesHardware(t *testing.T) {
	force := os.Getenv("FADEWICH_VMATH")
	want := "portable"
	switch {
	case force != "":
		want = map[string]string{
			"portable": "portable",
			"avx2":     "avx2-amd64",
		}[force]
		if want == "" {
			t.Fatalf("test running under unknown FADEWICH_VMATH=%q — init should have panicked", force)
		}
	case haveAVX2():
		want = "avx2-amd64"
	}
	if got := Impl(); got != want {
		t.Fatalf("Impl() = %q, want %q for this CPU/environment", got, want)
	}
}

func TestPickImplForcingMatrix(t *testing.T) {
	cases := []struct {
		force   string
		avx2    bool
		want    *funcs
		wantErr bool
	}{
		{"", true, &avx2Funcs, false},
		{"", false, &portableFuncs, false},
		{"portable", true, &portableFuncs, false},
		{"portable", false, &portableFuncs, false},
		{"avx2", true, &avx2Funcs, false},
		{"avx2", false, nil, true}, // forced without hardware: loud failure
		{"sse9", true, nil, true},  // unknown value: loud failure
	}
	for _, c := range cases {
		got, err := pickImpl(c.force, c.avx2)
		if c.wantErr {
			if err == nil {
				t.Fatalf("pickImpl(%q, %v): want error, got %q", c.force, c.avx2, got.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("pickImpl(%q, %v): unexpected error %v", c.force, c.avx2, err)
		}
		if got != c.want {
			t.Fatalf("pickImpl(%q, %v) = %q, want %q", c.force, c.avx2, got.name, c.want.name)
		}
	}
}

func TestActivePathMatchesImpl(t *testing.T) {
	want := map[string]string{
		"portable":   "portable",
		"avx2-amd64": "avx2",
	}[Impl()]
	if got := ActivePath(); got != want {
		t.Fatalf("ActivePath() = %q, want %q for Impl() = %q", got, want, Impl())
	}
}
