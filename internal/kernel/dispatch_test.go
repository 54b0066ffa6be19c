package kernel

import (
	"testing"

	"repro/internal/blas"
)

func TestNormalizeEnvKernel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"auto", "auto"},
		{"AUTO", "auto"},
		{"simd", "simd"},
		{" Simd ", "simd"},
		{"packed", "packed"},
		{"blocked", "blocked"},
		{"avx512", ""}, // unknown values warn once and act as unset
		{"scalar", ""},
	}
	for _, c := range cases {
		if got := normalizeEnvKernel(c.in); got != c.want {
			t.Errorf("normalizeEnvKernel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestImplFor pins the dispatch matrix: Compat and ModeScalar always pin
// the scalar tile; the env override only steers ModeAuto; ModeSIMD asks
// for SIMD but degrades to scalar when the host has none.
func TestImplFor(t *testing.T) {
	wantSIMD := func(mi *microImpl) bool { return mi.isa != "scalar" }
	cases := []struct {
		name   string
		k      *Packed
		env    string
		simdOK bool // expected only when the host has a SIMD impl
	}{
		{"auto default", &Packed{}, "", true},
		{"auto explicit", &Packed{}, "auto", true},
		{"auto env simd", &Packed{}, "simd", true},
		{"auto env packed", &Packed{}, "packed", false},
		{"auto env blocked", &Packed{}, "blocked", false},
		{"mode scalar ignores env", &Packed{Mode: ModeScalar}, "simd", false},
		{"mode simd ignores env", &Packed{Mode: ModeSIMD}, "packed", true},
		{"compat wins over mode", &Packed{Compat: true, Mode: ModeSIMD}, "simd", false},
		{"compat default", &Packed{Compat: true}, "", false},
	}
	for _, c := range cases {
		mi := c.k.implFor(c.env)
		if mi == nil {
			t.Fatalf("%s: implFor returned nil", c.name)
		}
		want := c.simdOK && HasSIMD()
		if got := wantSIMD(mi); got != want {
			t.Errorf("%s: implFor(%q) ISA %q, want simd=%v (host simd=%v)",
				c.name, c.env, mi.isa, want, HasSIMD())
		}
		if mi.mr <= 0 || mi.nr <= 0 || mi.mr*mi.nr > len(tileBuf{}) || mi.asm != wantSIMD(mi) {
			t.Errorf("%s: inconsistent microImpl %+v", c.name, mi)
		}
	}
}

// TestDefaultFor checks the process-wide kernel choice for each
// DGEFMM_KERNEL value.
func TestDefaultFor(t *testing.T) {
	if k := defaultFor("packed"); k != blas.Kernel(defaultScalar) {
		t.Errorf("defaultFor(packed) = %v, want the scalar-pinned instance", k.Name())
	}
	if k := defaultFor("simd"); k != blas.Kernel(defaultSIMD) {
		t.Errorf("defaultFor(simd) = %v, want the SIMD-pinned instance", k.Name())
	}
	if k := defaultFor("blocked"); k == nil || k.Name() != "blocked" {
		t.Errorf("defaultFor(blocked) = %v, want the legacy blocked kernel", k)
	}
	for _, env := range []string{"", "auto"} {
		if k := defaultFor(env); k != blas.Kernel(defaultPacked) {
			t.Errorf("defaultFor(%q) = %v, want the auto packed instance", env, k.Name())
		}
	}
}

// TestNameTracksDispatch: the kernel's registry name reflects what it will
// actually run, so τ-parameter lookup and obs snapshots never misreport a
// fallback host as SIMD.
func TestNameTracksDispatch(t *testing.T) {
	scalar := &Packed{Mode: ModeScalar}
	if scalar.Name() != "packed" || scalar.ISA() != "scalar" {
		t.Errorf("scalar-pinned kernel: Name=%q ISA=%q, want packed/scalar", scalar.Name(), scalar.ISA())
	}
	auto := &Packed{}
	env := envKernel()
	if HasSIMD() && (env == "" || env == "auto" || env == "simd") {
		if auto.Name() != "simd" || auto.ISA() != SIMDISA() {
			t.Errorf("auto kernel on SIMD host: Name=%q ISA=%q, want simd/%s", auto.Name(), auto.ISA(), SIMDISA())
		}
	} else {
		// Scalar host, or DGEFMM_KERNEL pinned the scalar path.
		if auto.Name() != "packed" || auto.ISA() != "scalar" {
			t.Errorf("auto kernel dispatching scalar (env=%q): Name=%q ISA=%q, want packed/scalar", env, auto.Name(), auto.ISA())
		}
	}
	compat := &Packed{Compat: true}
	if compat.ISA() != "scalar" {
		t.Errorf("compat kernel ISA=%q, want scalar", compat.ISA())
	}
}

// TestCloneKeepsMode: Clone must preserve the pinned mode (strassen and
// batch clone kernels per worker).
func TestCloneKeepsMode(t *testing.T) {
	for _, mode := range []Mode{ModeAuto, ModeScalar, ModeSIMD} {
		k := &Packed{Mode: mode, MC: 8, KC: 8, NC: 8}
		ck, ok := k.Clone().(*Packed)
		if !ok {
			t.Fatalf("Clone returned %T", k.Clone())
		}
		if ck.Mode != mode {
			t.Errorf("Clone dropped Mode %v (got %v)", mode, ck.Mode)
		}
		if ck.ISA() != k.ISA() {
			t.Errorf("mode %v: clone ISA %q != original %q", mode, ck.ISA(), k.ISA())
		}
	}
}
