//go:build !amd64 && !arm64

package kernel

// No hand-written micro-kernel exists for this architecture: every Packed
// instance runs the portable scalar 4×4 tile (ISA() == "scalar",
// HasSIMD() == false). Adding a new ISA means an assembly tile plus a
// platform glue file like micro_amd64.go; nothing above the micro-kernel
// changes.

func newSIMDImpl() *microImpl { return nil }

// simdFull and simdDual are never called here (no microImpl sets asm or
// hasDual on this GOARCH); they exist so microImpl's methods compile.
func simdFull(ap, bp, c []float64, ldc, kb int, alpha float64) {
	panic("kernel: no SIMD tile on this GOARCH")
}

func simdDual(ap, bp, c0 []float64, ldc0 int, c1 []float64, ldc1 int, kb int, alpha0, alpha1 float64) {
	panic("kernel: no SIMD tile on this GOARCH")
}
