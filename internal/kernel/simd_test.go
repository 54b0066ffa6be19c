package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/memtrack"
)

// SIMD correctness moves from bit-equality to a forward-error bound: the
// FMA tile contracts each multiply-add into one rounding, so results
// differ from the scalar tile in the last bits while both stay within
// Higham's DGEMM bound (Accuracy and Stability of Numerical Algorithms,
// §3.5): |computed − exact| ≤ γ_{k+2}·(|α|·|A|·|B|)_{ij} elementwise (the
// +2 absorbs the alpha application and the C accumulate). The difference
// between any two conforming implementations is bounded by twice that.

// gammaN is Higham's γ_n = n·u/(1−n·u) for unit roundoff u = 2⁻⁵³.
func gammaN(n int) float64 {
	const u = 0x1p-53
	nu := float64(n) * u
	return nu / (1 - nu)
}

// highamDiffTol returns the elementwise tolerance for comparing two
// conforming DGEMM implementations: 2·γ_{k+2}·(|α|·|A|·|B|)_{ij} plus a
// few ulps of the inputs' contribution for the β/C₀ handling.
func highamDiffTol(absProd []float64, c0 []float64, i int, alpha float64, kk int) float64 {
	g := 2 * gammaN(kk+2)
	return g*math.Abs(alpha)*absProd[i] + 4*0x1p-53*math.Abs(c0[i]) + 1e-300
}

// absMulOracle computes (|op(A)|·|op(B)|)[i,j] with the naive kernel —
// the magnitude term the Higham bound scales.
func absMulOracle(ta, tb blas.Transpose, m, n, kk int, a []float64, lda int, b []float64, ldb int) []float64 {
	absA := make([]float64, len(a))
	for i, v := range a {
		absA[i] = math.Abs(v)
	}
	absB := make([]float64, len(b))
	for i, v := range b {
		absB[i] = math.Abs(v)
	}
	out := make([]float64, m*n)
	blas.NaiveKernel{}.MulAdd(ta, tb, m, n, kk, 1, absA, lda, absB, ldb, out, m)
	return out
}

// TestSIMDvsScalarHigham is the SIMD-vs-scalar differential: identical
// inputs through the SIMD-dispatched and scalar-pinned kernels must agree
// elementwise under the Higham bound, for all four transpose combinations
// and shapes covering every fringe class of the 8×4 tile (m mod 8 and
// n mod 4 from 0 to tile−1), plus multi-block shapes that cross MC/KC/NC
// boundaries.
func TestSIMDvsScalarHigham(t *testing.T) {
	if !HasSIMD() {
		t.Skipf("host has no SIMD micro-kernel (ISA %s)", SIMDISA())
	}
	rng := rand.New(rand.NewSource(42))
	simd := &Packed{Mode: ModeSIMD}
	scalar := &Packed{Mode: ModeScalar}

	shapes := [][3]int{
		// Every fringe class around one tile.
		{8, 4, 16}, {9, 4, 16}, {15, 4, 16}, {16, 5, 16}, {8, 7, 16},
		{1, 1, 1}, {7, 3, 5}, {3, 9, 33},
		// Around the register tile at larger k.
		{17, 13, 100}, {24, 12, 257},
		// Crossing the default cache blocks.
		{300, 129, 300}, {129, 300, 513},
	}
	alphas := []float64{1, -0.5, 2.25}
	for _, ta := range transposes {
		for _, tb := range transposes {
			for _, alpha := range alphas {
				for _, s := range shapes {
					m, n, kk := s[0], s[1], s[2]
					ar, ac := opDims(ta.IsTrans(), m, kk)
					br, bc := opDims(tb.IsTrans(), kk, n)
					a := fill(rng, ar, ac, ar)
					b := fill(rng, br, bc, br)
					c0 := fill(rng, m, n, m)
					got := append([]float64(nil), c0...)
					want := append([]float64(nil), c0...)
					simd.MulAdd(ta, tb, m, n, kk, alpha, a, ar, b, br, got, m)
					scalar.MulAdd(ta, tb, m, n, kk, alpha, a, ar, b, br, want, m)
					absProd := absMulOracle(ta, tb, m, n, kk, a, ar, b, br)
					for i := range got {
						tol := highamDiffTol(absProd, c0, i, alpha, kk)
						if d := math.Abs(got[i] - want[i]); d > tol {
							t.Fatalf("ta=%v tb=%v alpha=%g %v: |simd-scalar|=%g > Higham tol %g at %d",
								ta, tb, alpha, s, d, tol, i)
						}
					}
				}
			}
		}
	}
}

// TestSIMDDegenerateArgs pins the k=0 / alpha=0 contract on the SIMD
// path: both are complete no-ops that must not touch C (C may even hold
// NaN padding).
func TestSIMDDegenerateArgs(t *testing.T) {
	simd := &Packed{Mode: ModeSIMD} // scalar fallback on non-SIMD hosts is fine: contract is identical
	c := []float64{math.NaN(), 1, 2, math.Inf(1)}
	a := []float64{1, 2}
	b := []float64{3, 4}
	simd.MulAdd(blas.NoTrans, blas.NoTrans, 2, 2, 0, 1.5, a, 2, b, 2, c, 2)
	simd.MulAdd(blas.NoTrans, blas.NoTrans, 2, 2, 1, 0, a, 2, b, 2, c, 2)
	simd.MulAdd(blas.NoTrans, blas.NoTrans, 0, 2, 1, 1, a, 2, b, 2, c, 2)
	simd.MulAdd(blas.NoTrans, blas.NoTrans, 2, 0, 1, 1, a, 2, b, 2, c, 2)
	if !math.IsNaN(c[0]) || c[1] != 1 || c[2] != 2 || !math.IsInf(c[3], 1) {
		t.Fatalf("degenerate MulAdd touched C: %v", c)
	}
}

// TestSIMDFringeTail verifies that fringe tiles run on the SIMD tile: a
// shape one short of the tile in both dimensions must count every one of
// its register tiles as SIMD and none as scalar, match the oracle, and
// leave the NaN canaries past m intact (the staged tile must copy back
// only valid rows/cols even though the packed panel is zero-padded).
func TestSIMDFringeTail(t *testing.T) {
	if !HasSIMD() {
		t.Skipf("host has no SIMD micro-kernel (ISA %s)", SIMDISA())
	}
	rng := rand.New(rand.NewSource(43))
	k := &Packed{Mode: ModeSIMD}
	m, n, kk := 3*SIMDTileMR-1, 3*SIMDTileNR-1, 37
	ldc := m + 3
	a := fill(rng, m, kk, m)
	b := fill(rng, kk, n, kk)
	got := fill(rng, m, n, ldc)
	want := append([]float64(nil), got...)
	k.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, got, ldc)
	blas.NaiveKernel{}.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, want, ldc)
	if d := maxAbsDiff(t, got, want, m, n, ldc); d > 1e-12 {
		t.Fatalf("fringe shape m=%d n=%d: max diff %g", m, n, d)
	}
	checkPadding(t, got, m, n, ldc)
	// Block edges fall on whole tiles, so the tile count is the 3×3 tile
	// grid once per KC block.
	_, kcE, _ := k.effBlocks(k.impl(), m, n, kk)
	wantTiles := int64(3 * 3 * ((kk + kcE - 1) / kcE))
	simd, scalar := k.TileCounters()
	if simd != wantTiles || scalar != 0 {
		t.Fatalf("fringe shape: simd=%d scalar=%d tiles, want simd=%d scalar=0", simd, scalar, wantTiles)
	}
}

// TestSIMDAllTransposeFringes sweeps every (m mod 8, n mod 4) fringe class
// for all transpose combinations against the naive oracle at moderate k.
func TestSIMDAllTransposeFringes(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	k := &Packed{Mode: ModeSIMD} // falls back to scalar off-host; oracle check still valid
	kk := 19
	for _, ta := range transposes {
		for _, tb := range transposes {
			for dm := 0; dm < SIMDTileMR; dm++ {
				for dn := 0; dn < SIMDTileNR; dn++ {
					m, n := SIMDTileMR+dm, SIMDTileNR+dn
					ar, ac := opDims(ta.IsTrans(), m, kk)
					br, bc := opDims(tb.IsTrans(), kk, n)
					a := fill(rng, ar, ac, ar)
					b := fill(rng, br, bc, br)
					got := fill(rng, m, n, m)
					want := append([]float64(nil), got...)
					k.MulAdd(ta, tb, m, n, kk, -1.25, a, ar, b, br, got, m)
					blas.NaiveKernel{}.MulAdd(ta, tb, m, n, kk, -1.25, a, ar, b, br, want, m)
					if d := maxAbsDiff(t, got, want, m, n, m); d > 1e-12 {
						t.Fatalf("ta=%v tb=%v m=%d n=%d: max diff %g", ta, tb, m, n, d)
					}
				}
			}
		}
	}
}

// TestSIMDLeafWorkspaceExact re-asserts the LeafWorkspace == arena-peak
// invariant under the 8-row SIMD panel shapes (the scalar variant is
// covered by TestLeafWorkspaceExact).
func TestSIMDLeafWorkspaceExact(t *testing.T) {
	if !HasSIMD() {
		t.Skipf("host has no SIMD micro-kernel (ISA %s)", SIMDISA())
	}
	rng := rand.New(rand.NewSource(45))
	shapes := [][3]int{{1, 1, 1}, {8, 4, 8}, {9, 5, 3}, {64, 64, 64}, {130, 70, 90}}
	for _, s := range shapes {
		m, n, kk := s[0], s[1], s[2]
		k := &Packed{Mode: ModeSIMD, MC: 32, KC: 24, NC: 40}
		tr := memtrack.New()
		k.SetArena(tr)
		a := fill(rng, m, kk, m)
		b := fill(rng, kk, n, kk)
		c := make([]float64, m*n)
		k.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, c, m)
		if got, want := tr.Peak(), k.LeafWorkspace(m, n, kk); got != want {
			t.Errorf("%v: arena peak %d, LeafWorkspace %d", s, got, want)
		}
		if tr.Live() != 0 {
			t.Errorf("%v: %d words leaked", s, tr.Live())
		}
	}
}
