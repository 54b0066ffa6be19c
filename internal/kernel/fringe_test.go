package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/sched"
)

// padProblem is one ragged product and its zero-padded twin: op(A) is
// m×kk and op(B) kk×n, stored zero-padded to mp = m rounded up to
// SIMDTileMR rows and np = n rounded up to SIMDTileNR columns, so the
// ragged call reads a sub-view of the padded operands. C is mp×np with a
// NaN canary row below it (ldc = mp+1); everything outside the valid m×n
// block starts as NaN.
type padProblem struct {
	m, n, kk, mp, np int
	ta, tb           blas.Transpose
	lda, ldb, ldc    int
	a, a2, b, b2, c0 []float64
}

func newPadProblem(rng *rand.Rand, ta, tb blas.Transpose, m, n, kk int) *padProblem {
	p := &padProblem{m: m, n: n, kk: kk, ta: ta, tb: tb,
		mp: roundUpMul(m, SIMDTileMR), np: roundUpMul(n, SIMDTileNR)}
	// operand builds a zero-padded storage array for a rows×cols operator
	// whose valid part is vr×vc.
	operand := func(trans bool, rows, cols, vr, vc int) ([]float64, int) {
		sr, sc := opDims(trans, rows, cols)
		v := make([]float64, sr*sc)
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				if i < vr && j < vc {
					x := rng.Float64()*2 - 1
					if trans {
						v[i*sr+j] = x
					} else {
						v[j*sr+i] = x
					}
				}
			}
		}
		return v, sr
	}
	p.a, p.lda = operand(ta.IsTrans(), p.mp, kk, m, kk)
	p.a2, _ = operand(ta.IsTrans(), p.mp, kk, m, kk)
	p.b, p.ldb = operand(tb.IsTrans(), kk, p.np, kk, n)
	p.b2, _ = operand(tb.IsTrans(), kk, p.np, kk, n)
	p.ldc = p.mp + 1
	p.c0 = make([]float64, p.ldc*p.np)
	for j := 0; j < p.np; j++ {
		for i := 0; i < p.ldc; i++ {
			p.c0[j*p.ldc+i] = math.NaN()
			if i < m && j < n {
				p.c0[j*p.ldc+i] = rng.Float64()*2 - 1
			}
		}
	}
	return p
}

// check runs route on the ragged shape and on the padded shape, each on a
// fresh copy of C, and demands the ragged result equal the padded one's
// top-left m×n block bit for bit with every element outside that block
// left untouched.
func (p *padProblem) check(t *testing.T, name string, route func(m, n int, c []float64)) {
	t.Helper()
	ragged := append([]float64(nil), p.c0...)
	padded := append([]float64(nil), p.c0...)
	route(p.m, p.n, ragged)
	route(p.mp, p.np, padded)
	for j := 0; j < p.np; j++ {
		for i := 0; i < p.ldc; i++ {
			got, want := ragged[j*p.ldc+i], padded[j*p.ldc+i]
			if i >= p.m || j >= p.n {
				if !math.IsNaN(got) {
					t.Fatalf("%s ta=%v tb=%v m=%d n=%d: wrote outside the m×n block at (%d,%d)",
						name, p.ta, p.tb, p.m, p.n, i, j)
				}
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s ta=%v tb=%v m=%d n=%d k=%d: ragged %x vs padded %x at (%d,%d)",
					name, p.ta, p.tb, p.m, p.n, p.kk, math.Float64bits(got), math.Float64bits(want), i, j)
			}
		}
	}
}

// TestFringeIsInterior pins the staged-fringe contract: a ragged register
// tile runs the full SIMD tile over the packers' zero-padded panels, so a
// ragged product equals, bit for bit, the top-left m×n block of the same
// product with its operands zero-padded to whole 8×4 tiles. It covers
// every (m mod 8, n mod 4) class and all four transposes through every
// leaf route: MulAdd, MulAddTasks on a 2-worker runtime, and FusedMulAdd
// with one and two destinations (two-term operands, so the fused packers
// run). Tiny blocks make each call cross MC, KC and NC block edges; the
// default blocking covers the one-block case.
func TestFringeIsInterior(t *testing.T) {
	if !HasSIMD() {
		t.Skipf("host has no SIMD micro-kernel (ISA %s)", SIMDISA())
	}
	rt := sched.New(2, 1)
	defer rt.Close()
	rng := rand.New(rand.NewSource(61))
	const kk, alpha = 29, -1.25
	kernels := []*Packed{
		{Mode: ModeSIMD, MC: SIMDTileMR, KC: 16, NC: 2 * SIMDTileNR},
		{Mode: ModeSIMD},
	}
	for _, k := range kernels {
		for _, ta := range transposes {
			for _, tb := range transposes {
				for dm := 0; dm < SIMDTileMR; dm++ {
					for dn := 0; dn < SIMDTileNR; dn++ {
						p := newPadProblem(rng, ta, tb, 2*SIMDTileMR+dm, 2*SIMDTileNR+dn, kk)
						p.check(t, "MulAdd", func(m, n int, c []float64) {
							k.MulAdd(ta, tb, m, n, kk, alpha, p.a, p.lda, p.b, p.ldb, c, p.ldc)
						})
						p.check(t, "MulAddTasks", func(m, n int, c []float64) {
							k.MulAddTasks(rt, 2, ta, tb, m, n, kk, alpha, p.a, p.lda, p.b, p.ldb, c, p.ldc)
						})
						aOp := Operand{Ld: p.lda, Trans: ta.IsTrans(), Terms: []Term{{p.a, 1}, {p.a2, -1}}}
						bOp := Operand{Ld: p.ldb, Trans: tb.IsTrans(), Terms: []Term{{p.b, -1}, {p.b2, 1}}}
						p.check(t, "FusedMulAdd/1", func(m, n int, c []float64) {
							k.FusedMulAdd(m, n, kk, alpha, aOp, bOp, []Dest{{c, p.ldc, -1}})
						})
						// Two destinations: compare each position in turn, the
						// other receiving a scratch copy.
						for pos := 0; pos < 2; pos++ {
							p.check(t, "FusedMulAdd/2", func(m, n int, c []float64) {
								dests := []Dest{{nil, p.ldc, 1}, {nil, p.ldc, -1}}
								dests[pos].Data = c
								dests[1-pos].Data = append([]float64(nil), p.c0...)
								k.FusedMulAdd(m, n, kk, alpha, aOp, bOp, dests)
							})
						}
					}
				}
			}
		}
	}
}
