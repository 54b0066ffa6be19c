package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blas"
)

// benchMulAdd reports MB/s == MFLOP/s by setting bytes to the 2·m·n·k flop
// count, so `go test -bench` output reads directly as a flop rate.
func benchMulAdd(b *testing.B, k blas.Kernel, n int) { benchShape(b, k, n, n, n) }

func benchShape(b *testing.B, k blas.Kernel, m, n, kk int) {
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, m*kk)
	bb := make([]float64, kk*n)
	c := make([]float64, m*n)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := range bb {
		bb[i] = rng.Float64()
	}
	b.SetBytes(int64(2 * m * n * kk))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, bb, kk, c, m)
	}
}

func BenchmarkPacked256(b *testing.B) { benchMulAdd(b, &Packed{}, 256) }
func BenchmarkPacked512(b *testing.B) { benchMulAdd(b, &Packed{}, 512) }

// BenchmarkPackedFringe pairs an aligned shape with ragged ones (m not a
// multiple of 8, n not a multiple of 4) on the default kernel: with every
// fringe tile staged through the dispatched register tile, the ragged
// rates should sit near the aligned one. 260×258×260 is a Strassen leaf of
// 1040×1032×1040.
func BenchmarkPackedFringe(b *testing.B) {
	for _, s := range [][3]int{{256, 256, 256}, {255, 255, 255}, {260, 258, 260}, {129, 129, 129}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			benchShape(b, &Packed{}, s[0], s[1], s[2])
		})
	}
}

func BenchmarkScalar256(b *testing.B) { benchMulAdd(b, &Packed{Mode: ModeScalar}, 256) }
func BenchmarkScalar512(b *testing.B) { benchMulAdd(b, &Packed{Mode: ModeScalar}, 512) }
func BenchmarkSIMD512(b *testing.B) {
	if !HasSIMD() {
		b.Skipf("no SIMD micro-kernel (ISA %s)", SIMDISA())
	}
	benchMulAdd(b, &Packed{Mode: ModeSIMD}, 512)
}
func BenchmarkBlocked256(b *testing.B) { benchMulAdd(b, &blas.BlockedKernel{}, 256) }
func BenchmarkBlocked512(b *testing.B) { benchMulAdd(b, &blas.BlockedKernel{}, 512) }
func BenchmarkPackedCompat512(b *testing.B) {
	benchMulAdd(b, &Packed{Compat: true}, 512)
}
