package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/memtrack"
	"repro/internal/sched"
)

// TestMulAddTasksBitIdentical pins the threading contract of MulAddTasks:
// chunk boundaries fall on the sequential nest's MC block edges and KC
// panels retire in order, so the result is bit-for-bit MulAdd's — for every
// transpose case, across shapes that exercise edge blocks and chunk counts
// above, below and equal to the worker count.
func TestMulAddTasksBitIdentical(t *testing.T) {
	rt := sched.New(4, 1)
	defer rt.Close()
	rng := rand.New(rand.NewSource(501))
	shapes := [][3]int{{96, 80, 64}, {33, 47, 29}, {130, 24, 70}, {16, 16, 16}}
	for _, mode := range []Mode{ModeAuto, ModeScalar} {
		for _, dims := range shapes {
			m, n, kk := dims[0], dims[1], dims[2]
			for _, ta := range []blas.Transpose{blas.NoTrans, blas.Trans} {
				for _, tb := range []blas.Transpose{blas.NoTrans, blas.Trans} {
					rowsA, colsA := m, kk
					if ta.IsTrans() {
						rowsA, colsA = kk, m
					}
					rowsB, colsB := kk, n
					if tb.IsTrans() {
						rowsB, colsB = n, kk
					}
					a := randSlice(rng, rowsA*colsA)
					b := randSlice(rng, rowsB*colsB)
					c1 := randSlice(rng, m*n)
					c2 := append([]float64(nil), c1...)

					// Small blocks force many MC chunks even at these sizes.
					k1 := &Packed{MC: 16, KC: 12, NC: 20, Mode: mode}
					k2 := &Packed{MC: 16, KC: 12, NC: 20, Mode: mode}
					k1.MulAdd(ta, tb, m, n, kk, 1.25, a, rowsA, b, rowsB, c1, m)
					k2.MulAddTasks(rt, 4, ta, tb, m, n, kk, 1.25, a, rowsA, b, rowsB, c2, m)
					for i := range c1 {
						if c1[i] != c2[i] {
							t.Fatalf("mode=%v dims=%v ta=%v tb=%v: c[%d] = %v (tasks) vs %v (sequential)",
								mode, dims, ta, tb, i, c2[i], c1[i])
						}
					}
				}
			}
		}
	}
}

// TestMulAddTasksDegradesToMulAdd pins the fallback cases: nil submitter
// and a single effective chunk both run the plain nest (still correct).
func TestMulAddTasksDegradesToMulAdd(t *testing.T) {
	rt := sched.New(2, 3)
	defer rt.Close()
	rng := rand.New(rand.NewSource(502))
	m, n, kk := 24, 20, 16
	a := randSlice(rng, m*kk)
	b := randSlice(rng, kk*n)
	c0 := randSlice(rng, m*n)

	cases := []struct {
		name string
		mc   int
		sub  sched.Submitter
	}{
		{"nil submitter", 16, nil},
		// MC ≥ m leaves one chunk: threads clamp to 1 and the task path
		// is skipped even with a live runtime.
		{"one chunk", 64, rt},
	}
	for _, tc := range cases {
		want := append([]float64(nil), c0...)
		got := append([]float64(nil), c0...)
		seq := &Packed{MC: tc.mc, KC: 12, NC: 20}
		seq.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, want, m)
		tk := &Packed{MC: tc.mc, KC: 12, NC: 20}
		tk.MulAddTasks(tc.sub, 8, blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, got, m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: diverged at %d", tc.name, i)
			}
		}
	}
}

// TestLeafWorkspaceParallelBoundsArena pins the accounting: the arena's
// high-water mark under MulAddTasks never exceeds LeafWorkspaceParallel,
// and the parallel figure collapses to LeafWorkspace at one thread.
func TestLeafWorkspaceParallelBoundsArena(t *testing.T) {
	rt := sched.New(4, 9)
	defer rt.Close()
	rng := rand.New(rand.NewSource(503))
	m, n, kk := 96, 64, 48
	k := &Packed{MC: 16, KC: 12, NC: 20}
	arena := memtrack.New()
	k.SetArena(arena)
	a := randSlice(rng, m*kk)
	b := randSlice(rng, kk*n)
	c := make([]float64, m*n)
	k.MulAddTasks(rt, 4, blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, c, m)
	if peak, bound := arena.Peak(), k.LeafWorkspaceParallel(m, n, kk, 4); peak > bound {
		t.Fatalf("arena peak %d exceeds LeafWorkspaceParallel %d", peak, bound)
	}
	if live := arena.Live(); live != 0 {
		t.Fatalf("%d arena words leaked", live)
	}
	if got, want := k.LeafWorkspaceParallel(m, n, kk, 1), k.LeafWorkspace(m, n, kk); got != want {
		t.Fatalf("1-thread parallel workspace %d != sequential %d", got, want)
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// TestMulAddTasksPanicFreesArena: a chunk task that panics — here C is one
// column short, so the write-out of the last column indexes past the slice —
// re-raises in the caller, and neither its Ã panel nor the shared B̃ panel
// may stay live in the kernel's arena once the panic is recovered.
func TestMulAddTasksPanicFreesArena(t *testing.T) {
	rt := sched.New(2, 9)
	defer rt.Close()
	rng := rand.New(rand.NewSource(509))
	m, n, kk := 64, 40, 24
	a := randSlice(rng, m*kk)
	b := randSlice(rng, kk*n)
	c := randSlice(rng, m*(n-1))
	k := &Packed{MC: 16, KC: 12, NC: 20}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a one-column-short C did not panic")
			}
		}()
		k.MulAddTasks(rt, 2, blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, c, m)
	}()
	if live := k.Arena().Live(); live != 0 {
		t.Fatalf("arena holds %d words after a recovered chunk panic", live)
	}
}
