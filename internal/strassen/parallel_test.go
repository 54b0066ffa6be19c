package strassen

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/sched"
)

func TestParallelMatchesSequential(t *testing.T) {
	_, w4 := testRuntimes()
	rng := rand.New(rand.NewSource(401))
	for _, dims := range [][3]int{{64, 64, 64}, {65, 33, 97}, {128, 96, 80}} {
		m, k, n := dims[0], dims[1], dims[2]
		for _, beta := range []float64{0, 0.5} {
			a := matrix.NewRandom(m, k, rng)
			b := matrix.NewRandom(k, n, rng)
			c1 := matrix.NewRandom(m, n, rng)
			c2 := c1.Clone()

			seq := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}}
			par := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: w4, SchedLevels: 2}
			DGEFMM(seq, blas.NoTrans, blas.NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, beta, c1.Data, c1.Stride)
			DGEFMM(par, blas.NoTrans, blas.NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, beta, c2.Data, c2.Stride)
			if d := matrix.MaxAbsDiff(c1, c2); d > tol(k) {
				t.Fatalf("dims=%v β=%v: parallel differs from sequential by %g", dims, beta, d)
			}
		}
	}
}

func TestParallelCorrectAgainstReference(t *testing.T) {
	rt := sched.New(7, 402)
	defer rt.Close()
	rng := rand.New(rand.NewSource(402))
	cfg := &Config{Kernel: &blas.BlockedKernel{}, Criterion: Simple{Tau: 16}, Sched: rt, SchedLevels: 3}
	for _, dims := range [][3]int{{96, 96, 96}, {67, 81, 75}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := matrix.NewRandom(m, k, rng)
		b := matrix.NewRandom(k, n, rng)
		c := matrix.NewRandom(m, n, rng)
		want := refMul(blas.NoTrans, blas.NoTrans, 2, a, b, 0.25, c)
		DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 2, a.Data, a.Stride, b.Data, b.Stride, 0.25, c.Data, c.Stride)
		if d := matrix.MaxAbsDiff(c, want); d > tol(k) {
			t.Fatalf("dims=%v: %g", dims, d)
		}
	}
}

// TestParallelTrackerBalanced: the shared tracker must see every product
// task's allocation and end balanced, and its peak must match the
// planner's accounting — a DAG level holds mk + kn + 7mn/4 words (S/T
// operands and all seven products) while up to lanes products recurse
// sequentially underneath. On one worker the schedule is deterministic, so
// the peak equals the plan exactly; on more workers it depends on which
// products overlap and the plan is its upper bound.
func TestParallelTrackerBalanced(t *testing.T) {
	skipIfAlgoPinned(t)
	w1, w4 := testRuntimes()
	rng := rand.New(rand.NewSource(403))
	m := 64
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	for _, rt := range []*sched.Runtime{w1, w4} {
		tr := memtrack.New()
		cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Sched: rt, Tracker: tr}
		c := matrix.NewDense(m, m)
		DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
		plan := PlanFor(cfg, m, m, m, true)
		workers := rt.Workers()
		if tr.Live() != 0 {
			t.Fatalf("workers=%d: parallel run leaked %d words", workers, tr.Live())
		}
		// The parallel level needs more than the sequential bound of 2m²/3.
		if tr.Peak() <= int64(2*m*m/3) {
			t.Errorf("workers=%d: peak %d suspiciously small for the parallel schedule", workers, tr.Peak())
		}
		if workers == 1 {
			if tr.Peak() != plan.Words {
				t.Errorf("workers=1: peak %d, planned %d", tr.Peak(), plan.Words)
			}
		} else if tr.Peak() > plan.Words {
			t.Errorf("workers=%d: peak %d exceeds planned bound %d", workers, tr.Peak(), plan.Words)
		}
	}
}

// TestNoRecursionSchedLeafMatchesBase: with no recursion (Never) on a
// multi-worker runtime, DGEFMM is the leaf kernel alone with its MC loop
// threaded (MulAddTasks) — the GEMM arm cmd/calibrate's core sweep times.
// The result stays bit-for-bit the base kernel's.
func TestNoRecursionSchedLeafMatchesBase(t *testing.T) {
	_, w4 := testRuntimes()
	rng := rand.New(rand.NewSource(407))
	m, k, n := 96, 48, 64
	a := matrix.NewRandom(m, k, rng)
	b := matrix.NewRandom(k, n, rng)
	c1 := matrix.NewRandom(m, n, rng)
	c2 := c1.Clone()
	base := &kernel.Packed{MC: 16, KC: 12, NC: 20}
	blas.DgemmKernel(base, blas.NoTrans, blas.NoTrans, m, n, k, 1.5,
		a.Data, a.Stride, b.Data, b.Stride, 0.5, c1.Data, c1.Stride)
	cfg := &Config{Kernel: &kernel.Packed{MC: 16, KC: 12, NC: 20}, Criterion: Never{}, Sched: w4}
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1.5,
		a.Data, a.Stride, b.Data, b.Stride, 0.5, c2.Data, c2.Stride)
	if !c1.Equal(c2) {
		t.Fatal("threaded leaf differs from its base kernel")
	}
}

func TestCloneKernel(t *testing.T) {
	bk := &blas.BlockedKernel{MC: 32, KC: 32, NC: 32}
	clone := blas.CloneKernel(bk)
	if clone == blas.Kernel(bk) {
		t.Fatal("BlockedKernel must clone to a distinct instance")
	}
	if clone.Name() != "blocked" {
		t.Fatal("clone lost identity")
	}
	nk := blas.NaiveKernel{}
	if blas.CloneKernel(nk) != blas.Kernel(nk) {
		t.Fatal("stateless kernels may be shared")
	}
	if blas.CloneKernel(nil) == nil {
		t.Fatal("nil should clone DefaultKernel")
	}
}

func TestParallelConcurrentDGEFMMCalls(t *testing.T) {
	// Distinct DGEFMM invocations from multiple goroutines must be safe
	// when each has its own config (the documented usage).
	rng := rand.New(rand.NewSource(406))
	m := 48
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	want := refMul(blas.NoTrans, blas.NoTrans, 1, a, b, 0, matrix.NewDense(m, m))
	var wg sync.WaitGroup
	errs := make([]float64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := &Config{Kernel: &blas.BlockedKernel{}, Criterion: Simple{Tau: 8}}
			c := matrix.NewDense(m, m)
			DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, m, m, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
			errs[g] = matrix.MaxAbsDiff(c, want)
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e > tol(m) {
			t.Fatalf("goroutine %d: error %g", g, e)
		}
	}
}
