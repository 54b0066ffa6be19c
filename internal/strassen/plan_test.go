package strassen

import (
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/memtrack"
)

// planTestConfigs spans the schedule × odd-strategy × criterion space the
// plan simulation must mirror.
func planTestConfigs() []*Config {
	return []*Config{
		{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}},
		{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Schedule: ScheduleStrassen2},
		{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Schedule: ScheduleStrassen1},
		{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Schedule: ScheduleOriginal},
		{Kernel: blas.NaiveKernel{}, Criterion: Always{}, MaxDepth: 3},
		{Kernel: blas.NaiveKernel{}, Criterion: Hybrid{Tau: 12, TauM: 8, TauK: 8, TauN: 8}},
		{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Odd: OddPeelFirst},
		{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Odd: OddPadDynamic},
		{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 8}, Odd: OddPadStatic},
	}
}

// TestPlanWordsMatchMeasuredPeak asserts the plan's workspace simulation is
// exact: Plan.Words equals the memtrack high-water mark of a real call,
// across schedules, odd strategies and β classes.
func TestPlanWordsMatchMeasuredPeak(t *testing.T) {
	shapes := [][3]int{{64, 64, 64}, {65, 33, 97}, {48, 96, 24}, {63, 63, 63}, {96, 17, 80}}
	for ci, cfg := range planTestConfigs() {
		for _, dims := range shapes {
			m, k, n := dims[0], dims[1], dims[2]
			for _, beta := range []float64{0, 0.5} {
				rng := rand.New(rand.NewSource(int64(ci*1000 + m + k + n)))
				tr := memtrack.New()
				run := *cfg
				run.Tracker = tr
				a := matrix.NewRandom(m, k, rng)
				b := matrix.NewRandom(k, n, rng)
				c := matrix.NewRandom(m, n, rng)
				DGEFMM(&run, blas.NoTrans, blas.NoTrans, m, n, k, 1,
					a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
				plan := PlanFor(cfg, m, n, k, beta == 0)
				if got, want := plan.Words, tr.Peak(); got != want {
					t.Errorf("cfg#%d dims=%v beta=%g: plan words %d != measured peak %d",
						ci, dims, beta, got, want)
				}
			}
		}
	}
}

// TestPlanCriterionReplaysIdentically asserts a DGEFMM call through the
// plan's cached criterion is bit-for-bit identical to the live-criterion
// call it was planned from.
func TestPlanCriterionReplaysIdentically(t *testing.T) {
	for ci, cfg := range planTestConfigs() {
		for _, dims := range [][3]int{{64, 64, 64}, {65, 33, 97}, {30, 70, 50}} {
			m, k, n := dims[0], dims[1], dims[2]
			for _, beta := range []float64{0, 1.25} {
				rng := rand.New(rand.NewSource(int64(ci*100 + m)))
				a := matrix.NewRandom(m, k, rng)
				b := matrix.NewRandom(k, n, rng)
				c1 := matrix.NewRandom(m, n, rng)
				c2 := c1.Clone()
				DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1.5,
					a.Data, a.Stride, b.Data, b.Stride, beta, c1.Data, c1.Stride)
				planned := PlanFor(cfg, m, n, k, beta == 0).Apply(cfg)
				DGEFMM(planned, blas.NoTrans, blas.NoTrans, m, n, k, 1.5,
					a.Data, a.Stride, b.Data, b.Stride, beta, c2.Data, c2.Stride)
				for j := 0; j < n; j++ {
					for i := 0; i < m; i++ {
						if c1.At(i, j) != c2.At(i, j) {
							t.Fatalf("cfg#%d dims=%v beta=%g: planned result differs at (%d,%d): %v vs %v",
								ci, dims, beta, i, j, c1.At(i, j), c2.At(i, j))
						}
					}
				}
			}
		}
	}
}

// TestPlanWordsWithinWorkspaceBound checks the exact simulation sits under
// the paper's closed-form Table 1 bound for the peeling strategies.
func TestPlanWordsWithinWorkspaceBound(t *testing.T) {
	skipIfAlgoPinned(t)
	crit := Always{}
	for _, sched := range []Schedule{ScheduleAuto, ScheduleStrassen1, ScheduleStrassen2, ScheduleOriginal} {
		for _, odd := range []OddStrategy{OddPeel, OddPeelFirst} {
			for _, dims := range [][3]int{{64, 64, 64}, {128, 128, 128}, {65, 33, 97}, {96, 48, 24}} {
				m, k, n := dims[0], dims[1], dims[2]
				for _, betaZero := range []bool{true, false} {
					cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: crit, Schedule: sched, Odd: odd, MaxDepth: 6}
					plan := PlanFor(cfg, m, n, k, betaZero)
					bound := WorkspaceBound(sched, m, k, n, betaZero)
					if plan.Words > bound {
						t.Errorf("sched=%v odd=%v dims=%v betaZero=%v: plan words %d exceed analytic bound %d",
							sched, odd, dims, betaZero, plan.Words, bound)
					}
				}
			}
		}
	}
}

// TestPlanDepthAndSchedule sanity-checks the reported metadata.
func TestPlanDepthAndSchedule(t *testing.T) {
	cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Always{}, MaxDepth: 3}
	p := PlanFor(cfg, 64, 64, 64, true)
	if p.Depth != 3 {
		t.Errorf("depth = %d, want 3 (MaxDepth-bounded)", p.Depth)
	}
	if p.TopSchedule != ScheduleStrassen1 {
		t.Errorf("β=0 auto resolved to %v, want strassen1", p.TopSchedule)
	}
	if q := PlanFor(cfg, 64, 64, 64, false); q.TopSchedule != ScheduleStrassen2 {
		t.Errorf("β≠0 auto resolved to %v, want strassen2", q.TopSchedule)
	}
	if never := PlanFor(&Config{Kernel: blas.NaiveKernel{}, Criterion: Never{}}, 64, 64, 64, true); never.Depth != 0 || never.Words != 0 {
		t.Errorf("Never plan: depth=%d words=%d, want 0/0", never.Depth, never.Words)
	}
}

// TestPlanKernelWordsMatchMeasuredArenaPeak asserts the kernel-workspace
// side of the plan is exact too: with the packed base-case kernel,
// Plan.KernelWords equals the high-water mark of the kernel's own packing
// arena over a real call (the two accounting axes — Strassen temporaries
// and packing buffers — stay separate, so Plan.Words is unaffected).
func TestPlanKernelWordsMatchMeasuredArenaPeak(t *testing.T) {
	shapes := [][3]int{{64, 64, 64}, {65, 33, 97}, {48, 96, 24}, {96, 17, 80}}
	for ci, base := range planTestConfigs() {
		for _, dims := range shapes {
			m, k, n := dims[0], dims[1], dims[2]
			for _, beta := range []float64{0, 0.5} {
				rng := rand.New(rand.NewSource(int64(ci*1000 + m + k + n)))
				pk := &kernel.Packed{MC: 16, KC: 12, NC: 16}
				arena := memtrack.New()
				pk.SetArena(arena)
				run := *base
				run.Kernel = pk
				run.Tracker = memtrack.New()
				a := matrix.NewRandom(m, k, rng)
				b := matrix.NewRandom(k, n, rng)
				c := matrix.NewRandom(m, n, rng)
				DGEFMM(&run, blas.NoTrans, blas.NoTrans, m, n, k, 1,
					a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
				cfg := *base
				cfg.Kernel = pk
				plan := PlanFor(&cfg, m, n, k, beta == 0)
				if got, want := plan.KernelWords, arena.Peak(); got != want {
					t.Errorf("cfg#%d dims=%v beta=%g: plan kernel words %d != measured arena peak %d",
						ci, dims, beta, got, want)
				}
				if live := arena.Live(); live != 0 {
					t.Errorf("cfg#%d dims=%v beta=%g: %d kernel arena words leaked", ci, dims, beta, live)
				}
			}
		}
	}
}

// TestPlanKernelWordsParallelBound: under the parallel schedule the plan
// multiplies the worst leaf by the concurrency, so the measured arena peak
// (which depends on scheduling luck) must stay within it.
func TestPlanKernelWordsParallelBound(t *testing.T) {
	m := 96
	rng := rand.New(rand.NewSource(42))
	pk := &kernel.Packed{MC: 16, KC: 12, NC: 16}
	arena := memtrack.New()
	pk.SetArena(arena)
	_, w4 := testRuntimes()
	cfg := &Config{Kernel: pk, Criterion: Simple{Tau: 16}, Sched: w4}
	run := *cfg
	run.Tracker = memtrack.New()
	a := matrix.NewRandom(m, m, rng)
	b := matrix.NewRandom(m, m, rng)
	c := matrix.NewRandom(m, m, rng)
	DGEFMM(&run, blas.NoTrans, blas.NoTrans, m, m, m, 1,
		a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	plan := PlanFor(cfg, m, m, m, true)
	if plan.KernelWords <= 0 {
		t.Fatal("parallel plan reports no kernel workspace")
	}
	if peak := arena.Peak(); peak > plan.KernelWords {
		t.Errorf("measured kernel arena peak %d exceeds planned bound %d", peak, plan.KernelWords)
	}
}
