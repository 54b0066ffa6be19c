package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/batch"
	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/memtrack"
	"repro/internal/sched"
	"repro/internal/strassen"
)

// N and T are the BLAS transpose characters.
const (
	N = blas.NoTrans
	T = blas.Trans
)

// batchSlots are the sixteen calls of one burst, with orders from 384 to
// 1100 around the cutoff τ (448–512). Each slot fixes a base shape, its
// parity and its transposes. The seed moves every dimension by a multiple
// of 8 up to ±16, which keeps each dimension's residue mod 8 and so the
// peeling pattern of the first three levels; the bases sit far enough from
// the cutoff decisions that every seed gives each slot the same recursion
// depth. The burst's work and shape classes thus stay the same from seed
// to seed while the exact shapes change.
var batchSlots = []struct {
	kind    string
	m, k, n int
	ta, tb  blas.Transpose
}{
	{"square", 384, 384, 384, N, N},
	{"square", 432, 432, 432, N, N},
	{"square", 480, 480, 480, N, N},
	{"odd", 577, 577, 577, N, N},
	{"square", 640, 640, 640, T, N},
	{"odd", 705, 705, 705, N, T},
	{"square", 768, 768, 768, T, T},
	{"odd", 865, 865, 865, N, N},
	{"square", 1024, 1024, 1024, N, N},
	{"odd", 1081, 1081, 1081, T, N},
	{"rect", 1024, 416, 768, N, N},
	{"rect", 416, 1056, 512, N, T},
	{"rect", 896, 512, 384, T, N},
	{"odd", 641, 961, 705, N, N},
	{"rect", 1056, 416, 992, T, T},
	{"odd", 481, 801, 1081, N, N},
}

func jitter(rng *rand.Rand, base int) int { return base + 8*(rng.Intn(5)-2) }

// batchSystem is a pool whose workers share one runtime.
type batchSystem struct {
	rt   *sched.Runtime
	pool *batch.Pool
}

func (s batchSystem) close() {
	s.pool.Close()
	s.rt.Close()
}

// runBatch is the batch-mid workload: one submitter runs a closed loop of
// bursts of sixteen independent accumulating calls (α ≠ 1, β = 1) through
// batch.Pool.Execute.
func runBatch(b *bench) error {
	ref, closeRef := dagReference(b.seed)
	probs := make([]*problem, len(batchSlots))
	calls := make([]batch.Call, len(batchSlots))
	for i, s := range batchSlots {
		m, k, nn := jitter(b.rng, s.m), jitter(b.rng, s.k), jitter(b.rng, s.n)
		alpha := 0.5 + b.rng.Float64()
		p := newProblem(b.rng, s.kind, s.ta, s.tb, m, nn, k, alpha, 1)
		p.prepare(b, b.rng, ref)
		settle() // the references are garbage now; keep the heap small
		probs[i] = p
		calls[i] = batch.Call{
			TransA: p.ta, TransB: p.tb, M: p.m, N: p.n, K: p.k,
			Alpha: p.alpha, Beta: p.beta,
			A: p.a, Lda: p.lda, B: p.b, Ldb: p.ldb,
			C: make([]float64, p.m*p.n), Ldc: p.m,
		}
	}
	closeRef()
	var burstFlops float64
	for _, p := range probs {
		burstFlops += p.flops()
	}
	build := func(tr strassen.Tracer) (batchSystem, error) {
		rt := sched.New(b.workers, b.seed)
		cfg := strassen.DefaultConfig(nil)
		cfg.Tracer = tr
		pool := batch.NewPool(&batch.Options{Workers: b.workers, Sched: rt, Config: cfg})
		sys := batchSystem{rt, pool}
		for i := range calls {
			probs[i].reset(calls[i].C)
		}
		if err := pool.Execute(calls); err != nil {
			sys.close()
			return batchSystem{}, fmt.Errorf("warm-up burst: %w", err)
		}
		return sys, nil
	}

	if !b.traced {
		sys, err := setupMedian(b, 3, func() (batchSystem, error) { return build(nil) }, batchSystem.close)
		if err != nil {
			return err
		}
		defer sys.close()
		st := b.bursts(sys.pool, probs, calls, b.window, 0, nil)
		gf, rate := st.rates()
		b.set("gflops", gf)
		b.setLatency(st.lat)
		b.set("slo_frac", float64(b.attempted-b.failed)/float64(b.attempted))
		b.set("max_rate_rps", rate)
		ps := sys.pool.Stats()
		var peak int64
		for _, a := range ps.Arenas {
			peak += a.Peak
		}
		b.set("workspace_peak_mw", float64(peak)/1e6)
		b.notef("batch-mid: %d bursts of %d calls (%.2f GFLOP each), %.2f GFLOP/s over all bursts, %.2f in the median burst; worker arena peaks sum %d words",
			st.passes, len(calls), burstFlops/1e9, st.flops/st.busy.Seconds()/1e9, gf, peak)
		return nil
	}

	settle()
	ctU := strassen.NewCountTracer()
	sysU, err := build(ctU)
	if err != nil {
		return err
	}
	settle()
	stU := b.bursts(sysU.pool, probs, calls, b.window/2, 0, nil)
	sysU.close()

	ctT := strassen.NewCountTracer()
	sys, err := build(ctT)
	if err != nil {
		return err
	}
	defer sys.close()
	settle()
	a0 := sys.pool.Stats()
	rec := newSpans()
	s0 := sys.rt.Stats()
	stop := profile()
	t0 := time.Now()
	st := b.bursts(sys.pool, probs, calls, 0, stU.passes, rec)
	wall := time.Since(t0)
	phases := stop()
	s1 := sys.rt.Stats()
	a1 := sys.pool.Stats()

	b.guardActions(ctU, ctT, st.calls+len(calls))
	untracedGF, _ := stU.rates()
	tracedGF, _ := st.rates()
	b.set("trace.overhead", untracedGF/tracedGF)
	b.notef("trace overhead: traced %.2f vs untraced %.2f GFLOP/s", tracedGF, untracedGF)

	coreNS := float64(b.workers) * float64(st.busy.Nanoseconds())
	work := b.phaseMetrics(phases, coreNS)
	idle := b.schedMetrics(s0, s1, st.calls, wall-st.busy, coreNS)
	b.addUp(phases, coreNS, work, idle)
	b.report = append(b.report, rec.summary()...)

	var fresh, reused, peak, bound int64
	for i, a := range a1.Arenas {
		fresh += a.Allocs - a0.Arenas[i].Allocs
		reused += a.Reused - a0.Arenas[i].Reused
		peak = max(peak, a.Peak)
	}
	if fresh+reused > 0 {
		b.set("batch.arena_reuse_frac", float64(reused)/float64(fresh+reused))
	}
	b.set("batch.plan_buckets", float64(a1.Buckets))
	for _, p := range probs {
		bound = max(bound, strassen.WorkspaceBound(strassen.ScheduleAuto, p.m, p.k, p.n, false))
	}
	b.set("strassen.workspace_vs_bound", float64(peak)/float64(bound))
	b.notef("arenas: %d fresh and %d reused draws in the traced pass; largest worker peak %d words, bound %d",
		fresh, reused, peak, bound)
	planCfg := strassen.DefaultConfig(nil)
	planCfg.Sched = sys.rt
	b.planMetric(planCfg, probs)

	// batch.vs_loop: the same burst through the pool and through a plain
	// DGEFMMCtx loop on the same runtime, back to back.
	loopCfg := strassen.DefaultConfig(blas.CloneKernel(kernel.Default()))
	loopCfg.Sched, loopCfg.Tracker = sys.rt, memtrack.New()
	var tp, tl []float64
	for rep := 0; rep < 4; rep++ {
		if rep%2 == 0 {
			tp = append(tp, b.bursts(sys.pool, probs, calls, 0, 1, nil).busy.Seconds())
			continue
		}
		var busy time.Duration
		for i, p := range probs {
			p.reset(calls[i].C)
			t0 := time.Now()
			err := p.call(loopCfg, calls[i].C)
			busy += time.Since(t0)
			b.check(p, calls[i].C, err)
		}
		tl = append(tl, busy.Seconds())
	}
	b.set("batch.vs_loop", median(tp)/median(tl))
	b.notef("batch vs loop: burst %.3f s through the pool, %.3f s as a DGEFMMCtx loop", median(tp), median(tl))

	seqCfg := strassen.DefaultConfig(blas.CloneKernel(kernel.Default()))
	b.vsKernel(seqCfg, probs[8], probs[7], probs[10])
	return nil
}

// bursts runs closed-loop bursts of every call through the pool until
// window is spent or, when window is 0, for exactly n bursts. C is reset
// before each burst and every output checked after it; only Execute is
// timed.
func (b *bench) bursts(pool *batch.Pool, probs []*problem, calls []batch.Call, window time.Duration, n int, rec *spans) passStats {
	var st passStats
	start := time.Now()
	for (window > 0 && time.Since(start) < window) || (window == 0 && st.passes < n) {
		for i := range calls {
			probs[i].reset(calls[i].C)
		}
		sp := rec.begin("batch.Pool.Execute", 0)
		t0 := time.Now()
		err := pool.Execute(calls)
		d := time.Since(t0)
		rec.end(sp)
		for i, p := range probs {
			b.check(p, calls[i].C, err)
			st.flops += p.flops()
		}
		st.lat = append(st.lat, ms(d))
		st.passTime = append(st.passTime, d.Seconds())
		st.busy += d
		st.calls += len(calls)
		st.passes++
	}
	return st
}
