package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/memtrack"
	"repro/internal/sched"
	"repro/internal/strassen"
)

// libShapes fall on both sides of the recursion and fused decisions: an
// even square at two depths, an odd square (peeling at every level), a
// flat-k product and the rectangular shape on which one recursion level
// is slower than the kernel.
var libShapes = []struct {
	kind    string
	m, k, n int
}{
	{"square", 1024, 1024, 1024},
	{"square", 2048, 2048, 2048},
	{"odd", 1537, 1537, 1537},
	{"rect", 2048, 512, 2048},
	{"rect", 1000, 3000, 700},
}

// libSystem is one caller's DGEFMM configuration on its own runtime.
type libSystem struct {
	rt  *sched.Runtime
	cfg *strassen.Config
}

func (s libSystem) close() { s.rt.Close() }

// passStats is what one run of passes (or bursts) measured.
type passStats struct {
	passes, calls int
	lat           []float64 // per-call (per-burst) latency, ms
	passTime      []float64 // timed seconds of each pass
	busy          time.Duration
	flops         float64
}

// rates returns the throughput of the median pass. Every pass does the
// same work, so the median discounts the passes a host stall hit.
func (st passStats) rates() (gflops, callsPerSec float64) {
	t := median(st.passTime) * float64(st.passes)
	return st.flops / t / 1e9, float64(st.calls) / t
}

// runLib is the lib-large workload: one caller thread makes a seeded
// sequence of β=0 DGEFMMCtx calls on a runtime with one worker per CPU.
func runLib(b *bench) error {
	ref, closeRef := dagReference(b.seed)
	probs := make([]*problem, len(libShapes))
	outs := make([][]float64, len(libShapes))
	for i, s := range libShapes {
		probs[i] = newProblem(b.rng, s.kind, N, N, s.m, s.n, s.k, 1, 0)
		probs[i].prepare(b, b.rng, ref)
		outs[i] = make([]float64, s.m*s.n)
		settle() // the references are garbage now; keep the heap small
	}
	closeRef()
	build := func(tr strassen.Tracer) (libSystem, error) {
		rt := sched.New(b.workers, b.seed)
		cfg := strassen.DefaultConfig(blas.CloneKernel(kernel.Default()))
		cfg.Sched, cfg.Tracker, cfg.Tracer = rt, memtrack.New(), tr
		for i, p := range probs {
			if err := p.call(cfg, outs[i]); err != nil {
				rt.Close()
				return libSystem{}, fmt.Errorf("warm-up %s: %w", p.name, err)
			}
		}
		return libSystem{rt, cfg}, nil
	}
	order := rand.New(rand.NewSource(b.seed + 1))

	if !b.traced {
		sys, err := setupMedian(b, 3, func() (libSystem, error) { return build(nil) }, libSystem.close)
		if err != nil {
			return err
		}
		defer sys.close()
		st := b.libPasses(sys.cfg, probs, outs, order, b.window, 0, true, nil)
		gf, rate := st.rates()
		b.set("gflops", gf)
		b.setLatency(st.lat)
		b.set("slo_frac", float64(b.attempted-b.failed)/float64(b.attempted))
		b.set("max_rate_rps", rate)
		b.set("workspace_peak_mw", float64(sys.cfg.Tracker.Peak())/1e6)
		b.notef("lib-large: %d passes, %d calls, %.2f GFLOP/s over all passes, %.2f in the median pass; Strassen workspace peak %d words",
			st.passes, st.calls, st.flops/st.busy.Seconds()/1e9, gf, sys.cfg.Tracker.Peak())
		return nil
	}

	// Untraced pass: only a CountTracer, for the path guard.
	settle()
	ctU := strassen.NewCountTracer()
	sysU, err := build(ctU)
	if err != nil {
		return err
	}
	settle()
	stU := b.libPasses(sysU.cfg, probs, outs, order, b.window/2, 0, true, nil)
	sysU.close()

	// Traced pass: the same number of passes with phases and spans on.
	ctT := strassen.NewCountTracer()
	sys, err := build(ctT)
	if err != nil {
		return err
	}
	defer sys.close()
	settle()
	rec := newSpans()
	s0 := sys.rt.Stats()
	stop := profile()
	t0 := time.Now()
	st := b.libPasses(sys.cfg, probs, outs, order, 0, stU.passes, true, rec)
	wall := time.Since(t0)
	phases := stop()
	s1 := sys.rt.Stats()

	b.guardActions(ctU, ctT, st.calls+len(probs))
	untracedGF, _ := stU.rates()
	tracedGF, _ := st.rates()
	b.set("trace.overhead", untracedGF/tracedGF)
	b.notef("trace overhead: traced %.2f vs untraced %.2f GFLOP/s", tracedGF, untracedGF)

	coreNS := float64(b.workers) * float64(st.busy.Nanoseconds())
	work := b.phaseMetrics(phases, coreNS)
	idle := b.schedMetrics(s0, s1, st.calls, wall-st.busy, coreNS)
	b.addUp(phases, coreNS, work, idle)
	b.report = append(b.report, rec.summary()...)

	var bound int64
	for _, p := range probs {
		bound = max(bound, strassen.WorkspaceBound(strassen.ScheduleAuto, p.m, p.k, p.n, true))
	}
	b.set("strassen.workspace_vs_bound", float64(sys.cfg.Tracker.Peak())/float64(bound))
	b.planMetric(sys.cfg, probs)

	// sched.speedup and sched.workspace_x: the same passes without the
	// runtime, back to back with the runtime.
	seqCfg := strassen.DefaultConfig(blas.CloneKernel(kernel.Default()))
	seqCfg.Tracker = memtrack.New()
	var seqT, parT []float64
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < 2; i++ {
			if (rep+i)%2 == 0 {
				parT = append(parT, b.libPasses(sys.cfg, probs, outs, order, 0, 1, true, nil).busy.Seconds())
			} else {
				seqT = append(seqT, b.libPasses(seqCfg, probs, outs, order, 0, 1, false, nil).busy.Seconds())
			}
		}
	}
	b.set("sched.speedup", median(seqT)/median(parT))
	b.set("sched.workspace_x", float64(sys.cfg.Tracker.Peak())/float64(seqCfg.Tracker.Peak()))
	b.notef("sched: pass %.3f s sequential vs %.3f s on %d workers; Strassen workspace %d vs %d words",
		median(seqT), median(parT), b.workers, seqCfg.Tracker.Peak(), sys.cfg.Tracker.Peak())

	b.vsKernel(seqCfg, probs[1], probs[2], probs[4])
	return nil
}

// dagReference returns the configuration the outputs of a runtime-backed
// workload are checked against bit for bit: the default configuration on a
// one-worker runtime, which runs the same task DAG sequentially. The DAG
// level has its own product schedule, so its results are bit-identical
// across worker counts but differ in rounding from the Sched=nil engine;
// those are checked against the Higham bound instead.
func dagReference(seed int64) (*strassen.Config, func()) {
	rt := sched.New(1, seed)
	cfg := strassen.DefaultConfig(nil)
	cfg.Sched = rt
	return cfg, rt.Close
}

// libPasses runs whole passes over the problems, each pass in a fresh
// seeded order, until window is spent or, when window is 0, for exactly
// n passes. Only the calls are timed; every output is checked after its
// call, bit for bit against the reference when bitwise is set (cfg runs
// the reference's DAG) and against the Higham bound otherwise.
func (b *bench) libPasses(cfg *strassen.Config, probs []*problem, outs [][]float64, order *rand.Rand, window time.Duration, n int, bitwise bool, rec *spans) passStats {
	var st passStats
	start := time.Now()
	for (window > 0 && time.Since(start) < window) || (window == 0 && st.passes < n) {
		pass := rec.begin("lib-large.pass", 0)
		var passTime time.Duration
		for _, i := range order.Perm(len(probs)) {
			p := probs[i]
			p.reset(outs[i])
			sp := rec.begin("strassen.DGEFMMCtx", pass)
			t0 := time.Now()
			err := p.call(cfg, outs[i])
			d := time.Since(t0)
			rec.end(sp)
			if bitwise {
				b.check(p, outs[i], err)
			} else {
				b.checkBound(p, outs[i], err, p.depth)
			}
			st.lat = append(st.lat, ms(d))
			passTime += d
			st.flops += p.flops()
			st.calls++
		}
		rec.end(pass)
		st.passTime = append(st.passTime, passTime.Seconds())
		st.busy += passTime
		st.passes++
	}
	return st
}

// schedMetrics reports the runtime's counters over a traced pass and
// returns the idle time inside the timed calls: the runtime's parked and
// waiting time minus the workers' idle time while the benchmark checked
// outputs between calls (untimed).
func (b *bench) schedMetrics(s0, s1 sched.Stats, calls int, untimed time.Duration, coreNS float64) float64 {
	idle := float64(s1.IdleNS-s0.IdleNS) - float64(b.workers)*float64(untimed.Nanoseconds())
	idle = max(idle, 0)
	b.set("sched.idle_frac", idle/coreNS)
	b.set("sched.steals_per_call", float64(s1.Steals-s0.Steals)/float64(calls))
	b.set("sched.tasks_per_call", float64(s1.TasksRun-s0.TasksRun)/float64(calls))
	b.set("sched.max_running", float64(s1.MaxRunning))
	return idle
}

// planMetric times strassen.PlanFor on every problem shape (median of five
// per shape) and reports the mean over shapes in microseconds.
func (b *bench) planMetric(cfg *strassen.Config, probs []*problem) {
	var total float64
	for _, p := range probs {
		var ts []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			strassen.PlanFor(cfg, p.m, p.n, p.k, p.beta == 0)
			ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		total += median(ts)
	}
	b.set("strassen.plan_us", total/float64(len(probs)))
}

// vsKernel times sequential DGEFMM against the kernel's own MulAdd on one
// square, one odd and one rectangular problem, back to back in alternating
// order (the paper's ratio; below 1 means DGEFMM is faster).
func (b *bench) vsKernel(seqCfg *strassen.Config, square, odd, rect *problem) {
	kern := kernel.Default()
	for _, x := range []struct {
		name string
		p    *problem
	}{{"square", square}, {"odd", odd}, {"rect", rect}} {
		p := x.p
		c := make([]float64, p.m*p.n)
		p.reset(c)
		if err := p.call(seqCfg, c); err != nil { // warm the clone's arena
			b.wrongf("%s: %v", p.name, err)
		}
		var tf, tk []float64
		for rep := 0; rep < 6; rep++ {
			p.reset(c)
			if rep%2 == 0 {
				t0 := time.Now()
				err := p.call(seqCfg, c)
				tf = append(tf, time.Since(t0).Seconds())
				b.checkBound(p, c, err, p.depth)
				continue
			}
			if p.c0 == nil {
				clear(c)
			} else {
				blas.Dscal(len(c), p.beta, c, 1)
			}
			t0 := time.Now()
			kern.MulAdd(p.ta, p.tb, p.m, p.n, p.k, p.alpha, p.a, p.lda, p.b, p.ldb, c, p.m)
			tk = append(tk, time.Since(t0).Seconds())
			b.checkBound(p, c, nil, 0)
		}
		b.set("strassen.vs_kernel."+x.name, median(tf)/median(tk))
		b.notef("vs kernel %-6s %s: DGEFMM %.3f ms, kernel %.3f ms", x.name, p.name, 1e3*median(tf), 1e3*median(tk))
	}
}
