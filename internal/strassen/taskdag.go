package strassen

// Task-DAG execution — the paper's Section 5 future-work item ("extend our
// implementation to use ... parallelism"): the recursion's products run as
// a dependency graph on the work-stealing runtime (internal/sched) attached
// as Config.Sched. One DAG level has three task ranks wired by dependency
// edges — operand formation (the S_r/T_r linear combinations), the R recursive
// products, and one single-writer write-back task per C block — so a
// product starts the moment its own operands exist, not when every operand
// of every product exists, and a C block combines as soon as its last
// product retires.
//
// Determinism: every buffer has exactly one writing task, write-back
// accumulates products in ascending r (the sequential table executor's
// order), and lane edges make the in-flight product cap a property of the
// graph rather than of scheduler timing — so the same configuration
// produces bit-for-bit identical output on a 1-worker and an N-worker
// runtime (FuzzSchedDAG pins this on the scalar Compat kernel).
//
// The schedule works for any verified ⟨M, K, N⟩ coefficient table; the
// default path runs it on the builtin Winograd ⟨2,2,2⟩ table, whose
// operand combinations are exactly the hand-coded schedule's S1..S4/T1..T4,
// so the workspace per level stays the documented 4·mk/4 + 4·kn/4 + 7·mn/4.

import (
	"context"

	"repro/internal/algo"
	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// schedParams resolves the task-runtime knobs from a Config: the per-level
// in-flight product cap (lanes, the runtime's worker count), the number of
// top recursion levels that expand into tasks (levels), and whether the
// DAG path is active at all — which it is exactly when a runtime is
// attached.
func (cfg *Config) schedParams(r int) (lanes, levels int, dag bool) {
	if cfg.Sched == nil {
		return 0, 0, false
	}
	levels = cfg.SchedLevels
	if levels <= 0 {
		levels = schedAutoLevels(r, cfg.Sched.Workers())
	}
	return cfg.Sched.Workers(), levels, true
}

// schedCores returns the worker count of the runtime a call would execute
// on (0 when no task runtime is configured); the cutoff resolution and
// PlanFor consult it so the "<kernel>@<cores>" calibration rows and the
// threaded-leaf workspace accounting see the same figure the engine does.
func (cfg *Config) schedCores() int {
	if cfg.Sched == nil {
		return 0
	}
	return cfg.Sched.Workers()
}

// schedAutoLevels picks how many top recursion levels to expand into tasks
// when the configuration does not say: enough that the product fan-out
// (R per level) covers the workers, capped at 3 — beyond that the task
// granularity shrinks below the scheduling overhead.
func schedAutoLevels(r, workers int) int {
	lv, span := 1, r
	for span < workers && lv < 3 {
		span *= r
		lv++
	}
	return lv
}

// schedActive reports whether this recursion level expands into tasks.
func (e *engine) schedActive(depth int) bool {
	return e.sub != nil && e.schedLevels > depth
}

// runCtx is the context the engine's DAGs run under.
func (e *engine) runCtx() context.Context {
	if e.ctx != nil {
		return e.ctx
	}
	return context.Background()
}

// canceled reports whether the call's context has expired; the recursion
// polls it at every mul entry so cancellation lands between products (the
// DAG additionally drains in-flight levels through sched's skip path).
func (e *engine) canceled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// dagTable resolves the coefficient table a DAG level executes: the
// configured table, or the builtin Winograd ⟨2,2,2⟩ on the default path.
func (e *engine) dagTable() *algo.Table {
	if e.tbl != nil {
		return e.tbl
	}
	return algo.Default()
}

// dagBuffers counts the operand buffers one DAG level of a table
// materializes: one per multi-term (or non-unit) operand column. A single
// +1 term passes the raw block view, exactly as formOperand does, so the
// builtin Winograd table costs 4 S and 4 T buffers — the figures planSim's
// parallel branch charges.
func dagBuffers(t *algo.Table) (sBufs, tBufs int) {
	for r := 0; r < t.R; r++ {
		if at := t.ATerms(r); len(at) != 1 || at[0].Coeff != 1 {
			sBufs++
		}
		if bt := t.BTerms(r); len(bt) != 1 || bt[0].Coeff != 1 {
			tBufs++
		}
	}
	return sBufs, tBufs
}

// taskEngine derives the engine a product task runs with: same policy, its
// own kernel state, and the executing worker as its submitter — nested DAG
// levels and threaded leaves then push onto the worker's own deque
// (helping) instead of blocking the pool from outside.
func (e *engine) taskEngine(w *sched.Worker) *engine {
	sub := *e
	sub.kern = blas.CloneKernel(e.kern)
	if w != nil {
		sub.sub = w
	}
	return &sub
}

// recurseInto runs one product's recursion (β = 0, α folded in) on
// whichever executor the engine is driving.
func (e *engine) recurseInto(p *matrix.Dense, av, bw matrix.View, alpha float64, depth int) {
	if e.tbl != nil {
		e.tableMul(p, av, bw, alpha, 0, depth)
		return
	}
	e.mul(p, av, bw, alpha, 0, depth)
}

// dagLevel applies one recursion level as a task DAG on an exactly
// grid-divisible problem. Workspace: every multi-term operand and every
// product gets its own buffer (concurrent tasks must not share
// temporaries), all drawn before the DAG starts and freed after it drains,
// so the arena peak is level-deterministic. Lane edges (product r depends
// on product r−lanes) cap the products in flight at lanes, reproducing the
// legacy semaphore bound deterministically — planSim's
// "own + min(lanes, R)·child" workspace accounting stays sound on any
// host because the cap is structural, not a scheduling accident.
func (e *engine) dagLevel(c *matrix.Dense, a, b matrix.View, alpha, beta float64, depth int) {
	t := e.dagTable()
	m, k, n := a.Rows, a.Cols, b.Cols
	mq, kq, nq := m/t.M, k/t.K, n/t.N

	aBlk := func(i int) matrix.View { return a.Slice(i/t.K*mq, i%t.K*kq, mq, kq) }
	bBlk := func(i int) matrix.View { return b.Slice(i/t.N*kq, i%t.N*nq, kq, nq) }

	sBuf := make([]*matrix.Dense, t.R)
	tBuf := make([]*matrix.Dense, t.R)
	pBuf := make([]*matrix.Dense, t.R)
	for r := 0; r < t.R; r++ {
		if at := t.ATerms(r); len(at) != 1 || at[0].Coeff != 1 {
			sBuf[r] = e.allocMat(mq, kq)
		}
		if bt := t.BTerms(r); len(bt) != 1 || bt[0].Coeff != 1 {
			tBuf[r] = e.allocMat(kq, nq)
		}
		pBuf[r] = e.allocMat(mq, nq)
	}
	defer func() {
		for r := t.R - 1; r >= 0; r-- {
			e.freeMat(pBuf[r])
			if tBuf[r] != nil {
				e.freeMat(tBuf[r])
			}
			if sBuf[r] != nil {
				e.freeMat(sBuf[r])
			}
		}
	}()

	lanes := e.schedLanes
	if lanes < 1 || lanes > t.R {
		lanes = t.R
	}
	d := sched.NewDAG()
	prods := make([]*sched.Node, t.R)
	for r := 0; r < t.R; r++ {
		r := r
		// Operand formation: the engine itself is safe to share here (the
		// formation passes touch only the profiler and the matrix data, and
		// each buffer has one writer), so no per-task engine is derived.
		var deps []*sched.Node
		if sBuf[r] != nil {
			deps = append(deps, d.Add(func(*sched.Worker) {
				e.formOperand(sBuf[r], matrix.ViewOf(sBuf[r]), t.ATerms(r), aBlk)
			}))
		}
		if tBuf[r] != nil {
			deps = append(deps, d.Add(func(*sched.Worker) {
				e.formOperand(tBuf[r], matrix.ViewOf(tBuf[r]), t.BTerms(r), bBlk)
			}))
		}
		if r >= lanes {
			deps = append(deps, prods[r-lanes])
		}
		prods[r] = d.Add(func(w *sched.Worker) {
			av := aBlk(t.ATerms(r)[0].Block)
			if sBuf[r] != nil {
				av = matrix.ViewOf(sBuf[r])
			}
			bw := bBlk(t.BTerms(r)[0].Block)
			if tBuf[r] != nil {
				bw = matrix.ViewOf(tBuf[r])
			}
			e.taskEngine(w).recurseInto(pBuf[r], av, bw, alpha, depth+1)
		}, deps...)
	}
	for l := 0; l < t.M*t.N; l++ {
		var deps []*sched.Node
		var rs []int
		for r := 0; r < t.R; r++ {
			if t.W[l][r] != 0 {
				deps = append(deps, prods[r])
				rs = append(rs, r)
			}
		}
		quad := c.Slice(l/t.N*mq, l%t.N*nq, mq, nq)
		d.Add(func(*sched.Worker) {
			e.phScaleQuads([]*matrix.Dense{quad}, beta)
			for _, r := range rs {
				pv := matrix.ViewOf(pBuf[r])
				switch g := t.W[l][r]; g {
				case 1:
					e.phAddAssign(phQ, quad, pv)
				case -1:
					e.phSubAssign(phQ, quad, pv)
				default:
					e.phAccum(phQ, quad, g, pv)
				}
			}
		}, deps...)
	}
	// On cancellation the DAG drains without running remaining bodies; the
	// partially written C is discarded by the caller (dgefmm surfaces the
	// context error), and the deferred frees keep the arena balanced. A
	// product that panicked is re-raised here, on the joining goroutine.
	sched.Repanic(e.sub.Run(e.runCtx(), d))
}
