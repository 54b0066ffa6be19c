package strassen

import (
	"context"

	"repro/internal/algo"
	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/memtrack"
	"repro/internal/phase"
	"repro/internal/sched"
)

// DGEFMM computes C ← alpha*op(A)*op(B) + beta*C with the paper's Strassen
// implementation. The signature mirrors the Level 3 BLAS DGEMM exactly
// (Section 3.1): op(A) is m×k, op(B) is k×n, C is m×n, all column-major
// with leading dimensions lda, ldb, ldc. cfg may be nil for the default
// configuration.
func DGEFMM(cfg *Config, transA, transB blas.Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, beta float64,
	c []float64, ldc int) {
	_ = dgefmm(nil, nil, cfg, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEFMMCtx is DGEFMM with mid-execution cancellation: the recursion polls
// ctx between products (and the task DAG drains its remaining bodies), so
// an expired deadline stops a running multiply instead of only gating
// admission. On a non-nil error C holds a partial result the caller must
// discard; A and B are never written.
func DGEFMMCtx(ctx context.Context, cfg *Config, transA, transB blas.Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, beta float64,
	c []float64, ldc int) error {
	return dgefmm(ctx, nil, cfg, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEFMMTask is DGEFMMCtx for callers already running inside a sched task:
// sub must be the *sched.Worker the task body received (or an external
// *sched.Runtime), and the call's DAG levels and threaded leaves submit
// through it — nesting by helping on the worker's own deque rather than
// blocking the pool from outside, which is how internal/batch routes calls
// through one shared core budget without deadlock.
func DGEFMMTask(ctx context.Context, sub sched.Submitter, cfg *Config, transA, transB blas.Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, beta float64,
	c []float64, ldc int) error {
	return dgefmm(ctx, sub, cfg, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

func dgefmm(ctx context.Context, outer sched.Submitter, cfg *Config, transA, transB blas.Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, beta float64,
	c []float64, ldc int) error {
	if cfg == nil {
		cfg = DefaultConfig(nil)
	}
	// Validate exactly as DGEMM would; reuse its checks by constructing the
	// same parameter expectations.
	rowsA, colsA := m, k
	if transA.IsTrans() {
		rowsA, colsA = k, m
	}
	rowsB, colsB := k, n
	if transB.IsTrans() {
		rowsB, colsB = n, k
	}
	validate(transA, transB, m, n, k, lda, ldb, ldc, rowsA, colsA, rowsB, colsB, a, b, c)
	if m == 0 || n == 0 {
		return ctxErr(ctx)
	}

	cm := matrix.FromColMajor(m, n, ldc, c)
	if alpha == 0 || k == 0 {
		scaleInPlace(cm, beta)
		return ctxErr(ctx)
	}

	av := matrix.View{Rows: m, Cols: k, Stride: lda, Trans: transA.IsTrans(), Data: a}
	bv := matrix.View{Rows: k, Cols: n, Stride: ldb, Trans: transB.IsTrans(), Data: b}

	tbl := cfg.resolveAlgo(m, k, n)
	prodR := 7
	if tbl != nil {
		prodR = tbl.R
	}
	lanes, levels, dag := cfg.schedParams(prodR)
	sub := outer
	if sub == nil && dag {
		sub = cfg.Sched
	}
	cores := 0
	if sub != nil {
		cores = sub.Workers()
	}
	algoName := ""
	if tbl != nil {
		algoName = tbl.Name
	}
	e := &engine{
		kern:       cfg.kernel(),
		crit:       cfg.criterionCores(algoName, cores),
		sched:      cfg.Schedule,
		odd:        cfg.Odd,
		maxDepth:   cfg.MaxDepth,
		tracker:    cfg.Tracker,
		sub:        sub,
		schedLanes: lanes,
		tracer:     cfg.Tracer,
		prof:       phase.Active(),
		tbl:        tbl,
		ctx:        ctx,
	}
	if dag {
		e.schedLevels = levels
	}
	if st, ok := cfg.Tracer.(SpanTracer); ok {
		e.spans = st
	}
	if cfg.fusedMode() != FusedOff {
		if fk, ok := e.kern.(fusedKernel); ok {
			e.fk = fk
		}
	}
	switch {
	case e.tbl != nil:
		// Table-driven recursion (see table.go): generalized peeling only —
		// the pad strategies stay default-path, but the task DAG applies
		// (all R products of the table run as scheduler tasks).
		e.tableMul(cm, av, bv, alpha, beta, 0)
	case e.odd == OddPadStatic:
		e.staticPadMul(cm, av, bv, alpha, beta)
	default:
		e.mul(cm, av, bv, alpha, beta, 0)
	}
	return ctxErr(ctx)
}

// ctxErr adapts the optional context to the error DGEFMMCtx reports.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Multiply is a convenience wrapper over DGEFMM for *matrix.Dense values:
// C ← alpha*op(A)*op(B) + beta*C.
func Multiply(cfg *Config, c *matrix.Dense, transA, transB blas.Transpose,
	alpha float64, a, b *matrix.Dense, beta float64) {
	m, k := a.Rows, a.Cols
	if transA.IsTrans() {
		m, k = k, m
	}
	kb, n := b.Rows, b.Cols
	if transB.IsTrans() {
		kb, n = n, kb
	}
	if kb != k {
		panic("strassen: Multiply: inner dimensions mismatch")
	}
	if c.Rows != m || c.Cols != n {
		panic("strassen: Multiply: output shape mismatch")
	}
	DGEFMM(cfg, transA, transB, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
}

func validate(transA, transB blas.Transpose, m, n, k, lda, ldb, ldc, rowsA, colsA, rowsB, colsB int, a, b, c []float64) {
	// Run the identical checks DGEMM performs, by calling it with alpha=0,
	// beta=1 so no arithmetic happens but every argument is vetted. This
	// guarantees DGEFMM accepts exactly the inputs DGEMM accepts.
	blas.Dgemm(transA, transB, m, n, k, 0, a, lda, b, ldb, 1, c, ldc)
}

// engine carries the resolved configuration through the recursion.
type engine struct {
	kern     blas.Kernel
	crit     Criterion
	sched    Schedule
	odd      OddStrategy
	maxDepth int
	tracker  *memtrack.Tracker
	// sub is the task runtime this call submits to (nil for a purely
	// sequential call): an external *sched.Runtime at the top, or the
	// executing *sched.Worker inside a product task so nested DAGs help on
	// the worker's own deque. schedLevels is the number of top recursion
	// levels expanded into task DAGs (0 when only the leaves may thread),
	// and schedLanes caps the products in flight per level via lane edges.
	// ctx, when non-nil, is polled between products for mid-execution
	// cancellation. See taskdag.go.
	sub         sched.Submitter
	schedLevels int
	schedLanes  int
	ctx         context.Context
	tracer      Tracer
	// spans is tracer narrowed to SpanTracer (nil when the tracer does not
	// record spans); curSpan is the innermost open span on this engine's
	// goroutine — worker engines copy it, so spans opened inside a parallel
	// product are parented under the "parallel" node that spawned them.
	spans   SpanTracer
	curSpan int64
	// prof is the process-wide phase profiler captured once per DGEFMM call
	// (nil when attribution is off). Worker engines copy it by value.
	prof *phase.Profiler
	// fk is the kernel narrowed to the fused hook interface (nil when the
	// kernel lacks the hooks or the fused mode is off); the auto schedule
	// routes its last levels through it. See fused.go.
	fk fusedKernel
	// tbl is the coefficient table driving a non-default recursion (nil on
	// the default path, where the hand-coded Winograd schedules run). See
	// table.go.
	tbl *algo.Table
}

// mul computes c ← alpha*a*b + beta*c where a is m×k and b is k×n (both as
// logical, possibly transposed, views). It applies the cutoff criterion,
// then the odd-dimension strategy, then one level of the selected schedule.
func (e *engine) mul(c *matrix.Dense, a, b matrix.View, alpha, beta float64, depth int) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || n == 0 || e.canceled() {
		return
	}
	if k == 0 || alpha == 0 {
		scaleInPlace(c, beta)
		return
	}
	recurse := m > 1 && k > 1 && n > 1 &&
		(e.maxDepth == 0 || depth < e.maxDepth) &&
		e.crit.Recurse(m, k, n)
	if !recurse {
		done := e.trace(depth, m, k, n, "base")
		e.baseGemm(c, a, b, alpha, beta)
		done()
		return
	}
	done := noopDone
	switch e.odd {
	case OddPadDynamic:
		if m&1|k&1|n&1 != 0 {
			done = e.trace(depth, m, k, n, "pad-dynamic")
		}
		e.padDynamicMul(c, a, b, alpha, beta, depth)
	case OddPeelFirst:
		if m&1|k&1|n&1 != 0 {
			done = e.trace(depth, m, k, n, "peel-first")
		}
		e.peelFirstMul(c, a, b, alpha, beta, depth)
	default: // OddPeel (and OddPadStatic below the pre-padded top level)
		if m&1|k&1|n&1 != 0 {
			done = e.trace(depth, m, k, n, "peel")
		}
		e.peelMul(c, a, b, alpha, beta, depth)
	}
	done()
}

// peelMul implements dynamic peeling (Section 3.3 and equation (9)): strip
// the odd row/column, apply one Strassen level to the even core, and repair
// the three border blocks with a DGER rank-one update and two DGEMV
// matrix-vector products.
func (e *engine) peelMul(c *matrix.Dense, a, b matrix.View, alpha, beta float64, depth int) {
	m, k, n := a.Rows, a.Cols, b.Cols
	me, ke, ne := m&^1, k&^1, n&^1

	coreA := a.Slice(0, 0, me, ke)
	coreB := b.Slice(0, 0, ke, ne)
	coreC := c.Slice(0, 0, me, ne)
	e.schedule(coreC, coreA, coreB, alpha, beta, depth)

	if k != ke {
		// C11 ← C11 + alpha * a12 * b21 : rank-one update with A's peeled
		// column and B's peeled row.
		done := e.trace(depth, m, k, n, "fixup-ger")
		s := e.prof.Begin(phase.StrassenPeel)
		x, incX := colVec(a, ke)
		y, incY := rowVec(b, ke)
		blas.Dger(me, ne, alpha, x, incX, y, incY, coreC.Data, coreC.Stride)
		s.End(2*int64(me)*int64(ne), 8*(int64(me)+int64(ne)+2*int64(me)*int64(ne)))
		done()
	}
	if n != ne {
		// c12 ← alpha * [A11 a12]·[b12; b22] + beta*c12 : the full first me
		// rows of op(A) (all k columns) times B's peeled column.
		done := e.trace(depth, m, k, n, "fixup-col")
		s := e.prof.Begin(phase.StrassenPeel)
		aTop := a.Slice(0, 0, me, k)
		x, incX := colVec(b, ne)
		e.gemvN(aTop, alpha, x, incX, beta, c.Data[ne*c.Stride:], 1)
		s.End(2*int64(me)*int64(k), 8*(int64(me)*int64(k)+int64(k)+2*int64(me)))
		done()
	}
	if m != me {
		// [c21 c22] ← alpha * [a21 a22]·B + beta*row : op(A)'s peeled row
		// times the whole of op(B), covering the bottom-right corner too.
		done := e.trace(depth, m, k, n, "fixup-row")
		s := e.prof.Begin(phase.StrassenPeel)
		x, incX := rowVec(a, me)
		e.gemvT(b, alpha, x, incX, beta, c.Data[me:], c.Stride)
		s.End(2*int64(k)*int64(n), 8*(int64(k)*int64(n)+int64(k)+2*int64(n)))
		done()
	}
}

// schedule applies exactly one level of the selected Strassen schedule to an
// all-even (m, k, n) problem.
func (e *engine) schedule(c *matrix.Dense, a, b matrix.View, alpha, beta float64, depth int) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if e.schedActive(depth) {
		done := e.trace(depth, m, k, n, "parallel")
		e.dagLevel(c, a, b, alpha, beta, depth)
		done()
		return
	}
	if e.fk != nil && e.sched == ScheduleAuto {
		if lv := e.fusedLevels(m, k, n, depth); lv > 0 {
			action := "fused1"
			if lv == 2 {
				action = "fused2"
			}
			done := e.trace(depth, m, k, n, action)
			e.fusedWinograd(c, a, b, alpha, beta, lv)
			done()
			return
		}
	}
	switch e.sched {
	case ScheduleOriginal:
		done := e.trace(depth, m, k, n, "original")
		e.original(c, a, b, alpha, beta, depth)
		done()
	case ScheduleStrassen1:
		if beta == 0 {
			done := e.trace(depth, m, k, n, "strassen1")
			e.strassen1(c, a, b, alpha, depth)
			done()
		} else {
			done := e.trace(depth, m, k, n, "strassen1")
			e.strassen1General(c, a, b, alpha, beta, depth)
			done()
		}
	case ScheduleStrassen2:
		done := e.trace(depth, m, k, n, "strassen2")
		e.strassen2(c, a, b, alpha, beta, depth)
		done()
	default: // ScheduleAuto: the paper's DGEFMM dispatch (Table 1 last row).
		if beta == 0 {
			done := e.trace(depth, m, k, n, "strassen1")
			e.strassen1(c, a, b, alpha, depth)
			done()
		} else {
			done := e.trace(depth, m, k, n, "strassen2")
			e.strassen2(c, a, b, alpha, beta, depth)
			done()
		}
	}
}

// baseGemm performs the standard-algorithm multiplication below the cutoff.
// With a multi-worker task runtime attached and a kernel that supports it,
// the leaf threads its MC loop through the runtime (see kernel.MulAddTasks):
// the adapter still routes through blas.DgemmKernel so argument validation
// and the beta pass stay identical to the sequential leaf.
func (e *engine) baseGemm(c *matrix.Dense, a, b matrix.View, alpha, beta float64) {
	ta, tb := blas.NoTrans, blas.NoTrans
	if a.Trans {
		ta = blas.Trans
	}
	if b.Trans {
		tb = blas.Trans
	}
	kern := e.kern
	if e.sub != nil && e.sub.Workers() > 1 {
		if tk, ok := kern.(taskLeafKernel); ok {
			kern = taskKernel{tk, e.sub, e.sub.Workers()}
		}
	}
	blas.DgemmKernel(kern, ta, tb, c.Rows, c.Cols, a.Cols, alpha,
		a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
}

// taskLeafKernel is the structural interface of a kernel whose leaf loop
// nest can run as scheduler tasks (kernel.Packed implements it).
type taskLeafKernel interface {
	blas.Kernel
	MulAddTasks(sub sched.Submitter, threads int, transA, transB blas.Transpose, m, n, k int, alpha float64,
		a []float64, lda int, b []float64, ldb int, c []float64, ldc int)
}

// taskKernel adapts a taskLeafKernel so its MulAdd threads through the
// engine's submitter; embedding forwards every other Kernel method.
type taskKernel struct {
	taskLeafKernel
	sub     sched.Submitter
	threads int
}

func (t taskKernel) MulAdd(transA, transB blas.Transpose, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	t.MulAddTasks(t.sub, t.threads, transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// gemvN computes y ← alpha*V*x + beta*y for a logical view V (y has V.Rows
// elements, x has V.Cols).
func (e *engine) gemvN(v matrix.View, alpha float64, x []float64, incX int, beta float64, y []float64, incY int) {
	if !v.Trans {
		blas.Dgemv(blas.NoTrans, v.Rows, v.Cols, alpha, v.Data, v.Stride, x, incX, beta, y, incY)
		return
	}
	// Storage holds Vᵀ (V.Cols × V.Rows): y = alpha*storageᵀ*x + beta*y.
	blas.Dgemv(blas.Trans, v.Cols, v.Rows, alpha, v.Data, v.Stride, x, incX, beta, y, incY)
}

// gemvT computes y ← alpha*Vᵀ*x + beta*y for a logical view V (y has V.Cols
// elements, x has V.Rows).
func (e *engine) gemvT(v matrix.View, alpha float64, x []float64, incX int, beta float64, y []float64, incY int) {
	if !v.Trans {
		blas.Dgemv(blas.Trans, v.Rows, v.Cols, alpha, v.Data, v.Stride, x, incX, beta, y, incY)
		return
	}
	blas.Dgemv(blas.NoTrans, v.Cols, v.Rows, alpha, v.Data, v.Stride, x, incX, beta, y, incY)
}

// colVec returns logical column j of a view as a strided vector.
func colVec(v matrix.View, j int) ([]float64, int) {
	if !v.Trans {
		return v.Data[j*v.Stride:], 1
	}
	return v.Data[j:], v.Stride
}

// rowVec returns logical row i of a view as a strided vector.
func rowVec(v matrix.View, i int) ([]float64, int) {
	if !v.Trans {
		return v.Data[i:], v.Stride
	}
	return v.Data[i*v.Stride:], 1
}

// allocMat takes an r×c scratch matrix from the tracker.
func (e *engine) allocMat(r, c int) *matrix.Dense {
	buf := e.tracker.Alloc(r * c)
	ld := r
	if ld < 1 {
		ld = 1
	}
	return matrix.FromColMajor(r, c, ld, buf)
}

// freeMat returns scratch to the tracker.
func (e *engine) freeMat(m *matrix.Dense) {
	e.tracker.Free(m.Data)
}

func scaleInPlace(c *matrix.Dense, beta float64) {
	switch beta {
	case 1:
	case 0:
		c.Zero()
	default:
		c.Scale(beta)
	}
}
