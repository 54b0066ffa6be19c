package strassen

import "repro/internal/algo"

// This file adds shape plans on top of the recursion: a Plan freezes every
// decision DGEFMM would make for one (m, k, n, β-class) shape — the cutoff
// verdict at each level, the peel/pad actions, the recursion depth and the
// exact temporary-workspace peak in words — so repeated same-shape calls
// (the batched workload of internal/batch) replay cached decisions instead
// of re-deriving them, and so a workspace arena can be sized up front.
//
// The workspace figures mirror the allocation sites exactly: strassen1's
// R1/R2 pair, strassen2's R1/R2/R3 triple (Figure 1), strassen1General's
// m×n fold buffer, the original schedule's S/T/M triple, the padded copies
// of the padding strategies, and the parallel schedule's S1..S4/T1..T4 plus
// seven product buffers. Plan.Words therefore equals the measured
// memtrack peak (memory_test.go asserts equality), while WorkspaceBound
// gives the closed-form Table 1 bound the measurements sit under.

// WorkspaceBound returns the paper's analytic bound (Table 1), in float64
// words, on the temporary workspace DGEFMM needs for an m×k by k×n product
// under the given schedule and β class:
//
//   - STRASSEN1 with β = 0 (and auto, which selects it):
//     (m·max(k,n) + kn)/3 — 2m²/3 in the square case;
//   - STRASSEN2 (and auto with β ≠ 0, and the original 1969 schedule, which
//     uses the same three temporaries): (mk + kn + mn)/3 — m² square;
//   - STRASSEN1 forced with β ≠ 0: mn on top of the β = 0 figure (the
//     general case folds a β = 0 product through an m×n scratch), within
//     the paper's 2m² square bound.
//
// The bound covers the peeling odd-dimension strategy (whose fixups
// allocate nothing); the padding and parallel schedules trade extra
// workspace for their benefits and are bounded by Plan.Words instead.
func WorkspaceBound(sched Schedule, m, k, n int, betaZero bool) int64 {
	mx := k
	if n > mx {
		mx = n
	}
	strassen1 := (int64(m)*int64(mx) + int64(k)*int64(n)) / 3
	switch sched {
	case ScheduleStrassen1:
		if betaZero {
			return strassen1
		}
		return int64(m)*int64(n) + strassen1
	case ScheduleAuto:
		if betaZero {
			return strassen1
		}
	}
	// STRASSEN2, the original schedule, and auto with β ≠ 0.
	return (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n)) / 3
}

// Plan is a frozen set of recursion decisions for one DGEFMM shape class:
// every (m, k, n) triple the recursion reaches, with the cutoff criterion's
// verdict for it, plus the resulting recursion depth and the exact peak
// temporary workspace in words. Same-shape calls share one Plan; its cached
// criterion is read-only after construction and safe for concurrent use
// from any number of goroutines.
type Plan struct {
	// M, N, K and BetaZero identify the planned shape class: C is M×N,
	// the inner dimension is K, and BetaZero tells whether β = 0 (which
	// selects STRASSEN1 under the auto schedule).
	M, N, K  int
	BetaZero bool
	// Depth is the number of recursion levels the criterion produces.
	Depth int
	// Words is the exact peak temporary workspace, in float64 words, a
	// call of this shape allocates from Config.Tracker (the figure a
	// per-worker arena must hold to serve the shape with zero fresh
	// allocations). It excludes the base-case kernel's packing workspace,
	// which lives in the kernel's own arena and is reported separately in
	// KernelWords — keeping Words directly comparable to the paper's
	// Table 1 bounds.
	Words int64
	// KernelWords is the peak packing workspace, in float64 words, the
	// base-case kernel draws from its own arena while serving this shape:
	// the worst leaf's requirement, times the number of concurrent leaves
	// under the parallel schedule. Zero when the kernel keeps no accounted
	// workspace (naive, vector, blocked).
	KernelWords int64
	// TopSchedule is the schedule the top level resolves to (auto resolved
	// to STRASSEN1 or STRASSEN2 by β). On a table-driven plan it reports
	// the schedule the default path would have used; the executor is the
	// table named in Algo instead.
	TopSchedule Schedule
	// Algo is the coefficient table the plan simulates ("" for the default
	// hand-coded Winograd path), resolved from the planned Config exactly
	// as DGEFMM resolves it (including per-shape auto-selection).
	Algo string

	decisions map[[3]int]bool
	fallback  Criterion
}

// PlanFor simulates the recursion cfg would perform on an m×k by k×n
// product (betaZero tells whether β = 0) and returns the frozen Plan.
// A nil cfg plans the default configuration.
func PlanFor(cfg *Config, m, n, k int, betaZero bool) *Plan {
	if cfg == nil {
		cfg = DefaultConfig(nil)
	}
	tbl := cfg.resolveAlgo(m, k, n)
	prodR := 7
	if tbl != nil {
		prodR = tbl.R
	}
	lanes, levels, dag := cfg.schedParams(prodR)
	cores := cfg.schedCores()
	algoName := ""
	if tbl != nil {
		algoName = tbl.Name
	}
	p := &Plan{
		M: m, N: n, K: k, BetaZero: betaZero,
		TopSchedule: resolveSchedule(cfg.Schedule, betaZero),
		decisions:   make(map[[3]int]bool),
		fallback:    cfg.criterionCores(algoName, cores),
	}
	if tbl != nil {
		p.Algo = tbl.Name
	}
	s := &planSim{
		crit:      p.fallback,
		sched:     cfg.Schedule,
		odd:       cfg.Odd,
		maxDepth:  cfg.MaxDepth,
		parallel:  lanes,
		parLevels: levels,
		dag:       dag,
		tbl:       tbl,
		plan:      p,
		memo:      make(map[planKey]simResult),
	}
	if ls, ok := cfg.kernel().(leafSizer); ok {
		s.leaf = ls.LeafWorkspace
	}
	if dag && cores > 1 {
		// A multi-worker runtime threads the plan's leaves (MulAddTasks):
		// each leaf's arena draw grows to the parallel figure.
		if pls, ok := cfg.kernel().(parallelLeafSizer); ok {
			s.leaf = func(m, n, k int) int64 {
				return pls.LeafWorkspaceParallel(m, n, k, cores)
			}
		}
	}
	if cfg.fusedMode() != FusedOff {
		if _, ok := cfg.kernel().(fusedKernel); ok {
			s.fused = true
			s.destLimit = 4
			if l, ok := cfg.kernel().(fusedDestLimiter); ok {
				s.destLimit = l.FusedDestLimit()
			}
		}
	}
	var r simResult
	switch {
	case tbl != nil:
		r = s.simTable(m, k, n, betaZero, 0)
	case cfg.Odd == OddPadStatic:
		r = s.simStatic(m, k, n, betaZero)
	default:
		r = s.sim(m, k, n, betaZero, 0)
	}
	p.Words, p.KernelWords = r.words, r.kernel
	return p
}

// leafSizer is the structural interface a kernel implements to report its
// per-call workspace (internal/kernel's Packed does): the exact words one
// MulAdd of the given logical shape draws from the kernel's arena. Kept
// structural so the strassen package does not choose a kernel
// implementation for its callers.
type leafSizer interface {
	LeafWorkspace(m, n, k int) int64
}

// parallelLeafSizer is the threaded-leaf analogue (kernel.Packed's
// LeafWorkspaceParallel): the words one MulAddTasks draws when its MC loop
// splits across the given thread count. Structural for the same reason as
// leafSizer.
type parallelLeafSizer interface {
	LeafWorkspaceParallel(m, n, k, threads int) int64
}

// Criterion returns a cutoff criterion that replays the plan's cached
// decisions by table lookup, falling back to the planned configuration's
// live criterion for triples outside the plan (which a call of the planned
// shape never produces). The returned value is safe for concurrent use.
func (p *Plan) Criterion() Criterion {
	return plannedCriterion{decisions: p.decisions, fallback: p.fallback}
}

// Apply returns a copy of cfg with the plan's cached criterion installed —
// the hook batched execution uses to share one plan across workers.
func (p *Plan) Apply(cfg *Config) *Config {
	if cfg == nil {
		cfg = DefaultConfig(nil)
	}
	out := *cfg
	out.Criterion = p.Criterion()
	return &out
}

// resolveSchedule maps the auto schedule to the concrete schedule β selects
// (Table 1, last row); explicit schedules resolve to themselves.
func resolveSchedule(sched Schedule, betaZero bool) Schedule {
	if sched != ScheduleAuto {
		return sched
	}
	if betaZero {
		return ScheduleStrassen1
	}
	return ScheduleStrassen2
}

// plannedCriterion replays a Plan's decision table.
type plannedCriterion struct {
	decisions map[[3]int]bool
	fallback  Criterion
}

// Name implements Criterion.
func (c plannedCriterion) Name() string { return "planned(" + c.fallback.Name() + ")" }

// Recurse implements Criterion.
func (c plannedCriterion) Recurse(m, k, n int) bool {
	if d, ok := c.decisions[[3]int{m, k, n}]; ok {
		return d
	}
	return c.fallback.Recurse(m, k, n)
}

// planKey memoizes simulated subproblems. Depth participates because
// MaxDepth and SchedLevels make behavior depth-dependent.
type planKey struct {
	m, k, n  int
	betaZero bool
	depth    int
}

// simResult is one subtree's workspace accounting: Strassen temporaries
// (words) and base-case kernel packing workspace (kernel), tracked apart
// because they come from different arenas.
type simResult struct {
	words  int64
	kernel int64
}

// planSim walks the recursion exactly as engine.mul would, recording
// criterion verdicts and accumulating the peak workspace of each subtree.
type planSim struct {
	crit      Criterion
	sched     Schedule
	odd       OddStrategy
	maxDepth  int
	parallel  int         // lane cap of the task DAG (products in flight per level)
	parLevels int         // top levels expanded into task DAGs
	dag       bool        // a task runtime is active (Config.Sched set)
	tbl       *algo.Table // non-nil for a table-driven plan (simTable runs)
	plan      *Plan
	leaf      func(m, n, k int) int64 // nil for kernels without accounted workspace
	fused     bool                    // kernel has the fused hooks and the mode is not off
	destLimit int                     // kernel's native write-out fan-out (fusedDestLimit)
	memo      map[planKey]simResult
}

// decide evaluates (and records) the criterion's verdict for one triple.
func (s *planSim) decide(m, k, n int) bool {
	key := [3]int{m, k, n}
	if d, ok := s.plan.decisions[key]; ok {
		return d
	}
	d := s.crit.Recurse(m, k, n)
	s.plan.decisions[key] = d
	return d
}

// wouldRecurse mirrors engine.wouldRecurse on the recorded decision table,
// so fused-level planning replays identically at run time.
func (s *planSim) wouldRecurse(m, k, n, depth int) bool {
	return m > 1 && k > 1 && n > 1 &&
		(s.maxDepth == 0 || depth < s.maxDepth) &&
		s.decide(m, k, n)
}

// fusedLevels mirrors engine.fusedLevels (fused.go) decision for decision.
func (s *planSim) fusedLevels(m, k, n, depth int) int {
	m2, k2, n2 := m/2, k/2, n/2
	if !s.wouldRecurse(m2, k2, n2, depth+1) {
		return 1
	}
	if m2&1 == 0 && k2&1 == 0 && n2&1 == 0 &&
		!s.wouldRecurse(m2/2, k2/2, n2/2, depth+2) &&
		s.destLimit >= 4 {
		return 2
	}
	return 0
}

// sim mirrors engine.mul: cutoff test, odd-dimension strategy, then one
// schedule level. It returns the peak workspace of the subtree in words.
func (s *planSim) sim(m, k, n int, betaZero bool, depth int) simResult {
	if m == 0 || n == 0 || k == 0 {
		return simResult{}
	}
	key := planKey{m: m, k: k, n: n, betaZero: betaZero, depth: depth}
	if r, ok := s.memo[key]; ok {
		return r
	}
	var r simResult
	recurse := m > 1 && k > 1 && n > 1 &&
		(s.maxDepth == 0 || depth < s.maxDepth) &&
		s.decide(m, k, n)
	if recurse {
		if depth+1 > s.plan.Depth {
			s.plan.Depth = depth + 1
		}
		switch s.odd {
		case OddPadDynamic:
			mp, kp, np := m+(m&1), k+(k&1), n+(n&1)
			var pad int64
			if mp != m || kp != k || np != n {
				pad = int64(mp)*int64(kp) + int64(kp)*int64(np) + int64(mp)*int64(np)
			}
			r = s.schedWords(mp, kp, np, betaZero, depth)
			r.words += pad
		default: // OddPeel, OddPeelFirst, OddPadStatic below the padded top
			r = s.schedWords(m&^1, k&^1, n&^1, betaZero, depth)
		}
	} else if s.leaf != nil {
		// Base case: one kernel MulAdd of this exact shape.
		r.kernel = s.leaf(m, n, k)
	}
	s.memo[key] = r
	return r
}

// schedWords accounts one level of the selected schedule on an all-even
// problem: the level's own temporaries plus the worst concurrent child.
func (s *planSim) schedWords(m, k, n int, betaZero bool, depth int) simResult {
	m2, k2, n2 := m/2, k/2, n/2
	if s.dag && depth < s.parLevels {
		// dagLevel on the builtin Winograd table: S1..S4 (4·mk/4), T1..T4
		// (4·kn/4), P1..P7 (7·mn/4), with up to min(lanes, 7) β = 0
		// children live at once (the lane edges make the cap structural) —
		// each of which can be inside a kernel MulAdd simultaneously.
		own := 4*int64(m2)*int64(k2) + 4*int64(k2)*int64(n2) + 7*int64(m2)*int64(n2)
		conc := s.parallel
		if conc > 7 {
			conc = 7
		}
		if conc < 1 {
			conc = 1
		}
		child := s.sim(m2, k2, n2, true, depth+1)
		return simResult{
			words:  own + int64(conc)*child.words,
			kernel: int64(conc) * child.kernel,
		}
	}
	if s.fused && s.sched == ScheduleAuto {
		if lv := s.fusedLevels(m, k, n, depth); lv > 0 {
			// Fused levels allocate no Strassen temporaries; the only
			// workspace is the kernel's packed panels at the fused block
			// shape (every record's FusedMulAdd draws the same pair).
			if depth+lv > s.plan.Depth {
				s.plan.Depth = depth + lv
			}
			var r simResult
			if s.leaf != nil {
				r.kernel = s.leaf(m>>lv, n>>lv, k>>lv)
			}
			return r
		}
	}
	switch resolveSchedule(s.sched, betaZero) {
	case ScheduleStrassen1:
		if !betaZero {
			// strassen1General: an m×n fold buffer wrapping the β = 0
			// schedule on the same (not halved) problem.
			r := s.schedWords(m, k, n, true, depth)
			r.words += int64(m) * int64(n)
			return r
		}
		// strassen1: R1 is (m/2)·max(k/2, n/2), R2 is (k/2)·(n/2); the
		// seven children run sequentially, all with β = 0.
		mx := k2
		if n2 > mx {
			mx = n2
		}
		own := int64(m2)*int64(mx) + int64(k2)*int64(n2)
		child := s.sim(m2, k2, n2, true, depth+1)
		return simResult{words: own + child.words, kernel: child.kernel}
	case ScheduleOriginal:
		// original: S (mk/4), T (kn/4), M (mn/4); children all β = 0.
		own := int64(m2)*int64(k2) + int64(k2)*int64(n2) + int64(m2)*int64(n2)
		child := s.sim(m2, k2, n2, true, depth+1)
		return simResult{words: own + child.words, kernel: child.kernel}
	default: // ScheduleStrassen2
		// strassen2: R1 (mk/4), R2 (kn/4), R3 (mn/4); sequential children
		// of both β classes — take the worse of each accounting axis.
		own := int64(m2)*int64(k2) + int64(k2)*int64(n2) + int64(m2)*int64(n2)
		w0 := s.sim(m2, k2, n2, true, depth+1)
		w1 := s.sim(m2, k2, n2, false, depth+1)
		if w0.words > w1.words {
			w1.words = w0.words
		}
		if w0.kernel > w1.kernel {
			w1.kernel = w0.kernel
		}
		return simResult{words: own + w1.words, kernel: w1.kernel}
	}
}

// tableRecurse mirrors engine.tableRecurse on the recorded decision table.
func (s *planSim) tableRecurse(m, k, n, depth int) bool {
	return m >= s.tbl.M && k >= s.tbl.K && n >= s.tbl.N &&
		(s.maxDepth == 0 || depth < s.maxDepth) &&
		s.decide(m, k, n)
}

// simTable mirrors engine.tableMul: cutoff test, generalized peeling,
// then one table level — with the same memoized exact accounting as sim.
// A table level allocates the S/T/P triple (mq·kq + kq·nq + mq·nq) unless
// it fuses (no Strassen temporaries, one kernel leaf at the block shape);
// wide peel remainders add base-case GEMM leaves on the kernel axis (the
// rank-one DGER/DGEMV fixups draw nothing, as on the default path).
func (s *planSim) simTable(m, k, n int, betaZero bool, depth int) simResult {
	if m == 0 || n == 0 || k == 0 {
		return simResult{}
	}
	key := planKey{m: m, k: k, n: n, betaZero: betaZero, depth: depth}
	if r, ok := s.memo[key]; ok {
		return r
	}
	var r simResult
	if !s.tableRecurse(m, k, n, depth) {
		if s.leaf != nil {
			r.kernel = s.leaf(m, n, k)
		}
		s.memo[key] = r
		return r
	}
	if depth+1 > s.plan.Depth {
		s.plan.Depth = depth + 1
	}
	t := s.tbl
	me, ke, ne := m-m%t.M, k-k%t.K, n-n%t.N
	mq, kq, nq := me/t.M, ke/t.K, ne/t.N
	if s.dag && depth < s.parLevels {
		// dagLevel on the table: one buffer per multi-term operand column
		// plus all R products, with up to min(lanes, R) β = 0 children
		// live at once under the lane edges.
		sB, tB := dagBuffers(t)
		own := int64(sB)*int64(mq)*int64(kq) + int64(tB)*int64(kq)*int64(nq) +
			int64(t.R)*int64(mq)*int64(nq)
		conc := s.parallel
		if conc > t.R {
			conc = t.R
		}
		if conc < 1 {
			conc = 1
		}
		child := s.simTable(mq, kq, nq, true, depth+1)
		r.words = own + int64(conc)*child.words
		r.kernel = int64(conc) * child.kernel
	} else if s.fused && s.sched == ScheduleAuto && !s.tableRecurse(mq, kq, nq, depth+1) &&
		tableFusable(t, s.destLimit) {
		if s.leaf != nil {
			r.kernel = s.leaf(mq, nq, kq)
		}
	} else {
		own := int64(mq)*int64(kq) + int64(kq)*int64(nq) + int64(mq)*int64(nq)
		child := s.simTable(mq, kq, nq, true, depth+1)
		r.words = own + child.words
		r.kernel = child.kernel
	}
	if s.leaf != nil {
		// The wide peel fixups run after the core level's temporaries are
		// freed; each is one kernel leaf, so only the kernel peak can move.
		// A remainder of exactly 1 repairs with DGER/DGEMV (no draw).
		for _, fix := range []struct{ rem, m, n, k int }{
			{k - ke, me, ne, k - ke}, // inner-dimension repair into the core
			{n - ne, me, n - ne, k},  // peeled columns
			{m - me, m - me, n, k},   // peeled rows
		} {
			if fix.rem > 1 {
				if w := s.leaf(fix.m, fix.n, fix.k); w > r.kernel {
					r.kernel = w
				}
			}
		}
	}
	s.memo[key] = r
	return r
}

// simStatic mirrors staticPadMul: predict the depth, pad once to a multiple
// of 2^depth, then run the recursion depth-bounded with no odd dimensions.
func (s *planSim) simStatic(m, k, n int, betaZero bool) simResult {
	d := 0
	mm, kk, nn := m, k, n
	for mm > 1 && kk > 1 && nn > 1 &&
		(s.maxDepth == 0 || d < s.maxDepth) &&
		s.decide(mm, kk, nn) {
		mm, kk, nn = (mm+1)/2, (kk+1)/2, (nn+1)/2
		d++
	}
	s.plan.Depth = d
	if d == 0 {
		var r simResult
		if s.leaf != nil {
			r.kernel = s.leaf(m, n, k)
		}
		return r
	}
	unit := 1 << uint(d)
	mp, kp, np := roundUp(m, unit), roundUp(k, unit), roundUp(n, unit)
	inner := &planSim{
		crit:      s.crit,
		sched:     s.sched,
		odd:       OddPeel,
		maxDepth:  d,
		parallel:  s.parallel,
		parLevels: s.parLevels,
		dag:       s.dag,
		plan:      s.plan,
		leaf:      s.leaf,
		memo:      make(map[planKey]simResult),
	}
	var pad int64
	if mp != m || kp != k || np != n {
		pad = int64(mp)*int64(kp) + int64(kp)*int64(np) + int64(mp)*int64(np)
	}
	r := inner.sim(mp, kp, np, betaZero, 0)
	r.words += pad
	return r
}
