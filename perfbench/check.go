package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"repro/internal/blas"
	"repro/internal/kernel"
	"repro/internal/phase"
	"repro/internal/stability"
	"repro/internal/strassen"
)

// fingerprint identifies the host, build and dispatch a result came from.
type fingerprint struct {
	NProc      int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Kernel     string        `json:"kernel"`
	ISA        string        `json:"isa"`
	Fused      bool          `json:"fused"`
	Algo       string        `json:"algo"`
	Go         string        `json:"go"`
	Caches     kernel.Caches `json:"caches"`
	PhaseOff   bool          `json:"phaseoff"`
	Workload   string        `json:"workload"`
	Seconds    int           `json:"seconds"`
	Traced     bool          `json:"traced"`
	Seed       int64         `json:"seed"`
}

func newFingerprint(b *bench) fingerprint {
	cfg := strassen.DefaultConfig(nil)
	isa := "none"
	if k, ok := cfg.Kernel.(interface{ ISA() string }); ok {
		isa = k.ISA()
	}
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     cfg.Kernel.Name(),
		ISA:        isa,
		Fused:      cfg.FusedActive(),
		Algo:       cfg.AlgoSelection(),
		Go:         runtime.Version(),
		Caches:     kernel.DetectCaches(),
		PhaseOff:   !phase.Enabled,
		Workload:   b.workload,
		Seconds:    int(b.window.Seconds()),
		Traced:     b.traced,
		Seed:       b.seed,
	}
}

// diff names the fields in which two fingerprints differ ("" if none).
func (f fingerprint) diff(g fingerprint) string {
	var a, b map[string]any
	ja, _ := json.Marshal(f)
	jb, _ := json.Marshal(g)
	_ = json.Unmarshal(ja, &a)
	_ = json.Unmarshal(jb, &b)
	var out []string
	for k, v := range a {
		if fmt.Sprint(v) != fmt.Sprint(b[k]) {
			out = append(out, fmt.Sprintf("%s (%v vs %v)", k, v, b[k]))
		}
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// problem is one generated call C ← α·op(A)·op(B) + β·C in column-major
// storage with tight leading dimensions, plus the references computed once
// during preparation: the hash of the result of a sequential run of the
// workload's own configuration (timed outputs must match it bit for bit),
// that result's error ratio, and compensated exact values at sampled
// positions (for checking outputs that need not match bit for bit).
type problem struct {
	name        string
	ta, tb      blas.Transpose
	m, n, k     int
	alpha, beta float64
	a, b, c0    []float64 // c0 is nil when beta == 0
	lda, ldb    int

	depth   int
	want    uint64
	wantErr float64
	scale   float64 // the depth-0 Higham bound: u·k·|α|·max|A|·max|B| + u·|β|·max|C0|
	idx     []int
	exact   []float64
}

// samplesPerProblem is how many C entries carry exact reference values.
const samplesPerProblem = 8192

func newProblem(rng *rand.Rand, kind string, ta, tb blas.Transpose, m, n, k int, alpha, beta float64) *problem {
	p := &problem{
		name: fmt.Sprintf("%s %dx%dx%d %c%c", kind, m, k, n, ta, tb),
		ta:   ta, tb: tb, m: m, n: n, k: k, alpha: alpha, beta: beta,
	}
	ar, ac := m, k
	if ta.IsTrans() {
		ar, ac = k, m
	}
	br, bc := k, n
	if tb.IsTrans() {
		br, bc = n, k
	}
	p.a, p.lda = randomSlice(rng, ar*ac), ar
	p.b, p.ldb = randomSlice(rng, br*bc), br
	if beta != 0 {
		p.c0 = randomSlice(rng, m*n)
	}
	return p
}

func randomSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

func (p *problem) flops() float64 { return 2 * float64(p.m) * float64(p.n) * float64(p.k) }

// reset prepares an output buffer for a timed call: C0 when the call
// accumulates, otherwise a poison value, so a call that leaves C untouched
// cannot pass the check.
func (p *problem) reset(c []float64) {
	if p.c0 != nil {
		copy(c, p.c0)
		return
	}
	for i := range c {
		c[i] = -7
	}
}

// call runs the problem through DGEFMM under cfg into c.
func (p *problem) call(cfg *strassen.Config, c []float64) error {
	return strassen.DGEFMMCtx(bg, cfg, p.ta, p.tb, p.m, p.n, p.k, p.alpha,
		p.a, p.lda, p.b, p.ldb, p.beta, c, p.m)
}

// bound is the repository's Higham bound at recursion depth d: the
// conventional u·k·|A|·|B| constant grown by stability.HighamGrowth.
func (p *problem) bound(d int) float64 { return p.scale * stability.HighamGrowth(d) }

// exactLimit is the largest m·n·k whose full exact product prepare
// computes; larger problems measure their error against the kernel's
// DGEMM, whose own error is a small part of the Higham bound at depth ≥ 1.
const exactLimit = 1 << 25

// prepare computes the references by running the problem once under ref.
// The error ratio of that result is its largest elementwise difference
// from the reference product over every element, divided by the Higham
// bound at its recursion depth; it must stay within that bound plus the
// kernel DGEMM's own.
func (p *problem) prepare(b *bench, rng *rand.Rand, ref *strassen.Config) {
	want := make([]float64, p.m*p.n)
	copy(want, p.c0)
	if err := p.call(ref, want); err != nil {
		b.wrongf("%s: reference DGEFMM: %v", p.name, err)
	}
	p.depth = strassen.PlanFor(ref, p.m, p.n, p.k, p.beta == 0).Depth
	p.scale = stability.Unit * (float64(p.k)*math.Abs(p.alpha)*maxAbs(p.a)*maxAbs(p.b) +
		math.Abs(p.beta)*maxAbs(p.c0))
	prod := make([]float64, p.m*p.n)
	exact := p.m*p.n*p.k <= exactLimit
	if exact {
		for j := 0; j < p.n; j++ {
			for i := 0; i < p.m; i++ {
				prod[i+j*p.m] = p.exactAt(i, j)
			}
		}
	} else {
		copy(prod, p.c0)
		blas.DgemmKernel(kernel.Default(), p.ta, p.tb, p.m, p.n, p.k, p.alpha,
			p.a, p.lda, p.b, p.ldb, p.beta, prod, p.m)
	}
	var worst float64
	for i := range want {
		worst = math.Max(worst, math.Abs(want[i]-prod[i]))
	}
	if tol := p.bound(p.depth) + p.bound(0); !(worst <= tol) {
		b.wrongf("%s: reference DGEFMM differs from the reference product by %.3g, above the Higham bound %.3g", p.name, worst, tol)
	}
	p.want = hashOf(want)
	p.wantErr = worst / p.bound(p.depth)

	ns := min(samplesPerProblem, p.m*p.n)
	p.idx = append([]int(nil), rng.Perm(p.m * p.n)[:ns]...) // keep only the samples
	p.exact = make([]float64, ns)
	for s, ij := range p.idx {
		if exact {
			p.exact[s] = prod[ij]
		} else {
			p.exact[s] = p.exactAt(ij%p.m, ij/p.m)
		}
	}
}

// exactAt is α·op(A)[i,:]·op(B)[:,j] + β·C0[i,j] with error-free products
// and compensated summation, accurate far below the Higham bound.
func (p *problem) exactAt(i, j int) float64 {
	var sum, comp float64
	for l := 0; l < p.k; l++ {
		var x, y float64
		if p.ta.IsTrans() {
			x = p.a[l+i*p.lda]
		} else {
			x = p.a[i+l*p.lda]
		}
		if p.tb.IsTrans() {
			y = p.b[j+l*p.ldb]
		} else {
			y = p.b[l+j*p.ldb]
		}
		prod := x * y
		perr := math.FMA(x, y, -prod)
		t := sum + prod
		bb := t - sum
		comp += (sum - (t - bb)) + (prod - bb) + perr
		sum = t
	}
	v := p.alpha * (sum + comp)
	if p.c0 != nil {
		v += p.beta * p.c0[i+j*p.m]
	}
	return v
}

// errRatio is the largest error of c over the exact samples divided by the
// Higham bound at depth d.
func (p *problem) errRatio(c []float64, d int) float64 {
	var worst float64
	for s, ij := range p.idx {
		e := math.Abs(c[ij] - p.exact[s])
		if math.IsNaN(e) {
			return math.Inf(1)
		}
		worst = math.Max(worst, e)
	}
	return worst / p.bound(d)
}

// check verifies one timed output that must equal the reference result
// bit for bit, counting it as attempted and, on any difference, as failed.
func (b *bench) check(p *problem, c []float64, err error) {
	b.attempted++
	switch {
	case err != nil:
		b.failed++
		b.wrongf("%s: %v", p.name, err)
	case hashOf(c) == p.want:
		b.errMax = math.Max(b.errMax, p.wantErr)
	default:
		b.failed++
		r := p.errRatio(c, p.depth)
		b.errMax = math.Max(b.errMax, r)
		b.wrongf("%s: output differs from the reference bit pattern (error ratio %.3g)", p.name, r)
	}
}

// checkBound verifies one output that need not match the reference bit
// for bit (a different engine or kernel ran it): it must stay within the
// Higham bound at recursion depth d of the exact samples.
func (b *bench) checkBound(p *problem, c []float64, err error, d int) {
	b.attempted++
	r := math.Inf(1)
	if err == nil {
		r = p.errRatio(c, d)
	}
	if !(r <= 1) {
		b.failed++
		b.wrongf("%s: error ratio %.3g exceeds the Higham bound at depth %d (err %v)", p.name, r, d, err)
	}
}

// hashOf is FNV-1a over the IEEE bits of every element.
func hashOf(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}

func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}
