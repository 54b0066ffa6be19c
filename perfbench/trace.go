package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/phase"
	"repro/internal/strassen"
)

var bg = context.Background()

// spans records the benchmark's own spans around calls into each layer's
// public functions. A nil *spans records nothing, so untraced passes share
// the code path. Spans stay in memory; summary reports each name's count,
// total time and self time (duration minus the part its children cover).
type spans struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // id of the parent span, 0 for a root
	start, end time.Duration
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *spans) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.t0)})
	return len(r.spans)
}

func (r *spans) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].end = time.Since(r.t0)
	r.mu.Unlock()
}

// summary returns one line per span name. Children of one parent may
// overlap (concurrent requests), so a parent's covered time is the union
// of its children's intervals.
func (r *spans) summary() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][][2]time.Duration)
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	type agg struct {
		count       int
		total, self time.Duration
	}
	by := make(map[string]*agg)
	for i, s := range r.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		d := s.end - s.start
		a.count++
		a.total += d
		a.self += d - union(children[i+1])
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		a := by[n]
		out = append(out, fmt.Sprintf("span %-28s count %6d total %10.3f ms self %10.3f ms",
			n, a.count, ms(a.total), ms(a.self)))
	}
	return out
}

// union is the total length covered by a set of intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// actionCounts reads a CountTracer into the per-layer action groups.
func actionCounts(t *strassen.CountTracer) map[string]int {
	groups := map[string][]string{
		"base":     {"base"},
		"level":    {"strassen1", "strassen2", "original", "table"},
		"parallel": {"parallel"},
		"fused1":   {"fused1"},
		"fused2":   {"fused2"},
		"peel":     {"peel", "peel-first", "pad-dynamic", "pad-static"},
		"fixup":    {"fixup-ger", "fixup-col", "fixup-row", "fixup-gemm-k", "fixup-gemm-m", "fixup-gemm-n"},
	}
	out := make(map[string]int, len(groups))
	for g, actions := range groups {
		for _, a := range actions {
			out[g] += t.Count(a)
		}
	}
	return out
}

// guardActions asserts the traced pass took the same recursion path as the
// untraced one (same action counts over the same calls) and reports the
// traced counts per call.
func (b *bench) guardActions(untraced, traced *strassen.CountTracer, calls int) {
	u, t := actionCounts(untraced), actionCounts(traced)
	for g, n := range t {
		if u[g] != n {
			b.wrongf("traced pass took a different path: %s actions %d traced vs %d untraced", g, n, u[g])
		}
		b.set("strassen.actions."+g, float64(n)/float64(calls))
	}
	b.notef("actions (traced pass, %d calls incl. warm-up): %s", calls, traced.String())
}

// profile installs a fresh process-wide phase profiler and returns a
// function that uninstalls it and returns its totals.
func profile() func() []phase.Stat {
	p := &phase.Profiler{}
	prev := phase.SetActive(p)
	return func() []phase.Stat {
		phase.SetActive(prev)
		return p.Snapshot()
	}
}

// phaseMetrics derives the kernel, strassen, arena and batch metrics from
// a traced pass's phase totals. coreNS is the capacity the fractions are
// taken of: workers × wall. It returns the work-phase time the layers-add-up
// report attributes.
func (b *bench) phaseMetrics(st []phase.Stat, coreNS float64) float64 {
	frac := func(ids ...phase.ID) float64 {
		var ns int64
		for _, id := range ids {
			ns += st[id].NS
		}
		return float64(ns) / coreNS
	}
	b.set("strassen.addsub_frac", frac(phase.StrassenAddSub))
	b.set("strassen.quadrant_frac", frac(phase.StrassenQuadrant))
	b.set("strassen.peel_frac", frac(phase.StrassenPeel))
	b.set("kernel.micro_gflops", st[phase.KernelMicro].GFLOPS())
	b.set("kernel.pack_frac", frac(phase.KernelPackA, phase.KernelPackB, phase.KernelFusedPack))
	b.set("kernel.fringe_frac", frac(phase.KernelFringe))
	b.set("kernel.fused_writeout_frac", frac(phase.KernelFusedWriteout))
	var flops, bytes int64
	for _, id := range kernelPhases {
		flops += st[id].Flops
		bytes += st[id].Bytes
	}
	if bytes > 0 {
		b.set("kernel.intensity", float64(flops)/float64(bytes))
	}
	b.set("arena.draw_frac", frac(phase.ArenaDraw))
	if q := st[phase.BatchQueueWait]; q.Count > 0 {
		b.set("batch.queue_wait_ms", float64(q.NS)/float64(q.Count)/1e6)
	}
	b.notef("phase totals (computed flop and byte counts):")
	for _, s := range st {
		if s.Count > 0 {
			b.notef("  phase %-22s count %9d  %10.3f ms  %8.2f GFLOP/s  %7.3f flop/byte",
				s.Name, s.Count, float64(s.NS)/1e6, s.GFLOPS(), s.Intensity())
		}
	}
	var work float64
	for _, id := range workPhases {
		work += float64(st[id].NS)
	}
	return work
}

var kernelPhases = []phase.ID{
	phase.KernelPackA, phase.KernelPackB, phase.KernelMicro, phase.KernelFringe,
	phase.KernelFusedPack, phase.KernelFusedWriteout,
}

// workPhases are the leaf phases whose self times the layers-add-up report
// sums: disjoint brackets of kernel, Strassen and arena work. The
// scheduler's task_run encloses them and is left out.
var workPhases = append(append([]phase.ID(nil), kernelPhases...),
	phase.StrassenAddSub, phase.StrassenQuadrant, phase.StrassenPeel, phase.ArenaDraw)

// addUp prints the layers-add-up report of a closed-loop pass: phase self
// times and scheduler idle and steal time against workers × wall, and the
// unattributed share.
func (b *bench) addUp(st []phase.Stat, coreNS, workNS, idleNS float64) {
	group := func(ids ...phase.ID) float64 {
		var ns int64
		for _, id := range ids {
			ns += st[id].NS
		}
		return float64(ns) / coreNS
	}
	kern := group(kernelPhases...)
	str := group(phase.StrassenAddSub, phase.StrassenQuadrant, phase.StrassenPeel)
	arena := group(phase.ArenaDraw)
	steal := group(phase.SchedSteal)
	idle := idleNS / coreNS
	un := 1 - (workNS/coreNS + steal + idle)
	b.notef("layers add up (%d workers × timed wall = %.3f core-s): kernel %.1f%%, strassen %.1f%%, arena %.1f%%, sched steal %.1f%%, sched idle %.1f%%, unattributed %.1f%%",
		b.workers, coreNS/1e9, 100*kern, 100*str, 100*arena, 100*steal, 100*idle, 100*un)
	b.set("layers.unattributed_frac", un)
}
