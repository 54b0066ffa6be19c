package kernel

import "repro/internal/phase"

// phaseAcct accumulates one MulAdd's phase attribution locally so the
// profiler sees a single Add per phase per call, not one per cache block.
//
// The macro-kernel sweep is timed as a whole (timing each MR×NR register
// tile would perturb the very loop being measured) and the elapsed time is
// apportioned between the micro and fringe phases in proportion to their
// tile counts: a ragged tile runs the same full register tile over
// zero-padded panels as an interior one (plus a tile-sized copy in and
// out), so it costs one full tile however few of its FLOPs are useful.
// The FLOPs stay the useful ones (kernel.fringe's rate therefore reads
// below kernel.micro's by the padding fraction). For the power-of-two
// shapes the Strassen quadrants produce, every tile is full and the split
// is exact; on ragged shapes times and FLOPs both sum to the sweep's true
// values.
type phaseAcct struct {
	packANS, packBNS        int64
	microNS, fringeNS       int64
	microFlops, fringeFlops int64
	microBytes, fringeBytes int64
}

// macro folds one macroKernel sweep: mb×nb×kb logical block, ft full tiles
// and et edge tiles, swept in ns nanoseconds.
func (a *phaseAcct) macro(mi *microImpl, ns int64, mb, nb, kb int, ft, et int64) {
	total := 2 * int64(mb) * int64(nb) * int64(kb)
	full := ft * 2 * int64(mi.mr) * int64(mi.nr) * int64(kb)
	edge := total - full
	// Per-tile traffic: both panels are zero-padded to mr/nr, so an edge
	// tile streams the same mr·kb + nr·kb packed words as a full one; C is
	// read and written once per tile (bounded by mr·nr each way).
	tileBytes := 8 * (int64(mi.mr)*int64(kb) + int64(mi.nr)*int64(kb) + 2*int64(mi.mr)*int64(mi.nr))
	a.microFlops += full
	a.fringeFlops += edge
	a.microBytes += ft * tileBytes
	a.fringeBytes += et * tileBytes
	mNS, fNS := tileSplit(ns, ft, et)
	a.microNS += mNS
	a.fringeNS += fNS
}

// tileSplit apportions a sweep's ns between ft full and et ragged tiles.
func tileSplit(ns, ft, et int64) (microNS, fringeNS int64) {
	if et <= 0 {
		return ns, 0
	}
	microNS = ns * ft / (ft + et)
	return microNS, ns - microNS
}

// flush records the call's totals. Packing performs no FLOPs; its traffic
// is one read plus one write per packed word (16 bytes).
func (a *phaseAcct) flush(p *phase.Profiler, packedA, packedB int64) {
	p.Add(phase.KernelPackA, a.packANS, 0, packedA*16)
	p.Add(phase.KernelPackB, a.packBNS, 0, packedB*16)
	p.Add(phase.KernelMicro, a.microNS, a.microFlops, a.microBytes)
	if a.fringeFlops > 0 || a.fringeNS > 0 {
		p.Add(phase.KernelFringe, a.fringeNS, a.fringeFlops, a.fringeBytes)
	}
}
