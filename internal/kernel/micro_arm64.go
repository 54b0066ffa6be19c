package kernel

// NEON 8×4 micro-kernel glue; see micro_amd64.go for the amd64 twin.

//go:noescape
func microTile8x4NEON(kb int, alpha float64, ap, bp, c *float64, ldc int)

// simdFull adapts the assembly tile to the microImpl.full signature.
func simdFull(ap, bp, c []float64, ldc, kb int, alpha float64) {
	if kb <= 0 {
		return
	}
	ap = ap[:SIMDTileMR*kb]
	bp = bp[:SIMDTileNR*kb]
	c = c[:3*ldc+SIMDTileMR]
	microTile8x4NEON(kb, alpha, &ap[0], &bp[0], &c[0], ldc)
}

// simdDual is never called: the NEON tile has no dual-destination
// write-out (hasDual is false), so the fused sweep buffers its tiles.
func simdDual(ap, bp, c0 []float64, ldc0 int, c1 []float64, ldc1 int, kb int, alpha0, alpha1 float64) {
	panic("kernel: no dual-destination tile on arm64")
}

// newSIMDImpl probes HWCAP and returns the NEON tile, or nil when AdvSIMD
// is unavailable.
func newSIMDImpl() *microImpl {
	if !detectSIMD() {
		return nil
	}
	return &microImpl{
		mr:  SIMDTileMR,
		nr:  SIMDTileNR,
		isa: "neon",
		asm: true,
	}
}
