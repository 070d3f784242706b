package gpu

import (
	"math"
	"testing"

	"gpufaultsim/internal/isa"
)

// IssueSetOracle returns a Before hook that recomputes every issue set
// from the warp's public lane state (PC, Valid, Exited, Barrier) with no
// cache, and reports the first issue where the simulator chose otherwise.
// *checked counts the issues it verified. Exported for the external test
// package, which runs it over whole applications and the t-MxM study.
func IssueSetOracle(t testing.TB, checked *uint64) HookFuncs {
	return HookFuncs{BeforeFn: func(ctx *InstrCtx) {
		w := ctx.W
		minPC := int32(math.MaxInt32)
		ready := func(lane int) bool {
			bit := uint32(1) << lane
			return w.Valid&bit != 0 && w.Exited&bit == 0 && w.Barrier&bit == 0
		}
		for lane := 0; lane < isa.WarpSize; lane++ {
			if ready(lane) && w.PC[lane] < minPC {
				minPC = w.PC[lane]
			}
		}
		var mask uint32
		for lane := 0; lane < isa.WarpSize; lane++ {
			if ready(lane) && w.PC[lane] == minPC {
				mask |= 1 << lane
			}
		}
		if (mask != ctx.Mask || minPC != ctx.PC) && !t.Failed() {
			t.Errorf("issue %d, warp %d: issued mask %#x at pc %d, lane state says mask %#x at pc %d",
				*checked, w.IDInSM, ctx.Mask, ctx.PC, mask, minPC)
		}
		*checked++
	}}
}
