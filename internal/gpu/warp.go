package gpu

import (
	"math"
	"math/bits"

	"gpufaultsim/internal/isa"
)

// Warp holds the architectural state of one warp: per-lane program
// counters (min-PC reconvergence scheduling), lane bitmasks, registers,
// predicates and thread identity.
//
// The per-lane PC model makes arbitrary divergent control flow correct
// without compiler-inserted reconvergence points: each issue executes the
// lanes whose PC equals the minimum PC across schedulable lanes, so
// diverged lanes serialize and implicitly reconverge — the same observable
// behaviour as a G80 SIMT stack for structured code.
type Warp struct {
	IDInSM int  // warp slot within the SM (used by error descriptors)
	PPB    int  // sub-partition the warp is bound to
	SM     int  // owning SM
	CTA    Dim3 // block index of the owning CTA

	Valid   uint32 // lanes that carry a live thread (block tail may be partial)
	Exited  uint32 // lanes that executed EXIT
	Barrier uint32 // lanes parked at a CTA barrier

	// PC is read freely by hooks; writes go through SetPC.
	PC [isa.WarpSize]int32

	TIDs  [isa.WarpSize]Dim3  // per-lane thread index within the block
	Preds [isa.WarpSize]uint8 // bitmask of P0..P6 per lane

	// regs is register-major, regs[r][lane], so one operand of the whole
	// warp is one contiguous row. Hardware register files are not zeroed
	// between kernels: a row holds deterministic garbage until written,
	// so reads of never-written registers (reachable only through
	// injected register-addressing errors) see wild values, as on
	// silicon. A row is materialized on first access (filled) from each
	// lane's position in the garbage stream (garbage), so registers a
	// kernel never touches cost nothing.
	regs    [isa.RegsPerThread][isa.WarpSize]uint32
	filled  uint64
	garbage [isa.WarpSize]uint64

	// Issue-set cache: (issueMask, issuePC) is the next issue set and
	// otherPC the lowest PC of the other schedulable lanes (MaxInt32 if
	// the warp is converged). While only the issuing lanes move, and stay
	// below otherPC, the next issue needs no lane scan. Divergent
	// branches, EXIT, BAR, barrier release and SetPC clear it.
	issueMask uint32
	issuePC   int32
	otherPC   int32
	cached    bool
}

// Reg returns register r of lane. RZ reads zero; architecturally invalid
// registers must be rejected before calling (the simulator traps first).
func (w *Warp) Reg(lane int, r uint8) uint32 {
	if w.filled>>r&1 == 0 { // RZ, or a row still holding garbage
		return w.regSlow(lane, r)
	}
	return w.regs[r][lane]
}

func (w *Warp) regSlow(lane int, r uint8) uint32 {
	if r == isa.RZ {
		return 0
	}
	return w.row(r)[lane]
}

// SetReg writes register r of lane. Writes to RZ are discarded.
func (w *Warp) SetReg(lane int, r uint8, v uint32) {
	if w.filled>>r&1 == 0 { // RZ, or a row still holding garbage
		w.setRegSlow(lane, r, v)
		return
	}
	w.regs[r][lane] = v
}

func (w *Warp) setRegSlow(lane int, r uint8, v uint32) {
	if r != isa.RZ {
		w.row(r)[lane] = v
	}
}

// row returns register r of every lane.
func (w *Warp) row(r uint8) *[isa.WarpSize]uint32 {
	if w.filled>>r&1 == 0 {
		w.fillRow(r)
	}
	return &w.regs[r]
}

// fillRow materializes register r's garbage: for lane l, draw
// l*RegsPerThread+r+1 of the LCG stream seeded by the warp's identity.
func (w *Warp) fillRow(r uint8) {
	mul, inc := lcgRowJump[r][0], lcgRowJump[r][1]
	row := &w.regs[r]
	for lane, x := range w.garbage {
		row[lane] = uint32((x*mul + inc) >> 33)
	}
	w.filled |= 1 << r
}

// The register-file garbage generator is an LCG. lcgLaneJump advances it
// over one lane's registers; lcgRowJump[r] advances it r draws.
const lcgMul, lcgInc = 6364136223846793005, 1442695040888963407

var (
	lcgLaneJump = lcgJump(isa.RegsPerThread)
	lcgRowJump  = func() (t [isa.RegsPerThread][2]uint64) {
		for r := range t {
			t[r] = lcgJump(r)
		}
		return t
	}()
)

// lcgJump returns the multiplier and increment of n LCG draws.
func lcgJump(n int) [2]uint64 {
	mul, inc := uint64(1), uint64(0)
	for i := 0; i < n; i++ {
		mul, inc = mul*lcgMul, inc*lcgMul+lcgInc
	}
	return [2]uint64{mul, inc}
}

// Pred returns predicate p of lane (PT is constant true).
func (w *Warp) Pred(lane, p int) bool {
	if p == isa.PT {
		return true
	}
	return w.Preds[lane]&(1<<p) != 0
}

// SetPred writes predicate p of lane. Writes to PT are discarded.
func (w *Warp) SetPred(lane, p int, v bool) {
	if p == isa.PT {
		return
	}
	if v {
		w.Preds[lane] |= 1 << p
	} else {
		w.Preds[lane] &^= 1 << p
	}
}

// SetPC redirects lane to pc. Hooks must use it instead of writing PC
// directly, so the warp's issue-set cache sees the change.
func (w *Warp) SetPC(lane int, pc int32) {
	w.PC[lane] = pc
	w.cached = false
}

// Done reports whether every live lane has exited.
func (w *Warp) Done() bool { return w.Valid&^w.Exited == 0 }

// ready returns the lanes that could issue: live and not parked at a
// barrier.
func (w *Warp) ready() uint32 { return w.Valid &^ w.Exited &^ w.Barrier }

// schedulable returns the issue set: the ready lanes whose PC equals the
// minimum PC among them. The caller guarantees at least one ready lane.
//
//vetsim:hotpath
func (w *Warp) schedulable() (mask uint32, pc int32) {
	if w.cached {
		return w.issueMask, w.issuePC
	}
	pc, other := int32(math.MaxInt32), int32(math.MaxInt32)
	for m := w.ready(); m != 0; m &= m - 1 {
		lane := lowLane(m)
		switch p := w.PC[lane]; {
		case p < pc:
			pc, other, mask = p, pc, 1<<lane
		case p == pc:
			mask |= 1 << lane
		case p < other:
			other = p
		}
	}
	w.issueMask, w.issuePC, w.otherPC, w.cached = mask, pc, other, true
	return mask, pc
}

// lowLane returns the lowest lane set in the nonzero mask m.
func lowLane(m uint32) int { return bits.TrailingZeros32(m) & (isa.WarpSize - 1) }

// advance moves the lanes in mask to pc.
func (w *Warp) advance(mask uint32, pc int32) {
	if mask == 1<<isa.WarpSize-1 {
		for lane := range w.PC {
			w.PC[lane] = pc
		}
		return
	}
	for m := mask; m != 0; m &= m - 1 {
		w.PC[lowLane(m)] = pc
	}
}

// moveIssueSet records that the issuing lanes moved, together, to pc:
// the cached set stays exact while they stay below every other lane.
func (w *Warp) moveIssueSet(pc int32) {
	w.issuePC = pc
	if pc >= w.otherPC {
		w.cached = false
	}
}
