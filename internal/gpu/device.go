package gpu

import (
	"fmt"
	"math"
	"math/bits"

	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/kasm"
)

// Device is a simulated GPU. A Device owns global memory and a hook list;
// kernel launches run CTAs to completion, one resident CTA per SM at a
// time (the FlexGripPlus execution model). A Device runs one launch at a
// time: it reuses its launch state, warp slab and shared-memory buffer
// across launches, so the thousands of injections of a campaign allocate
// nothing per issued instruction.
type Device struct {
	Cfg    Config
	Global []uint32
	hooks  []Hook
	st     launchState
}

// NewDevice builds a device. It panics on an invalid configuration —
// configurations are static test/benchmark inputs.
func NewDevice(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Device{Cfg: cfg, Global: make([]uint32, cfg.GlobalMemWords)}
}

// AddHook registers an instrumentation hook for subsequent launches.
func (d *Device) AddHook(h Hook) { d.hooks = append(d.hooks, h) }

// ClearHooks removes all instrumentation.
func (d *Device) ClearHooks() { d.hooks = nil }

// ResetGlobal zeroes global memory.
func (d *Device) ResetGlobal() { clear(d.Global) }

// WriteGlobal copies data into global memory at word offset off.
func (d *Device) WriteGlobal(off int, data []uint32) {
	copy(d.Global[off:off+len(data)], data)
}

// ReadGlobal copies n words starting at word offset off.
func (d *Device) ReadGlobal(off, n int) []uint32 {
	out := make([]uint32, n)
	copy(out, d.Global[off:off+n])
	return out
}

// trapError carries a trap out of the execution core via panic/recover;
// it never escapes Launch.
type trapError struct {
	kind TrapKind
	info string
}

// trapf aborts the launch with a formatted trap. It is the execution
// core's only formatting site (the watchdog's trap is formatted once per
// budget, in Launch), so the hot path never boxes arguments unless a trap
// actually fires.
func trapf(kind TrapKind, format string, args ...any) {
	panic(trapError{kind, fmt.Sprintf(format, args...)})
}

// launchState is the device's per-launch arena, reset (not reallocated)
// by every launch and every CTA.
type launchState struct {
	dev    *Device
	prog   *kasm.Program
	code   []isa.Instruction // prog decoded once per launch
	lc     LaunchConfig
	res    Result
	sm     int
	warps  []Warp   // the current CTA's warps; the slab keeps its capacity
	shared []uint32 // the current CTA's shared segment (nil if none)
	smem   []uint32 // backing store for shared, grown to the largest request
	ctx    InstrCtx // handed to every hook call
	lo, hi int32    // global words the current CTA stored: [lo,hi)
	hang   hangState

	// watchdog is the watchdog's trap for the budget watchdogAt, boxed
	// once so that a hang allocates nothing.
	watchdog   any
	watchdogAt uint64

	zero, sink [isa.WarpSize]uint32 // RZ's row for reads and for writes
}

// Launch runs the program with the given configuration and returns the
// outcome. Traps (DUEs) are reported in the Result, not as errors; errors
// are reserved for malformed launches.
func (d *Device) Launch(prog *kasm.Program, lc LaunchConfig) (Result, error) {
	if err := lc.Validate(d.Cfg); err != nil {
		return Result{}, err
	}
	if prog.Len() == 0 {
		return Result{}, fmt.Errorf("gpu: empty program %q", prog.Name)
	}
	st := &d.st
	st.dev, st.prog, st.lc, st.res = d, prog, lc, Result{}
	st.hang.on = d.memoryless()
	if st.watchdogAt != d.Cfg.MaxIssues { // MaxIssues > 0, so the first launch formats
		st.watchdogAt = d.Cfg.MaxIssues
		st.watchdog = trapError{TrapWatchdog, fmt.Sprintf("issue budget %d exhausted", st.watchdogAt)}
	}
	st.code = st.code[:0]
	for _, raw := range prog.Code {
		st.code = append(st.code, isa.Decode(raw))
	}
	grid := lc.Grid
	gx, gy, gz := max(grid.X, 1), max(grid.Y, 1), max(grid.Z, 1)
	for bz := 0; bz < gz; bz++ {
		for by := 0; by < gy; by++ {
			for bx := 0; bx < gx; bx++ {
				smID := (bx + by*gx + bz*gx*gy) % d.Cfg.NumSMs
				if st.runCTA(Dim3{bx, by, bz}, smID) {
					return st.res, nil // trapped
				}
			}
		}
	}
	return st.res, nil
}

// runCTA executes one block to completion. It reports true if the launch
// trapped (execution must stop).
func (st *launchState) runCTA(cta Dim3, smID int) (trapped bool) {
	st.sm = smID
	st.shared = nil
	if n := st.lc.SharedWords; n > 0 {
		if cap(st.smem) < n {
			st.smem = make([]uint32, n)
		}
		st.shared = st.smem[:n]
		clear(st.shared)
	}
	st.buildWarps(cta)
	st.lo, st.hi = math.MaxInt32, 0
	st.hang.startCTA(st.res.Issues)
	st.ctx.Dev, st.ctx.Shared, st.ctx.Params = st.dev, st.shared, st.lc.Params

	defer func() {
		if r := recover(); r != nil {
			te, ok := r.(trapError)
			if !ok {
				panic(r)
			}
			st.res.Trap = te.kind
			st.res.TrapInfo = te.info
			trapped = true
		}
	}()
	st.schedule()
	return false
}

// buildWarps resets the slab to the CTA's warps, assigning them
// round-robin to the SM's sub-partitions (PPBs).
func (st *launchState) buildWarps(cta Dim3) {
	block := st.lc.Block
	bx, by, bz := max(block.X, 1), max(block.Y, 1), max(block.Z, 1)
	nThreads := bx * by * bz
	nWarps := (nThreads + isa.WarpSize - 1) / isa.WarpSize
	if cap(st.warps) < nWarps {
		st.warps = make([]Warp, nWarps)
	}
	st.warps = st.warps[:nWarps]
	for w := range st.warps {
		warp := &st.warps[w]
		warp.IDInSM, warp.PPB, warp.SM, warp.CTA = w, w%st.dev.Cfg.PPBsPerSM, st.sm, cta
		warp.Valid, warp.Exited, warp.Barrier = 0, 0, 0
		warp.PC = [isa.WarpSize]int32{}
		warp.TIDs = [isa.WarpSize]Dim3{}
		warp.Preds = [isa.WarpSize]uint8{}
		warp.cached = false
		// Lane l's registers are draws l*RegsPerThread+1.. of the LCG
		// stream seeded by the warp's identity (see Warp.fillRow).
		warp.filled = 0
		x := (uint64(w)<<40^uint64(cta.X)<<20^uint64(cta.Y)<<10^uint64(st.sm))*lcgMul + lcgInc
		for lane := range warp.garbage {
			warp.garbage[lane] = x
			x = x*lcgLaneJump[0] + lcgLaneJump[1]
		}
		for lane := 0; lane < isa.WarpSize; lane++ {
			t := w*isa.WarpSize + lane
			if t >= nThreads {
				break
			}
			warp.Valid |= 1 << lane
			warp.TIDs[lane] = Dim3{t % bx, (t / bx) % by, t / (bx * by)}
		}
	}
}

// schedule issues warp-instructions round-robin until every warp has
// exited, a trap fires, or the watchdog expires. live and ready are
// bitmaps over the CTA's warps (Config.Validate caps a block at 64):
// live warps have a lane that has not exited, ready warps a lane that
// could issue. Only BAR, EXIT and barrier release change them. With
// every hook memoryless, each step first checks the CTA for a hang (see
// hang.go).
func (st *launchState) schedule() {
	n := len(st.warps)
	live := uint64(1)<<n - 1
	ready := live
	rr := 0
	h := &st.hang
	for live != 0 {
		if ready == 0 {
			// Unreachable: the release below runs whenever ready empties
			// while a warp is live. A real GPU hangs here.
			panic(trapError{TrapDeadlock, "no schedulable warp; barrier never releases"})
		}
		if h.on {
			if rr == h.rr && live == h.live && ready == h.ready && st.sameState() {
				st.fastForward()
			} else if st.res.Issues == h.next {
				st.snapshot(rr, live, ready)
			}
		}
		next := ready &^ (uint64(1)<<rr - 1)
		if next == 0 {
			next = ready
		}
		i := bits.TrailingZeros64(next)
		if rr = i + 1; rr == n {
			rr = 0
		}
		w := &st.warps[i]
		if op := st.issue(w); op != isa.OpBAR && op != isa.OpEXIT {
			continue
		}
		bit := uint64(1) << i
		if w.Done() {
			live &^= bit
		}
		if w.ready() == 0 {
			ready &^= bit
		}
		// The CTA barrier releases once every live lane of every live
		// warp is parked.
		if ready == 0 && live != 0 {
			for j := range st.warps {
				st.warps[j].Barrier = 0
				st.warps[j].cached = false
			}
			ready = live
		}
	}
}

// issue fetches, decodes, instruments and executes one warp-instruction
// of w, and returns the opcode that executed.
//
//vetsim:hotpath
func (st *launchState) issue(w *Warp) isa.Opcode {
	mask, pc := w.schedulable()
	res := &st.res
	res.Issues++
	if res.Issues > st.dev.Cfg.MaxIssues {
		panic(st.watchdog)
	}
	if pc < 0 || int(pc) >= len(st.code) {
		trapf(TrapBadPC, "fetch at pc=%d, program has %d instructions", pc, len(st.code))
	}
	in := st.code[pc]
	hooks := st.dev.hooks
	ctx := &st.ctx
	var disable uint32
	if len(hooks) != 0 {
		ctx.W, ctx.PC, ctx.Raw, ctx.Instr = w, pc, st.prog.Code[pc], in
		ctx.Mask, ctx.ExecMask, ctx.DisableMask = mask, 0, 0
		for _, h := range hooks {
			h.Before(ctx)
		}
		in, disable = ctx.Instr, ctx.DisableMask
	}

	if !in.Op.Valid() {
		trapf(TrapIllegalInstr, "pc=%d opcode=%#x", pc, uint8(in.Op))
	}
	if !in.ValidRegs() {
		trapf(TrapInvalidReg, "pc=%d %v", pc, in)
	}

	// Predication: lanes whose guard fails skip the instruction.
	execMask := mask
	if !in.Unconditional() {
		var pass uint32
		if p := in.PredIndex(); p == isa.PT {
			pass = mask
		} else {
			for m := mask; m != 0; m &= m - 1 {
				lane := lowLane(m)
				pass |= uint32(w.Preds[lane]>>p&1) << lane
			}
		}
		if in.PredNegated() {
			pass = mask &^ pass
		}
		execMask = pass
	}
	ctx.ExecMask = execMask

	res.UnitIssues[in.Op.Unit()]++
	res.ThreadOps += uint64(bits.OnesCount32(execMask))

	st.execute(w, in, mask, execMask, execMask&^disable, pc)

	for _, h := range hooks {
		h.After(ctx)
	}
	return in.Op
}

// execute applies one instruction to the warp: control flow for every
// lane in mask, data semantics for the lanes in commit. Hooks' disable
// mask (stuck-at-0 thread enables) narrows commit but never control
// flow, so a disabled lane stops producing results while its warp keeps
// advancing.
//
//vetsim:hotpath
func (st *launchState) execute(w *Warp, in isa.Instruction, mask, execMask, commit uint32, pc int32) {
	next := pc + 1
	switch in.Op {
	case isa.OpBRA:
		target := int32(in.Imm)
		if execMask != 0 && (target < 0 || int(target) >= len(st.code)) {
			trapf(TrapBadPC, "branch to %d at pc=%d", target, pc)
		}
		w.advance(execMask, target)
		w.advance(mask&^execMask, next)
		switch execMask {
		case mask:
			w.moveIssueSet(target)
		case 0:
			w.moveIssueSet(next)
		default:
			w.cached = false // divergent branch
		}
		return
	case isa.OpEXIT:
		w.Exited |= execMask
		w.advance(mask&^execMask, next)
		w.cached = false
		return
	case isa.OpBAR:
		w.Barrier |= execMask
		w.advance(mask, next)
		w.cached = false
		return
	}

	switch in.Op.Unit() {
	case isa.UnitMEM:
		st.memKernel(w, in, commit, pc)
	case isa.UnitCTRL:
		st.predKernel(w, in, commit)
	default:
		st.aluKernel(w, in, commit)
	}
	w.advance(mask, next)
	w.moveIssueSet(next)
}

func f32(v uint32) float32 { return math.Float32frombits(v) }
func b32(f float32) uint32 { return math.Float32bits(f) }

// aluKernel applies an arithmetic, conversion or data-movement
// instruction to every lane in commit: one dispatch per warp-instruction,
// then a tight loop over the lanes of whole register rows.
//
//vetsim:hotpath
func (st *launchState) aluKernel(w *Warp, in isa.Instruction, commit uint32) {
	if !in.Op.WritesReg() {
		return // NOP
	}
	d := st.dst(w, in.Rd)
	a, b, c := &st.zero, &st.zero, &st.zero
	switch in.Op.SrcRegs() {
	case 3:
		c = st.src(w, in.Rs3)
		fallthrough
	case 2:
		b = st.src(w, in.Rs2)
		fallthrough
	case 1:
		a = st.src(w, in.Rs1)
	}
	sh := in.Imm & 31
	switch in.Op {
	case isa.OpIADD:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return x + y })
	case isa.OpISUB:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return x - y })
	case isa.OpIMUL:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return x * y })
	case isa.OpIMAD:
		lanes(d, a, b, c, commit, func(x, y, z uint32) uint32 { return x*y + z })
	case isa.OpIMIN:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return uint32(min(int32(x), int32(y))) })
	case isa.OpIMAX:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return uint32(max(int32(x), int32(y))) })
	case isa.OpIAND:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return x & y })
	case isa.OpIOR:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return x | y })
	case isa.OpIXOR:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return x ^ y })
	case isa.OpSHL:
		lanes(d, a, b, c, commit, func(x, _, _ uint32) uint32 { return x << sh })
	case isa.OpSHR:
		lanes(d, a, b, c, commit, func(x, _, _ uint32) uint32 { return x >> sh })

	case isa.OpFADD:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return b32(f32(x) + f32(y)) })
	case isa.OpFSUB:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return b32(f32(x) - f32(y)) })
	case isa.OpFMUL:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return b32(f32(x) * f32(y)) })
	case isa.OpFFMA:
		lanes(d, a, b, c, commit, func(x, y, z uint32) uint32 { return b32(float32(float64(f32(x))*float64(f32(y)) + float64(f32(z)))) })
	case isa.OpFMIN:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return b32(float32(math.Min(float64(f32(x)), float64(f32(y))))) })
	case isa.OpFMAX:
		lanes(d, a, b, c, commit, func(x, y, _ uint32) uint32 { return b32(float32(math.Max(float64(f32(x)), float64(f32(y))))) })

	case isa.OpFSIN:
		lanes(d, a, b, c, commit, func(x, _, _ uint32) uint32 { return b32(float32(math.Sin(float64(f32(x))))) })
	case isa.OpFEXP:
		lanes(d, a, b, c, commit, func(x, _, _ uint32) uint32 { return b32(float32(math.Exp2(float64(f32(x))))) })
	case isa.OpFRCP:
		lanes(d, a, b, c, commit, func(x, _, _ uint32) uint32 { return b32(1 / f32(x)) })
	case isa.OpFSQRT:
		lanes(d, a, b, c, commit, func(x, _, _ uint32) uint32 { return b32(float32(math.Sqrt(float64(f32(x))))) })

	case isa.OpI2F:
		lanes(d, a, b, c, commit, func(x, _, _ uint32) uint32 { return b32(float32(int32(x))) })
	case isa.OpF2I:
		lanes(d, a, b, c, commit, func(x, _, _ uint32) uint32 { return uint32(int32(f32(x))) })

	case isa.OpMOV, isa.OpSEL:
		// SEL: the guard already applied, so executing lanes take Rs1 and
		// predicated-off lanes keep Rd; SEL pairs with a PNot'd SEL for
		// the else value.
		lanes(d, a, b, c, commit, func(x, _, _ uint32) uint32 { return x })
	case isa.OpMOV32I:
		v := uint32(in.SImm())
		lanes(d, a, b, c, commit, func(_, _, _ uint32) uint32 { return v })
	case isa.OpS2R:
		for m := commit; m != 0; m &= m - 1 {
			l := lowLane(m)
			d[l] = st.specialReg(w, l, in.Imm)
		}
	}
}

// lanes sets d[l] = f(a[l], b[l], c[l]) for every lane l in commit. It
// inlines into aluKernel together with f, so each opcode gets its own
// tight loop.
func lanes(d, a, b, c *[isa.WarpSize]uint32, commit uint32, f func(x, y, z uint32) uint32) {
	for m := commit; m != 0; m &= m - 1 {
		l := lowLane(m)
		d[l] = f(a[l], b[l], c[l])
	}
}

// memKernel applies a load or store to every lane in commit, in lane
// order, trapping on the first out-of-bounds address. Global stores widen
// the CTA's store range [lo,hi), which bounds what the hang detector
// snapshots of global memory.
//
//vetsim:hotpath
func (st *launchState) memKernel(w *Warp, in isa.Instruction, commit uint32, pc int32) {
	mem, kind, what := st.dev.Global, TrapBadGlobalAddr, "load"
	switch in.Op {
	case isa.OpGST:
		what = "store"
	case isa.OpLDS:
		mem, kind, what = st.shared, TrapBadSharedAddr, "shared load"
	case isa.OpSTS:
		mem, kind, what = st.shared, TrapBadSharedAddr, "shared store"
	case isa.OpLDC:
		mem, kind, what = st.lc.Params, TrapBadConstAddr, "const load"
	}
	store := in.Op == isa.OpGST || in.Op == isa.OpSTS
	var data *[isa.WarpSize]uint32
	if store {
		data = st.src(w, in.Rs2)
	} else {
		data = st.dst(w, in.Rd)
	}
	base, off := st.src(w, in.Rs1), in.SImm()
	lo, hi := st.lo, st.hi
	for m := commit; m != 0; m &= m - 1 {
		l := lowLane(m)
		addr := int32(base[l]) + off
		if addr < 0 || int(addr) >= len(mem) {
			trapf(kind, "%s @%d pc=%d lane=%d", what, addr, pc, l)
		}
		if store {
			mem[addr] = data[l]
			lo, hi = min(lo, addr), max(hi, addr+1)
		} else {
			data[l] = mem[addr]
		}
	}
	if in.Op == isa.OpGST {
		st.lo, st.hi = lo, hi
	}
}

// predKernel applies a predicate-setting compare to every lane in commit.
//
//vetsim:hotpath
func (st *launchState) predKernel(w *Warp, in isa.Instruction, commit uint32) {
	dst, cmp := in.DestPred(), in.Cmp()
	switch in.Op {
	case isa.OpISETP:
		a, b := st.src(w, in.Rs1), st.src(w, in.Rs2)
		for m := commit; m != 0; m &= m - 1 {
			l := lowLane(m)
			w.SetPred(l, dst, icmp(cmp, int32(a[l]), int32(b[l])))
		}
	case isa.OpFSETP:
		a, b := st.src(w, in.Rs1), st.src(w, in.Rs2)
		for m := commit; m != 0; m &= m - 1 {
			l := lowLane(m)
			w.SetPred(l, dst, fcmp(cmp, f32(a[l]), f32(b[l])))
		}
	case isa.OpPSETP:
		p, q := int(in.Rs1&0x7), int(in.Rs2&0x7)
		for m := commit; m != 0; m &= m - 1 {
			l := lowLane(m)
			a, b := w.Pred(l, p), w.Pred(l, q)
			var v bool
			switch cmp {
			case isa.CmpEQ: // AND
				v = a && b
			case isa.CmpNE: // XOR
				v = a != b
			default: // OR
				v = a || b
			}
			w.SetPred(l, dst, v)
		}
	}
}

// src returns register r of every lane of w as one row; RZ reads a row
// of zeros.
func (st *launchState) src(w *Warp, r uint8) *[isa.WarpSize]uint32 {
	if r == isa.RZ {
		return &st.zero
	}
	return w.row(r)
}

// dst returns the row that writes to register r of w go to; writes to RZ
// land in a row nothing reads.
func (st *launchState) dst(w *Warp, r uint8) *[isa.WarpSize]uint32 {
	if r == isa.RZ {
		return &st.sink
	}
	return w.row(r)
}

func (st *launchState) specialReg(w *Warp, lane int, sr uint16) uint32 {
	t := w.TIDs[lane]
	switch sr {
	case isa.SRTidX:
		return uint32(t.X)
	case isa.SRTidY:
		return uint32(t.Y)
	case isa.SRTidZ:
		return uint32(t.Z)
	case isa.SRCtaidX:
		return uint32(w.CTA.X)
	case isa.SRCtaidY:
		return uint32(w.CTA.Y)
	case isa.SRCtaidZ:
		return uint32(w.CTA.Z)
	case isa.SRNTidX:
		return uint32(max(st.lc.Block.X, 1))
	case isa.SRNTidY:
		return uint32(max(st.lc.Block.Y, 1))
	case isa.SRNTidZ:
		return uint32(max(st.lc.Block.Z, 1))
	case isa.SRNCtaidX:
		return uint32(max(st.lc.Grid.X, 1))
	case isa.SRNCtaidY:
		return uint32(max(st.lc.Grid.Y, 1))
	case isa.SRNCtaidZ:
		return uint32(max(st.lc.Grid.Z, 1))
	case isa.SRLaneID:
		return uint32(lane)
	case isa.SRWarpID:
		return uint32(w.IDInSM)
	case isa.SRSMID:
		return uint32(w.SM)
	}
	return 0
}

func icmp(c isa.CmpOp, a, b int32) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}

func fcmp(c isa.CmpOp, a, b float32) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}
