package rtlfi

import (
	"math/rand"

	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/workloads"
)

// TileKind selects the t-MxM input characterization (Section 4.1): the
// paper derives three tile classes from LeNet/YOLOv3 feature maps.
type TileKind int

const (
	TileMax    TileKind = iota // highest-magnitude tile
	TileZero                   // padding-dominated tile (many zeros)
	TileRandom                 // unbiased tile
)

var tileNames = [...]string{"Max", "Zero", "Random"}

func (t TileKind) String() string { return tileNames[t] }

// TileKinds lists Max, Zero, Random.
func TileKinds() []TileKind { return []TileKind{TileMax, TileZero, TileRandom} }

// PatternKind classifies the spatial distribution of multiple corrupted
// elements in the t-MxM output (Figure 7 / Table 2).
type PatternKind int

const (
	PatSingle PatternKind = iota
	PatRow
	PatCol
	PatRowCol
	PatBlock
	PatRandom
	PatAll
)

var patNames = [...]string{"single", "row", "col", "row+col", "block", "random", "all"}

func (p PatternKind) String() string { return patNames[p] }

// MultiPatterns lists the multi-element pattern kinds in Table 2's order.
func MultiPatterns() []PatternKind {
	return []PatternKind{PatRow, PatCol, PatRowCol, PatBlock, PatRandom, PatAll}
}

// ClassifyPattern maps corrupted element indices of an n×n matrix to a
// spatial pattern. Row/column patterns need not be a single line: the
// paper notes "neither the position of the observed pattern nor the block
// size are fixed", so a small set of substantially-corrupted full rows (or
// columns) classifies as the row (column) pattern.
func ClassifyPattern(elems []int, n int) PatternKind {
	if len(elems) <= 1 {
		return PatSingle
	}
	if len(elems)*8 >= 7*n*n { // ≥ 87.5% corrupted
		return PatAll
	}
	rows := map[int]int{}
	cols := map[int]int{}
	minR, maxR, minC, maxC := n, -1, n, -1
	for _, e := range elems {
		r, c := e/n, e%n
		rows[r]++
		cols[c]++
		minR, maxR = min(minR, r), max(maxR, r)
		minC, maxC = min(minC, c), max(maxC, c)
	}
	// lineish: few distinct lines, each mostly corrupted.
	lineish := func(m map[int]int) bool {
		if len(m) > n/4 {
			return false
		}
		for _, cnt := range m {
			if 2*cnt < n {
				return false
			}
		}
		return true
	}
	if lineish(rows) {
		return PatRow
	}
	if lineish(cols) {
		return PatCol
	}
	// row+col: a dominant row plus a dominant column cover everything.
	var bestR, bestRn, bestC, bestCn int
	for r, cnt := range rows {
		if cnt > bestRn {
			bestR, bestRn = r, cnt
		}
	}
	for c, cnt := range cols {
		if cnt > bestCn {
			bestC, bestCn = c, cnt
		}
	}
	covered := true
	for _, e := range elems {
		if e/n != bestR && e%n != bestC {
			covered = false
			break
		}
	}
	if covered && bestRn >= 2 && bestCn >= 2 {
		return PatRowCol
	}
	// block: compact bounding box, reasonably filled.
	bh, bw := maxR-minR+1, maxC-minC+1
	if bh <= n/2+1 && bw <= n/2+1 && len(elems)*2 >= bh*bw {
		return PatBlock
	}
	return PatRandom
}

// tmxmHook is the persistent scheduler/pipeline fault for the t-MxM runs,
// implemented as simulator instrumentation (the paper uses the RTL
// injector here; the corruption semantics per site mirror the
// micro-benchmark model, applied to every dynamic instruction).
type tmxmHook struct {
	site  Site
	saved [isa.WarpSize]uint32
	reg   uint8
	armed bool
	lanes uint32 // lanes corrupted by the current Before (to restore)
}

// slotOf maps a running warp to its warp-state-table slot. Successive CTAs
// reuse the table round-robin, so a long launch exercises every entry —
// the "higher strain on the scheduler" that makes the paper's t-MxM
// scheduler AVF exceed the pipeline's, unlike the 2-warp micro-benchmarks.
func slotOf(w *gpu.Warp) int {
	cta := w.CTA.X + 2*w.CTA.Y
	return (w.IDInSM + 2*cta) % SchedSlots
}

// Memoryless implements gpu.MemorylessHook: a stuck-at fault acts alike
// on every issue, and the saved operands live only from Before to After.
func (*tmxmHook) Memoryless() bool { return true }

func (h *tmxmHook) Before(ctx *gpu.InstrCtx) {
	h.armed = false
	s := h.site
	in := ctx.Instr
	switch s.Stage {
	case StMaskGroup:
		// A warp-state thread-group enable stuck at 0: the whole group of
		// 8 lanes stops committing in the affected warp slot.
		if !s.Stuck && slotOf(ctx.W) == s.Lane {
			ctx.DisableMask |= 0xFF << (8 * (s.Bit % 4))
		}
	case StMaskBit:
		// Straggler thread-enable bit stuck at 0.
		if !s.Stuck && slotOf(ctx.W) == s.Lane {
			ctx.DisableMask |= 1 << ((s.Bit * 9) % isa.WarpSize)
		}
	case StPipeMask:
		// Pipeline execution-mask control: a stuck-0 starves two of the
		// four group phases of every warp flowing through (see micro.go).
		if !s.Stuck {
			g := s.Bit % 4
			ctx.DisableMask |= 0xFF<<(8*g) | 0xFF<<(8*((g+1)%4))
		}
	case StWarpState:
		// Wedged FSM: the warp stops committing (and so never exits).
		if s.Bit == 0 && !s.Stuck && slotOf(ctx.W) == s.Lane {
			ctx.DisableMask = 0xFFFFFFFF
		}
	case StMaskBus:
		// Shared mask readout path: stuck-0 suppresses commits for every
		// warp in the launch.
		if !s.Stuck {
			ctx.DisableMask = 0xFFFFFFFF
		}
	case StWarpSel:
		// Selection line stuck: one parity of warp slots is starved.
		if s.Bit == 0 {
			starved := 1
			if s.Stuck {
				starved = 0
			}
			if ctx.W.IDInSM%2 == starved {
				ctx.DisableMask = 0xFFFFFFFF
			}
		} else if s.Stuck {
			ctx.DisableMask = 0xFFFFFFFF // points past resident warps
		}
	case StPipeOp:
		forced, _ := forceBit(uint32(in.Op), s.Bit, s.Stuck)
		ctx.Instr.Op = isa.Opcode(forced)
	case StPipeOpA, StPipeOpB:
		// Latched operand registers feeding the FP datapath and the
		// store-data path (address generation has its own memory-control
		// field, StPipeMem). The A side is the operand distribution bus of
		// one group phase — in the tiled MxM every lane of a group shares
		// the same A element, so its corruption paints tile rows, the
		// paper's dominant pipeline pattern. The B side is the per-core
		// store-data latch (one thread slot per warp).
		var lanes []int
		var reg uint8
		if s.Stage == StPipeOpA {
			if in.Op.Unit() != isa.UnitFP32 || in.Op.SrcRegs() < 1 {
				return
			}
			reg = in.Rs1
			g := s.Lane % 4
			for l := 8 * g; l < 8*(g+1); l++ {
				lanes = append(lanes, l)
			}
		} else {
			if in.Op != isa.OpSTS {
				return
			}
			reg = in.Rs2
			lanes = []int{(s.Bit&3)*NumPipeLanes + s.Lane%NumPipeLanes}
		}
		if reg == isa.RZ {
			return
		}
		h.reg = reg
		for _, lane := range lanes {
			if ctx.Mask&(1<<lane) == 0 {
				continue
			}
			v := ctx.W.Reg(lane, reg)
			h.saved[lane] = v
			fv, _ := forceBit(v, s.Bit, s.Stuck)
			ctx.W.SetReg(lane, reg, fv)
			h.armed = true
			h.lanes |= 1 << lane
		}
	case StPipeMem:
		// Memory-control register: corrupt the address register of every
		// memory access.
		if !in.Op.IsMemory() {
			return
		}
		reg := in.Rs1
		if reg == isa.RZ {
			return
		}
		h.reg = reg
		for lane := 0; lane < isa.WarpSize; lane++ {
			if ctx.Mask&(1<<lane) == 0 {
				continue
			}
			v := ctx.W.Reg(lane, reg)
			h.saved[lane] = v
			fv, _ := forceBit(v, s.Bit%8, s.Stuck)
			ctx.W.SetReg(lane, reg, fv)
			h.armed = true
			h.lanes |= 1 << lane
		}
	}
}

func (h *tmxmHook) After(ctx *gpu.InstrCtx) {
	s := h.site
	switch s.Stage {
	case StPipeOpA, StPipeOpB, StPipeMem:
		if h.armed {
			for lane := 0; lane < isa.WarpSize; lane++ {
				if h.lanes&(1<<lane) != 0 {
					ctx.W.SetReg(lane, h.reg, h.saved[lane])
				}
			}
			h.armed = false
			h.lanes = 0
		}
	case StWarpPC, StPCBus:
		// Stuck PC bit: per-slot storage (StWarpPC) hits one warp slot;
		// the shared readout path (StPCBus) hits every warp.
		if s.Bit >= 4 {
			return
		}
		if s.Stage == StWarpPC && slotOf(ctx.W) != s.Lane {
			return
		}
		for lane := 0; lane < isa.WarpSize; lane++ {
			pc := uint32(ctx.W.PC[lane])
			fpc, _ := forceBit(pc, s.Bit, s.Stuck)
			ctx.W.SetPC(lane, int32(fpc))
		}
	}
}

// TMxMResult is one t-MxM injection outcome.
type TMxMResult struct {
	Outcome MicroOutcome
	Pattern PatternKind
	Elems   []int
	Pairs   []CorruptPair
}

// tileInputs builds the A and B matrices for a tile kind.
func tileInputs(kind TileKind, n int, rng *rand.Rand) (a, b []float32) {
	a = make([]float32, n*n)
	b = make([]float32, n*n)
	for i := range a {
		switch kind {
		case TileMax:
			a[i] = 2 + 2*rng.Float32()
			b[i] = 2 + 2*rng.Float32()
		case TileZero:
			if rng.Float32() < 0.8 {
				a[i] = 0
			} else {
				a[i] = rng.Float32()
			}
			if rng.Float32() < 0.8 {
				b[i] = 0
			} else {
				b[i] = rng.Float32()
			}
		default:
			a[i] = -2 + 4*rng.Float32()
			b[i] = -2 + 4*rng.Float32()
		}
	}
	return a, b
}

// TMxMSize is the matrix side of the mini-app (8x8 tiles over 16x16).
const TMxMSize = 16

func tmxmDeviceConfig() gpu.Config {
	cfg := gpu.DefaultConfig()
	cfg.MaxIssues = 100000
	return cfg
}

// RunTMxM executes the tiled MxM mini-app with one persistent scheduler or
// pipeline fault and classifies the output corruption. Observer hooks run
// on the faulty device after the fault's own hook.
func RunTMxM(site Site, kind TileKind, seed int64, observers ...gpu.Hook) TMxMResult {
	rng := rand.New(rand.NewSource(seed))
	a, b := tileInputs(kind, TMxMSize, rng)
	job := workloads.TiledMxMJob(a, b, TMxMSize)

	cfg := tmxmDeviceConfig()
	dev := gpu.NewDevice(cfg)
	golden, err := job.Run(dev)
	if err != nil || golden.Hung() {
		panic("rtlfi: golden t-MxM failed")
	}
	fdev := gpu.NewDevice(cfg)
	return runTMxMInjected(site, job, golden.Output, fdev, observers...)
}

// runTMxMInjected performs one faulty run against a prepared job/golden.
func runTMxMInjected(site Site, job *workloads.Job, golden []uint32, fdev *gpu.Device, observers ...gpu.Hook) TMxMResult {
	fdev.ClearHooks()
	fdev.AddHook(&tmxmHook{site: site})
	for _, h := range observers {
		fdev.AddHook(h)
	}
	rr, err := job.Run(fdev)
	if err != nil {
		panic(err)
	}
	if rr.Hung() {
		return TMxMResult{Outcome: MicroDUE}
	}
	elems := workloads.CorruptedElements(golden, rr.Output)
	res := TMxMResult{Elems: elems, Pattern: ClassifyPattern(elems, TMxMSize)}
	for _, e := range elems {
		res.Pairs = append(res.Pairs, CorruptPair{golden[e], rr.Output[e]})
	}
	switch len(elems) {
	case 0:
		res.Outcome = MicroMasked
	case 1:
		res.Outcome = MicroSDCSingle
	default:
		res.Outcome = MicroSDCMulti
	}
	return res
}

// TMxMRow is one bar group of Figure 6.
type TMxMRow struct {
	Module     Module
	Tile       TileKind
	Injections int
	SDCSingle  float64
	SDCMulti   float64
	DUE        float64
	Masked     float64
}

// TMxMStudy runs the Figure 6/7/8 + Table 2 campaign: every scheduler and
// pipeline site against every tile kind (valuesPerTile input draws each).
type TMxMStudy struct {
	Rows []TMxMRow
	// Patterns counts multi-corruption pattern kinds per module (Table 2).
	Patterns map[Module]map[PatternKind]int
	// Examples holds per-element corrupted pairs for one row-pattern and
	// one block-pattern event (Figure 8's variance exhibits).
	RowExample, BlockExample []CorruptPair
}

// TMxMConfig controls the t-MxM campaign size.
type TMxMConfig struct {
	Seed          int64
	ValuesPerTile int // input draws per tile kind (paper: 4)
	SiteStride    int // inject every k-th site (1 = exhaustive)
}

func (c TMxMConfig) withDefaults() TMxMConfig {
	if c.ValuesPerTile == 0 {
		c.ValuesPerTile = 2
	}
	if c.SiteStride == 0 {
		c.SiteStride = 1
	}
	return c
}

// RunTMxMStudy executes the campaign.
func RunTMxMStudy(cfg TMxMConfig) *TMxMStudy {
	cfg = cfg.withDefaults()
	st := &TMxMStudy{Patterns: map[Module]map[PatternKind]int{
		ModSched: {}, ModPipe: {},
	}}
	for _, mod := range []Module{ModSched, ModPipe} {
		all := SitesFor(mod, isa.OpFFMA)
		var sites []Site
		for i := 0; i < len(all); i += cfg.SiteStride {
			sites = append(sites, all[i])
		}
		dcfg := tmxmDeviceConfig()
		fdev := gpu.NewDevice(dcfg)
		gdev := gpu.NewDevice(dcfg)
		for _, kind := range TileKinds() {
			row := TMxMRow{Module: mod, Tile: kind}
			for v := 0; v < cfg.ValuesPerTile; v++ {
				seed := cfg.Seed ^ int64(v)<<20 ^ int64(kind)<<28
				rng := rand.New(rand.NewSource(seed))
				a, b := tileInputs(kind, TMxMSize, rng)
				job := workloads.TiledMxMJob(a, b, TMxMSize)
				golden, err := job.Run(gdev)
				if err != nil || golden.Hung() {
					panic("rtlfi: golden t-MxM failed")
				}
				for _, site := range sites {
					res := runTMxMInjected(site, job, golden.Output, fdev)
					row.Injections++
					switch res.Outcome {
					case MicroMasked:
						row.Masked++
					case MicroSDCSingle:
						row.SDCSingle++
					case MicroSDCMulti:
						row.SDCMulti++
						st.Patterns[mod][res.Pattern]++
						if res.Pattern == PatRow && st.RowExample == nil {
							st.RowExample = res.Pairs
						}
						if res.Pattern == PatBlock && st.BlockExample == nil {
							st.BlockExample = res.Pairs
						}
					case MicroDUE:
						row.DUE++
					}
				}
			}
			n := float64(row.Injections)
			row.SDCSingle /= n
			row.SDCMulti /= n
			row.DUE /= n
			row.Masked /= n
			st.Rows = append(st.Rows, row)
		}
	}
	return st
}
