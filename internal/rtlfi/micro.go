package rtlfi

import (
	"math"
	"math/rand"

	"gpufaultsim/internal/isa"
)

// InputRange selects the paper's pre-defined operand magnitudes.
type InputRange int

const (
	RangeS InputRange = iota // small operands
	RangeM                   // medium operands
	RangeL                   // large operands
)

var rangeNames = [...]string{"S", "M", "L"}

func (r InputRange) String() string { return rangeNames[r] }

// Ranges lists S, M, L.
func Ranges() []InputRange { return []InputRange{RangeS, RangeM, RangeL} }

// MicroOutcome classifies one injection on the micro-benchmark.
type MicroOutcome int

const (
	MicroMasked MicroOutcome = iota
	MicroSDCSingle
	MicroSDCMulti
	MicroDUE
)

var microNames = [...]string{"Masked", "SDC-single", "SDC-multi", "DUE"}

func (o MicroOutcome) String() string { return microNames[o] }

// CorruptPair is one corrupted output element (for syndrome analysis).
type CorruptPair struct{ Golden, Faulty uint32 }

// MicroResult is the outcome of one injection run.
type MicroResult struct {
	Outcome   MicroOutcome
	Corrupted []CorruptPair
	// CorruptedPerWarp is the count of corrupted threads in the worst warp.
	CorruptedPerWarp int
}

// nThreads is the micro-benchmark's thread count: 64 threads, two warps,
// as in the paper.
const nThreads = 2 * isa.WarpSize

// microInputs generates the per-thread operand values for an opcode and
// range (the paper samples 4 random value sets per range).
func microInputs(op isa.Opcode, r InputRange, rng *rand.Rand) (a, b, c [nThreads]uint32) {
	fp := func(lo, hi float64) uint32 {
		return math.Float32bits(float32(lo + (hi-lo)*rng.Float64()))
	}
	in := func(lo, hi int64) uint32 {
		return uint32(lo + rng.Int63n(hi-lo))
	}
	for t := 0; t < nThreads; t++ {
		switch op.Unit() {
		case isa.UnitSFU:
			// Operational constraint of the SFU: inputs in [0, π/2].
			a[t] = fp(0, math.Pi/2)
		case isa.UnitFP32:
			switch r {
			case RangeS:
				a[t], b[t], c[t] = fp(6.8e-6, 7.3e-6), fp(6.8e-6, 7.3e-6), fp(6.8e-6, 7.3e-6)
			case RangeM:
				a[t], b[t], c[t] = fp(1.8, 59.4), fp(1.8, 59.4), fp(1.8, 59.4)
			default:
				a[t], b[t], c[t] = fp(3.8e9, 12.5e9), fp(3.8e9, 12.5e9), fp(3.8e9, 12.5e9)
			}
		default: // integer benches use magnitude-matched integer ranges
			switch r {
			case RangeS:
				a[t], b[t], c[t] = in(1, 128), in(1, 128), in(1, 128)
			case RangeM:
				a[t], b[t], c[t] = in(1<<10, 1<<17), in(1<<10, 1<<17), in(1<<10, 1<<17)
			default:
				a[t], b[t], c[t] = in(1<<27, 1<<30), in(1<<27, 1<<30), in(1<<27, 1<<30)
			}
		}
	}
	return a, b, c
}

// classify builds a MicroResult from per-thread golden/faulty outputs.
func classify(golden, faulty *[nThreads]uint32, due bool) MicroResult {
	if due {
		return MicroResult{Outcome: MicroDUE}
	}
	res := MicroResult{}
	warpCount := [2]int{}
	for t := 0; t < nThreads; t++ {
		if golden[t] != faulty[t] {
			res.Corrupted = append(res.Corrupted, CorruptPair{golden[t], faulty[t]})
			warpCount[t/isa.WarpSize]++
		}
	}
	res.CorruptedPerWarp = max(warpCount[0], warpCount[1])
	switch len(res.Corrupted) {
	case 0:
		res.Outcome = MicroMasked
	case 1:
		res.Outcome = MicroSDCSingle
	default:
		res.Outcome = MicroSDCMulti
	}
	return res
}

// isArith reports whether the micro-benchmark computes through an
// arithmetic unit (vs memory/control-flow).
func isArith(op isa.Opcode) bool {
	switch op.Unit() {
	case isa.UnitFP32, isa.UnitINT, isa.UnitSFU:
		return true
	}
	return false
}

// RunMicro executes the 64-thread single-instruction micro-benchmark with
// one injected fault and classifies the outcome.
//
// The micro-benchmark's conceptual program occupies PCs 0..15 with the
// measured instruction in the middle, a 256-word address space with the
// data arrays at [16, 16+64), and all 64 threads active — matching the
// paper's setup of two full warps with no thread interaction.
func RunMicro(op isa.Opcode, r InputRange, site Site, rng *rand.Rand) MicroResult {
	a, b, c := microInputs(op, r, rng)
	return runMicro(op, site, a, b, c)
}

// runMicro is RunMicro on operands already drawn.
func runMicro(op isa.Opcode, site Site, a, b, c [nThreads]uint32) MicroResult {
	if op == isa.OpGLD || op == isa.OpGST {
		// Operand A is the base pointer of the data array.
		for t := range a {
			a[t] = memBase
		}
	}
	var golden, faulty [nThreads]uint32
	for t := 0; t < nThreads; t++ {
		golden[t] = goldenOutput(op, a[t], b[t], c[t], t)
		faulty[t] = golden[t]
	}

	switch site.Module {
	case ModFP32, ModINT, ModSFU:
		return runFUFault(op, site, &a, &b, &c, &golden, &faulty)
	case ModPipe:
		return runPipeFault(op, site, &a, &b, &c, &golden, &faulty)
	case ModSched:
		return runSchedFault(site, &golden, &faulty)
	}
	return MicroResult{Outcome: MicroMasked}
}

// goldenOutput is the expected output of thread t.
func goldenOutput(op isa.Opcode, a, b, c uint32, t int) uint32 {
	switch op {
	case isa.OpGLD:
		return memValue(t) // out[t] = mem[base+t]
	case isa.OpGST:
		return b // mem cell base+t receives the data register b[t]
	case isa.OpBRA:
		if int32(a) < int32(b) {
			return 1
		}
		return 2
	case isa.OpISETP:
		if int32(a) < int32(b) {
			return 1
		}
		return 0
	default:
		return Golden(op, a, b, c)
	}
}

// memValue is the deterministic content of the micro-benchmark's data
// array (distinct per cell so wrong-address reads always differ).
func memValue(i int) uint32 { return uint32(0xA5A50000) | uint32(i) }

const (
	memBase = 16
	memSpan = 256 // address space words
	progLen = 16  // conceptual program length
)

func runFUFault(op isa.Opcode, site Site, a, b, c, golden, faulty *[nThreads]uint32) MicroResult {
	if !isArith(op) {
		// FUs are idle for memory and control-flow instructions; the
		// paper does not inject them there.
		return MicroResult{Outcome: MicroMasked}
	}
	for t := 0; t < nThreads; t++ {
		var hit bool
		if site.Module == ModSFU {
			hit = t%NumSFUs == site.Lane%NumSFUs // shared SFU serves half the lanes
		} else {
			hit = t%NumFULanes == site.Lane%NumFULanes // dedicated core per lane
		}
		if !hit {
			continue
		}
		out, act := ComputeFaulty(op, a[t], b[t], c[t], site)
		if act {
			faulty[t] = out
		}
	}
	return classify(golden, faulty, false)
}

func runPipeFault(op isa.Opcode, site Site, a, b, c, golden, faulty *[nThreads]uint32) MicroResult {
	switch site.Stage {
	case StPipeOpA, StPipeOpB:
		// Latched operand registers. The A side is the operand
		// distribution bus serving a whole 8-lane group phase (so its
		// faults touch up to 8 threads per warp); the B side is the
		// per-core input latch sampled by one thread slot per warp. The
		// mix reproduces the paper's ~18 corrupted threads per warp
		// averaged over pipeline SDC events.
		hit := func(t int) bool {
			if site.Stage == StPipeOpA {
				return t%isa.WarpSize/NumPipeLanes == site.Lane%4
			}
			slot := (site.Bit&3)*NumPipeLanes + site.Lane%NumPipeLanes
			return t%isa.WarpSize == slot
		}
		for t := 0; t < nThreads; t++ {
			if !hit(t) {
				continue
			}
			av, bv := a[t], b[t]
			var act bool
			if site.Stage == StPipeOpA {
				av, act = forceBit(av, site.Bit, site.Stuck)
			} else {
				bv, act = forceBit(bv, site.Bit, site.Stuck)
			}
			if !act {
				continue
			}
			switch op {
			case isa.OpGLD, isa.OpGST:
				if site.Stage == StPipeOpA {
					// Corrupted base pointer: the access lands elsewhere.
					addr := int64(av) + int64(t)
					if addr < 0 || addr >= memSpan {
						return MicroResult{Outcome: MicroDUE}
					}
					faulty[t] = 0 // wrong cell: load garbage / store astray
				} else if op == isa.OpGST {
					faulty[t] = bv // corrupted data register reaches memory
				}
				// A data-register fault on GLD's unused operand B: masked.
			case isa.OpBRA, isa.OpISETP:
				taken := int32(av) < int32(bv)
				if op == isa.OpBRA {
					if taken {
						faulty[t] = 1
					} else {
						faulty[t] = 2
					}
				} else if taken {
					faulty[t] = 1
				} else {
					faulty[t] = 0
				}
			default:
				faulty[t] = Golden(op, av, bv, c[t])
			}
		}
		return classify(golden, faulty, false)

	case StPipeOp:
		// Latched opcode field: the whole slot executes a different (or
		// undefined) instruction.
		forced, act := forceBit(uint32(op), site.Bit, site.Stuck)
		if !act {
			return MicroResult{Outcome: MicroMasked}
		}
		nop := isa.Opcode(forced)
		if !nop.Valid() {
			return MicroResult{Outcome: MicroDUE}
		}
		for t := 0; t < nThreads; t++ {
			if isArith(op) && isArith(nop) {
				faulty[t] = Golden(nop, a[t], b[t], c[t])
			} else {
				faulty[t] = 0 // the intended result is never produced
			}
		}
		return classify(golden, faulty, false)

	case StPipeMask:
		// Latched execution-mask control: these signals are not refreshed
		// until a new warp dispatches, so a stuck-0 starves two of the
		// four 8-thread group phases of every warp (the paper: control
		// corruption "affects, on the average, two of the four groups of
		// 8 threads in a warp"). Stuck-1 is masked with all threads
		// already active.
		if site.Stuck {
			return MicroResult{Outcome: MicroMasked}
		}
		g := site.Bit % 4
		for w := 0; w < 2; w++ {
			for _, gg := range [2]int{g, (g + 1) % 4} {
				for t := 8 * gg; t < 8*(gg+1); t++ {
					faulty[w*isa.WarpSize+t] = 0
				}
			}
		}
		return classify(golden, faulty, false)

	case StPipeMem:
		// Latched memory/branch control field.
		switch op {
		case isa.OpGLD, isa.OpGST:
			// Address field corruption: high bits leave the address space.
			if site.Bit >= 8 {
				if site.Stuck {
					return MicroResult{Outcome: MicroDUE}
				}
				return MicroResult{Outcome: MicroMasked}
			}
			for t := 0; t < nThreads; t++ {
				addr := uint32(memBase + t)
				forced, act := forceBit(addr, site.Bit, site.Stuck)
				if !act {
					continue
				}
				if forced >= memSpan {
					return MicroResult{Outcome: MicroDUE}
				}
				if op == isa.OpGLD {
					faulty[t] = 0
				} else {
					faulty[t] = 0 // the intended cell never receives the store
				}
			}
			return classify(golden, faulty, false)
		case isa.OpBRA:
			// Branch-target field corruption: the redirect leaves the
			// program.
			target := uint32(progLen / 2)
			forced, act := forceBit(target, site.Bit%8, site.Stuck)
			if act && forced >= progLen {
				return MicroResult{Outcome: MicroDUE}
			}
			if act {
				for t := 0; t < nThreads; t++ {
					faulty[t] = 0 // wrong join point: outputs never written
				}
			}
			return classify(golden, faulty, false)
		default:
			return MicroResult{Outcome: MicroMasked}
		}
	}
	return MicroResult{Outcome: MicroMasked}
}

func runSchedFault(site Site, golden, faulty *[nThreads]uint32) MicroResult {
	// Warp-state table entries for slots the benchmark does not occupy
	// are never exercised: those faults stay silent, which is what keeps
	// the scheduler's AVF below the functional units'.
	slot := site.Lane
	global := site.Stage == StWarpSel || site.Stage == StPCBus ||
		site.Stage == StMaskBus
	if !global && slot >= schedLiveSlots {
		return MicroResult{Outcome: MicroMasked}
	}
	base := (slot % schedLiveSlots) * isa.WarpSize

	switch site.Stage {
	case StMaskGroup:
		// Thread-group enable (8 lanes): stuck-0 drops the whole group —
		// the dominant multi-thread SDC source the paper traces to "warp
		// state bits disabling active threads".
		if site.Stuck {
			return MicroResult{Outcome: MicroMasked}
		}
		g := site.Bit % 4
		for t := 8 * g; t < 8*(g+1); t++ {
			faulty[base+t] = 0
		}
		return classify(golden, faulty, false)

	case StMaskBit:
		// Straggler thread enable: stuck-0 drops one thread.
		if site.Stuck {
			return MicroResult{Outcome: MicroMasked}
		}
		faulty[base+(site.Bit*9)%isa.WarpSize] = 0
		return classify(golden, faulty, false)

	case StWarpPC:
		// The warp's PC register. Low bits keep the PC inside the
		// program: the warp executes a wrong instruction stream and
		// produces none of its outputs. The upper bits of the implemented
		// counter never leave zero for the micro-benchmark's footprint.
		if site.Bit >= 4 {
			return MicroResult{Outcome: MicroMasked}
		}
		for t := 0; t < isa.WarpSize; t++ {
			faulty[base+t] = 0
		}
		return classify(golden, faulty, false)

	case StWarpState:
		// FSM bits: redundant encodings mask most faults; a stuck-0 on
		// the live state bit wedges the warp (the paper's scheduler DUEs:
		// "faults affecting structures devoted to store the state of the
		// warp").
		if site.Bit == 0 && !site.Stuck {
			return MicroResult{Outcome: MicroDUE}
		}
		return MicroResult{Outcome: MicroMasked}

	case StPCBus:
		// Shared PC readout/update path: every warp fetches from a wrong
		// stream, so no benchmark output is ever produced. The upper bus
		// bits never leave zero for the benchmark's footprint.
		if site.Bit >= 4 {
			return MicroResult{Outcome: MicroMasked}
		}
		for t := 0; t < nThreads; t++ {
			faulty[t] = 0
		}
		return classify(golden, faulty, false)

	case StMaskBus:
		// Shared mask readout path: stuck-0 suppresses commits for every
		// warp that passes through; stuck-1 is masked with full masks.
		if site.Stuck {
			return MicroResult{Outcome: MicroMasked}
		}
		for t := 0; t < nThreads; t++ {
			faulty[t] = 0
		}
		return classify(golden, faulty, false)

	case StWarpSel:
		// Warp-selection lines over the two resident warps.
		if site.Bit == 0 {
			// The stuck polarity starves one of the two warps.
			w := 1
			if site.Stuck {
				w = 0
			}
			for t := 0; t < isa.WarpSize; t++ {
				faulty[w*isa.WarpSize+t] = 0
			}
			return classify(golden, faulty, false)
		}
		if site.Stuck {
			// A wrong slot is dispatched in place of warp 1: its outputs
			// never appear.
			for t := 0; t < isa.WarpSize; t++ {
				faulty[isa.WarpSize+t] = 0
			}
			return classify(golden, faulty, false)
		}
		return MicroResult{Outcome: MicroMasked}
	}
	return MicroResult{Outcome: MicroMasked}
}
