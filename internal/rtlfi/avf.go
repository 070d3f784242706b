package rtlfi

import (
	"math"
	"math/rand"

	"gpufaultsim/internal/isa"
)

// MicroInstructions are the 12 SASS instructions characterized by the
// paper's micro-benchmarks (Figure 2).
func MicroInstructions() []isa.Opcode {
	return []isa.Opcode{
		isa.OpFADD, isa.OpFMUL, isa.OpFFMA,
		isa.OpIADD, isa.OpIMUL, isa.OpIMAD,
		isa.OpFSIN, isa.OpFEXP,
		isa.OpGLD, isa.OpGST, isa.OpBRA, isa.OpISETP,
	}
}

// ModulesFor returns the modules injected for an instruction: functional
// units are skipped for memory and control-flow instructions (they sit
// idle), exactly as in the paper.
func ModulesFor(op isa.Opcode) []Module {
	switch op.Unit() {
	case isa.UnitFP32:
		return []Module{ModFP32, ModSched, ModPipe}
	case isa.UnitINT:
		return []Module{ModINT, ModSched, ModPipe}
	case isa.UnitSFU:
		return []Module{ModSFU, ModSched, ModPipe}
	default:
		return []Module{ModSched, ModPipe}
	}
}

// AVFRow is one (instruction, module) bar group of Figure 2, averaged over
// the S/M/L input ranges.
type AVFRow struct {
	Op     isa.Opcode
	Module Module

	Injections int
	SDCSingle  float64 // fraction of injections
	SDCMulti   float64
	DUE        float64
	Masked     float64

	// AvgCorruptedThreads is the mean number of corrupted threads per warp
	// among SDC outcomes (the paper: 1 for INT/FP32, ~8 SFU, ~28
	// scheduler, ~18 pipeline).
	AvgCorruptedThreads float64
}

// AVF returns the total architectural vulnerability (SDC+DUE fraction).
func (r AVFRow) AVF() float64 { return r.SDCSingle + r.SDCMulti + r.DUE }

// Config controls a micro-benchmark campaign.
type MicroConfig struct {
	Seed           int64
	ValuesPerRange int // value sets sampled per input range (paper: 4)
	LanesSampled   int // FU/pipe lanes sampled per site structure (0 = 4)
}

func (c MicroConfig) withDefaults() MicroConfig {
	if c.ValuesPerRange == 0 {
		c.ValuesPerRange = 4
	}
	if c.LanesSampled == 0 {
		c.LanesSampled = 4
	}
	return c
}

// MicroAVF runs the full stuck-at site list of one module against one
// instruction over all input ranges and value sets. It returns the AVF row
// and the corrupted-value pairs observed (the raw material of the fault
// syndrome analysis, Figures 4-5).
func MicroAVF(op isa.Opcode, m Module, cfg MicroConfig) (AVFRow, []CorruptPair) {
	cfg = cfg.withDefaults()
	row := AVFRow{Op: op, Module: m}
	var pairs []CorruptPair
	var sdcEvents, corrThreads int
	microSweep(op, m, Ranges(), cfg, func(res MicroResult) {
		row.Injections++
		switch res.Outcome {
		case MicroMasked:
			row.Masked++
		case MicroSDCSingle:
			row.SDCSingle++
		case MicroSDCMulti:
			row.SDCMulti++
		case MicroDUE:
			row.DUE++
		}
		if res.Outcome == MicroSDCSingle || res.Outcome == MicroSDCMulti {
			sdcEvents++
			corrThreads += res.CorruptedPerWarp
			pairs = append(pairs, res.Corrupted...)
		}
	})
	n := float64(row.Injections)
	row.SDCSingle /= n
	row.SDCMulti /= n
	row.DUE /= n
	row.Masked /= n
	if sdcEvents > 0 {
		row.AvgCorruptedThreads = float64(corrThreads) / float64(sdcEvents)
	}
	return row, pairs
}

// microSweep runs every stuck-at site of module m against op, over
// cfg.ValuesPerRange value sets of each input range, and passes each
// outcome to visit. Per-lane structures are replicated over sampled
// lanes; the scheduler's Lane field is a warp slot assigned by the site
// list itself and is not resampled. A value set's operands depend on the
// range, the value set and the sampled lane but not on the site, so they
// are drawn once and shared by every site.
func microSweep(op isa.Opcode, m Module, ranges []InputRange, cfg MicroConfig, visit func(MicroResult)) {
	sites := SitesFor(m, op)
	operands := make([][3][nThreads]uint32, max(cfg.LanesSampled, 1))
	for _, rg := range ranges {
		for v := 0; v < cfg.ValuesPerRange; v++ {
			seed := cfg.Seed ^ int64(op)<<8 ^ int64(m)<<16 ^ int64(rg)<<24 ^ int64(v)<<32
			for l := range operands {
				rng := rand.New(rand.NewSource(seed ^ int64(l)<<40))
				o := &operands[l]
				o[0], o[1], o[2] = microInputs(op, rg, rng)
			}
			for _, site := range sites {
				lanes := 1
				sampled := m == ModFP32 || m == ModINT || m == ModSFU ||
					site.Stage == StPipeOpA || site.Stage == StPipeOpB
				if sampled {
					lanes = cfg.LanesSampled
				}
				for l := 0; l < lanes; l++ {
					s := site
					if sampled {
						s.Lane = l * 7 % NumFULanes // spread sampled lanes
					}
					o := &operands[l]
					visit(runMicro(op, s, o[0], o[1], o[2]))
				}
			}
		}
	}
}

// Figure2 computes the complete Figure 2 dataset: one AVFRow per
// (instruction, module) combination, plus the per-combination syndrome
// pairs keyed the same way.
func Figure2(cfg MicroConfig) ([]AVFRow, map[[2]int][]CorruptPair) {
	var rows []AVFRow
	syn := make(map[[2]int][]CorruptPair)
	for _, op := range MicroInstructions() {
		for _, m := range ModulesFor(op) {
			row, pairs := MicroAVF(op, m, cfg)
			rows = append(rows, row)
			syn[[2]int{int(op), int(m)}] = pairs
		}
	}
	return rows, syn
}

// RelativeErrors converts corrupted pairs to |faulty-golden|/|golden|
// relative errors, interpreting values as float32 for FP instructions and
// as signed integers otherwise. Non-finite and undefined ratios are
// dropped, as in the paper's syndrome plots.
func RelativeErrors(pairs []CorruptPair, fp bool) []float64 {
	var out []float64
	for _, p := range pairs {
		var g, f float64
		if fp {
			g = float64(math.Float32frombits(p.Golden))
			f = float64(math.Float32frombits(p.Faulty))
		} else {
			g = float64(int32(p.Golden))
			f = float64(int32(p.Faulty))
		}
		if g == 0 || math.IsNaN(g) || math.IsNaN(f) || math.IsInf(g, 0) || math.IsInf(f, 0) {
			continue
		}
		re := math.Abs(f-g) / math.Abs(g)
		if re == 0 || math.IsInf(re, 0) || math.IsNaN(re) {
			continue
		}
		out = append(out, re)
	}
	return out
}

// MicroSyndrome runs one module's site list against one instruction for a
// single input range and returns the corrupted pairs — the per-range
// panels of Figures 4-5. (MicroAVF merges the ranges; the paper's median
// analysis needs them apart.)
func MicroSyndrome(op isa.Opcode, m Module, rg InputRange, cfg MicroConfig) []CorruptPair {
	var pairs []CorruptPair
	microSweep(op, m, []InputRange{rg}, cfg.withDefaults(), func(res MicroResult) {
		if res.Outcome == MicroSDCSingle || res.Outcome == MicroSDCMulti {
			pairs = append(pairs, res.Corrupted...)
		}
	})
	return pairs
}
