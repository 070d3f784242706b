package gpu

import (
	"math/rand"
	"testing"

	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/kasm"
)

// TestArbitraryProgramsAlwaysTerminate is the simulator's core robustness
// property: ANY program — including garbage instruction words — either
// completes or traps; it never panics and never runs past the watchdog.
// Fault injection depends on this: corrupted opcodes, registers and
// control flow must land in the DUE taxonomy, not crash the harness.
func TestArbitraryProgramsAlwaysTerminate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := DefaultConfig()
	cfg.MaxIssues = 20000
	dev := NewDevice(cfg)

	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(24)
		code := make([]isa.Word, n)
		for i := range code {
			switch rng.Intn(3) {
			case 0:
				// Fully random word.
				code[i] = isa.Word(rng.Uint64())
			case 1:
				// Random valid-opcode instruction with bounded fields.
				in := isa.Instruction{
					Op:    isa.Opcode(rng.Intn(isa.Count())),
					Pred:  uint8(rng.Intn(16)),
					Rd:    uint8(rng.Intn(isa.RegsPerThread)),
					Rs1:   uint8(rng.Intn(isa.RegsPerThread)),
					Rs2:   uint8(rng.Intn(isa.RegsPerThread)),
					Rs3:   uint8(rng.Intn(isa.RegsPerThread)),
					Imm:   uint16(rng.Intn(n * 2)), // branches near the program
					Flags: uint8(rng.Intn(16)),
				}
				code[i] = in.Encode()
			default:
				code[i] = isa.Instruction{Op: isa.OpEXIT, Pred: isa.PT}.Encode()
			}
		}
		prog := &kasm.Program{Name: "fuzz", Code: code}
		res, err := dev.Launch(prog, LaunchConfig{
			Grid: Dim3{X: 1 + rng.Intn(2)}, Block: Dim3{X: 1 + rng.Intn(64)},
			Params:      []uint32{1, 2, 3, 4},
			SharedWords: 16,
		})
		if err != nil {
			t.Fatalf("trial %d: launch error: %v", trial, err)
		}
		if res.Issues > cfg.MaxIssues {
			t.Fatalf("trial %d: issues %d exceed watchdog %d", trial, res.Issues, cfg.MaxIssues)
		}
	}
}

// TestHooksCannotBreakTermination: arbitrary register/predicate/mask
// mutations from hooks must preserve the terminate-or-trap property.
func TestHooksCannotBreakTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultConfig()
	cfg.MaxIssues = 50000
	dev := NewDevice(cfg)
	dev.AddHook(HookFuncs{
		BeforeFn: func(ctx *InstrCtx) {
			switch rng.Intn(5) {
			case 0:
				ctx.Instr.Rd = uint8(rng.Intn(isa.RegsPerThread))
			case 1:
				lane := rng.Intn(isa.WarpSize)
				ctx.W.SetReg(lane, uint8(rng.Intn(isa.RegsPerThread)), rng.Uint32())
			case 2:
				ctx.DisableMask = rng.Uint32()
			case 3:
				lane := rng.Intn(isa.WarpSize)
				ctx.W.SetPred(lane, rng.Intn(7), rng.Intn(2) == 0)
			}
		},
	})

	b := kasm.New("victim")
	b.GlobalThreadIdX(0, 1)
	b.MOVI(1, 8)
	b.MOVI(2, 0)
	b.Label("loop")
	b.IADD(2, 2, 0)
	b.MOVI(3, 1)
	b.IADD(0, 0, 3)
	b.LoopLT(0, 0, 1, "loop")
	b.MOVI(4, 0)
	b.GST(4, 0, 2)
	b.EXIT()
	prog := b.MustBuild()

	for trial := 0; trial < 50; trial++ {
		res, err := dev.Launch(prog, LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 64}})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_ = res
	}
}

// TestGarbageRegisterInitIsDeterministic: the register file's synthetic
// garbage must be a pure function of (sm, cta, warp) so campaigns stay
// reproducible.
func TestGarbageRegisterInitIsDeterministic(t *testing.T) {
	read := func() uint32 {
		dev := NewDevice(DefaultConfig())
		var got uint32
		dev.AddHook(HookFuncs{BeforeFn: func(ctx *InstrCtx) {
			if ctx.PC == 0 {
				got = ctx.W.Reg(3, 40) // a register no kernel wrote
			}
		}})
		b := kasm.New("probe")
		b.NOP()
		b.EXIT()
		if _, err := dev.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 32}}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	v1, v2 := read(), read()
	if v1 != v2 {
		t.Fatalf("garbage init differs across runs: %#x vs %#x", v1, v2)
	}
	if v1 == 0 {
		t.Fatal("uninitialized register reads zero; hardware registers hold garbage")
	}
}

// TestGarbageRegisterInitMatchesLCG pins the garbage to its definition:
// register r of lane l in warp w of CTA (x, y) on SM s is draw
// l*RegsPerThread+r+1 of the LCG seeded w<<40 ^ x<<20 ^ y<<10 ^ s.
// Injected register-addressing errors read these values, so recorded
// campaign outcomes depend on them exactly.
func TestGarbageRegisterInitMatchesLCG(t *testing.T) {
	dev := NewDevice(DefaultConfig())
	warps := 0
	dev.AddHook(HookFuncs{BeforeFn: func(ctx *InstrCtx) {
		if ctx.PC != 0 {
			return
		}
		w := ctx.W
		warps++
		seed := uint64(w.IDInSM)<<40 ^ uint64(w.CTA.X)<<20 ^ uint64(w.CTA.Y)<<10 ^ uint64(w.SM)
		for lane := 0; lane < isa.WarpSize; lane++ {
			for r := 0; r < isa.RegsPerThread; r++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				if got, want := w.Reg(lane, uint8(r)), uint32(seed>>33); got != want && !t.Failed() {
					t.Errorf("warp %d cta %v lane %d R%d = %#x, want %#x", w.IDInSM, w.CTA, lane, r, got, want)
				}
			}
		}
	}})
	b := kasm.New("probe")
	b.NOP()
	b.EXIT()
	if _, err := dev.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 3, Y: 2}, Block: Dim3{X: 96}}); err != nil {
		t.Fatal(err)
	}
	if warps != 3*2*3 {
		t.Fatalf("checked %d warps, want 18", warps)
	}
}

// TestWorkloadsNeverReadGarbage: every workload's golden output must be
// independent of the register-file garbage (i.e. kernels only read what
// they wrote). This guards against uninitialized-register bugs in kernels.
func TestDeviceIsReusableAcrossLaunches(t *testing.T) {
	dev := NewDevice(DefaultConfig())
	b := kasm.New("inc")
	b.MOVI(0, 0)
	b.GLD(1, 0, 0)
	b.MOVI(2, 1)
	b.IADD(1, 1, 2)
	b.GST(0, 0, 1)
	b.EXIT()
	prog := b.MustBuild()
	for i := 1; i <= 5; i++ {
		res, err := dev.Launch(prog, LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 1}})
		if err != nil || res.Hung() {
			t.Fatalf("launch %d failed: %v %v", i, err, res)
		}
		if dev.Global[0] != uint32(i) {
			t.Fatalf("after %d launches counter = %d", i, dev.Global[0])
		}
	}
}
