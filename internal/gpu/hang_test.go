package gpu

import (
	"slices"
	"testing"

	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/kasm"
)

// runBothWays launches prog on two fresh devices: one where the hang
// fast-forward may engage (no hook, or hook, which must be memoryless),
// and one where hook sits behind a HookFuncs wrapper, which does not opt
// in, so every issue is simulated. It fails t unless the two agree on the
// Result, Skipped aside, and on global memory, and returns the fast
// side's Result.
func runBothWays(t testing.TB, cfg Config, prog *kasm.Program, lc LaunchConfig, hook Hook) Result {
	t.Helper()
	fast, full := NewDevice(cfg), NewDevice(cfg)
	if hook != nil {
		fast.AddHook(hook)
		full.AddHook(HookFuncs{BeforeFn: hook.Before, AfterFn: hook.After})
	} else {
		full.AddHook(HookFuncs{})
	}
	want, err := full.Launch(prog, lc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fast.Launch(prog, lc)
	if err != nil {
		t.Fatal(err)
	}
	if want.Skipped != 0 {
		t.Fatalf("full path skipped %d issues behind a hook that did not opt in", want.Skipped)
	}
	ff := got
	ff.Skipped = 0
	if ff != want {
		t.Fatalf("fast-forwarded launch diverged (skipped %d)\nfast: %+v\nfull: %+v", got.Skipped, ff, want)
	}
	if !slices.Equal(fast.Global, full.Global) {
		t.Fatalf("fast-forwarded launch left different global memory (skipped %d)", got.Skipped)
	}
	return got
}

func hangConfig(maxIssues uint64) Config {
	cfg := DefaultConfig()
	cfg.GlobalMemWords = 256
	cfg.MaxIssues = maxIssues
	return cfg
}

// wantSkipped fails t unless the launch hung and the fast-forward took it.
func wantSkipped(t *testing.T, res Result) {
	t.Helper()
	if res.Trap != TrapWatchdog || res.Skipped == 0 {
		t.Fatalf("want a fast-forwarded watchdog trap, got %+v", res)
	}
}

func TestHangFastForwardSelfBranch(t *testing.T) {
	// Two warps of unequal width (32 and 8 lanes) spin in turn: only the
	// round-robin pointer tells the two halves of the period apart, and
	// ThreadOps grows by 32 and 8 alternately.
	b := kasm.New("spin")
	b.Label("L").BRA("L")
	res := runBothWays(t, hangConfig(100001), b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 40}}, nil)
	wantSkipped(t, res)
}

func TestHangFastForwardPeriodicStores(t *testing.T) {
	// i cycles through 0..7 while every lane stores it to global and
	// shared memory: a period of 8 iterations of both warps.
	b := kasm.New("periodic")
	b.S2R(0, isa.SRTidX)
	b.MOVI(1, 0).MOVI(2, 1).MOVI(3, 7)
	b.Label("L")
	b.IADD(1, 1, 2).IAND(1, 1, 3)
	b.IADD(4, 0, 1)
	b.GST(4, 0, 1)
	b.STS(4, 0, 1)
	b.BRA("L")
	lc := LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 64}, SharedWords: 128}
	res := runBothWays(t, hangConfig(50000), b.MustBuild(), lc, nil)
	wantSkipped(t, res)
}

func TestHangFastForwardSpinnerWithParkedPeers(t *testing.T) {
	// Warp 0 spins; warps 1 and 2 park at a barrier that never releases.
	b := kasm.New("spin-bar")
	b.S2R(0, isa.SRWarpID)
	b.ISETP(isa.CmpEQ, 0, 0, isa.RZ)
	b.P(0).BRA("spin")
	b.BAR().EXIT()
	b.Label("spin").BRA("spin")
	res := runBothWays(t, hangConfig(30000), b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 96}}, nil)
	wantSkipped(t, res)
}

func TestHangFastForwardPredicateParity(t *testing.T) {
	// P0 toggles every iteration and guards a NOP, so the registers repeat
	// every iteration but the state only every other one.
	b := kasm.New("parity")
	b.Label("L")
	b.PSETP(isa.CmpNE, 0, 0, isa.PT) // P0 ^= true
	b.P(0).NOP()
	b.BRA("L")
	res := runBothWays(t, hangConfig(100003), b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 32}}, nil)
	wantSkipped(t, res)
}

func TestHangFastForwardSecondCTA(t *testing.T) {
	// CTA 0 runs a bounded loop past the first checkpoint and exits; CTA 1
	// spins, so its detector must count from its own start.
	b := kasm.New("second-cta")
	b.S2R(0, isa.SRCtaidX)
	b.ISETP(isa.CmpNE, 0, 0, isa.RZ)
	b.P(0).BRA("spin")
	b.MOVI(1, 0).MOVI(2, 1).MOVI(3, 1500)
	b.Label("L").IADD(1, 1, 2)
	b.LoopLT(1, 1, 3, "L")
	b.EXIT()
	b.Label("spin").BRA("spin")
	res := runBothWays(t, hangConfig(40000), b.MustBuild(), LaunchConfig{Grid: Dim3{X: 2}, Block: Dim3{X: 32}}, nil)
	wantSkipped(t, res)
}

// memoryCounterLoop counts to n in word 0 of global or shared memory and
// then exits; every register and predicate repeats each iteration, so
// only memory tells the iterations apart.
func memoryCounterLoop(shared bool, n int) *kasm.Program {
	b := kasm.New("counter")
	b.MOVI(2, 1).MOVI(3, n)
	b.Label("L")
	if shared {
		b.LDS(1, isa.RZ, 0)
	} else {
		b.GLD(1, isa.RZ, 0)
	}
	b.IADD(1, 1, 2)
	if shared {
		b.STS(isa.RZ, 0, 1)
	} else {
		b.GST(isa.RZ, 0, 1)
	}
	b.ISETP(isa.CmpGE, 0, 1, 3)
	b.MOVI(1, 0)
	b.PNot(0).BRA("L")
	b.EXIT()
	return b.MustBuild()
}

func TestHangFastForwardMemoryCounterFinishes(t *testing.T) {
	for _, shared := range []bool{false, true} {
		lc := LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 32}, SharedWords: 16}
		res := runBothWays(t, hangConfig(1<<20), memoryCounterLoop(shared, 2000), lc, nil)
		if res.Trap != TrapNone || res.Skipped != 0 {
			t.Fatalf("shared=%v: counter loop must finish without a skip, got %+v", shared, res)
		}
	}
}

func TestHangFastForwardNeverRepeats(t *testing.T) {
	// A counter that never wraps within the budget: no state recurs, so
	// both paths simulate every issue up to the watchdog.
	b := kasm.New("count")
	b.MOVI(2, 1)
	b.Label("L").IADD(1, 1, 2).BRA("L")
	res := runBothWays(t, hangConfig(20000), b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 48}}, nil)
	if res.Trap != TrapWatchdog || res.Skipped != 0 {
		t.Fatalf("want an unskipped watchdog trap, got %+v", res)
	}
}

// laneGroupProgram splits a warp into lanes 0-7 (group A) and 8-31
// (group B). A runs pad NOPs and an n-iteration delay loop, then the
// code at label "a"; B starts at label "b". The two tails are arranged so
// that one step of the run changes only a lane mask (Exited or Barrier).
func laneGroupProgram(pad, n int, tails func(b *kasm.Builder)) *kasm.Program {
	b := kasm.New("lane-groups")
	b.S2R(0, isa.SRTidX).MOVI(1, 8)
	b.ISETP(isa.CmpLT, 0, 0, 1) // P0: group A
	b.MOVI(2, 0).MOVI(3, 1).MOVI(4, n)
	for i := 0; i < pad; i++ {
		b.NOP()
	}
	b.PNot(0).BRA("b")
	b.Label("delay").IADD(2, 2, 3)
	b.LoopLT(1, 2, 4, "delay")
	b.BRA("a")
	tails(b)
	return b.MustBuild()
}

// TestHangFastForwardLaneMasks runs two kernels in which, at one step,
// only a lane mask changes: group A's EXIT, and a barrier release after
// which group B parks again at the same PC. The delay loop is swept so
// that the step lands on a snapshot; a detector that ignored Exited or
// Barrier would take the next step for a period-1 or period-5 cycle and
// skip a run that in fact finishes.
func TestHangFastForwardLaneMasks(t *testing.T) {
	exit := func(b *kasm.Builder) {
		b.Label("a").EXIT()
		b.Label("b").EXIT()
	}
	barrier := func(b *kasm.Builder) {
		// B polls a shared flag between barriers; A parks once, then
		// raises the flag and exits.
		b.Label("b").LDS(5, isa.RZ, 0)
		b.ISETP(isa.CmpNE, 2, 5, isa.RZ)
		b.P(2).EXIT()
		b.BAR().BRA("b")
		b.Label("a").BAR()
		b.STS(isa.RZ, 0, 3)
		b.EXIT()
	}
	lc := LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 32}, SharedWords: 1}
	for name, tails := range map[string]func(*kasm.Builder){"exit": exit, "barrier": barrier} {
		for pad := 0; pad < 3; pad++ {
			for n := 330; n < 345; n++ {
				res := runBothWays(t, hangConfig(1<<20), laneGroupProgram(pad, n, tails), lc, nil)
				if res.Trap != TrapNone {
					t.Fatalf("%s pad=%d n=%d: want a finished run, got %+v", name, pad, n, res)
				}
			}
		}
	}
}

// loopBack is a memoryless hook that sends every lane leaving pc from
// back to pc to.
type loopBack struct{ from, to int32 }

func (loopBack) Memoryless() bool { return true }
func (loopBack) Before(*InstrCtx) {}
func (h loopBack) After(ctx *InstrCtx) {
	if ctx.PC != h.from {
		return
	}
	for m := ctx.Mask; m != 0; m &= m - 1 {
		ctx.W.SetPC(lowLane(m), h.to)
	}
}

func TestHangFastForwardSetPCHook(t *testing.T) {
	// The hook turns straight-line code into a loop. R1 doubles each
	// pass, reaching zero after 32 of them, so the cycle starts after a
	// tail.
	b := kasm.New("setpc")
	b.S2R(0, isa.SRTidX)
	b.MOVI(1, 5)
	b.Label("top").IADD(1, 1, 1)
	b.GST(0, 0, 1)
	b.EXIT()
	prog := b.MustBuild()
	top := int32(prog.Labels["top"])
	res := runBothWays(t, hangConfig(30000), prog, LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 48}},
		loopBack{from: top + 1, to: top})
	wantSkipped(t, res)
}

// TestHangFastForwardNeedsEveryHook: one hook that does not opt in keeps
// the launch on the full path.
func TestHangFastForwardNeedsEveryHook(t *testing.T) {
	b := kasm.New("spin")
	b.Label("L").BRA("L")
	d := NewDevice(hangConfig(10000))
	d.AddHook(loopBack{from: -1})
	d.AddHook(HookFuncs{})
	res, err := d.Launch(b.MustBuild(), LaunchConfig{Grid: Dim3{X: 1}, Block: Dim3{X: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != TrapWatchdog || res.Skipped != 0 {
		t.Fatalf("want an unskipped watchdog trap, got %+v", res)
	}
}

// fuzzProgram decodes data into a small kernel: a launch shape, a
// watchdog budget, and up to 24 instructions over R0-R5 and P0-P2, with
// memory addresses masked into a 64-word window and branches anywhere in
// the program.
func fuzzProgram(data []byte) (*kasm.Program, LaunchConfig, uint64) {
	for len(data) < 3 {
		data = append(data, 0)
	}
	lc := LaunchConfig{Grid: Dim3{X: 1 + int(data[0]>>6)%2}, Block: Dim3{X: 1 + int(data[0])%64}, SharedWords: 64}
	maxIssues := 2500 + 500*uint64(data[1]%8)
	code := []isa.Instruction{
		{Op: isa.OpS2R, Pred: isa.PT, Rd: 0, Imm: isa.SRTidX},
		{Op: isa.OpMOV32I, Pred: isa.PT, Rd: 7, Imm: 31},
	}
	body := data[2:]
	for i := 0; i+4 <= len(body) && i < 24*4; i += 4 {
		sel, a, b, c := body[i], body[i+1], body[i+2], body[i+3]
		in := isa.Instruction{Rd: a % 6, Rs1: b % 6, Rs2: c % 6}
		switch sel % 14 {
		case 0:
			in.Op, in.Imm = isa.OpMOV32I, uint16(c%8)
		case 1:
			in.Op = isa.OpIADD
		case 2:
			in.Op = isa.OpIAND
		case 3:
			in.Op = isa.OpIXOR
		case 4:
			in.Op, in.Rd, in.Rs2, in.Flags = isa.OpISETP, a%3, c/8%6, c%6
		case 5, 6:
			in.Op, in.Imm = isa.OpBRA, uint16(b)
		case 7, 8, 9, 10:
			// Address = (R[b] & 31) + c%32, through the scratch R6.
			code = append(code, isa.Instruction{Op: isa.OpIAND, Rd: 6, Rs1: b % 6, Rs2: 7, Pred: isa.PT})
			in.Rs1, in.Imm = 6, uint16(c%32)
			in.Op = [...]isa.Opcode{isa.OpGLD, isa.OpGST, isa.OpLDS, isa.OpSTS}[sel%14-7]
			in.Rs2 = a % 6
		case 11:
			in.Op = isa.OpBAR
		case 12:
			in.Op = isa.OpEXIT
		case 13:
			in.Op, in.Rd, in.Rs1, in.Rs2, in.Flags = isa.OpPSETP, a%3, b%3, c%8, uint8(isa.CmpNE)
		}
		// Guard: mostly none, else P0, !P1 or P2.
		in.Pred = [...]uint8{isa.PT, isa.PT, isa.PT, isa.PT, 0, 1 | 8, 2, isa.PT}[sel>>5]
		code = append(code, in)
	}
	code = append(code, isa.Instruction{Op: isa.OpEXIT, Pred: isa.PT})
	prog := &kasm.Program{Name: "fuzz", Code: make([]isa.Word, len(code))}
	for i, in := range code {
		if in.Op == isa.OpBRA {
			in.Imm %= uint16(len(code))
		}
		prog.Code[i] = in.Encode()
	}
	return prog, lc, maxIssues
}

// FuzzHangFastForward runs small random kernels with and without the
// hang fast-forward; the two must agree on the Result and global memory.
func FuzzHangFastForward(f *testing.F) {
	f.Add([]byte{0x20, 0, 5, 0, 2, 0})                                      // BRA to self
	f.Add([]byte{0x1f, 3, 1, 1, 1, 2, 2, 1, 1, 3, 5, 0, 2, 0})              // counter loop
	f.Add([]byte{0x3f, 7, 8, 1, 0, 1, 9, 2, 0, 2, 13, 0, 0, 7, 5, 0, 2, 0}) // stores + toggled predicate
	f.Add([]byte{0x60, 1, 11, 0, 0, 0, 0x85, 0, 2, 0, 12, 0, 0, 0})         // barrier, guarded branch
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, lc, maxIssues := fuzzProgram(data)
		cfg := hangConfig(maxIssues)
		cfg.GlobalMemWords = 64
		runBothWays(t, cfg, prog, lc, nil)
	})
}
