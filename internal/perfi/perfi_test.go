package perfi

import (
	"math/rand"
	"testing"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/kasm"
	"gpufaultsim/internal/workloads"
)

// runInjected executes one workload job twice — golden and with a single
// injector — and classifies the outcome.
func runInjected(t *testing.T, w workloads.Workload, d errmodel.Descriptor, seed int64) workloads.Outcome {
	t.Helper()
	job := w.Build(rand.New(rand.NewSource(seed)))
	dev := gpu.NewDevice(gpu.DefaultConfig())
	golden, err := job.Run(dev)
	if err != nil || golden.Hung() {
		t.Fatalf("golden run: err=%v res=%+v", err, golden)
	}
	cfg := gpu.DefaultConfig()
	cfg.MaxIssues = golden.Issues*8 + 10000
	fdev := gpu.NewDevice(cfg)
	fdev.AddHook(New(d))
	rr, err := job.Run(fdev)
	if err != nil {
		t.Fatalf("faulty run: %v", err)
	}
	return workloads.Classify(golden.Output, rr)
}

func allLanesWarp0(m errmodel.Model) errmodel.Descriptor {
	return errmodel.Descriptor{Model: m, Warps: []int{0}, Threads: 0xFFFFFFFF}
}

func TestIVOCAlwaysDUE(t *testing.T) {
	// Paper: IVOC generates an invalid-instruction exception in all cases.
	d := allLanesWarp0(errmodel.IVOC)
	if got := runInjected(t, workloads.VectorAdd{}, d, 1); got != workloads.OutcomeDUE {
		t.Fatalf("IVOC outcome = %v, want DUE", got)
	}
}

func TestIVRAAlwaysDUEWhenActivated(t *testing.T) {
	d := allLanesWarp0(errmodel.IVRA)
	d.BitErrMask = isa.RegsPerThread
	d.ErrOperLoc = 1
	if got := runInjected(t, workloads.MxM{}, d, 2); got != workloads.OutcomeDUE {
		t.Fatalf("IVRA outcome = %v, want DUE", got)
	}
}

func TestIOCCorruptsOutput(t *testing.T) {
	d := allLanesWarp0(errmodel.IOC)
	d.ReplOp = isa.OpISUB
	got := runInjected(t, workloads.VectorAdd{}, d, 3)
	if got == workloads.OutcomeMasked {
		t.Fatalf("IOC on vectoradd masked; replacing every INT/FP op must corrupt")
	}
}

func TestIATDisturbsThreadIndexing(t *testing.T) {
	d := errmodel.Descriptor{Model: errmodel.IAT, Warps: []int{0},
		Threads: 0x2, BitErrMask: 4} // lane 1's tid reads xor 4
	got := runInjected(t, workloads.VectorAdd{}, d, 4)
	if got == workloads.OutcomeMasked {
		t.Fatalf("IAT outcome = %v, want SDC or DUE", got)
	}
}

func TestIMDMaskedWithoutSharedMemory(t *testing.T) {
	// Paper: codes that do not use shared memory mask 100% of IMD
	// injections (vectoradd is one of the examples).
	d := errmodel.Descriptor{Model: errmodel.IMD, Warps: []int{0},
		Threads: 0xF, BitErrMask: 1}
	if got := runInjected(t, workloads.VectorAdd{}, d, 5); got != workloads.OutcomeMasked {
		t.Fatalf("IMD on vectoradd = %v, want Masked", got)
	}
}

func TestIMDAffectsSharedMemoryCode(t *testing.T) {
	d := errmodel.Descriptor{Model: errmodel.IMD, Warps: []int{0, 1},
		Threads: 0xFFFFFFFF, BitErrMask: 1 << 3}
	if got := runInjected(t, workloads.GEMM{}, d, 6); got == workloads.OutcomeMasked {
		t.Fatalf("IMD on gemm masked; gemm stages tiles through shared memory")
	}
}

func TestWVOnUntouchedPredicateMasked(t *testing.T) {
	// Target predicate P5: vectoradd only writes P0, so the injection
	// never activates.
	d := errmodel.Descriptor{Model: errmodel.WV, Warps: []int{0},
		Threads: 0xFFFFFFFF, BitErrMask: 5}
	if got := runInjected(t, workloads.VectorAdd{}, d, 7); got != workloads.OutcomeMasked {
		t.Fatalf("WV on P5 = %v, want Masked", got)
	}
}

func TestWVOnGuardPredicateCorrupts(t *testing.T) {
	d := errmodel.Descriptor{Model: errmodel.WV, Warps: []int{0},
		Threads: 0x1, BitErrMask: 0} // P0 is vectoradd's bounds guard
	if got := runInjected(t, workloads.VectorAdd{}, d, 8); got == workloads.OutcomeMasked {
		t.Fatalf("WV on P0 masked; corrupting the bounds guard must propagate")
	}
}

func TestIALDisableLaneDropsResults(t *testing.T) {
	d := errmodel.Descriptor{Model: errmodel.IAL, Warps: []int{0},
		Threads: 0x1, ErrOperLoc: 0}
	if got := runInjected(t, workloads.VectorAdd{}, d, 9); got == workloads.OutcomeMasked {
		t.Fatalf("IAL-disable masked; lane 0's results are discarded")
	}
}

func TestInjectorRestoresStateOnUntargetedWarps(t *testing.T) {
	// An injector aimed at a warp slot the kernel never uses must be a
	// perfect no-op (Masked).
	for _, m := range errmodel.Injectable() {
		d := errmodel.Descriptor{Model: m, Warps: []int{40},
			Threads: 0xFFFFFFFF, BitErrMask: 1, ReplOp: isa.OpISUB, ErrOperLoc: 1}
		if got := runInjected(t, workloads.VectorAdd{}, d, 10); got != workloads.OutcomeMasked {
			t.Errorf("%v on unused warp = %v, want Masked", m, got)
		}
	}
}

func TestIRASourceModeRestoresOperand(t *testing.T) {
	// IRA source mode borrows a wrong register's value only for the
	// instruction itself; a mask of 0 combined with targeting nothing
	// would be a no-op, so instead check determinism: same descriptor,
	// same seed => same outcome.
	d := allLanesWarp0(errmodel.IRA)
	d.ErrOperLoc = 1
	d.BitErrMask = 3
	o1 := runInjected(t, workloads.MxM{}, d, 11)
	o2 := runInjected(t, workloads.MxM{}, d, 11)
	if o1 != o2 {
		t.Fatalf("IRA injection not deterministic: %v vs %v", o1, o2)
	}
}

func TestCampaignShapes(t *testing.T) {
	// Scaled-down Fig. 10 campaign on two contrasting apps; checks the
	// paper's qualitative findings.
	cfg := Config{Injections: 24, Seed: 99}
	apps := []workloads.Workload{workloads.VectorAdd{}, workloads.GEMM{}}
	results, err := RunSuite(apps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]*AppResult{}
	for _, r := range results {
		byApp[r.App] = r
	}

	// Operation errors are DUE-dominated (paper: 87-95% of operation-error
	// injections DUE on average).
	agg := Average(results)
	op := agg[errmodel.IVRA]
	if op.Total() > 0 && op.DUE == 0 {
		t.Errorf("IVRA produced no DUEs across campaign")
	}

	// IMD fully masked on vectoradd (no shared memory)...
	va := byApp["vectoradd"].ByModel[errmodel.IMD]
	if va.SDC+va.DUE != 0 {
		t.Errorf("vectoradd IMD EPR = %d/%d, want 0", va.SDC+va.DUE, va.Total())
	}
	// ...but active on gemm (shared-memory tiles).
	ge := byApp["gemm"].ByModel[errmodel.IMD]
	if ge.SDC+ge.DUE == 0 {
		t.Errorf("gemm IMD fully masked, want some propagation")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	cfg := Config{Injections: 8, Seed: 5,
		Models: []errmodel.Model{errmodel.IAT, errmodel.IOC}}
	r1, err := RunApp(workloads.VectorAdd{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunApp(workloads.VectorAdd{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m, t1 := range r1.ByModel {
		if t2 := r2.ByModel[m]; t1 != t2 {
			t.Errorf("%v: campaign not deterministic: %+v vs %+v", m, t1, t2)
		}
	}
}

func TestTallyRates(t *testing.T) {
	tl := Tally{Masked: 1, SDC: 2, DUE: 1}
	m, s, d := tl.Rate()
	if m != 0.25 || s != 0.5 || d != 0.25 {
		t.Errorf("Rate() = %v,%v,%v", m, s, d)
	}
	var empty Tally
	if m, s, d := empty.Rate(); m != 0 || s != 0 || d != 0 {
		t.Error("empty tally rates must be zero")
	}
}

func TestPersistenceGate(t *testing.T) {
	// A transient fault corrupts exactly one occurrence; an intermittent
	// one every k-th; a permanent one all of them.
	base := allLanesWarp0(errmodel.IOC)
	base.ReplOp = isa.OpISUB

	countActivations := func(d errmodel.Descriptor) uint64 {
		job := workloads.MxM{}.Build(rand.New(rand.NewSource(9)))
		dev := gpu.NewDevice(gpu.DefaultConfig())
		inj := New(d)
		dev.AddHook(inj)
		if _, err := job.Run(dev); err != nil {
			t.Fatal(err)
		}
		return inj.Activations
	}

	perm := countActivations(base)
	if perm == 0 {
		t.Fatal("permanent fault never activated")
	}

	tr := base
	tr.Persistence = errmodel.Transient
	tr.TransientAt = 3
	if got := countActivations(tr); got != 1 {
		t.Errorf("transient activations = %d, want 1", got)
	}

	it := base
	it.Persistence = errmodel.Intermittent
	it.DutyCycle = 4
	got := countActivations(it)
	if got == 0 || got >= perm {
		t.Errorf("intermittent activations = %d, want in (0, %d)", got, perm)
	}
	if diff := int64(got) - int64((perm+3)/4); diff < -2 || diff > 2 {
		t.Errorf("intermittent activations = %d, want ~%d (1/4 of %d)", got, (perm+3)/4, perm)
	}

	// Only the permanent fault opts in to the hang fast-forward: the
	// other two count occurrences from one issue to the next.
	for _, d := range []errmodel.Descriptor{base, tr, it} {
		if got, want := New(d).Memoryless(), d.Persistence == errmodel.Permanent; got != want {
			t.Errorf("%v injector Memoryless() = %v, want %v", d.Persistence, got, want)
		}
	}
}

func TestPermanentMasksLessThanTransient(t *testing.T) {
	// The paper: "permanent faults, by definition, are less likely to be
	// masked compared to transient faults".
	rng := rand.New(rand.NewSource(123))
	var permMasked, transMasked, n int
	for i := 0; i < 30; i++ {
		d := errmodel.Random(errmodel.IOC, rng, 4, 1)
		if runInjected(t, workloads.MxM{}, d, 70) == workloads.OutcomeMasked {
			permMasked++
		}
		d.Persistence = errmodel.Transient
		d.TransientAt = uint64(i * 13)
		if runInjected(t, workloads.MxM{}, d, 70) == workloads.OutcomeMasked {
			transMasked++
		}
		n++
	}
	if permMasked > transMasked {
		t.Errorf("permanent masked %d/%d > transient masked %d/%d",
			permMasked, n, transMasked, n)
	}
}

func TestEvalBinopMatchesDeviceSemantics(t *testing.T) {
	// The IOC replacement evaluator must agree with the execution core for
	// every two-source opcode it supports; otherwise IOC would inject an
	// operation that no real instruction computes.
	ops := []isa.Opcode{
		isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpIAND, isa.OpIOR,
		isa.OpIXOR, isa.OpIMIN, isa.OpIMAX,
		isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFMIN, isa.OpFMAX,
	}
	rng := rand.New(rand.NewSource(41))
	dev := gpu.NewDevice(gpu.DefaultConfig())
	for _, op := range ops {
		for trial := 0; trial < 40; trial++ {
			a := rng.Uint32()
			b := rng.Uint32()
			if op.Unit() == isa.UnitFP32 {
				// Keep FP operands finite.
				a = a&0x007FFFFF | 0x3F000000
				b = b&0x007FFFFF | 0x40000000
			}
			// Run the op through a real kernel.
			kb := kasm.New("one")
			kb.Op2(op, 2, 0, 1)
			kb.MOVI(3, 0)
			kb.GST(3, 0, 2)
			kb.EXIT()
			prog := kb.MustBuild()
			dev.ResetGlobal()
			dev.ClearHooks()
			dev.AddHook(gpu.HookFuncs{BeforeFn: func(ctx *gpu.InstrCtx) {
				if ctx.PC == 0 {
					ctx.W.SetReg(0, 0, a)
					ctx.W.SetReg(0, 1, b)
				}
			}})
			res, err := dev.Launch(prog, gpu.LaunchConfig{
				Grid: gpu.Dim3{X: 1}, Block: gpu.Dim3{X: 1}})
			if err != nil || res.Hung() {
				t.Fatalf("%v: %v %v", op, err, res)
			}
			if got, want := evalBinop(op, a, b), dev.Global[0]; got != want {
				t.Fatalf("%v(%#x,%#x): evalBinop %#x, device %#x", op, a, b, got, want)
			}
		}
	}
}
