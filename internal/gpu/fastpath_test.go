package gpu_test

import (
	"math/rand"
	"testing"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/rtlfi"
	"gpufaultsim/internal/workloads"
)

// TestIssueSetOracleOnApps checks every issue of the 15 applications'
// golden runs against the cache-free issue-set oracle.
func TestIssueSetOracleOnApps(t *testing.T) {
	for _, w := range cnn.Evaluation15() {
		job := w.Build(rand.New(rand.NewSource(1)))
		dev := gpu.NewDevice(gpu.DefaultConfig())
		var checked uint64
		dev.AddHook(gpu.IssueSetOracle(t, &checked))
		rr, err := job.Run(dev)
		if err != nil || rr.Hung() {
			t.Fatalf("%s: err=%v res=%+v", w.Name(), err, rr)
		}
		if checked != rr.Issues {
			t.Fatalf("%s: oracle checked %d of %d issues", w.Name(), checked, rr.Issues)
		}
	}
}

// TestIssueSetOracleOnPCFaults runs the t-MxM study's program-counter
// faults, whose hook redirects lanes through Warp.SetPC after an
// instruction: a cache that missed the redirect would issue a stale set.
// The shared PC bus and the per-slot PC storage of the first two warp
// slots cover both hook paths; only the low four PC bits are live.
func TestIssueSetOracleOnPCFaults(t *testing.T) {
	redirected := 0
	for _, site := range rtlfi.SitesFor(rtlfi.ModSched, isa.OpFFMA) {
		pcBus, slotPC := site.Stage == rtlfi.StPCBus, site.Stage == rtlfi.StWarpPC && site.Lane < 2
		if !(pcBus || slotPC) || site.Bit >= 4 {
			continue
		}
		var checked uint64
		res := rtlfi.RunTMxM(site, rtlfi.TileRandom, 1, gpu.IssueSetOracle(t, &checked))
		if checked == 0 {
			t.Fatalf("site %+v: oracle never ran", site)
		}
		if res.Outcome != rtlfi.MicroMasked {
			redirected++
		}
	}
	if redirected == 0 {
		t.Fatal("no PC fault changed the run; the oracle saw no redirected lanes")
	}
}

// TestJobRunAllocatesOnlyResult: on a reused device, a whole job — every
// issue of every kernel, with a hook attached — allocates only the
// RunResult and its output slice.
func TestJobRunAllocatesOnlyResult(t *testing.T) {
	job := workloads.GEMM{}.Build(rand.New(rand.NewSource(1)))
	cfg := gpu.DefaultConfig()
	cfg.GlobalMemWords = job.Footprint() + 64
	dev := gpu.NewDevice(cfg)
	var issues uint64
	dev.AddHook(gpu.HookFuncs{BeforeFn: func(*gpu.InstrCtx) { issues++ }})
	allocs := testing.AllocsPerRun(5, func() {
		if rr, err := job.Run(dev); err != nil || rr.Hung() {
			t.Fatalf("gemm: err=%v res=%+v", err, rr)
		}
	})
	if issues == 0 {
		t.Fatal("hook never ran")
	}
	if allocs != 2 {
		t.Fatalf("Job.Run allocated %v times per run, want 2 (RunResult and Output)", allocs)
	}
}

// detain is a memoryless hook that turns the instruction at pc into a
// branch to itself, as perfi's IAC detention does: the job hangs.
type detain struct{ pc int32 }

func (detain) Memoryless() bool { return true }
func (h detain) Before(ctx *gpu.InstrCtx) {
	if ctx.PC == h.pc {
		ctx.Instr = isa.Instruction{Op: isa.OpBRA, Pred: isa.PT, Imm: uint16(h.pc)}
	}
}
func (detain) After(*gpu.InstrCtx) {}

// TestHangingJobRunAllocatesOnlyResult: a job that hangs, on a reused
// device whose hook opts in to the hang fast-forward, allocates only the
// RunResult (a trapped run reads no output), snapshots included.
func TestHangingJobRunAllocatesOnlyResult(t *testing.T) {
	job := workloads.GEMM{}.Build(rand.New(rand.NewSource(1)))
	cfg := gpu.DefaultConfig()
	cfg.GlobalMemWords = job.Footprint() + 64
	golden, err := job.Run(gpu.NewDevice(cfg))
	if err != nil || golden.Hung() {
		t.Fatalf("gemm golden: err=%v res=%+v", err, golden)
	}
	cfg.MaxIssues = golden.Issues*8 + 10000
	dev := gpu.NewDevice(cfg)
	dev.AddHook(detain{pc: int32(job.Kernels[0].Prog.Len() / 2)})
	allocs := testing.AllocsPerRun(5, func() {
		rr, err := job.Run(dev)
		if err != nil || rr.Trap != gpu.TrapWatchdog || rr.Skipped == 0 {
			t.Fatalf("gemm: want a fast-forwarded hang, got err=%v res=%+v", err, rr)
		}
	})
	if allocs != 1 {
		t.Fatalf("hanging Job.Run allocated %v times per run, want 1 (RunResult)", allocs)
	}
}
