package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/isa"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/rtlfi"
	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/units"
	"gpufaultsim/internal/workloads"
)

// The traced compositions below drive the same work as the untraced calls
// in workloads.go, one public layer call at a time, with a span around
// each. Their outcomes go through the same digests, so a traced call that
// diverged from the untraced one would be reported as failed.

// traceTwoLevel is campaign.RunTwoLevelCtx step by step: ProfileStep, one
// GateStep per unit and one SoftwareStep per app, each phase on
// campaign.ParallelMapCtx at the configured worker count.
func traceTwoLevel(ctx context.Context, in any, t *tracer) (outcome, error) {
	cfg := in.(campaign.TwoLevelConfig).Defaults()
	eng, err := gatesim.ParseEngine(cfg.Engine)
	if err != nil {
		return outcome{}, err
	}
	res := &campaign.Results{}
	root := t.call()

	sp := t.span(root, "profiler", "campaign.ProfileStep")
	prof, err := campaign.ProfileStep(cfg)
	sp.End()
	if err != nil {
		root.End()
		return outcome{}, err
	}
	res.Profile = prof
	sp = t.span(root, "profiler", "profiler.Profile.TopPatterns")
	patterns := prof.TopPatterns(cfg.MaxPatterns)
	sp.End()
	t.count("profiler.patterns", float64(len(patterns)))
	t.count("profiler.dyn_instrs", float64(prof.DynInstrs))

	sp = t.span(root, "gatesim", "units.All")
	us := units.All()
	sp.End()
	gate := t.span(root, "campaign", "campaign.ParallelMapCtx/gate")
	alloc0 := totalAlloc()
	res.Units, err = campaign.ParallelMapCtx(ctx, us, cfg.Workers, func(u *units.Unit) *campaign.UnitOutcome {
		return gateUnit(t, gate, u, patterns, cfg, eng)
	})
	t.count("gatesim.alloc_bytes", float64(totalAlloc()-alloc0))
	gate.End()
	if err != nil {
		root.End()
		return outcome{}, err
	}
	for _, u := range res.Units {
		t.count("gatesim.fault_patterns."+u.Unit.Name,
			float64(len(u.Summary.Faults))*float64(u.Summary.Patterns))
	}

	res.Apps, err = traceSoftware(ctx, t, root, cfg.EvalApps, cfg)
	root.End()
	if err != nil {
		return outcome{}, err
	}
	o, err := twoLevelOutcome(cfg, res)
	if err != nil {
		return outcome{}, err
	}
	return o, t.golden(cfg.EvalApps, cfg.Seed)
}

// gateUnit is the one per-unit gate-level call of the traced run: the
// stuck-at campaign of one unit over the exciting patterns, at the
// campaign's own engine, collapse and batch-worker settings.
func gateUnit(t *tracer, parent *telemetry.Span, u *units.Unit, patterns []units.Pattern,
	cfg campaign.TwoLevelConfig, eng gatesim.Engine) *campaign.UnitOutcome {
	sp := t.span(parent, "gatesim", "campaign.GateStep/"+u.Name)
	defer sp.End()
	return campaign.GateStep(u, patterns, cfg.Collapse, eng, cfg.BatchWorkers)
}

// traceSoftware is the software level: one SoftwareStep per app on the
// worker pool, as campaign.RunSuiteParallelCtx runs them.
func traceSoftware(ctx context.Context, t *tracer, root *telemetry.Span,
	apps []workloads.Workload, cfg campaign.TwoLevelConfig) ([]*perfi.AppResult, error) {
	type result struct {
		res *perfi.AppResult
		err error
	}
	sw := t.span(root, "campaign", "campaign.ParallelMapCtx/software")
	outs, err := campaign.ParallelMapCtx(ctx, apps, cfg.Workers, func(w workloads.Workload) result {
		sp := t.span(sw, "perfi", "campaign.SoftwareStep/"+w.Name())
		defer sp.End()
		r, err := campaign.SoftwareStep(w, cfg)
		return result{r, err}
	})
	sw.End()
	if err != nil {
		return nil, err
	}
	// The pool's width is what the host offers the phase, so an app count
	// below it shows up as idle workers.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t.count("campaign.software_workers", float64(workers))
	results := make([]*perfi.AppResult, len(outs))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		results[i] = o.res
		for _, tally := range o.res.ByModel {
			t.count("perfi.injections", float64(tally.Total()))
			t.count("perfi.due", float64(tally.DUE))
		}
	}
	return results, nil
}

// traceRTL is runRTL with a span around every MicroAVF call (the body of
// rtlfi.Figure2), every syndrome analysis and the t-MxM study.
func traceRTL(ctx context.Context, in any, t *tracer) (outcome, error) {
	r := in.(rtlInput)
	root := t.call()
	var rows []rtlfi.AVFRow
	syn := make(map[[2]int][]rtlfi.CorruptPair)
	alloc0 := totalAlloc()
	for _, op := range rtlfi.MicroInstructions() {
		for _, m := range rtlfi.ModulesFor(op) {
			sp := t.span(root, "rtlfi", fmt.Sprintf("rtlfi.MicroAVF/%v/%v", op, m))
			row, pairs := rtlfi.MicroAVF(op, m, r.micro)
			sp.End()
			rows = append(rows, row)
			syn[[2]int{int(op), int(m)}] = pairs
		}
	}
	t.count("rtlfi.micro_alloc_bytes", float64(totalAlloc()-alloc0))
	t.count("rtlfi.micro_sites", float64(microSites(rows)))

	var fits []syndromeRow
	for _, op := range syndromeOps {
		for _, m := range rtlfi.ModulesFor(op) {
			suffix := fmt.Sprintf("/%v/%v", op, m)
			sp := t.span(root, "rtlfi", "rtlfi.RelativeErrors"+suffix)
			res := rtlfi.RelativeErrors(syn[[2]int{int(op), int(m)}], op.Unit() == isa.UnitFP32)
			sp.End()
			if len(res) == 0 {
				continue
			}
			fits = append(fits, fitSyndrome(op, m, res, func(name string) func() {
				return t.span(root, "syndrome", name+suffix).End
			}))
		}
	}
	if err := ctx.Err(); err != nil {
		root.End()
		return outcome{}, err
	}

	sp := t.span(root, "rtlfi", "rtlfi.RunTMxMStudy")
	st := rtlfi.RunTMxMStudy(r.tmxm)
	sp.End()
	t.count("rtlfi.tmxm_sites", float64(tmxmSites(st)))
	root.End()

	o, err := rtlOutcome(rows, fits, st)
	if err != nil {
		return outcome{}, err
	}
	return o, t.goldenTMxM(r.tmxm.Seed)
}

// Device configurations of the layers whose golden runs the traced run
// times: perfi sizes global memory to the job, and the t-MxM study caps
// the watchdog.
func perfiDevice(job *workloads.Job) gpu.Config {
	c := gpu.DefaultConfig()
	c.GlobalMemWords = job.Footprint() + 64
	return c
}

func tmxmDevice() gpu.Config {
	c := gpu.DefaultConfig()
	c.MaxIssues = 100000
	return c
}

// golden builds each app's job and times its golden run on a fresh device
// (workloads and gpu layers), outside the call's root span so the probe
// does not count as tracing overhead. The thread-instruction count comes
// from an untimed replay of the same launches.
func (t *tracer) golden(apps []workloads.Workload, seed int64) error {
	root := t.start("perfbench.golden", "perfbench")
	defer root.End()
	for _, w := range apps {
		sp := t.span(root, "workloads", "workloads.Workload.Build/"+w.Name())
		job := w.Build(rand.New(rand.NewSource(seed)))
		sp.End()
		if err := t.goldenRun(root, w.Name(), job, gpu.NewDevice(perfiDevice(job))); err != nil {
			return err
		}
	}
	return nil
}

// goldenTMxM times the golden runs of the t-MxM mini-app, one per tile
// kind's input distribution, as the rtl workload's simulator probe.
func (t *tracer) goldenTMxM(seed int64) error {
	root := t.start("perfbench.golden", "perfbench")
	defer root.End()
	rng := rand.New(rand.NewSource(seed))
	for _, kind := range rtlfi.TileKinds() {
		n := rtlfi.TMxMSize * rtlfi.TMxMSize
		a, b := make([]float32, n), make([]float32, n)
		for i := range a {
			a[i], b[i] = -2+4*rng.Float32(), -2+4*rng.Float32()
		}
		sp := t.span(root, "workloads", "workloads.TiledMxMJob/"+kind.String())
		job := workloads.TiledMxMJob(a, b, rtlfi.TMxMSize)
		sp.End()
		if err := t.goldenRun(root, "tmxm-"+kind.String(), job, gpu.NewDevice(tmxmDevice())); err != nil {
			return err
		}
	}
	return nil
}

func (t *tracer) goldenRun(root *telemetry.Span, name string, job *workloads.Job, dev *gpu.Device) error {
	sp := t.span(root, "gpu", "workloads.Job.Run/"+name)
	rr, err := job.Run(dev)
	sp.End()
	if err != nil {
		return fmt.Errorf("golden run of %s: %w", name, err)
	}
	if rr.Hung() {
		return fmt.Errorf("golden run of %s trapped: %v", name, rr.Trap)
	}
	dev.ResetGlobal()
	dev.WriteGlobal(0, job.Init)
	var issues, threadOps uint64
	for _, k := range job.Kernels {
		res, err := dev.Launch(k.Prog, k.Cfg)
		if err != nil {
			return fmt.Errorf("replay of %s: %w", name, err)
		}
		issues += res.Issues
		threadOps += res.ThreadOps
	}
	if issues != rr.Issues {
		return fmt.Errorf("replay of %s issued %d warp instructions, golden run %d", name, issues, rr.Issues)
	}
	t.count("gpu.issues", float64(rr.Issues))
	t.count("gpu.thread_ops", float64(threadOps))
	return nil
}
