//vetsim:instrumented
package perfi

import (
	"fmt"
	"math/rand"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/telemetry"
	"gpufaultsim/internal/workloads"
)

// Hang metrics, counted in locals across an application's injections and
// flushed once per RunApp, so the injection loop carries no telemetry
// cost.
var (
	telHangs       = telemetry.Default().Counter("perfi_hangs_total", "faulty runs ended by the watchdog")
	telHangsFastFw = telemetry.Default().Counter("perfi_hangs_fast_forwarded_total", "watchdog hangs whose periodic tail the device skipped")
)

// Config parameterizes a software-level error-injection campaign.
type Config struct {
	// Injections per application per error model (the paper uses 1,000;
	// scaled-down campaigns preserve the EPR shapes).
	Injections int
	// Models to inject; defaults to errmodel.Injectable().
	Models []errmodel.Model
	// Seed drives descriptor sampling and workload data generation.
	Seed int64
	// Device overrides the GPU configuration (zero value = default).
	Device gpu.Config
}

func (c Config) withDefaults() Config {
	if c.Injections == 0 {
		c.Injections = 100
	}
	if len(c.Models) == 0 {
		c.Models = errmodel.Injectable()
	}
	if c.Device.NumSMs == 0 {
		c.Device = gpu.DefaultConfig()
	}
	return c
}

// Tally counts outcomes of a set of injections.
type Tally struct {
	Masked, SDC, DUE int
}

// Total returns the number of injections recorded.
func (t Tally) Total() int { return t.Masked + t.SDC + t.DUE }

// Add records one outcome.
func (t *Tally) Add(o workloads.Outcome) {
	switch o {
	case workloads.OutcomeMasked:
		t.Masked++
	case workloads.OutcomeSDC:
		t.SDC++
	default:
		t.DUE++
	}
}

// Rate returns (masked, sdc, due) as fractions of the total.
func (t Tally) Rate() (masked, sdc, due float64) {
	n := float64(t.Total())
	if n == 0 {
		return 0, 0, 0
	}
	return float64(t.Masked) / n, float64(t.SDC) / n, float64(t.DUE) / n
}

// AppResult is one application's EPR breakdown per error model
// (one group of bars in the paper's Figure 10).
type AppResult struct {
	App     string
	ByModel map[errmodel.Model]Tally
}

// EPR returns the fraction of injections that propagated to the output
// (SDC or DUE) for the model.
func (r *AppResult) EPR(m errmodel.Model) float64 {
	t := r.ByModel[m]
	if t.Total() == 0 {
		return 0
	}
	return float64(t.SDC+t.DUE) / float64(t.Total())
}

// maxWarpsUsed reports the largest number of warps any kernel of the job
// keeps resident, so descriptors target warp slots the application
// actually maps work onto (as physical injections on a busy GPU do).
func maxWarpsUsed(job *workloads.Job) int {
	maxW := 1
	for _, k := range job.Kernels {
		w := (k.Cfg.Block.Count() + 31) / 32
		if w > maxW {
			maxW = w
		}
	}
	return maxW
}

// RunApp executes a full injection campaign for one application: a golden
// run followed by Injections faulty runs per model, each with a fresh
// random error descriptor.
func RunApp(w workloads.Workload, cfg Config) (*AppResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	job := w.Build(rand.New(rand.NewSource(cfg.Seed)))

	// Size the simulated allocation to the job's footprint (plus a small
	// guard band), as a real launch would: a corrupted address then traps
	// instead of silently landing in never-allocated memory.
	cfg.Device.GlobalMemWords = job.Footprint() + 64

	dev := gpu.NewDevice(cfg.Device)
	golden, err := job.Run(dev)
	if err != nil {
		return nil, fmt.Errorf("perfi: golden run of %s: %w", w.Name(), err)
	}
	if golden.Hung() {
		return nil, fmt.Errorf("perfi: golden run of %s trapped: %v %s",
			w.Name(), golden.Trap, golden.TrapInfo)
	}

	// Tight watchdog for the faulty runs: a corrupted loop that runs 8x
	// past the golden issue count is a hang (DUE), and detecting it fast
	// keeps campaign time linear.
	faultyCfg := cfg.Device
	faultyCfg.MaxIssues = golden.Issues*8 + 10000
	fdev := gpu.NewDevice(faultyCfg)

	maxWarps := maxWarpsUsed(job)
	if maxWarps > cfg.Device.MaxWarpsPerSM {
		maxWarps = cfg.Device.MaxWarpsPerSM
	}

	res := &AppResult{App: w.Name(), ByModel: make(map[errmodel.Model]Tally)}
	var hangs, fastForwarded int64
	for _, m := range cfg.Models {
		var tally Tally
		for i := 0; i < cfg.Injections; i++ {
			d := errmodel.Random(m, rng, maxWarps, cfg.Device.PPBsPerSM)
			fdev.ClearHooks()
			fdev.AddHook(New(d))
			rr, err := job.Run(fdev)
			if err != nil {
				return nil, fmt.Errorf("perfi: %s/%v injection %d: %w",
					w.Name(), m, i, err)
			}
			tally.Add(workloads.Classify(golden.Output, rr))
			if rr.Trap == gpu.TrapWatchdog {
				hangs++
				if rr.Skipped != 0 {
					fastForwarded++
				}
			}
		}
		res.ByModel[m] = tally
	}
	telHangs.Add(hangs)
	telHangsFastFw.Add(fastForwarded)
	return res, nil
}

// RunSuite runs campaigns for several applications and returns results in
// input order.
func RunSuite(apps []workloads.Workload, cfg Config) ([]*AppResult, error) {
	out := make([]*AppResult, 0, len(apps))
	for _, w := range apps {
		r, err := RunApp(w, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Average aggregates per-model tallies across applications (Figure 11).
func Average(results []*AppResult) map[errmodel.Model]Tally {
	agg := make(map[errmodel.Model]Tally)
	for _, r := range results {
		for m, t := range r.ByModel {
			a := agg[m]
			a.Masked += t.Masked
			a.SDC += t.SDC
			a.DUE += t.DUE
			agg[m] = a
		}
	}
	return agg
}
