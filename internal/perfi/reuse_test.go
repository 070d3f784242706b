package perfi

import (
	"math/rand"
	"testing"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/workloads"
)

// TestReusedDeviceMatchesFreshDevice is the differential safety net for
// device reuse: RunApp runs thousands of injections on one faulty device,
// so whatever state a launch leaves behind (a trap mid-CTA, parked
// barriers, half-written shared memory) must never reach the next
// injection. Every injection of a quick-scale campaign over all 15 apps
// and every injectable model runs once on a fresh device and once on the
// reused one, drawing descriptors exactly as RunApp does; the two runs
// must agree on every field of the result.
func TestReusedDeviceMatchesFreshDevice(t *testing.T) {
	const injections = 20
	seed := int64(1)
	for _, w := range cnn.Evaluation15() {
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Injections: injections, Seed: seed}.withDefaults()
			rng := rand.New(rand.NewSource(cfg.Seed))
			job := w.Build(rand.New(rand.NewSource(cfg.Seed)))
			cfg.Device.GlobalMemWords = job.Footprint() + 64
			golden, err := job.Run(gpu.NewDevice(cfg.Device))
			if err != nil || golden.Hung() {
				t.Fatalf("golden: err=%v res=%+v", err, golden)
			}
			faultyCfg := cfg.Device
			faultyCfg.MaxIssues = golden.Issues*8 + 10000
			reused := gpu.NewDevice(faultyCfg)
			maxWarps := min(maxWarpsUsed(job), cfg.Device.MaxWarpsPerSM)

			traps := 0
			for _, m := range cfg.Models {
				for i := 0; i < cfg.Injections; i++ {
					d := errmodel.Random(m, rng, maxWarps, cfg.Device.PPBsPerSM)
					hookSeed := cfg.Seed ^ int64(i)<<17

					fresh := gpu.NewDevice(faultyCfg)
					fresh.AddHook(New(d, rand.New(rand.NewSource(hookSeed))))
					want, err := job.Run(fresh)
					if err != nil {
						t.Fatalf("%v #%d fresh: %v", m, i, err)
					}
					reused.ClearHooks()
					reused.AddHook(New(d, rand.New(rand.NewSource(hookSeed))))
					got, err := job.Run(reused)
					if err != nil {
						t.Fatalf("%v #%d reused: %v", m, i, err)
					}
					if !sameRun(want, got) {
						t.Fatalf("%v #%d (%+v): reused device diverged\nfresh:  %+v\nreused: %+v",
							m, i, d, summary(want), summary(got))
					}
					if want.Hung() {
						traps++
					}
				}
			}
			if traps == 0 {
				t.Fatal("no injection trapped: the test never left the arena dirty")
			}
		})
	}
}

// sameRun reports whether two runs agree on every observable field.
func sameRun(a, b *workloads.RunResult) bool {
	if a.Trap != b.Trap || a.TrapInfo != b.TrapInfo || a.Issues != b.Issues ||
		a.UnitIssues != b.UnitIssues || len(a.Output) != len(b.Output) {
		return false
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			return false
		}
	}
	return true
}

// summary drops the output words from a failure message.
func summary(r *workloads.RunResult) workloads.RunResult {
	s := *r
	s.Output = nil
	return s
}
