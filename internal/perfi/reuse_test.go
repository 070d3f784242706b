package perfi

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/workloads"
)

// TestReusedDeviceMatchesFreshDevice is the differential safety net for
// device reuse and the hang fast-forward: RunApp runs thousands of
// injections on one faulty device, so whatever state a launch leaves
// behind (a trap mid-CTA, parked barriers, half-written shared memory)
// must never reach the next injection, and a hang the device
// fast-forwards must end exactly as the fully simulated one. Every
// injection of a quick-scale campaign over all 15 apps and every
// injectable model runs once on a fresh device, behind a wrapper hook
// that does not opt in to the fast-forward, and once on the reused
// device as RunApp runs it, drawing descriptors exactly as RunApp does;
// the two runs must agree on every field of the result.
func TestReusedDeviceMatchesFreshDevice(t *testing.T) {
	const injections = 20
	seed := int64(1)
	var fastForwarded atomic.Int64
	t.Cleanup(func() { // runs once every parallel subtest is done
		if !t.Failed() && fastForwarded.Load() == 0 {
			t.Error("no hang was fast-forwarded: the sweep never compared the fast path with the full one")
		}
	})
	for _, w := range cnn.Evaluation15() {
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			fastForwarded.Add(int64(compareFreshAndReused(t, w, injections, seed)))
		})
	}
}

// compareFreshAndReused runs one app's sweep for
// TestReusedDeviceMatchesFreshDevice and returns how many of its hangs
// the reused device fast-forwarded.
func compareFreshAndReused(t *testing.T, w workloads.Workload, injections int, seed int64) int {
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

	traps, skipped := 0, 0
	for _, m := range cfg.Models {
		for i := 0; i < cfg.Injections; i++ {
			d := errmodel.Random(m, rng, maxWarps, cfg.Device.PPBsPerSM)

			fresh := gpu.NewDevice(faultyCfg)
			inj := New(d)
			fresh.AddHook(gpu.HookFuncs{BeforeFn: inj.Before, AfterFn: inj.After})
			want, err := job.Run(fresh)
			if err != nil {
				t.Fatalf("%v #%d fresh: %v", m, i, err)
			}
			if want.Skipped != 0 {
				t.Fatalf("%v #%d: fresh device skipped %d issues behind a hook that did not opt in", m, i, want.Skipped)
			}
			reused.ClearHooks()
			reused.AddHook(New(d))
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
			if got.Skipped != 0 {
				skipped++
			}
		}
	}
	if traps == 0 {
		t.Fatal("no injection trapped: the test never left the arena dirty")
	}
	return skipped
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
