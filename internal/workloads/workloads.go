// Package workloads implements the applications used by the paper's
// software-level error-injection campaigns (Table 1) and the representative
// parallel workloads used for hardware unit profiling, all written for the
// simulated GPU's ISA.
//
// Each workload builds a Job: a deterministic sequence of kernel launches
// over a shared global-memory image, plus the output region whose
// corruption constitutes an SDC and a host-computed reference used by the
// test suite to validate functional correctness.
package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/kasm"
)

// Workload is one benchmark application.
type Workload interface {
	// Name is the identifier used in Table 1 and all reports.
	Name() string
	// DataType is the dominant element type ("FP32" or "INT32").
	DataType() string
	// Domain is the application domain reported in Table 1.
	Domain() string
	// Suite is the benchmark suite of origin reported in Table 1.
	Suite() string
	// Build constructs the job. Input data derives deterministically from
	// rng, so (workload, seed) identifies a run exactly.
	Build(rng *rand.Rand) *Job
}

// Kernel is one launch in a job.
type Kernel struct {
	Prog *kasm.Program
	Cfg  gpu.LaunchConfig
}

// Job is a complete, self-contained execution: an initial memory image and
// an ordered list of kernel launches.
type Job struct {
	// Init is the initial global-memory image (loaded at word 0).
	Init []uint32
	// Kernels are launched in order; any trap aborts the job (DUE).
	Kernels []Kernel
	// OutputOff/OutputLen delimit the region compared for SDC detection.
	OutputOff, OutputLen int
	// Reference, if non-nil, is the host-computed expected output used by
	// tests to validate the kernel implementations themselves.
	Reference []uint32
	// MemWords, when set, declares the job's full device-memory footprint
	// including scratch buffers beyond Init and the output region.
	// Injection campaigns size the simulated allocation from it, so
	// corrupted addresses trap realistically instead of landing in
	// never-allocated memory.
	MemWords int
}

// Footprint returns the number of global-memory words the job touches.
func (j *Job) Footprint() int {
	n := len(j.Init)
	if end := j.OutputOff + j.OutputLen; end > n {
		n = end
	}
	if j.MemWords > n {
		n = j.MemWords
	}
	return n
}

// Outcome classifies a job execution against a golden run, following the
// paper's taxonomy.
type Outcome int

const (
	OutcomeMasked Outcome = iota // ran to completion, output identical
	OutcomeSDC                   // ran to completion, output differs
	OutcomeDUE                   // trap, hang, or crash
)

var outcomeNames = [...]string{"Masked", "SDC", "DUE"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// RunResult is the result of executing a Job on a device.
type RunResult struct {
	Trap     gpu.TrapKind
	TrapInfo string
	Output   []uint32
	Issues   uint64
	// UnitIssues aggregates per-functional-unit issue counts across all
	// kernels of the job.
	UnitIssues [6]uint64
	// Skipped counts the issues the hang fast-forward did not simulate
	// (gpu.Result.Skipped).
	Skipped uint64
}

// Hung reports whether any kernel of the job trapped.
func (r *RunResult) Hung() bool { return r.Trap != gpu.TrapNone }

// Run executes the job on dev (resetting global memory first) and returns
// the output region. Instrumentation hooks registered on dev apply to every
// kernel, exactly as NVBitPERfi instruments every kernel of an application.
func (j *Job) Run(dev *gpu.Device) (*RunResult, error) {
	if j.OutputOff+j.OutputLen > dev.Cfg.GlobalMemWords {
		return nil, fmt.Errorf("workloads: output region [%d,%d) exceeds global memory",
			j.OutputOff, j.OutputOff+j.OutputLen)
	}
	dev.ResetGlobal()
	dev.WriteGlobal(0, j.Init)
	rr := &RunResult{}
	for i := range j.Kernels {
		k := &j.Kernels[i]
		res, err := dev.Launch(k.Prog, k.Cfg)
		if err != nil {
			return nil, fmt.Errorf("workloads: kernel %d (%s): %w", i, k.Prog.Name, err)
		}
		rr.Issues += res.Issues
		rr.Skipped += res.Skipped
		for u, n := range res.UnitIssues {
			rr.UnitIssues[u] += n
		}
		if res.Hung() {
			rr.Trap, rr.TrapInfo = res.Trap, res.TrapInfo
			return rr, nil
		}
	}
	rr.Output = dev.ReadGlobal(j.OutputOff, j.OutputLen)
	return rr, nil
}

// Classify compares a run against the golden output.
func Classify(golden []uint32, rr *RunResult) Outcome {
	if rr.Hung() {
		return OutcomeDUE
	}
	if len(golden) != len(rr.Output) {
		return OutcomeSDC
	}
	for i := range golden {
		if golden[i] != rr.Output[i] {
			return OutcomeSDC
		}
	}
	return OutcomeMasked
}

// CorruptedElements returns the indices at which the run's output differs
// from golden (used by the spatial-pattern analysis of the t-MxM study).
func CorruptedElements(golden []uint32, out []uint32) []int {
	var diff []int
	for i := range golden {
		if i < len(out) && golden[i] != out[i] {
			diff = append(diff, i)
		}
	}
	return diff
}

// fbits converts a float32 slice to its raw-bits representation.
func fbits(fs []float32) []uint32 {
	out := make([]uint32, len(fs))
	for i, f := range fs {
		out[i] = math.Float32bits(f)
	}
	return out
}

// randFloats fills n float32 values uniform in [lo, hi).
func randFloats(rng *rand.Rand, n int, lo, hi float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = lo + (hi-lo)*rng.Float32()
	}
	return out
}

// randInts fills n int32 values uniform in [0, max).
func randInts(rng *rand.Rand, n int, max int32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(rng.Int31n(max))
	}
	return out
}
