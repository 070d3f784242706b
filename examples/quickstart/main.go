// Quickstart: run a workload on the simulated GPU, inject one permanent
// error, and classify the outcome — the minimal end-to-end use of the
// library's public pieces (gpu device, workloads, error models, injector).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/workloads"
)

func main() {
	log.SetFlags(0)

	// 1. Build a workload job (vectoradd: out[i] = a[i]+b[i], 256 elems).
	w := workloads.VectorAdd{}
	job := w.Build(rand.New(rand.NewSource(42)))

	// 2. Golden (fault-free) run on a simulated GPU.
	dev := gpu.NewDevice(gpu.DefaultConfig())
	golden, err := job.Run(dev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden run: %d warp-instructions issued, trap=%v\n",
		golden.Issues, golden.Trap)

	// 3. Describe a permanent hardware error: an Incorrect Active Thread
	//    (IAT) defect on SM0/PPB0 that corrupts lane 5's thread index.
	desc := errmodel.Descriptor{
		Model:      errmodel.IAT,
		Warps:      []int{0},
		Threads:    1 << 5,
		BitErrMask: 0x2,
	}
	fmt.Printf("injecting: %v\n", desc)

	// 4. Faulty run with the injector hooked into the device.
	fdev := gpu.NewDevice(gpu.DefaultConfig())
	fdev.AddHook(perfi.New(desc))
	faulty, err := job.Run(fdev)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Classify: Masked, SDC or DUE.
	outcome := workloads.Classify(golden.Output, faulty)
	fmt.Printf("outcome: %v\n", outcome)
	if outcome == workloads.OutcomeSDC {
		bad := workloads.CorruptedElements(golden.Output, faulty.Output)
		fmt.Printf("corrupted output elements: %v\n", bad)
	}
}
