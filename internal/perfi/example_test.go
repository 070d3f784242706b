package perfi_test

import (
	"fmt"
	"math/rand"

	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/workloads"
)

// Example injects one permanent Incorrect-Active-Thread error into the
// vectoradd workload and classifies the outcome — the library's core loop.
func Example() {
	job := workloads.VectorAdd{}.Build(rand.New(rand.NewSource(42)))

	golden, _ := job.Run(gpu.NewDevice(gpu.DefaultConfig()))

	desc := errmodel.Descriptor{
		Model:      errmodel.IAT,
		Warps:      []int{0},
		Threads:    1 << 5,
		BitErrMask: 0x2,
	}
	fdev := gpu.NewDevice(gpu.DefaultConfig())
	fdev.AddHook(perfi.New(desc))
	faulty, _ := job.Run(fdev)

	fmt.Println(workloads.Classify(golden.Output, faulty))
	fmt.Println(workloads.CorruptedElements(golden.Output, faulty.Output))
	// Output:
	// SDC
	// [5 69 133 197]
}

// ExampleRunApp runs a small campaign for two error models.
func ExampleRunApp() {
	res, err := perfi.RunApp(workloads.VectorAdd{}, perfi.Config{
		Injections: 8,
		Seed:       7,
		Models:     []errmodel.Model{errmodel.IVRA, errmodel.IMD},
	})
	if err != nil {
		panic(err)
	}
	ivra := res.ByModel[errmodel.IVRA]
	imd := res.ByModel[errmodel.IMD]
	// IVRA descriptors that target a source-operand position the kernel
	// never uses stay silent; the rest trap.
	fmt.Printf("IVRA: %d DUE of %d\n", ivra.DUE, ivra.Total())
	fmt.Printf("IMD fully masked: %v (vectoradd uses no shared memory)\n",
		imd.Masked == imd.Total())
	// Output:
	// IVRA: 5 DUE of 8
	// IMD fully masked: true (vectoradd uses no shared memory)
}
