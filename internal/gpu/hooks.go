package gpu

import "gpufaultsim/internal/isa"

// InstrCtx is the view of one dynamic instruction presented to
// instrumentation hooks. It is the software-level analog of the
// instrumentation context NVBit exposes: hooks can observe and mutate
// architectural state (through W) and the instruction about to execute.
type InstrCtx struct {
	Dev *Device
	W   *Warp

	PC    int32
	Raw   isa.Word        // fetched instruction word
	Instr isa.Instruction // decoded; Before hooks may rewrite it

	// Mask is the set of lanes scheduled at this PC (before predication).
	Mask uint32
	// ExecMask is the set of lanes that actually executed (after
	// predication); valid in After hooks.
	ExecMask uint32
	// DisableMask, set by Before hooks, suppresses architectural commits
	// (register writes, memory accesses) for the given lanes without
	// touching control flow — the behaviour of a stuck-at-0 thread-enable
	// bit: the lane stops producing results but its warp keeps advancing.
	DisableMask uint32

	// Shared is the CTA's shared-memory segment (nil if none requested).
	Shared []uint32
	// Params is the launch's constant memory image.
	Params []uint32
}

// Hook observes and perturbs instruction execution. Before runs after
// fetch/decode but ahead of validity checks, predication and execution, so
// rewriting ctx.Instr changes what executes (and a rewrite into an invalid
// encoding traps, exactly as a fetch/decoder fault would). After runs once
// results are architecturally visible.
//
// The contract that keeps issue allocation-free, the warp's issue-set
// cache exact and the hang fast-forward sound:
//   - the device reuses one InstrCtx for every hook call, across launches,
//     so a hook copies what it needs and never retains ctx (or ctx.W,
//     ctx.Shared) beyond the call;
//   - PC writes go through Warp.SetPC, never ctx.W.PC directly;
//   - Valid, Exited and Barrier are read-only to hooks;
//   - hooks never write ctx.Dev.Global or ctx.Params: the hang
//     fast-forward compares only the global words the CTA itself stored,
//     and treats the parameters as constant.
type Hook interface {
	Before(ctx *InstrCtx)
	After(ctx *InstrCtx)
}

// MemorylessHook is the optional interface through which a hook opts in
// to the hang fast-forward. Memoryless reports true only if what the hook
// does at an issue depends on nothing but the architectural state the
// issue sees (ctx and the warp, shared and global memory): no counter,
// clock or record carried from one issue to the next changes its effect.
//
// A launch whose every hook is memoryless (or that has no hooks) detects
// a CTA whose whole state recurs — the scheduler, every warp, the shared
// segment and the global words it stored — and, the run being periodic
// from then on, adds the remaining whole periods to Issues, UnitIssues
// and ThreadOps in one step instead of simulating them. It then simulates
// the last partial period, so the watchdog fires on the very issue it
// would have fired on anyway and the Result is bit-identical to the full
// run. Hooks see only the issues actually simulated: a hook that counts
// its calls (such as perfi.Injector.Activations) counts fewer on a
// fast-forwarded hang. A hook that does not implement the interface
// keeps every launch on the full path.
type MemorylessHook interface {
	Memoryless() bool
}

// RaiseTrap aborts the launch with the given trap, as if the hardware had
// detected the condition itself. Injection hooks use this to model
// corruptions whose architectural outcome is an exception (e.g. an invalid
// register address selected by the IVRA error model).
func (ctx *InstrCtx) RaiseTrap(kind TrapKind, info string) {
	panic(trapError{kind, info})
}

// HookFuncs adapts two closures to the Hook interface. Either may be nil.
type HookFuncs struct {
	BeforeFn func(ctx *InstrCtx)
	AfterFn  func(ctx *InstrCtx)
}

// Before implements Hook.
func (h HookFuncs) Before(ctx *InstrCtx) {
	if h.BeforeFn != nil {
		h.BeforeFn(ctx)
	}
}

// After implements Hook.
func (h HookFuncs) After(ctx *InstrCtx) {
	if h.AfterFn != nil {
		h.AfterFn(ctx)
	}
}
