// Execution of compiled plans against a simulated memory system. This
// is how the paper's 2LM CNN measurements (Figures 5 and 6) are
// regenerated: each kernel streams its operand tensors through the
// system, overlapped with a roofline estimate of its compute time.
// Plan.RunKernel is that kernel step; internal/autotm's executors run
// the same step against DRAM-staged operands.

package compiler

import (
	"fmt"

	"twolm/internal/core"
	"twolm/internal/imc"
	"twolm/internal/mem"
	"twolm/internal/perfcounter"
)

// ExecConfig parameterizes plan execution.
type ExecConfig struct {
	// Threads is the modeled worker count (the paper assigns all 24
	// physical cores of one socket).
	Threads int
	// WarmupIterations run before measurement to establish steady
	// cache state ("two warm up iterations ... to prepare the state of
	// the DRAM cache"). Statistics are reset afterwards.
	WarmupIterations int
}

// DefaultPeakFLOPS is a 24-core AVX-512 Cascade Lake socket:
// 24 cores x 2 FMA ports x 16 fp32 lanes x 2 ops x ~2 GHz.
const DefaultPeakFLOPS = 3.0e12

// DefaultComputeEfficiency is the fraction of peak a tuned kernel
// library sustains on convolutions.
const DefaultComputeEfficiency = 0.55

func (c ExecConfig) withDefaults() ExecConfig {
	if c.Threads <= 0 {
		c.Threads = 24
	}
	return c
}

// KernelSeconds is the roofline compute-time estimate for a kernel at
// the plan's scale.
func (p *Plan) KernelSeconds(k int, cfg ExecConfig) float64 {
	cfg = cfg.withDefaults()
	flops := float64(p.Prog.Kernels[k].FLOPs) / float64(p.Scale)
	threadFrac := float64(cfg.Threads) / 24
	if threadFrac > 1 {
		threadFrac = 1
	}
	// The peak is derated in float64 at run time: the exact constant
	// product 1.65e12 differs from it in the last place, and every
	// simulated clock derives from this quotient.
	peak, eff := float64(DefaultPeakFLOPS), float64(DefaultComputeEfficiency)
	return flops / (peak * eff * threadFrac)
}

// kernelInstructions estimates retired instructions for the MIPS trace:
// vectorized FLOPs plus load/store and bookkeeping instructions
// proportional to bytes moved.
func (p *Plan) kernelInstructions(k int) uint64 {
	flops := p.Prog.Kernels[k].FLOPs / p.Scale
	reads, writes := p.KernelBytes(k)
	return flops/16 + (reads+writes)/16
}

// ExecResult reports one measured training iteration.
type ExecResult struct {
	// Elapsed is the simulated iteration time in seconds.
	Elapsed float64
	// Counters holds the iteration's memory-controller events.
	Counters imc.Counters
	// Series is the per-kernel counter trace (the paper's Figure 5),
	// copied out of the system, so it does not change or keep the
	// system alive after Execute returns.
	Series *perfcounter.Series
	// Heap is the region the program ran in.
	Heap mem.Region
}

// DRAMReadBytes et al. report traffic in bytes at simulation scale.
func (r *ExecResult) DRAMReadBytes() uint64   { return r.Counters.DRAMRead * mem.Line }
func (r *ExecResult) DRAMWriteBytes() uint64  { return r.Counters.DRAMWrite * mem.Line }
func (r *ExecResult) NVRAMReadBytes() uint64  { return r.Counters.NVRAMRead * mem.Line }
func (r *ExecResult) NVRAMWriteBytes() uint64 { return r.Counters.NVRAMWrite * mem.Line }

// Execute runs the plan on sys (typically a 2LM system for the paper's
// memory-mode study, but any mode works: on a 1LM system the heap is
// allocated NUMA-preferred, DRAM first). It allocates the heap, runs
// the configured warmup iterations, resets statistics, then measures
// one full training iteration.
func Execute(plan *Plan, sys *core.System, cfg ExecConfig) (*ExecResult, error) {
	cfg = cfg.withDefaults()
	heap, err := sys.AddressSpace().Alloc(plan.HeapSize)
	if err != nil {
		return nil, fmt.Errorf("compiler: allocating %s heap: %w", mem.FormatBytes(plan.HeapSize), err)
	}
	sys.SetThreads(cfg.Threads)

	for i := 0; i < cfg.WarmupIterations; i++ {
		runIteration(plan, sys, heap, cfg, false)
	}
	sys.ResetStats()

	start := sys.Clock()
	runIteration(plan, sys, heap, cfg, true)

	return &ExecResult{
		Elapsed:  sys.Clock() - start,
		Counters: sys.Counters(),
		Series:   sys.Series().Since(0),
		Heap:     heap,
	}, nil
}

// runIteration executes every kernel once, each at its heap offset.
// When labeled, each kernel closes its own Sync interval with a
// phase-prefixed label.
func runIteration(plan *Plan, sys *core.System, heap mem.Region, cfg ExecConfig, labeled bool) {
	sys.SetTraffic(mem.Sequential, mem.Line)
	at := func(t int) mem.Region { return plan.Region(heap.Base, t) }
	for ki := range plan.Prog.Kernels {
		k := &plan.Prog.Kernels[ki]
		// Each operand tensor is one concurrent stream; dirty-victim
		// write-backs from the miss handler add one more.
		sys.SetStreams(len(k.Reads) + len(k.Writes) + 1)
		plan.RunKernel(sys, ki, at, cfg, labeled)
	}
	sys.DrainLLC()
	sys.Sync("drain", 0)
}

// RunKernel is the one kernel step every executor shares: it loads each
// tensor kernel ki reads and stores each tensor it writes, at the
// region at places the tensor in, charges the kernel's instructions,
// and closes a Sync interval with its roofline compute time. When
// labeled, the interval carries the phase-prefixed kernel name
// ("fwd:conv1", "bwd:conv1"). How the system overlaps the traffic with
// the compute time is the system's business; the caller sets threads,
// traffic shape and stream count.
func (p *Plan) RunKernel(sys *core.System, ki int, at func(t int) mem.Region, cfg ExecConfig, labeled bool) {
	k := &p.Prog.Kernels[ki]
	for _, t := range k.Reads {
		sys.LoadRange(at(t))
	}
	for _, t := range k.Writes {
		sys.StoreRange(at(t))
	}
	sys.AddInstructions(p.kernelInstructions(ki))
	label := ""
	if labeled {
		phase := "fwd"
		if ki >= p.Prog.ForwardKernels {
			phase = "bwd"
		}
		label = phase + ":" + k.Name
	}
	sys.Sync(label, p.KernelSeconds(ki, cfg))
}
