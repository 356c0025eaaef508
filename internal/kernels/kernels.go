// Package kernels is the microbenchmark generator: the Go counterpart
// of the paper's custom Julia benchmark suite (KernelBenchmarks.jl).
//
// It produces low-overhead load and store loops over a memory region:
//
//   - read-only, write-only, and read-modify-write operations;
//   - sequential or pseudo-random iteration, where random iteration
//     touches every address exactly once using a maximum-length LFSR;
//   - access granularities from 64 B to 512 B for random iteration
//     (sequential iteration is granularity-indifferent, as the paper
//     observes);
//   - standard or nontemporal stores — nontemporal stores bypass the
//     on-chip cache and need no Read-For-Ownership;
//   - a modeled thread count, with data partitioned evenly across
//     threads.
//
// The kernels drive a core.System — sequential passes through its Range
// forms, random passes (and the sequential load-then-nontemporal-store
// pass, which has no Range form) through its core.Batch builder — and
// report both the counter deltas and the effective bandwidth "as seen
// by the application".
package kernels

import (
	"fmt"

	"twolm/internal/core"
	"twolm/internal/imc"
	"twolm/internal/lfsr"
	"twolm/internal/mem"
)

// Op selects the memory operation the kernel performs on each element.
type Op uint8

const (
	// ReadOnly issues loads.
	ReadOnly Op = iota
	// WriteOnly issues stores.
	WriteOnly
	// ReadModifyWrite loads then stores each element.
	ReadModifyWrite
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case ReadOnly:
		return "read"
	case WriteOnly:
		return "write"
	case ReadModifyWrite:
		return "rmw"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// StoreType selects the store instruction flavor.
type StoreType uint8

const (
	// Standard stores go through the cache hierarchy (RFO + delayed
	// writeback).
	Standard StoreType = iota
	// Nontemporal stores bypass the on-chip cache.
	Nontemporal
)

// String implements fmt.Stringer.
func (s StoreType) String() string {
	if s == Nontemporal {
		return "nontemporal"
	}
	return "standard"
}

// Spec describes one benchmark kernel.
type Spec struct {
	// Op is the operation mix.
	Op Op
	// Pattern is Sequential or Random iteration order.
	Pattern mem.Pattern
	// Granularity is the bytes touched per random-iteration element
	// (64–512 in the paper). Sequential iteration ignores it.
	Granularity int
	// Store selects standard or nontemporal stores (writes only).
	Store StoreType
	// Threads is the modeled worker count; data is partitioned evenly.
	Threads int
	// Iterations is the number of full passes over the region (>= 1).
	Iterations int
	// Seed seeds the LFSR for random iteration.
	Seed uint32
}

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.Granularity <= 0 {
		s.Granularity = mem.Line
	}
	if s.Threads <= 0 {
		s.Threads = 1
	}
	if s.Iterations <= 0 {
		s.Iterations = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Validate checks the spec.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.Granularity%mem.Line != 0 {
		return fmt.Errorf("kernels: granularity %d not a multiple of %d", s.Granularity, mem.Line)
	}
	if s.Pattern == mem.InterleavedSeq {
		return fmt.Errorf("kernels: InterleavedSeq is an internal device-side pattern; use Sequential or Random")
	}
	return nil
}

// Name returns a compact identifier like "read-seq-64B-24t".
func (s Spec) Name() string {
	s = s.withDefaults()
	pat := "seq"
	if s.Pattern == mem.Random {
		pat = "rand"
	}
	name := fmt.Sprintf("%s-%s-%dB-%dt", s.Op, pat, s.Granularity, s.Threads)
	if s.Op != ReadOnly && s.Store == Nontemporal {
		name += "-nt"
	}
	return name
}

// Result reports one kernel execution.
type Result struct {
	Spec    Spec
	Region  mem.Region
	Delta   imc.Counters // counter increments caused by the kernel
	Elapsed float64      // seconds
	Demand  uint64       // CPU-visible bytes touched
}

// EffectiveBW returns demand bytes over elapsed seconds — the paper's
// application-visible bandwidth.
func (r Result) EffectiveBW() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Demand) / r.Elapsed
}

// DRAMReadBW returns the average DRAM read bandwidth in bytes/s.
func (r Result) DRAMReadBW() float64 { return r.bw(r.Delta.DRAMRead) }

// DRAMWriteBW returns the average DRAM write bandwidth in bytes/s.
func (r Result) DRAMWriteBW() float64 { return r.bw(r.Delta.DRAMWrite) }

// NVRAMReadBW returns the average NVRAM read bandwidth in bytes/s.
func (r Result) NVRAMReadBW() float64 { return r.bw(r.Delta.NVRAMRead) }

// NVRAMWriteBW returns the average NVRAM write bandwidth in bytes/s.
func (r Result) NVRAMWriteBW() float64 { return r.bw(r.Delta.NVRAMWrite) }

func (r Result) bw(lines uint64) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(lines*mem.Line) / r.Elapsed
}

// Run executes the kernel over region on sys and returns its result.
// The kernel drains the on-chip cache model at the end so delayed
// writebacks are charged to it, then closes the interval with a Sync.
func Run(sys *core.System, region mem.Region, spec Spec) (Result, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if region.Size == 0 || region.Size%mem.Line != 0 {
		return Result{}, fmt.Errorf("kernels: region size %d must be a positive line multiple", region.Size)
	}

	sys.SetThreads(spec.Threads)
	sys.SetTraffic(spec.Pattern, spec.Granularity)

	startCtr := sys.Counters()
	startDemand := sys.DemandBytes()
	startClock := sys.Clock()

	// Every pass reuses the same seed: the paper's generated benchmarks
	// are deterministic, which is also what makes repeat passes of an
	// over-capacity array miss on every access.
	for it := 0; it < spec.Iterations; it++ {
		if err := runPass(sys, region, spec, spec.Seed); err != nil {
			return Result{}, err
		}
	}
	sys.DrainLLC()
	sys.Sync(spec.Name(), 0)

	// Mirror the paper's methodology: validate the counters against
	// the expected data movement after every benchmark.
	if err := sys.ValidateCounters(); err != nil {
		return Result{}, fmt.Errorf("kernels: counter validation failed: %w", err)
	}

	return Result{
		Spec:    spec,
		Region:  region,
		Delta:   sys.Counters().Sub(startCtr),
		Elapsed: sys.Clock() - startClock,
		Demand:  sys.DemandBytes() - startDemand,
	}, nil
}

// runPass performs one full pass over the region.
func runPass(sys *core.System, region mem.Region, spec Spec, seed uint32) error {
	if spec.Pattern == mem.Sequential {
		sequentialPass(sys, region, spec)
		return nil
	}
	return randomPass(sys, region, spec, seed)
}

// touch appends the spec's operation on the lines of [base, end) to b.
func touch(b *core.Batch, base, end uint64, spec Spec) {
	switch spec.Op {
	case ReadOnly:
		for a := base; a < end; a += mem.Line {
			b.Load(a)
		}
	case WriteOnly:
		if spec.Store == Nontemporal {
			for a := base; a < end; a += mem.Line {
				b.StoreNT(a)
			}
		} else {
			for a := base; a < end; a += mem.Line {
				b.Store(a)
			}
		}
	case ReadModifyWrite:
		if spec.Store == Nontemporal {
			// Load then NT store: the store does not reuse the RFO.
			for a := base; a < end; a += mem.Line {
				b.Load(a)
				b.StoreNT(a)
			}
		} else {
			for a := base; a < end; a += mem.Line {
				b.RMW(a)
			}
		}
	}
}

// sequentialPass streams the region in ascending order.
func sequentialPass(sys *core.System, region mem.Region, spec Spec) {
	// Sequential access is granularity-indifferent; walk line by line
	// using the fast range operations.
	switch spec.Op {
	case ReadOnly:
		sys.LoadRange(region)
	case WriteOnly:
		if spec.Store == Nontemporal {
			sys.StoreNTRange(region)
		} else {
			sys.StoreRange(region)
		}
	case ReadModifyWrite:
		if spec.Store == Nontemporal {
			// No Range form pairs a load with an NT store per line.
			b := sys.Batch()
			touch(b, region.Base, region.End(), spec)
			b.Flush()
		} else {
			sys.RMWRange(region)
		}
	}
}

// randomPass visits each granularity-sized element exactly once in
// LFSR order.
func randomPass(sys *core.System, region mem.Region, spec Spec, seed uint32) error {
	gran := uint64(spec.Granularity)
	elements := region.Size / gran
	if elements == 0 {
		elements = 1
		gran = region.Size
	}
	b := sys.Batch()
	err := lfsr.Sequence(elements, seed, func(i uint64) {
		base := region.Base + i*gran
		touch(b, base, base+gran, spec)
	})
	b.Flush()
	return err
}

// PrimeClean fills the DRAM cache with clean data by streaming loads
// over region (several passes would be identical; one suffices since
// the miss handler always inserts). The LLC is drained and statistics
// are reset afterwards, following the paper's prime-then-measure
// methodology.
func PrimeClean(sys *core.System, region mem.Region) {
	sys.SetTraffic(mem.Sequential, mem.Line)
	sys.LoadRange(region)
	sys.DrainLLC()
	sys.ResetStats()
}

// PrimeDirty makes the DRAM cache dirty by streaming nontemporal
// stores over region, then resets statistics.
func PrimeDirty(sys *core.System, region mem.Region) {
	sys.SetTraffic(mem.Sequential, mem.Line)
	sys.StoreNTRange(region)
	sys.DrainLLC()
	sys.ResetStats()
}

// PrimeFor prepares the cache for measuring spec by running one
// unmeasured pass in the *same* iteration order (the paper runs its
// deterministic benchmarks twice: once to prepare state, once to
// measure). dirty selects a nontemporal-store prime (leaving the cache
// dirty) versus a read prime (leaving it clean). Statistics are reset
// afterwards.
func PrimeFor(sys *core.System, region mem.Region, spec Spec, dirty bool) error {
	prime := spec.withDefaults()
	prime.Iterations = 1
	if dirty {
		prime.Op = WriteOnly
		prime.Store = Nontemporal
	} else {
		prime.Op = ReadOnly
	}
	if _, err := Run(sys, region, prime); err != nil {
		return err
	}
	sys.ResetStats()
	return nil
}
