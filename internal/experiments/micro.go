// Package experiments encodes every table and figure of the paper's
// evaluation as a reusable function returning rendered results. The
// reproduction suite (internal/engine, run by cmd/repro) and the
// benchmark harness (bench_test.go) both call into this package so
// that a given experiment is defined exactly once.
//
// This file covers the microbenchmark study: Figure 2 (1LM NVRAM
// bandwidth), Table I (2LM per-access transaction counts) and Figure 4
// (2LM miss-regime bandwidth).
package experiments

import (
	"fmt"

	"twolm/internal/core"
	"twolm/internal/imc"
	"twolm/internal/kernels"
	"twolm/internal/mem"
	"twolm/internal/platform"
	"twolm/internal/results"
)

// MicroConfig parameterizes the microbenchmark experiments.
type MicroConfig struct {
	// Scale is the footprint divisor (power of two). The default 1024
	// maps the paper's 192 GiB cache to 192 MiB.
	Scale uint64
	// Threads lists the sweep points for Figure 2.
	Threads []int
	// Granularities lists the random-access sizes for Figures 2 and 4.
	Granularities []int
}

// DefaultMicroConfig returns the paper's sweep at 1/1024 scale.
func DefaultMicroConfig() MicroConfig {
	return MicroConfig{
		Scale:         1024,
		Threads:       []int{1, 2, 4, 8, 16, 24},
		Granularities: []int{64, 128, 256, 512},
	}
}

func (c MicroConfig) withDefaults() MicroConfig {
	d := DefaultMicroConfig()
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if len(c.Threads) == 0 {
		c.Threads = d.Threads
	}
	if len(c.Granularities) == 0 {
		c.Granularities = d.Granularities
	}
	return c
}

// new1LM builds a single-socket app-direct system.
func (c MicroConfig) new1LM() (*core.System, error) {
	return core.New(core.Config{
		Platform: platform.CascadeLake(1, c.Scale, 24),
		Mode:     core.Mode1LM,
	})
}

// new2LM builds a single-socket memory-mode system.
func (c MicroConfig) new2LM() (*core.System, error) {
	return core.New(core.Config{
		Platform: platform.CascadeLake(1, c.Scale, 24),
		Mode:     core.Mode2LM,
	})
}

// fig2Array is the unscaled array size used for the 1LM bandwidth
// sweeps; it only needs to dwarf the LLC.
const fig2Array = 64 * mem.GiB

// fig4Array is the unscaled array size for the 2LM miss benchmarks:
// the paper's 420 GB array, over twice the 192 GB DRAM cache.
const fig4Array = 420 * uint64(1e9)

// fig2Sweep runs one op over the thread/granularity sweep on a fresh
// 1LM system per cell and returns the bandwidth table in GB/s.
//
// The cells share nothing, so they run concurrently (see runSlots),
// each landing in its row-major slot: the table is the same at any
// GOMAXPROCS.
func (c MicroConfig) fig2Sweep(title string, op kernels.Op, store kernels.StoreType) (*results.Table, error) {
	headers := []string{"threads", "sequential"}
	for _, g := range c.Granularities {
		headers = append(headers, fmt.Sprintf("random-%dB", g))
	}
	table := results.NewTable(title, headers...)

	// Sequential first, then each random granularity.
	modes := c.accessModes()
	bw, err := runSlots(len(c.Threads)*len(modes), nil, func(i int) (float64, error) {
		spec := modes[i%len(modes)]
		spec.Op = op
		spec.Store = store
		spec.Threads = c.Threads[i/len(modes)]
		sys, err := c.new1LM()
		if err != nil {
			return 0, err
		}
		region, err := sys.AddressSpace().AllocNVRAM(sys.Platform().ScaleBytes(fig2Array))
		if err != nil {
			return 0, err
		}
		res, err := kernels.Run(sys, region, spec)
		if err != nil {
			return 0, err
		}
		return res.EffectiveBW() / mem.GB, nil
	})
	if err != nil {
		return nil, err
	}
	for r, threads := range c.Threads {
		row := []any{threads}
		for _, v := range bw[r*len(modes) : (r+1)*len(modes)] {
			row = append(row, v)
		}
		table.AddRow(row...)
	}
	return table, nil
}

// Fig2a reproduces Figure 2a: 1LM NVRAM read bandwidth (standard
// loads) versus thread count for sequential and random access.
func Fig2a(cfg MicroConfig) (*results.Table, error) {
	cfg = cfg.withDefaults()
	return cfg.fig2Sweep("Figure 2a: NVRAM read bandwidth, 1LM (GB/s)", kernels.ReadOnly, kernels.Standard)
}

// Fig2b reproduces Figure 2b: 1LM NVRAM write bandwidth with
// nontemporal stores.
func Fig2b(cfg MicroConfig) (*results.Table, error) {
	cfg = cfg.withDefaults()
	return cfg.fig2Sweep("Figure 2b: NVRAM write bandwidth, 1LM, nontemporal stores (GB/s)", kernels.WriteOnly, kernels.Nontemporal)
}

// Table1 reproduces Table I by measuring, for each access scenario,
// the DRAM/NVRAM transactions generated per demand request on a 2LM
// system. Every scenario is constructed the way the paper constructs
// it (Section IV-A) and the resulting ratios must be integers.
func Table1(cfg MicroConfig) (*results.Table, error) {
	cfg = cfg.withDefaults()
	table := results.NewTable("Table I: memory accesses generated per 2LM demand request",
		"scenario", "dram_read", "dram_write", "nvram_read", "nvram_write", "amplification")

	type scenario struct {
		name string
		run  func() (*core.System, error)
	}

	// Arrays: "fit" fits the DRAM cache without aliasing; "big" is the
	// paper's 420 GB array at over twice the cache size.
	scenarios := []scenario{
		{"LLC read hit", func() (*core.System, error) {
			sys, err := cfg.new2LM()
			if err != nil {
				return nil, err
			}
			region, err := sys.AddressSpace().Alloc(sys.Platform().DRAMSize() / 4)
			if err != nil {
				return nil, err
			}
			kernels.PrimeClean(sys, region)
			_, err = kernels.Run(sys, region, kernels.Spec{Op: kernels.ReadOnly, Pattern: mem.Sequential, Threads: 24})
			return sys, err
		}},
		{"LLC read miss (clean)", func() (*core.System, error) {
			sys, err := cfg.new2LM()
			if err != nil {
				return nil, err
			}
			region, err := sys.AddressSpace().Alloc(sys.Platform().ScaleBytes(fig4Array))
			if err != nil {
				return nil, err
			}
			kernels.PrimeClean(sys, region)
			_, err = kernels.Run(sys, region, kernels.Spec{Op: kernels.ReadOnly, Pattern: mem.Sequential, Threads: 24})
			return sys, err
		}},
		{"LLC read miss (dirty)", func() (*core.System, error) {
			// The paper measures this "early in the iteration", before
			// the reads themselves refill the cache with clean data:
			// we read a prefix no larger than the cache after priming
			// the whole array dirty.
			sys, err := cfg.new2LM()
			if err != nil {
				return nil, err
			}
			region, err := sys.AddressSpace().Alloc(sys.Platform().ScaleBytes(fig4Array))
			if err != nil {
				return nil, err
			}
			kernels.PrimeDirty(sys, region)
			prefix := mem.Region{Base: region.Base, Size: sys.Platform().DRAMSize() / 2}
			_, err = kernels.Run(sys, prefix, kernels.Spec{Op: kernels.ReadOnly, Pattern: mem.Sequential, Threads: 24})
			return sys, err
		}},
		{"LLC write hit", func() (*core.System, error) {
			sys, err := cfg.new2LM()
			if err != nil {
				return nil, err
			}
			region, err := sys.AddressSpace().Alloc(sys.Platform().DRAMSize() / 4)
			if err != nil {
				return nil, err
			}
			kernels.PrimeDirty(sys, region)
			_, err = kernels.Run(sys, region, kernels.Spec{Op: kernels.WriteOnly, Store: kernels.Nontemporal, Pattern: mem.Sequential, Threads: 24})
			return sys, err
		}},
		{"LLC write miss (clean)", func() (*core.System, error) {
			// Mirror of the dirty-read-miss measurement: a clean-primed
			// cache stays clean only ahead of the write front, so we
			// measure a prefix no larger than the cache.
			sys, err := cfg.new2LM()
			if err != nil {
				return nil, err
			}
			region, err := sys.AddressSpace().Alloc(sys.Platform().ScaleBytes(fig4Array))
			if err != nil {
				return nil, err
			}
			kernels.PrimeClean(sys, region)
			prefix := mem.Region{Base: region.Base, Size: sys.Platform().DRAMSize() / 2}
			_, err = kernels.Run(sys, prefix, kernels.Spec{Op: kernels.WriteOnly, Store: kernels.Nontemporal, Pattern: mem.Sequential, Threads: 24})
			return sys, err
		}},
		{"LLC write miss (dirty)", func() (*core.System, error) {
			sys, err := cfg.new2LM()
			if err != nil {
				return nil, err
			}
			region, err := sys.AddressSpace().Alloc(sys.Platform().ScaleBytes(fig4Array))
			if err != nil {
				return nil, err
			}
			kernels.PrimeDirty(sys, region)
			_, err = kernels.Run(sys, region, kernels.Spec{Op: kernels.WriteOnly, Store: kernels.Nontemporal, Pattern: mem.Sequential, Threads: 24})
			return sys, err
		}},
		{"LLC write (DDO)", func() (*core.System, error) {
			// Standard-store writebacks after an RFO of a resident
			// line: the paper's Section IV-C scenario.
			sys, err := cfg.new2LM()
			if err != nil {
				return nil, err
			}
			region, err := sys.AddressSpace().Alloc(sys.Platform().DRAMSize() / 4)
			if err != nil {
				return nil, err
			}
			kernels.PrimeClean(sys, region)
			_, err = kernels.Run(sys, region, kernels.Spec{Op: kernels.ReadModifyWrite, Store: kernels.Standard, Pattern: mem.Sequential, Threads: 4})
			return sys, err
		}},
	}

	for _, sc := range scenarios {
		sys, err := sc.run()
		if err != nil {
			return nil, fmt.Errorf("table1 %q: %w", sc.name, err)
		}
		ctr := sys.Counters()
		demand := ctr.Demand()
		if demand == 0 {
			return nil, fmt.Errorf("table1 %q: no demand requests", sc.name)
		}
		if sc.name == "LLC write (DDO)" {
			// Isolate the write side: subtract the read-hit traffic
			// (1 DRAM read per demand read, no other events) through the
			// clamped counter pipeline rather than ad-hoc field math.
			ctr = ctr.Sub(imc.Counters{DRAMRead: ctr.LLCRead})
			demand = ctr.LLCWrite
		}
		per := func(n uint64) float64 { return float64(n) / float64(demand) }
		amp := per(ctr.DRAMRead) + per(ctr.DRAMWrite) + per(ctr.NVRAMRead) + per(ctr.NVRAMWrite)
		table.AddRow(sc.name, per(ctr.DRAMRead), per(ctr.DRAMWrite), per(ctr.NVRAMRead), per(ctr.NVRAMWrite), amp)
	}
	return table, nil
}

// Fig4Row holds one access-mode row of a Figure 4 panel.
type Fig4Row struct {
	Mode        string
	DRAMRead    float64 // GB/s
	DRAMWrite   float64
	NVRAMRead   float64
	NVRAMWrite  float64
	Effective   float64
	HitRate     float64
	Amplif      float64
	MediaWriteA float64 // NVRAM media write amplification
}

// accessModes returns the access-mode sweep of Figures 2 and 4:
// sequential plus each random granularity.
func (c MicroConfig) accessModes() []kernels.Spec {
	specs := []kernels.Spec{{Pattern: mem.Sequential}}
	for _, g := range c.Granularities {
		specs = append(specs, kernels.Spec{Pattern: mem.Random, Granularity: g})
	}
	return specs
}

// fig4Panel primes a fresh over-capacity 2LM system per mode and runs
// the kernel, returning one row per access mode. The modes share
// nothing, so they run concurrently, each row in its mode's slot.
func (c MicroConfig) fig4Panel(op kernels.Op, store kernels.StoreType, threads int, dirtyPrime bool) ([]Fig4Row, error) {
	modes := c.accessModes()
	return runSlots(len(modes), nil, func(i int) (Fig4Row, error) {
		sys, err := c.new2LM()
		if err != nil {
			return Fig4Row{}, err
		}
		region, err := sys.AddressSpace().Alloc(sys.Platform().ScaleBytes(fig4Array))
		if err != nil {
			return Fig4Row{}, err
		}
		spec := modes[i]
		spec.Op = op
		spec.Store = store
		spec.Threads = threads
		// Prime with an unmeasured pass in the same iteration order, as
		// the paper does with its deterministic benchmarks, so the
		// measured pass misses on every access.
		if err := kernels.PrimeFor(sys, region, spec, dirtyPrime); err != nil {
			return Fig4Row{}, err
		}
		res, err := kernels.Run(sys, region, spec)
		if err != nil {
			return Fig4Row{}, err
		}
		mode := "sequential"
		if spec.Pattern == mem.Random {
			mode = fmt.Sprintf("random-%dB", spec.Granularity)
		}
		return Fig4Row{
			Mode:        mode,
			DRAMRead:    res.DRAMReadBW() / mem.GB,
			DRAMWrite:   res.DRAMWriteBW() / mem.GB,
			NVRAMRead:   res.NVRAMReadBW() / mem.GB,
			NVRAMWrite:  res.NVRAMWriteBW() / mem.GB,
			Effective:   res.EffectiveBW() / mem.GB,
			HitRate:     res.Delta.HitRate(),
			Amplif:      res.Delta.Amplification(),
			MediaWriteA: sys.Controller().NVRAM.WriteAmplification(),
		}, nil
	})
}

// fig4Table renders Fig4 rows.
func fig4Table(title string, rows []Fig4Row) *results.Table {
	t := results.NewTable(title,
		"access", "dram_read_gbs", "dram_write_gbs", "nvram_read_gbs", "nvram_write_gbs",
		"effective_gbs", "hit_rate", "amplification")
	for _, r := range rows {
		t.AddRow(r.Mode, r.DRAMRead, r.DRAMWrite, r.NVRAMRead, r.NVRAMWrite, r.Effective, r.HitRate, r.Amplif)
	}
	return t
}

// Fig4a reproduces Figure 4a: read-only benchmark over an array
// exceeding the DRAM cache — 100% clean LLC read misses, 24 threads.
func Fig4a(cfg MicroConfig) (*results.Table, []Fig4Row, error) {
	cfg = cfg.withDefaults()
	rows, err := cfg.fig4Panel(kernels.ReadOnly, kernels.Standard, 24, false)
	if err != nil {
		return nil, nil, err
	}
	return fig4Table("Figure 4a: read-only, clean LLC read misses, 24 threads (GB/s)", rows), rows, nil
}

// Fig4b reproduces Figure 4b: write-only benchmark with nontemporal
// stores — 100% dirty LLC write misses, 24 threads.
func Fig4b(cfg MicroConfig) (*results.Table, []Fig4Row, error) {
	cfg = cfg.withDefaults()
	rows, err := cfg.fig4Panel(kernels.WriteOnly, kernels.Nontemporal, 24, true)
	if err != nil {
		return nil, nil, err
	}
	return fig4Table("Figure 4b: write-only, dirty LLC write misses, 24 threads, nontemporal stores (GB/s)", rows), rows, nil
}

// Fig4c reproduces Figure 4c: read-modify-write with standard stores —
// dirty LLC read miss followed by a later DDO LLC write, 4 threads.
func Fig4c(cfg MicroConfig) (*results.Table, []Fig4Row, error) {
	cfg = cfg.withDefaults()
	rows, err := cfg.fig4Panel(kernels.ReadModifyWrite, kernels.Standard, 4, true)
	if err != nil {
		return nil, nil, err
	}
	return fig4Table("Figure 4c: read-modify-write, dirty read miss + DDO write, 4 threads, standard stores (GB/s)", rows), rows, nil
}
