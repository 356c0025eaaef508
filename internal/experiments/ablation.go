// Ablation experiments. The paper's discussion (Sections IV-D and
// VII) points beyond the measurements: the observed pathologies stem
// from specific design choices (direct mapping, allocate-on-write,
// the undocumented DDO) and could be "alleviated in future hardware",
// and software management is bottlenecked by CPU-driven synchronous
// copies that a co-designed DMA engine would hide. These experiments
// quantify each of those counterfactuals on the calibrated model.

package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"twolm/internal/compiler"
	"twolm/internal/core"
	"twolm/internal/dma"
	"twolm/internal/imc"
	"twolm/internal/kernels"
	"twolm/internal/mem"
	"twolm/internal/platform"
	"twolm/internal/results"
)

// new2LMWithPolicy builds a single-socket memory-mode system with an
// explicit controller policy.
func (c MicroConfig) new2LMWithPolicy(p imc.Policy) (*core.System, error) {
	return core.New(core.Config{
		Platform: platform.CascadeLake(1, c.Scale, 24),
		Mode:     core.Mode2LM,
		Policy:   &p,
	})
}

// AblationDDO quantifies the Dirty Data Optimization: the Figure 4c
// read-modify-write workload with the optimization present and absent.
func AblationDDO(cfg MicroConfig) (*results.Table, error) {
	cfg = cfg.withDefaults()
	table := results.NewTable(
		"Ablation: Dirty Data Optimization (RMW benchmark, 4 threads, standard stores)",
		"ddo", "dram_read_gbs", "dram_write_gbs", "effective_gbs", "amplification", "ddo_hits")
	for _, disable := range []bool{false, true} {
		p := imc.HardwarePolicy()
		p.DisableDDO = disable
		sys, err := cfg.new2LMWithPolicy(p)
		if err != nil {
			return nil, err
		}
		region, err := sys.AddressSpace().Alloc(sys.Platform().ScaleBytes(fig4Array))
		if err != nil {
			return nil, err
		}
		spec := kernels.Spec{Op: kernels.ReadModifyWrite, Store: kernels.Standard, Pattern: mem.Sequential, Threads: 4}
		if err := kernels.PrimeFor(sys, region, spec, true); err != nil {
			return nil, err
		}
		res, err := kernels.Run(sys, region, spec)
		if err != nil {
			return nil, err
		}
		label := "enabled"
		if disable {
			label = "disabled"
		}
		table.AddRow(label,
			res.DRAMReadBW()/mem.GB, res.DRAMWriteBW()/mem.GB,
			res.EffectiveBW()/mem.GB, res.Delta.Amplification(),
			fmt.Sprint(res.Delta.DDO))
	}
	return table, nil
}

// AblationWritePolicy contrasts the hardware's allocate-on-write-miss
// behavior (the paper's "best guess" for the extra DRAM write) with a
// write-around controller, on the Figure 4b dirty-write-miss workload.
func AblationWritePolicy(cfg MicroConfig) (*results.Table, error) {
	cfg = cfg.withDefaults()
	table := results.NewTable(
		"Ablation: write-miss allocation policy (write-only NT benchmark, 24 threads)",
		"policy", "dram_read_gbs", "dram_write_gbs", "nvram_read_gbs", "nvram_write_gbs", "effective_gbs", "amplification")
	for _, allocate := range []bool{true, false} {
		p := imc.HardwarePolicy()
		p.WriteAllocate = allocate
		sys, err := cfg.new2LMWithPolicy(p)
		if err != nil {
			return nil, err
		}
		region, err := sys.AddressSpace().Alloc(sys.Platform().ScaleBytes(fig4Array))
		if err != nil {
			return nil, err
		}
		spec := kernels.Spec{Op: kernels.WriteOnly, Store: kernels.Nontemporal, Pattern: mem.Sequential, Threads: 24}
		if err := kernels.PrimeFor(sys, region, spec, true); err != nil {
			return nil, err
		}
		res, err := kernels.Run(sys, region, spec)
		if err != nil {
			return nil, err
		}
		label := "allocate-on-miss (hardware)"
		if !allocate {
			label = "write-around"
		}
		table.AddRow(label,
			res.DRAMReadBW()/mem.GB, res.DRAMWriteBW()/mem.GB,
			res.NVRAMReadBW()/mem.GB, res.NVRAMWriteBW()/mem.GB,
			res.EffectiveBW()/mem.GB, res.Delta.Amplification())
	}
	return table, nil
}

// AblationAssociativity reruns the DenseNet 264 2LM iteration with
// hypothetical cache associativities, quantifying how much of the
// paper's limitation #1 (conflict misses from direct mapping) an
// associative DRAM cache would recover — and how much it would not,
// since the dead-data write-backs (limitation #3) remain. Its
// direct-mapped run, the baseline of vs_direct_mapped, is Figure 5's
// iteration.
func AblationAssociativity(d *DenseNet, ways []int) (*results.Table, error) {
	cfg := d.cfg
	if len(ways) == 0 {
		ways = []int{1, 2, 4, 8}
	}
	plan, err := d.densePlan()
	if err != nil {
		return nil, err
	}
	table := results.NewTable(
		"Ablation: DRAM-cache associativity (DenseNet 264 training iteration, 2LM)",
		"ways", "runtime_s", "hit_rate", "miss_dirty", "nvram_write_gb", "vs_direct_mapped")
	// The runs share only the compiled plan, which Execute reads. The
	// most associative run is the longest, so it is dispatched first.
	order := make([]int, len(ways))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ways[b], ways[a]) })
	policyAt := func(ways int) imc.Policy {
		p := imc.HardwarePolicy()
		p.Ways = ways
		return p
	}
	runs, err := runSlots(len(ways), order, func(i int) (*compiler.ExecResult, error) {
		return d.run2LM(plan, policyAt(ways[i]))
	})
	if err != nil {
		return nil, err
	}
	direct, err := d.run2LM(plan, policyAt(1))
	if err != nil {
		return nil, err
	}
	base := cfg.unscaleSeconds(direct.Elapsed)
	for i, res := range runs {
		rt := cfg.unscaleSeconds(res.Elapsed)
		table.AddRow(ways[i], rt, res.Counters.HitRate(),
			fmt.Sprint(res.Counters.TagMissDirty),
			cfg.unscaleGB(res.NVRAMWriteBytes()),
			fmt.Sprintf("%.2fx", base/rt))
	}
	return table, nil
}

// CoDesign runs the paper's closing proposal: AutoTM's tensor moves
// executed by (a) CPU cores synchronously (the measured baseline),
// (b) a current-generation I/O DMA engine, and (c) a co-designed
// high-bandwidth asynchronous mover, against the 2LM reference. The
// reference and the CPU-copy run are the Figure 5 and Figure 10 iterations.
func CoDesign(d *DenseNet) (*results.Table, error) {
	plan, err := d.densePlan()
	if err != nil {
		return nil, err
	}
	table := results.NewTable(
		"Co-design: DenseNet 264 data movement mechanisms",
		"mechanism", "runtime_s", "nvram_read_gb", "nvram_write_gb", "speedup_vs_2lm")

	mechanisms := []struct {
		name   string
		engine *dma.Engine
	}{
		{"2LM hardware cache", nil},
		{"AutoTM, CPU sync copies", nil},
		{"AutoTM + I/OAT-class DMA", ptr(dma.CurrentGenIOAT())},
		{"AutoTM + co-designed DMA", ptr(dma.FutureGen())},
	}
	// Slot 0 is the 2LM reference, the rest one AutoTM run per mover;
	// the runs share only the compiled plan, so they run concurrently.
	runs, err := runSlots(len(mechanisms), nil, func(i int) (CNNRun, error) {
		return d.cnnRun(plan, i > 0, mechanisms[i].engine)
	})
	if err != nil {
		return nil, err
	}
	rt2 := runs[0].RuntimeS
	for i, m := range mechanisms {
		speedup := "1.00x"
		if i > 0 {
			speedup = fmt.Sprintf("%.2fx", rt2/runs[i].RuntimeS)
		}
		table.AddRow(m.name, runs[i].RuntimeS, runs[i].NVRAMReadGB, runs[i].NVRAMWriteGB, speedup)
	}
	return table, nil
}

func ptr(e dma.Engine) *dma.Engine { return &e }
