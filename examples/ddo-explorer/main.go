// DDO explorer: reproduces the paper's reverse-engineering of the
// Dirty Data Optimization (Section IV-C) — the memory controller's
// undocumented ability to skip the tag-check DRAM read for some LLC
// writebacks — by driving targeted access sequences at the controller
// and watching the counters, including the ablation with the
// optimization disabled.
package main

import (
	"fmt"
	"log"

	"twolm/internal/core"
	"twolm/internal/imc"
	"twolm/internal/kernels"
	"twolm/internal/mem"
	"twolm/internal/platform"
)

func newSystem(disableDDO bool) *core.System {
	policy := imc.HardwarePolicy()
	policy.DisableDDO = disableDDO
	sys, err := core.New(core.Config{
		Platform: platform.CascadeLake(1, 4096, 4),
		Mode:     core.Mode2LM,
		Policy:   &policy,
	})
	if err != nil {
		log.Fatal(err)
	}
	return sys
}

func perDemand(d imc.Counters) string {
	n := float64(d.Demand())
	return fmt.Sprintf("DRAM r/w %.2f/%.2f  NVRAM r/w %.2f/%.2f  amp %.2f  (DDO on %d of %d writes)",
		float64(d.DRAMRead)/n, float64(d.DRAMWrite)/n,
		float64(d.NVRAMRead)/n, float64(d.NVRAMWrite)/n,
		d.Amplification(), d.DDO, d.LLCWrite)
}

func main() {
	fmt.Println("Experiment 1: nontemporal store stream to resident lines")
	fmt.Println("  (no prior RFO, so the controller cannot skip the tag check)")
	sys := newSystem(false)
	array, _ := sys.AddressSpace().Alloc(sys.Platform().DRAMSize() / 4)
	kernels.PrimeDirty(sys, array)
	res, err := kernels.Run(sys, array, kernels.Spec{Op: kernels.WriteOnly, Store: kernels.Nontemporal, Threads: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  ", perDemand(res.Delta))

	fmt.Println("\nExperiment 2: read-modify-write with standard stores")
	fmt.Println("  (each writeback follows an RFO of the same line)")
	sys = newSystem(false)
	array, _ = sys.AddressSpace().Alloc(sys.Platform().DRAMSize() / 4)
	kernels.PrimeClean(sys, array)
	res, err = kernels.Run(sys, array, kernels.Spec{Op: kernels.ReadModifyWrite, Store: kernels.Standard, Threads: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  ", perDemand(res.Delta))
	fmt.Println("   -> every writeback skipped its tag check: amplification 1 per write")

	fmt.Println("\nExperiment 3: same RMW stream with the optimization disabled")
	sys = newSystem(true)
	array, _ = sys.AddressSpace().Alloc(sys.Platform().DRAMSize() / 4)
	kernels.PrimeClean(sys, array)
	res, err = kernels.Run(sys, array, kernels.Spec{Op: kernels.ReadModifyWrite, Store: kernels.Standard, Threads: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  ", perDemand(res.Delta))
	fmt.Println("   -> each writeback now pays an extra DRAM read purely for the tag")

	fmt.Println("\nExperiment 4: conflict between RFO and writeback kills the DDO")
	fmt.Println("  (an aliasing line is read between the store's RFO and eviction)")
	sys = newSystem(false)
	ctrl := sys.Controller()
	addr := uint64(128 * mem.Line)
	aliased := addr + ctrl.Cache.Capacity()
	ctrl.LLCRead(addr)    // RFO: LLC owns the line
	ctrl.LLCRead(aliased) // conflict re-allocates the set
	before := ctrl.Counters()
	_, ddo := ctrl.LLCWrite(addr) // delayed writeback arrives
	d := ctrl.Counters().Sub(before)
	fmt.Printf("   writeback used DDO: %v; it cost %d DRAM reads and %d NVRAM reads\n",
		ddo, d.DRAMRead, d.NVRAMRead)
	fmt.Println("   -> the set was re-allocated, so the controller had to check tags")
	fmt.Println("      (and the write itself became a fresh miss).")
}
