package core

import (
	"fmt"
	"testing"

	"twolm/internal/imc"
	"twolm/internal/lfsr"
	"twolm/internal/mem"
	"twolm/internal/nvram"
	"twolm/internal/platform"
)

// fastpathConfigs is the acceptance matrix: both operating modes, and
// in 2LM every policy variant (hardware, no-write-allocate,
// no-read-allocate, DDO off) at Ways 1 and 4.
func fastpathConfigs() map[string]Config {
	hw := imc.HardwarePolicy()
	noWA := hw
	noWA.WriteAllocate = false
	noRA := hw
	noRA.ReadAllocate = false
	noDDO := hw
	noDDO.DisableDDO = true
	ways4 := hw
	ways4.Ways = 4
	cfgs := map[string]Config{
		"1lm": {Mode: Mode1LM},
	}
	for name, p := range map[string]imc.Policy{
		"2lm-hardware": hw, "2lm-no-write-allocate": noWA,
		"2lm-no-read-allocate": noRA, "2lm-ddo-off": noDDO, "2lm-4way": ways4,
	} {
		p := p
		cfgs[name] = Config{Mode: Mode2LM, Policy: &p}
	}
	return cfgs
}

// newFastpathPair builds two identical systems; the first gets a no-op
// tap installed, which forces every Range call down the per-line slow
// path, while the second takes the batched fast path. Any counter
// divergence between them is a fast-path bug.
func newFastpathPair(t *testing.T, cfg Config) (slow, fast *System) {
	t.Helper()
	build := func() *System {
		c := cfg
		c.Platform = platform.CascadeLake(1, 16384, 4)
		sys, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	slow, fast = build(), build()
	slow.SetTap(func(op TapOp, addr uint64) {})
	return slow, fast
}

// assertSameSystemTraffic asserts byte-identical controller counters,
// demand bytes, per-channel CAS counts, and NVRAM media counters.
func assertSameSystemTraffic(t *testing.T, label string, slow, fast *System) {
	t.Helper()
	if a, b := slow.Counters(), fast.Counters(); a != b {
		t.Errorf("%s: counters diverge\n slow: %v\n fast: %v", label, a, b)
	}
	if a, b := slow.DemandBytes(), fast.DemandBytes(); a != b {
		t.Errorf("%s: demand bytes diverge: slow %d, fast %d", label, a, b)
	}
	ac, bc := slow.DRAM().ChannelCounters(), fast.DRAM().ChannelCounters()
	for i := range ac {
		if ac[i] != bc[i] {
			t.Errorf("%s: channel %d CAS diverges: slow %+v, fast %+v", label, i, ac[i], bc[i])
		}
	}
	type media struct{ r, w, mr, mw uint64 }
	am := media{slow.NVRAM().TotalReads(), slow.NVRAM().TotalWrites(),
		slow.NVRAM().TotalMediaReads(), slow.NVRAM().TotalMediaWrites()}
	bm := media{fast.NVRAM().TotalReads(), fast.NVRAM().TotalWrites(),
		fast.NVRAM().TotalMediaReads(), fast.NVRAM().TotalMediaWrites()}
	if am != bm {
		t.Errorf("%s: NVRAM media counters diverge: slow %+v, fast %+v", label, am, bm)
	}
}

// driveSequential runs the sequential workload mix — load, store, RMW,
// and nontemporal-store sweeps over a region exceeding the DRAM cache,
// repeated so the second pass sees a primed cache.
func driveSequential(sys *System, region mem.Region) {
	for pass := 0; pass < 2; pass++ {
		sys.LoadRange(region)
		sys.StoreRange(region)
		sys.RMWRange(region)
		sys.StoreNTRange(region)
	}
}

// driveRandom runs an LFSR-random pass touching every line once with a
// rotating op mix.
func driveRandom(t *testing.T, sys *System, region mem.Region) {
	t.Helper()
	err := lfsr.Sequence(region.Lines(), 0xF00D, func(idx uint64) {
		addr := region.Base + idx*mem.Line
		switch idx & 3 {
		case 0:
			sys.load(addr)
		case 1:
			sys.store(addr)
		case 2:
			sys.rmw(addr)
		default:
			sys.storeNT(addr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFastPathSequentialMatrix proves the batched sequential path
// produces byte-identical traffic to the per-line path across the full
// mode/policy matrix.
func TestFastPathSequentialMatrix(t *testing.T) {
	for name, cfg := range fastpathConfigs() {
		t.Run(name, func(t *testing.T) {
			slow, fast := newFastpathPair(t, cfg)
			region, err := slow.AddressSpace().Alloc(2 * slow.Platform().DRAMSize())
			if err != nil {
				t.Fatal(err)
			}
			regionF, err := fast.AddressSpace().Alloc(2 * fast.Platform().DRAMSize())
			if err != nil {
				t.Fatal(err)
			}
			if region != regionF {
				t.Fatalf("allocators diverged: %v vs %v", region, regionF)
			}
			driveSequential(slow, region)
			driveSequential(fast, region)
			slow.DrainLLC()
			fast.DrainLLC()
			assertSameSystemTraffic(t, name, slow, fast)
		})
	}
}

// TestFastPathRandomMatrix proves the per-line ops themselves are
// unperturbed by the strength reduction, and that random traffic
// interleaved before and after batched calls leaves both systems in
// identical states.
func TestFastPathRandomMatrix(t *testing.T) {
	for name, cfg := range fastpathConfigs() {
		t.Run(name, func(t *testing.T) {
			slow, fast := newFastpathPair(t, cfg)
			region, err := slow.AddressSpace().Alloc(2 * slow.Platform().DRAMSize())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fast.AddressSpace().Alloc(2 * fast.Platform().DRAMSize()); err != nil {
				t.Fatal(err)
			}
			driveRandom(t, slow, region)
			driveRandom(t, fast, region)
			// Batched sweeps over the randomly-dirtied state.
			driveSequential(slow, region)
			driveSequential(fast, region)
			driveRandom(t, slow, region)
			driveRandom(t, fast, region)
			slow.DrainLLC()
			fast.DrainLLC()
			assertSameSystemTraffic(t, name, slow, fast)
		})
	}
}

// TestDMACopy2LMMatchesPerLine proves the batched 2LM DMACopy route
// generates exactly the traffic of per-line controller calls.
func TestDMACopy2LMMatchesPerLine(t *testing.T) {
	cfgs := fastpathConfigs()
	for _, name := range []string{"2lm-hardware", "2lm-4way", "2lm-ddo-off"} {
		t.Run(name, func(t *testing.T) {
			slow, fast := newFastpathPair(t, cfgs[name])
			src := mem.Region{Base: 0, Size: 128 * mem.KiB}
			dst := mem.Region{Base: 4 * mem.MiB, Size: 128 * mem.KiB}
			// Old-style per-line route, straight at the controller.
			for a := src.Base; a < src.End(); a += mem.Line {
				slow.Controller().LLCRead(a)
			}
			for a := dst.Base; a < dst.Base+src.Size; a += mem.Line {
				slow.Controller().LLCWrite(a)
			}
			fast.DMACopy(src, dst)
			assertSameSystemTraffic(t, name, slow, fast)
		})
	}
}

// TestDMACopy1LMPoolSplit pins the 1LM DMACopy batching against
// hand-derived counts for a transfer straddling the DRAM/NVRAM pool
// boundary, including the media-level writes of a reference NVRAM
// module driven per line.
func TestDMACopy1LMPoolSplit(t *testing.T) {
	sys, err := New(Config{Platform: platform.CascadeLake(1, 16384, 4), Mode: Mode1LM})
	if err != nil {
		t.Fatal(err)
	}
	boundary := sys.AddressSpace().DRAMBoundary()
	// src straddles the boundary: half DRAM, half NVRAM.
	src := mem.Region{Base: boundary - 64*mem.KiB, Size: 128 * mem.KiB}
	dst := mem.Region{Base: boundary + mem.MiB, Size: 128 * mem.KiB}
	sys.DMACopy(src, dst)

	ctr := sys.Counters()
	srcLines := src.Size / mem.Line
	wantDRAMRead := (boundary - src.Base) / mem.Line
	wantNVRAMRead := srcLines - wantDRAMRead
	if ctr.DRAMRead != wantDRAMRead || ctr.NVRAMRead != wantNVRAMRead {
		t.Errorf("split reads: got dramR=%d nvR=%d, want %d/%d",
			ctr.DRAMRead, ctr.NVRAMRead, wantDRAMRead, wantNVRAMRead)
	}
	if ctr.NVRAMWrite != srcLines {
		t.Errorf("NVRAMWrite = %d, want %d", ctr.NVRAMWrite, srcLines)
	}
	if ctr.LLCRead != 0 || ctr.LLCWrite != 0 {
		t.Errorf("DMA traffic must not count as demand: %v", ctr)
	}

	// Reference NVRAM module with identical geometry, driven per line
	// in the same order, must land on the same media counters.
	ref, err := nvram.New(sys.Platform().Channels(), sys.Platform().NVRAMSize())
	if err != nil {
		t.Fatal(err)
	}
	for a := boundary; a < src.End(); a += mem.Line {
		ref.Read(a)
	}
	for a := dst.Base; a < dst.Base+src.Size; a += mem.Line {
		ref.Write(a)
	}
	if got, want := sys.NVRAM().TotalMediaWrites(), ref.TotalMediaWrites(); got != want {
		t.Errorf("media writes = %d, want %d", got, want)
	}
	if got, want := sys.NVRAM().TotalMediaReads(), ref.TotalMediaReads(); got != want {
		t.Errorf("media reads = %d, want %d", got, want)
	}
}

// TestFastPath1LMPoolBoundary drives every 1LM dispatch form over a
// region straddling the DRAM/NVRAM pool boundary — the Range forms'
// runs, the Batch filter's scatter and DMACopy all split there — and
// requires the per-line traffic (tapped twin) byte for byte.
func TestFastPath1LMPoolBoundary(t *testing.T) {
	slow, fast := newFastpathPair(t, fastpathConfigs()["1lm"])
	boundary := slow.AddressSpace().DRAMBoundary()
	region := mem.Region{Base: boundary - 128*mem.KiB, Size: 256 * mem.KiB}
	dst := mem.Region{Base: boundary + mem.MiB, Size: region.Size}
	for _, sys := range []*System{slow, fast} {
		driveSequential(sys, region)
		driveRandom(t, sys, region)
		driveBatchMix(t, sys, region, 0xB0)
		sys.DMACopy(region, dst)
		sys.DMACopy(dst, region)
		sys.DrainLLC()
	}
	ctr := fast.Counters()
	if ctr.DRAMRead == 0 || ctr.NVRAMRead == 0 || ctr.DRAMWrite == 0 || ctr.NVRAMWrite == 0 {
		t.Fatalf("region does not exercise both pools: %v", ctr)
	}
	assertSameSystemTraffic(t, "1lm-pool-boundary", slow, fast)
}

// TestFastPathUnalignedRegions sweeps odd region shapes (non-multiple
// sizes, offset bases) so the batched line accounting matches the
// per-line loop bounds exactly, in both modes and every 2LM policy.
func TestFastPathUnalignedRegions(t *testing.T) {
	for name, cfg := range fastpathConfigs() {
		t.Run(name, func(t *testing.T) {
			for _, size := range []uint64{mem.Line, 3 * mem.Line, 100, 1000, 64*mem.KiB - 64} {
				slow, fast := newFastpathPair(t, cfg)
				region := mem.Region{Base: 128 * mem.Line, Size: size}
				slow.LoadRange(region)
				slow.StoreNTRange(region)
				fast.LoadRange(region)
				fast.StoreNTRange(region)
				slow.DrainLLC()
				fast.DrainLLC()
				assertSameSystemTraffic(t, fmt.Sprintf("size-%d", size), slow, fast)
			}
		})
	}
}
