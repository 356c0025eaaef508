package kernels

import (
	"fmt"
	"math"
	"testing"

	"twolm/internal/core"
	"twolm/internal/mem"
	"twolm/internal/platform"
)

// TestRunMatchesPerLineReference checks every kernel shape against the
// per-line reference. Each shape runs twice on fresh systems: untapped,
// so sequential passes take the Range forms and random passes (and the
// sequential load-then-nontemporal-store pass) go through core.Batch;
// and with a no-op tap, which forces every operation down the per-line
// path. Both runs prime the region first (clean or dirty) and measure
// two iterations over a region twice the DRAM cache, so the 2LM runs see
// clean and dirty misses. The results must agree bit for bit: counter
// deltas, elapsed time, demand bytes, per-channel CAS, NVRAM media
// counters and every sampled interval; and the demand must be the
// kernel's op mix over the region.
func TestRunMatchesPerLineReference(t *testing.T) {
	type shape struct {
		pattern mem.Pattern
		gran    int
	}
	shapes := []shape{{mem.Sequential, mem.Line}}
	for _, g := range []int{64, 128, 512} {
		shapes = append(shapes, shape{mem.Random, g})
	}
	for _, mode := range []core.Mode{core.Mode2LM, core.Mode1LM} {
		for _, op := range []Op{ReadOnly, WriteOnly, ReadModifyWrite} {
			for _, store := range []StoreType{Standard, Nontemporal} {
				for _, sh := range shapes {
					for _, dirty := range []bool{false, true} {
						spec := Spec{Op: op, Store: store, Pattern: sh.pattern,
							Granularity: sh.gran, Threads: 4, Iterations: 2, Seed: 7}
						name := fmt.Sprintf("%s/%s-%s/dirty=%t", mode, spec.Name(), store, dirty)
						t.Run(name, func(t *testing.T) {
							fast, fastRes := runPrimed(t, mode, spec, dirty, false)
							ref, refRes := runPrimed(t, mode, spec, dirty, true)
							assertSameRun(t, fast, ref, fastRes, refRes)
							// Both paths share touch, so check its op mix
							// too: every line once per iteration, twice
							// for read-modify-write.
							want := uint64(spec.Iterations) * fastRes.Region.Size
							if op == ReadModifyWrite {
								want *= 2
							}
							if fastRes.Demand != want {
								t.Errorf("Demand = %d, want %d", fastRes.Demand, want)
							}
						})
					}
				}
			}
		}
	}
}

// runPrimed primes a fresh small system for spec and measures it, with
// or without a no-op tap installed from the start.
func runPrimed(t *testing.T, mode core.Mode, spec Spec, dirty, tapped bool) (*core.System, Result) {
	t.Helper()
	sys, err := core.New(core.Config{
		Platform: platform.Config{
			Sockets:           1,
			ChannelsPerSocket: 6,
			DRAMPerChannel:    128 * mem.KiB,
			NVRAMPerChannel:   8 * mem.MiB,
			Scale:             1,
			Threads:           24,
		},
		Mode:     mode,
		LLCBytes: 16 * mem.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tapped {
		sys.SetTap(func(core.TapOp, uint64) {})
	}
	region := alloc(t, sys, 2*sys.Platform().DRAMSize())
	if err := PrimeFor(sys, region, spec, dirty); err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, region, spec)
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

func assertSameRun(t *testing.T, a, b *core.System, ar, br Result) {
	t.Helper()
	if ar.Delta != br.Delta {
		t.Errorf("Delta diverges\n batched:  %v\n per-line: %v", ar.Delta, br.Delta)
	}
	if math.Float64bits(ar.Elapsed) != math.Float64bits(br.Elapsed) {
		t.Errorf("Elapsed diverges: %v vs %v", ar.Elapsed, br.Elapsed)
	}
	if ar.Demand != br.Demand {
		t.Errorf("Demand diverges: %d vs %d", ar.Demand, br.Demand)
	}
	ach, bch := a.DRAM().ChannelCounters(), b.DRAM().ChannelCounters()
	for i := range ach {
		if ach[i] != bch[i] {
			t.Errorf("channel %d CAS diverges: %+v vs %+v", i, ach[i], bch[i])
		}
	}
	type media struct{ r, w, mr, mw uint64 }
	am := media{a.NVRAM().TotalReads(), a.NVRAM().TotalWrites(),
		a.NVRAM().TotalMediaReads(), a.NVRAM().TotalMediaWrites()}
	bm := media{b.NVRAM().TotalReads(), b.NVRAM().TotalWrites(),
		b.NVRAM().TotalMediaReads(), b.NVRAM().TotalMediaWrites()}
	if am != bm {
		t.Errorf("NVRAM media counters diverge: %+v vs %+v", am, bm)
	}
	as, bs := a.Series().Samples(), b.Series().Samples()
	if len(as) == 0 {
		t.Fatal("no sampled intervals")
	}
	if len(as) != len(bs) {
		t.Fatalf("%d samples vs %d", len(as), len(bs))
	}
	for i := range as {
		x, y := as[i], bs[i]
		if math.Float64bits(x.Time) != math.Float64bits(y.Time) ||
			math.Float64bits(x.Dur) != math.Float64bits(y.Dur) ||
			x.Delta != y.Delta || x.Instr != y.Instr || x.Label != y.Label {
			t.Errorf("sample %d diverges:\n batched:  %+v\n per-line: %+v", i, x, y)
		}
	}
}
