package core

import (
	"bytes"
	"testing"

	"twolm/internal/lfsr"
	"twolm/internal/mem"
	"twolm/internal/telemetry"
)

// driveBatchMix appends an LFSR-random pass with a rotating op mix to
// the batch builder; drivePerLineMix issues the same stream through
// the per-line operations. The two must leave byte-identical state.
func driveBatchMix(t *testing.T, sys *System, region mem.Region, seed uint32) {
	t.Helper()
	b := sys.Batch()
	err := lfsr.Sequence(region.Lines(), seed, func(idx uint64) {
		addr := region.Base + idx*mem.Line
		switch idx & 7 {
		case 0, 4:
			b.Load(addr)
		case 1, 5:
			b.Store(addr)
		case 2:
			b.RMW(addr)
		case 3:
			b.StoreNT(addr)
		default:
			// The branch-free alternating form used by the random pass.
			b.LoadOrStore(addr, idx>>3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Flush()
}

func drivePerLineMix(t *testing.T, sys *System, region mem.Region, seed uint32) {
	t.Helper()
	err := lfsr.Sequence(region.Lines(), seed, func(idx uint64) {
		addr := region.Base + idx*mem.Line
		switch idx & 7 {
		case 0, 4:
			sys.load(addr)
		case 1, 5:
			sys.store(addr)
		case 2:
			sys.rmw(addr)
		case 3:
			sys.storeNT(addr)
		default:
			if (idx>>3)&1 == 0 {
				sys.load(addr)
			} else {
				sys.store(addr)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchMatchesPerLine proves the batch builder's bulk dispatch is
// byte-identical — controller counters, demand bytes, per-channel CAS,
// NVRAM media counters — to issuing the same operation stream through
// the per-line calls, in both operating modes and across every 2LM
// policy ablation at Ways 1 and 4.
func TestBatchMatchesPerLine(t *testing.T) {
	for name, cfg := range fastpathConfigs() {
		t.Run(name, func(t *testing.T) {
			slow, fast := newFastpathPair(t, cfg)
			slow.SetTap(nil) // per-line reference needs no tap
			region, err := slow.AddressSpace().Alloc(2 * slow.Platform().DRAMSize())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fast.AddressSpace().Alloc(2 * fast.Platform().DRAMSize()); err != nil {
				t.Fatal(err)
			}
			// Two passes so the second runs against the dirtied cache, plus
			// a sequential sweep in between so batched and per-line calls
			// interleave against shared state.
			for pass := uint32(0); pass < 2; pass++ {
				drivePerLineMix(t, slow, region, 0xAB+pass)
				driveBatchMix(t, fast, region, 0xAB+pass)
				slow.LoadRange(region)
				fast.LoadRange(region)
			}
			assertSameSystemTraffic(t, name, slow, fast)
		})
	}
}

// TestBatchTapFallsBackPerLine pins the tap contract: with a tap
// installed the builder routes every appended operation through the
// per-line path (so traces observe the stream exactly as generated),
// draining anything already buffered first, and counters still match
// an untapped batched run.
func TestBatchTapFallsBackPerLine(t *testing.T) {
	cfg := fastpathConfigs()["2lm-hardware"]
	tapped, batched := newFastpathPair(t, cfg)
	region, err := tapped.AddressSpace().Alloc(2 * tapped.Platform().DRAMSize())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batched.AddressSpace().Alloc(2 * batched.Platform().DRAMSize()); err != nil {
		t.Fatal(err)
	}

	// Buffer half the stream untapped, install a counting tap mid-batch,
	// and finish: the install must not lose or reorder anything.
	var seen uint64
	lines := region.Lines()
	b := tapped.Batch()
	bu := batched.Batch()
	err = lfsr.Sequence(lines, 0x51, func(idx uint64) {
		addr := region.Base + idx*mem.Line
		if idx == lines/2 {
			tapped.SetTap(func(op TapOp, addr uint64) { seen++ })
		}
		b.LoadOrStore(addr, idx)
		bu.LoadOrStore(addr, idx)
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Flush()
	bu.Flush()
	if seen == 0 {
		t.Fatal("tap observed no operations")
	}
	assertSameSystemTraffic(t, "tap-fallback", tapped, batched)
}

// TestBatchAutoFlush drives more operations than one telemetry sample
// group in one burst, forcing many automatic mid-stream chunk
// dispatches and a sample-cadence rollover, and asserts the result
// still matches per-line dispatch.
func TestBatchAutoFlush(t *testing.T) {
	cfg := fastpathConfigs()["2lm-hardware"]
	slow, fast := newFastpathPair(t, cfg)
	slow.SetTap(nil)
	region, err := slow.AddressSpace().Alloc(2 * slow.Platform().DRAMSize())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fast.AddressSpace().Alloc(2 * fast.Platform().DRAMSize()); err != nil {
		t.Fatal(err)
	}
	const ops = batchSampleOps + 4*1337
	b := fast.Batch()
	lines := region.Lines()
	for i := uint64(0); i < ops; i++ {
		addr := region.Base + (i*2654435761)%lines*mem.Line
		if i&1 == 0 {
			slow.load(addr)
			b.Load(addr)
		} else {
			slow.store(addr)
			b.Store(addr)
		}
	}
	b.Flush()
	assertSameSystemTraffic(t, "auto-flush", slow, fast)
}

// TestBatchSampleCadence pins where a System with a sink samples the
// batched path: after every batchSampleOps appended operations and at
// Flush, independent of the chunk size the builder dispatches in. The
// reference issues the same stream per line and calls maybeSample at
// those points by hand; the recorded series must be identical, so the
// telemetry trace of a batched workload cannot drift with batchChunk.
func TestBatchSampleCadence(t *testing.T) {
	cfg := fastpathConfigs()["2lm-hardware"]
	ref, batched := newFastpathPair(t, cfg)
	ref.SetTap(nil)
	batched.SetTap(nil) // the reference build taps every System
	region, err := ref.AddressSpace().Alloc(2 * ref.Platform().DRAMSize())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batched.AddressSpace().Alloc(2 * batched.Platform().DRAMSize()); err != nil {
		t.Fatal(err)
	}
	// A one-line interval makes every sampling check record a sample,
	// so the series lists exactly the points the checks ran at.
	refRec, batchRec := telemetry.NewRecorder(), telemetry.NewRecorder()
	ref.SetTelemetry(refRec, 1)
	batched.SetTelemetry(batchRec, 1)

	const ops = 3*batchSampleOps + 1337
	b := batched.Batch()
	lines := region.Lines()
	for i := uint64(0); i < ops; i++ {
		addr := region.Base + (i*2654435761)%lines*mem.Line
		if i&1 == 0 {
			ref.load(addr)
			b.Load(addr)
		} else {
			ref.store(addr)
			b.Store(addr)
		}
		if (i+1)%batchSampleOps == 0 {
			ref.maybeSample()
		}
	}
	ref.maybeSample()
	b.Flush()

	if got := batchRec.Len(); got != 4 {
		t.Fatalf("batched run recorded %d samples, want 4 (three groups and the flush)", got)
	}
	var refCSV, batchCSV bytes.Buffer
	if err := refRec.WriteCSV(&refCSV); err != nil {
		t.Fatal(err)
	}
	if err := batchRec.WriteCSV(&batchCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refCSV.Bytes(), batchCSV.Bytes()) {
		t.Errorf("sample series diverge\n ref:\n%s\n batched:\n%s", refCSV.String(), batchCSV.String())
	}
	assertSameSystemTraffic(t, "sample-cadence", ref, batched)
}
