package core

import (
	"testing"

	"twolm/internal/imc"
	"twolm/internal/mem"
)

// missSystem returns a 2LM system with a primed over-capacity array so
// that a read pass generates NVRAM traffic.
func missSystem(t *testing.T) (*System, mem.Region) {
	t.Helper()
	s := newSystem(t, Mode2LM)
	arr, err := s.AddressSpace().Alloc(4 * s.Platform().DRAMSize())
	if err != nil {
		t.Fatal(err)
	}
	s.StoreNTRange(arr) // prime dirty
	s.ResetStats()
	return s, arr
}

// TestStreamsDegradeNVRAMTime: the same dirty-miss traffic takes
// longer when the workload interleaves many address streams (Optane
// combining-buffer thrash).
func TestStreamsDegradeNVRAMTime(t *testing.T) {
	elapsed := func(streams int) float64 {
		s, arr := missSystem(t)
		s.SetStreams(streams)
		s.SetTraffic(mem.Sequential, mem.Line)
		s.StoreNTRange(arr)
		return s.Sync("x", 0).Dur
	}
	one := elapsed(1)
	six := elapsed(6)
	if six <= one {
		t.Errorf("6-stream pass (%.4fs) not slower than 1-stream (%.4fs)", six, one)
	}
	if six > 6*one {
		t.Errorf("6-stream penalty implausibly large: %.4f vs %.4f", six, one)
	}
}

// TestStreamsCongestionBounded: multi-stream random reads may slow
// down through IMC congestion (DRAM and NVRAM busy times serialize),
// but never beyond the serialized sum — the device bandwidth itself is
// stream-independent for random traffic.
func TestStreamsCongestionBounded(t *testing.T) {
	elapsed := func(streams int) float64 {
		s := newSystem(t, Mode2LM)
		arr, err := s.AddressSpace().Alloc(4 * s.Platform().DRAMSize())
		if err != nil {
			t.Fatal(err)
		}
		s.LoadRange(arr) // prime clean
		s.ResetStats()
		s.SetStreams(streams)
		s.SetTraffic(mem.Random, mem.Line)
		s.LoadRange(arr)
		return s.Sync("x", 0).Dur
	}
	one := elapsed(1)
	eight := elapsed(8)
	if eight < one {
		t.Errorf("congestion made things faster: %.5f vs %.5f", eight, one)
	}
	// Serialization can at most double a balanced interval.
	if eight > 2*one {
		t.Errorf("congestion exceeded the serialized bound: %.5f vs %.5f", eight, one)
	}
}

// TestMLPBoundsIssue: a dependency-limited workload (low MLP) takes
// longer than the hardware-MLP default on hit-dominated traffic.
func TestMLPBoundsIssue(t *testing.T) {
	elapsed := func(mlp float64) float64 {
		s := newSystem(t, Mode2LM)
		arr, _ := s.AddressSpace().Alloc(s.Platform().DRAMSize() / 2)
		s.LoadRange(arr)
		s.ResetStats()
		s.SetMLP(mlp)
		s.SetTraffic(mem.Random, mem.Line)
		s.SetThreads(4)
		s.LoadRange(arr)
		return s.Sync("x", 0).Dur
	}
	def := elapsed(0)
	limited := elapsed(1)
	if limited <= def {
		t.Errorf("MLP-1 pass (%.5fs) not slower than default (%.5fs)", limited, def)
	}
	// Negative values clamp to "default".
	if clamped := elapsed(-3); clamped != def {
		t.Errorf("negative MLP not treated as default: %.5f vs %.5f", clamped, def)
	}
}

// TestSetStreamsClamping: stream counts clamp into [1, 8].
func TestSetStreamsClamping(t *testing.T) {
	s := newSystem(t, Mode2LM)
	s.SetStreams(-1)
	if s.streams != 1 {
		t.Errorf("streams = %d, want 1", s.streams)
	}
	s.SetStreams(100)
	if s.streams != 8 {
		t.Errorf("streams = %d, want 8", s.streams)
	}
}

// Test2LMCongestionSerializesDRAMAndNVRAM: with many streams, a mixed
// DRAM+NVRAM interval takes at least the sum of the two busy times.
func Test2LMCongestionSerializesDRAMAndNVRAM(t *testing.T) {
	run := func(streams int) float64 {
		s, arr := missSystem(t)
		s.SetStreams(streams)
		s.SetTraffic(mem.Sequential, mem.Line)
		s.LoadRange(arr)
		return s.Sync("x", 0).Dur
	}
	low := run(2)  // max(dram, nvram)
	high := run(6) // dram + degraded nvram
	if high <= low {
		t.Errorf("congested interval (%.4f) not longer than uncongested (%.4f)", high, low)
	}
}

// TestDisableDDOIncreasesTraffic is the controller-level ablation at
// system scope: the same standard-store workload costs more DRAM reads
// without the optimization.
func TestDisableDDOIncreasesTraffic(t *testing.T) {
	run := func(disable bool) uint64 {
		cfg := testConfig(Mode2LM)
		policy := imc.HardwarePolicy()
		policy.DisableDDO = disable
		cfg.Policy = &policy
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		arr, _ := s.AddressSpace().Alloc(s.Platform().DRAMSize() / 2)
		s.LoadRange(arr) // prime + grant ownership via loads
		s.StoreRange(arr)
		s.DrainLLC()
		return s.Counters().DRAMRead
	}
	with := run(false)
	without := run(true)
	if without <= with {
		t.Errorf("disabling DDO did not add tag-check reads: %d vs %d", without, with)
	}
}
