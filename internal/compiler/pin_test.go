package compiler

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"twolm/internal/core"
	"twolm/internal/mem"
	"twolm/internal/platform"
)

// TestExecuteResultPinned pins the exact ExecResult of a 2LM execution
// with one warmup iteration and a DRAM cache below the footprint: the elapsed time's float bits, the
// counters and every series sample. Any change to the kernel step's
// traffic, stream count, clock or labels changes the digest.
func TestExecuteResultPinned(t *testing.T) {
	plan := compileTiny(t, 16, 1)
	sys, err := core.New(core.Config{
		Platform: platform.Config{
			Sockets: 1, ChannelsPerSocket: 6,
			DRAMPerChannel:  32 * mem.KiB, // below the footprint: misses and victims
			NVRAMPerChannel: 64 * mem.MiB,
			Scale:           1, Threads: 24,
		},
		Mode:     core.Mode2LM,
		LLCBytes: 16 * mem.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(plan, sys, ExecConfig{WarmupIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%016x %+v %+v\n", math.Float64bits(res.Elapsed), res.Counters, res.Heap)
	for _, s := range res.Series.Samples() {
		fmt.Fprintf(h, "%016x %016x %+v %d %q\n", math.Float64bits(s.Time),
			math.Float64bits(s.Dur), s.Delta, s.Instr, s.Label)
	}
	const want = "223e20e22db6efd0"
	if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want {
		t.Errorf("result digest %s, want %s (elapsed %v, counters %+v, %d samples)",
			got, want, res.Elapsed, res.Counters, res.Series.Len())
	}
}
