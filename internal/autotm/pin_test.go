package autotm

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"twolm/internal/core"
	"twolm/internal/dma"
	"twolm/internal/mem"
)

// resultDigest hashes every field of a Result bit for bit: the elapsed
// time's float bits, the counters, the move volumes and spill count,
// and each series sample (time and duration bits, counter deltas,
// instructions, label).
func resultDigest(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%016x %+v %d %d %d\n", math.Float64bits(r.Elapsed), r.Counters,
		r.MoveInBytes, r.MoveOutBytes, r.Spilled)
	for _, s := range r.Series.Samples() {
		fmt.Fprintf(h, "%016x %016x %+v %d %q\n", math.Float64bits(s.Time),
			math.Float64bits(s.Dur), s.Delta, s.Instr, s.Label)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestExecutorResultsPinned pins the exact Result of the executor, with
// CPU copies and with a DMA mover, under a budget that forces movement.
// Any change to the traffic, the clock or the series changes the
// digests.
func TestExecutorResultsPinned(t *testing.T) {
	plan := buildPlan(t, 64)
	budget := mem.AlignUp(plan.HeapSize/3, mem.Line)
	engine := dma.FutureGen()
	cases := []struct {
		name  string
		mover *dma.Engine
		want  string
	}{
		{"online/cpu", nil, "57f0d89fa0cdaf35"},
		{"online/dma", &engine, "5e5f01e19b320e5a"},
	}
	for _, c := range cases {
		sys := newSystem(t, core.Mode1LM, mem.AlignUp(budget/5, mem.Line))
		res, err := Execute(plan, sys, Config{DRAMBudget: budget, Mover: c.mover})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.MoveInBytes == 0 || res.MoveOutBytes == 0 {
			t.Errorf("%s: budget forced no movement (in %d, out %d)", c.name, res.MoveInBytes, res.MoveOutBytes)
		}
		if got := resultDigest(res); got != c.want {
			t.Errorf("%s: result digest %s, want %s (elapsed %v, counters %+v, moves %d/%d, %d samples)",
				c.name, got, c.want, res.Elapsed, res.Counters, res.MoveInBytes, res.MoveOutBytes, res.Series.Len())
		}
	}
}
