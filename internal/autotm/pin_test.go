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

// TestExecutorResultsPinned pins the exact Result of the online and the
// static executor, with CPU copies and with a DMA mover, under a budget
// that forces movement. The digests were recorded before Execute and
// ExecuteStatic shared one kernel loop; any change to the traffic, the
// clock or the series of either executor changes them.
func TestExecutorResultsPinned(t *testing.T) {
	plan := buildPlan(t, 64)
	budget := mem.AlignUp(plan.HeapSize/3, mem.Line)
	sp, err := SolveGreedy(plan, budget)
	if err != nil {
		t.Fatal(err)
	}
	engine := dma.FutureGen()
	cases := []struct {
		name   string
		static bool
		mover  *dma.Engine
		want   string
	}{
		{"online/cpu", false, nil, "57f0d89fa0cdaf35"},
		{"online/dma", false, &engine, "5e5f01e19b320e5a"},
		{"static/cpu", true, nil, "3865b492761ac44d"},
		{"static/dma", true, &engine, "2ed0eee0650f879b"},
	}
	for _, c := range cases {
		sys := newSystem(t, core.Mode1LM, mem.AlignUp(budget/5, mem.Line))
		cfg := Config{DRAMBudget: budget, Mover: c.mover}
		var res *Result
		if c.static {
			res, err = ExecuteStatic(plan, sys, sp, cfg)
		} else {
			res, err = Execute(plan, sys, cfg)
		}
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
