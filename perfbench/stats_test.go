package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so tail must sort
	}
	return s
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		level float64
		value float64
		ok    bool
	}{
		{1000, 99, 990, true}, // exactly ten beyond p99
		{999, 95, 950, true},  // nine beyond p99 is too few
		{100, 90, 90, true},   // ten beyond p90
		{20, 50, 10, true},    // ten beyond the median
		{19, 0, 0, false},     // no level has ten beyond it
		{1, 0, 0, false},      // a single sample has no tail
		{20000, 99.9, 19980, true},
	} {
		level, value, ok := tail(seq(tc.n))
		if level != tc.level || value != tc.value || ok != tc.ok {
			t.Errorf("tail(n=%d) = (p%g, %g, %v), want (p%g, %g, %v)", tc.n, level, value, ok, tc.level, tc.value, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g, want 0", got)
	}
}

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(10)},
		// Overlapping children count once: [1,5] and [7,8].
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Name: "a", Start: ms(2), End: ms(5)},
		{ID: 4, Parent: 1, Name: "b", Start: ms(7), End: ms(8)},
		// A child running past its parent is clipped to [9,10].
		{ID: 5, Parent: 1, Name: "c", Start: ms(9), End: ms(12)},
		// A grandchild reduces only its own parent.
		{ID: 6, Parent: 3, Name: "d", Start: ms(3), End: ms(4)},
		// An unclosed span contributes nothing.
		{ID: 7, Parent: 1, Name: "e", Start: ms(5), End: -1},
	}
	got := selfTimes(spans)
	want := map[string]float64{"root": 0.004, "a": 0.004, "b": 0.001, "c": 0.003, "d": 0.001}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("self(%s) = %g, want %g", name, got[name], w)
		}
	}
	if _, ok := got["e"]; ok {
		t.Errorf("unclosed span e has a self time")
	}
	layers := layerSelf(map[string]float64{"imc.fold": 1, "imc.scatter": 2, "lfsr.fill": 4, "core": 8})
	if layers["imc"] != 3 || layers["lfsr"] != 4 || layers["core"] != 8 {
		t.Errorf("layerSelf = %v", layers)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, 1)
	child := tr.begin("child", root, 1)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	self := tr.selfTimes()
	if self["child"] < 0.002 {
		t.Errorf("child self time %g, want >= 2ms", self["child"])
	}
	if self["root"] >= self["child"] {
		t.Errorf("root self time %g not reduced by its child's %g", self["root"], self["child"])
	}
	if err := tr.write(t.TempDir(), "spans"); err != nil {
		t.Fatal(err)
	}
}

func TestGrowing(t *testing.T) {
	flat := []float64{2, 3, 2, 1, 3, 2, 2, 3}
	if growing(flat) {
		t.Errorf("flat depths reported growing")
	}
	var ramp []float64
	for i := 0; i < 40; i++ {
		ramp = append(ramp, float64(i))
	}
	if !growing(ramp) {
		t.Errorf("ramp 0..39 not reported growing")
	}
	if growing([]float64{0, 100}) {
		t.Errorf("two samples cannot show growth")
	}
}

func TestMaxSustained(t *testing.T) {
	ok := func(rate float64) stepResult {
		return stepResult{rate: rate, tailLevel: 99, tailMS: latencyLimitMS, sentTailMS: latencyLimitMS, depths: []float64{0, 0, 0, 0}}
	}
	slow := ok(800)
	slow.tailMS, slow.sentTailMS = latencyLimitMS+1, latencyLimitMS+1
	backlog := ok(800)
	backlog.depths = []float64{0, 0, 0, 10, 20, 30, 40, 50}
	failed := ok(800)
	failed.failed = 1
	aborted := ok(800)
	aborted.aborted = true
	few := ok(800)
	few.tailLevel = 0
	grew := ok(800)
	grew.grew = true
	// The generator sent late: the step misses the limit from the due
	// times, meets it from the sends, and the queue stayed flat.
	genBound := ok(400)
	genBound.tailMS = 3 * latencyLimitMS
	// Late sends with a growing queue are the server's doing.
	lateBacklog := backlog
	lateBacklog.tailMS = 3 * latencyLimitMS

	for _, tc := range []struct {
		name  string
		steps []stepResult
		want  float64
	}{
		{"all sustained", []stepResult{ok(200), ok(400), ok(800), ok(1600)}, 1600},
		{"latency limit", []stepResult{ok(200), ok(400), slow}, 400},
		{"growing backlog", []stepResult{ok(200), ok(400), backlog}, 400},
		{"failed job", []stepResult{ok(200), ok(400), failed}, 400},
		{"aborted step", []stepResult{ok(200), ok(400), aborted}, 400},
		{"no tail samples", []stepResult{ok(200), ok(400), few}, 400},
		{"merged sub-step grew", []stepResult{ok(200), ok(400), grew}, 400},
		{"first step fails", []stepResult{slow}, 0},
		{"sustained after a miss does not count", []stepResult{ok(200), slow, ok(1600)}, 200},
		{"generator-bound step left out", []stepResult{ok(200), genBound, ok(800)}, 800},
		{"late sends with a backlog count", []stepResult{ok(200), ok(400), lateBacklog}, 400},
	} {
		if got := maxSustained(tc.steps); got != tc.want {
			t.Errorf("%s: maxSustained = %g, want %g", tc.name, got, tc.want)
		}
	}
}
