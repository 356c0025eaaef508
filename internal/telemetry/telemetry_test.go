package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func sampleAt(demand uint64) Sample {
	return Sample{
		Demand:   demand,
		LLCRead:  demand / 2,
		LLCWrite: demand - demand/2,
		DRAMRead: demand * 2, DRAMWrite: demand,
		NVRAMRead: demand / 4, NVRAMWrite: demand / 8,
		TagHit: demand / 2, TagMissClean: demand / 4, TagMissDirty: demand / 8,
		DDO: demand / 16,
	}
}

func TestSubClampsAndDiffs(t *testing.T) {
	a := sampleAt(100)
	a.Clock = 1.5
	a.ChannelReads = []uint64{10, 20}
	a.ChannelWrites = []uint64{1, 2}
	b := sampleAt(300)
	b.Clock = 2.0
	b.ChannelReads = []uint64{15, 29}
	b.ChannelWrites = []uint64{4, 4}

	d := b.Sub(a)
	if d.Demand != 200 || d.DRAMRead != 400 || d.Clock != 0.5 {
		t.Fatalf("unexpected delta: %+v", d)
	}
	if d.ChannelReads[0] != 5 || d.ChannelReads[1] != 9 || d.ChannelWrites[0] != 3 {
		t.Fatalf("unexpected channel delta: %+v", d)
	}

	// Subtracting a later sample clamps at zero instead of wrapping.
	c := a.Sub(b)
	if c.Demand != 0 || c.DRAMRead != 0 || c.Clock != 0 {
		t.Fatalf("expected clamped delta, got %+v", c)
	}
}

func TestBandwidthHelpers(t *testing.T) {
	d := Sample{DRAMRead: 1000, Clock: 2}
	want := float64(1000*lineBytes) / 2
	if bw := d.DRAMReadBW(); bw != want {
		t.Fatalf("DRAMReadBW = %v, want %v", bw, want)
	}
	if bw := (Sample{DRAMRead: 5}).DRAMReadBW(); bw != 0 {
		t.Fatalf("zero-duration bandwidth should be 0, got %v", bw)
	}
	s := Sample{Demand: 10, DRAMRead: 15, NVRAMWrite: 5}
	if s.MemoryAccesses() != 20 {
		t.Fatalf("MemoryAccesses = %d, want 20", s.MemoryAccesses())
	}
	if s.Amplification() != 2 {
		t.Fatalf("Amplification = %v, want 2", s.Amplification())
	}
	if (Sample{}).Amplification() != 0 {
		t.Fatal("zero-demand amplification should be 0")
	}
}

func TestTeeAndWithLabel(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("Tee of no sinks should be nil")
	}
	r1, r2 := NewRecorder(), NewRecorder()
	if got := Tee(nil, r1); got != Sink(r1) {
		t.Fatal("Tee of one sink should return it directly")
	}
	sink := WithLabel(Tee(r1, r2), "phase")
	sink.Record(Sample{Demand: 1})
	sink.Record(Sample{Demand: 2, Label: "explicit"})
	for _, r := range []*Recorder{r1, r2} {
		if r.Len() != 2 {
			t.Fatalf("recorder got %d samples, want 2", r.Len())
		}
		if r.Samples()[0].Label != "phase" || r.Samples()[1].Label != "explicit" {
			t.Fatalf("labels not stamped as expected: %+v", r.Samples())
		}
	}
	if WithLabel(nil, "x") != nil {
		t.Fatal("WithLabel(nil) should stay nil")
	}
}

// tick and flush drive sp the way a producer does: check, then emit a
// sample at demand d. tick is the per-range hook, flush the tail.
func tick(sp *Sampler, d uint64) bool {
	if !sp.On() || !sp.Due(d) {
		return false
	}
	sp.Emit(sampleAt(d))
	return true
}

func flush(sp *Sampler, d uint64) bool {
	if !sp.Pending(d) {
		return false
	}
	sp.Emit(sampleAt(d))
	return true
}

func TestSamplerBoundaries(t *testing.T) {
	rec := NewRecorder()
	var sp Sampler
	if tick(&sp, 100) || flush(&sp, 100) {
		t.Fatal("a detached sampler must never sample")
	}
	sp.Attach(rec, 100, 0)

	if tick(&sp, 50) {
		t.Fatal("should not sample below the first boundary")
	}
	if !tick(&sp, 100) {
		t.Fatal("should sample at the boundary")
	}
	// Crossing several boundaries at once collapses into one sample.
	if !tick(&sp, 450) {
		t.Fatal("should sample after skipping boundaries")
	}
	if tick(&sp, 460) {
		t.Fatal("next boundary should be 500 after sampling at 450")
	}
	// Flush records the partial tail exactly once.
	if !flush(&sp, 460) {
		t.Fatal("flush with advanced demand should record")
	}
	if flush(&sp, 460) {
		t.Fatal("second flush without progress should not record")
	}
	// Rewind restarts the phase at demand 0: the tail is pending again
	// and the first boundary is 100 once more.
	sp.Rewind()
	if tick(&sp, 99) || !tick(&sp, 100) {
		t.Fatal("rewind should restart the boundaries at 0")
	}
	demands := []uint64{}
	for _, s := range rec.Samples() {
		demands = append(demands, s.Demand)
	}
	want := []uint64{100, 450, 460, 100}
	if len(demands) != len(want) {
		t.Fatalf("recorded demands %v, want %v", demands, want)
	}
	for i := range want {
		if demands[i] != want[i] {
			t.Fatalf("recorded demands %v, want %v", demands, want)
		}
	}
}

func TestSamplerEveryZeroRecordsEachTick(t *testing.T) {
	var sp Sampler
	sp.Attach(NewRecorder(), 0, 0)
	if !tick(&sp, 1) {
		t.Fatal("every=0 should record on each advancing tick")
	}
	if tick(&sp, 1) {
		t.Fatal("every=0 should not re-record without progress")
	}
	if !tick(&sp, 2) {
		t.Fatal("every=0 should record after progress")
	}
}

func TestNextBoundary(t *testing.T) {
	cases := []struct{ demand, every, want uint64 }{
		{0, 100, 100},
		{99, 100, 100},
		{100, 100, 200},
		{450, 100, 500},
		{7, 0, 8},
	}
	for _, c := range cases {
		if got := NextBoundary(c.demand, c.every); got != c.want {
			t.Fatalf("NextBoundary(%d,%d) = %d, want %d", c.demand, c.every, got, c.want)
		}
	}
}

// TestRecorderCSVDeltas: the CSV's d_demand column is each sample
// minus the one before it, the first against zero.
func TestRecorderCSVDeltas(t *testing.T) {
	r := NewRecorder()
	r.Record(sampleAt(100))
	r.Record(sampleAt(300))
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	col := slices.Index(strings.Split(lines[0], ","), "d_demand")
	if len(lines) != 3 || col < 0 {
		t.Fatalf("unexpected CSV:\n%s", buf.String())
	}
	for i, want := range []string{"100", "200"} {
		if got := strings.Split(lines[i+1], ",")[col]; got != want {
			t.Errorf("row %d d_demand = %s, want %s", i, got, want)
		}
	}
}

func recordDemo(r *Recorder) {
	s1 := sampleAt(1000)
	s1.Clock = 0.001
	s1.ChannelReads = []uint64{500, 600}
	s1.ChannelWrites = []uint64{100, 120}
	s2 := sampleAt(2000)
	s2.Clock = 0.002
	s2.Label = "phase,two" // exercises CSV quoting
	s2.ChannelReads = []uint64{900, 1100}
	s2.ChannelWrites = []uint64{220, 250}
	r.Record(s1)
	r.Record(s2)
}

func TestRecorderWritersDeterministic(t *testing.T) {
	render := func() (string, string) {
		r := NewRecorder()
		recordDemo(r)
		var csv, js bytes.Buffer
		if err := r.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return csv.String(), js.String()
	}
	csv1, js1 := render()
	csv2, js2 := render()
	if csv1 != csv2 || js1 != js2 {
		t.Fatal("recorder serialization is not deterministic across runs")
	}
	if !strings.Contains(csv1, `"phase,two"`) {
		t.Fatalf("CSV should quote the comma-bearing label:\n%s", csv1)
	}
	if !strings.Contains(csv1, "ch1_writes") {
		t.Fatalf("CSV should carry per-channel columns:\n%s", csv1)
	}
	if !strings.Contains(js1, `"demand": 2000`) {
		t.Fatalf("JSON should carry cumulative samples:\n%s", js1)
	}
}

func TestWriteCSVRowsQuoting(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSVRows(&buf,
		[]string{"a", "b"},
		[][]string{{`plain`, `has,comma`}, {`has"quote`, "has\nnewline"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\nplain,\"has,comma\"\n\"has\"\"quote\",\"has\nnewline\"\n"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
}

func TestWriteJSONEmptySeries(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRecorder().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("empty series should serialize as [], got %q", buf.String())
	}
}

func TestTraceSinkWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	ts := NewTraceSink(filepath.Join(dir, "results"), "trace_demo")
	recordDemo(&ts.Recorder)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trace_demo.csv", "trace_demo.json"} {
		b, err := os.ReadFile(filepath.Join(dir, "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}
