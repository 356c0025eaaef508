package perfcounter

import (
	"fmt"
	"strings"
	"testing"

	"twolm/internal/imc"
)

func TestSampleBandwidths(t *testing.T) {
	s := Sample{
		Dur:   0.5,
		Delta: imc.Counters{DRAMRead: 1000, DRAMWrite: 500, NVRAMRead: 250, NVRAMWrite: 125},
	}
	if got := s.DRAMReadBW(); got != float64(1000*64)/0.5 {
		t.Errorf("DRAMReadBW = %g", got)
	}
	if got := s.NVRAMWriteBW(); got != float64(125*64)/0.5 {
		t.Errorf("NVRAMWriteBW = %g", got)
	}
	zero := Sample{}
	if zero.DRAMReadBW() != 0 || zero.MIPS() != 0 {
		t.Error("zero-duration sample should report 0 rates")
	}
}

func TestSampleMIPS(t *testing.T) {
	s := Sample{Dur: 2, Instr: 4e9}
	if got := s.MIPS(); got != 2000 {
		t.Errorf("MIPS = %g, want 2000", got)
	}
}

func TestSeriesTotalsAndDuration(t *testing.T) {
	var ts Series
	ts.Append(Sample{Time: 1, Dur: 1, Delta: imc.Counters{DRAMRead: 10, TagHit: 5}})
	ts.Append(Sample{Time: 2, Dur: 1, Delta: imc.Counters{DRAMRead: 20, TagMissDirty: 3}})
	total := ts.Total()
	if total.DRAMRead != 30 || total.TagHit != 5 || total.TagMissDirty != 3 {
		t.Errorf("Total = %v", total)
	}
	if ts.Duration() != 2 {
		t.Errorf("Duration = %g, want 2", ts.Duration())
	}
	if ts.Len() != 2 {
		t.Errorf("Len = %d, want 2", ts.Len())
	}
}

// TestSinceCopies: Since holds the samples from i on, and neither
// later appends to the source nor writes to the copy reach the other.
func TestSinceCopies(t *testing.T) {
	var src Series
	for i := range 4 {
		src.Append(Sample{Time: float64(i), Label: fmt.Sprint(i)})
	}
	tail := src.Since(1)
	if tail.Len() != 3 || tail.Samples()[0].Label != "1" || tail.Samples()[2].Label != "3" {
		t.Fatalf("Since(1) = %v, want samples 1..3", tail.Samples())
	}
	src.Append(Sample{Label: "4"})
	tail.Samples()[0].Label = "x"
	if tail.Len() != 3 {
		t.Errorf("an append to the source grew the copy to %d samples", tail.Len())
	}
	if src.Samples()[1].Label != "1" {
		t.Errorf("a write to the copy reached the source: %q", src.Samples()[1].Label)
	}
	if all := src.Since(0); all.Len() != 5 {
		t.Errorf("Since(0) has %d samples, want 5", all.Len())
	}
}

func TestRebin(t *testing.T) {
	var ts Series
	for i := 0; i < 10; i++ {
		ts.Append(Sample{Time: float64(i+1) * 0.1, Dur: 0.1, Delta: imc.Counters{DRAMRead: 1}, Instr: 10})
	}
	binned := ts.Rebin(0.5)
	if binned.Len() != 2 {
		t.Fatalf("Rebin produced %d bins, want 2", binned.Len())
	}
	for _, b := range binned.Samples() {
		if b.Delta.DRAMRead != 5 || b.Instr != 50 {
			t.Errorf("bin = %+v, want 5 reads / 50 instr", b)
		}
	}
	// Totals must be conserved.
	if binned.Total() != ts.Total() {
		t.Error("Rebin lost counter events")
	}
	// Degenerate widths return the original series.
	if ts.Rebin(0) != &ts {
		t.Error("Rebin(0) should be identity")
	}
}

func TestRebinConservesPartialTail(t *testing.T) {
	var ts Series
	for i := 0; i < 7; i++ {
		ts.Append(Sample{Time: float64(i+1) * 0.1, Dur: 0.1, Delta: imc.Counters{NVRAMWrite: 2}})
	}
	binned := ts.Rebin(0.3)
	if binned.Total().NVRAMWrite != 14 {
		t.Errorf("partial tail dropped: total = %v", binned.Total())
	}
}

func TestWriteCSV(t *testing.T) {
	var ts Series
	ts.Append(Sample{Time: 0.5, Dur: 0.5, Delta: imc.Counters{DRAMRead: 100, TagHit: 7}, Label: "conv1"})
	var sb strings.Builder
	if err := ts.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_s,") {
		t.Errorf("missing header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "conv1") || !strings.Contains(lines[1], ",7,") {
		t.Errorf("row missing fields: %q", lines[1])
	}
}
