package engine

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"twolm/internal/core"
	"twolm/internal/telemetry"
)

// renderSeries serializes a recorded series both ways for byte-level
// comparison.
func renderSeries(t *testing.T, rec *telemetry.Recorder) (csv, js []byte) {
	t.Helper()
	var cbuf, jbuf bytes.Buffer
	if err := rec.WriteCSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	return cbuf.Bytes(), jbuf.Bytes()
}

// TestTelemetrySeqFoldBoundaries pins telemetry byte-identity across
// the closed-form sequential fold: a system streaming SeqPass through
// the folded Range paths and a system forced down the per-line demand
// path by an installed tap record byte-identical Recorder CSV and JSON
// series — in both operating modes, at sampling intervals chosen to
// land mid-segment (inside the fold's probe wrap and uniform remainder)
// so the demand-line boundary chunking is what is being compared.
func TestTelemetrySeqFoldBoundaries(t *testing.T) {
	for _, mode := range []core.Mode{core.Mode2LM, core.Mode1LM} {
		for _, every := range []uint64{777, 4096} {
			run := func(perLine bool) (csv, js []byte) {
				sys, region, err := NewThroughputSystem(mode, 8192)
				if err != nil {
					t.Fatal(err)
				}
				if perLine {
					sys.SetTap(func(op core.TapOp, addr uint64) {})
				}
				rec := telemetry.NewRecorder()
				sys.SetTelemetry(rec, every)
				for pass := 0; pass < 2; pass++ {
					SeqPass(sys, region)
				}
				sys.FlushTelemetry()
				if rec.Len() == 0 {
					t.Fatalf("mode=%v every=%d perLine=%v: no samples recorded", mode, every, perLine)
				}
				return renderSeries(t, rec)
			}
			foldCSV, foldJSON := run(false)
			lineCSV, lineJSON := run(true)
			if !bytes.Equal(foldCSV, lineCSV) {
				t.Errorf("mode=%v every=%d: CSV series diverge between folded and per-line runs", mode, every)
			}
			if !bytes.Equal(foldJSON, lineJSON) {
				t.Errorf("mode=%v every=%d: JSON series diverge between folded and per-line runs", mode, every)
			}
		}
	}
}

// TestRunJobsObserved: the completion callback fires once per job on
// both the serial and pooled paths, and outcomes stay in job order.
func TestRunJobsObserved(t *testing.T) {
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Name: string(rune('a' + i)), Run: func(context.Context) ([]Artifact, error) { return nil, nil }}
	}
	for _, workers := range []int{1, 4} {
		var seen int
		var mu sync.Mutex
		outs := RunJobsObserved(context.Background(), jobs, workers, func(o Outcome) {
			mu.Lock()
			seen++
			mu.Unlock()
		})
		if seen != len(jobs) {
			t.Errorf("workers=%d: observed %d completions, want %d", workers, seen, len(jobs))
		}
		for i, o := range outs {
			if o.Job != jobs[i].Name {
				t.Errorf("workers=%d: outcome %d is %q, want %q", workers, i, o.Job, jobs[i].Name)
			}
		}
	}
}
