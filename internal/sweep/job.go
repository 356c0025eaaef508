package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"

	"twolm/internal/jobspec"
	"twolm/internal/telemetry"
)

// Result is one executed jobspec: the lowered axes, the merged result
// rows, and the serialized artifacts the spec's telemetry section
// asked for. The artifact bytes are rendered here, in one place, so
// every consumer — cmd/repro -job, a simd job fetched over HTTP — returns
// byte-identical output for the same spec.
type Result struct {
	// Spec is the normalized sweep form the job lowered to.
	Spec Spec
	// Rows is the merged result table in point order (the Result's own
	// copy, stable after the runner is reused).
	Rows []Row
	// Lines is the total demand lines across all points.
	Lines uint64

	// CSV and JSON are the rendered result table, present when the
	// spec's telemetry.formats asked for that serialization.
	CSV  []byte
	JSON []byte
	// TraceCSV and TraceJSON are the sampled bandwidth trace, present
	// only for single-point jobs with telemetry.sample_lines set (a
	// grid's points would interleave nondeterministically, so grids
	// never trace).
	TraceCSV  []byte
	TraceJSON []byte
}

// RunJob executes one validated jobspec end to end: lower to axes,
// expand, run on the pooled arena, render the requested artifacts.
// This is the single execution path behind both front ends.
//
// pool, when non-nil, replaces the runner's private arena — the simd
// service passes its fleet-wide pool here so every admitted job
// recycles the same controllers. workers sizes the engine pool for
// grid jobs; traced single-point jobs always run serially so the
// sample stream is deterministic. ctx cancellation (per-job deadline,
// server drain) aborts mid-grid and returns ctx.Err with every rig
// back in the arena Reset-clean.
func RunJob(ctx context.Context, j jobspec.Spec, workers int, pool *Arena) (*Result, error) {
	sp, err := FromSpec(j)
	if err != nil {
		return nil, err
	}
	r, err := New(sp)
	if err != nil {
		return nil, err
	}
	if pool != nil {
		r.Pool = pool
	}
	n := j.Normalized()
	var rec *telemetry.Recorder
	if n.Telemetry.SampleLines > 0 && len(r.Points()) == 1 {
		rec = telemetry.NewRecorder()
		r.Trace = rec
		r.TraceEvery = n.Telemetry.SampleLines
		workers = 1
	}
	rows, err := r.Run(ctx, workers, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: r.Spec(), Rows: append([]Row(nil), rows...)}
	for i := range res.Rows {
		res.Lines += res.Rows[i].Lines
	}
	var buf bytes.Buffer
	if j.WantsFormat(jobspec.FormatCSV) {
		if err := WriteCSV(&buf, res.Rows); err != nil {
			return nil, err
		}
		res.CSV = append([]byte(nil), buf.Bytes()...)
		if rec != nil {
			buf.Reset()
			if err := rec.WriteCSV(&buf); err != nil {
				return nil, err
			}
			res.TraceCSV = append([]byte(nil), buf.Bytes()...)
		}
	}
	if j.WantsFormat(jobspec.FormatJSON) {
		buf.Reset()
		if err := WriteJSON(&buf, res.Rows); err != nil {
			return nil, err
		}
		res.JSON = append([]byte(nil), buf.Bytes()...)
		if rec != nil {
			buf.Reset()
			if err := rec.WriteJSON(&buf); err != nil {
				return nil, err
			}
			res.TraceJSON = append([]byte(nil), buf.Bytes()...)
		}
	}
	return res, nil
}

// Write persists every rendered artifact under dir using the jobspec
// artifact-name contract (job_results.csv / job_results.json and, for
// traced jobs, job_trace.csv / job_trace.json), creating dir as
// needed.
func (res *Result) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name string
		data []byte
	}{
		{jobspec.ResultCSVName, res.CSV},
		{jobspec.ResultJSONName, res.JSON},
		{jobspec.TraceCSVName, res.TraceCSV},
		{jobspec.TraceJSONName, res.TraceJSON},
	}
	for _, f := range files {
		if f.data == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
