package sweep

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"twolm/internal/engine"
	"twolm/internal/jobspec"
	"twolm/internal/mem"
)

// testSpec is a small grid covering every pattern, all four policy
// ablations and both associativities — the acceptance matrix at sweep
// granularity.
func testSpec() Spec {
	return Spec{
		Name: "test",
		Axes: jobspec.Axes{
			CacheKiB: []uint64{64, 128},
			Ways:     []int{1, 4},
			Policies: []string{PolicyHardware, PolicyNoWriteAllocate, PolicyNoReadAllocate, PolicyDDOOff},
			Ratios:   []uint64{2},
			Patterns: []string{PatternSequential, PatternRandom, PatternWrite},
			Seeds:    []uint32{0x2B1A, 0xBEEF},
			Passes:   1,
		},
	}
}

// TestExpandOrderAndDefaults: expansion is the documented cross
// product — slowest axis first, indexes dense from zero — and
// seed-independent patterns expand once regardless of the seed axis.
func TestExpandOrderAndDefaults(t *testing.T) {
	points, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// 2 sizes x 2 ways x 4 policies x 1 ch x 1 dimm x 1 ratio =
	// 16 classes; sequential + write expand once, random twice (two
	// seeds) = 4 points per class.
	if len(points) != 64 {
		t.Fatalf("expanded %d points, want 64", len(points))
	}
	for i, p := range points {
		if p.Index != i {
			t.Fatalf("point %d has Index %d", i, p.Index)
		}
		if p.Pattern != PatternRandom && p.Seed != 0x2B1A {
			t.Errorf("point %d: %s pattern varied by seed %#x", i, p.Pattern, p.Seed)
		}
	}
	// First class: both random seeds present, in axis order.
	if points[0].Pattern != PatternSequential || points[1].Pattern != PatternRandom ||
		points[2].Pattern != PatternRandom || points[3].Pattern != PatternWrite {
		t.Errorf("pattern axis order violated: %s %s %s %s",
			points[0].Pattern, points[1].Pattern, points[2].Pattern, points[3].Pattern)
	}
	if points[1].Seed != 0x2B1A || points[2].Seed != 0xBEEF {
		t.Errorf("seed axis order violated: %#x %#x", points[1].Seed, points[2].Seed)
	}
}

// TestExpandSharesGeometry: points of one geometry class share the
// same canonical *Geometry — the read-only precomputation the arena
// keys controller reuse on — and distinct classes get distinct keys.
func TestExpandSharesGeometry(t *testing.T) {
	points, err := Expand(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	keys := map[*Geometry]uint64{}
	for _, p := range points {
		keys[p.Geom] = p.Geom.Key()
	}
	if len(keys) != 16 {
		t.Fatalf("%d canonical geometries, want 16", len(keys))
	}
	seen := map[uint64]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("geometry hash collision on %#x across the test grid", k)
		}
		seen[k] = true
	}
	if points[0].Geom != points[3].Geom {
		t.Error("points of one class do not share a canonical Geometry")
	}
}

// TestExpandRejectsBadAxes pins the validation errors.
func TestExpandRejectsBadAxes(t *testing.T) {
	ax := func(a jobspec.Axes) Spec { return Spec{Axes: a} }
	cases := map[string]Spec{
		"no cache axis":   {},
		"unknown policy":  ax(jobspec.Axes{CacheKiB: []uint64{64}, Policies: []string{"write-around"}}),
		"unknown pattern": ax(jobspec.Axes{CacheKiB: []uint64{64}, Patterns: []string{"zipf"}}),
		"unaligned ways":  ax(jobspec.Axes{CacheKiB: []uint64{1}, Ways: []int{3}}),
		"zero ratio":      ax(jobspec.Axes{CacheKiB: []uint64{64}, Ratios: []uint64{0}}),
		"zero channels":   ax(jobspec.Axes{CacheKiB: []uint64{64}, Channels: []int{0}}),
		"zero dimms":      ax(jobspec.Axes{CacheKiB: []uint64{64}, DIMMs: []int{0}}),
	}
	for name, spec := range cases {
		if _, err := Expand(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// runTables executes the spec at the given worker count and returns
// the merged CSV and JSON bytes.
func runTables(t *testing.T, spec Spec, workers int, fresh bool) (csv, js []byte) {
	t.Helper()
	r, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	r.Fresh = fresh
	rows, err := r.Run(context.Background(), workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cb, jb bytes.Buffer
	if err := WriteCSV(&cb, rows); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jb, rows); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes()
}

// TestMergedTablesDeterministicAcrossWorkers is the sweep-level
// determinism property test: the same spec at -parallel 1, 2 and 8
// yields byte-identical merged CSV and JSON tables. Completion order
// differs wildly across worker counts; the merge key (point index)
// must erase it.
func TestMergedTablesDeterministicAcrossWorkers(t *testing.T) {
	spec := testSpec()
	csv1, js1 := runTables(t, spec, 1, false)
	for _, workers := range []int{2, 8} {
		csvN, jsN := runTables(t, spec, workers, false)
		if !bytes.Equal(csv1, csvN) {
			t.Errorf("CSV table differs between 1 and %d workers", workers)
		}
		if !bytes.Equal(js1, jsN) {
			t.Errorf("JSON table differs between 1 and %d workers", workers)
		}
	}
}

// TestPooledMatchesFresh is the sweep-level recycled-controller
// differential: the pooled runner (controllers recycled through
// imc.Controller.Reset across jobs of a class) produces tables
// byte-identical to the naive fresh-controller-per-job baseline, over
// all four policy ablations x Ways 1,4 x every pattern.
func TestPooledMatchesFresh(t *testing.T) {
	spec := testSpec()
	pooledCSV, pooledJS := runTables(t, spec, 4, false)
	freshCSV, freshJS := runTables(t, spec, 4, true)
	if !bytes.Equal(pooledCSV, freshCSV) {
		t.Error("pooled and fresh-per-job CSV tables differ")
	}
	if !bytes.Equal(pooledJS, freshJS) {
		t.Error("pooled and fresh-per-job JSON tables differ")
	}
}

// TestPooledMatchesFreshAfterCancel extends the recycled-controller
// differential with cancellation: a run cancelled mid-grid returns
// its rigs to the arena through release (i.e. Reset-clean), so a
// subsequent complete run on the SAME runner and arena still matches
// the fresh-per-job baseline byte for byte. A leaked dirty rig would
// show up as a counter difference on the reused class.
func TestPooledMatchesFreshAfterCancel(t *testing.T) {
	spec := testSpec()
	r, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel partway: run with a context cancelled by the observe
	// callback after a handful of completions, so some points ran to
	// completion, some were cancelled mid-stream, some were skipped.
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	_, err = r.Run(ctx, 4, func(engine.Outcome) {
		if seen.Add(1) == 5 {
			cancel()
		}
	})
	cancel()
	if err == nil {
		t.Fatal("cancelled run reported no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}
	// Now a full run on the same (cancel-polluted, were it buggy)
	// arena must match the naive fresh baseline.
	rows, err := r.Run(context.Background(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pooled bytes.Buffer
	if err := WriteCSV(&pooled, rows); err != nil {
		t.Fatal(err)
	}
	freshCSV, _ := runTables(t, spec, 4, true)
	if !bytes.Equal(pooled.Bytes(), freshCSV) {
		t.Error("post-cancel pooled table differs from the fresh baseline: a cancelled job leaked rig state")
	}
}

// TestRunJobPointMatchesGrid: the single-point jobspec form and the
// equivalent one-point grid form produce byte-identical artifacts
// through RunJob — the cross-binary reproducibility contract in
// miniature.
func TestRunJobPointMatchesGrid(t *testing.T) {
	point := jobspec.Spec{
		Version:  jobspec.Version,
		Name:     "pt",
		Geometry: &jobspec.Geometry{CacheKiB: 128, Ways: 1, Channels: 2, DIMMs: 1},
		Policy:   jobspec.PolicyHardware,
		Workload: &jobspec.Workload{Pattern: jobspec.PatternRandom, Ratio: 2, Seed: 0xBEEF, Passes: 1},
	}
	grid := jobspec.Spec{
		Version: jobspec.Version,
		Name:    "pt",
		Sweep: &jobspec.Axes{
			CacheKiB: []uint64{128},
			Channels: []int{2},
			Ratios:   []uint64{2},
			Patterns: []string{jobspec.PatternRandom},
			Seeds:    []uint32{0xBEEF},
		},
	}
	a, err := RunJob(context.Background(), point, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunJob(context.Background(), grid, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.CSV, b.CSV) || !bytes.Equal(a.JSON, b.JSON) {
		t.Error("point-form and grid-form artifacts differ for the same job")
	}
	if a.Lines == 0 || a.CSV == nil || a.JSON == nil {
		t.Errorf("missing artifacts: lines=%d csv=%d json=%d bytes", a.Lines, len(a.CSV), len(a.JSON))
	}
}

// TestRunJobScaleLowering pins FromSpec's single-point Scale lowering:
// a workload scale divisor caps each pass at footprint/Scale demand
// lines, so the spec runs exactly the longhand sweep with that
// SampleLines cap.
func TestRunJobScaleLowering(t *testing.T) {
	const kib = 4096
	point := jobspec.Spec{
		Version:  jobspec.Version,
		Name:     "scaled",
		Geometry: &jobspec.Geometry{CacheKiB: kib, Channels: 2},
		Workload: &jobspec.Workload{Scale: 512},
	}
	got, err := RunJob(context.Background(), point, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	r, err := New(Spec{
		Name: "scaled",
		Axes: jobspec.Axes{
			CacheKiB:    []uint64{kib},
			Channels:    []int{2},
			Ratios:      []uint64{jobspec.DefaultRatio},
			Patterns:    []string{PatternSequential},
			SampleLines: kib * 1024 / mem.Line * jobspec.DefaultRatio / 512,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := r.Run(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteCSV(&want, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.CSV, want.Bytes()) {
		t.Errorf("scaled point differs from the longhand sweep:\nspec:     %q\nlonghand: %q", got.CSV, want.Bytes())
	}
}

// TestRunJobSharedArena: two jobs of the same geometry through one
// shared Arena reuse the pooled rig (the fleet-wide reuse the simd
// service depends on) and still produce identical artifacts.
func TestRunJobSharedArena(t *testing.T) {
	job := jobspec.Spec{
		Version:  jobspec.Version,
		Geometry: &jobspec.Geometry{CacheKiB: 64},
		Workload: &jobspec.Workload{Pattern: jobspec.PatternSequential},
	}
	pool := NewArena()
	a, err := RunJob(context.Background(), job, 1, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.free) != 1 {
		t.Fatalf("arena holds %d classes after first job, want 1", len(pool.free))
	}
	b, err := RunJob(context.Background(), job, 1, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.CSV, b.CSV) {
		t.Error("recycled-rig job artifact differs from first run")
	}
	for _, rigs := range pool.free {
		if len(rigs) != 1 {
			t.Errorf("arena grew to %d rigs for one class: sharing did not recycle", len(rigs))
		}
	}
}

// TestRunJobTrace: a single-point job with telemetry.sample_lines
// yields deterministic trace artifacts alongside the result table.
func TestRunJobTrace(t *testing.T) {
	job := jobspec.Spec{
		Version:   jobspec.Version,
		Geometry:  &jobspec.Geometry{CacheKiB: 64},
		Workload:  &jobspec.Workload{Pattern: jobspec.PatternRandom},
		Telemetry: &jobspec.Telemetry{SampleLines: 512},
	}
	a, err := RunJob(context.Background(), job, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceCSV == nil || a.TraceJSON == nil {
		t.Fatalf("traced job missing trace artifacts: csv=%d json=%d bytes", len(a.TraceCSV), len(a.TraceJSON))
	}
	b, err := RunJob(context.Background(), job, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.TraceCSV, b.TraceCSV) {
		t.Error("trace artifact not deterministic across calls")
	}
}

// TestRunReusesStateDeterministically: repeated Run calls on one
// Runner (the benchmark loop's shape, with a fully warmed arena)
// reproduce the first call's table exactly.
func TestRunReusesStateDeterministically(t *testing.T) {
	r, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	rows, err := r.Run(context.Background(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&first, rows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rows, err := r.Run(context.Background(), 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := WriteCSV(&again, rows); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("run %d diverged from the first run", i+2)
		}
	}
}

// TestSteadyStateZeroAllocsPerJob pins the perf contract: once the
// arena holds a rig for a point's class, executing the point
// allocates nothing — the result row is written in place into
// preallocated storage.
func TestSteadyStateZeroAllocsPerJob(t *testing.T) {
	r, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the arena serially so every class has a pooled rig.
	if _, err := r.Run(context.Background(), 1, nil); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 3, len(r.points) - 1} {
		p, row := &r.points[i], &r.rows[i]
		allocs := testing.AllocsPerRun(10, func() {
			if err := r.executePoint(context.Background(), p, row); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("point %d (%s): %.1f allocs/job in steady state, want 0", i, p.Pattern, allocs)
		}
	}
}

// TestObserveSeesEveryJob: the observe callback fires once per point
// (the Prometheus progress-gauge contract).
func TestObserveSeesEveryJob(t *testing.T) {
	r, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	_, err = r.Run(context.Background(), 4, func(engine.Outcome) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if int(count.Load()) != len(r.points) {
		t.Errorf("observe fired %d times, want %d", count.Load(), len(r.points))
	}
}

// TestPointsMatchesExpand: jobspec's point count, which caps a grid
// before anything is expanded, counts exactly the points Expand makes,
// and Expand refuses a grid over the cap.
func TestPointsMatchesExpand(t *testing.T) {
	for _, s := range []Spec{DefaultSpec(), BenchmarkSpec(), testSpec()} {
		points, err := Expand(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if got := s.Normalized().Points(); got != len(points) {
			t.Errorf("%s: Points = %d, Expand made %d", s.Name, got, len(points))
		}
	}
	over := testSpec()
	over.Patterns = []string{PatternRandom}
	over.Seeds = make([]uint32, jobspec.MaxPoints)
	if _, err := Expand(over); err == nil || !strings.Contains(err.Error(), "points") {
		t.Errorf("over-cap grid: Expand err = %v", err)
	}
}
