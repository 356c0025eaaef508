package sweep

import (
	"context"
	"fmt"
	"sync"

	"twolm/internal/dram"
	"twolm/internal/engine"
	"twolm/internal/imc"
	"twolm/internal/lfsr"
	"twolm/internal/mem"
	"twolm/internal/nvram"
	"twolm/internal/telemetry"
)

// batchLines is the random-pattern staging size: indices are drawn
// from the LFSR stream and handed to the controller's scatter path in
// chunks of this many requests, matching engine.RandPass.
const batchLines = 2048

// rig is one pooled execution context: a controller plus the
// fixed-size scratch the random pattern stages requests through. Rigs
// never migrate between geometry classes — the class is fixed at
// build — and a released rig is Reset before it re-enters the arena,
// so an acquired rig is always observationally identical to a fresh
// one.
type rig struct {
	id       classID
	tagBytes uint64 // the controller's tag-store footprint
	ctrl     *imc.Controller
	idx      [batchLines]uint32
	reqs     [batchLines]imc.Req
}

// tagBytesPerLine is cache.Assoc's footprint per cache line: one packed
// entry word (the LRU state is the order of a set's words).
const tagBytesPerLine = 8

// maxRetainedTagBytes bounds the tag-store bytes an Arena keeps in its
// free lists; a release past it drops the rig for the GC. One arena
// serves cmd/simd for its whole life, so without a bound every distinct
// geometry it ever ran would stay resident. sweep_default.json retains
// 10.5 MiB per worker and perfbench's simd-open traffic under 1 MiB, so
// neither ever reaches it.
const maxRetainedTagBytes = 128 << 20

// Arena is the sync.Pool-style controller store behind job execution:
// free rigs keyed by exact geometry class identity. Unlike sync.Pool
// it never discards rigs under GC pressure — the whole point is that
// a 1000-job sweep allocates one rig per (class, concurrently active
// worker), not one per job. It keys by the comparable classID (every
// field that shapes controller allocation, compared by value), so it
// never hands a job a wrong-shaped controller — and because the key is
// a value, not a per-expansion pointer, independent Runners can share
// one Arena:
// cmd/simd hands every admitted job the same fleet-wide pool, and
// jobs repeating a popular geometry skip construction entirely.
type Arena struct {
	mu       sync.Mutex
	free     map[classID][]*rig
	retained uint64 // tag-store bytes held in free, at most maxRetainedTagBytes
}

// NewArena returns an empty controller pool.
func NewArena() *Arena { return &Arena{} }

// acquire returns a ready rig for the class, recycling a pooled one
// when available. With fresh set it always constructs — the naive
// baseline BenchmarkSweepThroughputFresh measures against.
func (a *Arena) acquire(g *Geometry, fresh bool) (*rig, error) {
	if !fresh {
		a.mu.Lock()
		if rigs := a.free[g.id]; len(rigs) > 0 {
			rg := rigs[len(rigs)-1]
			a.free[g.id] = rigs[:len(rigs)-1]
			a.retained -= rg.tagBytes
			a.mu.Unlock()
			return rg, nil
		}
		a.mu.Unlock()
	}
	return buildRig(g)
}

// release resets the rig and returns it to the class's free list —
// including rigs whose job was cancelled mid-pass, which is why the
// Reset here (not in acquire) is load-bearing: a rig re-enters the
// arena only in the as-constructed state. In fresh mode, or when
// keeping it would take the arena past maxRetainedTagBytes, the rig is
// dropped for the GC to reclaim, like the naive one-controller-per-job
// runner fresh mode reproduces.
func (a *Arena) release(rg *rig, fresh bool) {
	if fresh {
		return
	}
	// Reserve the rig's bytes first, so a rig that will be dropped is
	// not Reset for nothing.
	a.mu.Lock()
	keep := a.retained+rg.tagBytes <= maxRetainedTagBytes
	if keep {
		a.retained += rg.tagBytes
	}
	a.mu.Unlock()
	if !keep {
		return
	}
	rg.ctrl.Reset()
	a.mu.Lock()
	if a.free == nil {
		a.free = make(map[classID][]*rig)
	}
	a.free[rg.id] = append(a.free[rg.id], rg)
	a.mu.Unlock()
}

// buildRig constructs the controller stack for one geometry class.
//
//alloc:cold rig construction happens once per geometry class (or per job only under the deliberately naive Fresh mode)
func buildRig(g *Geometry) (*rig, error) {
	d, err := dram.New(g.Channels, g.CacheBytes)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	n, err := nvram.New(g.DIMMs, g.NVRAMBytes)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	ctrl, err := imc.New(d, n, imc.WithPolicy(g.Policy))
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return &rig{id: g.id, tagBytes: ctrl.Cache.Lines() * tagBytesPerLine, ctrl: ctrl}, nil
}

// Runner executes an expanded sweep on the engine worker pool. Build
// one with New; Run may be called repeatedly (the benchmark loop does)
// and reuses the job list, row storage, and controller arena across
// calls, so steady-state execution allocates nothing per job.
type Runner struct {
	// Fresh disables controller recycling: every job constructs its
	// full controller stack from scratch. This is the naive baseline
	// the ≥1.5x jobs/sec target is measured against; leave it false
	// for real sweeps.
	Fresh bool

	// Pool is the controller arena jobs acquire rigs from. New
	// installs a private arena; replace it (before the first Run)
	// to share pooled controllers across runners, the way the simd
	// service shares one fleet-wide arena across every admitted job.
	Pool *Arena

	// Trace, when non-nil, attaches a telemetry sink to each point's
	// controller, sampled every TraceEvery demand lines and flushed
	// after the final pass — the Figure 5-9-style bandwidth-trace
	// artifact. Sinks see points in execution order, so tracing is
	// only deterministic for single-point runs on one worker; RunJob
	// enforces that, and multi-point grids leave it nil.
	Trace telemetry.Sink
	// TraceEvery is the Trace sampling interval in demand lines.
	TraceEvery uint64

	spec   Spec
	points []Point
	rows   []Row
	jobs   []engine.Job
}

// New expands and validates the spec and prepares the reusable job
// list. The one-time cost here (point expansion, job closures, row
// storage, per-point names) is deliberately front-loaded so Run's
// steady state stays allocation free.
func New(spec Spec) (*Runner, error) {
	points, err := Expand(spec)
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: spec %q expands to no points", spec.Name)
	}
	r := &Runner{
		Pool:   NewArena(),
		spec:   spec.Normalized(),
		points: points,
		rows:   make([]Row, len(points)),
	}
	r.jobs = make([]engine.Job, len(points))
	for i := range points {
		p := &r.points[i]
		row := &r.rows[i]
		r.jobs[i] = engine.Job{
			Name: pointName(p),
			Run: func(ctx context.Context) ([]engine.Artifact, error) {
				return nil, r.executePoint(ctx, p, row)
			},
		}
	}
	return r, nil
}

// pointName renders the point's stable human-readable label, used for
// job progress and error attribution (the merge key is Index, never
// the name).
func pointName(p *Point) string {
	return fmt.Sprintf("%04d %dKiB/w%d/%s/ch%d/d%d/r%d/%s/0x%X",
		p.Index, p.Geom.CacheKiB, p.Geom.Policy.Ways, p.Geom.PolicyName,
		p.Geom.Channels, p.Geom.DIMMs, p.Geom.Ratio, p.Pattern, p.Seed)
}

// Points returns the expanded point list in execution (= merge) order.
func (r *Runner) Points() []Point { return r.points }

// Spec returns the normalized spec the runner was built from.
func (r *Runner) Spec() Spec { return r.spec }

// Run executes every point on workers goroutines and returns one Row
// per point in point order — independent of completion order, so the
// returned table is byte-identical for any worker count. observe, when
// non-nil, is called once per completed job from worker goroutines in
// completion order (progress gauges; anything order-sensitive belongs
// on the rows). The returned slice is the runner's own row storage and
// is overwritten by the next Run.
//
// Cancelling ctx (a per-job deadline, a server drain) stops the grid:
// in-flight points stop at their next pass or batch boundary, pending
// points are skipped, and every rig goes back to the arena through
// release — i.e. Reset-clean — so a cancelled run can never leak a
// dirty controller into the pool. The error is ctx.Err.
func (r *Runner) Run(ctx context.Context, workers int, observe func(engine.Outcome)) ([]Row, error) {
	outs := engine.RunJobsObserved(ctx, r.jobs, workers, observe)
	return r.rows, engine.FirstError(outs)
}

// executePoint runs one point on a pooled (or, under Fresh, newly
// built) rig and writes its result row. The row write is a whole-value
// store of fields already resolved at expansion, so the only per-job
// heap traffic in steady state is none at all. The rig is released on
// every exit path — success, pattern error, cancellation — because
// release is where the Reset that keeps the arena clean lives.
//
//hot:entry sweep workers execute points concurrently on the shared rig pool
//alloc:free 0 steady-state allocs/job is the pooled-runner contract (PR 7)
func (r *Runner) executePoint(ctx context.Context, p *Point, row *Row) error {
	rg, err := r.Pool.acquire(p.Geom, r.Fresh)
	if err != nil {
		return err
	}
	if r.Trace != nil {
		rg.ctrl.SetTelemetry(r.Trace, r.TraceEvery)
	}
	err = r.runPasses(ctx, rg, p)
	if err == nil {
		g := p.Geom
		ctr := rg.ctrl.Counters()
		*row = Row{
			Index:       p.Index,
			CacheKiB:    g.CacheKiB,
			Ways:        g.Policy.Ways,
			Policy:      g.PolicyName,
			Channels:    g.Channels,
			DIMMs:       g.DIMMs,
			Ratio:       g.Ratio,
			Pattern:     p.Pattern,
			Seed:        p.Seed,
			Passes:      p.Passes,
			Lines:       ctr.Demand(),
			Counters:    ctr,
			MediaReads:  rg.ctrl.NVRAM.TotalMediaReads(),
			MediaWrites: rg.ctrl.NVRAM.TotalMediaWrites(),
		}
		if r.Trace != nil {
			rg.ctrl.FlushTelemetry()
		}
	}
	if r.Trace != nil {
		// Detach before the rig re-enters the arena: Reset restarts
		// the sampling phase but deliberately keeps the sink, and a
		// pooled rig must not stream one job's telemetry into the
		// next job's run.
		rg.ctrl.SetTelemetry(nil, 0)
	}
	r.Pool.release(rg, r.Fresh)
	return err
}

// runPasses issues the point's demand stream, checking for
// cancellation at every pass boundary (and, inside random passes, at
// every staged batch).
func (r *Runner) runPasses(ctx context.Context, rg *rig, p *Point) error {
	g := p.Geom
	switch p.kind {
	case patSequential:
		for pass := 0; pass < p.Passes; pass++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			rg.ctrl.LLCReadRange(0, g.PassLines)
			rg.ctrl.LLCWriteRange(0, g.PassLines)
		}
	case patWrite:
		for pass := 0; pass < p.Passes; pass++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			rg.ctrl.LLCWriteRange(0, g.PassLines)
		}
	case patRandom:
		for pass := 0; pass < p.Passes; pass++ {
			if err := r.randomPass(ctx, rg, g, p.Seed); err != nil {
				return err
			}
		}
	}
	return nil
}

// randomPass issues one LFSR-ordered pass: PassLines demand lines
// drawn from the full footprint, alternating read and write, staged
// through the rig's fixed buffers into the batched scatter path.
func (r *Runner) randomPass(ctx context.Context, rg *rig, g *Geometry, seed uint32) error {
	s, err := lfsr.NewStream(g.Lines, seed)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	var emitted uint64
	for emitted < g.PassLines {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := s.Fill(rg.idx[:])
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if n == 0 {
			break
		}
		if rem := g.PassLines - emitted; uint64(n) > rem {
			n = int(rem)
		}
		for i := 0; i < n; i++ {
			addr := uint64(rg.idx[i]) << mem.LineShift
			if (emitted+uint64(i))&1 == 0 {
				rg.reqs[i] = imc.ReadReq(addr)
			} else {
				rg.reqs[i] = imc.WriteReq(addr)
			}
		}
		rg.ctrl.LLCScatter(rg.reqs[:n])
		emitted += uint64(n)
	}
	return nil
}
