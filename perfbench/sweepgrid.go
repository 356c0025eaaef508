package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"twolm/internal/dram"
	"twolm/internal/engine"
	"twolm/internal/imc"
	"twolm/internal/lfsr"
	"twolm/internal/mem"
	"twolm/internal/nvram"
	"twolm/internal/sweep"
)

const (
	// sweepSetupReps is how many times set-up (sweep.New plus the
	// warm-up Run that fills the rig arena) is timed per run.
	sweepSetupReps = 5
	// minGridRuns is the fewest timed grid runs in one benchmark run.
	minGridRuns = 5
)

// imcClasses are the controller dispatch classes a grid point falls in.
var imcClasses = []string{"fold", "range_perline", "scatter", "scatter_serial"}

// gridSpec is sweep.DefaultSpec (288 points) with its random-pattern
// seed drawn from the workload seed.
func gridSpec(seed uint64) sweep.Spec {
	s := sweep.DefaultSpec()
	s.Seeds = []uint32{derive(seed, saltSweep)}
	return s
}

// runSweep is the sweep-grid workload: the whole default design-space
// grid on one worker, repeated on the same runner.
func runSweep(o options) (*report, error) {
	rep := newReport()
	spec := gridSpec(o.seed)
	ctx := context.Background()

	start := time.Now()
	var setups, news, warms []float64
	var warmBest []float64 // each point's best time in the warm-up Run
	var r *sweep.Runner
	var ref []sweep.Row
	for i := 0; i < sweepSetupReps; i++ {
		t0 := time.Now()
		var err error
		r, err = sweep.New(spec)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		k := 0
		rows, err := r.Run(ctx, 1, func(out engine.Outcome) {
			// One worker runs the points in order.
			if s := out.Elapsed.Seconds(); i == 0 {
				warmBest = append(warmBest, s)
			} else if s < warmBest[k] {
				warmBest[k] = s
			}
			k++
		})
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		news = append(news, t1.Sub(t0).Seconds())
		warms = append(warms, t2.Sub(t1).Seconds())
		if ref == nil {
			ref = append([]sweep.Row(nil), rows...)
		} else {
			checkRows(rep, ref, rows)
		}
		// Collect the previous runner's arena before the next set-up.
		runtime.GC()
	}
	// Every set-up repeats exactly, so, as for wall_s, set-up is the best
	// sweep.New plus the sum of each point's best time in the warm-up Run.
	rep.values["setup_s"] = best(news) + sum(warmBest)
	rep.note("setup_s (best sweep.New + best of each warm-up point)", rep.values["setup_s"], "s")
	noteTiming(rep, "sweep.New + warm Run", setups, "s", 1)

	csv, err := rowsCSV(ref)
	if err != nil {
		return nil, err
	}
	bad, err := checkGolden(o, "sweep-grid", true, map[string]string{"sweep_results.csv": digest(csv)})
	if err != nil {
		return nil, err
	}
	for _, b := range bad {
		rep.fail("%s", b)
	}

	if o.trace {
		return rep, traceSweep(o, rep, r, ref, news, warms)
	}
	// pointBest holds each point's best time over the run's grid runs.
	var walls []float64
	pointBest := make([]float64, len(ref))
	for len(walls) < minGridRuns || secondsSince(start) < o.seconds {
		k := 0
		t := time.Now()
		rows, err := r.Run(ctx, 1, func(out engine.Outcome) {
			// One worker runs the points in order.
			if s := out.Elapsed.Seconds(); len(walls) == 0 || s < pointBest[k] {
				pointBest[k] = s
			}
			k++
		})
		if err != nil {
			return nil, err
		}
		walls = append(walls, secondsSince(t))
		checkRows(rep, ref, rows)
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	// Each point repeats exactly from grid run to grid run, so a grid's
	// least disturbed time is the sum of each point's best.
	rep.values["wall_s"] = sum(pointBest)
	rep.values["peak_rss_mib"] = rss
	rep.note("wall_s (best time of each point, summed)", rep.values["wall_s"], "s")
	noteTiming(rep, "one 288-point grid", walls, "s", 1)
	rep.note("points_per_s (best of each point)", float64(len(ref))/rep.values["wall_s"], "1/s")
	rep.note("peak_rss_mib", rss, "MiB")
	return rep, nil
}

// rowsCSV renders rows with the merged-table writer.
func rowsCSV(rows []sweep.Row) ([]byte, error) {
	var buf bytes.Buffer
	err := sweep.WriteCSV(&buf, rows)
	return buf.Bytes(), err
}

// checkRows counts every point as one operation, failed when its row
// differs from the reference run's.
func checkRows(rep *report, ref, rows []sweep.Row) {
	if len(rows) != len(ref) {
		rep.attempted += len(ref)
		rep.fail("grid returned %d rows, want %d", len(rows), len(ref))
		return
	}
	for i := range rows {
		rep.attempted++
		if rows[i] != ref[i] {
			rep.fail("point %d: row differs between runs of one seed", i)
		}
	}
}

// dispatchClass names the controller path that serves a point's
// demand: the set-stride fold (sequential, direct mapped, allocating),
// the per-line range walk (the other sequential points), chunked
// scatter (random, direct mapped) or its serial fallback (random,
// associative).
func dispatchClass(p sweep.Point) string {
	pol := p.Geom.Policy
	switch {
	case p.Pattern == sweep.PatternRandom && pol.Ways == 1:
		return "scatter"
	case p.Pattern == sweep.PatternRandom:
		return "scatter_serial"
	case pol.Ways == 1 && pol.ReadAllocate && pol.WriteAllocate:
		return "fold"
	default:
		return "range_perline"
	}
}

// traceSweep is the traced sweep-grid run: untraced grid runs for the
// overhead base, one grid run with a span per point (from the engine
// pool's own per-job elapsed time), and a point-by-point re-drive
// through dram.New/nvram.New/imc.New and the controller's range and
// scatter entry points, which must reproduce every row.
func traceSweep(o options, rep *report, r *sweep.Runner, ref []sweep.Row, news, warms []float64) error {
	ctx := context.Background()
	var walls []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < 2; i++ {
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		rows, err := r.Run(ctx, 1, nil)
		if err != nil {
			return err
		}
		walls = append(walls, secondsSince(t))
		runtime.ReadMemStats(&ms1)
		checkRows(rep, ref, rows)
	}
	wallU := median(walls)

	tr := newTracer()
	root := tr.begin("sweep.run", 0, 1)
	t := time.Now()
	rows, err := r.Run(ctx, 1, func(out engine.Outcome) {
		end := time.Now()
		tr.record("sweep.point", root, 1, end.Add(-out.Elapsed), end)
	})
	if err != nil {
		return err
	}
	wallT := secondsSince(t)
	tr.end(root)
	checkRows(rep, ref, rows)

	work, err := redriveGrid(tr, rep, r.Points(), ref)
	if err != nil {
		return err
	}
	self := tr.selfTimes()
	total := self["sweep.redrive"]
	for _, c := range imcClasses {
		s := self["imc."+c]
		total += s
		rep.values["imc."+c+".lines"] = float64(work.lines[c])
		if work.lines[c] > 0 {
			rep.values["imc."+c+".ns_per_line"] = s * 1e9 / float64(work.lines[c])
		}
	}
	total += self["lfsr.fill"] + self["imc.reset"] + self["imc.new"]
	for _, c := range imcClasses {
		rep.values["imc."+c+".share"] = self["imc."+c] / total
	}
	rep.values["imc.reset.us"] = self["imc.reset"] * 1e6 / float64(work.resets)
	rep.values["lfsr.fill.ns_per_line"] = self["lfsr.fill"] * 1e9 / float64(work.filled)
	rep.values["sweep.new.ms"] = median(news) * 1e3
	rep.values["sweep.warm.s"] = median(warms)
	rep.values["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	rep.values["nvram.media_reads"] = float64(work.mediaReads)
	rep.values["nvram.media_writes"] = float64(work.mediaWrites)
	rep.values["dram.cas"] = float64(work.cas)
	rep.values["trace.overhead_frac"] = (wallT - wallU) / wallU
	rep.note("wall_s untraced", wallU, "s")
	rep.note("wall_s traced", wallT, "s")
	noteLayers(rep, self)
	return tr.write(o.spanDir, "sweep-grid")
}

// gridWork is what a re-drive of the grid did.
type gridWork struct {
	lines                        map[string]uint64
	filled, resets               uint64
	mediaReads, mediaWrites, cas uint64
}

// gridRig is one re-drive controller with the random pattern's staging
// buffers, pooled per geometry class like the sweep's own arena.
type gridRig struct {
	ctrl *imc.Controller
	idx  [2048]uint32
	reqs [2048]imc.Req
}

// redriveGrid replays every point through the controller's public
// entry points on pooled controllers (Reset between points), timing
// each dispatch class, and checks each point's counters against its
// row.
func redriveGrid(tr *tracer, rep *report, points []sweep.Point, ref []sweep.Row) (gridWork, error) {
	const op = 2
	w := gridWork{lines: make(map[string]uint64)}
	pool := make(map[*sweep.Geometry]*gridRig)
	root := tr.begin("sweep.redrive", 0, op)
	defer tr.end(root)
	for i, p := range points {
		g := p.Geom
		rg := pool[g]
		if rg == nil {
			id := tr.begin("imc.new", root, op)
			ctrl, err := newGridController(g)
			tr.end(id)
			if err != nil {
				return w, err
			}
			rg = &gridRig{ctrl: ctrl}
			pool[g] = rg
		}
		class := dispatchClass(p)
		id := tr.begin("imc."+class, root, op)
		for pass := 0; pass < p.Passes; pass++ {
			if p.Pattern == sweep.PatternRandom {
				n, err := redriveRandomPass(tr, id, op, rg, g, p.Seed)
				if err != nil {
					return w, err
				}
				w.filled += n
				w.lines[class] += n
				continue
			}
			rg.ctrl.LLCReadRange(0, g.PassLines)
			rg.ctrl.LLCWriteRange(0, g.PassLines)
			w.lines[class] += 2 * g.PassLines
		}
		tr.end(id)

		rep.attempted++
		c := rg.ctrl
		if got := c.Counters(); got != ref[i].Counters ||
			c.NVRAM.TotalMediaReads() != ref[i].MediaReads || c.NVRAM.TotalMediaWrites() != ref[i].MediaWrites {
			rep.fail("re-driven point %d (%s): counters %v, runner row %v", i, class, got, ref[i].Counters)
		}
		w.mediaReads += c.NVRAM.TotalMediaReads()
		w.mediaWrites += c.NVRAM.TotalMediaWrites()
		for _, ch := range c.DRAM.ChannelCounters() {
			w.cas += ch.CASReads + ch.CASWrites
		}
		id = tr.begin("imc.reset", root, op)
		c.Reset()
		tr.end(id)
		w.resets++
	}
	return w, nil
}

// newGridController builds the controller stack of one geometry class.
func newGridController(g *sweep.Geometry) (*imc.Controller, error) {
	d, err := dram.New(g.Channels, g.CacheBytes)
	if err != nil {
		return nil, err
	}
	n, err := nvram.New(g.DIMMs, g.NVRAMBytes)
	if err != nil {
		return nil, err
	}
	return imc.New(d, n, imc.WithPolicy(g.Policy))
}

// redriveRandomPass issues one LFSR-ordered pass of alternating reads
// and writes through LLCScatter, with a span around each Fill.
func redriveRandomPass(tr *tracer, parent, op int, rg *gridRig, g *sweep.Geometry, seed uint32) (uint64, error) {
	s, err := lfsr.NewStream(g.Lines, seed)
	if err != nil {
		return 0, err
	}
	var emitted uint64
	for emitted < g.PassLines {
		id := tr.begin("lfsr.fill", parent, op)
		n, err := s.Fill(rg.idx[:])
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("lfsr: %w", err)
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
	return emitted, nil
}
