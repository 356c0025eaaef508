package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"twolm/internal/core"
	"twolm/internal/engine"
	"twolm/internal/lfsr"
	"twolm/internal/mem"
)

const (
	// streamScale and streamPasses are BENCH_throughput.json's
	// measurement: 1/8192 scale, three timed passes after one warm-up.
	streamScale  = 8192
	streamPasses = 3
	// minStreamRounds is the fewest rounds in one benchmark run.
	minStreamRounds = 5
)

// streamConfig is one BENCH_throughput.json stream configuration.
type streamConfig struct {
	name   string
	mode   core.Mode
	random bool
}

var (
	seqConfigs = []streamConfig{
		{"sequential-2LM", core.Mode2LM, false},
		{"sequential-1LM", core.Mode1LM, false},
	}
	randConfigs = []streamConfig{
		{"lfsr-random-2LM", core.Mode2LM, true},
		{"lfsr-random-1LM", core.Mode1LM, true},
	}
)

// streamRun is one configuration's part of a round.
type streamRun struct {
	sys    *core.System
	region mem.Region
	setup  float64
	passes []float64
	lines  uint64
	state  string
	// mallocs counts the heap allocations the timed passes made.
	mallocs uint64
}

// setupStream builds the measured system and primes its cache with the
// untimed warm-up pass, as engine.MeasureThroughput does.
func setupStream(c streamConfig) (*streamRun, error) {
	t := time.Now()
	sys, region, err := engine.NewThroughputSystem(c.mode, streamScale)
	if err != nil {
		return nil, err
	}
	engine.SeqPass(sys, region)
	setup := secondsSince(t)
	// Collect the set-up garbage (the previous round's systems) now, so
	// no collection runs concurrently with the timed passes.
	runtime.GC()
	return &streamRun{sys: sys, region: region, setup: setup, passes: make([]float64, 0, streamPasses)}, nil
}

// pass runs one timed pass of the configuration; random passes are
// seeded base+p like engine.MeasureThroughput.
func (r *streamRun) pass(c streamConfig, base uint32, p int) error {
	t := time.Now()
	var n uint64
	if c.random {
		var err error
		if n, err = engine.RandPass(r.sys, r.region, base+uint32(p)); err != nil {
			return err
		}
	} else {
		n = engine.SeqPass(r.sys, r.region)
	}
	r.passes = append(r.passes, secondsSince(t))
	r.lines += n
	return nil
}

// counterState renders the simulated work a configuration did: the
// controller counters, per-channel CAS and the NVRAM media counters.
func counterState(sys *core.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", sys.Counters())
	for i, ch := range sys.DRAM().ChannelCounters() {
		fmt.Fprintf(&b, "ch%d cas_reads=%d cas_writes=%d\n", i, ch.CASReads, ch.CASWrites)
	}
	fmt.Fprintf(&b, "media_reads=%d media_writes=%d\n", sys.NVRAM().TotalMediaReads(), sys.NVRAM().TotalMediaWrites())
	return b.String()
}

// round sets up every configuration and runs its timed passes. With a
// tracer, each pass runs inside a span named after its configuration
// and tagged with operation op.
func round(cfgs []streamConfig, base uint32, tr *tracer, op int) ([]*streamRun, error) {
	runs := make([]*streamRun, len(cfgs))
	var ms0, ms1 runtime.MemStats
	for i, c := range cfgs {
		r, err := setupStream(c)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms0)
		for p := 0; p < streamPasses; p++ {
			id := tr.begin("engine."+c.name, 0, op)
			err := r.pass(c, base, p)
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}
		runtime.ReadMemStats(&ms1)
		r.mallocs = ms1.Mallocs - ms0.Mallocs
		r.state = counterState(r.sys)
		runs[i] = r
	}
	return runs, nil
}

// roundWall is the time a round's timed passes took.
func roundWall(runs []*streamRun) float64 {
	var wall float64
	for _, r := range runs {
		wall += sum(r.passes)
	}
	return wall
}

// checkRound counts each configuration as one operation, failed when its
// counter state differs from the first round's.
func checkRound(rep *report, cfgs []streamConfig, ref map[string]string, runs []*streamRun) {
	for i, c := range cfgs {
		rep.attempted++
		if runs[i].state != ref[c.name] {
			rep.fail("%s: counters differ between rounds of one seed", c.name)
		}
	}
}

// runStreams is the streams-seq or streams-rand workload: rounds of the
// two configurations, each on a freshly built and warmed system.
func runStreams(o options, cfgs []streamConfig) (*report, error) {
	rep := newReport()
	name := "streams-seq"
	if cfgs[0].random {
		name = "streams-rand"
	}
	base := derive(o.seed, saltStreams)

	first, err := round(cfgs, base, nil, 0)
	if err != nil {
		return nil, err
	}
	ref := make(map[string]string)
	got := make(map[string]string)
	for i, c := range cfgs {
		ref[c.name] = first[i].state
		got[c.name] = digest([]byte(first[i].state))
	}
	bad, err := checkGolden(o, name, true, got)
	if err != nil {
		return nil, err
	}
	for _, b := range bad {
		rep.fail("%s", b)
	}
	if o.trace {
		return rep, traceStreams(o, rep, cfgs, base, ref, name)
	}

	var setups, walls []float64
	// setupBest holds each configuration's best set-up time, and passBest
	// each pass's best time, over the run's rounds.
	setupBest := make([]float64, len(cfgs))
	passBest := make([]float64, len(cfgs)*streamPasses)
	lines := make(map[string]uint64)
	times := make(map[string]float64)
	start := time.Now()
	for len(walls) < minStreamRounds || secondsSince(start) < o.seconds {
		runs, err := round(cfgs, base, nil, 0)
		if err != nil {
			return nil, err
		}
		checkRound(rep, cfgs, ref, runs)
		var setup float64
		for i, r := range runs {
			setup += r.setup
			if len(walls) == 0 || r.setup < setupBest[i] {
				setupBest[i] = r.setup
			}
			lines[cfgs[i].name] += r.lines
			times[cfgs[i].name] += sum(r.passes)
			for p, t := range r.passes {
				if k := i*streamPasses + p; len(walls) == 0 || t < passBest[k] {
					passBest[k] = t
				}
			}
		}
		setups = append(setups, setup)
		walls = append(walls, roundWall(runs))
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	// Each set-up and each pass repeats exactly from round to round (the
	// same system state and seed), so a round's least disturbed set-up
	// and pass times are the sums of each part's best.
	rep.values["setup_s"] = sum(setupBest)
	rep.values["wall_s"] = sum(passBest)
	rep.values["peak_rss_mib"] = rss
	rep.note("setup_s (best set-up of each config, summed)", rep.values["setup_s"], "s")
	noteTiming(rep, "NewThroughputSystem + warm-up, both configs", setups, "s", 1)
	rep.note("wall_s (best time of each pass, summed)", rep.values["wall_s"], "s")
	noteTiming(rep, fmt.Sprintf("round (%d passes of both configs)", streamPasses), walls, "s", 1)
	var allLines uint64
	var allTime float64
	for _, c := range cfgs {
		rep.note(c.name+".lines_per_s", float64(lines[c.name])/times[c.name], "lines/s")
		allLines += lines[c.name]
		allTime += times[c.name]
	}
	kind := "seq_lines_per_s"
	if cfgs[0].random {
		kind = "rand_lines_per_s"
	}
	rep.note(kind, float64(allLines)/allTime, "lines/s")

	rep.note("peak_rss_mib", rss, "MiB")
	return rep, nil
}

// traceStreams is the traced stream run: untraced rounds for the
// overhead base and the allocation count, rounds with a span per pass,
// and a re-drive of each pass split into its layers — SeqPass into
// LoadRange and StoreRange, RandPass into lfsr Fill and the core.Batch
// loop — which must leave the same counters as the pass it splits.
func traceStreams(o options, rep *report, cfgs []streamConfig, base uint32, ref map[string]string, name string) error {
	const reps = 3
	var wallsU []float64
	var mallocs uint64
	for i := 0; i < reps; i++ {
		runs, err := round(cfgs, base, nil, 0)
		if err != nil {
			return err
		}
		checkRound(rep, cfgs, ref, runs)
		wallsU = append(wallsU, roundWall(runs))
		for _, r := range runs {
			mallocs += r.mallocs
		}
	}

	tr := newTracer()
	var wallsT []float64
	var runs []*streamRun
	lines := make(map[string]uint64)
	for i := 0; i < reps; i++ {
		var err error
		if runs, err = round(cfgs, base, tr, i+1); err != nil {
			return err
		}
		checkRound(rep, cfgs, ref, runs)
		wallsT = append(wallsT, roundWall(runs))
		for j, r := range runs {
			lines[cfgs[j].name] += r.lines
		}
	}
	// The work counts are the same every round (checkRound holds each
	// round to the first), so the last round's stand for all.
	var media [2]uint64
	var cas uint64
	for _, r := range runs {
		media[0] += r.sys.NVRAM().TotalMediaReads()
		media[1] += r.sys.NVRAM().TotalMediaWrites()
		for _, ch := range r.sys.DRAM().ChannelCounters() {
			cas += ch.CASReads + ch.CASWrites
		}
	}

	split := make(map[string]uint64)
	for _, c := range cfgs {
		r, err := setupStream(c)
		if err != nil {
			return err
		}
		for p := 0; p < streamPasses; p++ {
			if c.random {
				err = splitRandPass(tr, r, base+uint32(p), split)
			} else {
				splitSeqPass(tr, r, split)
			}
			if err != nil {
				return err
			}
		}
		rep.attempted++
		if counterState(r.sys) != ref[c.name] {
			rep.fail("%s: split re-drive counters differ from the pass it splits", c.name)
		}
	}

	self := tr.selfTimes()
	for _, c := range cfgs {
		rep.values["engine."+c.name+".lines_per_s"] = float64(lines[c.name]) / self["engine."+c.name]
	}
	for _, layer := range []string{"core.loadrange", "core.storerange", "lfsr.fill", "core.batch"} {
		if split[layer] > 0 {
			rep.values[layer+".ns_per_line"] = self[layer] * 1e9 / float64(split[layer])
		}
	}
	rep.values["go.allocs_per_op"] = float64(mallocs) / float64(reps*len(cfgs)*streamPasses)
	rep.values["nvram.media_reads"] = float64(media[0])
	rep.values["nvram.media_writes"] = float64(media[1])
	rep.values["dram.cas"] = float64(cas)
	wallU, wallT := median(wallsU), median(wallsT)
	rep.values["trace.overhead_frac"] = (wallT - wallU) / wallU
	rep.note("wall_s untraced", wallU, "s")
	rep.note("wall_s traced", wallT, "s")
	noteLayers(rep, self)
	return tr.write(o.spanDir, name)
}

// splitSeqPass is engine.SeqPass with a span around each of its calls.
func splitSeqPass(tr *tracer, r *streamRun, lines map[string]uint64) {
	id := tr.begin("core.loadrange", 0, 0)
	r.sys.LoadRange(r.region)
	tr.end(id)
	id = tr.begin("core.storerange", 0, 0)
	r.sys.StoreRange(r.region)
	tr.end(id)
	lines["core.loadrange"] += r.region.Lines()
	lines["core.storerange"] += r.region.Lines()
}

// splitRandPass is engine.RandPass's loop with the LFSR fill and the
// core.Batch work (LoadOrStore and the final Flush) in separate spans.
func splitRandPass(tr *tracer, r *streamRun, seed uint32, lines map[string]uint64) error {
	b := r.sys.Batch()
	st, err := lfsr.NewStream(r.region.Lines(), seed)
	if err != nil {
		return err
	}
	var buf [2048]uint32
	base := r.region.Base
	for {
		id := tr.begin("lfsr.fill", 0, 0)
		k, err := st.Fill(buf[:])
		tr.end(id)
		if err != nil {
			return err
		}
		if k == 0 {
			break
		}
		lines["lfsr.fill"] += uint64(k)
		id = tr.begin("core.batch", 0, 0)
		for _, v := range buf[:k] {
			idx := uint64(v)
			b.LoadOrStore(base+idx*mem.Line, idx)
		}
		tr.end(id)
		lines["core.batch"] += uint64(k)
	}
	id := tr.begin("core.batch", 0, 0)
	b.Flush()
	tr.end(id)
	return nil
}
