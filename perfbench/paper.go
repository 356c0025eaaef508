package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"twolm/internal/analytics"
	"twolm/internal/core"
	"twolm/internal/engine"
	"twolm/internal/experiments"
	"twolm/internal/graph"
	"twolm/internal/platform"
	"twolm/internal/sage"
)

// Set-up (building the suite job list) takes under a microsecond, and
// the host alternates between a fast and a slow state over seconds, so
// set-up is timed paperSetupReps times in each of paperSetupWindows
// windows spaced paperSetupPause apart and the best build is reported.
const (
	paperSetupWindows = 15
	paperSetupReps    = 1000
	paperSetupPause   = 100 * time.Millisecond
	// minReproductions is the fewest timed reproductions in one run, so
	// a tenant disturbing one of them does not set wall_s.
	minReproductions = 2
)

// suiteConfig is the calibrated repro -quick configuration. The seed
// does not vary it: the reproduction has one set of inputs.
func suiteConfig() engine.SuiteConfig { return engine.DefaultSuiteConfig(8192, true) }

// runPaper is the paper-quick workload: every engine.Suite job of
// repro -quick, claims included, on one worker, so the wall time is the
// sum of the job times.
func runPaper(o options) (*report, error) {
	rep := newReport()
	cfg := suiteConfig()
	var setups []float64
	var jobs []engine.Job
	for w := 0; w < paperSetupWindows; w++ {
		if w > 0 {
			time.Sleep(paperSetupPause)
		}
		// Start each window from a collected heap, so sweeping left by
		// a collection does not land in these sub-microsecond builds.
		runtime.GC()
		for i := 0; i < paperSetupReps; i++ {
			t := time.Now()
			jobs = engine.Suite(cfg)
			setups = append(setups, secondsSince(t))
		}
	}
	rep.values["setup_s"] = best(setups)
	noteTiming(rep, "setup_s (engine.Suite job list)", setups, "s", 1)

	if o.trace {
		return rep, tracePaper(o, rep, cfg, jobs)
	}
	// jobBest holds each job's best time over the run's reproductions.
	var walls []float64
	jobBest := make([]float64, len(jobs))
	start := time.Now()
	for len(walls) < minReproductions || secondsSince(start) < o.seconds {
		outs, wall := reproduce(jobs)
		for i, out := range outs {
			if s := out.Elapsed.Seconds(); len(walls) == 0 || s < jobBest[i] {
				jobBest[i] = s
			}
		}
		walls = append(walls, wall)
		if err := checkPaper(o, rep, outs); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	// Each job repeats exactly from reproduction to reproduction, so a
	// reproduction's least disturbed time is the sum of each job's best.
	rep.values["wall_s"] = sum(jobBest)
	rep.values["peak_rss_mib"] = rss
	rep.note("wall_s (best time of each job, summed)", rep.values["wall_s"], "s")
	noteTiming(rep, "one reproduction", walls, "s", 1)
	rep.note("peak_rss_mib", rss, "MiB")
	return rep, nil
}

// reproduce runs the job list once on one worker.
func reproduce(jobs []engine.Job) ([]engine.Outcome, float64) {
	t := time.Now()
	outs := engine.RunJobsObserved(context.Background(), jobs, 1, nil)
	return outs, secondsSince(t)
}

// renderArtifacts renders outputs exactly as cmd/repro writes them:
// tables as .txt (Fprint) and .csv, series as .csv, text as .txt.
func renderArtifacts(arts []engine.Artifact) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, a := range arts {
		var buf bytes.Buffer
		switch {
		case a.Table != nil:
			if err := a.Table.Fprint(&buf); err != nil {
				return nil, err
			}
			out[a.Name+".txt"] = append([]byte(nil), buf.Bytes()...)
			buf.Reset()
			if err := a.Table.WriteCSV(&buf); err != nil {
				return nil, err
			}
			out[a.Name+".csv"] = buf.Bytes()
		case a.Series != nil:
			if err := a.Series.WriteCSV(&buf); err != nil {
				return nil, err
			}
			out[a.Name+".csv"] = buf.Bytes()
		case a.Text != "":
			out[a.Name+".txt"] = []byte(a.Text)
		}
	}
	return out, nil
}

// digests hashes rendered outputs.
func digests(files map[string][]byte) map[string]string {
	m := make(map[string]string, len(files))
	for name, data := range files {
		m[name] = digest(data)
	}
	return m
}

// checkPaper counts each job as one operation: it fails on a job error
// (a failed claim is one) or when any of its artifacts differs from the
// golden digest. Golden digests are keyed "<job>/<artifact>", so a
// missing artifact is charged to the job that should have made it and a
// job fails at most once.
func checkPaper(o options, rep *report, outs []engine.Outcome) error {
	got := make(map[string]string)
	ran := make(map[string]bool)
	failedJobs := make(map[string]bool)
	for _, out := range outs {
		rep.attempted++
		ran[out.Job] = true
		if out.Err != nil {
			rep.problems = append(rep.problems, fmt.Sprintf("job %s: %v", out.Job, out.Err))
			failedJobs[out.Job] = true
			continue
		}
		files, err := renderArtifacts(out.Artifacts)
		if err != nil {
			return err
		}
		for name, d := range digests(files) {
			got[out.Job+"/"+name] = d
		}
	}
	bad, err := checkGolden(o, "paper-quick", false, got)
	if err != nil {
		return err
	}
	for _, b := range bad {
		rep.problems = append(rep.problems, b)
		job, _, _ := strings.Cut(b, "/")
		if failedJobs[job] {
			continue
		}
		failedJobs[job] = true
		if !ran[job] {
			// A job the golden digests expect but the suite no longer
			// runs is one more operation, and it failed.
			rep.attempted++
		}
	}
	rep.failed += len(failedJobs)
	return nil
}

// tracePaper is the traced paper-quick run: an untraced reproduction
// for the overhead base, a reproduction with one span per job, and a
// re-drive of the graph study's layers whose rendered figures must be
// byte-identical to the reproduction's.
func tracePaper(o options, rep *report, cfg engine.SuiteConfig, jobs []engine.Job) error {
	outs, wallU := reproduce(jobs)
	if err := checkPaper(o, rep, outs); err != nil {
		return err
	}

	tr := newTracer()
	root := tr.begin("paper.reproduction", 0, 1)
	wrapped := make([]engine.Job, len(jobs))
	for i, j := range jobs {
		j := j
		wrapped[i] = engine.Job{Name: j.Name, Run: func(ctx context.Context) ([]engine.Artifact, error) {
			id := tr.begin("experiments."+j.Name, root, 1)
			defer tr.end(id)
			return j.Run(ctx)
		}}
	}
	outs, wallT := reproduce(wrapped)
	tr.end(root)
	if err := checkPaper(o, rep, outs); err != nil {
		return err
	}
	var studyFiles map[string][]byte
	for _, out := range outs {
		if out.Job == "graph_study" && out.Err == nil {
			f, err := renderArtifacts(out.Artifacts)
			if err != nil {
				return err
			}
			studyFiles = f
		}
	}

	lines, analyticsLines, err := redriveGraphStudy(tr, cfg.Graph, rep, studyFiles)
	if err != nil {
		return err
	}
	self := tr.selfTimes()
	for _, j := range jobs {
		rep.values["experiments."+j.Name+".s"] = self["experiments."+j.Name]
	}
	var analyticsS, sageS float64
	for _, k := range experiments.KernelNames {
		rep.values["analytics."+k+".s"] = self["analytics."+k]
		analyticsS += self["analytics."+k]
		sageS += self["sage."+k]
	}
	rep.values["graph.generate.s"] = self["graph.generate"]
	rep.values["sage.s"] = sageS
	rep.values["analytics.ns_per_line"] = analyticsS * 1e9 / float64(analyticsLines)
	rep.values["core.perline.lines"] = float64(lines)
	rep.values["trace.overhead_frac"] = (wallT - wallU) / wallU
	rep.note("wall_s untraced", wallU, "s")
	rep.note("wall_s traced", wallT, "s")
	noteLayers(rep, self)
	return tr.write(o.spanDir, "paper-quick")
}

// redriveGraphStudy re-runs the graph study through its layers' public
// functions — graph generation, core.New, Graph.Place, the analytics
// kernels and sage — with a span around each call. Each re-driven run
// must equal experiments.RunGraphStudy's run of the same cell, and the
// study's figures rendered from the re-driven runs must match the
// reproduction's graph_study artifacts byte for byte. It returns the
// demand lines of all runs and of the analytics (non-Sage) runs.
func redriveGraphStudy(tr *tracer, gcfg experiments.GraphConfig, rep *report, want map[string][]byte) (all, analyticsLines uint64, err error) {
	const op = 2
	id := tr.begin("graph.generate", 0, op)
	small, err := graph.Kronecker(gcfg.SmallScale, gcfg.SmallEdgeFactor, gcfg.Seed)
	if err != nil {
		return 0, 0, err
	}
	large, err := graph.WebLike(gcfg.LargeScale, gcfg.LargeEdgeFactor, gcfg.Seed)
	if err != nil {
		return 0, 0, err
	}
	tr.end(id)

	study := &experiments.Study{Config: gcfg, Small: small, Large: large}
	for _, run := range []struct {
		g    *graph.Graph
		mode experiments.GraphMode
	}{
		{small, experiments.Mode2LMFlat},
		{large, experiments.Mode2LMFlat},
		{large, experiments.ModeNUMA},
		{large, experiments.ModeSage},
	} {
		for _, kernel := range experiments.KernelNames {
			rep.attempted++
			res, err := redriveKernel(tr, op, gcfg, run.g, run.mode, kernel)
			if err != nil {
				return 0, 0, fmt.Errorf("%s/%s/%s: %w", run.g.Name, run.mode, kernel, err)
			}
			all += res.Delta.Demand()
			if run.mode != experiments.ModeSage {
				analyticsLines += res.Delta.Demand()
			}
			study.Runs = append(study.Runs, experiments.GraphRun{
				Graph: run.g.Name, Mode: run.mode, Kernel: kernel, Result: res, HitRate: res.Delta.HitRate(),
			})
		}
	}

	// Every re-driven run must equal the study's own run of the same
	// cell, field for field (counters, elapsed time, rounds, the
	// kernel's answer and its per-round series).
	ref, err := experiments.RunGraphStudy(gcfg)
	if err != nil {
		return 0, 0, err
	}
	if len(ref.Runs) != len(study.Runs) {
		return 0, 0, fmt.Errorf("study has %d runs, re-drive %d", len(ref.Runs), len(study.Runs))
	}
	for i, r := range study.Runs {
		if !reflect.DeepEqual(r, ref.Runs[i]) {
			rep.fail("re-driven %s/%s/%s differs from Study.Runs[%d]", r.Graph, r.Mode, r.Kernel, i)
		}
	}

	smallTr, largeTr := study.Fig9Traces()
	got, err := renderArtifacts([]engine.Artifact{
		{Name: "fig7_graph_kernels_2lm", Table: study.Fig7()},
		{Name: "fig8_data_moved", Table: study.Fig8()},
		{Name: "fig9_pagerank_traces", Table: study.Fig9()},
		{Name: "fig9a_pr_" + study.Small.Name, Series: smallTr},
		{Name: "fig9bc_pr_" + study.Large.Name, Series: largeTr},
		{Name: "sage_vs_2lm", Table: study.SageTable()},
	})
	if err != nil {
		return 0, 0, err
	}
	for _, b := range compareDigests(digests(want), digests(got)) {
		rep.fail("re-driven graph study: %s", b)
	}
	return all, analyticsLines, nil
}

// redriveKernel runs one (graph, mode, kernel) cell the way the study
// does: a fresh two-socket system per kernel.
func redriveKernel(tr *tracer, op int, gcfg experiments.GraphConfig, g *graph.Graph, mode experiments.GraphMode, kernel string) (analytics.Result, error) {
	m := core.Mode1LM
	if mode == experiments.Mode2LMFlat {
		m = core.Mode2LM
	}
	id := tr.begin("core.new", 0, op)
	sys, err := core.New(core.Config{Platform: platform.CascadeLake(2, gcfg.Scale, gcfg.Threads), Mode: m})
	tr.end(id)
	if err != nil {
		return analytics.Result{}, err
	}
	base := analytics.Config{Threads: gcfg.Threads, PRRounds: gcfg.PRRounds, KCoreK: gcfg.KCoreK}

	if mode == experiments.ModeSage {
		id := tr.begin("sage."+kernel, 0, op)
		defer tr.end(id)
		s, err := sage.New(sys, g)
		if err != nil {
			return analytics.Result{}, err
		}
		switch kernel {
		case "bfs":
			return s.BFS(base, g.MaxOutDegreeNode())
		case "cc":
			return s.CC(base)
		case "kcore":
			return s.KCore(base)
		default:
			return s.PageRank(base)
		}
	}

	id = tr.begin("graph.place", 0, op)
	layout, err := g.Place(sys.AddressSpace().Alloc)
	tr.end(id)
	if err != nil {
		return analytics.Result{}, err
	}
	cfg := base
	cfg.Sys, cfg.G, cfg.Layout, cfg.AllocProp = sys, g, layout, sys.AddressSpace().Alloc
	id = tr.begin("analytics."+kernel, 0, op)
	defer tr.end(id)
	switch kernel {
	case "bfs":
		return analytics.BFS(cfg, g.MaxOutDegreeNode())
	case "cc":
		return analytics.CC(cfg)
	case "kcore":
		return analytics.KCore(cfg)
	default:
		return analytics.PageRank(cfg)
	}
}

// noteLayers adds each layer's total self time to the text table.
func noteLayers(rep *report, self map[string]float64) {
	layers := layerSelf(self)
	for _, name := range sortedKeys(layers) {
		rep.note("self."+name, layers[name], "s")
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
