// Command repro regenerates every table and figure of the paper's
// evaluation in one run and writes the artifacts — rendered text
// tables, CSV data and trace files — into a results directory.
//
// Usage:
//
//	repro [-out results] [-scale 1024] [-quick] [-parallel N] [-channels N]
//	      [-experiment all|name,name,...] [-job spec.json]
//	      [-metrics-addr host:port] [-cpuprofile f] [-memprofile f]
//
// -quick shrinks footprints (scale 8192, smaller graphs) for a fast
// sanity pass; the defaults match the calibrated study reported in
// EXPERIMENTS.md. -parallel runs the experiment suite on N workers
// (default: one per CPU); artifacts and report order are identical at
// every worker count because each experiment builds its own system and
// outcomes are merged by job order, not completion order. -channels
// sets the IMC channel count of the multichannel self-check (default
// 6, the Cascade Lake socket); a count that does not split the cache
// into whole sets per channel fails before any experiment runs.
//
// -experiment selects suite jobs by name, comma-separated, from the
// list EXPERIMENTS.md documents (fig2a_nvram_read_bw, fig5_densenet,
// graph_study, claims_check, ...). A selection writes only those jobs'
// artifacts, in suite order, and skips the throughput measurement; a
// selected claims_check computes the facts of unselected producers
// itself. The default, all, runs the whole suite. An unknown name
// fails before any job runs.
//
// -job runs one declared jobspec file instead of the suite (see
// internal/jobspec): a single point, or a design-space grid such as
// examples/sweep_default.json (288 points) and examples/sweep_quick.json
// (48 points). It writes job_results.{csv,json} under -out, using
// -parallel workers. The file defines the whole run, so -job rejects
// an explicitly set -scale, -quick, -channels, -metrics-addr or
// -experiment rather than ignore it.
//
// -metrics-addr serves the run live in Prometheus text exposition
// format at http://host:port/metrics: job-completion progress gauges,
// the multichannel scenarios' counter samples, and the throughput
// measurement's bandwidth samples. Independent of the endpoint, the
// throughput measurement always records a deterministic demand-indexed
// bandwidth trace to telemetry_throughput_trace.{csv,json} in the
// output directory.
//
// -cpuprofile and -memprofile write pprof profiles of the whole run,
// for chasing regressions in the simulator-throughput baseline that
// the suite also measures (BENCH_throughput.json in the output
// directory).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"twolm/internal/engine"
	"twolm/internal/jobspec"
	"twolm/internal/runcfg"
	"twolm/internal/sweep"
	"twolm/internal/telemetry"
)

// allExperiments is the -experiment value that runs the whole suite.
const allExperiments = "all"

// jobBypassed names the flags a -job run has no use for: the jobspec
// file sets the geometry, footprint and selection they would set.
var jobBypassed = []string{"scale", "quick", "channels", "metrics-addr", "experiment"}

// options is the parsed command line: the shared runcfg block plus the
// repro-only flags.
type options struct {
	rc         runcfg.Common
	experiment string
	cpuprofile string
	memprofile string
	// bypassed lists the jobBypassed flags given explicitly, as -name.
	bypassed []string
}

// parseFlags parses args into options without touching global flag
// state, so tests drive the same surface main does.
func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	o := &options{rc: runcfg.Defaults()}
	o.rc.Register(fs)
	o.rc.RegisterSuite(fs)
	o.rc.RegisterJob(fs)
	fs.StringVar(&o.experiment, "experiment", allExperiments,
		"comma-separated suite job names to run (see EXPERIMENTS.md); all runs the whole suite")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(jobBypassed, f.Name) {
			o.bypassed = append(o.bypassed, "-"+f.Name)
		}
	})
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if err := o.run(); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}

	if o.memprofile != "" {
		f, err := os.Create(o.memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
	}
}

// writeArtifact persists one artifact by payload type: tables as
// rendered .txt plus .csv data, counter series as .csv, text as .txt.
func writeArtifact(dir string, a engine.Artifact) error {
	switch {
	case a.Table != nil:
		fmt.Printf("== %s\n%s\n", a.Name, a.Table.String())
		txt, err := os.Create(filepath.Join(dir, a.Name+".txt"))
		if err != nil {
			return err
		}
		defer txt.Close()
		if err := a.Table.Fprint(txt); err != nil {
			return err
		}
		csv, err := os.Create(filepath.Join(dir, a.Name+".csv"))
		if err != nil {
			return err
		}
		defer csv.Close()
		return a.Table.WriteCSV(csv)
	case a.Series != nil:
		f, err := os.Create(filepath.Join(dir, a.Name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return a.Series.WriteCSV(f)
	case a.Text != "":
		return os.WriteFile(filepath.Join(dir, a.Name+".txt"), []byte(a.Text), 0o644)
	}
	return nil
}

// run executes the suite jobs the experiment selection names on the
// worker pool and writes artifacts in job order, so the report reads
// identically at any worker count; only the whole suite also measures
// simulator throughput. With -job it instead executes the one declared
// jobspec through the same shared path cmd/simd uses, writing the
// byte-identical job_results artifacts.
func (o *options) run() error {
	rc, experiment := o.rc, o.experiment
	// Reject bad input up front: the pool reports job errors only after
	// the whole suite drains, which is the wrong place to learn about a
	// typo in a flag.
	if rc.Job != "" && len(o.bypassed) > 0 {
		return fmt.Errorf("%s cannot be combined with -job: the jobspec file defines the run",
			strings.Join(o.bypassed, ", "))
	}
	if err := rc.Validate(); err != nil {
		return err
	}
	if js, err := rc.LoadJob(); err != nil {
		return err
	} else if js != nil {
		return runJob(rc, js)
	}
	cfg := engine.DefaultSuiteConfig(rc.Scale, rc.Quick)
	cfg.Multi.Channels = rc.Channels
	if err := cfg.Multi.Validate(); err != nil {
		return fmt.Errorf("-channels %d: %w", rc.Channels, err)
	}
	prom, err := rc.Metrics()
	if err != nil {
		return err
	}
	if prom != nil {
		fmt.Printf("serving metrics at http://%s/metrics\n", rc.BoundAddr)
		// The multichannel self-check publishes each scenario's samples
		// under its scenario name; Prom locks internally, so it is safe
		// to share across parallel jobs.
		cfg.Multi.Telemetry = prom
	}
	jobs, err := selectJobs(engine.Suite(cfg), experiment)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(rc.Out, 0o755); err != nil {
		return err
	}
	start := time.Now()

	if rc.Parallel > 1 {
		fmt.Printf("running %d experiments on %d workers\n", len(jobs), rc.Parallel)
	}
	var observe func(engine.Outcome)
	if prom != nil {
		prom.SetGauge("jobs_total", "Experiment jobs in this run.", float64(len(jobs)))
		observe = func(engine.Outcome) {
			prom.AddGauge("jobs_completed", "Experiment jobs completed so far.", 1)
		}
	}
	outs := engine.RunJobsObserved(context.Background(), jobs, rc.Parallel, observe)

	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.Job, o.Err)
		}
		for _, a := range o.Artifacts {
			if err := writeArtifact(rc.Out, a); err != nil {
				return fmt.Errorf("%s: %w", o.Job, err)
			}
		}
	}

	if experiment == allExperiments {
		if err := writeThroughput(rc.Out, prom); err != nil {
			return fmt.Errorf("throughput baseline: %w", err)
		}
	}

	fmt.Printf("all artifacts written to %s in %s\n", rc.Out, time.Since(start).Round(time.Millisecond))
	return nil
}

// selectJobs returns the suite jobs named in the comma-separated
// experiment list, in suite order; allExperiments keeps the whole
// suite. A name that is no job is an error listing the valid names.
func selectJobs(suite []engine.Job, experiment string) ([]engine.Job, error) {
	if experiment == allExperiments {
		return suite, nil
	}
	names := make([]string, len(suite))
	for i, j := range suite {
		names[i] = j.Name
	}
	want := strings.Split(experiment, ",")
	for _, name := range want {
		if !slices.Contains(names, name) {
			return nil, fmt.Errorf("-experiment: unknown name %q; valid names: %s, or %s",
				name, strings.Join(names, ", "), allExperiments)
		}
	}
	var jobs []engine.Job
	for _, j := range suite {
		if slices.Contains(want, j.Name) {
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// runJob executes one declared jobspec end to end through the shared
// sweep.RunJob path — the same execution cmd/simd uses, so the
// artifacts under -out are byte-identical to a simd POST of the same
// file. A timeout_ms in the spec is honored here too.
func runJob(rc runcfg.Common, js *jobspec.Spec) error {
	ctx := context.Background()
	if d := js.Timeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	start := time.Now()
	res, err := sweep.RunJob(ctx, *js, rc.Parallel, nil)
	if err != nil {
		return err
	}
	if err := res.Write(rc.Out); err != nil {
		return err
	}
	fmt.Printf("job %q: %d points, %d demand lines, artifacts in %s (%s)\n",
		res.Spec.Name, len(res.Rows), res.Lines, rc.Out, time.Since(start).Round(time.Millisecond))
	return nil
}

// throughputSampleEvery is the demand-line sampling interval of the
// throughput bandwidth trace: at the default 1/8192 measurement scale
// one pass covers ~786k demand lines, so this yields a few dozen
// samples per stream configuration.
const throughputSampleEvery = 65536

// writeThroughput measures simulator throughput (the tracked perf
// baseline — see DESIGN.md) and writes BENCH_throughput.json, plus a
// deterministic demand-indexed bandwidth trace of the measured runs
// (telemetry_throughput_trace.{csv,json}), the Figure 5/9-style
// artifact of the telemetry surface.
func writeThroughput(dir string, prom *telemetry.Prom) error {
	trace := telemetry.NewTraceSink(dir, "telemetry_throughput_trace")
	cfg := engine.DefaultThroughputConfig()
	cfg.SampleEvery = throughputSampleEvery
	if prom != nil {
		cfg.Telemetry = telemetry.Tee(trace, prom)
	} else {
		cfg.Telemetry = trace
	}
	report, err := engine.MeasureThroughput(cfg)
	if err != nil {
		return err
	}
	if err := trace.Close(); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "BENCH_throughput.json"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.WriteThroughputJSON(f); err != nil {
		return err
	}
	for _, r := range report.Results {
		fmt.Printf("throughput %-22s %12.0f lines/s\n", r.Name, r.LinesPerSec)
	}
	return nil
}
