// Command nvtrace records and replays demand-access traces, the
// workflow behind the paper's deterministic rerun methodology: capture
// a workload's operation stream once, then replay it against
// differently configured memory systems for exact apples-to-apples
// counter comparisons.
//
// Record a microbenchmark trace:
//
//	nvtrace -record trace.bin -op rmw -pattern seq -size 420GB-equivalent...
//	nvtrace -record trace.bin -op rmw -array-mb 384
//
// Replay it against configurations:
//
//	nvtrace -replay trace.bin                 # hardware 2LM
//	nvtrace -replay trace.bin -mode 1lm       # app-direct
//	nvtrace -replay trace.bin -no-ddo         # DDO ablation
//	nvtrace -replay trace.bin -ways 4         # associativity ablation
//
// nvtrace shares repro's -out/-scale/-quick/-metrics-addr flags
// (internal/runcfg): -scale and -quick size the modeled footprint,
// -out writes the replay's counter summary and sampled telemetry
// series as artifacts into the given directory, and -metrics-addr
// serves live counters in Prometheus exposition format at /metrics,
// sampled every 64Ki demand lines. It has no -parallel or
// -channels: trace replay is inherently serial (operation order is the
// whole point), and the modeled Cascade Lake platform fixes the
// channel count.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"twolm/internal/core"
	"twolm/internal/imc"
	"twolm/internal/kernels"
	"twolm/internal/mem"
	"twolm/internal/platform"
	"twolm/internal/runcfg"
	"twolm/internal/telemetry"
	"twolm/internal/trace"
)

// quickScale is the footprint divisor -quick selects, matching the
// other suite binaries' fast sanity pass.
const quickScale = 8192

// options is the parsed flag surface. Split from main so the parse
// and validation logic is testable without exec-ing the binary.
type options struct {
	rc          runcfg.Common
	record      string
	replay      string
	op          string
	pattern     string
	nt          bool
	arrayMB     uint64
	threads     int
	mode        string
	noDDO       bool
	ways        int
	writeAround bool
}

// parseFlags builds the nvtrace flag set over args (the arguments
// after the program name) and returns the parsed options.
func parseFlags(name string, args []string) (*options, error) {
	o := &options{rc: runcfg.Defaults()}
	o.rc.Out = "" // artifacts are optional; print-only by default
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	o.rc.Register(fs)
	fs.StringVar(&o.record, "record", "", "record a kernel trace to this file")
	fs.StringVar(&o.replay, "replay", "", "replay a trace from this file")
	fs.StringVar(&o.op, "op", "read", "kernel for -record: read, write, rmw")
	fs.StringVar(&o.pattern, "pattern", "seq", "iteration order for -record: seq, rand")
	fs.BoolVar(&o.nt, "nt", false, "use nontemporal stores for -record")
	fs.Uint64Var(&o.arrayMB, "array-mb", 384, "array size in MiB for -record")
	fs.IntVar(&o.threads, "threads", 24, "modeled thread count")
	fs.StringVar(&o.mode, "mode", "2lm", "replay mode: 2lm, 1lm")
	fs.BoolVar(&o.noDDO, "no-ddo", false, "replay with the Dirty Data Optimization disabled")
	fs.IntVar(&o.ways, "ways", 1, "replay DRAM-cache associativity")
	fs.BoolVar(&o.writeAround, "write-around", false, "replay without write-miss allocation")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

// scale resolves the effective footprint divisor: -quick overrides
// -scale with the sanity-pass footprint, as in the other binaries.
func (o *options) scale() uint64 {
	if o.rc.Quick {
		return quickScale
	}
	return o.rc.Scale
}

// run validates the options and dispatches the selected action.
func (o *options) run() error {
	if err := o.rc.Validate(); err != nil {
		return err
	}
	switch {
	case o.record != "" && o.replay != "":
		return fmt.Errorf("choose one of -record or -replay")
	case o.record != "":
		return o.doRecord()
	case o.replay != "":
		return o.doReplay()
	}
	return fmt.Errorf("one of -record or -replay is required")
}

func main() {
	o, err := parseFlags("nvtrace", os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if err := o.run(); err != nil {
		fmt.Fprintln(os.Stderr, "nvtrace:", err)
		os.Exit(1)
	}
}

// newSystem builds the configured platform.
func (o *options) newSystem() (*core.System, error) {
	cfg := core.Config{Platform: platform.CascadeLake(1, o.scale(), o.threads)}
	switch o.mode {
	case "2lm":
		cfg.Mode = core.Mode2LM
		policy := imc.HardwarePolicy()
		policy.DisableDDO = o.noDDO
		policy.Ways = o.ways
		policy.WriteAllocate = !o.writeAround
		cfg.Policy = &policy
	case "1lm":
		cfg.Mode = core.Mode1LM
	default:
		return nil, fmt.Errorf("unknown mode %q", o.mode)
	}
	return core.New(cfg)
}

func (o *options) doRecord() error {
	// Recording always runs the hardware 2LM system; the point of a
	// trace is to replay the identical stream against variants.
	rec := *o
	rec.mode, rec.noDDO, rec.ways, rec.writeAround = "2lm", false, 1, false
	sys, err := rec.newSystem()
	if err != nil {
		return err
	}
	region, err := sys.AddressSpace().Alloc(o.arrayMB * mem.MiB)
	if err != nil {
		return err
	}

	spec := kernels.Spec{Threads: o.threads}
	switch o.op {
	case "read":
		spec.Op = kernels.ReadOnly
	case "write":
		spec.Op = kernels.WriteOnly
	case "rmw":
		spec.Op = kernels.ReadModifyWrite
	default:
		return fmt.Errorf("unknown op %q", o.op)
	}
	switch o.pattern {
	case "seq":
		spec.Pattern = mem.Sequential
	case "rand":
		spec.Pattern = mem.Random
	default:
		return fmt.Errorf("unknown pattern %q", o.pattern)
	}
	if o.nt {
		spec.Store = kernels.Nontemporal
	}

	f, err := os.Create(o.record)
	if err != nil {
		return err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	w.Attach(sys)
	res, err := kernels.Run(sys, region, spec)
	trace.Detach(sys)
	if err != nil {
		return err
	}
	w.Sync(spec.Name(), 0)
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d operations (%s) to %s\n", w.Ops(), spec.Name(), o.record)
	fmt.Printf("while recording: %s\n", res.Delta)
	return nil
}

// replaySummary is the -out artifact schema of a replay run.
type replaySummary struct {
	Trace         string  `json:"trace"`
	Mode          string  `json:"mode"`
	Scale         uint64  `json:"scale"`
	Ops           uint64  `json:"ops"`
	Counters      string  `json:"counters"`
	Amplification float64 `json:"amplification"`
	HitRate       float64 `json:"hit_rate"`
	ModelSeconds  float64 `json:"model_seconds"`
}

func (o *options) doReplay() error {
	sys, err := o.newSystem()
	if err != nil {
		return err
	}
	prom, err := o.rc.Metrics()
	if err != nil {
		return err
	}
	// The telemetry sink stack depends on which outputs were asked
	// for: a Recorder feeds the -out series artifact, the Prom
	// exporter the live endpoint, both labeled and sampled identically.
	var series *telemetry.Recorder
	var sinks []telemetry.Sink
	if o.rc.Out != "" {
		series = telemetry.NewRecorder()
		sinks = append(sinks, series)
	}
	if prom != nil {
		fmt.Printf("serving metrics at http://%s/metrics\n", o.rc.BoundAddr)
		sinks = append(sinks, prom)
	}
	if len(sinks) > 0 {
		sys.SetTelemetry(telemetry.WithLabel(telemetry.Tee(sinks...), "replay"), 1<<16)
	}
	f, err := os.Open(o.replay)
	if err != nil {
		return err
	}
	defer f.Close()

	sys.SetThreads(o.threads)
	ops, err := trace.Replay(sys, f)
	if err != nil {
		return err
	}
	sys.DrainLLC()
	sys.Sync("drain", 0)
	sys.FlushTelemetry()
	if err := sys.ValidateCounters(); err != nil {
		return err
	}

	ctr := sys.Counters()
	fmt.Printf("replayed %d operations on %s\n", ops, sys)
	fmt.Printf("counters:      %s\n", ctr)
	fmt.Printf("amplification: %.2f\n", ctr.Amplification())
	fmt.Printf("hit rate:      %.3f\n", ctr.HitRate())
	fmt.Printf("elapsed:       %.6f s (model)\n", sys.Clock())

	if o.rc.Out != "" {
		if err := o.writeArtifacts(series, ops, ctr, sys.Clock()); err != nil {
			return err
		}
	}
	return nil
}

// writeArtifacts emits the replay summary JSON and the sampled
// telemetry series CSV under the -out directory.
func (o *options) writeArtifacts(series *telemetry.Recorder, ops uint64, ctr imc.Counters, clock float64) error {
	if err := os.MkdirAll(o.rc.Out, 0o755); err != nil {
		return err
	}
	sf, err := os.Create(filepath.Join(o.rc.Out, "nvtrace_replay.json"))
	if err != nil {
		return err
	}
	defer sf.Close()
	sum := replaySummary{
		Trace:         o.replay,
		Mode:          o.mode,
		Scale:         o.scale(),
		Ops:           ops,
		Counters:      ctr.String(),
		Amplification: ctr.Amplification(),
		HitRate:       ctr.HitRate(),
		ModelSeconds:  clock,
	}
	if err := telemetry.EncodeJSON(sf, sum); err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(o.rc.Out, "nvtrace_replay_series.csv"))
	if err != nil {
		return err
	}
	defer cf.Close()
	if err := series.WriteCSV(cf); err != nil {
		return err
	}
	fmt.Printf("artifacts:     %s\n", o.rc.Out)
	return nil
}
