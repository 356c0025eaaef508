// Command perfbench is the repository's benchmark: it drives the
// simulator through its public packages (and the cmd/simd daemon over
// real HTTP), times every call from outside, checks every output
// against a golden digest or an in-process reference, and prints one
// JSON result line.
//
// Usage (normally through run.sh, which builds this binary and simd):
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	          -simd <path to simd binary> -golden <dir> [-write-golden]
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics of a separate traced run,
// re-driving each layer through its own public functions and checking
// that the re-driven layer reproduces the untraced run exactly. The
// metric catalogue, with the layer each metric belongs to and the
// end-to-end metric it should move, is metrics.go; METRICS.md explains
// it for readers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are the parsed command-line settings shared by every
// workload.
type options struct {
	seed        uint64
	seconds     float64
	trace       bool
	simd        string
	golden      string
	writeGolden bool
	spanDir     string
}

// report is one workload run's outcome before it is printed.
type report struct {
	attempted int
	failed    int
	// problems lists every failed check, printed to standard error.
	problems []string
	// values holds the metric values by name; the catalogue fixes the
	// unit and which names the run must print.
	values map[string]float64
	// text is the human-readable table printed before the JSON line:
	// every figure the workload measures, by name and unit, including
	// the workload-specific ones the JSON line does not carry.
	text []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

// fail records one failed operation or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note adds one line to the human-readable table.
func (r *report) note(name string, value float64, unit string) {
	r.text = append(r.text, fmt.Sprintf("%-44s %16.6g %s", name, value, unit))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"paper-quick":  runPaper,
	"sweep-grid":   runSweep,
	"streams-seq":  func(o options) (*report, error) { return runStreams(o, seqConfigs) },
	"streams-rand": func(o options) (*report, error) { return runStreams(o, randConfigs) },
	"simd-open":    runSimd,
}

func main() {
	var o options
	var (
		workload string
		traceArg int
	)
	flag.StringVar(&workload, "workload", "", "workload to run")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; inputs are generated from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time per run in seconds")
	flag.IntVar(&traceArg, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&o.simd, "simd", "", "path of the prebuilt cmd/simd binary (simd-open)")
	flag.StringVar(&o.golden, "golden", "perfbench/golden", "directory of the golden output digests")
	flag.BoolVar(&o.writeGolden, "write-golden", false, "record this run's output digests as the golden ones")
	flag.StringVar(&o.spanDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	run, ok := workloads[workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", workload, workloadNames())
		os.Exit(2)
	}
	if traceArg != 0 && traceArg != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", traceArg)
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	o.trace = traceArg == 1

	start := time.Now()
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		os.Exit(1)
	}
	if rep.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operations\n", workload)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	rep.note("failed_frac", float64(rep.failed)/float64(rep.attempted), "frac")
	if o.trace {
		for _, d := range perLayer {
			if d.measuredOn(workload) {
				rep.note(d.describe(), rep.values[d.Name], d.Unit)
			}
		}
	}
	fmt.Printf("== %s seed=%d trace=%d (%s)\n", workload, o.seed, traceArg, time.Since(start).Round(time.Millisecond))
	for _, line := range rep.text {
		fmt.Println(line)
	}
	line, err := resultLine(rep, workload, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one metric in the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON object: every end-to-end metric
// for an untraced run, every per-layer metric for a traced one. A
// layer the workload does not drive reads 0. A metric of a layer the
// workload does drive that the run did not measure is a benchmark bug,
// reported as an error.
func resultLine(rep *report, workload string, traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok && d.measuredOn(workload) {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	return string(out), err
}

// peakRSSMiB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMiB(pid string) (float64, error) {
	return procStatusMiB(pid, "VmHWM:")
}

// procStatusMiB reads one kB-valued field of /proc/<pid>/status.
func procStatusMiB(pid, field string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field); ok {
			var kb float64
			if _, err := fmt.Sscanf(v, "%g", &kb); err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}
