package main

import (
	"fmt"
	"strings"

	"twolm/internal/engine"
)

// metricDef is one catalogue entry. Name, Unit, Better and Bound are
// mirrored in BENCHMARK.json at the repository root
// (TestCatalogueMatchesBenchmarkJSON keeps the two equal). Module is
// the repository package the metric measures, Workloads the workloads
// that report a non-zero value, and Moves the end-to-end metric a
// change to that layer should move.
type metricDef struct {
	Name      string
	Unit      string
	Better    string
	Bound     float64
	Module    string
	Workloads string
	Moves     string
}

// endToEnd are the figures a user of the simulator sees. Every workload
// reports all three, each with its own unit of work (see METRICS.md):
// a full reproduction, a full grid, one round of stream passes, or one
// simd job.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Module: "all", Workloads: "all"},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Module: "all", Workloads: "all"},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.15, Module: "all", Workloads: "all"},
}

// perLayer are the traced run's figures.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(name, unit, better, module, workloads, moves string) {
		m = append(m, metricDef{Name: name, Unit: unit, Better: better, Module: module, Workloads: workloads, Moves: moves})
	}
	// paper-quick: where a reproduction's time goes.
	for _, j := range engine.Suite(suiteConfig()) {
		add("experiments."+j.Name+".s", "s", "lower", "experiments", "paper-quick", "wall_s")
	}
	add("graph.generate.s", "s", "lower", "graph", "paper-quick", "wall_s")
	for _, k := range []string{"bfs", "cc", "kcore", "pr"} {
		add("analytics."+k+".s", "s", "lower", "analytics", "paper-quick", "wall_s")
	}
	add("analytics.ns_per_line", "ns", "lower", "analytics", "paper-quick", "wall_s")
	add("sage.s", "s", "lower", "sage", "paper-quick", "wall_s")
	add("core.perline.lines", "count", "lower", "core", "paper-quick", "wall_s")

	// streams-seq / streams-rand: the stream passes and their layers.
	add("engine.sequential-2LM.lines_per_s", "lines/s", "higher", "engine", "streams-seq", "wall_s")
	add("engine.sequential-1LM.lines_per_s", "lines/s", "higher", "engine", "streams-seq", "wall_s")
	add("engine.lfsr-random-2LM.lines_per_s", "lines/s", "higher", "engine", "streams-rand", "wall_s")
	add("engine.lfsr-random-1LM.lines_per_s", "lines/s", "higher", "engine", "streams-rand", "wall_s")
	add("core.loadrange.ns_per_line", "ns", "lower", "core", "streams-seq", "wall_s")
	add("core.storerange.ns_per_line", "ns", "lower", "core", "streams-seq", "wall_s")
	add("core.batch.ns_per_line", "ns", "lower", "core", "streams-rand", "wall_s")
	add("lfsr.fill.ns_per_line", "ns", "lower", "lfsr", "streams-rand sweep-grid", "wall_s")
	add("go.allocs_per_op", "count", "lower", "engine", "streams-seq streams-rand", "wall_s")

	// sweep-grid: each imc dispatch class, re-driven point by point.
	for _, c := range imcClasses {
		add("imc."+c+".ns_per_line", "ns", "lower", "imc", "sweep-grid", "wall_s")
		add("imc."+c+".lines", "count", "lower", "imc", "sweep-grid", "wall_s")
		add("imc."+c+".share", "frac", "lower", "imc", "sweep-grid", "wall_s")
	}
	add("imc.reset.us", "us", "lower", "imc", "sweep-grid", "wall_s")
	add("sweep.new.ms", "ms", "lower", "sweep", "sweep-grid", "setup_s")
	add("sweep.warm.s", "s", "lower", "sweep", "sweep-grid", "setup_s")
	add("go.alloc_mb", "MB", "lower", "sweep", "sweep-grid", "wall_s")

	// Simulated work: deterministic counts a simulator-only change must
	// leave identical.
	add("nvram.media_reads", "count", "lower", "nvram", "sweep-grid streams-seq streams-rand", "wall_s")
	add("nvram.media_writes", "count", "lower", "nvram", "sweep-grid streams-seq streams-rand", "wall_s")
	add("dram.cas", "count", "lower", "dram", "sweep-grid streams-seq streams-rand", "wall_s")

	// simd-open: the job path in process, then as the generator sees it.
	add("jobspec.decode.us", "us", "lower", "jobspec", "simd-open", "wall_s")
	for _, k := range simdKinds {
		add("sweep.runjob."+k.name+".us", "us", "lower", "sweep", "simd-open", "wall_s")
	}
	add("simd.submit.ms", "ms", "lower", "simd", "simd-open", "wall_s")
	add("simd.fetch.ms", "ms", "lower", "simd", "simd-open", "wall_s")
	add("simd.polls_per_job", "count", "lower", "simd", "simd-open", "wall_s")
	add("simd.p99_ms", "ms", "lower", "simd", "simd-open", "wall_s")
	add("simd.max_rate_per_s", "1/s", "higher", "simd", "simd-open", "wall_s")
	add("simd.rejected_frac", "frac", "lower", "simd", "simd-open", "wall_s")
	add("simd.queue_depth.max", "count", "lower", "simd", "simd-open", "wall_s")
	add("simd.server_cpu_ms_per_job", "ms", "lower", "simd", "simd-open", "wall_s")
	add("simd.rss_mib_per_kjob", "MiB", "lower", "simd", "simd-open", "peak_rss_mib")
	add("gen.late_ms.max", "ms", "lower", "perfbench", "simd-open", "none")

	add("trace.overhead_frac", "frac", "lower", "perfbench", "all", "none")
	return m
}

// measuredOn reports whether the workload drives the metric's layer.
func (d metricDef) measuredOn(workload string) bool {
	return d.Workloads == "all" || strings.Contains(" "+d.Workloads+" ", " "+workload+" ")
}

// describe is the metric's text-table label: name, module and the
// end-to-end metric it should move.
func (d metricDef) describe() string {
	return fmt.Sprintf("%s [%s -> %s]", d.Name, d.Module, d.Moves)
}
