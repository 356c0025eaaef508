// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark executes the corresponding experiment at
// a reduced footprint scale (so a full -bench=. pass stays tractable)
// and reports the figure's headline quantities as custom metrics —
// bandwidths in GB/s, amplifications, speedups — so `go test -bench`
// output reads like the paper's result tables.
//
// Absolute bandwidths come from the calibrated analytic model; what
// the benchmarks demonstrate is the *shape*: who wins, by what factor,
// and where the cliffs are. EXPERIMENTS.md records the side-by-side
// comparison with the published numbers.
package twolm_test

import (
	"strconv"
	"testing"

	"twolm/internal/engine"
	"twolm/internal/experiments"
)

// benchMicro is the microbenchmark configuration for the harness.
func benchMicro() experiments.MicroConfig {
	cfg := experiments.DefaultMicroConfig()
	cfg.Scale = 8192
	return cfg
}

// benchCNN is the CNN configuration for the harness.
func benchCNN() experiments.CNNConfig {
	cfg := experiments.DefaultCNNConfig()
	cfg.Scale = 8192
	return cfg
}

// benchGraph is the graph configuration for the harness.
func benchGraph() experiments.GraphConfig {
	cfg := experiments.DefaultGraphConfig()
	cfg.Scale = 16384
	cfg.SmallScale = 14
	cfg.LargeScale = 19
	cfg.PRRounds = 3
	return cfg
}

// cell parses a table cell as float.
func cell(b *testing.B, rows [][]string, r, c int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(rows[r][c], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", r, c, rows[r][c], err)
	}
	return v
}

// BenchmarkFig2a regenerates Figure 2a: 1LM NVRAM read bandwidth vs
// thread count, sequential and random.
func BenchmarkFig2a(b *testing.B) {
	cfg := benchMicro()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Fig2a(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := len(table.Rows) - 1
			b.ReportMetric(cell(b, table.Rows, last, 1), "seq-read-GB/s")
			b.ReportMetric(cell(b, table.Rows, last, 2), "rand64-read-GB/s")
		}
	}
}

// BenchmarkFig2b regenerates Figure 2b: 1LM NVRAM write bandwidth with
// nontemporal stores.
func BenchmarkFig2b(b *testing.B) {
	cfg := benchMicro()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Fig2b(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Row at 4 threads is the peak.
			b.ReportMetric(cell(b, table.Rows, 2, 1), "seq-write-GB/s")
			b.ReportMetric(cell(b, table.Rows, 2, 2), "rand64-write-GB/s")
		}
	}
}

// BenchmarkTable1 regenerates Table I and reports the worst-case
// access amplification (the "up to 5 accesses" headline).
func BenchmarkTable1(b *testing.B) {
	cfg := benchMicro()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			maxAmp := 0.0
			for r := range table.Rows {
				if amp := cell(b, table.Rows, r, 5); amp > maxAmp {
					maxAmp = amp
				}
			}
			b.ReportMetric(maxAmp, "max-amplification")
		}
	}
}

// BenchmarkFig4a regenerates Figure 4a: clean-read-miss bandwidth.
func BenchmarkFig4a(b *testing.B) {
	cfg := benchMicro()
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Fig4a(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Effective, "seq-effective-GB/s")
			b.ReportMetric(rows[0].Amplif, "amplification")
		}
	}
}

// BenchmarkFig4b regenerates Figure 4b: dirty-write-miss bandwidth.
func BenchmarkFig4b(b *testing.B) {
	cfg := benchMicro()
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Fig4b(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Effective, "seq-effective-GB/s")
			b.ReportMetric(rows[0].Amplif, "amplification")
		}
	}
}

// BenchmarkFig4c regenerates Figure 4c: RMW with DDO writebacks.
func BenchmarkFig4c(b *testing.B) {
	cfg := benchMicro()
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Fig4c(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].NVRAMWrite, "nvram-write-GB/s")
			b.ReportMetric(rows[0].Amplif, "amplification")
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: one 2LM DenseNet 264 training
// iteration with its tag-event profile.
func BenchmarkFig5(b *testing.B) {
	cfg := benchCNN()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(experiments.NewDenseNet(cfg))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ctr := res.Exec.Counters
			b.ReportMetric(ctr.HitRate(), "tag-hit-rate")
			dirtyShare := float64(ctr.TagMissDirty) / float64(ctr.TagMissDirty+ctr.TagMissClean)
			b.ReportMetric(dirtyShare, "dirty-miss-share")
			b.ReportMetric(res.Exec.Elapsed*float64(cfg.Scale), "runtime-s-unscaled")
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: the dense-block kernel snapshot.
func BenchmarkFig6(b *testing.B) {
	cfg := benchCNN()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Fig6(experiments.NewDenseNet(cfg))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(table.Rows) > 0 {
			b.ReportMetric(float64(len(table.Rows)), "kernels-sampled")
		}
	}
}

// BenchmarkFig10 regenerates Figure 10: the AutoTM iteration trace and
// its forward/backward phase separation.
func BenchmarkFig10(b *testing.B) {
	cfg := benchCNN()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(experiments.NewDenseNet(cfg))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fwdW := cell(b, res.PhaseTable.Rows, 0, 2)
			bwdR := cell(b, res.PhaseTable.Rows, 1, 1)
			b.ReportMetric(fwdW, "fwd-nvram-write-GB")
			b.ReportMetric(bwdR, "bwd-nvram-read-GB")
		}
	}
}

// BenchmarkTable2 regenerates Table II: 2LM vs AutoTM across the three
// networks, reporting the speedups the paper headlines.
func BenchmarkTable2(b *testing.B) {
	cfg := benchCNN()
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Table2(experiments.NewDenseNet(cfg))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Speedup, r.Network+"-speedup")
			}
		}
	}
}

// benchStudy caches the graph study across graph benchmarks within one
// bench process (it is deterministic and shared by Figures 7-9).
var benchStudy *experiments.Study

func getBenchStudy(b *testing.B) *experiments.Study {
	b.Helper()
	if benchStudy == nil {
		s, err := experiments.RunGraphStudy(benchGraph())
		if err != nil {
			b.Fatal(err)
		}
		benchStudy = s
	}
	return benchStudy
}

// BenchmarkFig7 regenerates Figure 7: graph kernels when the input
// fits versus exceeds the DRAM cache.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchStudy = nil
		s := getBenchStudy(b)
		if i == 0 {
			table := s.Fig7()
			// Row 3 = small pr, row 7 = large pr.
			b.ReportMetric(cell(b, table.Rows, 3, 3), "fits-pr-dram-GB/s")
			b.ReportMetric(cell(b, table.Rows, 7, 3), "exceeds-pr-dram-GB/s")
			b.ReportMetric(cell(b, table.Rows, 7, 6), "exceeds-pr-amplification")
		}
	}
}

// BenchmarkFig8 regenerates Figure 8: total data moved, NUMA vs 2LM.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := getBenchStudy(b)
		table := s.Fig8()
		if i == 0 {
			worst := 0.0
			for r := range table.Rows {
				if v := cell(b, table.Rows, r, 3); v > worst {
					worst = v
				}
			}
			b.ReportMetric(worst, "max-2lm-vs-numa-data")
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: the pagerank traces.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := getBenchStudy(b)
		small, large := s.Fig9Traces()
		if i == 0 && small != nil && large != nil {
			sl := small.Samples()[small.Len()-2]
			ll := large.Samples()[large.Len()-2]
			b.ReportMetric(float64(sl.Delta.TagMissClean+sl.Delta.TagMissDirty), "fits-steady-misses")
			b.ReportMetric(float64(ll.Delta.TagMissClean+ll.Delta.TagMissDirty), "exceeds-steady-misses")
		}
	}
}

// BenchmarkSage regenerates the Section VII-A-2 comparison.
func BenchmarkSage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := getBenchStudy(b)
		if i == 0 {
			var sum, n float64
			for _, kernel := range experiments.KernelNames {
				twolm := findRun(s, string(experiments.Mode2LMFlat), kernel)
				sg := findRun(s, string(experiments.ModeSage), kernel)
				if twolm != nil && sg != nil && sg.Result.Elapsed > 0 {
					sum += twolm.Result.Elapsed / sg.Result.Elapsed
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(sum/n, "avg-sage-speedup")
			}
		}
	}
}

// BenchmarkAblationDDO quantifies the Dirty Data Optimization: the
// RMW workload with and without the tag-check elision.
func BenchmarkAblationDDO(b *testing.B) {
	cfg := benchMicro()
	for i := 0; i < b.N; i++ {
		table, err := experiments.AblationDDO(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cell(b, table.Rows, 0, 4), "amp-with-ddo")
			b.ReportMetric(cell(b, table.Rows, 1, 4), "amp-without-ddo")
		}
	}
}

// BenchmarkAblationWritePolicy contrasts allocate-on-write-miss with
// write-around on the dirty-write-miss workload.
func BenchmarkAblationWritePolicy(b *testing.B) {
	cfg := benchMicro()
	for i := 0; i < b.N; i++ {
		table, err := experiments.AblationWritePolicy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cell(b, table.Rows, 0, 6), "amp-allocate")
			b.ReportMetric(cell(b, table.Rows, 1, 6), "amp-write-around")
		}
	}
}

// BenchmarkAblationAssociativity reruns the DenseNet iteration at
// 1-way and 4-way — and reports the (near-null) improvement, which is
// the finding: DenseNet's misses are lifetime misses, not conflicts.
func BenchmarkAblationAssociativity(b *testing.B) {
	cfg := benchCNN()
	for i := 0; i < b.N; i++ {
		table, err := experiments.AblationAssociativity(experiments.NewDenseNet(cfg), []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rt1 := cell(b, table.Rows, 0, 1)
			rt4 := cell(b, table.Rows, 1, 1)
			b.ReportMetric(rt1/rt4, "4way-speedup")
		}
	}
}

// BenchmarkCoDesign runs the paper's closing proposal: AutoTM moves by
// CPU, by an I/O-class DMA engine, and by a co-designed mover.
func BenchmarkCoDesign(b *testing.B) {
	cfg := benchCNN()
	for i := 0; i < b.N; i++ {
		table, err := experiments.CoDesign(experiments.NewDenseNet(cfg))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rt2 := cell(b, table.Rows, 0, 1)
			b.ReportMetric(rt2/cell(b, table.Rows, 1, 1), "cpu-sync-speedup")
			b.ReportMetric(rt2/cell(b, table.Rows, 2, 1), "ioat-speedup")
			b.ReportMetric(rt2/cell(b, table.Rows, 3, 1), "codesign-speedup")
		}
	}
}

// BenchmarkEmbedding runs the DLRM-style embedding-table study.
func BenchmarkEmbedding(b *testing.B) {
	cfg := experiments.DefaultEmbedConfig()
	cfg.Scale = 16384
	cfg.Model.RowsPerTable = 1 << 15
	for i := 0; i < b.N; i++ {
		table, err := experiments.EmbedStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Inference throughput, both placements (Mlookups/s).
			b.ReportMetric(cell(b, table.Rows, 0, 2), "2lm-mlookups/s")
			b.ReportMetric(cell(b, table.Rows, 1, 2), "sw-mlookups/s")
		}
	}
}

// benchSuite is the quick-footprint suite configuration the engine
// benchmarks share.
func benchSuite() engine.SuiteConfig {
	return engine.DefaultSuiteConfig(8192, true)
}

// BenchmarkSuiteSerial runs the whole reproduction suite on a single
// worker — the historical sequential cmd/repro behavior.
func BenchmarkSuiteSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outs := engine.RunJobs(engine.Suite(benchSuite()), 1)
		if err := engine.FirstError(outs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteParallel4 runs the same suite on four workers. Each
// experiment builds its own core.System; the only state jobs share is
// the run's claim cells, which claims_check reads (waiting for a
// producer still in flight), so wall clock should drop near-linearly
// until the longest single job becomes the critical path. The graph
// study spreads its own runs over GOMAXPROCS goroutines, so on a
// machine with fewer CPUs than workers it competes with the other jobs
// for them.
func BenchmarkSuiteParallel4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outs := engine.RunJobs(engine.Suite(benchSuite()), 4)
		if err := engine.FirstError(outs); err != nil {
			b.Fatal(err)
		}
	}
}

// findRun locates a large-graph run by mode and kernel.
func findRun(s *experiments.Study, mode, kernel string) *experiments.GraphRun {
	for i := range s.Runs {
		r := &s.Runs[i]
		if r.Graph == s.Large.Name && string(r.Mode) == mode && r.Kernel == kernel {
			return r
		}
	}
	return nil
}
